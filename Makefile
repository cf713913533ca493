# Standard entry points so every PR runs the same way.

DUNE ?= dune

.PHONY: all build test doc dead-exports bench bench-json bench-smoke perf-gate perf-gate-strict perf-baseline fuzz crash-test serve-smoke serve-soak fmt clean

all: build

build:
	$(DUNE) build

# The perf gate rides along non-fatally (leading -): an allocation
# regression prints loudly but does not mask a test failure. The
# golden suite is re-run with the chrome-trace sink enabled to pin the
# invariant that observability never perturbs the event stream.
test:
	$(DUNE) build && $(DUNE) runtest && $(DUNE) exec fuzz/fuzz_main.exe -- 10
	cd test && OBS_TRACE=/tmp/rfid_golden_trace.json $(DUNE) exec ./test_main.exe -- test golden
	$(MAKE) crash-test
	$(MAKE) serve-smoke
	$(MAKE) serve-soak
	$(MAKE) doc
	$(MAKE) dead-exports
	$(MAKE) bench-smoke
	-$(MAKE) perf-gate

# API docs. The container may not ship odoc; fall back to a full
# signature check (which still catches malformed doc comments attached
# to the wrong item) so `make doc` is meaningful everywhere. With odoc
# present, any warning is a failure. Runs fatally inside `make test`
# (no leading -): a doc failure fails the build either way.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  out=$$($(DUNE) build @doc 2>&1); status=$$?; \
	  if [ -n "$$out" ]; then echo "$$out"; fi; \
	  if [ $$status -ne 0 ] || [ -n "$$out" ]; then \
	    echo "make doc: FAIL (odoc errors or warnings above)"; exit 1; \
	  fi; \
	  echo "make doc: OK (_build/default/_doc/_html)"; \
	else \
	  echo "make doc: odoc not installed; checking signatures with dune build @check"; \
	  $(DUNE) build @check; \
	fi

# Fails when a value a lib/*/*.mli exports has no user outside its own
# module, when a submodule typed by a named module type (Set.S, ...)
# is mentioned by no user outside its module, or when an optional
# argument of an exported function is passed by no user (its own
# module counts: a setting nobody sets is a constant). Users are the
# modules under lib bin bench perfbench smoke crash fuzz examples,
# found in the typed trees of the build; tests do not count. The
# commented allow-list lives in tools/dead_exports.ml, and an entry
# that names no export or whose export has a user fails too. On
# success it prints the settable-values count (exported optional
# arguments plus config-record fields), with no gate on it. Fatal
# inside `make test`.
dead-exports:
	$(DUNE) build @check && $(DUNE) exec tools/dead_exports.exe -- _build/default

# Randomized corrupted-input fuzz (seeds are logged; reproduce any
# failure with `dune exec fuzz/fuzz_main.exe -- ITERS BASE_SEED`).
fuzz:
	$(DUNE) exec fuzz/fuzz_main.exe

# Kill-anywhere durability proof, one pass line per mode: SIGKILL the
# CLI at randomized durable-byte offsets, recover with `--recover`, and
# require the recovered event log to be byte-identical to an
# uninterrupted run's. `infer` mode kills the batch run (50 trials);
# `serve` mode kills `serve --port 0` mid-feed, recovers, re-feeds the
# whole trace and DRAINs (30 trials). Seeds are logged; reproduce one
# trial with `dune exec crash/crash_main.exe -- [serve] 1 SEED`.
crash-test:
	$(DUNE) exec crash/crash_main.exe -- 50
	$(DUNE) exec crash/crash_main.exe -- serve 30

# End-to-end gate on the stream server: boots the real `rfid_clean
# serve` binary on an ephemeral port, feeds ~100 epochs over loopback,
# and requires (1) every query reply bit-identical to an in-process
# replay of the same trace, (2) BUSY under forced admission overflow,
# and (3) SIGKILL-then-`--recover` re-serving with an events log
# byte-identical to an uninterrupted run's. Fatal in `make test`.
serve-smoke:
	$(DUNE) exec smoke/serve_smoke.exe

# Misbehaving-client soak of the stream server, one pass line per
# round and phase: boots `rfid_clean serve --port 0` (200 objects) and
# runs 12 rounds of ingest, a stuck-then-slow reader pipelining 12 MiB
# of RANGE replies, 32 half-open sockets, connect/close churn past
# max_conns = 64, and an open-loop PING train at 1 ms spacing. Fails if
# VmRSS rises more than 16 MiB while the reader is stuck, if the peak
# VmRSS of the last two rounds exceeds the first two after warm-up by
# over 10%, if the server's fd count does not return to its pre-client
# value, if any request goes unanswered, or if the PING p50 reaches
# 0.5 ms. Fatal in `make test`; ~20 s.
serve-soak:
	$(DUNE) exec smoke/serve_soak.exe

# Full table/figure reproduction harness (slow).
bench:
	$(DUNE) exec bench/main.exe

# Machine-readable throughput bench; BENCH_filter.json is committed so
# the perf trajectory is diffable across PRs. The workload string
# records the adaptive-effort knobs (resample_ess, min_particles); the
# f+index+adaptive points and the adaptive_check block track the
# speed/accuracy trade-off of the adaptive configuration.
bench-json:
	$(DUNE) exec bench/main.exe -- --json BENCH_filter.json

# Seconds-scale end-to-end pass over the JSON-bench machinery (one
# small point per variant + the faulted robustness point); rides along
# with `make test` so harness bitrot is caught early.
bench-smoke:
	$(DUNE) exec bench/main.exe -- --smoke

# Allocation + accuracy regression gate on three 200-object workload
# points (factorized+index, f+index+compress, and f+index+adaptive
# with the canonical adaptive knobs) plus a scaling guard: the
# 5000-vs-500-object minor-words ratio must stay under the baseline's
# pinned bound, pinning per-epoch cost to O(sensing scope). Fails if
# allocation exceeds the committed baseline by >10%, if mean XY error
# exceeds the baseline's err_max_ratio (fatal — a speedup must not
# quietly trade away accuracy; the seeded workload makes the error
# measurement exact), or if the scaling ratio exceeds its bound. Also
# compares wall-clock ns/epoch against the baseline (warn-only: timing
# is noisy on shared machines); override the ratio bound with
# PERF_GATE_TIME_RATIO=<float>, or promote the time check to fatal
# with PERF_GATE_TIME_FATAL=1 / `make perf-gate-strict`.
perf-gate:
	$(DUNE) exec bench/main.exe -- --perf-gate BENCH_baseline.json

# The same gate with the time bound fatal, for quiet machines and
# deliberate perf work.
perf-gate-strict:
	PERF_GATE_TIME_FATAL=1 $(DUNE) exec bench/main.exe -- --perf-gate BENCH_baseline.json

# Refresh the gate baseline after a deliberate allocation-profile
# change; commit BENCH_baseline.json together with that change.
perf-baseline:
	$(DUNE) exec bench/main.exe -- --perf-baseline BENCH_baseline.json

fmt:
	$(DUNE) build @fmt --auto-promote 2>/dev/null || true

clean:
	$(DUNE) clean
