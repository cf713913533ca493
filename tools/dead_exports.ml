(* dead_exports: report every export of a library interface
   (lib/*/*.mli) that no other module uses, and every optional argument
   of an exported function that no module passes.

   It reads the typed trees dune leaves in the build directory: the
   .cmti of each library module for its exports, and the .cmt of every
   module in the user directories for the values they reference and the
   optional arguments they pass. Opens, local opens and module aliases
   are resolved as the compiler resolved them, so a use is found however
   it is spelled. Run after a build of the @check alias, which writes a
   .cmt for executables too:

     dune build @check && dune exec tools/dead_exports.exe -- _build/default

   Three kinds of export are checked:
   - a value, used when a module other than its own references it;
   - an optional argument [?l] of an exported function, used when any
     module, its own included, applies the function with [~l] or [?l]
     (a setting nobody sets is a constant);
   - a submodule given by a named module type (say [Set.S with ...]),
     whose values are that type's contract, used when a module other
     than its own mentions any path through it.

   Prints one line per unused export and exits 1 if there is any that
   the allow-list below does not name, or if the allow-list has gone
   stale: an entry that names no export, or whose export now has a
   user. *)

(* Directories whose modules count as users. Tests do not: an export
   only tests call is dead code unless the allow-list says why not. *)
let user_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "smoke"; "crash"; "fuzz"; "examples" ]

(* Exports kept although only tests use them, as
   "<Lib>.<Module>.<value>". Each is either a reference a test compares
   against or a probe of state the public path changes. *)
let allowed =
  [
    (* seam: the golden fixtures pin a short compression horizon *)
    "Rfid_core.Config.create ?compress_after";
    (* seam: the golden fixtures pin a short widening horizon *)
    "Rfid_core.Config.create ?degraded_widen_after";
    (* seam: the golden fixtures pin a short report delay *)
    "Rfid_core.Config.create ?report_delay";
    (* probe: whether an object's belief is in its compressed form *)
    "Rfid_core.Factored_filter.is_compressed";
    (* probe: live boxes in the sensing-region index *)
    "Rfid_core.Factored_filter.num_index_boxes";
    (* reference: the containment the cone sampler is checked against *)
    "Rfid_geom.Cone.contains";
    (* probe: the grid cell size the index tunes itself to *)
    "Rfid_geom.Dyn_index.cell_size";
    (* reference: the model's forward sampler, ground truth for the
       model-matched accuracy test *)
    "Rfid_model.Generative.run";
    (* reference: the radius past which the batched kernels cull *)
    "Rfid_model.Sensor_model.saturation_radius";
    (* reference: the per-particle term the batched kernels must match *)
    "Rfid_model.Sensor_model.log_prob_pre";
    (* probe: a gauge's last value *)
    "Rfid_obs.Metrics.gauge_value";
    (* reference: the density the fit, the sampler and the confidence
       ellipse are checked against *)
    "Rfid_prob.Gaussian.log_pdf";
    (* reference: L^T in the L L^T = A check of the Cholesky factor *)
    "Rfid_prob.Linalg.transpose";
    (* reference: the product in the L L^T = A check *)
    "Rfid_prob.Linalg.mat_mul";
    (* reference: A x, checked against b after a solve *)
    "Rfid_prob.Linalg.mat_vec";
    (* probe: arena allocations, pinned at zero in steady state *)
    "Rfid_prob.Scratch.allocations";
    (* probe: the decision step_engine acts on but does not return *)
    "Rfid_robust.Ingest.admit";
    (* probe: which sensor a boot took, the shipped constant or a fit *)
    "Rfid_serve.Bootstrap.sensor";
    (* probe: bytes the line framer holds back *)
    "Rfid_serve.Framing.pending_bytes";
    (* probe: datagrams the metrics pusher sent *)
    "Rfid_serve.Push.sends";
    (* probe: datagrams the metrics pusher failed to send *)
    "Rfid_serve.Push.send_errors";
    (* probe: Gaussian refits the query cache performed *)
    "Rfid_serve.Query.fit_count";
    (* reference: the reply-backlog bound the slow-reader test asserts *)
    "Rfid_serve.Server.max_out_bytes";
    (* seam: lets a test stop the accept loop *)
    "Rfid_serve.Server.run ?should_stop";
  ]

let rec files_under dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.sort String.compare
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files_under p else [ p ])

(* "Rfid_core__Engine" -> "Rfid_core.Engine"; "Rfid_core__" (the
   library's alias module, opened inside the library) -> "Rfid_core". *)
let unmangle name =
  let b = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      if !i + 2 < n then Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  Buffer.contents b

type export =
  | Value of string
  | Optional of string * string  (** function, label *)
  | Opaque of string  (** submodule given by a named module type *)

let name = function
  | Value k | Opaque k -> k
  | Optional (k, l) -> k ^ " ?" ^ l

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, ret, _) -> l :: optional_labels ret
  | Types.Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

(* What an interface exports, submodules included. *)
let rec sig_exports prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.Typedtree.sig_desc with
      | Typedtree.Tsig_value vd ->
          let k = prefix ^ "." ^ Ident.name vd.Typedtree.val_id in
          Value k
          :: List.map (fun l -> Optional (k, l))
               (optional_labels vd.Typedtree.val_desc.Typedtree.ctyp_type)
      | Typedtree.Tsig_module { md_id = Some id; md_type; _ } -> (
          let k = prefix ^ "." ^ Ident.name id in
          match md_type.Typedtree.mty_desc with
          | Typedtree.Tmty_signature sg -> sig_exports k sg
          | _ -> [ Opaque k ])
      | _ -> [])
    sg.Typedtree.sig_items

(* Exports -> the .mli that declares each. *)
let exports root =
  files_under (Filename.concat root "lib")
  |> List.filter (fun f -> Filename.check_suffix f ".cmti")
  |> List.concat_map (fun f ->
         let cmt = Cmt_format.read_cmt f in
         match cmt.Cmt_format.cmt_annots with
         | Cmt_format.Interface sg ->
             let mli = Option.value cmt.Cmt_format.cmt_sourcefile ~default:f in
             List.map (fun e -> (e, mli))
               (sig_exports (unmangle cmt.Cmt_format.cmt_modname) sg)
         | _ -> [])

(* The exports the user modules use, by [name]: every value path they
   reference, every module path they mention, and every optional
   argument they pass, with local module aliases expanded. *)
let uses root =
  let used = Hashtbl.create 4096 in
  List.iter
    (fun dir ->
      let cmts =
        files_under (Filename.concat root dir)
        |> List.filter (fun f -> Filename.check_suffix f ".cmt")
      in
      if cmts = [] then begin
        Printf.eprintf "dead-exports: no .cmt under %s; run dune build @check first\n"
          (Filename.concat root dir);
        exit 2
      end;
      cmts
      |> List.iter (fun f ->
             let cmt = Cmt_format.read_cmt f in
             match cmt.Cmt_format.cmt_annots with
             | Cmt_format.Implementation str ->
                 let aliases = Hashtbl.create 16 in
                 let rec comps = function
                   | Path.Pident id -> (
                       match Hashtbl.find_opt aliases (Ident.unique_name id) with
                       | Some p -> comps p
                       | None -> [ unmangle (Ident.name id) ])
                   | Path.Pdot (p, s) -> comps p @ [ s ]
                   | _ -> []
                 in
                 let key p = String.concat "." (comps p) in
                 (* A path and every module prefix of it. *)
                 let mention p =
                   ignore
                     (List.fold_left
                        (fun acc c ->
                          let k = if acc = "" then c else acc ^ "." ^ c in
                          Hashtbl.replace used k ();
                          k)
                        "" (comps p))
                 in
                 (* The module's own top-level values and submodules, so
                    that a pass of an optional argument from inside it
                    counts. *)
                 let self = Hashtbl.create 64 in
                 let modname = unmangle cmt.Cmt_format.cmt_modname in
                 let note_self id =
                   Hashtbl.replace self (Ident.unique_name id) (modname ^ "." ^ Ident.name id)
                 in
                 List.iter
                   (fun (si : Typedtree.structure_item) ->
                     match si.Typedtree.str_desc with
                     | Typedtree.Tstr_value (_, vbs) ->
                         List.iter note_self (Typedtree.let_bound_idents vbs)
                     | Typedtree.Tstr_module { mb_id = Some id; _ } -> note_self id
                     | _ -> ())
                   str.Typedtree.str_items;
                 let rec callee_key = function
                   | Path.Pident id when Hashtbl.mem aliases (Ident.unique_name id) ->
                       callee_key (Hashtbl.find aliases (Ident.unique_name id))
                   | Path.Pident id when Hashtbl.mem self (Ident.unique_name id) ->
                       Hashtbl.find self (Ident.unique_name id)
                   | Path.Pdot (p, s) -> callee_key p ^ "." ^ s
                   | p -> key p
                 in
                 let rec alias_target (me : Typedtree.module_expr) =
                   match me.Typedtree.mod_desc with
                   | Typedtree.Tmod_ident (p, _) -> Some p
                   | Typedtree.Tmod_constraint (me, _, _, _) -> alias_target me
                   | _ -> None
                 in
                 let note_alias id me =
                   match (id, alias_target me) with
                   | Some id, Some p -> Hashtbl.replace aliases (Ident.unique_name id) p
                   | _ -> ()
                 in
                 let open Tast_iterator in
                 let it =
                   {
                     default_iterator with
                     structure_item =
                       (fun sub si ->
                         (match si.Typedtree.str_desc with
                         | Typedtree.Tstr_module mb ->
                             note_alias mb.Typedtree.mb_id mb.Typedtree.mb_expr
                         | _ -> ());
                         default_iterator.structure_item sub si);
                     expr =
                       (fun sub e ->
                         (match e.Typedtree.exp_desc with
                         | Typedtree.Texp_ident (p, _, _) -> mention p
                         | Typedtree.Texp_apply
                             ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) ->
                             List.iter
                               (function
                                 | Asttypes.Optional l, Some (a : Typedtree.expression)
                                   when a.exp_loc <> Location.none ->
                                     Hashtbl.replace used (name (Optional (callee_key p, l))) ()
                                 | _ -> ())
                               args
                         | Typedtree.Texp_letmodule (id, _, _, me, _) -> note_alias id me
                         | _ -> ());
                         default_iterator.expr sub e);
                     module_expr =
                       (fun sub me ->
                         (match me.Typedtree.mod_desc with
                         | Typedtree.Tmod_ident (p, _) -> mention p
                         | _ -> ());
                         default_iterator.module_expr sub me);
                     typ =
                       (fun sub ct ->
                         (match ct.Typedtree.ctyp_desc with
                         | Typedtree.Ttyp_constr (p, _, _) -> mention p
                         | _ -> ());
                         default_iterator.typ sub ct);
                   }
                 in
                 it.structure it str
             | _ -> ()))
    user_dirs;
  used

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "_build/default" in
  let used = uses root in
  let exports = exports root in
  let dead = List.filter (fun (e, _) -> not (Hashtbl.mem used (name e))) exports in
  let fatal = List.filter (fun (e, _) -> not (List.mem (name e) allowed)) dead in
  List.iter
    (fun (e, mli) ->
      let what =
        match e with
        | Value _ -> "has no user outside its module"
        | Optional _ -> "is passed by no user"
        | Opaque _ -> "is mentioned by no user outside its module"
      in
      Printf.printf "%s: %s %s%s\n" mli (name e) what
        (if List.mem (name e) allowed then " (allowed)" else ""))
    dead;
  let stale =
    List.filter (fun k -> not (List.exists (fun (e, _) -> name e = k) dead)) allowed
  in
  List.iter
    (fun k ->
      Printf.printf "tools/dead_exports.ml: allow-list entry %s %s\n" k
        (if List.exists (fun (e, _) -> name e = k) exports then "has a user now"
         else "names no export"))
    stale;
  if fatal <> [] || stale <> [] then begin
    Printf.printf
      "dead-exports: FAIL: %d unused export(s), %d stale allow-list entr(ies); delete \
       or hide unused exports, make unpassed optional arguments constants, or \
       allow-list them with a reason; drop stale entries\n"
      (List.length fatal) (List.length stale);
    exit 1
  end
  else Printf.printf "dead-exports: OK\n"
