(* dead_exports: report every value a library interface (lib/*/*.mli)
   exports that no other module uses.

   It reads the typed trees dune leaves in the build directory: the
   .cmti of each library module for its exports, and the .cmt of every
   module in the user directories for the values they reference. Opens,
   local opens and module aliases are resolved as the compiler resolved
   them, so a use is found however it is spelled. Run after a build of
   the @check alias, which writes a .cmt for executables too:

     dune build @check && dune exec tools/dead_exports.exe -- _build/default

   Prints one line per unused export and exits 1 if there is any that
   the allow-list below does not name. *)

(* Directories whose modules count as users. *)
let user_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "smoke"; "crash"; "fuzz"; "test"; "examples" ]

(* Exports kept although nothing outside their module uses them, as
   "<Lib>.<Module>.<value>", each with a comment saying why. Empty:
   every export has a user today. *)
let allowed : string list = []

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

(* The values an interface writes out, submodules included. A
   submodule given by a named module type (say [Map.S with ...])
   exports that type's contract, not values of this project, so it is
   skipped. *)
let rec sig_values prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.Typedtree.sig_desc with
      | Typedtree.Tsig_value vd -> [ prefix ^ "." ^ Ident.name vd.Typedtree.val_id ]
      | Typedtree.Tsig_module
          { md_id = Some id; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          sig_values (prefix ^ "." ^ Ident.name id) sg
      | _ -> [])
    sg.Typedtree.sig_items

(* Exports: "<Lib>.<Module>[.<Sub>].<value>" -> the .mli that declares it. *)
let exports root =
  files_under (Filename.concat root "lib")
  |> List.filter (fun f -> Filename.check_suffix f ".cmti")
  |> List.concat_map (fun f ->
         let cmt = Cmt_format.read_cmt f in
         match cmt.Cmt_format.cmt_annots with
         | Cmt_format.Interface sg ->
             let mli = Option.value cmt.Cmt_format.cmt_sourcefile ~default:f in
             List.map (fun k -> (k, mli))
               (sig_values (unmangle cmt.Cmt_format.cmt_modname) sg)
         | _ -> [])

(* Every value path the user modules reference, with local module
   aliases expanded. *)
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
             match (Cmt_format.read_cmt f).Cmt_format.cmt_annots with
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
                         | Typedtree.Texp_ident (p, _, _) -> Hashtbl.replace used (key p) ()
                         | Typedtree.Texp_letmodule (id, _, _, me, _) -> note_alias id me
                         | _ -> ());
                         default_iterator.expr sub e);
                   }
                 in
                 it.structure it str
             | _ -> ()))
    user_dirs;
  used

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "_build/default" in
  let used = uses root in
  let dead = List.filter (fun (k, _) -> not (Hashtbl.mem used k)) (exports root) in
  let fatal = List.filter (fun (k, _) -> not (List.mem k allowed)) dead in
  List.iter
    (fun (k, mli) ->
      Printf.printf "%s: %s has no user outside its module%s\n" mli k
        (if List.mem k allowed then " (allowed)" else ""))
    dead;
  if fatal <> [] then begin
    Printf.printf
      "dead-exports: FAIL: %d unused export(s); delete them, hide them in the .mli, \
       or add them to the allow-list in tools/dead_exports.ml with a reason\n"
      (List.length fatal);
    exit 1
  end
  else Printf.printf "dead-exports: OK\n"
