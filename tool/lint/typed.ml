(* Typed tier of basalt-lint: rules that need identifiers resolved to
   their real paths and expressions to their real types, run over the
   typedtree recovered from dune's [.cmt] files (produced by any build;
   [dune build @check] is the cheapest way to refresh them).

   Interfaces and files whose [.cmt] is missing simply don't get this
   tier (the driver records that D9/D10 were not checked there, which
   also keeps the D11 audit honest). *)

module L = Lint
open Typedtree

(* ------------------------------------------------------------------ *)
(* Path normalisation                                                  *)

(* Dune-mangled compilation unit names ([Basalt_prng__Rng]) flatten to
   their real module path. *)
let split_mangled s =
  let n = String.length s in
  let rec go start i acc =
    if i + 1 < n && s.[i] = '_' && s.[i + 1] = '_' then
      go (i + 2) (i + 2) (String.sub s start (i - start) :: acc)
    else if i >= n then List.rev (String.sub s start (n - start) :: acc)
    else go start (i + 1) acc
  in
  List.filter (fun p -> p <> "") (go 0 0 [])

let rec flatten_path (p : Path.t) =
  match p with
  | Path.Pident id -> split_mangled (Ident.name id)
  | Path.Pdot (p, s) -> flatten_path p @ [ s ]
  | Path.Papply (p, _) -> flatten_path p
  | Path.Pextra_ty (p, _) -> flatten_path p

(* ------------------------------------------------------------------ *)
(* Analysis context                                                    *)

type ctx = {
  rel_path : string;
  mutable findings : L.finding list;
  (* File-local module aliases ([module Rng = Basalt_prng.Rng]), mapped
     to their fully resolved paths; instances of [Hashtbl.Make] map to
     ["Hashtbl"] so [H.fold] classifies like [Hashtbl.fold]. *)
  aliases : (string, string list) Hashtbl.t;
  (* Top-level functions of this file whose body touches a PRNG stream /
     emits telemetry (interprocedural summaries, file-local). *)
  rng_fns : (string, unit) Hashtbl.t;
  obs_fns : (string, unit) Hashtbl.t;
  (* Idents bound to an unordered-iteration result (D9 accumulation
     taint), keyed by [Ident.unique_name]. *)
  tainted : (string, unit) Hashtbl.t;
  (* Innermost enclosing unordered-iteration callback, if any. *)
  mutable unordered : string option;
}

let report ctx rule line message =
  ctx.findings <- { L.file = ctx.rel_path; line; rule; message } :: ctx.findings

let resolve ctx p =
  let parts = flatten_path p in
  let parts =
    match parts with
    | head :: rest -> (
        match Hashtbl.find_opt ctx.aliases head with
        | Some full -> full @ rest
        | None -> parts)
    | [] -> []
  in
  match parts with "Stdlib" :: rest -> rest | parts -> parts

let head_path ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (resolve ctx p)
  | _ -> None

let rec type_head ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> Some p
  | Tpoly (t, _) -> type_head t
  | _ -> None

let is_rng_type ctx ty =
  match type_head ty with
  | Some p -> (
      match resolve ctx p with
      | [ "Basalt_prng"; "Rng"; "t" ] -> true
      | _ -> false)
  | None -> false

let primitive_type ty =
  match type_head ty with
  | Some p -> (
      match flatten_path p with
      | [ ("int" | "float" | "bool" | "unit" | "char") ] -> true
      | _ -> false)
  | None -> false

let is_rng_fn = function "Basalt_prng" :: "Rng" :: _ -> true | _ -> false
let is_obs_path = function "Basalt_obs" :: _ -> true | _ -> false

(* Iteration constructs whose visit order is the hash table's bucket
   layout, not a function of the protocol history. *)
let unordered_construct = function
  | [ "Hashtbl"; ("fold" | "iter" | "filter_map_inplace") as f ] ->
      Some ("Hashtbl." ^ f)
  | _ -> None

(* Applications whose result inherits hash-table iteration order. *)
let unordered_source = function
  | [ "Hashtbl";
      ("fold" | "to_seq" | "to_seq_keys" | "to_seq_values") ] ->
      true
  | _ -> false

(* Order-preserving transforms propagate D9 taint; sorts cleanse it. *)
let sort_fn = function
  | [ ("List" | "Array"); ("sort" | "sort_uniq" | "stable_sort" | "fast_sort") ]
    -> true
  | _ -> false

let order_preserving = function
  | ("List" | "Array" | "Seq") :: _ -> true
  | _ -> false

let plain_args args =
  List.filter_map
    (fun (lbl, a) ->
      match (lbl, a) with
      | Asttypes.Nolabel, Some a -> Some a
      | _, Some a -> Some a
      | _, None -> None)
    args

(* ------------------------------------------------------------------ *)
(* Pass 0: module aliases                                              *)

let collect_aliases ctx str =
  let default = Tast_iterator.default_iterator in
  let module_binding sub (mb : module_binding) =
    (match (mb.mb_id, mb.mb_expr.mod_desc) with
    | Some id, Tmod_ident (p, _) ->
        Hashtbl.replace ctx.aliases (Ident.name id) (resolve ctx p)
    | Some id, Tmod_apply ({ mod_desc = Tmod_ident (f, _); _ }, _, _)
      when resolve ctx f = [ "Hashtbl"; "Make" ] ->
        Hashtbl.replace ctx.aliases (Ident.name id) [ "Hashtbl" ]
    | _ -> ());
    default.module_binding sub mb
  in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_letmodule (Some id, _, _, { mod_desc = Tmod_ident (p, _); _ }, _) ->
        Hashtbl.replace ctx.aliases (Ident.name id) (resolve ctx p)
    | _ -> ());
    default.expr sub e
  in
  let it = { default with module_binding; expr } in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* Pass 1: file-local function summaries                               *)

(* Whether [e] touches a PRNG stream: mentions a value of type
   [Basalt_prng.Rng.t] (a draw, a split, a handoff, a stored stream) or
   calls a file-local function already known to. *)
let touches ctx ~rng (e : expression) =
  let found = ref false in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : expression) =
    (if rng then begin
       if is_rng_type ctx e.exp_type then found := true
     end);
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        let path = resolve ctx p in
        if rng && is_rng_fn path then found := true;
        if (not rng) && is_obs_path path then found := true;
        match p with
        | Path.Pident id ->
            let tbl = if rng then ctx.rng_fns else ctx.obs_fns in
            if Hashtbl.mem tbl (Ident.unique_name id) then found := true
        | _ -> ())
    | _ -> ());
    if not !found then default.expr sub e
  in
  let it = { default with expr } in
  it.expr it e;
  !found

let collect_summaries ctx str =
  let scan_binding (vb : value_binding) =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) ->
        if touches ctx ~rng:true vb.vb_expr then
          Hashtbl.replace ctx.rng_fns (Ident.unique_name id) ();
        if touches ctx ~rng:false vb.vb_expr then
          Hashtbl.replace ctx.obs_fns (Ident.unique_name id) ()
    | _ -> ()
  in
  let default = Tast_iterator.default_iterator in
  let structure_item sub (si : structure_item) =
    (match si.str_desc with
    | Tstr_value (_, vbs) -> List.iter scan_binding vbs
    | _ -> ());
    default.structure_item sub si
  in
  let it = { default with structure_item } in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* D9: iteration-order taint                                           *)

let rec derived ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
      Hashtbl.mem ctx.tainted (Ident.unique_name id)
  | Texp_apply (head, args) -> (
      match head_path ctx head with
      | Some p when unordered_source p -> true
      | Some p when sort_fn p -> false
      | Some p when order_preserving p ->
          List.exists (fun a -> derived ctx a) (plain_args args)
      | _ -> false)
  | _ -> false

let local_summary tbl (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
      Hashtbl.mem tbl (Ident.unique_name id)
  | _ -> false

(* One D9 verdict for an application node. *)
let check_d9_apply ctx (e : expression) head args =
  let line = e.exp_loc.Location.loc_start.pos_lnum in
  let hp = head_path ctx head in
  let plain = plain_args args in
  (match ctx.unordered with
  | Some construct ->
      let rng_reason =
        if (match hp with Some p -> is_rng_fn p | None -> false) then
          Some "PRNG draw"
        else if List.exists (fun a -> is_rng_type ctx a.exp_type) plain then
          Some "call handing over a Basalt_prng.Rng.t stream"
        else if local_summary ctx.rng_fns head then Some "call to a PRNG-consuming function"
        else None
      in
      (match rng_reason with
      | Some what ->
          report ctx L.D9 line
            (Printf.sprintf
               "%s inside a %s callback: iteration order would feed the \
                PRNG stream; iterate in sorted key order instead \
                (the PR 5 run_eviction bug class)"
               what construct)
      | None -> ());
      if
        (match hp with Some p -> is_obs_path p | None -> false)
        || local_summary ctx.obs_fns head
      then
        report ctx L.D9 line
          (Printf.sprintf
             "trace/metric emission inside a %s callback: iteration order \
              would leak into the observability stream; snapshot and sort \
              before emitting"
             construct)
  | None -> ());
  (* Accumulation taint: an unordered-iteration result feeding a PRNG
     consumer, e.g. [List.iter (fun p -> evict p (* draws *)) expired]
     where [expired] came straight out of [Hashtbl.fold]. *)
  if List.exists (fun a -> derived ctx a) plain then begin
    let feeds_rng =
      (match hp with Some p -> is_rng_fn p | None -> false)
      || List.exists (fun a -> is_rng_type ctx a.exp_type) plain
      || local_summary ctx.rng_fns head
      || List.exists
           (fun a ->
             match a.exp_desc with
             | Texp_function _ -> touches ctx ~rng:true a
             | _ -> false)
           plain
    in
    let feeds_obs =
      (match hp with Some p -> is_obs_path p | None -> false)
      || local_summary ctx.obs_fns head
      || List.exists
           (fun a ->
             match a.exp_desc with
             | Texp_function _ -> touches ctx ~rng:false a
             | _ -> false)
           plain
    in
    if feeds_rng then
      report ctx L.D9 line
        "hash-iteration-ordered value feeds a PRNG consumer; sort it \
         (List.sort) before the draws so executions are a pure function \
         of the protocol history (the PR 5 run_eviction bug class)";
    if feeds_obs && not feeds_rng then
      report ctx L.D9 line
        "hash-iteration-ordered value feeds a trace/metric emitter; sort \
         it (List.sort) before emitting"
  end

let maybe_taint ctx (vb : value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) ->
      if derived ctx vb.vb_expr && not (primitive_type vb.vb_expr.exp_type)
      then Hashtbl.replace ctx.tainted (Ident.unique_name id) ()
  | _ -> ()

let run_d9 ctx str =
  let default = Tast_iterator.default_iterator in
  let expr (sub : Tast_iterator.iterator) (e : expression) =
    match e.exp_desc with
    | Texp_apply (head, args) ->
        check_d9_apply ctx e head args;
        let saved = ctx.unordered in
        (match head_path ctx head with
        | Some p -> (
            match unordered_construct p with
            | Some c -> ctx.unordered <- Some c
            | None -> ())
        | None -> ());
        default.expr sub e;
        ctx.unordered <- saved
    | Texp_let (_, vbs, body) ->
        List.iter (fun vb -> sub.value_binding sub vb) vbs;
        List.iter (maybe_taint ctx) vbs;
        sub.expr sub body
    | _ -> default.expr sub e
  in
  let structure_item (sub : Tast_iterator.iterator) (si : structure_item) =
    match si.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter (fun vb -> sub.value_binding sub vb) vbs;
        List.iter (maybe_taint ctx) vbs
    | _ -> default.structure_item sub si
  in
  let it = { default with expr; structure_item } in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* D10: RNG stream aliasing                                            *)

(* Ownership model: within one owning context (a function body, or a
   closure), a [Basalt_prng.Rng.t] value may be handed to at most one
   module-qualified callee and drawn from freely ([Basalt_prng.Rng.*]
   applications are the owner consuming its own stream); handing it to a
   second callee — or to a second closure — aliases the stream: the two
   consumers' draw orders entangle, and an intervening [Rng.split] is
   required.  Stores into records/arrays and plain returns transfer
   ownership and do not count.  Local function values (combinator
   plumbing, HOF arguments) do not count either: the rule targets named
   library entry points, where the entanglement crosses an abstraction
   boundary. *)

(* lib/prng implements the streams. *)
let d10_scope path = L.in_dir "lib" path && not (L.in_dir "lib/prng" path)

type d10_state = {
  (* tracked rng ident -> the context (lambda id) that owns it *)
  owners : (string, int) Hashtbl.t;
  names : (string, string) Hashtbl.t;  (* unique name -> source name *)
  (* (ident, context) -> callee key -> first use line *)
  uses : (string * int, (string, int) Hashtbl.t) Hashtbl.t;
  mutable next_ctx : int;
}

let record_use dst (id, c) key line =
  let tbl =
    match Hashtbl.find_opt dst.uses (id, c) with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace dst.uses (id, c) tbl;
        tbl
  in
  if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key line

let run_d10 ctx str =
  let st =
    {
      owners = Hashtbl.create 16;
      names = Hashtbl.create 16;
      uses = Hashtbl.create 16;
      next_ctx = 0;
    }
  in
  (* Stack of enclosing closure contexts: (ctx id, first line). *)
  let stack = ref [ (0, 0) ] in
  let cur_ctx () = fst (List.hd !stack) in
  let rec track_pat ctx_id (p : pattern) =
    match p.pat_desc with
    | Tpat_var (id, _) ->
        if is_rng_type ctx p.pat_type then begin
          Hashtbl.replace st.owners (Ident.unique_name id) ctx_id;
          Hashtbl.replace st.names (Ident.unique_name id) (Ident.name id)
        end
    | Tpat_alias (sub, id, _) ->
        if is_rng_type ctx p.pat_type then begin
          Hashtbl.replace st.owners (Ident.unique_name id) ctx_id;
          Hashtbl.replace st.names (Ident.unique_name id) (Ident.name id)
        end;
        track_pat ctx_id sub
    | _ -> ()
  in
  (* An occurrence of a tracked ident from inside a deeper closure is a
     capture: charge the owning context with a handoff to the outermost
     intervening closure. *)
  let charge_capture uid =
    match Hashtbl.find_opt st.owners uid with
    | None -> ()
    | Some owner ->
        if cur_ctx () <> owner then begin
          (* Walking outermost-in, the frame right after the owner's is
             the closure that captured the stream. *)
          let rec after_owner = function
            | (c, _) :: rest when c = owner -> (
                match rest with frame :: _ -> Some frame | [] -> None)
            | _ :: rest -> after_owner rest
            | [] -> None
          in
          match after_owner (List.rev !stack) with
          | Some (c, line) ->
              record_use st (uid, owner)
                (Printf.sprintf "closure at line %d (#%d)" line c)
                line
          | None -> ()
        end
  in
  let default = Tast_iterator.default_iterator in
  let rec expr sub (e : expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
        charge_capture (Ident.unique_name id)
    | Texp_apply (head, args) ->
        let hp = head_path ctx head in
        let callee_key =
          match hp with
          | Some p when is_rng_fn p -> None (* owner draw/split *)
          | Some p when List.length p >= 2 -> Some (String.concat "." p)
          | _ -> None
        in
        (match callee_key with
        | Some key ->
            List.iter
              (fun a ->
                match a.exp_desc with
                | Texp_ident (Path.Pident id, _, _) ->
                    let uid = Ident.unique_name id in
                    if Hashtbl.mem st.owners uid then
                      record_use st (uid, cur_ctx ()) key
                        e.exp_loc.Location.loc_start.pos_lnum
                | _ -> ())
              (plain_args args)
        | None -> ());
        default.expr sub e
    | Texp_function { cases; _ } ->
        (* Collapse curried chains ([fun a b -> e]) into one context. *)
        st.next_ctx <- st.next_ctx + 1;
        let c = st.next_ctx in
        let line = e.exp_loc.Location.loc_start.pos_lnum in
        stack := (c, line) :: !stack;
        let rec enter (e : expression) =
          match e.exp_desc with
          | Texp_function { cases; _ } ->
              List.iter
                (fun case ->
                  track_pat c case.c_lhs;
                  Option.iter (expr sub) case.c_guard;
                  enter case.c_rhs)
                cases
          | _ -> expr sub e
        in
        List.iter
          (fun case ->
            track_pat c case.c_lhs;
            Option.iter (expr sub) case.c_guard;
            enter case.c_rhs)
          cases;
        stack := List.tl !stack
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            expr sub vb.vb_expr;
            track_pat (cur_ctx ()) vb.vb_pat)
          vbs;
        expr sub body
    | _ -> default.expr sub e
  in
  let it =
    {
      default with
      expr = (fun sub e -> expr sub e);
      value_binding =
        (fun sub vb ->
          default.value_binding sub vb;
          track_pat (cur_ctx ()) vb.vb_pat);
    }
  in
  it.structure it str;
  (* Report: any (ident, context) handed to two or more distinct
     consumers, at the line of the second handoff. *)
  Hashtbl.iter
    (fun (uid, _) tbl ->
      if Hashtbl.length tbl >= 2 then begin
        let entries =
          List.sort
            (fun (_, l1) (_, l2) -> Int.compare l1 l2)
            (Hashtbl.fold (fun k l acc -> (k, l) :: acc) tbl [])
        in
        let names = String.concat ", " (List.map fst entries) in
        let line = match entries with _ :: (_, l) :: _ -> l | _ -> 0 in
        let name =
          match Hashtbl.find_opt st.names uid with Some n -> n | None -> uid
        in
        report ctx L.D10 line
          (Printf.sprintf
             "Rng.t stream %s is handed to multiple consumers (%s) without \
              an intervening Rng.split; each consumer must own its own \
              stream"
             name names)
      end)
    st.uses

(* ------------------------------------------------------------------ *)
(* D12: exported values without a program caller                       *)

(* A compilation unit as D12 sees it: a lib/ interface lists its
   top-level [val]s; a program lists every value path it references and
   every module it uses as a whole.  Paths are dotted, resolved through
   aliases and dune's mangled unit names, so [Basalt_core__Basalt],
   [Basalt_core.Basalt] and a local [module B = Basalt_core.Basalt] all
   name the same module.  A unit cannot name itself by its own path, so
   a module's calls to its own exports never count as uses. *)
type d12_unit =
  | Exports of { file : string; modpath : string list; vals : (string * int) list }
  | Uses of { values : string list; modules : string list }

let dotted parts = String.concat "." parts

let exports_of ~rel_path modname (sg : signature) =
  let vals =
    List.filter_map
      (fun (item : signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            Some (vd.val_name.txt, vd.val_loc.Location.loc_start.pos_lnum)
        | _ -> None)
      sg.sig_items
  in
  Exports { file = rel_path; modpath = split_mangled modname; vals }

let uses_of ~rel_path str =
  let ctx =
    {
      rel_path;
      findings = [];
      aliases = Hashtbl.create 8;
      rng_fns = Hashtbl.create 1;
      obs_fns = Hashtbl.create 1;
      tainted = Hashtbl.create 1;
      unordered = None;
    }
  in
  collect_aliases ctx str;
  let values = ref [] and modules = ref [] in
  let default = Tast_iterator.default_iterator in
  let expr (sub : Tast_iterator.iterator) (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> values := dotted (resolve ctx p) :: !values
    | Texp_letmodule (_, _, _, { mod_desc = Tmod_ident _; _ }, body) ->
        sub.expr sub body
    | _ -> default.expr sub e
  in
  (* Any other mention of a module — a functor argument, an [include],
     a first-class [(module M)] — hands all of its values on. *)
  let module_expr sub (me : module_expr) =
    (match me.mod_desc with
    | Tmod_ident (p, _) -> modules := dotted (resolve ctx p) :: !modules
    | _ -> ());
    default.module_expr sub me
  in
  (* An alias ([module R = Basalt_prng.Rng], also as [let module]) and
     an [open] use nothing themselves: the values reached through them
     are idents. *)
  let module_binding sub (mb : module_binding) =
    match mb.mb_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> default.module_binding sub mb
  in
  let open_declaration sub (od : open_declaration) =
    match od.open_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> default.open_declaration sub od
  in
  let it =
    { default with expr; module_expr; module_binding; open_declaration }
  in
  it.structure it str;
  Uses { values = !values; modules = !modules }

let d12_unit ~rel_path (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_annots with
  | Cmt_format.Interface sg
    when L.in_dir "lib" rel_path && Filename.check_suffix rel_path ".mli" ->
      Some (exports_of ~rel_path cmt.cmt_modname sg)
  | Cmt_format.Implementation str when L.is_program rel_path ->
      Some (uses_of ~rel_path str)
  | _ -> None

let unused_exports units =
  let values = Hashtbl.create 4096 and modules = Hashtbl.create 64 in
  List.iter
    (function
      | Uses u ->
          List.iter (fun v -> Hashtbl.replace values v ()) u.values;
          List.iter (fun m -> Hashtbl.replace modules m ()) u.modules
      | Exports _ -> ())
    units;
  L.sort_findings
    (List.concat_map
       (function
         | Exports { file; modpath; vals } when
             not (Hashtbl.mem modules (dotted modpath)) ->
             List.filter_map
               (fun (v, line) ->
                 if Hashtbl.mem values (dotted (modpath @ [ v ])) then None
                 else
                   Some
                     {
                       L.file;
                       line;
                       rule = L.D12;
                       message =
                         Printf.sprintf
                           "%s.%s is exported but no program references \
                            it (tests do not count): delete it, drop it \
                            from the .mli, or give the reason in a \
                            pragma"
                           (List.nth modpath (List.length modpath - 1))
                           v;
                     })
               vals
         | _ -> [])
       units)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

exception Cmt_error of string * string

let lint_structure ~rel_path str =
  let ctx =
    {
      rel_path;
      findings = [];
      aliases = Hashtbl.create 8;
      rng_fns = Hashtbl.create 16;
      obs_fns = Hashtbl.create 16;
      tainted = Hashtbl.create 8;
      unordered = None;
    }
  in
  collect_aliases ctx str;
  collect_summaries ctx str;
  run_d9 ctx str;
  if d10_scope rel_path then run_d10 ctx str;
  L.sort_findings ctx.findings

let lint_cmt ~rel_path cmt_path =
  let cmt =
    try Cmt_format.read_cmt cmt_path
    with e -> raise (Cmt_error (cmt_path, Printexc.to_string e))
  in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str -> lint_structure ~rel_path str
  | _ -> []
