(* Positioned s-expressions for the scenario matrix format (DESIGN.md
   §12).  Hand-written on purpose: the repo takes no parser dependency,
   and the matrix grammar only needs atoms, lists, strings and
   comments.  Every node carries the source position it started at so
   Spec can report validation errors as file:line:col. *)

type pos = { line : int; col : int }

type t = { desc : desc; pos : pos }
and desc = Atom of string | List of t list

let is_delimiter = function
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' | '\\' -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

type error = { error_pos : pos; message : string }

let format_error ~file { error_pos = p; message } =
  Printf.sprintf "%s:%d:%d: %s" file p.line p.col message

exception Err of error

let fail pos fmt =
  Printf.ksprintf (fun message -> raise (Err { error_pos = pos; message })) fmt

let parse_string src =
  let len = String.length src in
  let i = ref 0 and line = ref 1 and col = ref 1 in
  let peek () = if !i < len then Some src.[!i] else None in
  let advance () =
    (match src.[!i] with
    | '\n' ->
        incr line;
        col := 1
    | _ -> incr col);
    incr i
  in
  let here () = { line = !line; col = !col } in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some ';' ->
        let rec to_eol () =
          match peek () with
          | Some '\n' | None -> ()
          | Some _ ->
              advance ();
              to_eol ()
        in
        to_eol ();
        skip_ws ()
    | _ -> ()
  in
  let read_bare_atom () =
    let pos = here () in
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | Some c when not (is_delimiter c) ->
          Buffer.add_char b c;
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    { desc = Atom (Buffer.contents b); pos }
  in
  let read_quoted_atom () =
    let pos = here () in
    advance () (* the opening '"' *);
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None ->
          fail (here ())
            "unterminated string (opened at line %d, column %d)" pos.line
            pos.col
      | Some '"' ->
          advance ();
          { desc = Atom (Buffer.contents b); pos }
      | Some '\\' ->
          let esc_pos = here () in
          advance ();
          (match peek () with
          | None ->
              fail (here ())
                "unterminated string (opened at line %d, column %d)" pos.line
                pos.col
          | Some '"' -> Buffer.add_char b '"'
          | Some '\\' -> Buffer.add_char b '\\'
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some ('0' .. '9') ->
              (* \DDD decimal byte escape, exactly three digits. *)
              let digit () =
                match peek () with
                | Some ('0' .. '9' as d) ->
                    advance ();
                    Char.code d - Char.code '0'
                | _ -> fail esc_pos "invalid escape: \\ needs three digits"
              in
              let d1 = digit () in
              let d2 = digit () in
              let d3 =
                match peek () with
                | Some ('0' .. '9' as d) -> Char.code d - Char.code '0'
                | _ -> fail esc_pos "invalid escape: \\ needs three digits"
              in
              let code = (d1 * 100) + (d2 * 10) + d3 in
              if code > 255 then fail esc_pos "invalid escape: byte %d > 255" code;
              Buffer.add_char b (Char.chr code)
          | Some c -> fail esc_pos "invalid escape '\\%c'" c);
          advance ();
          go ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ()
  in
  let rec read_form () =
    skip_ws ();
    match peek () with
    | None -> None
    | Some ')' -> fail (here ()) "unexpected ')'"
    | Some '(' ->
        let pos = here () in
        advance ();
        let rec items acc =
          skip_ws ();
          match peek () with
          | Some ')' ->
              advance ();
              List.rev acc
          | None ->
              fail (here ()) "unclosed '(' (opened at line %d, column %d)"
                pos.line pos.col
          | Some _ -> (
              match read_form () with
              | Some it -> items (it :: acc)
              | None ->
                  fail (here ()) "unclosed '(' (opened at line %d, column %d)"
                    pos.line pos.col)
        in
        Some { desc = List (items []); pos }
    | Some '"' -> Some (read_quoted_atom ())
    | Some _ -> Some (read_bare_atom ())
  in
  match
    let rec forms acc =
      match read_form () with
      | None -> List.rev acc
      | Some f -> forms (f :: acc)
    in
    forms []
  with
  | forms -> Ok forms
  | exception Err e -> Error e
