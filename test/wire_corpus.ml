(* The wire-format regression corpus (corpus/wire_corpus.txt), shared by
   the codec suite, which decodes every entry, and the net suite, which
   sends every entry to a live socket. *)

let parse_hex name s =
  if s = "-" then Bytes.create 0
  else begin
    if String.length s mod 2 <> 0 then
      Alcotest.failf "corpus %s: odd hex length" name;
    Bytes.init
      (String.length s / 2)
      (fun i ->
        match int_of_string_opt ("0x" ^ String.sub s (2 * i) 2) with
        | Some v -> Char.chr v
        | None -> Alcotest.failf "corpus %s: bad hex" name)
  end

(* The corpus file: [dune runtest] runs the suites in [test/] of the
   build tree, where the stanza's dep copies it; [dune exec] from the
   repository root runs them there. *)
let path =
  if Sys.file_exists "corpus/wire_corpus.txt" then "corpus/wire_corpus.txt"
  else "test/corpus/wire_corpus.txt"

(* Every [(name, bytes)] entry, in file order. *)
let load () =
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then read acc
        else
          match String.index_opt line ' ' with
          | None -> Alcotest.failf "corpus: malformed line %S" line
          | Some i ->
              let name = String.sub line 0 i in
              let hex =
                String.trim (String.sub line i (String.length line - i))
              in
              read ((name, parse_hex name hex) :: acc))
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  read []
