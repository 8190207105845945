module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id

type entry = {
  mid : Message.mid;
  mutable holders : Node_id.t list;  (* announcement order *)
  mutable age : int;
  mutable attempts : int;
}

type t = {
  timeout : int;
  retries : int;
  mutable entries : entry list;  (* arrival order *)
}

let create ~timeout ~retries () =
  if timeout < 1 then invalid_arg "Wanted.create: timeout < 1";
  if retries < 0 then invalid_arg "Wanted.create: retries < 0";
  { timeout; retries; entries = [] }

let find t mid =
  List.find_opt (fun e -> Message.mid_equal e.mid mid) t.entries

let note t mid ~holder =
  match find t mid with
  | Some e ->
      if not (List.exists (Node_id.equal holder) e.holders) then
        e.holders <- e.holders @ [ holder ];
      false
  | None ->
      t.entries <-
        t.entries @ [ { mid; holders = [ holder ]; age = 0; attempts = 0 } ];
      true

let received t mid =
  t.entries <-
    List.filter (fun e -> not (Message.mid_equal e.mid mid)) t.entries

let tick t =
  let due = ref [] in
  let keep =
    List.filter
      (fun e ->
        e.age <- e.age + 1;
        if e.age < t.timeout then true
        else
          match e.holders with
          | [] -> false
          | h :: rest ->
              if e.attempts >= t.retries then false
              else begin
                (* Rotate so the retry targets the next advertiser. *)
                (match rest with
                | [] -> ()
                | _ :: _ -> e.holders <- rest @ [ h ]);
                let target = List.hd e.holders in
                e.age <- 0;
                e.attempts <- e.attempts + 1;
                due := (e.mid, target) :: !due;
                true
              end)
      t.entries
  in
  t.entries <- keep;
  List.rev !due

