module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id

type error =
  | Truncated
  | Bad_magic of int
  | Bad_version of int
  | Bad_tag of int
  | Trailing_garbage of int
  | Id_out_of_range

let magic = 0xB5
let version = 1
let header_size = 6
let max_ids = 0xFFFF
let max_payload = 0xFFFF
let max_seqno = 0xFFFF_FFFF
let max_hops = 0xFFFF

(* Per-mid wire footprint in Ihave/Iwant digests: u64 origin + u32 seqno. *)
let mid_size = 12

(* Fixed part of a Gossip frame after the header: u64 origin + u32 seqno
   + u16 hops. *)
let gossip_fixed = 14

let tag_of = function
  | Message.Pull_request -> 0
  | Message.Pull_reply _ -> 1
  | Message.Push _ -> 2
  | Message.Push_id _ -> 3
  | Message.Gossip _ -> 4
  | Message.Ihave _ -> 5
  | Message.Iwant _ -> 6
  | Message.Graft -> 7
  | Message.Prune -> 8

let ids_of = function
  | Message.Pull_request | Message.Graft | Message.Prune -> [||]
  | Message.Pull_reply ids | Message.Push ids -> ids
  | Message.Push_id id -> [| id |]
  | Message.Gossip _ | Message.Ihave _ | Message.Iwant _ -> [||]

let encoded_size msg =
  match msg with
  | Message.Gossip { payload; _ } ->
      header_size + gossip_fixed + Bytes.length payload
  | Message.Ihave mids | Message.Iwant mids ->
      header_size + (mid_size * Array.length mids)
  | _ -> header_size + (8 * Array.length (ids_of msg))

let check_mid (m : Message.mid) =
  if m.Message.seqno < 0 || m.Message.seqno > max_seqno then
    invalid_arg "Wire.encode: sequence number out of u32 range"

let put_mid buf off (m : Message.mid) =
  Bytes.set_int64_be buf off (Int64.of_int (Node_id.to_int m.Message.origin));
  Bytes.set_int32_be buf (off + 8) (Int32.of_int m.Message.seqno)

let encode msg =
  let header ~tag ~count size =
    let buf = Bytes.create size in
    Bytes.set_uint8 buf 0 magic;
    Bytes.set_uint8 buf 1 version;
    Bytes.set_uint8 buf 2 tag;
    Bytes.set_uint8 buf 3 0;
    Bytes.set_uint16_be buf 4 count;
    buf
  in
  match msg with
  | Message.Gossip { mid; hops; payload } ->
      check_mid mid;
      if hops < 0 || hops > max_hops then
        invalid_arg "Wire.encode: hop count out of u16 range";
      let len = Bytes.length payload in
      if len > max_payload then invalid_arg "Wire.encode: payload too large";
      let buf =
        header ~tag:(tag_of msg) ~count:len
          (header_size + gossip_fixed + len)
      in
      put_mid buf header_size mid;
      Bytes.set_uint16_be buf (header_size + 12) hops;
      Bytes.blit payload 0 buf (header_size + gossip_fixed) len;
      buf
  | Message.Ihave mids | Message.Iwant mids ->
      let count = Array.length mids in
      if count > max_ids then invalid_arg "Wire.encode: too many identifiers";
      Array.iter check_mid mids;
      let buf =
        header ~tag:(tag_of msg) ~count (header_size + (mid_size * count))
      in
      for i = 0 to count - 1 do
        put_mid buf (header_size + (mid_size * i)) mids.(i)
      done;
      buf
  | _ ->
      let ids = ids_of msg in
      let count = Array.length ids in
      if count > max_ids then invalid_arg "Wire.encode: too many identifiers";
      let buf = header ~tag:(tag_of msg) ~count (header_size + (8 * count)) in
      for i = 0 to count - 1 do
        Bytes.set_int64_be buf
          (header_size + (8 * i))
          (Int64.of_int (Node_id.to_int ids.(i)))
      done;
      buf

(* Decoding helpers, top-level so that a decode allocates only the
   message it returns: no [Result] per identifier, no closure per call.
   A u64 identifier fits when it lies in 0 .. max_int. *)
let max_id = Int64.of_int max_int

(* The identifier at [at], or -1 when it does not fit. *)
let id_at buf at =
  let raw = Bytes.get_int64_be buf at in
  if raw < 0L || raw > max_id then -1 else Int64.to_int raw

(* Reads [count] identifiers from [at] into [out] from index [i] on;
   [false] at the first one that does not fit. *)
let rec read_ids buf at out i count =
  i >= count
  ||
  let x = id_at buf (at + (8 * i)) in
  x >= 0
  && begin
       out.(i) <- Node_id.of_int x;
       read_ids buf at out (i + 1) count
     end

(* The message id at [at], whose origin [origin] was read by [id_at]. *)
let mid_at buf at origin =
  {
    Message.origin = Node_id.of_int origin;
    seqno = Int32.to_int (Bytes.get_int32_be buf (at + 8)) land max_seqno;
  }

(* The same as [read_ids] for message ids of [mid_size] bytes each. *)
let rec read_mids buf at out i count =
  i >= count
  ||
  let a = at + (mid_size * i) in
  let x = id_at buf a in
  x >= 0
  && begin
       out.(i) <- mid_at buf a x;
       read_mids buf at out (i + 1) count
     end

(* The frame body at [at], [count] and [tag] already checked against the
   slice's length. *)
let decode_body buf ~at ~tag ~count =
  match tag with
  | 0 ->
      if count = 0 then Ok Message.Pull_request
      else Error (Trailing_garbage (8 * count))
  | 1 | 2 | 3 ->
      let ids = Array.make count (Node_id.of_int 0) in
      if not (read_ids buf at ids 0 count) then Error Id_out_of_range
      else if tag = 1 then Ok (Message.Pull_reply ids)
      else if tag = 2 then Ok (Message.Push ids)
      else if count = 1 then Ok (Message.Push_id ids.(0))
      else Error (Bad_tag tag)
  | 4 ->
      let origin = id_at buf at in
      if origin < 0 then Error Id_out_of_range
      else
        let mid = mid_at buf at origin in
        let hops = Bytes.get_uint16_be buf (at + 12) in
        let payload = Bytes.sub buf (at + gossip_fixed) count in
        Ok (Message.Gossip { mid; hops; payload })
  | 5 | 6 ->
      let mids =
        Array.make count { Message.origin = Node_id.of_int 0; seqno = 0 }
      in
      if not (read_mids buf at mids 0 count) then Error Id_out_of_range
      else if tag = 5 then Ok (Message.Ihave mids)
      else Ok (Message.Iwant mids)
  | 7 | 8 ->
      if count <> 0 then Error (Trailing_garbage count)
      else if tag = 7 then Ok Message.Graft
      else Ok Message.Prune
  | t -> Error (Bad_tag t)

let decode_sub buf ~off ~len =
  (* [off > length - len] is the overflow-proof form of
     [off + len > length]: with hostile [off]/[len] near [max_int] the
     addition wraps negative and would let the slice check pass, sending
     out-of-range offsets into the [Bytes] primitives below (found by
     the property fuzzer; pinned in test_codec). *)
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Wire.decode_sub: slice out of bounds";
  if len < header_size then Error Truncated
  else
    let m = Bytes.get_uint8 buf off in
    if m <> magic then Error (Bad_magic m)
    else
      let v = Bytes.get_uint8 buf (off + 1) in
      if v <> version then Error (Bad_version v)
      else
        let tag = Bytes.get_uint8 buf (off + 2) in
        let count = Bytes.get_uint16_be buf (off + 4) in
        (* Per-tag payload size implied by the declared count. *)
        let expected =
          header_size
          +
          match tag with
          | 4 -> gossip_fixed + count
          | 5 | 6 -> mid_size * count
          | 7 | 8 -> 0
          | _ -> 8 * count
        in
        if len < expected then Error Truncated
        else if len > expected then Error (Trailing_garbage (len - expected))
        else decode_body buf ~at:(off + header_size) ~tag ~count

let decode buf = decode_sub buf ~off:0 ~len:(Bytes.length buf)
