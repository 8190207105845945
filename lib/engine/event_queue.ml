(* A binary min-heap in struct-of-arrays form: entry [i] is
   [(times.(i), seqs.(i), values.(i))].  Times live unboxed in a
   [Float.Array], so a push or a take allocates nothing beyond the
   occasional doubling; sifts move a hole and write each entry once
   instead of swapping.  Value slots at indices [>= len] hold [filler],
   so a taken event is not kept reachable by the slot it left. *)
type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable len : int;
  mutable next_seq : int;
  filler : 'a;
}

let create ~filler =
  {
    times = Float.Array.create 0;
    seqs = [||];
    values = [||];
    len = 0;
    next_seq = 0;
    filler;
  }

let grow q =
  let capacity = Array.length q.seqs in
  if q.len = capacity then begin
    let capacity = Int.max 16 (2 * capacity) in
    let times = Float.Array.create capacity in
    Float.Array.blit q.times 0 times 0 q.len;
    let seqs = Array.make capacity 0 in
    Array.blit q.seqs 0 seqs 0 q.len;
    let values = Array.make capacity q.filler in
    Array.blit q.values 0 values 0 q.len;
    q.times <- times;
    q.seqs <- seqs;
    q.values <- values
  end

let[@inline] move q ~src ~dst =
  Float.Array.unsafe_set q.times dst (Float.Array.unsafe_get q.times src);
  Array.unsafe_set q.seqs dst (Array.unsafe_get q.seqs src);
  Array.unsafe_set q.values dst (Array.unsafe_get q.values src)

let push q ~time value =
  grow q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  (* The new entry's sequence number is the largest in the heap, so it
     rises above a parent only with a strictly earlier time. *)
  let i = ref q.len in
  q.len <- q.len + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    if time < Float.Array.unsafe_get q.times parent then begin
      move q ~src:parent ~dst:!i;
      i := parent
    end
    else rising := false
  done;
  Float.Array.unsafe_set q.times !i time;
  Array.unsafe_set q.seqs !i seq;
  Array.unsafe_set q.values !i value

let[@inline] before q i ~time ~seq =
  let ti = Float.Array.unsafe_get q.times i in
  ti < time || (ti = time && Array.unsafe_get q.seqs i < seq)

let top_time q =
  if q.len = 0 then invalid_arg "Event_queue.top_time: empty queue";
  Float.Array.unsafe_get q.times 0

let take q =
  if q.len = 0 then invalid_arg "Event_queue.take: empty queue";
  let top = Array.unsafe_get q.values 0 in
  let n = q.len - 1 in
  q.len <- n;
  if n > 0 then begin
    (* Sift the hole at the root down, then fill it with the last entry. *)
    let time = Float.Array.unsafe_get q.times n in
    let seq = Array.unsafe_get q.seqs n in
    let value = Array.unsafe_get q.values n in
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let left = (2 * !i) + 1 in
      if left >= n then sinking := false
      else begin
        let right = left + 1 in
        let child =
          if
            right < n
            && before q right
                 ~time:(Float.Array.unsafe_get q.times left)
                 ~seq:(Array.unsafe_get q.seqs left)
          then right
          else left
        in
        if before q child ~time ~seq then begin
          move q ~src:child ~dst:!i;
          i := child
        end
        else sinking := false
      end
    done;
    Float.Array.unsafe_set q.times !i time;
    Array.unsafe_set q.seqs !i seq;
    Array.unsafe_set q.values !i value
  end;
  Array.unsafe_set q.values n q.filler;
  top

let is_empty q = q.len = 0
