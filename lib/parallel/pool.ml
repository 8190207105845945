(* Deterministic domain pool.  See pool.mli and DESIGN.md §7 for the
   design; the invariants that matter are repeated next to the code that
   maintains them. *)

(* One [map] call.  [run i] evaluates task [i] and stores its result in a
   slot owned by that task alone; the only cross-task state is the claim
   counter [next] and the completion count (guarded by the pool lock). *)
type batch = {
  total : int;
  next : int Atomic.t;
  mutable completed : int; (* guarded by [t.lock] *)
  run : int -> unit; (* never raises: exceptions are captured per slot *)
}

type t = {
  lock : Mutex.t;
  wake : Condition.t; (* workers: a batch was posted, or shutdown *)
  finished : Condition.t; (* submitter: the current batch completed *)
  mutable current : batch option; (* guarded by [lock] *)
  mutable stopping : bool; (* guarded by [lock] *)
  mutable workers : unit Domain.t array;
  submit : Mutex.t; (* serialises concurrent top-level [map]s *)
}

(* True on pool worker domains, and on the submitting domain while it is
   executing batch tasks.  A nested [map] from inside a task must fall
   back to the sequential path: it would otherwise block on [submit]
   while the domains able to release it are busy running its parent. *)
let inside_task = Domain.DLS.new_key (fun () -> false)

let mark_inside f =
  let previous = Domain.DLS.get inside_task in
  Domain.DLS.set inside_task true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set inside_task previous) f

(* Claim-and-run until the batch's counter is exhausted.  Called by both
   workers and the submitting domain, so a [map] makes progress even if
   every worker is still waking up. *)
let drain pool batch =
  let rec claim () =
    let i = Atomic.fetch_and_add batch.next 1 in
    if i < batch.total then begin
      batch.run i;
      Mutex.lock pool.lock;
      batch.completed <- batch.completed + 1;
      if batch.completed = batch.total then Condition.broadcast pool.finished;
      Mutex.unlock pool.lock;
      claim ()
    end
  in
  claim ()

(* A worker remembers the last batch it drained: [current] stays set
   until the submitter collects the results, so "new work" means a batch
   that is physically distinct from the previous one.  Batch records are
   never resubmitted. *)
let worker pool () =
  Domain.DLS.set inside_task true;
  let rec loop last =
    Mutex.lock pool.lock;
    let rec await () =
      if pool.stopping then None
      else
        match pool.current with
        | Some b when not (List.memq b last) -> Some b
        | Some _ | None ->
            Condition.wait pool.wake pool.lock;
            await ()
    in
    let next = await () in
    Mutex.unlock pool.lock;
    match next with
    | None -> ()
    | Some b ->
        drain pool b;
        loop [ b ]
  in
  loop []

let recommended_domains () = Domain.recommended_domain_count ()

let create ?domains () =
  let requested =
    match domains with Some d -> d | None -> recommended_domains ()
  in
  if requested < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let pool =
    {
      lock = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
      current = None;
      stopping = false;
      workers = [||];
      submit = Mutex.create ();
    }
  in
  pool.workers <- Array.init (requested - 1) (fun _ -> Domain.spawn (worker pool));
  pool


let shutdown pool =
  Mutex.lock pool.lock;
  let already = pool.stopping in
  pool.stopping <- true;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.lock;
  (* Only the call that flipped [stopping] joins, so shutdown is
     idempotent and concurrent shutdowns never double-join a domain. *)
  if not already then Array.iter Domain.join pool.workers

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* The parallel path proper.  Determinism: task [i] computes
   [f input.(i)] with no input other than that element (callers route
   per-task randomness as streams split before the fan-out), and slot [i] of [results] is
   written only by task [i], so the contents of [results] do not depend
   on which domain ran what or in which order.  Publication is safe: a
   worker's slot write happens-before its [completed] increment under
   the lock, which happens-before the submitter's read of
   [completed = total] under the same lock. *)
let parallel_map pool f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  let results = Array.make n None in
  let batch =
    {
      total = n;
      next = Atomic.make 0;
      completed = 0;
      run =
        (fun i ->
          let r = match f input.(i) with v -> Ok v | exception e -> Error e in
          results.(i) <- Some r);
    }
  in
  Mutex.lock pool.submit;
  Mutex.lock pool.lock;
  if pool.stopping then begin
    Mutex.unlock pool.lock;
    Mutex.unlock pool.submit;
    invalid_arg "Pool.map: pool is shut down"
  end;
  pool.current <- Some batch;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.lock;
  mark_inside (fun () -> drain pool batch);
  Mutex.lock pool.lock;
  while batch.completed < batch.total do
    Condition.wait pool.finished pool.lock
  done;
  pool.current <- None;
  Mutex.unlock pool.lock;
  Mutex.unlock pool.submit;
  (* Ordered collection; re-raise the leftmost failure, as [List.map]
     would have surfaced it first. *)
  Array.iter
    (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
    results;
  Array.to_list
    (Array.map (function Some (Ok v) -> v | Some (Error _) | None -> assert false) results)

let stopped p =
  Mutex.lock p.lock;
  let s = p.stopping in
  Mutex.unlock p.lock;
  s

let map ?pool f xs =
  match pool with
  | None -> List.map f xs
  | Some p ->
      if stopped p then invalid_arg "Pool.map: pool is shut down"
      else if
        Domain.DLS.get inside_task
        || Array.length p.workers = 0
        || match xs with [] | [ _ ] -> true | _ -> false
      then List.map f xs
      else parallel_map p f xs
