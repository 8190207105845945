module Node_id = Basalt_proto.Node_id

type t = {
  decay : float;
  counts : (int, float) Hashtbl.t;
  mutable cached_mean : float;
  mutable cached_std : float;
  mutable dirty : bool;
}

let create ?(decay = 0.9) () =
  if decay <= 0.0 || decay > 1.0 then
    invalid_arg "Indegree_stats.create: decay out of (0, 1]";
  {
    decay;
    counts = Hashtbl.create 256;
    cached_mean = 0.0;
    cached_std = 0.0;
    dirty = true;
  }

(* [record] does not invalidate the cached moments: the mean/std snapshot
   is refreshed once per {!tick} (i.e. per protocol round), keeping the
   outlier test O(1) per observed identifier. *)
let record t id =
  let key = Node_id.to_int id in
  let current = Option.value (Hashtbl.find_opt t.counts key) ~default:0.0 in
  Hashtbl.replace t.counts key (current +. 1.0)

let prune_threshold = 0.01

let tick t =
  let stale = ref [] in
  Hashtbl.iter
    (fun key count ->
      let decayed = count *. t.decay in
      if Float.compare decayed prune_threshold < 0 then stale := key :: !stale
      else Hashtbl.replace t.counts key decayed)
    t.counts;
  List.iter (Hashtbl.remove t.counts) !stale;
  t.dirty <- true

let count t id =
  Option.value (Hashtbl.find_opt t.counts (Node_id.to_int id)) ~default:0.0

let observed t = Hashtbl.length t.counts

let refresh t =
  if t.dirty then begin
    let n = Hashtbl.length t.counts in
    if n = 0 then begin
      t.cached_mean <- 0.0;
      t.cached_std <- 0.0
    end
    else begin
      let sum = ref 0.0 and sum_sq = ref 0.0 in
      Hashtbl.iter
        (fun _ c ->
          sum := !sum +. c;
          sum_sq := !sum_sq +. (c *. c))
        t.counts;
      let mean = !sum /. float_of_int n in
      let variance = Float.max 0.0 ((!sum_sq /. float_of_int n) -. (mean *. mean)) in
      t.cached_mean <- mean;
      t.cached_std <- sqrt variance
    end;
    t.dirty <- false
  end

let min_population = 10

let is_outlier t ~z id =
  refresh t;
  Int.compare (observed t) min_population >= 0
  && count t id > t.cached_mean +. (z *. t.cached_std)
