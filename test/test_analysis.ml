(* Tests for basalt.analysis: statistics, ODE solver, the Section 3
   continuous model, isolation bounds. *)

open Basalt_analysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let close ?(tol = 1e-6) msg a b = check_bool msg true (Float.abs (a -. b) < tol)

(* --- Stats --- *)

let stats_mean_var () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" 1.25 (Stats.stddev xs ** 2.0);
  close "stddev" (sqrt 1.25) (Stats.stddev xs);
  check_bool "empty mean nan" true (Float.is_nan (Stats.mean [||]))

let stats_percentiles () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 4.0 (Stats.percentile xs 1.0);
  check_float "median" 2.5 (Stats.median xs);
  check_float "p25" 1.75 (Stats.percentile xs 0.25);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of [0,1]") (fun () ->
      ignore (Stats.percentile xs 1.5))

let stats_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 2.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 3.0 hi

let stats_online_matches_batch () =
  let xs = [| 1.5; -2.0; 7.25; 0.0; 3.125 |] in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  check_int "count" 5 (Stats.Online.count o);
  close "online mean" (Stats.mean xs) (Stats.Online.mean o);
  close "online variance" (Stats.stddev xs ** 2.0) (Stats.Online.variance o);
  close "online stddev" (Stats.stddev xs) (Stats.Online.stddev o)

let stats_online_empty () =
  let o = Stats.Online.create () in
  check_bool "empty mean nan" true (Float.is_nan (Stats.Online.mean o))

(* --- Ode --- *)

let final ~f ~y0 ~t0 ~t1 ~dt =
  snd (List.nth (List.rev (Ode.solve ~f ~y0 ~t0 ~t1 ~dt)) 0)

let ode_exponential_growth () =
  (* y' = y, y(0) = 1 -> y(1) = e *)
  let y1 = final ~f:(fun ~t:_ ~y -> y) ~y0:1.0 ~t0:0.0 ~t1:1.0 ~dt:0.01 in
  close ~tol:1e-6 "e" (Float.exp 1.0) y1

let ode_decay () =
  let y1 = final ~f:(fun ~t:_ ~y -> -2.0 *. y) ~y0:1.0 ~t0:0.0 ~t1:1.0 ~dt:0.01 in
  close ~tol:1e-6 "e^-2" (Float.exp (-2.0)) y1

let ode_time_dependent () =
  (* y' = t, y(0)=0 -> y(2) = 2 *)
  let y = final ~f:(fun ~t ~y:_ -> t) ~y0:0.0 ~t0:0.0 ~t1:2.0 ~dt:0.1 in
  close ~tol:1e-9 "t^2/2" 2.0 y

let ode_trajectory_endpoints () =
  let traj = Ode.solve ~f:(fun ~t:_ ~y -> y) ~y0:1.0 ~t0:0.0 ~t1:1.0 ~dt:0.3 in
  (match traj with
  | (t0, y0) :: _ ->
      check_float "starts at t0" 0.0 t0;
      check_float "starts at y0" 1.0 y0
  | [] -> Alcotest.fail "empty trajectory");
  let tn, _ = List.nth traj (List.length traj - 1) in
  check_float "ends at t1" 1.0 tn

let ode_invalid () =
  Alcotest.check_raises "dt" (Invalid_argument "Ode.solve: dt must be positive")
    (fun () -> ignore (Ode.solve ~f:(fun ~t:_ ~y -> y) ~y0:0.0 ~t0:0.0 ~t1:1.0 ~dt:0.0));
  Alcotest.check_raises "t1<t0" (Invalid_argument "Ode.solve: t1 < t0")
    (fun () -> ignore (Ode.solve ~f:(fun ~t:_ ~y -> y) ~y0:0.0 ~t0:1.0 ~t1:0.0 ~dt:0.1))

(* --- Model --- *)

let base = Model.env ()

let model_env_validation () =
  Alcotest.check_raises "f" (Invalid_argument "Model.env: f out of [0,1)")
    (fun () -> ignore (Model.env ~f:1.0 ()));
  Alcotest.check_raises "n" (Invalid_argument "Model.env: n must be positive")
    (fun () -> ignore (Model.env ~n:0 ()))

let model_counts () =
  check_float "b_max" 1000.0 (Model.b_max base);
  check_float "q" 9000.0 (Model.q base)

let model_equilibria_are_roots () =
  match Model.equilibria base with
  | None -> Alcotest.fail "base scenario must have equilibria"
  | Some (b1, b2) ->
      close ~tol:1e-9 "dB/dt(B1) = 0" 0.0 (Model.db_dt base ~b:b1);
      close ~tol:1e-9 "dB/dt(B2) = 0" 0.0 (Model.db_dt base ~b:b2);
      check_bool "ordered" true (b1 < b2);
      check_bool "B1 above optimum" true (b1 > base.Model.f);
      check_bool "B2 below 1" true (b2 < 1.0)

let model_db_dt_signs () =
  match Model.equilibria base with
  | None -> Alcotest.fail "expected equilibria"
  | Some (b1, b2) ->
      (* Paper: dB/dt > 0 below B1, < 0 between B1 and B2, > 0 above B2. *)
      check_bool "below B1 grows" true (Model.db_dt base ~b:(b1 /. 2.0) > 0.0);
      check_bool "between shrinks" true
        (Model.db_dt base ~b:((b1 +. b2) /. 2.0) < 0.0);
      check_bool "above B2 grows" true
        (Model.db_dt base ~b:((b2 +. 1.0) /. 2.0) > 0.0)

let model_no_equilibrium_small_view () =
  check_bool "tiny view: attack wins" true
    (Model.equilibria (Model.env ~v:10 ()) = None)

let model_paper_base_value () =
  (* n=10000, f=0.1, v=160, rho=1: B1 = (1.1 - sqrt(0.81 - 0.0703))/2 = 0.12 *)
  match Model.steady_state base with
  | Some b1 -> close ~tol:1e-3 "paper base B1" 0.12 b1
  | None -> Alcotest.fail "expected B1"

let model_trajectory_converges_to_b1 () =
  match Model.steady_state base with
  | None -> Alcotest.fail "expected B1"
  | Some b1 -> (
      match List.rev (Model.trajectory base ~b0:0.5 ~t1:500.0 ~dt:0.1) with
      | (_, b_final) :: _ -> close ~tol:1e-3 "converges to B1" b1 b_final
      | [] -> Alcotest.fail "empty trajectory")

let model_dc_dt_balance () =
  (* At c corresponding to B1, dc/dt = 0 as well (consistency of Eqs 13/14). *)
  match Model.steady_state base with
  | None -> Alcotest.fail "expected B1"
  | Some b1 ->
      (* Corollary 3.2 inverted: B = b_max / (b_max + c). *)
      let c1 = Model.b_max base *. (1.0 -. b1) /. b1 in
      close ~tol:1e-6 "dc/dt(c1) = 0" 0.0 (Model.dc_dt base ~c:c1)

(* --- Isolation bounds (the paper's §3.3.1 worked examples) --- *)

let bound_joining_paper_example () =
  let env = Model.env ~n:10_000 ~f:0.1 ~v:200 () in
  let p =
    Isolation_bound.joining_isolation_probability ~env ~f0:0.5 ~bootstrap_size:250
  in
  check_bool "paper: < 1e-10" true (p < 1e-10);
  check_bool "positive" true (p > 0.0)

let bound_joining_monotone_in_v () =
  let p v =
    Isolation_bound.joining_isolation_probability
      ~env:(Model.env ~v ()) ~f0:0.5 ~bootstrap_size:100
  in
  check_bool "larger v safer" true (p 200 < p 100)

let bound_reset_paper_example () =
  let env = Model.env ~n:10_000 ~f:0.1 ~v:100 () in
  (* Paper: B^{v-k} < 1e-10 as soon as c > 585 (v=100, k=50). *)
  let c = Isolation_bound.safe_c_threshold ~env ~k:50 ~target:1e-10 in
  check_bool "c=586 is enough" true (c <= 586.0);
  check_bool "c=500 is not enough" true (c > 500.0)

let bound_delta_c_paper_example () =
  let env = Model.env ~n:10_000 ~f:0.1 ~v:100 () in
  let dc = Isolation_bound.delta_c_lower_bound ~env ~k:50 ~c0:125.0 in
  (* Paper: delta_c >= 467, c at next reset >= 592. *)
  check_bool "delta_c ~ 467" true (dc >= 467.0 && dc < 470.0);
  check_bool "c next >= 592" true (125.0 +. dc >= 592.0)

let bound_safe_threshold () =
  let env = Model.env ~n:10_000 ~f:0.1 ~v:100 () in
  let c = Isolation_bound.safe_c_threshold ~env ~k:50 ~target:1e-10 in
  check_bool "around 585" true (c > 580.0 && c < 590.0);
  check_float "no byzantine -> always safe" 0.0
    (Isolation_bound.safe_c_threshold ~env:(Model.env ~f:0.0 ()) ~k:50
       ~target:1e-10)

(* Eq. (10): correct identifiers received between two resets,
   (k/rho)(v/tau) c0/(fn+c0) (1-f). *)
let received ~env ~k ~c0 =
  let fn = Model.b_max env in
  float_of_int k /. env.Model.rho
  *. (float_of_int env.Model.v /. env.Model.tau)
  *. (c0 /. (fn +. c0))
  *. (1.0 -. env.Model.f)

let bound_coupon () =
  (* Eq. (9), the coupon collector: learning the Eq. (12) bound's
     delta_c new identifiers from c0 known out of q takes no more than
     the Eq. (10) receptions a reset interval grants. *)
  let env = Model.env ~n:10_000 ~f:0.1 ~v:100 () in
  let q = Model.q env and c0 = 125.0 in
  let dc = Isolation_bound.delta_c_lower_bound ~env ~k:50 ~c0 in
  let trials = ref 0.0 in
  for i = 0 to int_of_float dc - 1 do
    trials := !trials +. (q /. (q -. c0 -. float_of_int i))
  done;
  check_bool "expected trials within the receptions" true
    (!trials <= received ~env ~k:50 ~c0)

let bound_received_between_resets () =
  (* Eq. (12) is Eq. (10)'s receptions R thinned by repeats:
     delta_c = R (q - c0) / (q + R). *)
  let env = Model.env ~n:10_000 ~f:0.1 ~v:100 () in
  let r = received ~env ~k:50 ~c0:125.0 in
  (* 50*100*(125/1125)*0.9 = 500 *)
  close ~tol:1e-6 "paper formula" 500.0 r;
  let q = Model.q env in
  close ~tol:1e-6 "delta_c from the receptions"
    (r *. (q -. 125.0) /. (q +. r))
    (Isolation_bound.delta_c_lower_bound ~env ~k:50 ~c0:125.0)

(* --- Fit --- *)

let fit_linear () =
  (* A gap of exactly 0.4 e^{-t/5} over a plateau the last quarter
     holds exactly: the log-linear least squares is exact. *)
  let series =
    List.init 20 (fun i ->
        let t = float_of_int i in
        (t, if i < 15 then 0.1 +. (0.4 *. Float.exp (-.t /. 5.0)) else 0.1))
  in
  match Fit.exponential_decay series with
  | Some fit ->
      close "tau" 5.0 fit.Fit.tau;
      close "y0" 0.5 fit.Fit.y0;
      close "plateau" 0.1 fit.Fit.y_inf;
      close "exact fit" 1.0 fit.Fit.r_square
  | None -> Alcotest.fail "expected fit"

let fit_exponential_recovers_tau () =
  (* Synthesize y(t) = 0.1 + 0.4 e^{-t/15} and recover tau = 15. *)
  let series =
    List.init 100 (fun i ->
        let t = float_of_int i in
        (t, 0.1 +. (0.4 *. Float.exp (-.t /. 15.0))))
  in
  match Fit.exponential_decay series with
  | Some fit ->
      check_bool
        (Printf.sprintf "tau ~ 15 (%.2f)" fit.Fit.tau)
        true
        (Float.abs (fit.Fit.tau -. 15.0) < 2.0);
      check_bool "plateau ~ 0.1" true (Float.abs (fit.Fit.y_inf -. 0.1) < 0.02);
      check_bool "good fit" true (fit.Fit.r_square > 0.95);
      close ~tol:1e-9 "half life consistent" (fit.Fit.tau *. Float.log 2.0)
        (Fit.half_life fit)
  | None -> Alcotest.fail "expected exponential fit"

let fit_exponential_rejects_degenerate () =
  (* A constant series has no gap to fit. *)
  let flat = List.init 20 (fun i -> (float_of_int i, 0.3)) in
  check_bool "constant rejected" true (Fit.exponential_decay flat = None);
  check_bool "too short" true
    (Fit.exponential_decay [ (0.0, 1.0); (1.0, 0.5) ] = None)

module Gen = QCheck2.Gen
module Test = QCheck2.Test
module Print = QCheck2.Print

let floats_1_50 = Gen.list_size (Gen.int_range 1 50) (Gen.float_range 0.0 100.0)

let prop_percentile_bounds =
  Test.make ~name:"percentile between min and max" ~count:300
    ~print:(Print.pair (Print.list Print.float) Print.float)
    (Gen.pair floats_1_50 (Gen.float_range 0.0 1.0))
    (fun (l, p) ->
      let xs = Array.of_list l in
      let v = Stats.percentile xs p in
      let lo, hi = Stats.min_max xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_online_mean =
  Test.make ~name:"online mean equals batch mean" ~count:300
    ~print:(Print.list Print.float) floats_1_50
    (fun l ->
      let xs = Array.of_list l in
      let o = Stats.Online.create () in
      Array.iter (Stats.Online.add o) xs;
      Float.abs (Stats.Online.mean o -. Stats.mean xs) < 1e-6)

let () =
  Alcotest.run "analysis"
    [
      ( "stats",
        [
          Alcotest.test_case "mean/var" `Quick stats_mean_var;
          Alcotest.test_case "percentiles" `Quick stats_percentiles;
          Alcotest.test_case "min/max" `Quick stats_min_max;
          Alcotest.test_case "online matches batch" `Quick
            stats_online_matches_batch;
          Alcotest.test_case "online empty" `Quick stats_online_empty;
        ] );
      ( "ode",
        [
          Alcotest.test_case "exponential growth" `Quick ode_exponential_growth;
          Alcotest.test_case "decay" `Quick ode_decay;
          Alcotest.test_case "time dependent" `Quick ode_time_dependent;
          Alcotest.test_case "trajectory endpoints" `Quick
            ode_trajectory_endpoints;
          Alcotest.test_case "invalid" `Quick ode_invalid;
        ] );
      ( "model",
        [
          Alcotest.test_case "env validation" `Quick model_env_validation;
          Alcotest.test_case "counts" `Quick model_counts;
          Alcotest.test_case "equilibria are roots" `Quick
            model_equilibria_are_roots;
          Alcotest.test_case "db/dt signs" `Quick model_db_dt_signs;
          Alcotest.test_case "no equilibrium small view" `Quick
            model_no_equilibrium_small_view;
          Alcotest.test_case "paper base value" `Quick model_paper_base_value;
          Alcotest.test_case "trajectory converges" `Quick
            model_trajectory_converges_to_b1;
          Alcotest.test_case "dc/dt balance" `Quick model_dc_dt_balance;
        ] );
      ( "isolation_bound",
        [
          Alcotest.test_case "joining (paper example)" `Quick
            bound_joining_paper_example;
          Alcotest.test_case "joining monotone in v" `Quick
            bound_joining_monotone_in_v;
          Alcotest.test_case "reset (paper example)" `Quick
            bound_reset_paper_example;
          Alcotest.test_case "delta_c (paper example)" `Quick
            bound_delta_c_paper_example;
          Alcotest.test_case "safe threshold" `Quick bound_safe_threshold;
          Alcotest.test_case "coupon collector" `Quick bound_coupon;
          Alcotest.test_case "received between resets" `Quick
            bound_received_between_resets;
        ] );
      ( "fit",
        [
          Alcotest.test_case "linear" `Quick fit_linear;
          Alcotest.test_case "exponential recovers tau" `Quick
            fit_exponential_recovers_tau;
          Alcotest.test_case "rejects degenerate" `Quick
            fit_exponential_rejects_degenerate;
        ] );
      Prop.suite "properties" [ prop_percentile_bounds; prop_online_mean ];
    ]
