(** Single-threaded real-time event loop over Unix file descriptors.

    A minimal reactor: readable-fd callbacks plus monotonic-deadline
    timers, multiplexed with [Unix.select].  One loop can host many
    sockets — the integration tests run a whole overlay of UDP nodes
    inside one process.

    The loop never reads the wall clock itself: the time source is
    injected at {!create} (lint rule D2), so tests can drive timers with
    a virtual clock via {!run_due_timers} while the daemon passes
    [Unix.gettimeofday] at the process boundary. *)

type t
(** A loop instance. *)

val create : clock:(unit -> float) -> unit -> t
(** [create ~clock ()] builds an empty loop reading time from [clock]
    (seconds; only differences are used).  Real deployments pass
    [Unix.gettimeofday]; tests may pass a virtual clock. *)

val now : t -> float
(** [now t] is the current time as reported by the injected clock. *)

val buffer : t -> bytes
(** [buffer t] is the loop's one 65,536-byte receive buffer, shared by
    every readable callback of [t] (one per loop rather than one per
    socket).  Callbacks run one at a time, so a callback may read into
    it freely, but what it holds is valid only until the next read into
    it: at the latest until the callback returns, since the next
    callback may overwrite it.  Copy out whatever must outlive the read
    ({!Basalt_codec.Wire.decode_sub} copies every field it returns). *)

val on_readable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** [on_readable t fd f] invokes [f] whenever [fd] is readable.  One
    callback per fd; registering again replaces it.  The descriptor list
    handed to [select] is rebuilt here and in {!remove_fd}, not per
    wait. *)

val remove_fd : t -> Unix.file_descr -> unit
(** [remove_fd t fd] stops watching [fd]: from the next callback on, even
    within the [select] pass that reported it readable. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] once after [delay] seconds. *)

val every : t -> ?phase:float -> interval:float -> (unit -> unit) -> unit
(** [every t ~interval f] runs [f] periodically ([phase] defaults to
    [interval]). @raise Invalid_argument if [interval] is not positive
    (NaN included). *)

(* lint: allow D12 — test seam: single-steps a virtual clock, firing
   due timers without a select pass, which run_for always makes. *)
val run_due_timers : t -> unit
(** [run_due_timers t] fires every timer whose deadline is [<= now t],
    without touching file descriptors.  With a virtual clock this is the
    single-step driver: advance the clock, then call this. *)

val run_for : t -> float -> unit
(** [run_for t seconds] processes events for (at least) the given wall
    duration, then returns. *)
