(** Running on the least contended CPU.

    The machine shares each CPU with other guests' work, at different
    times on different CPUs: a CPU can run the same code at half speed for
    seconds to a minute while another runs it at full speed. Before each
    timed unit of work the benchmark moves itself to whichever of its
    allowed CPUs currently runs a fixed probe fastest. The probe does the
    same work every time, and nothing the program under test does changes
    it. *)

(** [allowed] is the CPUs the process could run on when it started. *)
val allowed : int list

(** [probe ()] times one run of the probe, in nanoseconds. *)
val probe : unit -> int

(** [pick ()] probes every allowed CPU and leaves the process pinned to
    the fastest. It does nothing when there is at most one CPU or the
    kernel refuses to pin. *)
val pick : unit -> unit
