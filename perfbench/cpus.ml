external allowed_cpus : unit -> int list = "perfbench_allowed_cpus"
external pin_cpu : int -> bool = "perfbench_pin_cpu"

let allowed = allowed_cpus ()

(* About a millisecond of hashing, allocation and sorting: the mix the
   libraries under test run. *)
let probe () =
  let t0 = Spans.now_ns () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 4_000 do
    Hashtbl.replace h (i land 1023) [ i; i + 1 ]
  done;
  let a = Array.init 3_000 (fun i -> i * 7919 land 4095) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (h, a));
  Spans.now_ns () - t0

(* The faster of two probes: one probe may pay the move to the CPU. *)
let speed cpu = if pin_cpu cpu then Some (min (probe ()) (probe ())) else None

let pick () =
  match allowed with
  | [] | [ _ ] -> ()
  | cpus -> (
      let timed = List.filter_map (fun c -> Option.map (fun t -> (t, c)) (speed c)) cpus in
      match List.sort compare timed with
      | (_, best) :: _ -> ignore (pin_cpu best)
      | [] -> ())
