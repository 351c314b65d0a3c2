(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   One process, one client, no extra domains: the benchmark calls each
   layer's public functions and times the calls from outside. Inputs are
   generated from the seed (profiles derive from
   [Codegen.default_profile]); the program under test sees only the
   generated bytes. Every operation's output is checked, and a run with
   any failed check exits 1.

   Workloads (their layer -> metric map is in perfbench/README.md):
   - patch-large: one ~600-function binary patched with A1 (jumps, empty
     trampolines); each request times parse + rewrite + serialize
     ([patch_s]) and the static verifier on the result ([check_s]).
   - serve-mixed: a closed loop of daemon sessions (binary, patch, emit
     with data) over a pool of 8 binaries x 2 specs (A1 and A2). Each
     round is one daemon lifetime serving the same seeded stream of 48
     sessions, of which 32 hit the result cache.
   - oracle-run: four ~400-function binaries with long main loops,
     patched once in set-up; each request emulates the next patched
     binary and runs the trace oracle against its original
     ([oracle_s]).

   Each loop operation exercises the workload's own path and then sends a
   slice of the workload's inputs through the user paths that path does
   not take (direct patch and verify, daemon sessions, trace oracle), so
   every end-to-end metric is measured on every workload's own inputs.
   A timing is taken per input, as the fastest of its repeats, averaged
   over the inputs. Every timed unit starts on a collected heap and on
   the least contended CPU.

   With --trace 0 the last line carries the end-to-end metrics. With
   --trace 1 the loop alternates untraced and traced operations; the last
   line carries the per-layer metrics, taken from the traced spans, and
   the traced/untraced difference as [trace.overhead_pct]. The spans are
   written to perfbench/out/ at exit. *)

open Perfbench
module Codegen = E9_workload.Codegen
module Rewriter = E9_core.Rewriter
module Stats = E9_core.Stats
module Trampoline = E9_core.Trampoline
module Static = E9_check.Static
module Trace = E9_check.Trace
module Machine = E9_emu.Machine
module Cpu = E9_emu.Cpu
module Server = E9_rpc.Server
module Harness = E9_rpc.Harness
module Proto = E9_rpc.Proto
module Patchspec = E9_spec.Patchspec
module Json = E9_obs.Json

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)
(* ------------------------------------------------------------------ *)

type run = {
  mutable tr : Spans.t;  (** disabled outside the traced phase *)
  samples : (string * string, float list) Hashtbl.t;
      (** (metric, input) -> end-to-end timing samples, seconds *)
  counts : (string * string, int) Hashtbl.t;
      (** (input, counter) -> value: the last operation on an input wins,
          and a counter's total sums over the run's distinct inputs *)
  mutable attempted : int;
  mutable failures : string list;
  mutable request : int;
  mutable op_lat : (bool * float) list;  (** (traced, loop operation latency) *)
  mutable servers : (bool * Json.t) list;  (** (traced, final status) *)
  mutable session_bytes : int list;
  mutable sessions : string list;
      (** the class (input and cache outcome) of each timed session *)
}

let seconds_since t0 = float_of_int (Spans.now_ns () - t0) *. 1e-9

let span r = Spans.with_span r.tr
let traced r = Spans.enabled r.tr

let sample r key ~input x =
  Hashtbl.replace r.samples (key, input)
    (x :: Option.value (Hashtbl.find_opt r.samples (key, input)) ~default:[])

let note r ~input kvs =
  List.iter (fun (k, v) -> Hashtbl.replace r.counts (input, k) v) kvs

let total r key =
  Hashtbl.fold (fun (_, k) v acc -> if k = key then acc + v else acc) r.counts 0

(* Every timed unit of work starts from a finished major collection, as
   it would in a fresh process: without this a unit's time depended on
   how much of a collection cycle earlier units had left it, and grew
   from one request to the next as the heap aged (with a 1200-function
   patch-large binary, the third static verification of a run took about
   1.6 times as long as the first). It then runs on the least contended
   CPU ([Cpus.pick]). *)
let settle () =
  Gc.full_major ();
  Cpus.pick ()

(* One checked operation: [conds] are (what, held) pairs. *)
let check r ~op conds =
  r.attempted <- r.attempted + 1;
  match List.filter (fun (_, ok) -> not ok) conds with
  | [] -> ()
  | bad ->
      let what = String.concat ", " (List.map fst bad) in
      r.failures <- Printf.sprintf "%s: %s" op what :: r.failures

(* One request: a root span tagged with a fresh request id. *)
let request r name f =
  r.request <- r.request + 1;
  Spans.set_request r.tr r.request;
  span r name f

(* ------------------------------------------------------------------ *)
(* Timed calls into the layers                                         *)
(* ------------------------------------------------------------------ *)

let a1_spec = "patch jumps with empty"
let a2_spec = "patch heap-writes with lowfat"

let a1_args =
  (Frontend.select_jumps, fun (_ : Frontend.site) -> Trampoline.Empty)

let spec_args spec = Patchspec.to_rewriter_args (Patchspec.parse spec)

(* The work of [e9patch patch] without disk I/O. *)
let patch_direct r ~input raw (select, template) =
  settle ();
  let t0 = Spans.now_ns () in
  let elf = span r "elf.parse" (fun () -> Elf_file.of_bytes raw) in
  let res =
    span r "core.rewrite"
      ~counts:(fun res -> [ ("selected", Stats.total res.Rewriter.stats) ])
      (fun () -> Rewriter.run elf ~select ~template)
  in
  let out = span r "elf.serialize" (fun () -> Elf_file.to_bytes res.Rewriter.output) in
  sample r "patch_s" ~input (seconds_since t0);
  let s = res.Rewriter.stats in
  note r ~input
    [ ("core.selected", Stats.total s); ("core.succeeded", Stats.succeeded s);
      ("core.tactic.b0", s.Stats.b0); ("core.tactic.b1", s.Stats.b1);
      ("core.tactic.b2", s.Stats.b2); ("core.tactic.t1", s.Stats.t1);
      ("core.tactic.t2", s.Stats.t2); ("core.tactic.t3", s.Stats.t3);
      ("core.tactic.failed", s.Stats.failed);
      ("core.trampoline_bytes", res.Rewriter.trampoline_bytes);
      ("core.virtual_blocks", res.Rewriter.virtual_blocks);
      ("core.physical_blocks", res.Rewriter.physical_blocks);
      ("core.mappings", res.Rewriter.mappings);
      ("core.input_size", res.Rewriter.input_size);
      ("core.output_size", res.Rewriter.output_size) ];
  (res, out)

(* Frontend.disassemble on its own, on the input a rewrite just used;
   traced runs only, outside every end-to-end timer. *)
let decode r ~input elf =
  if traced r then begin
    let _, sites =
      span r "frontend.decode"
        ~counts:(fun (text, _) -> [ ("text_bytes", text.Frontend.size) ])
        (fun () -> Frontend.disassemble elf)
    in
    note r ~input [ ("frontend.sites", List.length sites) ]
  end

let verify r ~input ~original patched =
  settle ();
  let t0 = Spans.now_ns () in
  let v =
    span r "check.static"
      ~counts:(function
        | Ok rep -> [ ("changed_bytes", rep.Static.changed_bytes) ]
        | Error _ -> [])
      (fun () -> Static.verify ~original patched)
  in
  sample r "check_s" ~input (seconds_since t0);
  (match v with
  | Ok rep ->
      note r ~input
        [ ("check.changed_bytes", rep.Static.changed_bytes);
          ("check.trampolines_checked", rep.Static.trampolines_checked) ]
  | Error _ -> ());
  v

(* One trace-oracle verdict: run the patched binary, then compare its
   trace with the original's. [orig] is the original's run from
   set-up. *)
let oracle r ~input ~original ~(orig : Cpu.result) patched =
  settle ();
  let t0 = Spans.now_ns () in
  let q =
    span r "emu.run"
      ~counts:(fun q ->
        [ ("insns", q.Cpu.insns); ("block_hits", q.Cpu.block_hits);
          ("block_misses", q.Cpu.block_misses) ])
      (fun () -> Machine.run patched)
  in
  let v =
    span r "check.trace"
      ~counts:(function Ok st -> [ ("events", st.Trace.events) ] | Error _ -> [])
      (fun () -> Trace.compare_runs ~original patched)
  in
  sample r "oracle_s" ~input (seconds_since t0);
  note r ~input
    [ ("emu.insns", q.Cpu.insns); ("emu.original_cycles", orig.Cpu.cycles);
      ("emu.patched_cycles", q.Cpu.cycles);
      ("check.trace_events", match v with Ok st -> st.Trace.events | Error _ -> 0) ];
  check r ~op:("oracle " ^ input)
    [ ("trace oracle", Result.is_ok v); ("equivalent run", Machine.equivalent orig q) ]

(* --- daemon sessions ------------------------------------------------ *)

let result_of line =
  match Json.of_string line with Ok j -> Json.member "result" j | Error _ -> None

let field k j = Option.bind j (Json.member k)

(* The cache tag sits near the front of an emit reply, before the hex
   payload. *)
let emit_hit line =
  let head = String.sub line 0 (min 256 (String.length line)) in
  let pat = {|"cache":"hit"|} in
  let rec at i =
    i + String.length pat <= String.length head
    && (String.sub head i (String.length pat) = pat || at (i + 1))
  in
  at 0

let methods = [ "binary"; "patch"; "emit" ]

(* One session: binary, patch, emit with data. The request runs from
   sending the binary until the emit reply arrives; the replies are
   checked after. A timed session's latency is filed under its class:
   the input and whether the emit hit the result cache. *)
let session ?(timed = true) r ~input server lines ~expect =
  settle ();
  let conn = Server.connect server in
  let t0 = Spans.now_ns () in
  let replies =
    request r "request.session" (fun () ->
        List.map2
          (fun meth line ->
            let name_of (outs, _) =
              match (meth, outs) with
              | "emit", [ l ] -> if emit_hit l then "rpc.emit.hit" else "rpc.emit.miss"
              | _ -> "rpc." ^ meth
            in
            span r ~name_of ("rpc." ^ meth) (fun () -> Server.feed conn line))
          methods lines)
  in
  let latency = seconds_since t0 in
  Server.close_conn conn;
  r.session_bytes <- List.fold_left (fun a l -> a + String.length l) 0 lines :: r.session_bytes;
  let results = List.map (function [ l ], true -> result_of l | _ -> None) replies in
  let ok j = field "ok" j = Some (Json.Bool true) in
  let emit = List.nth results 2 in
  if timed then begin
    let hit = match replies with [ _; _; ([ l ], _) ] -> emit_hit l | _ -> false in
    let cls = input ^ if hit then " hit" else " miss" in
    sample r "session_s" ~input:cls latency;
    r.sessions <- cls :: r.sessions
  end;
  let payload =
    match field "data" emit with
    | Some (Json.Str h) -> Result.to_option (Proto.bytes_of_hex h)
    | _ -> None
  in
  check r ~op:("session " ^ input)
    [ ("binary ok", ok (List.nth results 0)); ("patch ok", ok (List.nth results 1));
      ("emit ok", ok emit); ("verified", field "verified" emit = Some (Json.Bool true));
      ("payload matches reference", Option.equal Bytes.equal payload (Some expect)) ]

let end_server r server = r.servers <- (traced r, Server.status_json server) :: r.servers

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type input = {
  name : string;
  raw : bytes;  (** the generated binary, as the program receives it *)
  original : Elf_file.t;
}

(* [make_input name ~seed ~functions ~insns] generates a default-profile
   binary whose main loop runs about [insns] instructions. The loop's
   cost per iteration varies about twofold across seeds, so a fixed
   iteration count would make emulation time a property of the seed; two
   short probe runs measure the cost per iteration instead. *)
let make_input name ~seed ~functions ~insns =
  let profile iterations =
    { Codegen.default_profile with
      Codegen.name; seed = Int64.of_int seed; functions; iterations }
  in
  let run_insns n = (Machine.run (Codegen.generate (profile n))).Cpu.insns in
  let per_iteration = max 1 ((run_insns 128 - run_insns 64) / 64) in
  let raw = Elf_file.to_bytes (Codegen.generate (profile (max 1 (insns / per_iteration)))) in
  { name; raw; original = Elf_file.of_bytes raw }

(* An input patched once, with the reference runs of both binaries and
   its A1 daemon session. *)
type patched = {
  input : input;
  reference : bytes;
  patched : Elf_file.t;
  orig_run : Cpu.result;
  script : string list;
}

let patch_once r input =
  let select, template = a1_args in
  let res = Rewriter.run input.original ~select ~template in
  let orig_run = Machine.run input.original in
  let patched_run = Machine.run res.Rewriter.output in
  check r ~op:("setup " ^ input.name)
    [ ("patched run equivalent", Machine.equivalent orig_run patched_run) ];
  { input; reference = Elf_file.to_bytes res.Rewriter.output;
    patched = res.Rewriter.output; orig_run;
    script = Harness.script ~spec:a1_spec input.raw }

(* The daemon path on an input whose miss path the workload times
   directly (rewrite plus verify): [n] timed sessions, all result-cache
   hits. With [~warm] an untimed session first fills the caches. *)
let hit_sessions r server p ~warm n =
  let input = p.input.name in
  if warm then session ~timed:false r ~input server p.script ~expect:p.reference;
  for _ = 1 to n do
    session r ~input server p.script ~expect:p.reference
  done

let oracle_of r p =
  request r "request.oracle" (fun () ->
      oracle r ~input:p.input.name ~original:p.input.original ~orig:p.orig_run p.patched)

(* A workload's set-up builds its inputs and returns its loop. Each loop
   operation [k] is one unit of the workload's own path, [op], followed by
   [side k]: a slice of the user paths [op] does not take, on the same
   inputs, so that every end-to-end metric has a value on every workload.
   Slices are spread over the whole loop rather than run in one block
   after it: the machine has slow stretches of a few seconds, and the
   repeats of one measurement then do not all fall in one. *)
type phases = {
  op : unit -> unit;
  side : int -> unit;
  finish : unit -> unit;  (** after the loop *)
}

type workload = {
  min_ops : int;  (** loop operations per run, at least *)
  setup : run -> int -> phases;  (** [setup r seed] *)
}

(* patch-large ------------------------------------------------------- *)

let patch_large =
  let setup r seed =
    (* A short main loop: long runs are oracle-run's business. The cost
       of an oracle verdict here is then mostly work that scales with the
       text, which barely varies between seeds, and not the loop's, which
       varies with the few functions it happens to call. *)
    (* 600 functions, not the 1200 first planned: one verification of the
       larger binary took 4 to 8 seconds, so a run held four of them, and
       the machine's slow stretches moved their fastest by a quarter from
       run to run. *)
    let input = make_input "large" ~seed ~functions:600 ~insns:20_000 in
    let p = patch_once r input in
    (* Patch and verify are timed separately; each request is one of
       each. *)
    let op () =
      let out, v =
        request r "request.patch" (fun () ->
            let res, out = patch_direct r ~input:input.name input.raw a1_args in
            (out, verify r ~input:input.name ~original:input.original res.Rewriter.output))
      in
      check r ~op:"patch-large request"
        [ ("static verify", Result.is_ok v);
          ("output identical across requests", Bytes.equal out p.reference) ];
      decode r ~input:input.name input.original
    in
    let server = Server.create () in
    let side k =
      hit_sessions r server p ~warm:(k = 0) 5;
      for _ = 1 to 6 do
        oracle_of r p
      done
    in
    { op; side; finish = (fun () -> end_server r server) }
  in
  { min_ops = 3; setup }

(* serve-mixed ------------------------------------------------------- *)

(* Function counts of the pool: 100 to 400, evenly spaced. *)
let pool_functions = [| 100; 143; 186; 229; 271; 314; 357; 400 |]

(* A round serves every (binary, spec) pair this many times, in a seeded
   order: each pair's first session misses the result cache and its
   repeats hit, so a round is 16 misses and 32 hits whatever the seed.
   The hits hold p50 on the cache-hit path and the misses hold p90 on the
   rewrite-and-verify path. *)
let sessions_per_pair = 3

type pair = {
  bin : input;
  spec : string;
  reference : bytes;
  lines : string list;
  orig_run : Cpu.result;
}

let serve_mixed =
  let setup r seed =
    let bins =
      Array.mapi
        (fun i functions ->
          let bin =
            make_input (Printf.sprintf "pool%d" i) ~seed:((seed * 16) + i) ~functions
              ~insns:100_000
          in
          (bin, Machine.run bin.original))
        pool_functions
    in
    let pairs =
      Array.concat
        (List.map
           (fun spec ->
             Array.map
               (fun (bin, orig_run) ->
                 { bin; spec; reference = Harness.reference ~spec bin.raw;
                   lines = Harness.script ~spec bin.raw; orig_run })
               bins)
           [ a1_spec; a2_spec ])
    in
    let rng = Random.State.make [| seed; 0x5e55 |] in
    let npairs = Array.length pairs in
    let stream = Array.init (sessions_per_pair * npairs) (fun i -> i mod npairs) in
    for i = Array.length stream - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = stream.(i) in
      stream.(i) <- stream.(j);
      stream.(j) <- x
    done;
    (* Warm-up: one session on a throwaway daemon. *)
    let p = pairs.(0) in
    let warm = Server.create () in
    ignore (Harness.run_session warm p.lines);
    (* One loop operation is one round: a fresh daemon serving the
       stream. *)
    let op () =
      let server = Server.create () in
      Array.iter
        (fun k ->
          let p = pairs.(k) in
          let input = Printf.sprintf "%s %s" p.bin.name p.spec in
          session r ~input server p.lines ~expect:p.reference)
        stream;
      end_server r server
    in
    (* A side slice is the direct path over half the pool, the even- and
       the odd-indexed pairs in turn (four A1 and four A2 pairs each),
       with a trace oracle on each A1 output. Half a pass keeps a round
       short, so a run serves more rounds and times each miss, which sets
       p90, more often. *)
    let side k =
      Array.iteri
        (fun i p ->
          if i mod 2 = k mod 2 then begin
            let input = Printf.sprintf "%s %s" p.bin.name p.spec in
            let res, out = patch_direct r ~input p.bin.raw (spec_args p.spec) in
            if k < 2 then decode r ~input p.bin.original;
            let v = verify r ~input ~original:p.bin.original res.Rewriter.output in
            check r ~op:("patch " ^ input)
              [ ("static verify", Result.is_ok v);
                ("output matches Harness.reference", Bytes.equal out p.reference) ];
            if p.spec = a1_spec then
              request r "request.oracle" (fun () ->
                  oracle r ~input ~original:p.bin.original ~orig:p.orig_run
                    res.Rewriter.output)
          end)
        pairs
    in
    { op; side; finish = ignore }
  in
  (* Loop operations are rounds of 48 sessions: 4 rounds make the 100
     sessions a p90 needs and pass every pair through the direct path
     twice. *)
  { min_ops = 4; setup }

(* oracle-run -------------------------------------------------------- *)

(* Four binaries, not one: a binary's patched-to-original cycle ratio and
   its rewrite's size swing by about a tenth from seed to seed, and four
   halve that. *)
let oracle_binaries = 4

let oracle_run =
  let setup r seed =
    let ps =
      Array.init oracle_binaries (fun i ->
          patch_once r
            (make_input (Printf.sprintf "oracle%d" i) ~seed:((seed * 16) + i)
               ~functions:400 ~insns:650_000))
    in
    (* Requests visit the binaries in turn, two requests each: with
       --trace 1 every other operation is traced, and each binary is then
       seen both traced and untraced. *)
    let next = ref 0 in
    let op () =
      let p = ps.(!next / 2 mod oracle_binaries) in
      incr next;
      oracle_of r p
    in
    (* A side slice is the direct path on one binary and four daemon
       sessions on it. *)
    let server = Server.create () in
    let side k =
      let p = ps.(k mod oracle_binaries) in
      let first = k < oracle_binaries in
      let input = p.input in
      let res, out = patch_direct r ~input:input.name input.raw a1_args in
      if first then decode r ~input:input.name input.original;
      let v = verify r ~input:input.name ~original:input.original res.Rewriter.output in
      check r ~op:("patch " ^ input.name)
        [ ("static verify", Result.is_ok v);
          ("output matches set-up", Bytes.equal out p.reference) ];
      hit_sessions r server p ~warm:first 4
    in
    { op; side; finish = (fun () -> end_server r server) }
  in
  (* Four operations per binary, at least. *)
  { min_ops = 4 * oracle_binaries; setup }

let workloads =
  [ ("patch-large", patch_large); ("serve-mixed", serve_mixed); ("oracle-run", oracle_run) ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string; note : string }

let m ?(note = "") name unit value = { name; value; unit; note }

(* The machine's speed swings by half within a second, and whole
   stretches of seconds run slow, so a timing is taken per input, as the
   fastest of its repeats in the run ([Pstats.representative]); a metric
   is the mean of these over the run's inputs. The human-readable note
   also gives the raw samples' median and tail. *)
let groups r key =
  Hashtbl.fold
    (fun (k, _) xs acc -> if k = key then Array.of_list xs :: acc else acc)
    r.samples []

let raw_note xs =
  let n = Array.length xs in
  let tail =
    match Pstats.tail n with
    | Some (label, p) when label <> "p50" ->
        Printf.sprintf ", %s %.6g" label (Pstats.quantile xs p)
    | _ -> ""
  in
  Printf.sprintf "%d samples: median %.6g%s" n (Pstats.median xs) tail

let timing r key unit =
  let gs = groups r key in
  let note =
    Printf.sprintf "per input, %d inputs; %s" (List.length gs)
      (raw_note (Array.concat gs))
  in
  m ~note key unit (Pstats.mean_representative gs)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Session latencies the same way: each timed session counts at its
   class's representative time, so the percentiles follow the traffic mix
   and not the machine's moment. *)
let end_to_end r ~setup_s =
  let class_time cls = Pstats.representative (Array.of_list (Hashtbl.find r.samples ("session_s", cls))) in
  let sessions = Array.of_list (List.map class_time r.sessions) in
  let n = Array.length sessions in
  let note =
    Printf.sprintf "%d sessions in %d classes; raw %s" n (List.length (groups r "session_s"))
      (raw_note (Array.map (fun x -> 1000.0 *. x) (Array.concat (groups r "session_s"))))
  in
  let session_ms p label =
    m ~note ("session_ms." ^ label) "ms" (1000.0 *. Pstats.quantile sessions p)
  in
  [ m ~note:(Printf.sprintf "median of %d set-ups" (Array.length setup_s))
      "setup_s" "s" (Pstats.median setup_s);
    timing r "patch_s" "s";
    timing r "check_s" "s";
    m "size_pct" "%" (100.0 *. ratio (total r "core.output_size") (total r "core.input_size"));
    m "mappings" "count" (float_of_int (total r "core.mappings"));
    m "succ_pct" "%" (100.0 *. ratio (total r "core.succeeded") (total r "core.selected"));
    m "peak_heap_mb" "MiB"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0);
    session_ms 0.5 "p50";
    session_ms 0.9 "p90";
    m ~note:(Printf.sprintf "%d sessions" n) "sessions_per_s" "1/s"
      (float_of_int n /. Array.fold_left ( +. ) 0.0 sessions);
    timing r "oracle_s" "s";
    m "time_pct" "%"
      (100.0 *. ratio (total r "emu.patched_cycles") (total r "emu.original_cycles")) ]

(* Per-layer metrics come from the traced phase's spans. *)
let per_layer r ~spans =
  let named name = List.filter (fun s -> s.Spans.name = name) spans in
  let durs name = Array.of_list (List.map (fun s -> float_of_int (Spans.duration_ns s)) (named name)) in
  let med ~scale name = if durs name = [||] then 0.0 else Pstats.median (durs name) *. scale in
  let sum_ns name = List.fold_left (fun a s -> a + Spans.duration_ns s) 0 (named name) in
  let sum_count name key =
    List.fold_left
      (fun a s -> a + Option.value (List.assoc_opt key s.Spans.counts) ~default:0)
      0 (named name)
  in
  let time ?(scale = 1e-6) name span unit =
    m ~note:(Printf.sprintf "median of %d" (List.length (named span))) name unit (med ~scale span)
  in
  let count ?(unit = "count") name = m name unit (float_of_int (total r name)) in
  let statuses = List.filter_map (fun (t, j) -> if t then Some j else None) r.servers in
  let status_int path j =
    match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path with
    | Some (Json.Int n) -> n
    | _ -> 0
  in
  let status_sum path = List.fold_left (fun a j -> a + status_int path j) 0 statuses in
  let hit_rate cache =
    let h = status_sum [ cache; "hits" ] in
    ratio h (h + status_sum [ cache; "misses" ])
  in
  let lat traced_phase =
    List.filter_map (fun (t, x) -> if t = traced_phase then Some x else None) r.op_lat
  in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  let emu_hits = sum_count "emu.run" "block_hits" in
  [ time "elf.parse_ms" "elf.parse" "ms";
    time "elf.serialize_ms" "elf.serialize" "ms";
    time "frontend.decode_ms" "frontend.decode" "ms";
    m "frontend.decode_ns_per_byte" "ns/B"
      (ratio (sum_ns "frontend.decode") (sum_count "frontend.decode" "text_bytes"));
    count "frontend.sites";
    time ~scale:1e-9 "core.rewrite_s" "core.rewrite" "s";
    m "core.us_per_selected_site" "us"
      (ratio (sum_ns "core.rewrite") (sum_count "core.rewrite" "selected") /. 1000.0) ]
  @ List.map count
      [ "core.tactic.b1"; "core.tactic.b2"; "core.tactic.t1"; "core.tactic.t2";
        "core.tactic.t3"; "core.tactic.b0"; "core.tactic.failed" ]
  @ [ count ~unit:"B" "core.trampoline_bytes"; count "core.virtual_blocks";
      count "core.physical_blocks" ]
  @ [ time ~scale:1e-9 "check.static_s" "check.static" "s";
      m "check.static_ns_per_changed_byte" "ns/B"
        (ratio (sum_ns "check.static") (sum_count "check.static" "changed_bytes"));
      count ~unit:"B" "check.changed_bytes";
      count "check.trampolines_checked";
      time ~scale:1e-9 "check.trace_s" "check.trace" "s";
      count "check.trace_events";
      m "check.trace_events_per_s" "1/s"
        (1e9 *. ratio (sum_count "check.trace" "events") (sum_ns "check.trace"));
      time ~scale:1e-9 "emu.run_s" "emu.run" "s";
      m "emu.minsn_per_s" "Minsn/s"
        (1e3 *. ratio (sum_count "emu.run" "insns") (sum_ns "emu.run"));
      count "emu.insns";
      m "emu.block_hit_rate" "ratio"
        (ratio emu_hits (emu_hits + sum_count "emu.run" "block_misses"));
      time "rpc.load_ms" "rpc.binary" "ms";
      time "rpc.patch_ms" "rpc.patch" "ms";
      time "rpc.emit_hit_ms" "rpc.emit.hit" "ms";
      time "rpc.emit_miss_ms" "rpc.emit.miss" "ms";
      m "rpc.result_cache.hit_rate" "ratio" (hit_rate "result_cache");
      m "rpc.decode_cache.hit_rate" "ratio" (hit_rate "decode_cache");
      m ~note:(Printf.sprintf "per daemon, %d daemons" (List.length statuses))
        "rpc.bypassed" "count"
        (ratio (status_sum [ "decode_cache"; "bypassed" ]) (List.length statuses));
      m "rpc.errors" "count" (float_of_int (status_sum [ "errors" ]));
      m "rpc.request_bytes" "B/session"
        (ratio (List.fold_left ( + ) 0 r.session_bytes) (List.length r.session_bytes));
      m ~note:"mean loop operation, traced vs untraced" "trace.overhead_pct" "%"
        (100.0 *. ((mean (lat true) /. mean (lat false)) -. 1.0)) ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let setup_reps = 5

let usage =
  "usage: main.exe --workload (patch-large|serve-mixed|oracle-run) --seed N \
   --seconds S --trace (0|1)"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let parse_args () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> die usage
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> die usage in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> die usage in
  List.iter (fun (k, _) -> if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then die usage) kv;
  let workload =
    match List.assoc_opt (get "workload") workloads with
    | Some w -> w
    | None -> die ("unknown workload " ^ get "workload" ^ "\n" ^ usage)
  in
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || not (trace = 0 || trace = 1) then die usage;
  (get "workload", workload, int "seed", seconds, trace = 1)

let write_spans ~wname ~seed spans =
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" wname seed) in
  let oc = open_out path in
  output_string oc (Json.to_string (Spans.to_json spans));
  output_char oc '\n';
  close_out oc;
  path

let print_self_times spans =
  let self = Spans.self_ns spans in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n, ns = Option.value (Hashtbl.find_opt by_name s.Spans.name) ~default:(0, 0) in
      Hashtbl.replace by_name s.Spans.name (n + 1, ns + Hashtbl.find self s.Spans.id))
    spans;
  Printf.printf "self time by span (traced phase):\n";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a)
  |> List.iter (fun (name, (n, ns)) ->
         Printf.printf "  %-22s %6d spans %12.6f s\n" name n (float_of_int ns *. 1e-9))

(* Runs operations until [seconds] have passed and [min_ops] have run.
   With a [tracer], [op] alternates between untraced and traced, so both
   halves see the same heap and cache state, and [trace.overhead_pct]
   compares the two halves' latencies; side slices always run traced. *)
let loop r { op; side; finish } ~seconds ~min_ops ~tracer =
  let untraced = r.tr in
  let t0 = Spans.now_ns () in
  let ops = ref 0 in
  while !ops < min_ops || seconds_since t0 < seconds do
    (match tracer with
    | Some t -> r.tr <- (if !ops mod 2 = 1 then t else untraced)
    | None -> ());
    let t_op = Spans.now_ns () in
    op ();
    r.op_lat <- (traced r, seconds_since t_op) :: r.op_lat;
    Option.iter (fun t -> r.tr <- t) tracer;
    side !ops;
    incr ops
  done;
  Option.iter (fun t -> r.tr <- t) tracer;
  finish ()

let () =
  let wname, w, seed, seconds, trace = parse_args () in
  if Sys.getenv_opt "E9_JOBS" <> None then
    die
      "E9_JOBS is set; it would change the rewriter's domain count. Unset it \
       to run the benchmark.";
  let r =
    { tr = Spans.create ~enabled:false; samples = Hashtbl.create 16;
      counts = Hashtbl.create 64; attempted = 0; failures = []; request = 0;
      op_lat = []; servers = []; session_bytes = []; sessions = [] }
  in
  let setup_s = Array.make setup_reps 0.0 in
  let phases = ref None in
  for i = 0 to setup_reps - 1 do
    settle ();
    let t0 = Spans.now_ns () in
    phases := Some (w.setup r seed);
    setup_s.(i) <- seconds_since t0
  done;
  let tracer = Spans.create ~enabled:true in
  loop r (Option.get !phases) ~seconds:(float_of_int seconds) ~min_ops:w.min_ops
    ~tracer:(if trace then Some tracer else None);
  let metrics =
    if trace then per_layer r ~spans:(Spans.spans tracer) else end_to_end r ~setup_s
  in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n" wname seed seconds
    (Bool.to_int trace);
  List.iter
    (fun x ->
      Printf.printf "  %-34s %14.6f %-9s %s\n" x.name x.value x.unit x.note)
    metrics;
  if trace then begin
    let spans = Spans.spans tracer in
    print_self_times spans;
    Printf.printf "spans written to %s\n" (write_spans ~wname ~seed spans)
  end;
  let failed = List.length r.failures in
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev r.failures);
  let result =
    Json.Obj
      [ ("correct", Json.Bool (failed = 0)); ("attempted", Json.Int r.attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit) ]))
               metrics) ) ]
  in
  print_endline (Json.to_string result);
  exit (if failed = 0 then 0 else 1)
