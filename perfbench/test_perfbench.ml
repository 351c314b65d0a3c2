(* Unit tests for the benchmark's own statistics, tracing and span dump. *)

open Perfbench

let feq = Alcotest.float 1e-12

let test_quantile () =
  Alcotest.check feq "median odd" 2.0 (Pstats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check feq "median even: lower middle" 2.0
    (Pstats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check feq "single" 7.0 (Pstats.quantile [| 7.0 |] 0.9);
  let xs = Array.init 101 float_of_int in
  Alcotest.check feq "p90 of 0..100" 90.0 (Pstats.quantile xs 0.9);
  Alcotest.check feq "p90 of 1..10" 9.0
    (Pstats.quantile (Array.init 10 (fun i -> float_of_int (i + 1))) 0.9);
  Alcotest.check feq "p0" 0.0 (Pstats.quantile xs 0.0);
  Alcotest.check feq "p100" 100.0 (Pstats.quantile xs 1.0);
  Alcotest.check feq "hit/miss pair: p50" 1.0 (Pstats.quantile [| 9.0; 1.0 |] 0.5);
  Alcotest.check feq "hit/miss pair: p90" 9.0 (Pstats.quantile [| 9.0; 1.0 |] 0.9);
  let unsorted = [| 5.0; 1.0 |] in
  ignore (Pstats.median unsorted);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 5.0; 1.0 |] unsorted;
  Alcotest.check_raises "empty" (Invalid_argument "Pstats.quantile: no samples")
    (fun () -> ignore (Pstats.median [||]))

let test_tail () =
  Alcotest.(check int) "beyond p90 of 101" 10 (Pstats.beyond 101 0.9);
  Alcotest.(check int) "beyond p50 of 20" 10 (Pstats.beyond 20 0.5);
  Alcotest.(check (option (pair string (float 0.0)))) "19 samples" None (Pstats.tail 19);
  Alcotest.(check (option (pair string (float 0.0))))
    "20 samples" (Some ("p50", 0.5)) (Pstats.tail 20);
  Alcotest.(check (option (pair string (float 0.0))))
    "101 samples" (Some ("p90", 0.9)) (Pstats.tail 101);
  Alcotest.(check (option (pair string (float 0.0))))
    "99 samples" (Some ("p50", 0.5)) (Pstats.tail 99);
  Alcotest.(check (option (pair string (float 0.0))))
    "100 samples" (Some ("p90", 0.9)) (Pstats.tail 100);
  Alcotest.(check (option (pair string (float 0.0))))
    "90 samples" (Some ("p50", 0.5)) (Pstats.tail 90);
  Alcotest.(check (option (pair string (float 0.0))))
    "2000 samples" (Some ("p99", 0.99)) (Pstats.tail 2000)

let test_representative () =
  Alcotest.check feq "fastest" 1.0 (Pstats.representative [| 3.0; 1.0; 2.0; 9.0 |]);
  Alcotest.check feq "single" 5.0 (Pstats.representative [| 5.0 |]);
  Alcotest.check feq "mean over groups" 2.0
    (Pstats.mean_representative
       [ [| 5.0; 2.0 |]; [| 4.0; 7.0; 1.0; 1.0; 9.0 |]; [| 9.0; 3.0; 6.0 |] ]);
  Alcotest.check_raises "empty" (Invalid_argument "Pstats.representative: no samples")
    (fun () -> ignore (Pstats.representative [||]));
  Alcotest.check_raises "no groups" (Invalid_argument "Pstats.mean_representative: no groups")
    (fun () -> ignore (Pstats.mean_representative []))

let span ?parent id start stop =
  { Spans.id; parent; request = 1; name = "s"; start_ns = start; stop_ns = stop;
    counts = [] }

let test_self_time () =
  let spans =
    [ span 1 0 100;
      span ~parent:1 2 10 30;
      span ~parent:1 3 25 40 (* overlaps its sibling *);
      span ~parent:1 4 90 120 (* runs past its parent's end *);
      span ~parent:2 5 12 20 (* grandchild: counts against 2 only *) ]
  in
  let self = Spans.self_ns spans in
  Alcotest.(check int) "root" (100 - 30 - 10) (Hashtbl.find self 1);
  Alcotest.(check int) "child" (20 - 8) (Hashtbl.find self 2);
  Alcotest.(check int) "leaf" 15 (Hashtbl.find self 3);
  Alcotest.(check int) "grandchild" 8 (Hashtbl.find self 5)

let test_recording () =
  let t = Spans.create ~enabled:true in
  Spans.set_request t 7;
  let v =
    Spans.with_span t "outer" (fun () ->
        Spans.with_span t "inner"
          ~name_of:(fun x -> if x = 42 then "inner.hit" else "inner.miss")
          ~counts:(fun x -> [ ("x", x) ])
          (fun () -> 42))
  in
  Alcotest.(check int) "value" 42 v;
  (match
     Spans.with_span t "boom" (fun () -> failwith "boom")
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  match Spans.spans t with
  | [ outer; inner; boom ] ->
      Alcotest.(check string) "outer" "outer" outer.Spans.name;
      Alcotest.(check string) "renamed" "inner.hit" inner.Spans.name;
      Alcotest.(check (option int)) "parent" (Some outer.Spans.id) inner.Spans.parent;
      Alcotest.(check (list (pair string int))) "counts" [ ("x", 42) ] inner.Spans.counts;
      Alcotest.(check int) "request" 7 inner.Spans.request;
      Alcotest.(check (option int)) "stack unwound" None boom.Spans.parent;
      Alcotest.(check bool) "nested" true
        (inner.Spans.start_ns >= outer.Spans.start_ns
        && inner.Spans.stop_ns <= outer.Spans.stop_ns)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let test_disabled () =
  let t = Spans.create ~enabled:false in
  Alcotest.(check int) "runs f" 3 (Spans.with_span t "x" (fun () -> 3));
  Alcotest.(check int) "records nothing" 0 (List.length (Spans.spans t))

(* The span dump: one object per span, self time included, counts as an
   object. *)
let test_dump () =
  let spans =
    [ span 1 0 100;
      { (span ~parent:1 2 10 30) with Spans.name = "a\"b"; counts = [ ("n", 3) ] } ]
  in
  Alcotest.(check string) "dump"
    ({|[{"id":1,"parent":null,"request":1,"name":"s","start_ns":0,"end_ns":100,"self_ns":80,"counts":{}},|}
    ^ {|{"id":2,"parent":1,"request":1,"name":"a\"b","start_ns":10,"end_ns":30,"self_ns":20,"counts":{"n":3}}]|})
    (E9_obs.Json.to_string (Spans.to_json spans))

let () =
  Alcotest.run "perfbench"
    [ ( "pstats",
        [ Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "representative" `Quick test_representative ] );
      ( "spans",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recording" `Quick test_recording;
          Alcotest.test_case "disabled" `Quick test_disabled ] );
      ("dump", [ Alcotest.test_case "span dump" `Quick test_dump ]) ]
