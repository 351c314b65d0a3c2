(* Nearest rank: the smallest sample with at least [p * n] samples at or
   below it. *)
let rank n p =
  (* The epsilon keeps p * n = 90.000...01 at rank 90, not 91. *)
  max 0 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) - 1)

let quantile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pstats.quantile: no samples";
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Pstats.quantile: p";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s.(rank n p)

let median xs = quantile xs 0.5

let beyond n p = if n <= 0 then 0 else n - 1 - rank n p

let tail n =
  List.fold_left
    (fun best (label, p) -> if beyond n p >= 10 then Some (label, p) else best)
    None
    [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p99.9", 0.999) ]

let representative xs =
  if Array.length xs = 0 then invalid_arg "Pstats.representative: no samples";
  Array.fold_left Float.min xs.(0) xs

let mean_representative groups =
  if groups = [] then invalid_arg "Pstats.mean_representative: no groups";
  List.fold_left (fun acc xs -> acc +. representative xs) 0.0 groups
  /. float_of_int (List.length groups)
