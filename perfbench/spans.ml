module Json = E9_obs.Json

type span = {
  id : int;
  parent : int option;
  request : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  counts : (string * int) list;
}

let now_ns () = Int64.to_int (E9_obs.Obs.monotonic_ns ())

type t = {
  enabled : bool;
  mutable rev_spans : span list;
  mutable stack : int list;
  mutable next_id : int;
  mutable request : int;
}

let create ~enabled =
  { enabled; rev_spans = []; stack = []; next_id = 1; request = 0 }

let enabled t = t.enabled
let set_request t id = t.request <- id

let with_span t ?name_of ?(counts = fun _ -> []) name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> Some p | [] -> None in
    t.stack <- id :: t.stack;
    let request = t.request in
    let start_ns = now_ns () in
    let close stop_ns name counts =
      t.stack <- List.tl t.stack;
      t.rev_spans <-
        { id; parent; request; name; start_ns; stop_ns; counts } :: t.rev_spans
    in
    match f () with
    | v ->
        (* Stop the clock before naming and counting: neither is the
           call's work. *)
        let stop_ns = now_ns () in
        close stop_ns (match name_of with Some g -> g v | None -> name) (counts v);
        v
    | exception e ->
        close (now_ns ()) name [];
        raise e
  end

let spans t =
  List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id)) t.rev_spans

let duration_ns s = s.stop_ns - s.start_ns

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0, None) clipped
  in
  match last with Some (a, b) -> total + (b - a) | None -> total

let self_ns spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.add children p (s.start_ns, s.stop_ns)
      | None -> ())
    spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      Hashtbl.replace self s.id
        (duration_ns s - covered ~lo:s.start_ns ~hi:s.stop_ns kids))
    spans;
  self

let to_json spans =
  let self = self_ns spans in
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [ ("id", Json.Int s.id);
             ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
             ("request", Json.Int s.request);
             ("name", Json.Str s.name);
             ("start_ns", Json.Int s.start_ns);
             ("end_ns", Json.Int s.stop_ns);
             ("self_ns", Json.Int (Hashtbl.find self s.id));
             ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counts)) ])
       spans)
