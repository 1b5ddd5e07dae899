(* The three workloads: their databases, daemon settings and request
   rounds, all derived from the workload seed (fleet_rw's database and
   write batches excepted, see below). A run attempts whole rounds, so
   every run issues the same operations in the same proportions. *)

open Acqbench_core

type count = { db : string; shape : Refcount.shape; eps : float; seed : int }

type write_kind = Insert | Delete | Batch

type write = {
  kind : write_kind;
  ops : (bool * int * int) list;  (** (insert?, x, y) on relation E *)
  batch_id : string;
  resend : bool;  (** the same batch id was sent earlier in the round *)
}

type op = Count of count | Write of write

let delta = 0.1
let jobs = 1
let default = Ac_server.Server.default_config

type t = {
  name : string;
  dbs : (string * Refcount.model) list;
  conns : int;
  round : conn:int -> int -> op array;
      (** round [r] of connection [conn]; pure in (seed, conn, r) *)
  plan_cache : int;  (** cache capacities of the serving daemon *)
  result_cache : int;
  fleet : bool;  (** serve through a router over two workers *)
}

(* A request seed from (workload seed, connection, round, slot): fresh
   per request, identical across runs of one seed. *)
let req_seed seed conn r i = Hashtbl.hash (seed, conn, r, i) land 0x3FFFFFFF

let rng_of seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

(* ---------- cold_estimate ---------- *)

(* Per round of 80, by latency: 60 cheap exact-rung requests, where
   analysis and the wire are a large share of the time (ranks 1-60: 20
   edge scans on G(24, 0.25), then 40 mutual-edge joins on G(80, 0.15);
   p50 is rank 40, the median of the joins); 8 open wedges on
   G(200, 0.1), exact in tens of milliseconds (ranks 61-68); 10
   two-paths on G(24, 0.25) that the planner sends to fpras (ranks
   69-78; p90 is rank 72); one 2-star at ε=0.4 on G(80, 0.15) that runs
   tree-dp; one sources-of-2-walks on G(24, 0.25) that runs fpras for
   over a second. The fpras requests are few because each leaves memory
   behind in the daemon (see README). *)
let cold_pattern =
  let open Refcount in
  let rep k x = List.init k (fun _ -> x) in
  let cheap =
    List.concat (rep 20 [ ("g24", Edges, 0.25); ("g80", Mutual, 0.25); ("g80", Mutual, 0.25) ])
  in
  let mid = rep 8 ("g200", Open_wedges, 0.25) in
  let paths = rep 10 ("g24", Paths2, 0.25) in
  let slice l a b = List.filteri (fun i _ -> i >= a && i < b) l in
  (* interleaved so the expensive requests are spread over the round *)
  Array.of_list
    (List.concat
       [
         slice cheap 0 20;
         slice mid 0 4;
         [ ("g24", Sources2, 0.25) ];
         slice paths 0 5;
         slice cheap 20 40;
         [ ("g80", Star2, 0.4) ];
         slice mid 4 8;
         slice paths 5 10;
         slice cheap 40 60;
       ])

let cold_estimate seed =
  let rng = rng_of seed "cold" in
  let g24 = Refcount.gnm ~rng 24 (Refcount.expected_edges 24 0.25) in
  let g80 = Refcount.gnm ~rng 80 (Refcount.expected_edges 80 0.15) in
  let g200 = Refcount.gnm ~rng 200 (Refcount.expected_edges 200 0.1) in
  {
    name = "cold_estimate";
    dbs = [ ("g24", g24); ("g80", g80); ("g200", g200) ];
    conns = 1;
    round =
      (fun ~conn r ->
        Array.mapi
          (fun i (db, shape, eps) ->
            Count { db; shape; eps; seed = req_seed seed conn r i })
          cold_pattern);
    plan_cache = 0;
    result_cache = 0;
    fleet = false;
  }

(* ---------- hot_serve ---------- *)

let hot_shapes =
  Refcount.[| Edges; Edges_noloop; Mutual; Triangles; Tri_nodes; Star2; Open_wedges |]

let hot_eps = [| 0.25; 0.4 |]
let hot_seeds = 700

(* 7 shapes × 2 ε × 700 seeds = 9,800 keys, 9.6× the default
   result-cache capacity of 1,024. *)
let hot_keys = Array.length hot_shapes * Array.length hot_eps * hot_seeds
let hot_zipf_s = 1.0
let hot_round = 400

(* Two closed-loop connections, nproc on the reference host. Fixed, not
   read from the machine: the client runs pinned to one CPU, where the
   machine's count would read 1, and the inputs must not depend on where
   they are made. *)
let hot_conns = 2

let zipf_cdf n s =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let hot_serve seed =
  let rng = rng_of seed "hot" in
  let h = Refcount.gnm ~rng 20 (Refcount.expected_edges 20 0.2) in
  (* rank -> key: a seeded permutation, so which keys are hot varies
     with the seed while the popularity curve does not *)
  let perm = Array.init hot_keys Fun.id in
  for i = hot_keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let cdf = zipf_cdf hot_keys hot_zipf_s in
  let key k =
    let shape = hot_shapes.(k mod Array.length hot_shapes) in
    let k = k / Array.length hot_shapes in
    let eps = hot_eps.(k mod Array.length hot_eps) in
    let s = k / Array.length hot_eps in
    Count { db = "h"; shape; eps; seed = 1000 + s }
  in
  {
    name = "hot_serve";
    dbs = [ ("h", h) ];
    conns = hot_conns;
    round =
      (fun ~conn r ->
        let rng = Random.State.make [| seed; conn; r |] in
        Array.init hot_round (fun _ ->
            key perm.(draw cdf (Random.State.float rng 1.0))));
    plan_cache = default.plan_cache_capacity;
    result_cache = default.result_cache_capacity;
    fleet = false;
  }

(* ---------- fleet_rw ---------- *)

(* The fleet database and its write batches come from a fixed seed, not
   the workload seed: the shardable COUNTs that the stale-shard fault
   breaks must fail in every run, on inputs that do not move with the
   seed. The workload seed still draws every request seed. *)
let fleet_fixed_seed = 424242
let fleet_batch = 4

let fleet_db () =
  Refcount.gnm ~rng:(rng_of fleet_fixed_seed "fleet") 60 (Refcount.expected_edges 60 0.1)

(* [k] edges absent from [boot] and from [avoid], each leaving a vertex
   that already has an out-edge — so every shardable shape's count
   moves when they are inserted. *)
let fresh_edges boot ~avoid rng k =
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let x = Random.State.int rng boot.Refcount.n
      and y = Random.State.int rng boot.Refcount.n in
      if
        x <> y
        && (not (Refcount.mem boot x y))
        && Refcount.out_degree boot x > 0
        && (not (List.mem (x, y) acc))
        && not (List.mem (x, y) avoid)
      then go ((x, y) :: acc)
      else go acc
  in
  go []

let fleet_rw seed =
  let boot = fleet_db () in
  {
    name = "fleet_rw";
    dbs = [ ("f", boot) ];
    conns = 1;
    round =
      (fun ~conn r ->
        let rng = rng_of fleet_fixed_seed ("batches", r) in
        let a = fresh_edges boot ~avoid:[] rng fleet_batch in
        let b = fresh_edges boot ~avoid:a rng fleet_batch in
        let id tag = Printf.sprintf "r%d-%s" r tag in
        let ask i shape =
          Count { db = "f"; shape; eps = 0.25; seed = req_seed seed conn r i }
        in
        let ins l = List.map (fun (x, y) -> (true, x, y)) l
        and del l = List.map (fun (x, y) -> (false, x, y)) l in
        let w kind ops tag resend = Write { kind; ops; batch_id = id tag; resend } in
        Refcount.
          [|
            w Insert (ins a) "a" false;
            ask 1 Edges;
            ask 2 Mutual;
            w Insert (ins a) "a" true;
            ask 4 Star2;
            w Batch (del a @ ins b) "b" false;
            ask 6 Triangles;
            ask 7 Edges;
            w Delete (del b) "c" false;
            ask 9 Mutual;
            w Delete (del b) "c" true;
            ask 11 Triangles;
          |]);
    plan_cache = default.plan_cache_capacity;
    result_cache = default.result_cache_capacity;
    fleet = true;
  }

let daemon_args w =
  [ "--plan-cache"; string_of_int w.plan_cache; "--result-cache"; string_of_int w.result_cache ]

(* Router settings: journaled and fsynced through a manifest, and a
   merge threshold of one batch, so live deltas compact during every
   round. *)
let fleet_merge_threshold = fleet_batch
let fleet_merge_ratio = 0.0
let fleet_manifest dir = Filename.concat dir "catalog.manifest"

let all = [ ("cold_estimate", cold_estimate); ("hot_serve", hot_serve); ("fleet_rw", fleet_rw) ]

(* ---------- wire requests ---------- *)

module Wire = Ac_server.Wire

let request ?(trace = false) = function
  | Count c ->
      Wire.Count
        (Wire.params ~eps:c.eps ~delta ~seed:c.seed ~jobs ~trace ~db:(Wire.Named c.db)
           (Refcount.query c.shape))
  | Write w -> (
      let db = Wire.Named "f" and batch_id = Some w.batch_id in
      let tuples = List.map (fun (_, x, y) -> [| x; y |]) w.ops in
      match w.kind with
      | Insert -> Wire.Insert { db; rel = "E"; tuples; batch_id }
      | Delete -> Wire.Delete { db; rel = "E"; tuples; batch_id }
      | Batch ->
          Wire.Load_batch
            {
              db;
              ops =
                List.map
                  (fun (insert, x, y) -> { Wire.insert; rel = "E"; tuple = [| x; y |] })
                  w.ops;
              batch_id;
            })

(* The warm-up request sent once per database during set-up, with a
   seed outside every workload's key space. *)
let warmup db =
  Count { db; shape = Refcount.Edges; eps = 0.25; seed = 0x3FFFFFFF + 1 }
