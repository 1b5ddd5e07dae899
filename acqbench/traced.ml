(* The traced run: the workload's request rounds replayed against an
   in-process [Server] (for fleet_rw, one fronting a [Router] over
   spawned worker daemons), with spans recorded here, around the calls
   into each layer's public functions, and per-layer metrics derived
   from the spans, each response's own telemetry and STATS/METRICS
   snapshots taken before and after. *)

open Acqbench_core
module Server = Ac_server.Server
module Wire = Ac_server.Wire
module Client = Ac_server.Client
module Router = Ac_server.Router
module Partition = Ac_server.Partition
module Catalog = Ac_server.Catalog
module Json = Ac_analysis.Json
module Api = Approxcount.Api

(* ---------- spans ---------- *)

type span = { id : int; parent : int; name : string; req : int; start : float; stop : float }

let spans : span list ref = ref []
let next_id = ref 0
let recording = ref true
let lock = Mutex.create ()

(* [f] receives the span's id, the parent of any child span. Safe to
   call from several threads. *)
let with_span ?(parent = -1) ?(req = -1) name f =
  if not !recording then f (-1)
  else begin
    let id =
      Mutex.protect lock (fun () ->
          let id = !next_id in
          incr next_id;
          id)
    in
    let start = Unix.gettimeofday () in
    let r = f id in
    let s = { id; parent; name; req; start; stop = Unix.gettimeofday () } in
    Mutex.protect lock (fun () -> spans := s :: !spans);
    r
  end

(* Mean self time (ms) per span name: duration minus the part covered
   by child spans. *)
let self_ms () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value ~default:0. (Hashtbl.find_opt child s.parent) +. (s.stop -. s.start)))
    !spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      let n, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, t +. self))
    !spans;
  fun name ->
    match Hashtbl.find_opt acc name with
    | Some (n, t) when n > 0 -> t *. 1000. /. float_of_int n
    | _ -> 0.

(* The first [max_written] spans in creation order, after a header line
   with the total: a long hot_serve replay records millions. *)
let max_written = 200_000

let write_spans path =
  let oc = open_out path in
  let all = List.rev !spans in
  Printf.fprintf oc "{\"spans\":%d,\"written\":%d}\n" (List.length all)
    (min max_written (List.length all));
  List.iteri
    (fun i s ->
      if i < max_written then
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"req\":%d,\"start\":%.6f,\"stop\":%.6f}\n"
          s.id s.parent s.name s.req s.start s.stop)
    all;
  close_out oc

(* ---------- snapshots ---------- *)

let stats srv session =
  match Server.handle srv session Wire.Stats with Wire.Stats_reply j -> j | _ -> Json.Null

let metrics_of = function
  | Wire.Metrics_reply { payload; _ } -> (
      match Json.to_list payload with Some l -> l | None -> [])
  | _ -> []

let metrics srv session =
  metrics_of (Server.handle srv session (Wire.Metrics_req { format = Wire.Metrics_json }))

let path j keys =
  List.fold_left (fun j k -> Option.bind j (Json.mem k)) (Some j) keys

let int_at j keys = Option.value ~default:0 (Option.bind (path j keys) Json.to_int)

let num j =
  match j with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> 0.

(* Sum of [field] over every series named [name] whose labels include
   [labels]. *)
let series ?(labels = []) series_list name field =
  List.fold_left
    (fun acc s ->
      let matches =
        Json.mem "name" s = Some (Json.String name)
        && List.for_all
             (fun (k, v) ->
               Option.bind (Json.mem "labels" s) (Json.mem k) = Some (Json.String v))
             labels
      in
      if matches then acc +. num (Json.mem field s) else acc)
    0. series_list

(* ---------- deployment ---------- *)

type local = {
  srv : Server.t;
  sessions : Server.session array;
  workers : Daemon.proc list;
  worker_clients : Client.t list;
  router : Router.t option;
}

let deploy ~acqd ~dir (w : Inputs.t) =
  Daemon.rm_rf dir;
  Daemon.mkdir_p dir;
  let files = Drive.write_dbs dir w in
  let workers = if w.fleet then Drive.spawn_workers ~acqd ~dir else [] in
  let router =
    if not w.fleet then None
    else
      Some
        (Router.create ~strategy:Partition.Hash ~column:0
           (List.map (fun (p : Daemon.proc) -> Client.Unix_socket p.sock) workers))
  in
  let config =
    {
      Server.default_config with
      plan_cache_capacity = w.plan_cache;
      result_cache_capacity = w.result_cache;
      manifest = (if w.fleet then Some (Inputs.fleet_manifest dir) else None);
      merge_threshold =
        (if w.fleet then Inputs.fleet_merge_threshold
         else Server.default_config.merge_threshold);
      merge_ratio =
        (if w.fleet then Inputs.fleet_merge_ratio else Server.default_config.merge_ratio);
    }
  in
  let srv = Server.create ?router ~config () in
  List.iter
    (fun (name, path) ->
      let entry =
        with_span "catalog.load" (fun _ ->
            match Server.load_db srv ~name ~path with
            | Ok e -> e
            | Error e -> Drive.die "load %s: %s" name (Ac_runtime.Error.message e))
      in
      match router with
      | None -> ()
      | Some r -> (
          ignore
            (with_span "router.split" (fun _ -> Partition.split (Router.spec r) entry.Catalog.db));
          match Router.distribute r ~name entry.Catalog.db with
          | Ok _ -> ()
          | Error e -> Drive.die "distribute %s: %s" name (Ac_runtime.Error.message e)))
    files;
  let sessions = Array.init w.conns (fun _ -> Server.new_session srv) in
  List.iter
    (fun (name, _) -> ignore (Server.handle srv sessions.(0) (Inputs.request (Inputs.warmup name))))
    w.dbs;
  let worker_clients = List.map (fun (p : Daemon.proc) -> Drive.connect p.sock) workers in
  { srv; sessions; workers; worker_clients; router }

let teardown l dir =
  List.iter Client.close l.worker_clients;
  Option.iter Router.close l.router;
  Daemon.stop l.workers;
  Daemon.rm_rf dir

(* Server-side COUNT time of each worker so far (ms), from its METRICS. *)
let worker_count_ms l =
  List.map
    (fun c ->
      match Client.call c (Wire.Metrics_req { format = Wire.Metrics_json }) with
      | Ok r ->
          series ~labels:[ ("verb", "count") ] (metrics_of r) "acq_request_duration_ms" "sum"
      | Error _ -> 0.)
    l.worker_clients

(* ---------- replay ---------- *)

type record = {
  op : Inputs.op;
  resp : Wire.response;
  traced : bool;  (** sent in a traced round *)
  request_ms : float;  (** decode, handle and encode *)
  handle_ms : float;
  bytes : int;
  after_write : bool;  (** first COUNT after a write *)
  shard_ms : float;  (** slowest worker's server-side time, scattered COUNTs *)
}

let req_ids = Atomic.make 0

(* One connection's share of round [r], in order. *)
let replay_conn (w : Inputs.t) l ~trace ~conn r =
  let last_write = ref false in
  Array.to_list (w.round ~conn r)
  |> List.map (fun op ->
         let req = Atomic.fetch_and_add req_ids 1 in
         let line = Json.to_string (Wire.request_to_json (Inputs.request ~trace op)) in
         let scattered =
           trace && w.fleet
           && match op with Inputs.Count c -> Refcount.shardable c.shape | _ -> false
         in
         let before = if scattered then worker_count_ms l else [] in
         let t0 = Unix.gettimeofday () in
         let resp, handle_ms, out =
           with_span ~req "request" (fun rid ->
               let r =
                 with_span ~parent:rid ~req "wire.decode" (fun _ ->
                     match Json.parse line with
                     | Error e -> Drive.die "decode: %s" (Json.error_message e)
                     | Ok j -> (
                         match Wire.request_of_json j with
                         | Ok r -> r
                         | Error m -> Drive.die "decode: %s" m))
               in
               let h0 = Unix.gettimeofday () in
               let resp =
                 with_span ~parent:rid ~req "server.handle" (fun _ ->
                     Server.handle l.srv l.sessions.(conn) r)
               in
               let handle_ms = (Unix.gettimeofday () -. h0) *. 1000. in
               let out =
                 with_span ~parent:rid ~req "wire.encode" (fun _ ->
                     Json.to_string (Wire.response_to_json resp))
               in
               (resp, handle_ms, out))
         in
         let request_ms = (Unix.gettimeofday () -. t0) *. 1000. in
         let shard_ms =
           if before = [] then 0.
           else List.fold_left2 (fun m a b -> Float.max m (b -. a)) 0. before (worker_count_ms l)
         in
         let is_count = match op with Inputs.Count _ -> true | _ -> false in
         let after_write = is_count && !last_write in
         last_write :=
           (match op with Inputs.Write w -> not w.resend | _ -> false)
           || (!last_write && not is_count);
         {
           op;
           resp;
           traced = trace;
           request_ms;
           handle_ms;
           bytes = String.length line + String.length out + 2;
           after_write;
           shard_ms;
         })

(* Whole rounds in lockstep, one thread per connection as the daemon
   serves them, traced and untraced in the order T U U T T U U T ..., so
   that neither kind always runs first, on a fresh heap or after what
   the other left behind. Stops at the end of a pair once [deadline] has
   passed. Returns each connection's records in order and the number of
   rounds. *)
let replay (w : Inputs.t) l ~deadline =
  let logs = Array.make w.conns [] in
  let r = ref 0 in
  while !r < 2 || !r mod 2 = 1 || Unix.gettimeofday () < deadline do
    let trace = match !r mod 4 with 0 | 3 -> true | _ -> false in
    recording := trace;
    let out = Array.make w.conns [] in
    if w.conns = 1 then out.(0) <- replay_conn w l ~trace ~conn:0 !r
    else
      List.iter Thread.join
        (List.init w.conns (fun conn ->
             Thread.create (fun () -> out.(conn) <- replay_conn w l ~trace ~conn !r) ()));
    Array.iteri (fun conn recs -> logs.(conn) <- List.rev_append recs logs.(conn)) out;
    incr r
  done;
  recording := true;
  (Array.map List.rev logs, !r)

(* ---------- per-layer metrics ---------- *)

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let computed = function
  | { resp = Wire.Counted o; _ } as r when o.Wire.result_cache <> "hit" && o.Wire.result_cache <> "inflight"
    ->
      Some (r, o)
  | _ -> None

let by_rung records names =
  List.filter_map
    (fun r ->
      match computed r with
      | Some (_, o) when List.mem (Option.value ~default:"" o.Wire.rung) names -> Some o
      | _ -> None)
    records

(* Distinct (db, shape, eps) requests of one round, with their weight. *)
let round_pairs (w : Inputs.t) =
  let tbl = Hashtbl.create 16 in
  for conn = 0 to w.conns - 1 do
    Array.iter
      (function
        | Inputs.Count c ->
            let k = (c.db, c.shape, c.eps) in
            Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
        | Inputs.Write _ -> ())
      (w.round ~conn 0)
  done;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [] |> List.sort compare

let weighted pairs f =
  let total = List.fold_left (fun a (_, n) -> a + n) 0 pairs in
  if total = 0 then 0.
  else
    List.fold_left (fun a (k, n) -> a +. (float_of_int n *. f k)) 0. pairs
    /. float_of_int total

let catalog_db l name =
  match Catalog.find (Server.catalog l.srv) name with
  | Some e -> e.Catalog.db
  | None -> Drive.die "no catalog entry %s" name

let parse shape =
  match Ac_query.Ecq.parse_result (Refcount.query shape) with
  | Ok q -> q
  | Error e -> Drive.die "parse: %s" (Ac_runtime.Error.message e)

(* Report.analyze per distinct (db, shape): median of three timings,
   and log2 of the instantiated bound over the reference count. *)
let analysis (w : Inputs.t) l pairs =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun ((db, shape, _), _) ->
      if not (Hashtbl.mem seen (db, shape)) then begin
        let q = parse shape and d = catalog_db l db in
        let times =
          Array.init 3 (fun _ ->
              let t0 = Unix.gettimeofday () in
              let rep = with_span "analysis.analyze" (fun _ -> Ac_analysis.Report.analyze ~db:d q) in
              ((Unix.gettimeofday () -. t0) *. 1000., rep))
        in
        let rep = snd times.(0) in
        let truth = Refcount.count (List.assoc db w.dbs) shape in
        let looseness =
          match rep.Ac_analysis.Report.cost with
          | Some c ->
              c.Ac_analysis.Cost.query_bound.Ac_analysis.Cost.log2
              -. (log (float_of_int (max 1 truth)) /. log 2.)
          | None -> 0.
        in
        Hashtbl.replace seen (db, shape) (Stats.median (Array.map fst times), looseness)
      end)
    pairs;
  ( weighted pairs (fun (db, shape, _) -> fst (Hashtbl.find seen (db, shape))),
    weighted pairs (fun (db, shape, _) -> snd (Hashtbl.find seen (db, shape))) )

(* Regret: the chosen rung's time over the fastest guaranteed rung's,
   from method-pinned Api.run calls. Each pinned call gets the current
   best time (plus a margin) as its deadline: a slower rung cannot
   change the minimum, so it is cut there. *)
let regret l pairs records =
  let chosen_ms (db, shape, eps) =
    let ms =
      List.filter_map
        (fun r ->
          match (r.op, computed r) with
          | Inputs.Count c, Some (_, o) when c.db = db && c.shape = shape && c.eps = eps ->
              Some o.Wire.elapsed_ms
          | _ -> None)
        records
    in
    if ms = [] then None else Some (Stats.median (Array.of_list ms))
  in
  weighted pairs (fun ((db, shape, eps) as k) ->
      match chosen_ms k with
      | None -> 1.
      | Some chosen ->
          let q = parse shape and d = catalog_db l db in
          let best = ref chosen in
          List.iter
            (fun m ->
              match Api.method_of_string m with
              | None -> ()
              | Some method_ ->
                  let budget = Ac_runtime.Budget.create ~deadline_ms:(!best +. 5.) () in
                  let req =
                    Api.Request.make q d |> Api.Request.with_eps eps
                    |> Api.Request.with_delta Inputs.delta
                    |> Api.Request.with_method method_
                    |> Api.Request.with_seed (Some 1)
                    |> Api.Request.with_jobs (Some Inputs.jobs)
                    |> Api.Request.with_budget (Some budget)
                  in
                  let t0 = Unix.gettimeofday () in
                  let r = with_span "api.run" (fun _ -> Api.run req) in
                  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
                  match r with
                  | Ok resp when resp.Api.guarantee && not resp.Api.degraded ->
                      best := Float.min !best ms
                  | _ -> ())
            [ "exact"; "fpras"; "tree-dp"; "generic-join" ];
          chosen /. Float.max 1e-3 !best)

(* The replay runs whole rounds for this share of the run length: the
   in-process server keeps what the fpras rung leaves behind, so the
   traced process must not serve as long as a daemon does. *)
let replay_share = 1. /. 2.

let run ~acqd ~root ~seconds ~workload gen seed : Drive.result =
  let w : Inputs.t = gen seed in
  spans := [];
  let dir = Filename.concat root "traced" in
  let l = deploy ~acqd ~dir w in
  let s0 = stats l.srv l.sessions.(0) and m0 = metrics l.srv l.sessions.(0) in
  Gc.compact ();
  let heap0 = (Gc.quick_stat ()).Gc.top_heap_words in
  let logs, rounds =
    replay w l ~deadline:(Unix.gettimeofday () +. (seconds *. replay_share))
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words - heap0) *. 8. /. 1048576.
  in
  let s1 = stats l.srv l.sessions.(0) and m1 = metrics l.srv l.sessions.(0) in
  (* the per-layer figures come from the traced rounds; counters from
     the snapshots cover every round *)
  let records, untraced = List.partition (fun r -> r.traced) (List.concat (Array.to_list logs)) in
  let pairs = round_pairs w in
  let analyze_ms, looseness = analysis w l pairs in
  let regret = regret l pairs records in
  teardown l dir;
  Daemon.mkdir_p ".acqbench_run";
  write_spans (Filename.concat ".acqbench_run" ("spans-" ^ workload ^ ".jsonl"));
  (* correctness of every replayed round, checked like the end-to-end run *)
  let checked =
    Array.to_list
      (Array.mapi
         (fun conn recs ->
           let ck, _, round_stale =
             Check.check_log w.dbs
               ~round_len:(Array.length (w.round ~conn 0))
               (List.map (fun r -> (r.op, Ok r.resp)) recs)
           in
           (ck.Check.tally, round_stale))
         logs)
  in
  let tally = List.fold_left (fun acc (t, _) -> Check.merge acc t) (Check.tally ()) checked in
  let problems = Check.verdict tally ~round_stale:(List.concat_map snd checked) in
  List.iter (fun m -> prerr_endline ("acqbench: check failed: " ^ m)) problems;
  let self = self_ms () in
  let traced_rounds = rounds / 2 in
  let per_traced_round x = x /. float_of_int (max 1 traced_rounds) in
  let per_round x = x /. float_of_int (max 1 rounds) in
  let d0 f = f s1 -. f s0 in
  let st keys j = float_of_int (int_at j keys) in
  let ratio h m = if h +. m > 0. then h /. (h +. m) else 0. in
  let mdelta ?labels name field = series ?labels m1 name field -. series ?labels m0 name field in
  let counts =
    List.filter_map (fun r -> match r.resp with Wire.Counted o -> Some (r, o) | _ -> None) records
  in
  let fpras = by_rung records [ "fpras" ] and fptras = by_rung records [ "tree-dp"; "generic-join" ] in
  let exact = by_rung records [ "exact" ] in
  (* oracle spans per fptras response, from its own span summary; a
     summary that dropped spans undercounts, so those are used only when
     no complete one exists, and then the figure is a lower bound *)
  let oracle_counts =
    List.filter_map
      (fun (o : Wire.outcome) ->
        Option.map
          (fun (s : Ac_obs.Trace.summary) ->
            ( s.Ac_obs.Trace.summary_dropped = 0,
              float_of_int
                (List.fold_left
                   (fun a (g : Ac_obs.Trace.agg) ->
                     if g.Ac_obs.Trace.agg_name = "oracle" then a + g.Ac_obs.Trace.count else a)
                   0 s.Ac_obs.Trace.aggs) ))
          o.Wire.trace)
      fptras
  in
  let oracle =
    match List.filter fst oracle_counts with
    | [] when oracle_counts <> [] ->
        Printf.eprintf
          "acqbench: fptras.oracle_calls is a lower bound: all %d span summaries dropped spans\n%!"
          (List.length oracle_counts);
        List.map snd oracle_counts
    | complete -> List.map snd complete
  in
  let rung name =
    per_traced_round
      (float_of_int
         (List.length
            (List.filter
               (fun r ->
                 match computed r with
                 | Some (_, o) -> o.Wire.rung = Some name
                 | None -> false)
               records)))
  in
  let writes =
    List.filter (fun r -> match r.op with Inputs.Write w -> not w.resend | _ -> false) records
  in
  let scattered = List.filter (fun r -> r.shard_ms > 0.) records in
  let merges = mdelta "acq_live_merge_total" "value" in
  (* medians: a mean would follow the few seed-dependent fpras and
     tree-dp requests, whose cost differs between a traced round and the
     untraced one beside it by more than tracing does *)
  let overhead =
    let request_ms l = Stats.median (Array.of_list (List.map (fun r -> r.request_ms) l)) in
    if untraced = [] || request_ms untraced <= 0. then 0.
    else request_ms records /. request_ms untraced
  in
  let f = float_of_int in
  Printf.eprintf "acqbench: %s traced: %d rounds (%d traced), %d traced requests, %d spans\n%!"
    w.name rounds traced_rounds (List.length records) (List.length !spans);
  {
    Drive.correct = problems = [];
    attempted = tally.Check.attempted;
    failed = tally.Check.failed;
    metrics =
      [
        ("wire.decode_us", self "wire.decode" *. 1000., "us");
        ("wire.encode_us", self "wire.encode" *. 1000., "us");
        ("wire.bytes_per_op", mean (List.map (fun r -> f r.bytes) records), "bytes");
        ( "server.dispatch_us",
          mean (List.map (fun (r, (o : Wire.outcome)) -> r.handle_ms -. o.Wire.elapsed_ms) counts)
          *. 1000.,
          "us" );
        ( "cache.result_hit_ratio",
          ratio (d0 (st [ "result_cache"; "hits" ])) (d0 (st [ "result_cache"; "misses" ])),
          "ratio" );
        ( "cache.plan_hit_ratio",
          ratio (d0 (st [ "plan_cache"; "hits" ])) (d0 (st [ "plan_cache"; "misses" ])),
          "ratio" );
        ("cache.result_evictions", per_round (d0 (st [ "result_cache"; "evictions" ])), "count");
        ("cache.inflight_joins", per_round (d0 (st [ "inflight_dedup"; "followed" ])), "count");
        ( "scheduler.refused",
          per_round
            (d0 (st [ "scheduler"; "rejected" ])
            +. d0 (st [ "scheduler"; "deadline_shed" ])
            +. d0 (st [ "scheduler"; "tenant_rejected" ])),
          "count" );
        ("analysis.analyze_ms", analyze_ms, "ms");
        ("analysis.bound_log2_looseness", looseness, "log2");
        ("planner.rung_count.exact", rung "exact", "count");
        ("planner.rung_count.fpras", rung "fpras", "count");
        ("planner.rung_count.tree-dp", rung "tree-dp", "count");
        ("planner.rung_count.generic-join", rung "generic-join", "count");
        ("planner.regret", regret, "ratio");
        ("fpras.ms_per_count", mean (List.map (fun (o : Wire.outcome) -> o.Wire.elapsed_ms) fpras), "ms");
        ("fpras.ticks_per_count", mean (List.map (fun (o : Wire.outcome) -> f o.Wire.ticks) fpras), "ticks");
        ("fpras.heap_mb", (if fpras = [] then 0. else heap_mb), "MB");
        ("fptras.ms_per_count", mean (List.map (fun (o : Wire.outcome) -> o.Wire.elapsed_ms) fptras), "ms");
        ("fptras.ticks_per_count", mean (List.map (fun (o : Wire.outcome) -> f o.Wire.ticks) fptras), "ticks");
        ("fptras.oracle_calls", mean oracle, "count");
        ("exact.ms_per_count", mean (List.map (fun (o : Wire.outcome) -> o.Wire.elapsed_ms) exact), "ms");
        ("exact.ticks_per_count", mean (List.map (fun (o : Wire.outcome) -> f o.Wire.ticks) exact), "ticks");
        ("live.mutate_ms", mean (List.map (fun r -> r.handle_ms) writes), "ms");
        ("live.merges", per_round merges, "count");
        ( "live.merge_ms",
          (if merges > 0. then mdelta "acq_live_merge_duration_ms" "sum" /. merges else 0.),
          "ms" );
        ( "live.read_after_write_ms",
          mean (List.filter_map (fun r -> if r.after_write then Some r.handle_ms else None) records),
          "ms" );
        ("router.scatter_ms", mean (List.map (fun r -> r.handle_ms) scattered), "ms");
        ( "router.gather_ms",
          mean
            (List.filter_map
               (fun r ->
                 match r.resp with
                 | Wire.Counted o -> Some (o.Wire.elapsed_ms -. r.shard_ms)
                 | _ -> None)
               scattered),
          "ms" );
        ("router.fallbacks", per_round (mdelta "acq_fleet_fallback_total" "value"), "count");
        ("router.split_ms", self "router.split", "ms");
        ("catalog.load_ms", self "catalog.load", "ms");
        ("obs.trace_overhead", overhead, "ratio");
      ];
  }
