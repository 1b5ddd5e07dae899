(* The end-to-end run: real acqd processes over Unix sockets, a closed
   loop of whole rounds per connection, answers checked afterwards
   against the benchmark's own model. *)

open Acqbench_core
module Client = Ac_server.Client
module Wire = Ac_server.Wire

type deployment = {
  procs : Daemon.proc list;  (** every acqd process of the deployment *)
  front : string;  (** socket of the daemon clients talk to *)
  dir : string;
}

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("acqbench: " ^ m); exit 2) fmt

let ok_or_die = function Ok v -> v | Error m -> die "%s" m

let connect sock =
  match Client.connect (Client.Unix_socket sock) with
  | Ok c -> c
  | Error e -> die "connect %s: %s" sock (Ac_runtime.Error.message e)

let call c req =
  match Client.call c req with
  | Ok r -> Ok r
  | Error e -> Error (Ac_runtime.Error.message e)

let write_dbs dir (w : Inputs.t) =
  List.map
    (fun (name, m) ->
      let path = Filename.concat dir (name ^ ".db") in
      Daemon.write_file path (Refcount.to_db_text m);
      (name, path))
    w.dbs

(* The fleet's two worker daemons, booted empty; returns once both
   accept connections. *)
let spawn_workers ~acqd ~dir =
  let log = Filename.concat dir "acqd.log" in
  let workers =
    List.init 2 (fun i ->
        Daemon.spawn ~acqd ~log ~sock:(Filename.concat dir (Printf.sprintf "w%d.sock" i)) [])
  in
  List.iter (fun p -> ok_or_die (Daemon.wait_ready p)) workers;
  workers

(* Boot the daemons a workload is served by; returns once the serving
   daemon accepts connections. *)
let boot ~acqd ~dir (w : Inputs.t) files =
  let log = Filename.concat dir "acqd.log" in
  let loads = List.concat_map (fun (n, p) -> [ "--load"; n ^ "=" ^ p ]) files in
  let workers = if w.fleet then spawn_workers ~acqd ~dir else [] in
  let fleet_args =
    if not w.fleet then []
    else
      List.concat_map (fun (p : Daemon.proc) -> [ "--worker"; "unix:" ^ p.sock ]) workers
      @ [
          "--partition";
          "hash:0";
          "--manifest";
          Inputs.fleet_manifest dir;
          "--merge-threshold";
          string_of_int Inputs.fleet_merge_threshold;
          "--merge-ratio";
          string_of_float Inputs.fleet_merge_ratio;
        ]
  in
  let sock = Filename.concat dir (if w.fleet then "r.sock" else "a.sock") in
  let front = Daemon.spawn ~acqd ~log ~sock (loads @ fleet_args @ Inputs.daemon_args w) in
  ok_or_die (Daemon.wait_ready front);
  { procs = workers @ [ front ]; front = sock; dir }

(* Set-up as timed: input generation, db files, daemons, load and
   distribution, one warm-up COUNT per database. *)
let setup ~acqd ~root ~tag gen seed =
  let t0 = Unix.gettimeofday () in
  let w : Inputs.t = gen seed in
  let dir = Filename.concat root tag in
  Daemon.rm_rf dir;
  Daemon.mkdir_p dir;
  let files = write_dbs dir w in
  let d = boot ~acqd ~dir w files in
  let c = connect d.front in
  List.iter
    (fun (name, _) ->
      match call c (Inputs.request (Inputs.warmup name)) with
      | Ok (Wire.Counted _) -> ()
      | Ok other -> die "warm-up on %s: status %d" name (Wire.status_of_response other)
      | Error m -> die "warm-up on %s: %s" name m)
    w.dbs;
  Client.close c;
  (w, d, Unix.gettimeofday () -. t0)

let teardown d =
  Daemon.stop d.procs;
  Daemon.rm_rf d.dir

(* One connection's closed loop: whole rounds until [deadline]. Each
   log entry carries the op's completion time; [on_round] runs after
   every round (connection 0 uses it to mark measurement windows). *)
let run_conn ~on_round ~sock (w : Inputs.t) ~conn ~deadline () =
  let c = connect sock in
  let log = ref [] and rounds = ref 0 in
  while Unix.gettimeofday () < deadline do
    Array.iter
      (fun op ->
        let req = Inputs.request op in
        let t0 = Unix.gettimeofday () in
        let r = call c req in
        let t1 = Unix.gettimeofday () in
        log := (op, r, (t1 -. t0) *. 1000., t1) :: !log)
      (w.round ~conn !rounds);
    incr rounds;
    on_round ()
  done;
  Client.close c;
  List.rev !log

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let setups = 7

(* Windows are closed at the end of a connection-0 round once at least
   this long has passed, so each holds whole rounds of that connection
   and enough CPU ticks to resolve. *)
let window_s = 1.0

let run ~acqd ~root ~seconds gen seed =
  (* set-up is repeated and its median reported; the last deployment
     serves the timed phase *)
  let rec prepare k acc =
    let w, d, s = setup ~acqd ~root ~tag:(Printf.sprintf "setup%d" k) gen seed in
    if k + 1 < setups then begin
      teardown d;
      prepare (k + 1) (s :: acc)
    end
    else (w, d, s :: acc)
  in
  let w, d, setup_times = prepare 0 [] in
  let pids = List.map (fun (p : Daemon.proc) -> p.pid) d.procs in
  let cpu () = ok_or_die (Procfs.cpu_ms pids) in
  let t0 = Unix.gettimeofday () in
  (* each mark: time, CPU of the deployment, the host's steal counters *)
  let marks = ref [ (t0, cpu (), Procfs.host_steal ()) ] in
  let rss = ref None in
  let on_round () =
    let t = Unix.gettimeofday () in
    let t_last, _, _ = List.hd !marks in
    if t -. t_last >= window_s then begin
      marks := (t, cpu (), Procfs.host_steal ()) :: !marks;
      (* peak resident set after the first window's fixed work: the
         daemon's heap grows with every fpras request it has served, so
         a read at the end of the run would measure the run's length *)
      if !rss = None then rss := Some (ok_or_die (Procfs.peak_rss_mb pids))
    end
  in
  let deadline = t0 +. seconds in
  let logs =
    if w.conns = 1 then [ run_conn ~on_round ~sock:d.front w ~conn:0 ~deadline () ]
    else begin
      (* threads, not domains: the client's share of the work is small
         and sits on one CPU, where two domains would have to meet for
         every minor collection *)
      let logs = Array.make w.conns [] in
      List.iter Thread.join
        (List.init w.conns (fun conn ->
             let on_round = if conn = 0 then on_round else fun () -> () in
             Thread.create (fun () -> logs.(conn) <- run_conn ~on_round ~sock:d.front w ~conn ~deadline ()) ()));
      Array.to_list logs
    end
  in
  teardown d;
  let marks = Array.of_list (List.rev !marks) in
  let windows = Array.length marks - 1 in
  if windows < 1 then die "%s: no measurement window completed" w.name;
  let time k = let t, _, _ = marks.(k) in t and cpu_at k = let _, c, _ = marks.(k) in c in
  let span k = time (k + 1) -. time k and cpu_ms k = cpu_at (k + 1) -. cpu_at k in
  (* The hypervisor's share of the machine's CPU time in window k. On a
     virtual machine it comes and goes within seconds to minutes, and one share of
     steal costs a workload whose every operation waits on several
     processes a share of throughput several times larger
     (acqbench/README.md). *)
  let steal_between a b =
    match (marks.(a), marks.(b)) with
    | (_, _, Some (s0, n0)), (_, _, Some (s1, n1)) when n1 > n0 ->
        float_of_int (s1 - s0) /. float_of_int (n1 - n0)
    | _ -> 0.
  in
  let steal k = steal_between k (k + 1) in
  (* Every figure but set-up and memory is taken over the quieter half
     of the windows, those whose steal is at most the median window's:
     a stretch of steal that covers less than half of the run then
     leaves the figures alone. *)
  let steal_cut = Stats.median (Array.init windows steal) in
  let kept k = steal k <= steal_cut in
  let answered = Array.make windows 0 and all = Array.make windows 0 in
  let lat = ref [] in
  let checked =
    List.mapi
      (fun conn log ->
        let ck, ok, round_stale =
          Check.check_log w.dbs
            ~round_len:(Array.length (w.round ~conn 0))
            (List.map (fun (op, r, _, _) -> (op, r)) log)
        in
        List.iter2
          (fun (op, _, ms, t) ok ->
            (* the window whose (start, end] holds t *)
            let rec find k =
              if k >= windows then None else if t <= time (k + 1) then Some k else find (k + 1)
            in
            match find 0 with
            | Some k ->
                all.(k) <- all.(k) + 1;
                if ok then answered.(k) <- answered.(k) + 1;
                (* every answered COUNT of a kept window is a latency sample *)
                if ok && kept k && (match op with Inputs.Count _ -> true | _ -> false) then
                  lat := ms :: !lat
            | None -> ())
          log ok;
        (ck.Check.tally, round_stale))
      logs
  in
  let tally = List.fold_left (fun acc (t, _) -> Check.merge acc t) (Check.tally ()) checked in
  let round_stale = List.concat_map snd checked in
  for k = 0 to windows - 1 do
    Printf.eprintf "acqbench: window %d: %.3f s, %d ops, %.0f ms CPU, steal %.1f%%%s\n" k (span k)
      all.(k) (cpu_ms k) (100. *. steal k) (if kept k then "" else " (not kept)")
  done;
  Printf.eprintf
    "acqbench: host CPU steal %.1f%% of the timed phase, at most %.1f%% in the kept windows\n"
    (100. *. steal_between 0 windows) (100. *. steal_cut);
  (* medians over the kept windows, so one slow estimate moves one
     window, not the figure *)
  let per_kept_window f =
    Stats.median
      (Array.of_list (List.filter_map (fun k -> if kept k then Some (f k) else None)
         (List.init windows Fun.id)))
  in
  let ops_per_s = per_kept_window (fun k -> float_of_int answered.(k) /. span k) in
  let cpu_ms_per_op = per_kept_window (fun k -> cpu_ms k /. float_of_int (max 1 all.(k))) in
  let problems = Check.verdict tally ~round_stale in
  List.iter (fun m -> prerr_endline ("acqbench: check failed: " ^ m)) problems;
  List.iter (fun m -> prerr_endline ("acqbench: failed op: " ^ m)) (List.rev tally.Check.failures);
  let lat = Array.of_list !lat in
  let pct p =
    match Stats.percentile lat ~p with
    | Ok v -> v
    | Error m -> die "%s: count latency %s" w.name m
  in
  Printf.eprintf
    "acqbench: %s: %d ops (%d failed, %d of them stale-shard answers), %d rounds, %d COUNT \
     latencies, %d estimates, %d windows over %.1f s\n%!"
    w.name tally.Check.attempted tally.Check.failed tally.Check.stale (List.length round_stale)
    (Array.length lat) (List.length tally.Check.estimates) windows
    (time windows -. t0);
  {
    correct = problems = [];
    attempted = tally.Check.attempted;
    failed = tally.Check.failed;
    metrics =
      [
        ("setup_s", Stats.median (Array.of_list setup_times), "s");
        ("ops_per_s", ops_per_s, "1/s");
        ("count_p50_ms", pct 0.5, "ms");
        ("count_p90_ms", pct 0.9, "ms");
        ("cpu_ms_per_op", cpu_ms_per_op, "ms");
        ("peak_rss_mb", Option.value ~default:0. !rss, "MB");
      ];
  }
