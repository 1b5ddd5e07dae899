(* acqbench — the repository's benchmark.

     acqbench --acqd PATH --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 drives real acqd processes and prints the end-to-end
   metrics; --trace 1 replays the same request rounds in-process and
   prints the per-layer metrics. The last line of standard output is one
   JSON object: {"correct", "attempted", "failed", "metrics"}. A run whose
   checks fail still prints it, then exits 1. *)

let usage () =
  prerr_endline
    "usage: acqbench --acqd PATH --workload cold_estimate|hot_serve|fleet_rw --seed N \
     --seconds S --trace 0|1";
  exit 2

(* An end-to-end run places itself and its acqd processes on fixed
   CPUs. cold_estimate (one connection to one daemon) runs one request
   at a time, so the client and the daemon share one CPU: otherwise
   every request and every answer wakes another, idle virtual CPU, and
   on a virtual machine that wake-up varies with the host's load by more
   than the bounds allow. hot_serve and fleet_rw keep several processes
   busy at once, so the client gets one CPU and every daemon another
   (the same one on a one-CPU machine). Each placement was the steadiest
   of those tried on a 2-vCPU host (acqbench/README.md). The program
   re-executes itself under taskset with ACQBENCH_CPU set; daemons are
   started under taskset on ACQBENCH_DAEMON_CPU (Daemon.spawn). *)
let place (w : Inputs.t) =
  if Sys.getenv_opt "ACQBENCH_CPU" = None then begin
    let cpus =
      match Acqbench_core.Procfs.allowed_cpus () with
      | Some (_ :: _ as l) -> l
      | _ -> Drive.die "cannot read the CPUs this process may run on"
    in
    let client = List.hd cpus in
    let daemons = match cpus with _ :: d :: _ when w.conns > 1 || w.fleet -> d | _ -> client in
    Unix.putenv "ACQBENCH_CPU" (string_of_int client);
    Unix.putenv "ACQBENCH_DAEMON_CPU" (string_of_int daemons);
    let args = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
    try
      Unix.execvp "taskset"
        (Array.append [| "taskset"; "-c"; string_of_int client; Sys.executable_name |] args)
    with Unix.Unix_error (e, _, _) -> Drive.die "taskset: %s" (Unix.error_message e)
  end

let () =
  (* a run stopped from outside still stops its daemons (at_exit) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let acqd = get "acqd" and workload = get "workload" in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  let gen =
    match List.assoc_opt workload Inputs.all with Some g -> g | None -> usage ()
  in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  if not (Sys.file_exists acqd) then Drive.die "no acqd binary at %s" acqd;
  (* the traced run has no bounds to hold and keeps the machine's
     parallelism for its in-process replay threads *)
  if trace = 0 then place (gen seed);
  let root = Filename.concat ".acqbench_run" (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  let seconds = float_of_int seconds in
  let r =
    if trace = 0 then Drive.run ~acqd ~root ~seconds gen seed
    else Traced.run ~acqd ~root ~seconds ~workload gen seed
  in
  Daemon.rm_rf root;
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.Drive.correct r.Drive.attempted r.Drive.failed;
  List.iteri
    (fun i (name, v, unit) ->
      if i > 0 then Buffer.add_string b ", ";
      (* every digit as measured; JSON has no NaN or infinity *)
      let v = if Float.is_finite v then v else 0. in
      Printf.bprintf b "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
    r.Drive.metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b);
  if not r.Drive.correct then exit 1
