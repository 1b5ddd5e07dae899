(* Starting, probing and stopping acqd processes. Every process started
   is remembered until it has been waited for, and stopped at exit. *)

module Client = Ac_server.Client

type proc = { pid : int; sock : string }

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | exception Unix.Unix_error _ -> ()
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let spawn ~acqd ~log ~sock args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let argv = acqd :: "--socket" :: sock :: args in
  (* taskset execs acqd in place, so the pid is the daemon's *)
  let argv =
    match Sys.getenv_opt "ACQBENCH_DAEMON_CPU" with
    | Some cpu -> "taskset" :: "-c" :: cpu :: argv
    | None -> argv
  in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) devnull out out in
  Unix.close devnull;
  Unix.close out;
  Hashtbl.replace live pid ();
  { pid; sock }

(* A daemon listens only after loading (and distributing) its catalog,
   so the first successful connect means it is ready; one that is not
   ready within a minute is an error. *)
let wait_ready p =
  let timeout_s = 60. in
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | pid, _ when pid = p.pid ->
        Hashtbl.remove live p.pid;
        Error (Printf.sprintf "acqd on %s exited during start-up" p.sock)
    | _ -> (
        match
          if Sys.file_exists p.sock then Client.connect (Client.Unix_socket p.sock)
          else Error (Ac_runtime.Error.Io { file = p.sock; msg = "no socket yet" })
        with
        | Ok c ->
            Client.close c;
            Ok ()
        | Error _ ->
            if Unix.gettimeofday () -. t0 > timeout_s then
              Error (Printf.sprintf "acqd on %s not ready after %.0f s" p.sock timeout_s)
            else begin
              Unix.sleepf 0.002;
              go ()
            end)
  in
  go ()

(* SIGTERM (graceful drain), then SIGKILL after ten seconds; returns
   once every process has been reaped. *)
let stop procs =
  let grace_s = 10. in
  List.iter (fun p -> try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ()) procs;
  let t0 = Unix.gettimeofday () in
  let rec reap pending =
    let pending =
      List.filter
        (fun p ->
          match Unix.waitpid [ Unix.WNOHANG ] p.pid with
          | pid, _ when pid = p.pid ->
              Hashtbl.remove live p.pid;
              false
          | _ -> true
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
              Hashtbl.remove live p.pid;
              false)
        pending
    in
    if pending <> [] then begin
      if Unix.gettimeofday () -. t0 > grace_s then
        List.iter (fun p -> try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ()) pending;
      Unix.sleepf 0.005;
      reap pending
    end
  in
  reap procs

let () =
  at_exit (fun () ->
      let pids = Hashtbl.fold (fun pid () acc -> pid :: acc) live [] in
      List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) pids;
      List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) pids)
