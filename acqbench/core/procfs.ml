(* CPU time and peak resident set of the program's processes, read from
   /proc. Both readers sum over every pid they are given. *)

(* Clock ticks per second of the utime/stime fields (USER_HZ, 100 on
   Linux). *)
let clk_tck = 100.

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let b = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Some (Buffer.contents b)

(* utime + stime in ticks from the text of /proc/<pid>/stat. The comm
   field is parenthesised and may hold spaces, so fields are counted
   from the last ')': state is field 3, utime field 14, stime field 15. *)
let cpu_ticks_of_stat text =
  match String.rindex_opt text ')' with
  | None -> None
  | Some i -> (
      let rest = String.sub text (i + 1) (String.length text - i - 1) in
      let fields =
        List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim rest))
      in
      (* fields.(0) is field 3 (state) *)
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some s -> (
          match (int_of_string_opt u, int_of_string_opt s) with
          | Some u, Some s -> Some (u + s)
          | _ -> None)
      | _ -> None)

(* VmHWM in kB from the text of /proc/<pid>/status. *)
let vmhwm_kb_of_status text =
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim v)) with
          | kb :: _ -> int_of_string_opt kb
          | [] -> None)
      | _ -> None)
    (String.split_on_char '\n' text)

let proc pid file = Printf.sprintf "/proc/%d/%s" pid file

(* Summed user+system CPU of [pids], in milliseconds. A pid that cannot
   be read is an error: a missing process would silently undercount. *)
let cpu_ms pids =
  List.fold_left
    (fun acc pid ->
      match acc with
      | Error _ -> acc
      | Ok total -> (
          match Option.bind (read_file (proc pid "stat")) cpu_ticks_of_stat with
          | Some t -> Ok (total +. (float_of_int t *. 1000. /. clk_tck))
          | None -> Error (Printf.sprintf "cannot read CPU time of pid %d" pid)))
    (Ok 0.) pids

(* Summed peak resident set (VmHWM) of [pids], in MB. *)
let peak_rss_mb pids =
  List.fold_left
    (fun acc pid ->
      match acc with
      | Error _ -> acc
      | Ok total -> (
          match Option.bind (read_file (proc pid "status")) vmhwm_kb_of_status with
          | Some kb -> Ok (total +. (float_of_int kb /. 1024.))
          | None -> Error (Printf.sprintf "cannot read VmHWM of pid %d" pid)))
    (Ok 0.) pids

(* (steal, total) CPU ticks of the whole machine since boot, from the
   first line of /proc/stat: "cpu user nice system idle iowait irq
   softirq steal ...". Steal is time the hypervisor gave this machine's
   virtual CPUs to others; the total is over those eight fields. *)
let steal_of_stat text =
  match String.split_on_char '\n' text with
  | line :: _ -> (
      match List.filter (fun s -> s <> "") (String.split_on_char ' ' line) with
      | "cpu" :: fields -> (
          let first8 = List.filteri (fun i _ -> i < 8) (List.map int_of_string_opt fields) in
          match List.filter_map Fun.id first8 with
          | l when List.length l = 8 -> Some (List.nth l 7, List.fold_left ( + ) 0 l)
          | _ -> None)
      | _ -> None)
  | [] -> None

let host_steal () = Option.bind (read_file "/proc/stat") steal_of_stat

(* The CPUs in the "Cpus_allowed_list" line of /proc/<pid>/status
   ("0-1", "2,5-7", ...), ascending. *)
let cpus_of_status text =
  let range r =
    match List.map int_of_string_opt (String.split_on_char '-' (String.trim r)) with
    | [ Some c ] -> Some [ c ]
    | [ Some lo; Some hi ] when lo <= hi -> Some (List.init (hi - lo + 1) (fun i -> lo + i))
    | _ -> None
  in
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "Cpus_allowed_list"; v ] ->
          let rs = List.map range (String.split_on_char ',' v) in
          if List.mem None rs then None
          else Some (List.sort_uniq compare (List.concat_map Option.get rs))
      | _ -> None)
    (String.split_on_char '\n' text)

let allowed_cpus () = Option.bind (read_file "/proc/self/status") cpus_of_status
