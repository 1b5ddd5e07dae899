(* Tests of the benchmark's own pieces: reference counters against a
   brute-force evaluator, the percentile helper's tail rule, and the
   /proc readers' summing over processes. *)

open Acqbench_core

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

(* ---- brute force: every assignment of every variable, atoms checked
   against an edge list, answers projected to the free variables and
   deduplicated ---- *)

type atom = Pos of int * int | Neg of int * int | Neq of int * int

(* (free variables, total variables, atoms) over variable indices *)
let spec = function
  | Refcount.Edges -> ([ 0; 1 ], 2, [ Pos (0, 1) ])
  | Edges_noloop -> ([ 0; 1 ], 2, [ Pos (0, 1); Neq (0, 1) ])
  | Mutual -> ([ 0; 1 ], 2, [ Pos (0, 1); Pos (1, 0) ])
  | Sources2 -> ([ 0 ], 3, [ Pos (0, 1); Pos (1, 2) ])
  | Paths2 -> ([ 0; 1 ], 3, [ Pos (0, 2); Pos (2, 1) ])
  | Star2 -> ([ 0; 1; 2 ], 3, [ Pos (0, 1); Pos (0, 2); Neq (1, 2) ])
  | Triangles -> ([ 0; 1; 2 ], 3, [ Pos (0, 1); Pos (1, 2); Pos (2, 0) ])
  | Tri_nodes -> ([ 0 ], 3, [ Pos (0, 1); Pos (1, 2); Pos (2, 0) ])
  | Open_wedges ->
      ([ 0; 1; 2 ], 3, [ Pos (0, 1); Pos (1, 2); Neg (0, 2); Neq (0, 2) ])

let brute n edge_list shape =
  let free, vars, atoms = spec shape in
  let e x y = List.mem (x, y) edge_list in
  let answers = Hashtbl.create 64 in
  let a = Array.make vars 0 in
  let rec go i =
    if i = vars then begin
      let holds =
        List.for_all
          (function
            | Pos (u, v) -> e a.(u) a.(v)
            | Neg (u, v) -> not (e a.(u) a.(v))
            | Neq (u, v) -> a.(u) <> a.(v))
          atoms
      in
      if holds then Hashtbl.replace answers (List.map (fun v -> a.(v)) free) ()
    end
    else
      for x = 0 to n - 1 do
        a.(i) <- x;
        go (i + 1)
      done
  in
  go 0;
  Hashtbl.length answers

let test_counters () =
  let rng = Random.State.make [| 7 |] in
  for trial = 0 to 59 do
    let n = 1 + Random.State.int rng 6 in
    let m = Refcount.create n in
    (* the edge list as sent: duplicates kept, deletes remove every copy *)
    let sent = ref [] in
    for _ = 1 to Random.State.int rng 30 do
      let x = Random.State.int rng n and y = Random.State.int rng n in
      (* self-loops included; duplicate inserts and deletes of absent
         edges happen often on graphs this small *)
      if Random.State.int rng 3 = 0 then begin
        ignore (Refcount.delete m x y);
        sent := List.filter (fun p -> p <> (x, y)) !sent
      end
      else begin
        ignore (Refcount.insert m x y);
        sent := (x, y) :: !sent
      end
    done;
    List.iter
      (fun shape ->
        let got = Refcount.count m shape and want = brute n !sent shape in
        check
          (Printf.sprintf "trial %d n=%d %s: counter %d, brute force %d" trial n
             (Refcount.name shape) got want)
          (got = want))
      Refcount.all_shapes
  done;
  let m = Refcount.create 3 in
  check "duplicate insert reports no change"
    (Refcount.insert m 0 1 && not (Refcount.insert m 0 1));
  check "delete of an absent edge reports no change" (not (Refcount.delete m 1 0));
  check "self-loop is an edge" (Refcount.insert m 2 2 && Refcount.count m Edges = 2)

let test_percentile () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  (* 99 samples: p90 is rank 90, 9 beyond — refused *)
  check "p90 of 99 samples refused" (Result.is_error (Stats.percentile (xs 99) ~p:0.9));
  (* 100 samples: rank 90, 10 beyond — accepted *)
  check "p90 of 100 samples accepted"
    (Stats.percentile (xs 100) ~p:0.9 = Ok 90.);
  check "p50 of 100 samples" (Stats.percentile (xs 100) ~p:0.5 = Ok 50.);
  check "median of even count" (Stats.median [| 4.; 1.; 3.; 2. |] = 2.5);
  check "no samples refused" (Result.is_error (Stats.percentile [||] ~p:0.5))

let test_clopper_pearson () =
  check "zero violations never refute"
    (not (Stats.refutes_guarantee ~n:100 ~k:0 ~delta:0.1));
  check "10 of 100 at delta 0.1 is expected"
    (not (Stats.refutes_guarantee ~n:100 ~k:10 ~delta:0.1));
  check "60 of 100 at delta 0.1 refutes" (Stats.refutes_guarantee ~n:100 ~k:60 ~delta:0.1);
  (* P[Bin(100, 0.1) >= 21] = 8.1e-4 < 1e-3 <= P[Bin(100, 0.1) >= 20] = 2.0e-3 *)
  check "acceptance edge at alpha 1e-3"
    ((not (Stats.refutes_guarantee ~n:100 ~k:20 ~delta:0.1))
    && Stats.refutes_guarantee ~n:100 ~k:21 ~delta:0.1)

let test_procfs () =
  let stat = "1234 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 3" in
  check "stat parse skips a comm with spaces and parens"
    (Procfs.cpu_ticks_of_stat stat = Some 325);
  check "status parse" (Procfs.vmhwm_kb_of_status "Name:\tx\nVmHWM:\t  2048 kB\n" = Some 2048);
  check "allowed CPUs parse"
    (Procfs.cpus_of_status "Name:\tx\nCpus_allowed_list:\t3,5-7\n" = Some [ 3; 5; 6; 7 ]
    && Procfs.cpus_of_status "Cpus_allowed_list:\t0\n" = Some [ 0 ]
    && Procfs.cpus_of_status "Cpus_allowed_list:\t0-x\n" = None);
  check "host stat parse"
    (Procfs.steal_of_stat "cpu  10 0 5 80 1 0 0 4 2 0\ncpu0 5 0 2 40 0 0 0 2 1 0\n" = Some (4, 100));
  (* two live processes: this one and a child that sleeps *)
  let child = Unix.create_process "sleep" [| "sleep"; "5" |] Unix.stdin Unix.stdout Unix.stderr in
  let self = Unix.getpid () in
  let get = function Ok v -> v | Error m -> failwith m in
  let r_self = get (Procfs.peak_rss_mb [ self ]) and r_child = get (Procfs.peak_rss_mb [ child ]) in
  let r_both = get (Procfs.peak_rss_mb [ self; child ]) in
  check "RSS sums over processes"
    (r_self > 0. && r_child > 0. && Float.abs (r_both -. (r_self +. r_child)) < 1.);
  (* CPU: burn some on this process; the child's stays ~0, and the sum
     is never below this process's own reading *)
  let x = ref 0 in
  for i = 1 to 30_000_000 do
    x := !x lxor i
  done;
  ignore (Sys.opaque_identity !x);
  let c_child = get (Procfs.cpu_ms [ child ]) in
  let c_self = get (Procfs.cpu_ms [ self ]) in
  let c_both = get (Procfs.cpu_ms [ child; self ]) in
  check "CPU sums over processes" (c_self > 0. && c_both >= c_self +. c_child);
  check "an unreadable pid is an error" (Result.is_error (Procfs.cpu_ms [ self; -1 ]));
  Unix.kill child Sys.sigkill;
  ignore (Unix.waitpid [] child)

let () =
  test_counters ();
  test_percentile ();
  test_clopper_pearson ();
  test_procfs ();
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "acqbench: all tests passed"
