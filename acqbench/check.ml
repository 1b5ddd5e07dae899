(* Checking answers against the benchmark's own model, op by op and in
   order, so the model follows the mutations each connection sent. *)

open Acqbench_core
module Wire = Ac_server.Wire

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable stale : int;  (** failed COUNTs that returned the boot snapshot's count *)
  mutable estimates : (float * float * float) list;  (** (estimate, truth, eps) *)
  mutable problems : string list;  (** broken invariants: the run is not correct *)
  mutable failures : string list;  (** first few failure reasons, for stderr *)
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    stale = 0;
    estimates = [];
    problems = [];
    failures = [];
  }

let merge a b =
  {
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    stale = a.stale + b.stale;
    estimates = a.estimates @ b.estimates;
    problems = a.problems @ b.problems;
    failures = a.failures @ b.failures;
  }

type db_state = {
  boot : Refcount.model;
  model : Refcount.model;
  mutable version : int;
  batches : (string, int) Hashtbl.t;  (** batch id -> version it produced *)
  refs : (Refcount.shape, int) Hashtbl.t;  (** counts at [version] *)
  boot_refs : (Refcount.shape, int) Hashtbl.t;
}

type t = { dbs : (string, db_state) Hashtbl.t; tally : tally }

let create dbs =
  let t = { dbs = Hashtbl.create 4; tally = tally () } in
  List.iter
    (fun (name, m) ->
      Hashtbl.replace t.dbs name
        {
          boot = m;
          model = Refcount.copy m;
          version = 0;
          batches = Hashtbl.create 64;
          refs = Hashtbl.create 16;
          boot_refs = Hashtbl.create 16;
        })
    dbs;
  t

let memo tbl m shape =
  match Hashtbl.find_opt tbl shape with
  | Some c -> c
  | None ->
      let c = Refcount.count m shape in
      Hashtbl.replace tbl shape c;
      c

let fail t reason =
  t.tally.failed <- t.tally.failed + 1;
  if List.length t.tally.failures < 5 then t.tally.failures <- reason :: t.tally.failures

let problem t msg =
  if List.length t.tally.problems < 20 then t.tally.problems <- msg :: t.tally.problems

(* One operation and what came back ([Error] = transport failure).
   Returns whether the operation was answered (a count or a mutation
   reply, right or wrong): answered operations make the throughput, and
   every answered COUNT is a latency sample. *)
let op t (o : Inputs.op) (r : (Wire.response, string) result) =
  t.tally.attempted <- t.tally.attempted + 1;
  match (o, r) with
  | _, Error msg ->
      fail t ("transport: " ^ msg);
      false
  | _, Ok (Wire.Refused { error_class; message; _ }) ->
      fail t (Printf.sprintf "refused [%s] %s" error_class message);
      false
  | Inputs.Count c, Ok (Wire.Counted out) ->
      let d = Hashtbl.find t.dbs c.db in
      let truth = memo d.refs d.model c.shape in
      let label = Printf.sprintf "%s on %s" (Refcount.name c.shape) c.db in
      if out.Wire.degraded then fail t ("degraded: " ^ label)
      else if out.Wire.exact then begin
        if not (Float.equal out.Wire.estimate (float_of_int truth)) then begin
          let boot = memo d.boot_refs d.boot c.shape in
          if Float.equal out.Wire.estimate (float_of_int boot) then
            t.tally.stale <- t.tally.stale + 1;
          fail t
            (Printf.sprintf "%s: exact %g, reference %d (boot snapshot %d)" label
               out.Wire.estimate truth boot)
        end
      end
      else
        t.tally.estimates <-
          (out.Wire.estimate, float_of_int truth, c.eps) :: t.tally.estimates;
      true
  | Inputs.Write w, Ok (Wire.Mutated m) ->
      let d = Hashtbl.find t.dbs m.name in
      if w.resend then begin
        match Hashtbl.find_opt d.batches w.batch_id with
        | Some v when m.replayed && m.db_version = v && v <= d.version -> ()
        | prior ->
            problem t
              (Printf.sprintf "resent batch %s: replayed=%b version %d (original %s)"
                 w.batch_id m.replayed m.db_version
                 (match prior with Some v -> string_of_int v | None -> "unknown"))
      end
      else begin
        let ins = ref 0 and del = ref 0 in
        List.iter
          (fun (insert, x, y) ->
            if insert then (if Refcount.insert d.model x y then incr ins)
            else if Refcount.delete d.model x y then incr del)
          w.ops;
        Hashtbl.reset d.refs;
        let expected = d.version + 1 in
        d.version <- expected;
        Hashtbl.replace d.batches w.batch_id m.db_version;
        if m.replayed || m.db_version <> expected || m.inserted <> !ins || m.deleted <> !del
        then
          problem t
            (Printf.sprintf
               "batch %s: version %d (expected %d), replayed=%b, +%d/-%d (model +%d/-%d)"
               w.batch_id m.db_version expected m.replayed m.inserted m.deleted !ins !del)
      end;
      true
  | _, Ok other ->
      fail t
        (Printf.sprintf "unexpected response (status %d)" (Wire.status_of_response other));
      false

(* Checks one connection's operations in the order they were sent,
   [round_len] to a round, into a fresh model. Returns the checker, each
   operation's answered flag, and the stale-shard answers of each round. *)
let check_log dbs ~round_len ops =
  let t = create dbs in
  let round_stale = ref [] and at_start = ref 0 in
  let answered =
    List.mapi
      (fun i (o, r) ->
        let a = op t o r in
        if (i + 1) mod round_len = 0 then begin
          round_stale := (t.tally.stale - !at_start) :: !round_stale;
          at_start := t.tally.stale
        end;
        a)
      ops
  in
  (t, answered, List.rev !round_stale)

(* The aggregate (eps, delta) property over a run's estimates. *)
let guarantee_problem estimates =
  let n = List.length estimates in
  let k =
    List.length
      (List.filter
         (fun (est, truth, eps) -> Float.abs (est -. truth) > eps *. truth)
         estimates)
  in
  if Stats.refutes_guarantee ~n ~k ~delta:Inputs.delta then
    Some
      (Printf.sprintf "%d of %d estimates outside (1 ± eps)·truth refute delta = %g" k n
         Inputs.delta)
  else None

(* Why a run is not correct, if it is not: a broken write contract, the
   aggregate (eps, delta) test, or a failed operation other than a
   stale-shard answer. Stale-shard answers must hit every round alike
   ([round_stale] holds each round's count), so that the failed share of
   a run is fixed; once the fleet routes mutations they are 0 in every
   round. *)
let verdict tally ~round_stale =
  let uniform =
    match round_stale with [] -> true | s :: rest -> List.for_all (( = ) s) rest
  in
  tally.problems
  @ Option.to_list (guarantee_problem tally.estimates)
  @ (if tally.failed = tally.stale then []
     else
       [
         Printf.sprintf "%d failed operations are not stale-shard answers"
           (tally.failed - tally.stale);
       ])
  @
  if uniform then []
  else
    [
      Printf.sprintf "stale-shard answers differ between rounds (%d to %d per round)"
        (List.fold_left min max_int round_stale)
        (List.fold_left max 0 round_stale);
    ]
