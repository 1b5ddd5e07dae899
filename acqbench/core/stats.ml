(* Order statistics and the aggregate (eps, delta) test. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. A tail percentile is only worth reporting
   when ten samples lie above it, so fewer is an error. *)
let percentile xs ~p =
  let min_beyond = 10 in
  let n = Array.length xs in
  if n = 0 then Error "no samples"
  else
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n -. 1e-9))) in
    let beyond = n - rank in
    if beyond < min_beyond then
      Error
        (Printf.sprintf "p%g of %d samples has %d beyond it (need %d)"
           (100. *. p) n beyond min_beyond)
    else Ok (sorted xs).(rank - 1)

let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let a = sorted xs in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* log C(n, k) *)
let log_choose n k =
  let rec lf acc i = if i <= 1 then acc else lf (acc +. log (float_of_int i)) (i - 1) in
  lf 0. n -. lf 0. k -. lf 0. (n - k)

(* P[Bin(n, p) >= k] *)
let binomial_tail_ge ~n ~p k =
  if k <= 0 then 1.
  else if k > n then 0.
  else if p <= 0. then 0.
  else if p >= 1. then 1.
  else begin
    let s = ref 0. in
    for i = k to n do
      s :=
        !s
        +. exp
             (log_choose n i
             +. (float_of_int i *. log p)
             +. (float_of_int (n - i) *. log1p (-.p)))
    done;
    Float.min 1. !s
  end

(* One-sided Clopper-Pearson: with [k] of [n] estimates outside
   (1 ± eps)·truth, the lower confidence bound on the violation rate at
   level 99.9% exceeds [delta] exactly when P[Bin(n, delta) >= k] < 1e-3.
   Returns true when the guarantee is refuted. *)
let refutes_guarantee ~n ~k ~delta =
  k > 0 && binomial_tail_ge ~n ~p:delta k < 1e-3
