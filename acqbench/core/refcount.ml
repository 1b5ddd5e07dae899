(* Reference answers computed apart from the program: a graph model the
   benchmark keeps itself, updated by the mutations it sends, and one
   nested-loop counter per query shape in the mixes. Nothing here calls
   into the program's libraries. *)

type model = { n : int; adj : bool array array }

let create n = { n; adj = Array.make_matrix n n false }
let copy m = { n = m.n; adj = Array.map Array.copy m.adj }
let mem m x y = m.adj.(x).(y)

(* Set semantics, like the database: a duplicate insert and a delete of
   an absent edge change nothing. Both return whether the edge set
   changed. *)
let insert m x y =
  if m.adj.(x).(y) then false
  else begin
    m.adj.(x).(y) <- true;
    true
  end

let delete m x y =
  if m.adj.(x).(y) then begin
    m.adj.(x).(y) <- false;
    true
  end
  else false

let edges m =
  let acc = ref [] in
  for x = m.n - 1 downto 0 do
    for y = m.n - 1 downto 0 do
      if m.adj.(x).(y) then acc := (x, y) :: !acc
    done
  done;
  !acc

(* G(n, m): [m] distinct unordered pairs drawn uniformly, each stored in
   both directions; no self-loops. Fixing the edge count at G(n, p)'s
   expectation keeps instance-to-instance cost differences small. *)
let gnm ~rng n m =
  let pairs = Array.make (n * (n - 1) / 2) (0, 0) in
  let k = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      pairs.(!k) <- (i, j);
      incr k
    done
  done;
  let total = Array.length pairs in
  if m > total then invalid_arg "Refcount.gnm";
  let g = create n in
  for i = 0 to m - 1 do
    let j = i + Random.State.int rng (total - i) in
    let t = pairs.(i) in
    pairs.(i) <- pairs.(j);
    pairs.(j) <- t;
    let x, y = pairs.(i) in
    g.adj.(x).(y) <- true;
    g.adj.(y).(x) <- true
  done;
  g

(* The expected edge count of G(n, p). *)
let expected_edges n p = int_of_float (Float.round (p *. float_of_int (n * (n - 1) / 2)))

(* The database file the program loads: a [universe] line, the relation
   declaration and one fact per edge. *)
let to_db_text m =
  let b = Buffer.create (16 * m.n * m.n / 4) in
  Printf.bprintf b "universe %d\nrelation E 2\n" m.n;
  List.iter (fun (x, y) -> Printf.bprintf b "E %d %d\n" x y) (edges m);
  Buffer.contents b

type shape =
  | Edges  (** ans(x,y) :- E(x,y) *)
  | Edges_noloop  (** ans(x,y) :- E(x,y), x != y *)
  | Mutual  (** ans(x,y) :- E(x,y), E(y,x) *)
  | Sources2  (** ans(x) :- E(x,y), E(y,z) *)
  | Paths2  (** ans(x,y) :- E(x,z), E(z,y) *)
  | Star2  (** ans(x,y,z) :- E(x,y), E(x,z), y != z *)
  | Triangles  (** ans(x,y,z) :- E(x,y), E(y,z), E(z,x) *)
  | Tri_nodes  (** ans(x) :- E(x,y), E(y,z), E(z,x) *)
  | Open_wedges  (** ans(x,y,z) :- E(x,y), E(y,z), !E(x,z), x != z *)

let all_shapes =
  [
    Edges;
    Edges_noloop;
    Mutual;
    Sources2;
    Paths2;
    Star2;
    Triangles;
    Tri_nodes;
    Open_wedges;
  ]

let query = function
  | Edges -> "ans(x,y) :- E(x,y)"
  | Edges_noloop -> "ans(x,y) :- E(x,y), x != y"
  | Mutual -> "ans(x,y) :- E(x,y), E(y,x)"
  | Sources2 -> "ans(x) :- E(x,y), E(y,z)"
  | Paths2 -> "ans(x,y) :- E(x,z), E(z,y)"
  | Star2 -> "ans(x,y,z) :- E(x,y), E(x,z), y != z"
  | Triangles -> "ans(x,y,z) :- E(x,y), E(y,z), E(z,x)"
  | Tri_nodes -> "ans(x) :- E(x,y), E(y,z), E(z,x)"
  | Open_wedges -> "ans(x,y,z) :- E(x,y), E(y,z), !E(x,z), x != z"

let name = function
  | Edges -> "edges"
  | Edges_noloop -> "edges_noloop"
  | Mutual -> "mutual"
  | Sources2 -> "sources2"
  | Paths2 -> "paths2"
  | Star2 -> "star2"
  | Triangles -> "triangles"
  | Tri_nodes -> "tri_nodes"
  | Open_wedges -> "open_wedges"

(* Every free variable of the shape sits at column 0 of every atom, so
   a hash:0 partition splits its answers between shards. *)
let shardable = function
  | Edges | Edges_noloop | Star2 -> true
  | Mutual | Sources2 | Paths2 | Triangles | Tri_nodes | Open_wedges -> false

let out_degree m x =
  let d = ref 0 in
  for y = 0 to m.n - 1 do
    if m.adj.(x).(y) then incr d
  done;
  !d

let count_range n f =
  let c = ref 0 in
  for i = 0 to n - 1 do
    if f i then incr c
  done;
  !c

let exists_range n f =
  let rec go i = i < n && (f i || go (i + 1)) in
  go 0

let count m shape =
  let n = m.n and e = m.adj in
  let sum f =
    let s = ref 0 in
    for x = 0 to n - 1 do
      s := !s + f x
    done;
    !s
  in
  match shape with
  | Edges -> sum (fun x -> count_range n (fun y -> e.(x).(y)))
  | Edges_noloop -> sum (fun x -> count_range n (fun y -> x <> y && e.(x).(y)))
  | Mutual -> sum (fun x -> count_range n (fun y -> e.(x).(y) && e.(y).(x)))
  | Sources2 ->
      count_range n (fun x ->
          exists_range n (fun y -> e.(x).(y) && exists_range n (fun z -> e.(y).(z))))
  | Paths2 ->
      sum (fun x ->
          count_range n (fun y -> exists_range n (fun z -> e.(x).(z) && e.(z).(y))))
  | Star2 ->
      sum (fun x ->
          let d = out_degree m x in
          d * (d - 1))
  | Triangles ->
      sum (fun x ->
          let c = ref 0 in
          for y = 0 to n - 1 do
            if e.(x).(y) then
              for z = 0 to n - 1 do
                if e.(y).(z) && e.(z).(x) then incr c
              done
          done;
          !c)
  | Tri_nodes ->
      count_range n (fun x ->
          exists_range n (fun y ->
              e.(x).(y) && exists_range n (fun z -> e.(y).(z) && e.(z).(x))))
  | Open_wedges ->
      sum (fun x ->
          let c = ref 0 in
          for y = 0 to n - 1 do
            if e.(x).(y) then
              for z = 0 to n - 1 do
                if x <> z && e.(y).(z) && not e.(x).(z) then incr c
              done
          done;
          !c)
