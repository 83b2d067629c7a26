module F = Slr.Fraction
module O = Slr.Ordering

let asprintf = Format.asprintf

(* ------------------------------------------------------------------ *)
(* Generators *)

let fraction =
  Gen.frequency
    [
      ( 8,
        Gen.bind (Gen.int_range 1 10_000) (fun den ->
            Gen.map (fun num -> F.make ~num ~den) (Gen.int_range 0 (den - 1)))
      );
      (1, Gen.pure F.zero);
      (1, Gen.pure F.one);
    ]

let near_bound_fraction =
  (* two interesting denominator regimes: around bound/2, where mediant
     denominator sums straddle the 32-bit bound, and flush against the
     bound, where even the next-element (den + 1) overflows *)
  let half = F.bound / 2 in
  let den_gen =
    Gen.oneof
      [
        Gen.int_toward ~origin:half (half - 2000) (half + 2000);
        Gen.int_toward ~origin:F.bound (F.bound - 2000) F.bound;
      ]
  in
  Gen.bind den_gen (fun den ->
      Gen.map
        (fun num -> F.make ~num ~den)
        (Gen.oneof
           [
             Gen.int_range 0 (Stdlib.min 2000 (den - 1));
             Gen.int_toward ~origin:(den - 1) (Stdlib.max 0 (den - 2000))
               (den - 1);
           ]))

let ordering_over frac_gen =
  Gen.map2 (fun sn frac -> O.make ~sn ~frac) (Gen.int_range 0 4) frac_gen

let ordering = ordering_over fraction

let near_bound_ordering = ordering_over near_bound_fraction

(* ------------------------------------------------------------------ *)
(* Exact-rational helpers: all differential comparisons go through
   Bigfrac so a bug in Fraction.compare cannot vouch for itself. *)

let big_of f =
  Slr.Bigfrac.make
    ~num:(Slr.Bignat.of_int f.F.num)
    ~den:(Slr.Bignat.of_int f.F.den)

let big_lt a b = Slr.Bigfrac.compare (big_of a) (big_of b) < 0

(* ------------------------------------------------------------------ *)
(* Fraction arithmetic *)

let prop_mediant =
  Runner.cell ~name:"fraction-mediant"
    ~print:(fun (a, b) -> asprintf "%a, %a" F.pp a F.pp b)
    (Gen.pair fraction fraction)
    (fun (a, b) ->
      let lo, hi = if F.(a < b) then (a, b) else (b, a) in
      if F.equal lo hi then Ok ()
      else
        match F.mediant lo hi with
        | None ->
            if F.would_overflow lo hi then Ok ()
            else Error "mediant None without would_overflow"
        | Some m ->
            if F.would_overflow lo hi then
              Error "mediant Some despite would_overflow"
            else if not (big_lt lo m && big_lt m hi) then
              Error
                (asprintf "mediant %a outside (%a, %a) by exact comparison"
                   F.pp m F.pp lo F.pp hi)
            else Ok ())

(* Fraction.compare is antisymmetric and agrees with the exact order;
   the next-element lies strictly above, and is None only at 1/1 (these
   denominators stay far below the bound).

   Mutation drill (re-run whenever Fraction.compare or next changes; seed
   42): Fraction.compare multiplying a.num by a.den instead of b.den fails
   case 1, shrunk in 45 steps to 1/2206, 1/51: "compare disagrees with
   exact comparison". Restore and re-run green. *)
let prop_fraction_order =
  Runner.cell ~name:"fraction-order"
    ~print:(fun (a, b) -> asprintf "%a, %a" F.pp a F.pp b)
    (Gen.pair fraction fraction)
    (fun (a, b) ->
      let sign c = Stdlib.compare c 0 in
      if sign (F.compare a b) <> -sign (F.compare b a) then
        Error "compare is not antisymmetric"
      else if
        sign (F.compare a b)
        <> sign (Slr.Bigfrac.compare (big_of a) (big_of b))
      then Error "compare disagrees with exact comparison"
      else
        match F.next a with
        | Some n when big_lt a n -> Ok ()
        | Some n -> Error (asprintf "next %a not above %a" F.pp n F.pp a)
        | None when F.is_one a -> Ok ()
        | None -> Error (asprintf "next of %a is None below 1/1" F.pp a))

let prop_overflow =
  Runner.cell ~name:"fraction-overflow"
    ~print:(fun (a, b) -> asprintf "%a, %a" F.pp a F.pp b)
    (Gen.pair near_bound_fraction near_bound_fraction)
    (fun (a, b) ->
      let lo, hi = if F.(a < b) then (a, b) else (b, a) in
      let expect_overflow = lo.F.den + hi.F.den > F.bound in
      (match F.mediant lo hi with
      | Some _ when expect_overflow ->
          Error "mediant succeeded past the 32-bit component bound"
      | None when not expect_overflow ->
          Error "mediant overflowed below the 32-bit component bound"
      | _ -> Ok ())
      |> fun r ->
      (match r with
      | Error _ -> r
      | Ok () ->
          (* the protocol-facing tests agree: the same condition drives the
             ordering-level overflow mask (Eq. 11) that sets the T bit *)
          let oa = O.make ~sn:1 ~frac:lo and ob = O.make ~sn:1 ~frac:hi in
          if O.split_would_overflow oa ob <> expect_overflow then
            Error "Ordering.split_would_overflow disagrees with Fraction"
          else if
            F.would_overflow lo hi <> expect_overflow
          then Error "Fraction.would_overflow disagrees with the bound"
          else Ok ()))

(* Minimal denominator by brute force: the smallest q admitting some p with
   lo < p/q < hi, checked in exact integer arithmetic. *)
let brute_minimal_den lo hi ~limit =
  let rec try_q q =
    if q > limit then None
    else
      let p = (lo.F.num * q / lo.F.den) + 1 in
      if p * lo.F.den > lo.F.num * q && p * hi.F.den < hi.F.num * q then
        Some q
      else try_q (q + 1)
  in
  try_q 1

let small_fraction =
  Gen.bind (Gen.int_range 1 100) (fun den ->
      Gen.map (fun num -> F.make ~num ~den) (Gen.int_range 0 (den - 1)))

let prop_farey =
  Runner.cell ~name:"farey-simplest"
    ~print:(fun (a, b) -> asprintf "%a, %a" F.pp a F.pp b)
    (Gen.pair small_fraction small_fraction)
    (fun (a, b) ->
      let lo, hi = if F.(a < b) then (a, b) else (b, a) in
      if F.equal lo hi then Ok ()
      else
        match Slr.Farey.simplest_between ~lo ~hi with
        | None -> Error "simplest_between failed far from the bound"
        | Some s ->
            if not (big_lt lo s && big_lt s hi) then
              Error (asprintf "farey %a outside the open interval" F.pp s)
            else begin
              match brute_minimal_den lo hi ~limit:(lo.F.den + hi.F.den) with
              | Some q when q < s.F.den ->
                  Error
                    (asprintf "farey den %d not minimal: %d admits a fraction"
                       s.F.den q)
              | _ ->
                  (* the mediant never beats the Farey walk *)
                  (match F.mediant lo hi with
                  | Some m when m.F.den < s.F.den ->
                      Error "mediant denominator beat simplest_between"
                  | _ -> Ok ())
            end)

(* ------------------------------------------------------------------ *)
(* Bignat / Bigfrac near the 32-bit bound *)

let prop_bignat =
  let near_32 = Gen.int_toward ~origin:(1 lsl 32) 1 ((1 lsl 32) + 65536) in
  (* small enough that a near-32-bit times near-30-bit product stays well
     inside the native 63-bit int, keeping the differential oracle exact *)
  let near_30 = Gen.int_toward ~origin:(1 lsl 30) 1 (1 lsl 30) in
  Runner.cell ~name:"bignat-arith"
    ~print:(fun (a, b) -> Printf.sprintf "%d, %d" a b)
    (Gen.pair near_32 near_30)
    (fun (a, b) ->
      let module N = Slr.Bignat in
      let na = N.of_int a and nb = N.of_int b in
      if N.to_int (N.add na nb) <> Some (a + b) then
        Error "add disagrees with native int"
      else if N.to_int (N.mul na nb) <> Some (a * b) then
        Error "mul disagrees with native int"
      else if N.compare na nb <> compare a b then
        Error "compare disagrees with native int"
      else if N.of_string (N.to_string na) |> N.equal na |> not then
        Error "decimal round-trip failed"
      else Ok ())

let prop_bigfrac =
  Runner.cell ~name:"bigfrac-differential"
    ~print:(fun (a, b) -> asprintf "%a, %a" F.pp a F.pp b)
    (Gen.pair near_bound_fraction near_bound_fraction)
    (fun (a, b) ->
      let lo, hi = if F.(a < b) then (a, b) else (b, a) in
      if F.equal lo hi then Ok ()
      else
        let bm = Slr.Bigfrac.mediant (big_of lo) (big_of hi) in
        match F.mediant lo hi with
        | Some m ->
            if Slr.Bigfrac.equal (big_of m) bm then Ok ()
            else Error "bounded mediant disagrees with unbounded mediant"
        | None -> (
            (* overflow must be real: the exact mediant's components exceed
               the 32-bit bound, the reset-required (T-bit) regime *)
            match Slr.Bignat.to_int bm.Slr.Bigfrac.den with
            | Some d when d <= F.bound ->
                Error
                  (Printf.sprintf
                     "mediant refused but exact denominator %d fits" d)
            | _ -> Ok ()))

(* ------------------------------------------------------------------ *)
(* Lexlabel: byte-string labels *)

module L = Slr.Lexlabel

(* the least label, or up to six bytes closed by a non-zero one *)
let lexlabel =
  Gen.oneof
    [
      Gen.pure L.least;
      Gen.map2
        (fun body last ->
          L.of_string
            (String.of_seq (List.to_seq (List.map Char.chr (body @ [ last ])))))
        (Gen.list_size (Gen.int_range 0 6) (Gen.int_range 0 255))
        (Gen.int_range 1 255);
    ]

(* Between two distinct labels, and between any label and top, lies a
   label strictly inside.

   Mutation drill (re-run whenever Lexlabel.between changes; seed 42):
   between returning lo from its digit-midpoint arm fails case 0, shrunk in
   6 steps to <least>, 0x0002; returning lo from its top arm fails case 0
   too, shrunk in 2 steps to "between <least> and <top> gave <least>".
   Restore and re-run green. *)
let prop_lexlabel_between =
  Runner.cell ~name:"lexlabel-between"
    ~print:(fun (a, b) -> asprintf "%a, %a" L.pp a L.pp b)
    (Gen.pair lexlabel lexlabel)
    (fun (a, b) ->
      let inside lo hi =
        match L.between ~lo ~hi with
        | Some m when L.compare lo m < 0 && L.compare m hi < 0 -> Ok ()
        | Some m ->
            Error
              (asprintf "between %a and %a gave %a" L.pp lo L.pp hi L.pp m)
        | None -> Error (asprintf "nothing between %a and %a" L.pp lo L.pp hi)
      in
      let c = L.compare a b in
      match
        if c < 0 then inside a b else if c > 0 then inside b a else Ok ()
      with
      | Ok () -> inside a L.top
      | e -> e)

(* ------------------------------------------------------------------ *)
(* Ordering *)

(* Definition 5's relation is a strict order: asymmetric (the pair (a, a)
   included, so irreflexive) and transitive.

   Mutation drill (re-run whenever Ordering.precedes changes; seed 42):
   precedes made reflexive (its label test [< 0] -> [<= 0]) fails case 0,
   shrunk in 4 steps to (0, 1/1), (0, 0/1), (0, 0/1): "precedes is not
   asymmetric". Restore and re-run green. *)
let prop_ordering_precedes =
  Runner.cell ~name:"ordering-precedes"
    ~print:(fun (a, b, c) -> asprintf "%a, %a, %a" O.pp a O.pp b O.pp c)
    (Gen.triple ordering ordering ordering)
    (fun (a, b, c) ->
      let p = O.precedes in
      if
        List.exists
          (fun (x, y) -> p x y && p y x)
          [ (a, a); (a, b); (b, c); (a, c) ]
      then Error "precedes is not asymmetric"
      else if p a b && p b c && not (p a c) then
        Error "precedes is not transitive"
      else Ok ())

(* ------------------------------------------------------------------ *)
(* Algorithm 1 (NEWORDER) *)

(* Component-level re-statement of Definition 1 (Eqs. 3-5), written
   without Ordering.precedes so the oracle does not share code with the
   implementation it judges. "Below" = closer to the destination: a higher
   sequence number, or the same number with a smaller label. Label-set
   generic: the theorem is about the ordering, not the concrete set. *)
let below_eq g o =
  g.O.sn > o.O.sn
  || (g.O.sn = o.O.sn && Slr.Label.compare g.O.label o.O.label <= 0)

let strictly_below g o =
  g.O.sn > o.O.sn
  || (g.O.sn = o.O.sn && Slr.Label.compare g.O.label o.O.label < 0)

let eqs_3_to_5 ~current ~cached ~adv g =
  below_eq g current && strictly_below g cached && strictly_below adv g

let neworder_law ~compute (current, cached, adv) =
  let r = compute ~current ~cached ~adv in
  match r.Slr.New_order.case with
  | Slr.New_order.Infinite ->
      if O.is_unassigned r.Slr.New_order.order then Ok ()
      else Error "Infinite case returned a finite ordering"
  | case ->
      if eqs_3_to_5 ~current ~cached ~adv r.Slr.New_order.order then begin
        match case with
        | Slr.New_order.Keep_current
          when not (O.equal r.Slr.New_order.order current) ->
            Error "Keep_current changed the ordering"
        | _ -> Ok ()
      end
      else
        Error
          (asprintf "case %a emitted %a violating Eqs. 3-5 (Definition 1)"
             Slr.New_order.pp_case case O.pp r.Slr.New_order.order)

let triple_print (a, b, c) =
  asprintf "current=%a cached=%a adv=%a" O.pp a O.pp b O.pp c

let ordering_triple g = Gen.triple g g g

let prop_neworder =
  Runner.cell ~name:"neworder-maintains" ~print:triple_print
    (Gen.oneof [ ordering_triple ordering; ordering_triple near_bound_ordering ])
    (neworder_law ~compute:Slr.New_order.compute)

let prop_neworder_farey =
  Runner.cell ~name:"neworder-farey" ~print:triple_print
    (Gen.oneof [ ordering_triple ordering; ordering_triple near_bound_ordering ])
    (fun inputs ->
      let farey ~current ~cached ~adv =
        Slr.New_order.compute_with
          ~labels:(module Slr.Label.Farey)
          ~current ~cached ~adv
      in
      match neworder_law ~compute:farey inputs with
      | Error _ as e -> e
      | Ok () ->
          (* when both strategies split, the Farey label's denominator is
             never larger than the mediant's (the §VI reduction claim) *)
          let current, cached, adv = inputs in
          let m = Slr.New_order.compute ~current ~cached ~adv in
          let f = farey ~current ~cached ~adv in
          let is_split = function
            | Slr.New_order.Fresher_split | Slr.New_order.Equal_split -> true
            | _ -> false
          in
          if
            is_split m.Slr.New_order.case
            && is_split f.Slr.New_order.case
            && (O.frac f.Slr.New_order.order).F.den
               > (O.frac m.Slr.New_order.order).F.den
          then Error "Farey split grew the denominator past the mediant"
          else Ok ())

(* ------------------------------------------------------------------ *)
(* Every label-set instance satisfies the identical NEWORDER theorem, on
   labels minted by its own split operator (so each instance is exercised
   on labels it can actually reach). *)

let instance_label (module L : Slr.Label.S) =
  let step (lo, hi) left =
    if L.compare lo hi >= 0 then (lo, hi)
    else
      match L.split ~lo ~hi with
      | None -> (lo, hi)
      | Some m -> if left then (lo, m) else (m, hi)
  in
  Gen.frequency
    [
      (1, Gen.pure L.zero);
      (1, Gen.pure L.one);
      ( 8,
        Gen.map2
          (fun dirs keep_lo ->
            let lo, hi = List.fold_left step (L.zero, L.one) dirs in
            if keep_lo && L.compare L.zero lo < 0 then lo
            else if L.compare hi L.one < 0 then hi
            else lo)
          (Gen.list_size (Gen.int_range 1 8) Gen.bool)
          Gen.bool );
    ]

let instance_ordering inst =
  Gen.map2
    (fun sn label -> O.v ~sn ~label)
    (Gen.int_range 0 4) (instance_label inst)

let prop_neworder_instance (module L : Slr.Label.S) =
  Runner.cell
    ~name:("neworder-" ^ L.name)
    ~print:triple_print
    (ordering_triple (instance_ordering (module L : Slr.Label.S)))
    (neworder_law ~compute:(fun ~current ~cached ~adv ->
         Slr.New_order.compute_with
           ~labels:(module L : Slr.Label.S)
           ~current ~cached ~adv))

let prop_neworder_bigfrac = prop_neworder_instance (module Slr.Label.Bigfrac_set)

let prop_neworder_lex = prop_neworder_instance (module Slr.Label.Lex)

(* Cross-instance agreement: away from the 32-bit bound both rational
   instances mint with mediants (split and next-element alike), so on the
   same inputs Mediant and Bigfrac must take the identical Algorithm 1
   case and emit numerically equal labels. The unbounded instance thereby
   vouches for the bounded one everywhere except the overflow regime. *)
let prop_neworder_agreement =
  Runner.cell ~name:"neworder-cross-instance" ~print:triple_print
    (ordering_triple ordering)
    (fun (current, cached, adv) ->
      let m = Slr.New_order.compute ~current ~cached ~adv in
      let b =
        Slr.New_order.compute_with
          ~labels:(module Slr.Label.Bigfrac_set)
          ~current ~cached ~adv
      in
      if m.Slr.New_order.case <> b.Slr.New_order.case then
        Error
          (asprintf "cases diverge: mediant %a, bigfrac %a"
             Slr.New_order.pp_case m.Slr.New_order.case
             Slr.New_order.pp_case b.Slr.New_order.case)
      else begin
        let om = m.Slr.New_order.order and ob = b.Slr.New_order.order in
        if om.O.sn <> ob.O.sn then
          Error "sequence numbers diverge between instances"
        else if
          (not (O.is_unassigned om && O.is_unassigned ob))
          && not (Slr.Label.equal om.O.label ob.O.label)
        then
          Error
            (asprintf "labels diverge: mediant %a, bigfrac %a" O.pp om O.pp
               ob)
        else Ok ()
      end)

(* ------------------------------------------------------------------ *)
(* Abstract SLR executor: loop freedom after every mutation *)

type abstract_case = {
  graph : Topo.graph;
  dest : int;
  ops : Topo.op list;
}

let abstract_gen =
  Gen.bind (Topo.graph ~min_nodes:3 ~max_nodes:12 ()) (fun graph ->
      Gen.map2
        (fun dest ops -> { graph; dest; ops })
        (Gen.int_range 0 (graph.Topo.nodes - 1))
        (Topo.schedule graph ~max_ops:30))

let abstract_print c =
  asprintf "%a dest=%d ops=[%a]" Topo.pp_graph c.graph c.dest
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Topo.pp_op)
    c.ops

module Net = Slr.Simple_net

let abstract_law labels ~exhaustion_ok c =
  let net = Net.create ~labels ~nodes:c.graph.Topo.nodes ~dest:c.dest in
  List.iter (fun (a, b) -> Net.add_link net a b) c.graph.Topo.edges;
  let step i op =
    (match op with
    | Topo.Request src -> (
        match Net.request net ~src with
        | Net.Routed _ | Net.No_route -> Ok ()
        | Net.Label_exhausted node ->
            if exhaustion_ok then Ok ()
            else
              Error
                (Printf.sprintf
                   "op %d: dense label set exhausted at node %d" i node))
    | Topo.Break (a, b) ->
        Net.break_link net a b;
        Ok ()
    | Topo.Restore (a, b) ->
        if not (Net.linked net a b) then Net.add_link net a b;
        Ok ())
    |> function
    | Error _ as e -> e
    | Ok () -> (
        match Net.check_invariants net with
        | Ok () -> Ok ()
        | Error m -> Error (asprintf "after op %d (%a): %s" i Topo.pp_op op m))
  in
  let rec run i = function
    | [] -> Ok ()
    | op :: rest -> ( match step i op with Ok () -> run (i + 1) rest | e -> e)
  in
  run 0 c.ops

(* One cell per registered label set. The bounded sets may run out of
   labels (SRP answers with a sequence-number reset); the dense ones must
   not. The mediant and bigfrac cells keep their original names, and with
   them their fixed-seed case streams. *)
let prop_abstract id =
  let suffix, exhaustion_ok =
    match id with
    | Slr.Label_set.Mediant -> ("", true)
    | Slr.Label_set.Farey -> ("-farey", true)
    | Slr.Label_set.Bigfrac -> ("-unbounded", false)
    | Slr.Label_set.Lex -> ("-lex", false)
  in
  Runner.cell ~cost:2
    ~name:("abstract-loop-freedom" ^ suffix)
    ~print:abstract_print abstract_gen
    (abstract_law (Slr.Label_set.instance id) ~exhaustion_ok)

(* ------------------------------------------------------------------ *)
(* Protocol caches under randomized clocks. Times are multiples of 0.25 s
   (exact binary floats), so the pure models below reproduce the
   implementations' deadline arithmetic bit for bit. *)

(* A quarter-second grid instant in [lo, hi] (given in quarters). *)
let grid_time lo hi = Gen.map (fun q -> 0.25 *. float_of_int q) (Gen.int_range lo hi)

type cache_op = { at : float; origin : int; id : int; query : bool }

let pp_cache_op ppf o =
  Format.fprintf ppf "%s(%d,%d)@%.2f"
    (if o.query then "mem" else "witness")
    o.origin o.id o.at

type cache_case = { ttl : float; cache_ops : cache_op list }

let cache_gen =
  Gen.map2
    (fun ttl cache_ops ->
      let cache_ops = List.sort (fun a b -> Float.compare a.at b.at) cache_ops in
      { ttl; cache_ops })
    (grid_time 1 16)
    (Gen.list_size (Gen.int_range 0 25)
       (Gen.map2
          (fun (at, query) (origin, id) -> { at; origin; id; query })
          (Gen.pair (grid_time 0 40) Gen.bool)
          (Gen.pair (Gen.int_range 0 2) (Gen.int_range 0 3))))

let cache_print c =
  asprintf "ttl=%.2f [%a]" c.ttl
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_cache_op)
    c.cache_ops

(* The model: a pair is live iff it was recorded less than ttl seconds ago.
   A live duplicate is refused and does NOT refresh the entry; an expired
   pair is witnessed afresh. *)
let seen_cache_law c =
  let engine = Des.Engine.create () in
  let cache = Protocols.Seen_cache.create engine ~ttl:c.ttl in
  let model : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  let live now key =
    match Hashtbl.find_opt model key with
    | Some expiry -> expiry > now
    | None -> false
  in
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  List.iter
    (fun op ->
      ignore
        (Des.Engine.schedule_at engine ~time:op.at (fun () ->
             let now = Des.Engine.now engine in
             let key = (op.origin, op.id) in
             if op.query then begin
               if Protocols.Seen_cache.mem cache ~origin:op.origin ~id:op.id
                  <> live now key
               then
                 fail (asprintf "%a: mem disagrees with model" pp_cache_op op)
             end
             else begin
               let expect = not (live now key) in
               if
                 Protocols.Seen_cache.witness cache ~origin:op.origin
                   ~id:op.id
                 <> expect
               then
                 fail
                   (asprintf "%a: witness disagrees with model (expected %b)"
                      pp_cache_op op expect)
               else if expect then Hashtbl.replace model key (now +. c.ttl)
             end;
             (* the sweep must never evict live entries or count dead ones *)
             let model_size =
               Hashtbl.fold
                 (fun _ expiry acc -> if expiry > now then acc + 1 else acc)
                 model 0
             in
             let real_size = Protocols.Seen_cache.size cache in
             if real_size <> model_size then
               fail
                 (Printf.sprintf "size %d but model holds %d live at %.2f"
                    real_size model_size now))))
    c.cache_ops;
  Des.Engine.run_all engine;
  match !failure with Some m -> Error m | None -> Ok ()

let prop_seen_cache =
  Runner.cell ~name:"seen-cache-model" ~print:cache_print cache_gen
    seen_cache_law

(* Parked packets of Discovery: single destination so the drop order is
   deterministic; conservation (every push is taken or dropped exactly
   once), no resurrection past the deadline, and overflow evicting the
   oldest. A push parks a packet; a take is a reply ([succeed]) whose
   [forward] accepts every packet, a flush a relay's [flush] whose [forward]
   refuses every one. The request's ring outlasts the horizon, so it never
   gives up while a packet is parked. *)

type pending_op = Push of float | Take of float | Flush of float

let pending_time = function Push t | Take t | Flush t -> t

let pp_pending_op ppf = function
  | Push t -> Format.fprintf ppf "push@%.2f" t
  | Take t -> Format.fprintf ppf "take@%.2f" t
  | Flush t -> Format.fprintf ppf "flush@%.2f" t

type pending_case = {
  capacity : int;
  pending_ttl : float;
  pending_ops : pending_op list;
}

let pending_gen =
  Gen.bind (Gen.pair (Gen.int_range 1 4) (grid_time 1 12)) (fun (capacity, pending_ttl) ->
      Gen.map
        (fun ops ->
          let pending_ops =
            List.sort
              (fun a b -> Float.compare (pending_time a) (pending_time b))
              ops
          in
          { capacity; pending_ttl; pending_ops })
        (Gen.list_size (Gen.int_range 0 25)
           (Gen.bind (grid_time 0 40) (fun t ->
                Gen.frequency
                  [
                    (5, Gen.pure (Push t));
                    (2, Gen.pure (Take t));
                    (1, Gen.pure (Flush t));
                  ]))))

let pending_print c =
  asprintf "capacity=%d ttl=%.2f [%a]" c.capacity c.pending_ttl
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_pending_op)
    c.pending_ops

let pending_law c =
  let engine = Des.Engine.create () in
  let drops : (int * string) list ref = ref [] in
  let forwarded : int list ref = ref [] in
  let accept = ref true in
  let buffer =
    Protocols.Discovery.create engine ~ttls:[ 1_000_000 ]
      ~capacity:c.capacity ~hold:c.pending_ttl
      ~send:(fun ~dst:_ ~ttl:_ ~attempt:_ -> ())
      ~give_up:(fun ~dst:_ -> ())
      ~forward:(fun data ~size:_ ->
        forwarded := data.Wireless.Frame.seq :: !forwarded;
        !accept)
      ~drop:(fun data ~reason ->
        drops := (data.Wireless.Frame.seq, reason) :: !drops)
  in
  (* model: live entries in arrival order, and the expected drop multiset *)
  let entries : (int * float) list ref = ref [] in
  let expected : (int * string) list ref = ref [] in
  let purge now =
    let dead, live =
      List.partition (fun (_, deadline) -> deadline <= now) !entries
    in
    entries := live;
    List.iter
      (fun (seq, _) -> expected := (seq, "pending-buffer expired") :: !expected)
      dead
  in
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  let next_seq = ref 0 in
  let mk_data seq =
    {
      Wireless.Frame.origin = 0;
      final_dst = 1;
      flow = 0;
      seq;
      sent_at = 0.0;
      hops = 0;
    }
  in
  List.iter
    (fun op ->
      ignore
        (Des.Engine.schedule_at engine ~time:(pending_time op) (fun () ->
             let now = Des.Engine.now engine in
             purge now;
             match op with
             | Push _ ->
                 let seq = !next_seq in
                 incr next_seq;
                 if List.length !entries >= c.capacity then begin
                   match !entries with
                   | (oldest, _) :: rest ->
                       entries := rest;
                       expected :=
                         (oldest, "pending-buffer overflow") :: !expected
                   | [] -> ()
                 end;
                 entries := !entries @ [ (seq, now +. c.pending_ttl) ];
                 Protocols.Discovery.park buffer ~dst:0 (mk_data seq) ~size:512
             | Take _ ->
                 forwarded := [];
                 accept := true;
                 Protocols.Discovery.succeed buffer ~dst:0;
                 let got = List.rev !forwarded in
                 let want = List.map fst !entries in
                 entries := [];
                 if got <> want then
                   fail
                     (Printf.sprintf "succeed at %.2f forwarded [%s], model [%s]"
                        now
                        (String.concat ";" (List.map string_of_int got))
                        (String.concat ";" (List.map string_of_int want)))
             | Flush _ ->
                 List.iter
                   (fun (seq, _) ->
                     expected := (seq, "no route after reply") :: !expected)
                   !entries;
                 entries := [];
                 accept := false;
                 Protocols.Discovery.flush buffer ~dst:0)))
    c.pending_ops;
  Des.Engine.run_all engine;
  (* run_all drains the sweep timers, so everything still buffered expires *)
  List.iter
    (fun (seq, _) -> expected := (seq, "pending-buffer expired") :: !expected)
    !entries;
  entries := [];
  match !failure with
  | Some m -> Error m
  | None ->
      let canon l = List.sort compare l in
      if canon !drops <> canon !expected then
        Error
          (Printf.sprintf "drop log {%s} but model expects {%s}"
             (String.concat ", "
                (List.map
                   (fun (s, r) -> Printf.sprintf "%d:%s" s r)
                   (canon !drops)))
             (String.concat ", "
                (List.map
                   (fun (s, r) -> Printf.sprintf "%d:%s" s r)
                   (canon !expected))))
      else Ok ()

let prop_pending =
  Runner.cell ~name:"pending-model" ~print:pending_print pending_gen
    pending_law

(* ------------------------------------------------------------------ *)
(* SRP agents over the wire harness: every route mutation must satisfy
   the reference model, under randomized interleaving perturbations. *)

type wire_case = {
  wgraph : Topo.graph;
  wflows : (int * int) list;
  perturb : Topo.perturbation;
  wire_seed : int;
}

let wire_gen =
  Gen.bind (Topo.graph ~min_nodes:3 ~max_nodes:8 ()) (fun wgraph ->
      Gen.map2
        (fun (wflows, perturb) wire_seed ->
          { wgraph; wflows; perturb; wire_seed })
        (Gen.pair
           (Topo.flows ~nodes:wgraph.Topo.nodes ~max_flows:3)
           Topo.perturbation)
        (Gen.no_shrink (Gen.int_range 0 1_000_000)))

let wire_print c =
  asprintf "%a flows=[%a] %a seed=%d" Topo.pp_graph c.wgraph
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (s, d) -> Format.fprintf ppf "%d->%d" s d))
    c.wflows Topo.pp_perturbation c.perturb c.wire_seed

exception Model_violation of string

let wire_law c =
  let nodes = c.wgraph.Topo.nodes in
  let engine = Des.Engine.create () in
  let rng = Des.Rng.create (Int64.of_int c.wire_seed) in
  let wire =
    Wire.create ~engine ~rng:(Des.Rng.split rng "wire") ~nodes
      ~jitter:c.perturb.Topo.jitter ()
  in
  List.iter (fun (a, b) -> Wire.add_link wire a b) c.wgraph.Topo.edges;
  let drop_rng = Des.Rng.split rng "drop" in
  if c.perturb.Topo.drop_p > 0.0 then
    Wire.set_filter wire (fun ~src:_ ~dst:_ ~frame:_ ->
        Des.Rng.float drop_rng 1.0 >= c.perturb.Topo.drop_p);
  let model = Slr_model.create ~nodes in
  let agents =
    Array.init nodes (fun i ->
        let t, agent = Protocols.Srp.create_full (Wire.ctx wire i) in
        Protocols.Srp.on_route_change t (fun dst ->
            match
              Slr_model.observe model
                {
                  Slr_model.node = i;
                  dst;
                  order = Protocols.Srp.ordering t ~dst;
                  succs = Protocols.Srp.successor_orderings t ~dst;
                }
            with
            | Ok () -> ()
            | Error m -> raise (Model_violation m));
        Wire.set_agent wire i agent;
        agent)
  in
  List.iteri
    (fun k (src, dst) ->
      ignore
        (Des.Engine.schedule engine ~delay:(0.3 *. float_of_int k)
           (fun () ->
             let data =
               {
                 Wireless.Frame.origin = src;
                 final_dst = dst;
                 flow = k;
                 seq = k;
                 sent_at = Des.Engine.now engine;
                 hops = 0;
               }
             in
             agents.(src).Protocols.Routing_intf.originate data ~size:512)))
    c.wflows;
  match Des.Engine.run engine ~until:30.0 with
  | () -> Ok ()
  | exception Model_violation m -> Error m

let prop_wire_model =
  Runner.cell ~cost:5 ~name:"srp-wire-model" ~print:wire_print wire_gen
    wire_law

(* ------------------------------------------------------------------ *)
(* One SRP agent (node 0 of 8) under arbitrary well-formed control
   traffic, data and link failures on a stub context: it never raises,
   never raises its label for any destination (Eq. 3), and keeps every
   live successor strictly below its own ordering (Theorem 1 locally).

   Mutation drill (re-run whenever SRP's route adoption changes; seed 42):
   Srp.set_route recording the advertised ordering as the node's own
   ([r.own <- g] -> [r.own <- adv_order]) fails case 0, shrunk in 19 steps
   to one RREQ from node 1 advertising (0, 0/1): "successor 1 for 1 at (0,
   0/1) not below (0, 0/1)". Restore and re-run green. *)

module Srp = Protocols.Srp

type control =
  | Ctl_rreq of int * Srp.rreq
  | Ctl_rrep of int * Srp.rrep
  | Ctl_rerr of int * Srp.rerr
  | Ctl_data of int * int * int  (** from, destination, seq *)
  | Ctl_fail of int * int * int  (** next hop, destination, seq *)

let ctl_node = Gen.int_range 0 7

(* denominators up to 50, so labels collide often; 0/1 and 1/1 included *)
let ctl_ordering =
  ordering_over
    (Gen.bind (Gen.int_range 2 50) (fun den ->
         Gen.map
           (fun num ->
             if num = den then F.one
             else if num = 0 then F.zero
             else F.make ~num ~den)
           (Gen.int_range 0 den)))

let ctl_rreq =
  Gen.map
    (fun ( ((from, src, dst), (id, hops, ttl)),
           ((order, adv), ((rr, d), (n, adv_on))) ) ->
      Ctl_rreq
        ( from,
          {
            Srp.rq_src = src;
            rq_id = id;
            rq_dst = dst;
            rq_order = order;
            rq_u = O.is_unassigned order;
            rq_rr = rr;
            rq_d = d;
            rq_n = n || not adv_on;
            rq_hops = hops;
            rq_ttl = ttl;
            rq_adv =
              (if adv_on then Some { Srp.ra_order = adv; ra_dist = hops }
               else None);
          } ))
    (Gen.pair
       (Gen.pair
          (Gen.triple ctl_node ctl_node ctl_node)
          (Gen.triple (Gen.int_range 0 5) (Gen.int_range 0 4)
             (Gen.int_range 1 6)))
       (Gen.pair
          (Gen.pair ctl_ordering ctl_ordering)
          (Gen.pair (Gen.pair Gen.bool Gen.bool) (Gen.pair Gen.bool Gen.bool))))

let ctl_rrep =
  Gen.map
    (fun ((from, src, dst), (id, dist, n), order) ->
      Ctl_rrep
        ( from,
          {
            Srp.rp_src = src;
            rp_id = id;
            rp_dst = dst;
            rp_order = order;
            rp_dist = dist;
            rp_lifetime = 10.0;
            rp_n = n;
          } ))
    (Gen.triple
       (Gen.triple ctl_node ctl_node ctl_node)
       (Gen.triple (Gen.int_range 0 5) (Gen.int_range 0 4) Gen.bool)
       ctl_ordering)

let ctl_packet make =
  Gen.map
    (fun (a, dst, seq) -> make a dst seq)
    (Gen.triple ctl_node ctl_node (Gen.int_range 0 100))

let control_gen =
  Gen.list_size (Gen.int_range 1 60)
    (Gen.oneof
       [
         ctl_rreq;
         ctl_rrep;
         Gen.map2
           (fun from dsts -> Ctl_rerr (from, { Srp.re_unreachable = dsts }))
           ctl_node
           (Gen.list_size (Gen.int_range 1 3) ctl_node);
         ctl_packet (fun from dst seq -> Ctl_data (from, dst, seq));
         ctl_packet (fun hop dst seq -> Ctl_fail (hop, dst, seq));
       ])

let pp_control ppf = function
  | Ctl_rreq (from, r) ->
      Format.fprintf ppf "rreq from %d: %d->%d #%d %a%s%s%s%s hops %d ttl %d"
        from r.Srp.rq_src r.rq_dst r.rq_id O.pp r.rq_order
        (if r.rq_u then " U" else "")
        (if r.rq_rr then " T" else "")
        (if r.rq_d then " D" else "")
        (if r.rq_n then " N" else "")
        r.rq_hops r.rq_ttl;
      Option.iter
        (fun a -> Format.fprintf ppf " adv %a" O.pp a.Srp.ra_order)
        r.rq_adv
  | Ctl_rrep (from, r) ->
      Format.fprintf ppf "rrep from %d: %d->%d #%d %a dist %d%s" from
        r.Srp.rp_src r.rp_dst r.rp_id O.pp r.rp_order r.rp_dist
        (if r.rp_n then " N" else "")
  | Ctl_rerr (from, r) ->
      Format.fprintf ppf "rerr from %d: [%s]" from
        (String.concat "," (List.map string_of_int r.Srp.re_unreachable))
  | Ctl_data (from, dst, seq) ->
      Format.fprintf ppf "data from %d to %d seq %d" from dst seq
  | Ctl_fail (hop, dst, seq) ->
      Format.fprintf ppf "unicast to %d failed (data to %d seq %d)" hop dst
        seq

let control_print msgs =
  asprintf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_control)
    msgs

let srp_control_law msgs =
  let module Fr = Wireless.Frame in
  let engine = Des.Engine.create () in
  let t, agent =
    Srp.create_full
      {
        Protocols.Routing_intf.id = 0;
        node_count = 16;
        engine;
        rng = Des.Rng.create 99L;
        trace = Trace.null;
        mac_send = ignore;
        deliver = ignore;
        drop_data = (fun _ ~reason:_ -> ());
      }
  in
  let receive from ?(dst = Fr.Unicast 0) size payload =
    agent.Protocols.Routing_intf.receive ~src:from
      (Fr.make ~src:from ~dst ~size ~payload)
  in
  let data origin dst seq =
    Fr.Data
      { Fr.origin; final_dst = dst; flow = 0; seq; sent_at = 0.0; hops = 0 }
  in
  let violation fmt =
    Format.kasprintf (fun m -> raise (Model_violation m)) fmt
  in
  let previous = Array.make 8 O.unassigned in
  let step i msg =
    (match msg with
    | Ctl_rreq (from, r) when from <> 0 ->
        receive from ~dst:Fr.Broadcast 52 (Srp.Rreq r)
    | Ctl_rrep (from, r) when from <> 0 -> receive from 44 (Srp.Rrep r)
    | Ctl_rerr (from, r) when from <> 0 -> receive from 32 (Srp.Rerr r)
    | Ctl_data (from, dst, seq) when from <> 0 && dst <> 0 ->
        receive from 532 (data from dst seq)
    | Ctl_fail (hop, dst, seq) when hop <> 0 ->
        agent.Protocols.Routing_intf.unicast_failed ~dst:hop
          ~frame:
            (Fr.make ~src:0 ~dst:(Fr.Unicast hop) ~size:532
               ~payload:(data 0 dst seq))
    | _ -> ());
    (* far enough for jittered sends, short of the ring retries *)
    Des.Engine.run engine ~until:(Des.Engine.now engine +. 0.02);
    for dst = 1 to 7 do
      let own = Srp.ordering t ~dst in
      if not (O.equal previous.(dst) own || O.precedes previous.(dst) own)
      then
        violation "message %d raised the label for %d from %a to %a" i dst
          O.pp previous.(dst) O.pp own;
      previous.(dst) <- own;
      List.iter
        (fun (via, s) ->
          if not (O.precedes own s) then
            violation "after message %d, successor %d for %d at %a not below %a"
              i via dst O.pp s O.pp own)
        (Srp.successor_orderings t ~dst)
    done
  in
  match List.iteri step msgs with
  | () -> Ok ()
  | exception Model_violation m -> Error m

let prop_srp_control =
  Runner.cell ~name:"srp-control-fuzz" ~print:control_print control_gen
    srp_control_law

(* ------------------------------------------------------------------ *)
(* Des.Heap: the scheduler's priority queue. Keys are timestamps and ties
   the insertion sequence, so a drain must come out time-sorted with FIFO
   order inside equal timestamps — anything else replays events out of
   order. Keys are drawn from a small quarter-second pool so duplicated
   timestamps are the norm, not the exception.

   Mutation drill (re-run whenever the sift code changes; last run with
   this PR): flip the tie comparison in Heap.add ([tie < Array.unsafe_get
   ties parent] -> [tie >]) and run the heap cells; [heap-fifo-ties]
   fails at seed 7 and shrinks in 7 steps to the two-push counterexample
   keys=[0.00; 0.00]. Flipping the child pick in remove_min
   ([ties r < ties l] -> [>]) is caught the same way, shrinking to
   keys=[0.50; 0.50; 0.50; 0.00]. Restore and re-run green. *)

let heap_keys_gen pool_max =
  Gen.list_size (Gen.int_range 0 40)
    (Gen.map (fun q -> 0.25 *. float_of_int q) (Gen.int_range 0 pool_max))

let heap_print keys =
  asprintf "keys=[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf k -> Format.fprintf ppf "%.2f" k))
    keys

(* drain through the allocation-free accessors, cross-checking them and
   [peek]/[pop] against each other at every step *)
let heap_drain_law keys =
  let h = Des.Heap.create () in
  List.iteri (fun i k -> Des.Heap.add h ~key:k ~tie:i i) keys;
  if Des.Heap.size h <> List.length keys then
    Error "size does not count the pushes"
  else begin
    let err = ref None in
    let out = ref [] in
    let step = ref 0 in
    while !err = None && not (Des.Heap.is_empty h) do
      let k = Des.Heap.min_key h and v = Des.Heap.min_value h in
      (match Des.Heap.peek h with
      | Some (pk, _, pv) when pk = k && pv = v -> ()
      | Some _ -> err := Some "peek disagrees with min_key/min_value"
      | None -> err := Some "peek empty on a non-empty heap");
      if !err = None then begin
        (* alternate removal paths: both must agree with the head *)
        if !step land 1 = 0 then begin
          let k', _, v' = Des.Heap.pop h in
          if k' <> k || v' <> v then err := Some "pop disagrees with peek"
        end
        else Des.Heap.drop_min h;
        out := (k, v) :: !out;
        incr step
      end
    done;
    match !err with
    | Some e -> Error e
    | None ->
        (* !out is newest-first, so rev_map restores drain order *)
        let drained_keys = List.rev_map fst !out in
        if drained_keys <> List.sort Float.compare keys then
          Error "drain is not the pushed timestamps in ascending order"
        else Ok ()
  end

let prop_heap_drain =
  Runner.cell ~name:"heap-drain-sorted" ~print:heap_print (heap_keys_gen 12)
    heap_drain_law

(* FIFO inside equal timestamps: the drain must equal a stable sort by
   key alone, which keeps insertion order for duplicates *)
let heap_fifo_law keys =
  let h = Des.Heap.create () in
  List.iteri (fun i k -> Des.Heap.add h ~key:k ~tie:i i) keys;
  let expected =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.mapi (fun i k -> (k, i)) keys)
  in
  let drained =
    List.map (fun (k, _, v) -> (k, v)) (Des.Heap.to_sorted_list h)
  in
  if drained <> expected then
    Error "equal-timestamp pushes drained out of insertion order"
  else Ok ()

let prop_heap_fifo =
  Runner.cell ~name:"heap-fifo-ties" ~print:heap_print (heap_keys_gen 3)
    heap_fifo_law

(* ------------------------------------------------------------------ *)
(* Stats.Summary: merging two summaries equals summarising the pooled
   observations, and the mean lies within [min, max].

   Mutation drill (re-run whenever Summary.merge changes; seed 42):
   Summary.merge dropping the other summary's count ([n_total = t.n +
   other.n] -> [t.n]) fails case 0, shrunk in 13 steps to [0] + [0].
   Restore and re-run green. *)

let observations =
  Gen.list_size (Gen.int_range 0 50) (Gen.float_range 0.0 100.0)

let prop_summary_merge =
  let print_list xs =
    String.concat "; " (List.map (Printf.sprintf "%.17g") xs)
  in
  Runner.cell ~name:"summary-merge"
    ~print:(fun (xs, ys) ->
      Printf.sprintf "[%s] + [%s]" (print_list xs) (print_list ys))
    (Gen.pair observations observations)
    (fun (xs, ys) ->
      let module S = Stats.Summary in
      let of_list xs =
        let s = S.create () in
        List.iter (S.add s) xs;
        s
      in
      let merged = of_list xs and pooled = of_list (xs @ ys) in
      S.merge merged (of_list ys);
      let close u v =
        Float.abs (u -. v) <= 1e-9 *. Float.max 1.0 (Float.abs v)
      in
      if
        S.count merged <> S.count pooled
        || S.min merged <> S.min pooled
        || S.max merged <> S.max pooled
        || not (close (S.mean merged) (S.mean pooled))
        || not (close (S.variance merged) (S.variance pooled))
      then Error "merge differs from the pooled observations"
      else if
        S.count merged > 0
        && not
             (S.min merged -. 1e-9 <= S.mean merged
             && S.mean merged <= S.max merged +. 1e-9)
      then Error "mean outside [min, max]"
      else Ok ())

(* ------------------------------------------------------------------ *)
(* Spatial grid vs naive channel scan: the grid's candidate set must be a
   superset of the exact in-range set, and a channel backed by it must be
   observationally identical to the full O(N) sweep — same deliveries,
   same collisions, in the same engine order, and the same carrier sense
   ([busy_until]) at every node at each transmission's start,
   mid-frame and just past its 60 us idle guard. Mobile nodes exercise
   the staleness slack (max_speed since the last rebuild) that every grid
   pruning bound adds; carrier sense never rebuilds, so its probes read
   grids older than the epoch. Mutation drills it catches (`manet_sim
   fuzz --prop channel-grid-equiv --seed 42`): the channel's pruning
   bound without its slack term (case 1: carrier sense diverges),
   [Grid.iter]'s disc filter without it (case 117: a candidate is
   missed), and the quiet-candidate skip without its empty-reception-list
   condition (case 0: deliveries diverge). The per-frame interferer pass
   must reach [cs_range + range] past the sender, since a receiver sits
   up to [range] from it: without the [+ range] term (`--max-cases 4000
   --seed 13`, the depth CI runs) case 12 fails, "delivery logs diverge:
   naive 3 entries, grid 4", and [kilo-srp] world 0 of seed 1 counts
   1,332,779 collisions instead of 1,662,142. *)

type channel_case = {
  cnodes : int;
  cseed : int;
  cpause : float;
  (* top leg speed: 0 freezes every node (no staleness slack to hide
     behind), 50 doubles the usual pace (maximum slack) *)
  cspeed : float;
  (* skewed placement: even-numbered nodes start inside a corner patch,
     loading a handful of grid cells while the rest stay sparse *)
  cskew : bool;
  ctx : (int * int * int) list;  (** (src, quarter-second slot, duration idx) *)
}

let tx_durations = [| 0.002; 0.05; 0.3 |]

let channel_gen =
  (* kilonode draws are rare but real: grid bookkeeping bugs that need
     hundreds of occupied cells cannot hide behind ten-node worlds *)
  Gen.bind
    (Gen.frequency
       [
         (8, Gen.int_range 2 10);
         (2, Gen.int_range 20 120);
         (1, Gen.int_range 300 1000);
       ])
    (fun cnodes ->
      Gen.map2
        (fun ((cseed, cpause), (cspeed, cskew)) ctx ->
          { cnodes; cseed; cpause; cspeed; cskew; ctx })
        (Gen.pair
           (Gen.pair
              (Gen.no_shrink (Gen.int_range 0 1_000_000))
              (Gen.elements [ 0.0; 1.0; 1000.0 ]))
           (Gen.pair (Gen.elements [ 0.0; 25.0; 50.0 ]) Gen.bool))
        (Gen.list_size (Gen.int_range 1 15)
           (Gen.triple
              (Gen.int_range 0 (cnodes - 1))
              (Gen.int_range 0 20)
              (Gen.int_range 0 (Array.length tx_durations - 1)))))

let channel_print c =
  asprintf "nodes=%d seed=%d pause=%.0f speed=%.0f skew=%b tx=[%a]" c.cnodes
    c.cseed c.cpause c.cspeed c.cskew
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (src, q, d) ->
         Format.fprintf ppf "%d@%.2fs/%.3f" src
           (0.25 *. float_of_int q)
           tx_durations.(d)))
    c.ctx

let channel_grid_law c =
  (* terrain grows with the population so kilonode draws keep a sparse,
     many-cell grid; on the small terrains a query disc often covers
     every bucket, and the same gather and sort serve it *)
  let width = if c.cnodes > 100 then 3600.0 else 600.0 in
  let height = if c.cnodes > 100 then 1800.0 else 300.0 in
  let terrain = Wireless.Terrain.make ~width ~height in
  (* skewed placements start in a range-sized corner patch *)
  let patch = Wireless.Terrain.make ~width:150.0 ~height:150.0 in
  let range = 150.0 and cs_range = 330.0 in
  let max_speed = c.cspeed in
  let rng = Des.Rng.create (Int64.of_int c.cseed) in
  let scripts =
    Array.init c.cnodes (fun i ->
        let home = if c.cskew && i land 1 = 0 then patch else terrain in
        Wireless.Waypoint.generate ~terrain:home
          ~rng:(Des.Rng.split rng (Printf.sprintf "node%d" i))
          ~pause:c.cpause
          ~speed_min:(if max_speed > 0.0 then 1.0 else 0.0)
          ~speed_max:max_speed ~duration:6.0)
  in
  let position i t = Wireless.Waypoint.position scripts.(i) t in
  let run grid =
    let engine = Des.Engine.create () in
    let ch =
      Wireless.Channel.create ?grid engine ~scripts ~range ~cs_range
    in
    let log = ref [] in
    for i = 0 to c.cnodes - 1 do
      Wireless.Channel.set_receiver ch i (fun ~src pdu ->
          log := (Des.Engine.now engine, i, src, pdu) :: !log)
    done;
    List.iteri
      (fun k (src, q, d) ->
        ignore
          (Des.Engine.schedule_at engine
             ~time:(0.25 *. float_of_int q)
             (fun () ->
               Wireless.Channel.transmit ch ~src ~duration:tx_durations.(d) k)))
      c.ctx;
    (* carrier-sense probes, scheduled after every transmission so a probe
       at a frame's start sees that frame in the air *)
    let sense = ref [] in
    let probe () =
      let now = Des.Engine.now engine in
      for i = 0 to c.cnodes - 1 do
        sense := (now, i, Wireless.Channel.busy_until ch i) :: !sense
      done
    in
    List.iter
      (fun (_, q, d) ->
        let start = 0.25 *. float_of_int q and airtime = tx_durations.(d) in
        List.iter
          (fun time -> ignore (Des.Engine.schedule_at engine ~time probe))
          [ start; start +. (airtime /. 2.0); start +. airtime +. 61e-6 ])
      c.ctx;
    Des.Engine.run_all engine;
    ( List.rev !log,
      Wireless.Channel.collisions ch,
      List.init c.cnodes (Wireless.Channel.collisions_at ch),
      List.rev !sense )
  in
  let log_n, coll_n, per_n, sense_n = run None in
  let log_g, coll_g, per_g, sense_g =
    run (Some { Wireless.Channel.max_speed; epoch = 0.25 })
  in
  if log_n <> log_g then
    Error
      (Printf.sprintf "delivery logs diverge: naive %d entries, grid %d"
         (List.length log_n) (List.length log_g))
  else if coll_n <> coll_g then
    Error (Printf.sprintf "collision totals diverge: %d vs %d" coll_n coll_g)
  else if per_n <> per_g then Error "per-node collision counts diverge"
  else if sense_n <> sense_g then
    (* both runs probe the same (time, node) pairs in the same order *)
    let (now, i, _), _ =
      List.find (fun (n, g) -> n <> g) (List.combine sense_n sense_g)
    in
    Error (Printf.sprintf "carrier sense diverges at t=%.6f, node %d" now i)
  else begin
    (* candidate-superset oracle on a standalone grid, queried at each
       transmission instant against the brute-force in-range set *)
    let grid =
      Wireless.Grid.create
        ~positions:(Wireless.Waypoint.cache scripts)
        ~cell:(cs_range /. 2.0) ~max_speed ~epoch:0.25
    in
    let missing =
      List.find_map
        (fun (src, q, _) ->
          let now = 0.25 *. float_of_int q in
          let center = position src now in
          let seen = Array.make c.cnodes false in
          Wireless.Grid.iter grid ~now ~center ~radius:cs_range (fun j ->
              seen.(j) <- true);
          let rec scan j =
            if j >= c.cnodes then None
            else if
              Wireless.Vec2.dist center (position j now) <= cs_range
              && not seen.(j)
            then Some (now, j)
            else scan (j + 1)
          in
          scan 0)
        c.ctx
    in
    match missing with
    | Some (now, j) ->
        Error
          (Printf.sprintf
             "grid candidates at t=%.2f miss in-range node %d" now j)
    | None -> Ok ()
  end

let prop_channel_grid =
  Runner.cell ~cost:2 ~name:"channel-grid-equiv" ~print:channel_print
    channel_gen channel_grid_law

(* ------------------------------------------------------------------ *)
(* The mobility segment cache against its reference: for scripts from
   every source the simulator uses (random waypoint with long, short and
   zero pauses, the Manhattan, RPGM and churn models, stationary nodes)
   plus hand-laid legs with zero-length moves, teleports and a final leg
   that never arrives (the [speed_min = 0] freeze), [Waypoint.locate]
   must write exactly the bits [Waypoint.position] returns. Queries step
   forward, jump back, land on a leg's exact departure or arrival, and
   step one ulp either side of wherever they are, so every segment bound
   is probed from both sides. Mutation drill (re-run whenever
   [Waypoint.refill] or [locate] changes; `manet_sim fuzz --prop
   waypoint-segment-equiv --max-cases 20000 --seed 42`):
   - a hit test without its lower bound ([seg.(b) <= time] dropped), so
     a backward jump reads the segment it jumped out of, fails case 0:
     a query one ulp before a leg's arrival reads the pause after it;
   - a pause segment that starts at its leg's departure, not at the
     arrival, fails case 0 the same way;
   - a moving segment that also answers at its arrival fails case 0:
     the lerp at [frac = 1] can miss the leg's end by an ulp;
   - segments that never end at the next departure fail case 2;
   - a leg's segments that start at its departure even when that is the
     first departure, which [position] still answers with the initial
     point, fail case 44 (a hand-laid first leg that teleports).
   One mutant passes, and must: the initial segment ending at the first
   departure, exclusive ([Float.succ] dropped). A segment cut short is
   equivalent, since the query past its end refills to the same answer;
   only a segment stretched past where [position] changes branch can
   give another position. Restore and re-run green. *)

type seg_query =
  | Step of float  (** forward by this many seconds *)
  | Back of float  (** backward by this many seconds *)
  | Depart of int  (** a leg's exact departure (index mod legs) *)
  | Arrive of int  (** a leg's exact arrival, possibly infinite *)
  | Ulp of bool  (** one float up ([true]) or down *)

type segment_case = {
  smodel : int;  (** 0-3: the Mobility models; 4: stationary; 5: hand-laid *)
  sseed : int;
  spause : float;
  sspeed : float;  (** speed_max of the generated models *)
  sslow : bool;  (** speed_min = 0 *)
  snodes : int;
  squeries : (int * seg_query) list;  (** (node, query) *)
}

let seg_model_names =
  [| "waypoint"; "manhattan"; "rpgm"; "churn"; "stationary"; "hand-laid" |]

let seg_query_gen =
  Gen.frequency
    [
      (4, Gen.map (fun dt -> Step dt) (Gen.elements [ 0.0; 1e-9; 0.01; 0.25; 1.0; 7.5 ]));
      (2, Gen.map (fun dt -> Back dt) (Gen.elements [ 1e-9; 0.3; 2.0; 20.0 ]));
      (2, Gen.map (fun k -> Depart k) (Gen.int_range 0 40));
      (2, Gen.map (fun k -> Arrive k) (Gen.int_range 0 40));
      (2, Gen.map (fun up -> Ulp up) Gen.bool);
    ]

let segment_gen =
  Gen.bind (Gen.int_range 1 4) (fun snodes ->
      Gen.map2
        (fun ((smodel, sseed), (spause, (sspeed, sslow))) squeries ->
          { smodel; sseed; spause; sspeed; sslow; snodes; squeries })
        (Gen.pair
           (Gen.pair (Gen.int_range 0 5) (Gen.no_shrink (Gen.int_range 0 1_000_000)))
           (Gen.pair
              (Gen.elements [ 0.0; 0.5; 3.0; 60.0 ])
              (Gen.pair (Gen.elements [ 2.0; 20.0; 50.0 ]) Gen.bool)))
        (Gen.list_size (Gen.int_range 1 60)
           (Gen.pair (Gen.int_range 0 (snodes - 1)) seg_query_gen)))

let pp_seg_query ppf = function
  | Step dt -> Format.fprintf ppf "+%g" dt
  | Back dt -> Format.fprintf ppf "-%g" dt
  | Depart k -> Format.fprintf ppf "depart %d" k
  | Arrive k -> Format.fprintf ppf "arrive %d" k
  | Ulp up -> Format.pp_print_string ppf (if up then "ulp+" else "ulp-")

let segment_print c =
  asprintf "model=%s seed=%d nodes=%d pause=%g speed=%g slow=%b q=[%a]"
    seg_model_names.(c.smodel) c.sseed c.snodes c.spause c.sspeed c.sslow
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (i, q) -> Format.fprintf ppf "%d:%a" i pp_seg_query q))
    c.squeries

(* Legs laid by hand from [rng]: pauses of 0 or more, moves of zero length
   (teleports when the end point differs) and, sometimes, a last leg
   that never arrives. *)
let hand_laid_script rng =
  let module W = Wireless.Waypoint in
  let point () =
    Wireless.Vec2.make
      ~x:(Des.Rng.uniform rng ~lo:0.0 ~hi:600.0)
      ~y:(Des.Rng.uniform rng ~lo:0.0 ~hi:300.0)
  in
  let initial = point () in
  let legs = Des.Rng.int rng 6 in
  let rec lay k time from acc =
    if k = legs then List.rev acc
    else
      let pause = [| 0.0; 0.0; 0.5; 3.25 |].(Des.Rng.int rng 4) in
      let depart = time +. pause in
      let travel =
        match Des.Rng.int rng 5 with
        | 0 -> 0.0
        | 1 when k = legs - 1 -> infinity
        | _ -> Des.Rng.uniform rng ~lo:0.1 ~hi:12.0
      in
      let to_p = point () in
      let leg = { W.depart; arrive = depart +. travel; from_p = from; to_p } in
      if travel = infinity then List.rev (leg :: acc)
      else lay (k + 1) leg.W.arrive to_p (leg :: acc)
  in
  W.of_legs ~initial (lay 0 0.0 initial [])

let segment_scripts c =
  let rng = Des.Rng.create (Int64.of_int c.sseed) in
  let terrain = Wireless.Terrain.make ~width:600.0 ~height:300.0 in
  match c.smodel with
  | 4 ->
      Array.init c.snodes (fun _ ->
          Wireless.Waypoint.stationary (Wireless.Terrain.random_point terrain rng))
  | 5 -> Array.init c.snodes (fun _ -> hand_laid_script rng)
  | m ->
      Wireless.Mobility.generate
        (List.nth Wireless.Mobility.all m)
        ~terrain ~rng ~nodes:c.snodes ~pause:c.spause
        ~speed_min:(if c.sslow then 0.0 else 1.0)
        ~speed_max:c.sspeed ~duration:60.0

let segment_law c =
  let module W = Wireless.Waypoint in
  let scripts = segment_scripts c in
  let legs = Array.map (fun s -> Array.of_list (W.legs s)) scripts in
  let cache = W.cache scripts in
  let dst = [| nan; nan |] in
  let bits = Int64.bits_of_float in
  let rec go time = function
    | [] -> Ok ()
    | (i, q) :: rest ->
        let nl = Array.length legs.(i) in
        let time =
          match q with
          | Step dt -> time +. dt
          | Back dt -> time -. dt
          | Depart k -> if nl = 0 then time else legs.(i).(k mod nl).W.depart
          | Arrive k -> if nl = 0 then time else legs.(i).(k mod nl).W.arrive
          | Ulp true -> Float.succ time
          | Ulp false -> Float.pred time
        in
        W.locate cache i time dst 0;
        let want = W.position scripts.(i) time in
        if
          bits dst.(0) <> bits want.Wireless.Vec2.x
          || bits dst.(1) <> bits want.Wireless.Vec2.y
        then
          Error
            (Printf.sprintf "node %d at t=%h: cached (%h, %h), position (%h, %h)"
               i time dst.(0) dst.(1) want.Wireless.Vec2.x want.Wireless.Vec2.y)
        else go time rest
  in
  go 0.0 c.squeries

let prop_waypoint_segment =
  Runner.cell ~name:"waypoint-segment-equiv" ~print:segment_print segment_gen
    segment_law

(* ------------------------------------------------------------------ *)
(* OLSR flat-array routes vs the Hashtbl/Queue oracle: one agent and one
   Olsr_oracle receive the same HELLO/TC stream at random times, and after
   every step each dst's next hop, the route_entries gauge and the MPR set
   must agree exactly, as must every HELLO the agent's own timer emits.
   Small id spaces make equal-length routes (the BFS tie-breaks) common;
   [tick] steps deliver nothing, so they read the table computed at the
   last control message after its entries may have expired.

   Mutation drill (re-run whenever Olsr.recompute_routes, merge_tc or
   select_mprs changes; last run when the topology set moved into
   per-last-hop arrays, --max-cases 200 --seed 7):
   - reversing the ring's seed order in recompute_routes fails case 2 and
     shrinks in 16 steps to nodes=5 me=0 steps=[+0.0 hello 4 [3s; 0];
     +0.0 hello 1 me [3s]] (next_hop dst=3: agent 4, oracle 1);
   - letting the last of equal-cover MPR candidates win ([cover >
     !best_cover] -> [cover > 0 && cover >= !best_cover]) fails case 2,
     shrunk in 19 steps to a two-HELLO case (MPR set [2], oracle [0]);
   - recomputing on every next_hop (dropping the stale-table contract)
     fails case 0, shrunk in 20 steps to a neighbour that expires at
     t=6.00 with no control message since;
   - dropping the BFS's expiry test, so that only the purge in merge_tc
     removes dead entries, fails case 1 in 33 steps: a TC entry that
     expires at t=15.00 with no new TC from its last hop since (next_hop
     dst=2: agent 0, oracle none);
   - replacing the last hop's set in merge_tc instead of merging into it
     fails case 1 in 17 steps: two TCs from last hop 0 advertise [2] and
     then [0] (next_hop dst=2: agent none, oracle 0).
   Two mutants pass, and must. Reading a node's edges in reverse (its TC
   destinations last to first, before the seed's reversed two-hop list)
   is equivalent, since that order cannot move a next hop (see the seed
   comment in Olsr.recompute_routes). A purge that keeps entries expiring
   exactly now ([> time] -> [>= time]) is equivalent too, since the BFS
   tests expiry again. The 100-node golden run is byte-identical under
   both. Restore and re-run green. *)

type olsr_msg =
  | O_hello of { origin : int; about_me : int; links : (int * bool) list }
      (** [about_me]: 0 = we are not listed, 1 = listed, 2 = listed as MPR *)
  | O_tc of { from : int; origin : int; ansn : int; advertised : int list }
  | O_tick

type olsr_case = {
  onodes : int;
  ome : int;
  osteps : (int * olsr_msg) list;  (** (gap in half-seconds, message) *)
}

let olsr_gen =
  Gen.bind
    (Gen.frequency [ (4, Gen.int_range 3 8); (1, Gen.int_range 9 24) ])
    (fun onodes ->
      let id = Gen.int_range 0 (onodes - 1) in
      Gen.bind id (fun ome ->
          (* a radio never hears its own frames: HELLO senders and TC last
             hops are the other nodes *)
          let other =
            Gen.map
              (fun k -> if k >= ome then k + 1 else k)
              (Gen.int_range 0 (onodes - 2))
          in
          let hello =
            Gen.map
              (fun (origin, about_me, links) ->
                O_hello { origin; about_me; links })
              (Gen.triple other (Gen.int_range 0 2)
                 (Gen.list_size (Gen.int_range 0 5) (Gen.pair id Gen.bool)))
          in
          let tc =
            Gen.map
              (fun ((from, origin), ansn, advertised) ->
                O_tc { from; origin; ansn; advertised })
              (Gen.triple (Gen.pair other id) (Gen.int_range 0 3)
                 (Gen.list_size (Gen.int_range 0 5) id))
          in
          let msg =
            Gen.frequency [ (5, hello); (4, tc); (1, Gen.pure O_tick) ]
          in
          Gen.map
            (fun osteps -> { onodes; ome; osteps })
            (Gen.list_size (Gen.int_range 1 60)
               (Gen.pair (Gen.int_range 0 6) msg))))

let pp_semis pp =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp

let pp_olsr_ids = pp_semis Format.pp_print_int

let olsr_print c =
  asprintf "nodes=%d me=%d steps=[%a]" c.onodes c.ome
    (pp_semis (fun ppf (gap, m) ->
         Format.fprintf ppf "+%.1f " (0.5 *. float_of_int gap);
         match m with
         | O_hello { origin; about_me; links } ->
             Format.fprintf ppf "hello %d%s [%a]" origin
               (match about_me with 0 -> "" | 1 -> " me" | _ -> " me-mpr")
               (pp_semis (fun ppf (id, sym) ->
                    Format.fprintf ppf "%d%s" id (if sym then "s" else "")))
               links
         | O_tc { from; origin; ansn; advertised } ->
             Format.fprintf ppf "tc %d<-%d#%d [%a]" origin from ansn
               pp_olsr_ids advertised
         | O_tick -> Format.pp_print_string ppf "tick"))
    c.osteps

let olsr_oracle_law c =
  let module Olsr = Protocols.Olsr in
  let engine = Des.Engine.create () in
  let failure = ref None in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        if !failure = None then
          failure :=
            Some (Printf.sprintf "t=%.2f: %s" (Des.Engine.now engine) msg))
      fmt
  in
  let on_hello = ref (fun (_ : Olsr.hello) -> ()) in
  let ctx =
    {
      Protocols.Routing_intf.id = c.ome;
      node_count = c.onodes;
      engine;
      rng = Des.Rng.create 5L;
      trace = Trace.null;
      mac_send =
        (fun frame ->
          match frame.Wireless.Frame.payload with
          | Olsr.Hello h -> !on_hello h
          | _ -> ());
      deliver = ignore;
      drop_data = (fun _ ~reason:_ -> ());
    }
  in
  let t, agent = Olsr.create_full ctx in
  let oracle = Olsr_oracle.create ctx in
  let compare_mprs () =
    if Olsr.mprs t <> Olsr_oracle.mprs oracle then
      fail "MPR set [%s], oracle [%s]"
        (asprintf "%a" pp_olsr_ids (Olsr.mprs t))
        (asprintf "%a" pp_olsr_ids (Olsr_oracle.mprs oracle))
  in
  (on_hello :=
     fun h ->
       let links = Olsr_oracle.hello_links oracle in
       compare_mprs ();
       if h.Olsr.h_links <> links then
         fail "HELLO link list differs from the oracle's");
  let opt = function None -> "none" | Some v -> string_of_int v in
  let compare_state () =
    let gauge () = (agent.Protocols.Routing_intf.gauges ()).route_entries in
    if gauge () <> Olsr_oracle.route_entries oracle then
      fail "stale route_entries %d, oracle %d" (gauge ())
        (Olsr_oracle.route_entries oracle);
    compare_mprs ();
    (* -1 and onodes probe the out-of-range guard *)
    for dst = -1 to c.onodes do
      let got = Olsr.next_hop t ~dst and want = Olsr_oracle.next_hop oracle ~dst in
      if got <> want then
        fail "next_hop dst=%d: agent %s, oracle %s" dst (opt got) (opt want)
    done;
    if gauge () <> Olsr_oracle.route_entries oracle then
      fail "route_entries %d, oracle %d" (gauge ())
        (Olsr_oracle.route_entries oracle)
  in
  let deliver = function
    | O_hello { origin; about_me; links } ->
        let hello =
          {
            Olsr.h_origin = origin;
            h_links =
              (if about_me > 0 then [ (c.ome, true, about_me = 2) ] else [])
              @ List.map (fun (id, sym) -> (id, sym, false)) links;
          }
        in
        agent.receive ~src:origin
          (Wireless.Frame.make ~src:origin ~dst:Wireless.Frame.Broadcast
             ~size:20 ~payload:(Olsr.Hello hello));
        Olsr_oracle.handle_hello oracle hello
    | O_tc { from; origin; ansn; advertised } ->
        let tc =
          { Olsr.t_origin = origin; t_ansn = ansn; t_advertised = advertised }
        in
        agent.receive ~src:from
          (Wireless.Frame.make ~src:from ~dst:Wireless.Frame.Broadcast
             ~size:24 ~payload:(Olsr.Tc tc));
        Olsr_oracle.handle_tc oracle tc
    | O_tick -> ()
  in
  let horizon =
    List.fold_left
      (fun at (gap, m) ->
        let at = at +. (0.5 *. float_of_int gap) in
        ignore
          (Des.Engine.schedule_at engine ~time:at (fun () ->
               deliver m;
               compare_state ()));
        at)
      0.0 c.osteps
  in
  Des.Engine.run engine ~until:(horizon +. 0.5);
  match !failure with Some m -> Error m | None -> Ok ()

let prop_olsr_oracle =
  Runner.cell ~name:"olsr-routes-oracle" ~print:olsr_print olsr_gen
    olsr_oracle_law

(* ------------------------------------------------------------------ *)
(* The JSONL trace encoder against the JSON tree. The JSONL sink writes
   each record straight into its buffer and keeps a one-entry memo of the
   last timestamp's rendering; the reference is
   [Json.to_string (Trace.record_to_json r)]. Records go through the
   public emission helpers into two [Trace.jsonl] sinks on temp files,
   each with its own settable clock: first interleaved on one domain,
   then each sink on its own domain at once. Every timestamp is
   drawn from a small per-case pool, so runs of repeated and alternating
   times are common; the pool and the members draw on the encoder's edge
   values: escapable and control characters, UTF-8, min_int/max_int,
   nan, infinities, signed zeros, subnormals and integral values on both
   sides of 1e15, where float_str switches from %.1f to %.12g.

   Mutation drill (re-run whenever Trace's JSONL sink or Json.escape_to
   changes; last run with this change, --max-cases 200 --seed 7):
   - keying the memo with float equality ([time <> s.last_time]) fails
     case 0 and shrinks in 12 steps to times=[0x0p+0; -0x0p+0] with two
     records on one sink: the second is written with "t":0.0, not -0.0;
   - a module-level memo (key and rendering in two top-level refs) is
     invisible while one domain emits, since sharing a memo moves no byte
     there; the two-domain pass fails at case 3 on one run and case 8 on
     another (case 0 on seeds 1, 2, 3 and 42) and shrinks to one record
     per sink at two distinct times. That verdict depends on scheduling,
     so its case, shrink path and replay are not byte-stable;
   - an escape fast path that lets control characters through
     ([needs_escape] without its [< 0x20] test) escapes the tree too, so
     the lines still agree; the framing check fails case 0, shrunk in 10
     steps to one fault record whose kind is "\n".
   Restore and re-run green. *)

type jsonl_step = { sink : int; at : int; node : int; ev : Trace.ev }

type jsonl_case = { times : float list; steps : jsonl_step list }

let edge_floats =
  [
    0.0; -0.0; 1.0; -2.5; 0.1; 1e-7; 5e-324; 1e-310; 999999999999999.0;
    -999999999999999.0; 1e15; -1e15; 1000000000000002.0; 123456789012.4;
    1234567.000001; Float.nan; Float.infinity; Float.neg_infinity;
    Float.max_float;
  ]

let edge_float =
  Gen.frequency
    [
      (3, Gen.elements edge_floats);
      (* weighted up: equal as floats, different as bytes *)
      (1, Gen.elements [ 0.0; -0.0 ]);
      (1, Gen.float_range (-1e6) 1e6);
    ]

let edge_int =
  Gen.frequency
    [
      (1, Gen.elements [ 0; -1; max_int; min_int ]);
      (2, Gen.int_toward ~origin:0 (-1000) 1000);
    ]

let edge_string =
  Gen.map (String.concat "")
    (Gen.list_size (Gen.int_range 0 5)
       (Gen.elements
          [
            "a"; "rreq"; " "; "/"; "\""; "\\"; "\n"; "\r"; "\t"; "\x01";
            "\x1f"; "\x7f"; "caf\xc3\xa9"; "\xe2\x86\x92"; "\xf0\x9f\x93\xa1";
          ]))

let trace_ev_gen =
  let i = edge_int and f = edge_float and s = edge_string in
  let flow_seq = Gen.pair i i in
  Gen.oneof
    [
      Gen.pure Trace.Mac_collision;
      Gen.pure Trace.Mac_queue_drop;
      Gen.map2
        (fun (flow, seq) dst -> Trace.Pkt_originate { flow; seq; dst })
        flow_seq i;
      Gen.map (fun (flow, seq) -> Trace.Pkt_enqueue { flow; seq }) flow_seq;
      Gen.map2 (fun (flow, seq) next -> Trace.Pkt_tx { flow; seq; next })
        flow_seq i;
      Gen.map2 (fun (flow, seq) from -> Trace.Pkt_rx { flow; seq; from })
        flow_seq i;
      Gen.map2
        (fun (flow, seq) next -> Trace.Pkt_forward { flow; seq; next })
        flow_seq i;
      Gen.map2
        (fun (flow, seq) (latency, hops) ->
          Trace.Pkt_deliver { flow; seq; latency; hops })
        flow_seq (Gen.pair f i);
      Gen.map2
        (fun (flow, seq) reason -> Trace.Pkt_drop { flow; seq; reason })
        flow_seq s;
      Gen.map2 (fun kind dst -> Trace.Ctl_tx { kind; dst }) s i;
      Gen.map2 (fun kind from -> Trace.Ctl_rx { kind; from }) s i;
      Gen.map
        (fun (dst, via, dist) -> Trace.Route_add { dst; via; dist })
        (Gen.triple i i i);
      Gen.map
        (fun (dst, via, reason) -> Trace.Route_del { dst; via; reason })
        (Gen.triple i i s);
      Gen.map
        (fun (dst, sn, label) -> Trace.Label_split { dst; sn; label })
        (Gen.triple i i s);
      Gen.map (fun seqno -> Trace.Seqno_reset { seqno }) i;
      Gen.map (fun cw -> Trace.Mac_backoff { cw }) i;
      Gen.map (fun dst -> Trace.Mac_retry_drop { dst }) i;
      Gen.map (fun (kind, a, b) -> Trace.Fault { kind; a; b }) (Gen.triple s i i);
      Gen.map2
        (fun ((routes, pending, mac_queue), (live_events, executed,
              label_width_bits))
             (events_per_sec, label_resets) ->
          Trace.Gauge
            {
              routes; pending; mac_queue; live_events; executed;
              events_per_sec; label_width_bits; label_resets;
            })
        (Gen.pair (Gen.triple i i i) (Gen.triple i i i))
        (Gen.pair f i);
    ]

let jsonl_gen =
  Gen.bind (Gen.list_size (Gen.int_range 1 4) edge_float) (fun times ->
      Gen.map
        (fun steps -> { times; steps })
        (Gen.list_size (Gen.int_range 1 30)
           (Gen.map2
              (fun (sink, at) (node, ev) -> { sink; at; node; ev })
              (Gen.pair (Gen.int_range 0 1)
                 (Gen.int_range 0 (List.length times - 1)))
              (Gen.pair edge_int trace_ev_gen))))

(* fault and gauge records are network-wide: their helpers emit node -1 *)
let emitted_node { node; ev; _ } =
  match ev with Trace.Fault _ | Trace.Gauge _ -> -1 | _ -> node

let emit_via_helper t { node; ev; _ } =
  match ev with
  | Trace.Pkt_originate { flow; seq; dst } ->
      Trace.pkt_originate t ~node ~flow ~seq ~dst
  | Pkt_enqueue { flow; seq } -> Trace.pkt_enqueue t ~node ~flow ~seq
  | Pkt_tx { flow; seq; next } -> Trace.pkt_tx t ~node ~flow ~seq ~next
  | Pkt_rx { flow; seq; from } -> Trace.pkt_rx t ~node ~flow ~seq ~from
  | Pkt_forward { flow; seq; next } -> Trace.pkt_forward t ~node ~flow ~seq ~next
  | Pkt_deliver { flow; seq; latency; hops } ->
      Trace.pkt_deliver t ~node ~flow ~seq ~latency ~hops
  | Pkt_drop { flow; seq; reason } -> Trace.pkt_drop t ~node ~flow ~seq ~reason
  | Ctl_tx { kind; dst } -> Trace.ctl_tx t ~node ~kind ~dst
  | Ctl_rx { kind; from } -> Trace.ctl_rx t ~node ~kind ~from
  | Route_add { dst; via; dist } -> Trace.route_add t ~node ~dst ~via ~dist
  | Route_del { dst; via; reason } -> Trace.route_del t ~node ~dst ~via ~reason
  | Label_split { dst; sn; label } -> Trace.label_split t ~node ~dst ~sn ~label
  | Seqno_reset { seqno } -> Trace.seqno_reset t ~node ~seqno
  | Mac_backoff { cw } -> Trace.mac_backoff t ~node ~cw
  | Mac_collision -> Trace.mac_collision t ~node
  | Mac_retry_drop { dst } -> Trace.mac_retry_drop t ~node ~dst
  | Mac_queue_drop -> Trace.mac_queue_drop t ~node
  | Fault { kind; a; b } -> Trace.fault t ~kind ~a ~b
  | Gauge
      { routes; pending; mac_queue; live_events; executed; events_per_sec;
        label_width_bits; label_resets }
    ->
      Trace.gauge t ~routes ~pending ~mac_queue ~live_events ~executed
        ~events_per_sec ~label_width_bits ~label_resets

let jsonl_print c =
  let member_body st =
    match
      Trace.record_to_json { time = 0.0; node = emitted_node st; ev = st.ev }
    with
    | Trace.Json.Obj (_t :: members) -> Trace.Json.to_string (Obj members)
    | json -> Trace.Json.to_string json
  in
  asprintf "times=[%s] steps=[%a]"
    (String.concat "; " (List.map (Printf.sprintf "%h") c.times))
    (pp_semis (fun ppf st ->
         Format.fprintf ppf "sink%d@t%d %s" st.sink st.at (member_body st)))
    c.steps

(* Opens the two sinks, hands [drive] the function that emits one step
   (and records the tree's line for it), then compares each file with
   its expected lines. [emit] touches only its step's sink, so two
   domains may drive the two sinks at once. *)
let replay_jsonl c drive =
  let times = Array.of_list c.times in
  let paths = Array.init 2 (fun _ -> Filename.temp_file "trace-prop" ".jsonl") in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () ->
      let clocks = Array.make 2 0.0 in
      let ocs = Array.map open_out_bin paths in
      let sinks =
        Array.mapi (fun k oc -> Trace.jsonl ~clock:(fun () -> clocks.(k)) oc) ocs
      in
      let expected = Array.make 2 [] in
      let emit st =
        let time = times.(st.at) in
        clocks.(st.sink) <- time;
        emit_via_helper sinks.(st.sink) st;
        expected.(st.sink) <-
          Trace.Json.to_string
            (Trace.record_to_json { time; node = emitted_node st; ev = st.ev })
          :: expected.(st.sink)
      in
      drive emit;
      Array.iter Trace.close sinks;
      Array.iter close_out ocs;
      let check k =
        let want = List.rev expected.(k) in
        let written = In_channel.with_open_bin paths.(k) In_channel.input_all in
        if written = String.concat "" (List.map (fun l -> l ^ "\n") want) then
          (* the tree shares the string escaper, so JSONL framing is
             checked on its own: no raw control byte inside a record *)
          List.find_opt (String.exists (fun ch -> Char.code ch < 0x20)) want
          |> Option.map (Printf.sprintf "sink %d: raw control byte in %S" k)
        else
          let rec diff line = function
            | g :: gs, w :: ws when g = w -> diff (line + 1) (gs, ws)
            | g :: _, w :: _ ->
                Printf.sprintf "sink %d line %d: wrote %s, tree gives %s" k
                  line g w
            | _ ->
                Printf.sprintf "sink %d: %d bytes are not the %d records" k
                  (String.length written) (List.length want)
          in
          Some (diff 1 (String.split_on_char '\n' written, want))
      in
      match check 0 with Some m -> Some m | None -> check 1)

(* Campaign domains each own a tracer. The second pass runs each sink's
   steps on its own domain, repeated so the two streams overlap in time:
   a memo shared between sinks then hands one domain a rendering the
   other just keyed. *)
let jsonl_overlap_reps = 64

let jsonl_encoder_law c =
  match replay_jsonl c (fun emit -> List.iter emit c.steps) with
  | Some m -> Error ("one domain: " ^ m)
  | None -> (
      let own k emit () =
        for _ = 1 to jsonl_overlap_reps do
          List.iter (fun st -> if st.sink = k then emit st) c.steps
        done
      in
      match
        replay_jsonl c (fun emit ->
            let other = Domain.spawn (own 1 emit) in
            Fun.protect ~finally:(fun () -> Domain.join other) (own 0 emit))
      with
      | Some m -> Error ("two domains: " ^ m)
      | None -> Ok ())

let prop_jsonl_encoder =
  Runner.cell ~name:"trace-jsonl-encoder" ~print:jsonl_print jsonl_gen
    jsonl_encoder_law

(* ------------------------------------------------------------------ *)
(* Trace.Json's number writers against Printf's C formatter, which the
   encoder no longer calls for ints or most floats: [float_str] and the
   encoder's Float arm must print caml_format_float's "%.1f" (integral,
   below 1e15) or "%.12g" (anything else finite), and [add_int] and the
   Int arm string_of_int. Inputs: trace times (uniform in [0, 900));
   finite bit patterns of both signs over every exponent, subnormals and
   both fallback ranges included; exact ties (k/8 and k/16 with 13
   significant digits, the 13th a 5) and such values with 12, which need
   no rounding; ±50
   ulps around each power of ten from 1e-12 to 1e13; integers within 1000
   of ±1e15; ±0; ints at min_int, max_int, random and small.

   Mutation drill (re-run whenever float_str or add_int changes; last run
   with this property, --max-cases 200000 --seed 19):
   - ties away from zero (an exact tie always rounds up) fail case 34,
     shrunk in 2 steps to 1000000000.125: "float_str wrote
     1000000000.13, printf 1000000000.12";
   - rounding to 11 digits (scaling by 10^(10 - e), then appending a
     zero) fails case 3, shrunk in 2 steps to the time 171.25789463201289:
     171.25789463 against 171.257894632;
   - an exponent without its leading zero fails case 95, shrunk in 4
     steps to 1.0000000000000001e-09: 1e-9 against 1e-09;
   - the switch to exponential notation moved past e = 12 (fixed for
     e <= 12) fails case 529, shrunk in 6 steps to 999999999999.99988,
     which rounds up to 1e+12: g12_str indexes ipow10 at 11 - 12 and
     raises Invalid_argument.
   Restore and re-run green. *)

external format_float : string -> float -> string = "caml_format_float"

type number = Num_float of float | Num_int of int

let signed g =
  Gen.map2 (fun neg x -> if neg then -.x else x) Gen.bool g

(* a sign, a biased exponent below 2047 (0: zero or subnormal) and a
   mantissa: every finite double *)
let finite_bits_gen =
  Gen.map
    (fun ((neg, biased), mantissa) ->
      let top = (Bool.to_int neg lsl 11) lor biased in
      Int64.float_of_bits
        (Int64.logor
           (Int64.shift_left (Int64.of_int top) 52)
           (Int64.of_int mantissa)))
    (Gen.pair (Gen.pair Gen.bool (Gen.int_range 0 2046))
       (Gen.int_range 0 ((1 lsl 52) - 1)))

let dyadic_gen =
  Gen.bind
    (Gen.pair (Gen.elements [ 8; 16 ]) (Gen.elements [ 13; 12 ]))
    (fun (den, digits) ->
      let frac_digits = if den = 8 then 3 else 4 in
      let lo = int_of_float (10.0 ** float (digits - frac_digits - 1)) in
      Gen.map2
        (fun ip r -> float ((ip * den) + r) /. float den)
        (Gen.int_range lo ((10 * lo) - 1))
        (Gen.map (fun r -> (2 * r) + 1) (Gen.int_range 0 ((den / 2) - 1))))

let near_power_gen =
  Gen.map2
    (fun k d ->
      Int64.float_of_bits
        (Int64.add
           (Int64.bits_of_float (float_of_string (Printf.sprintf "1e%d" k)))
           (Int64.of_int d)))
    (Gen.int_range (-12) 13)
    (Gen.int_toward ~origin:0 (-50) 50)

let number_gen =
  let num_float g = Gen.map (fun f -> Num_float f) g in
  Gen.frequency
    [
      (2, num_float (Gen.float_range 0.0 900.0));
      (2, num_float finite_bits_gen);
      (2, num_float (signed dyadic_gen));
      (2, num_float (signed near_power_gen));
      ( 1,
        num_float
          (signed
             (Gen.map
                (fun d -> 1e15 +. float d)
                (Gen.int_toward ~origin:0 (-1000) 1000))) );
      (1, num_float (Gen.elements [ 0.0; -0.0 ]));
      ( 2,
        Gen.map
          (fun i -> Num_int i)
          (Gen.oneof
             [
               Gen.elements [ min_int; max_int ];
               (fun rng -> Gen.Tree.pure (Int64.to_int (Des.Rng.bits64 rng)));
               Gen.int_toward ~origin:0 (-1000) 1000;
             ]) );
    ]

let number_print = function
  | Num_float f -> Printf.sprintf "float %h (%.17g)" f f
  | Num_int i -> Printf.sprintf "int %d" i

let number_law c =
  let written, want =
    match c with
    | Num_float f ->
        ( [
            ("float_str", Trace.Json.float_str f);
            ("encoder", Trace.Json.to_string (Trace.Json.Float f));
          ],
          if not (Float.is_finite f) then "null"
          else if Float.is_integer f && Float.abs f < 1e15 then
            format_float "%.1f" f
          else format_float "%.12g" f )
    | Num_int i ->
        let buf = Buffer.create 20 in
        Trace.Json.add_int buf i;
        ( [
            ("add_int", Buffer.contents buf);
            ("encoder", Trace.Json.to_string (Trace.Json.Int i));
          ],
          string_of_int i )
  in
  match List.find_opt (fun (_, got) -> got <> want) written with
  | Some (writer, got) ->
      Error (Printf.sprintf "%s wrote %s, printf %s" writer got want)
  | None -> Ok ()

let prop_number_format =
  Runner.cell ~name:"json-number-format" ~print:number_print number_gen
    number_law

let all =
  [
    prop_mediant;
    prop_fraction_order;
    prop_overflow;
    prop_farey;
    prop_bignat;
    prop_bigfrac;
    prop_lexlabel_between;
    prop_ordering_precedes;
    prop_neworder;
    prop_neworder_farey;
    prop_neworder_bigfrac;
    prop_neworder_lex;
    prop_neworder_agreement;
  ]
  @ List.map prop_abstract Slr.Label_set.all
  @ [
      prop_seen_cache;
      prop_pending;
      prop_wire_model;
      prop_srp_control;
      prop_heap_drain;
      prop_heap_fifo;
      prop_summary_merge;
      prop_channel_grid;
      prop_waypoint_segment;
      prop_olsr_oracle;
      prop_jsonl_encoder;
      prop_number_format;
    ]
  (* scenario workload models: mobility / traffic invariants *)
  @ Workload.props
