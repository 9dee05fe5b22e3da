(* The two-stage weighted run queue behind {!Vcpu_sched}.

   Stage 1 picks the tenant: deficit-style weighted selection over
   accumulated pCPU grant time. Each tenant carries a virtual grant
   clock that advances by [charged / weight] (scaled integers, so
   selection is exact and deterministic); the backlogged tenant with the
   smallest virtual clock runs next, ties broken toward the lower
   tenant id. A tenant that was idle re-enters at the current virtual
   now rather than its stale clock, so sleeping does not bank credit —
   the classic virtual-time activation rule that makes the queue
   work-conserving without letting a waking tenant monopolise the
   cores.

   Stage 2 picks within the tenant: strict-priority FIFO across
   admission-class ranks (critical before standard before deferrable),
   FIFO within a rank.

   With one tenant and one occupied class rank the structure degenerates
   to exactly the flat FIFO the seed scheduler used — pop order, gate
   consultation and all — which is what keeps single-tenant runs
   byte-identical to the seed baselines.

   Lanes are dynamic: [admit] appends a lane whose clock starts at the
   active minimum (never at zero — a re-admitted tenant banks no stale
   credit and cannot resurrect the share it burned in a previous life),
   and [retire] marks a lane dead. Dead lanes are never deleted — their
   [granted] totals keep feeding the metrics — but selection skips them
   and pushes/charges against them are errors. *)

type 'a t = {
  mutable weights : int array;
  classes : int;
  mutable queues : 'a Queue.t array; (* tenant * classes + class rank *)
  mutable vt : int array; (* scaled virtual grant clock per tenant *)
  mutable charged : int array; (* raw grant ns per tenant, for metrics *)
  mutable backlog : int array; (* queued element count per tenant *)
  mutable live : bool array; (* false once retired; lane is frozen *)
  mutable tried : int array; (* = stamp: gate-rejected in the current pop *)
  mutable stamp : int; (* bumped once per pop *)
  mutable total : int;
  mutable vnow : int; (* virtual clock of the last tenant served *)
}

(* Virtual clocks advance by [amount * vscale / weight]: the scale keeps
   integer division from erasing small charges under large weights. *)
let vscale = 256

let create ~weights ~classes =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Wsched.create: empty weights array (no tenants)";
  Array.iteri
    (fun i w ->
      if w <= 0 then
        invalid_arg
          (Printf.sprintf "Wsched.create: non-positive weight for tenant %d" i))
    weights;
  if classes <= 0 then invalid_arg "Wsched.create: no classes";
  {
    weights = Array.copy weights;
    classes;
    queues = Array.init (n * classes) (fun _ -> Queue.create ());
    vt = Array.make n 0;
    charged = Array.make n 0;
    backlog = Array.make n 0;
    live = Array.make n true;
    tried = Array.make n 0;
    stamp = 0;
    total = 0;
    vnow = 0;
  }

let tenants t = Array.length t.weights
let length t = t.total
let is_empty t = t.total = 0
let backlog t ~tenant = t.backlog.(tenant)
let is_live t ~tenant = t.live.(tenant)

let clamp_cls t cls =
  if cls < 0 then 0 else if cls >= t.classes then t.classes - 1 else cls

let push t ~tenant ~cls x =
  if tenant < 0 || tenant >= tenants t then
    invalid_arg "Wsched.push: unknown tenant";
  if not t.live.(tenant) then invalid_arg "Wsched.push: retired tenant";
  (* Activation rule: an idle tenant rejoins at the current virtual now. *)
  if t.backlog.(tenant) = 0 && t.vt.(tenant) < t.vnow then
    t.vt.(tenant) <- t.vnow;
  Queue.push x t.queues.((tenant * t.classes) + clamp_cls t cls);
  t.backlog.(tenant) <- t.backlog.(tenant) + 1;
  t.total <- t.total + 1

let pop_class t tid =
  let rec go c =
    if c >= t.classes then None
    else
      let q = t.queues.((tid * t.classes) + c) in
      if Queue.is_empty q then go (c + 1) else Some (Queue.pop q)
  in
  go 0

(* Minimum (vt, id) over backlogged live tenants not yet gate-rejected
   in this pop (their [tried] entry holds this pop's stamp); scanning
   downward with [<=] makes equal clocks resolve to the lower id. *)
let rec select ~gate t stamp =
  let best = ref (-1) in
  for i = tenants t - 1 downto 0 do
    if t.backlog.(i) > 0 && t.live.(i) && t.tried.(i) <> stamp then
      if !best < 0 || t.vt.(i) <= t.vt.(!best) then best := i
  done;
  if !best < 0 then None
  else
    let tid = !best in
    if gate tid then begin
      match pop_class t tid with
      | None -> assert false (* backlog said nonempty *)
      | popped ->
          t.backlog.(tid) <- t.backlog.(tid) - 1;
          t.total <- t.total - 1;
          t.vnow <- t.vt.(tid);
          popped
    end
    else begin
      t.tried.(tid) <- stamp;
      select ~gate t stamp
    end

let pop ~gate t =
  if t.total = 0 then None
  else begin
    t.stamp <- t.stamp + 1;
    select ~gate t t.stamp
  end

let charge t ~tenant amount =
  if tenant < 0 || tenant >= tenants t then
    invalid_arg "Wsched.charge: unknown tenant";
  if not t.live.(tenant) then invalid_arg "Wsched.charge: retired tenant";
  if amount > 0 then begin
    t.charged.(tenant) <- t.charged.(tenant) + amount;
    t.vt.(tenant) <- t.vt.(tenant) + (amount * vscale / t.weights.(tenant))
  end

let granted t ~tenant = t.charged.(tenant)

(* --- dynamic lanes ------------------------------------------------------ *)

(* The clock a fresh lane enters at: the minimum virtual clock over live
   backlogged lanes, or virtual now when everyone is idle. Entering at
   the active minimum means the newcomer competes on equal terms with
   the most-behind incumbent (losing ties, since it has the highest id)
   and — crucially — a re-admitted tenant starts from today's clock, not
   the one it retired with: no credit resurrection. *)
let entry_clock t =
  let m = ref None in
  Array.iteri
    (fun i vt ->
      if t.backlog.(i) > 0 && t.live.(i) then
        match !m with Some v when v <= vt -> () | _ -> m := Some vt)
    t.vt;
  match !m with Some v -> v | None -> t.vnow

let append a x = Array.append a [| x |]

let admit t ~weight =
  let id = tenants t in
  if weight <= 0 then
    invalid_arg
      (Printf.sprintf "Wsched.admit: non-positive weight for tenant %d" id);
  let vt0 = entry_clock t in
  t.weights <- append t.weights weight;
  t.queues <-
    Array.append t.queues (Array.init t.classes (fun _ -> Queue.create ()));
  t.vt <- append t.vt vt0;
  t.charged <- append t.charged 0;
  t.backlog <- append t.backlog 0;
  t.live <- append t.live true;
  t.tried <- append t.tried 0;
  id

(* Drain every queued element of one tenant, in pop order (class rank,
   then FIFO), without touching any other lane's clock. The force-retire
   path uses this to hand stranded entries back to the caller. *)
let flush t ~tenant =
  if tenant < 0 || tenant >= tenants t then
    invalid_arg "Wsched.flush: unknown tenant";
  let out = ref [] in
  for c = t.classes - 1 downto 0 do
    let q = t.queues.((tenant * t.classes) + c) in
    let drained = List.of_seq (Queue.to_seq q) in
    Queue.clear q;
    out := drained @ !out
  done;
  let n = List.length !out in
  t.backlog.(tenant) <- t.backlog.(tenant) - n;
  t.total <- t.total - n;
  !out

let retire t ~tenant =
  if tenant < 0 || tenant >= tenants t then
    invalid_arg "Wsched.retire: unknown tenant";
  if not t.live.(tenant) then invalid_arg "Wsched.retire: already retired";
  if t.backlog.(tenant) > 0 then
    invalid_arg
      (Printf.sprintf "Wsched.retire: tenant %d still has %d queued entries"
         tenant t.backlog.(tenant));
  t.live.(tenant) <- false

let exists p t =
  let found = ref false in
  Array.iter
    (fun q -> if not !found then Queue.iter (fun x -> if p x then found := true) q)
    t.queues;
  !found
