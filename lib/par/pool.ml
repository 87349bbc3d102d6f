type t = {
  workers : int;
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : (int -> unit) option;
  mutable epoch : int;
  mutable remaining : int;
  mutable failure : exn option;
  mutable shutdown : bool;
  mutable domains : unit Domain.t list;
}

(* Spawned workers idle on [work_ready]; each [run] bumps [epoch] so a worker
   executes every job exactly once even if it wakes late. The caller's domain
   doubles as worker 0, so [workers = 1] never spawns and never locks. *)
let worker_loop t index =
  let my_epoch = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while (not t.shutdown) && t.epoch = !my_epoch do
      Condition.wait t.work_ready t.lock
    done;
    if t.shutdown then begin
      Mutex.unlock t.lock;
      running := false
    end
    else begin
      my_epoch := t.epoch;
      let job = Option.get t.job in
      Mutex.unlock t.lock;
      let outcome = try job index; None with e -> Some e in
      Mutex.lock t.lock;
      (match outcome with
      | Some e when t.failure = None -> t.failure <- Some e
      | Some _ | None -> ());
      t.remaining <- t.remaining - 1;
      if t.remaining = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.lock
    end
  done

let create workers =
  let workers = max 1 workers in
  let t =
    { workers;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      epoch = 0;
      remaining = 0;
      failure = None;
      shutdown = false;
      domains = [] }
  in
  t.domains <-
    List.init (workers - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let size t = t.workers

let run t job =
  if t.workers = 1 then job 0
  else begin
    Mutex.lock t.lock;
    t.job <- Some job;
    t.failure <- None;
    t.remaining <- t.workers - 1;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
    let own = try job 0; None with e -> Some e in
    Mutex.lock t.lock;
    while t.remaining > 0 do
      Condition.wait t.work_done t.lock
    done;
    let failure = t.failure in
    t.job <- None;
    t.failure <- None;
    Mutex.unlock t.lock;
    match own, failure with
    | Some e, _ -> raise e
    | None, Some e -> raise e
    | None, None -> ()
  end

let shutdown t =
  Mutex.lock t.lock;
  t.shutdown <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool workers f =
  let t = create workers in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let with_workers ?workers ?pool f =
  match pool with
  | Some p -> f p
  | None ->
    with_pool
      (match workers with
      | Some w -> w
      | None -> Domain.recommended_domain_count ())
      f

let split ~chunks:n ~len =
  let n = max 1 (min n (max 1 len)) in
  List.init n (fun i ->
      let lo = i * len / n and hi = (i + 1) * len / n in
      lo, hi)
