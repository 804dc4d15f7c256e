(* Fault-tolerant shard supervision over Parallel.run.

   The runner is deliberately dumb: a thunk that raises fails the whole
   job. This layer wraps each shard in a retry loop *inside* its thunk —
   the runner never sees an exception — so one pathological
   shard degrades to a typed Poisoned outcome instead of aborting a
   multi-hour job. Everything that could make retries nondeterministic is
   pinned: backoff jitter derives from a hash of (shard, attempt), not a
   PRNG or the clock; deadlines are enforced cooperatively at document
   boundaries (the tick callback), so a timeout can fire mid-shard but
   never mid-document; and injected faults come from a caller-supplied
   pure plan. Same input, same policy, same plan => same outcomes. *)

type failure_class =
  | Timed_out
  | Fault of string
  | Crash of string

let failure_label = function
  | Timed_out -> "timeout"
  | Fault _ -> "fault"
  | Crash _ -> "crash"

let failure_describe = function
  | Timed_out -> "timeout"
  | Fault s -> s
  | Crash s -> "crash:" ^ s

exception Abort of failure_class

type policy = {
  max_attempts : int;
  timeout_ms : float option;
  base_backoff_ms : float;
  max_backoff_ms : float;
  jitter : float;
  retryable : failure_class -> bool;
  degrade_threshold : float option;
}

let default_policy =
  { max_attempts = 3;
    timeout_ms = None;
    base_backoff_ms = 1.0;
    max_backoff_ms = 50.0;
    jitter = 0.5;
    (* a crash is a bug, not weather: retrying it hides the bug and burns
       the attempt budget. Everything typed — timeouts, injected faults,
       budget/parse aborts — defaults to retryable. *)
    retryable = (function Crash _ -> false | _ -> true);
    degrade_threshold = Some 0.5 }

let no_retry =
  { default_policy with
    max_attempts = 1;
    timeout_ms = None;
    degrade_threshold = None }

(* Deterministic decorrelated jitter: spread the capped exponential delay
   over [1-jitter, 1] using a hash of the (shard, attempt) pair. Distinct
   shards retrying in lockstep land on distinct delays (the thundering-herd
   fix jitter exists for), yet a re-run reproduces the exact schedule. *)
let backoff_ms policy ~shard ~attempt =
  let expo = policy.base_backoff_ms *. (2.0 ** float_of_int (attempt - 1)) in
  let capped = Float.min expo policy.max_backoff_ms in
  let jitter = Float.max 0.0 (Float.min 1.0 policy.jitter) in
  let frac = float_of_int (Hashtbl.hash (shard, attempt) land 0xFFFF) /. 65535.0 in
  capped *. (1.0 -. jitter +. (jitter *. frac))

type 'a outcome =
  | Done of { value : 'a; attempts : int }
  | Poisoned of { failure : failure_class; attempts : int }

type stats = {
  shards : int;
  attempts : int;
  retries : int;
  timeouts : int;
  faults : int;
  crashes : int;
  poisoned : int;
  degraded : int;  (* poisoned shards recovered by the sequential fallback *)
}

let run ?(policy = default_policy) ?(telemetry = Telemetry.nop) ?inject
    ~jobs tasks =
  let n = List.length tasks in
  let attempts_c = Atomic.make 0 in
  let retries_c = Atomic.make 0 in
  let timeouts_c = Atomic.make 0 in
  let faults_c = Atomic.make 0 in
  let crashes_c = Atomic.make 0 in
  let classify shard attempt task =
    let deadline =
      Option.map (fun ms -> Telemetry.now () +. (ms /. 1000.0)) policy.timeout_ms
    in
    let tick () =
      match deadline with
      | Some d when Telemetry.now () > d -> raise (Abort Timed_out)
      | _ -> ()
    in
    let attempt_body () =
      (* injected faults hit before any work, like a worker dying on pickup *)
      (match inject with
      | Some plan -> (
          match plan ~shard ~attempt with
          | Some site -> raise (Abort (Fault site))
          | None -> ())
      | None -> ());
      task ~attempt ~tick
    in
    match attempt_body () with
    | v -> Ok v
    | exception Abort c -> Error c
    | exception e -> Error (Crash (Printexc.to_string e))
  in
  let note_failure = function
    | Timed_out -> Atomic.incr timeouts_c
    | Fault _ -> Atomic.incr faults_c
    | Crash _ -> Atomic.incr crashes_c
  in
  let supervise shard task () =
    let rec go attempt =
      Atomic.incr attempts_c;
      match classify shard attempt task with
      | Ok v -> Done { value = v; attempts = attempt }
      | Error c ->
          note_failure c;
          if attempt < policy.max_attempts && policy.retryable c then begin
            Atomic.incr retries_c;
            let ms = backoff_ms policy ~shard ~attempt in
            Telemetry.observe telemetry "supervisor.backoff_ms" ms;
            if ms > 0.0 then Unix.sleepf (ms /. 1000.0);
            go (attempt + 1)
          end
          else Poisoned { failure = c; attempts = attempt }
    in
    go 1
  in
  (* the supervised thunks never raise, so the runner's re-raise path is
     provably dead here: one poisoned shard cannot abort its siblings *)
  let outcomes =
    Parallel.run ~jobs (List.mapi (fun shard task -> supervise shard task) tasks)
  in
  let poisoned_n =
    List.fold_left
      (fun acc -> function Poisoned _ -> acc + 1 | Done _ -> acc)
      0 outcomes
  in
  (* Graceful degradation: mass poisoning means the *environment* (domains,
     injected worker faults, a deadline tuned too tight) is the problem,
     not the data. Shed to one sequential, deadline-free, injection-free
     attempt per poisoned shard in the calling domain — slower, but the
     job finishes. Genuinely poisonous data still fails here and stays
     quarantined. *)
  let degraded_c = ref 0 in
  let outcomes =
    match policy.degrade_threshold with
    | Some threshold
      when n > 0 && float_of_int poisoned_n /. float_of_int n > threshold ->
        List.map2
          (fun task outcome ->
            match outcome with
            | Done _ -> outcome
            | Poisoned { attempts; _ } -> (
                let attempt = attempts + 1 in
                Atomic.incr attempts_c;
                match task ~attempt ~tick:(fun () -> ()) with
                | v ->
                    incr degraded_c;
                    Done { value = v; attempts = attempt }
                | exception Abort c ->
                    note_failure c;
                    Poisoned { failure = c; attempts = attempt }
                | exception e ->
                    let c = Crash (Printexc.to_string e) in
                    note_failure c;
                    Poisoned { failure = c; attempts = attempt }))
          tasks outcomes
    | _ -> outcomes
  in
  let poisoned_n =
    List.fold_left
      (fun acc -> function Poisoned _ -> acc + 1 | Done _ -> acc)
      0 outcomes
  in
  let stats =
    { shards = n;
      attempts = Atomic.get attempts_c;
      retries = Atomic.get retries_c;
      timeouts = Atomic.get timeouts_c;
      faults = Atomic.get faults_c;
      crashes = Atomic.get crashes_c;
      poisoned = poisoned_n;
      degraded = !degraded_c }
  in
  if Telemetry.is_recording telemetry then begin
    Telemetry.count telemetry "supervisor.attempts" stats.attempts;
    if stats.retries > 0 then
      Telemetry.count telemetry "supervisor.retries" stats.retries;
    if stats.timeouts > 0 then
      Telemetry.count telemetry "supervisor.timeouts" stats.timeouts;
    if stats.faults > 0 then
      Telemetry.count telemetry "supervisor.faults_injected" stats.faults;
    if stats.crashes > 0 then
      Telemetry.count telemetry "supervisor.crashes" stats.crashes;
    if stats.poisoned > 0 then
      Telemetry.count telemetry "supervisor.poisoned" stats.poisoned;
    if stats.degraded > 0 then
      Telemetry.count telemetry "supervisor.degraded" stats.degraded
  end;
  (outcomes, stats)

let stats_to_json s =
  let fields =
    [ ("shards", s.shards); ("attempts", s.attempts); ("retries", s.retries);
      ("timeouts", s.timeouts); ("faults", s.faults); ("crashes", s.crashes);
      ("poisoned", s.poisoned); ("degraded", s.degraded) ]
  in
  Json.Value.Object
    (List.map (fun (k, v) -> (k, Json.Value.Int v)) fields)
