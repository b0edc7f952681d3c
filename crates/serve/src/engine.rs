//! The serving engine: bounded admission, batching, deadlines, retry
//! with backoff, executor isolation, and per-rung circuit breaking.
//!
//! One [`Engine`] serves one kernel. Requests enter through
//! [`Engine::submit`] into a bounded queue; a dedicated batcher thread
//! drains them into batches and drives each batch through the
//! degradation ladder until it is served or its members expire. Kernel
//! math never runs on the batcher thread: every attempt executes on a
//! supervised *executor* thread behind `catch_unwind` and an attempt
//! timeout, so a panicking or hung rung can neither unwind the batcher
//! nor wedge the service — the stuck executor is abandoned (and tagged
//! for the span validator) and a fresh one takes its place.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ninja_kernels::chaos::{ChaosSchedule, FailureMode};

use crate::breaker::Breaker;
use crate::Rung;

/// Batch execution surface one served kernel implements.
///
/// `run(Rung::Scalar, ..)` is the trusted reference: the engine executes
/// it on the batcher thread (never fault-injected) and validates every
/// other attempt against it with [`BatchKernel::matches`].
pub trait BatchKernel: Send + Sync + 'static {
    /// One AoS request.
    type Req: Send + Clone + 'static;
    /// One response value.
    type Resp: Send + Clone + 'static;

    /// Kernel name for spans and reports.
    fn name(&self) -> &'static str;

    /// Serve `reqs` at `rung`, one response per request. Implementations
    /// coalesce the AoS batch into SoA layouts as the rung requires.
    fn run(&self, rung: Rung, reqs: &[Self::Req]) -> Vec<Self::Resp>;

    /// Does a response agree with the scalar reference within the
    /// kernel's tolerance? Must reject non-finite values.
    fn matches(&self, got: &Self::Resp, reference: &Self::Resp) -> bool;

    /// Corrupt a response in place per the injected failure mode
    /// (chaos only: `NonFinite` and `WrongOutput`).
    fn corrupt(&self, resp: &mut Self::Resp, mode: FailureMode);
}

/// Engine tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct ServeConfig {
    /// Admission queue bound; a full queue sheds with `Rejected`.
    /// Capacity 0 rejects everything (useful in tests).
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one batch.
    pub max_batch: usize,
    /// End-to-end deadline per request (queue wait + execution).
    pub deadline: Duration,
    /// First retry backoff; doubles per attempt up to `backoff_cap`.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Consecutive failures that trip a rung's breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before probing recovery.
    pub breaker_cooldown: Duration,
    /// Extra wait past the batch's last deadline before an attempt is
    /// declared hung and its executor abandoned.
    pub attempt_grace: Duration,
    /// How long an injected `Hang` fault stalls the executor. Bounded so
    /// abandoned executor threads eventually exit instead of leaking.
    pub hang_sleep: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_batch: 64,
            deadline: Duration::from_millis(50),
            backoff_base: Duration::from_micros(500),
            backoff_cap: Duration::from_millis(8),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(25),
            attempt_grace: Duration::from_millis(20),
            hang_sleep: Duration::from_millis(500),
        }
    }
}

/// The resolution of one request. Every submitted request resolves to
/// exactly one of these.
#[derive(Clone, Debug, PartialEq)]
pub enum Response<R> {
    /// Served and validated against the scalar reference.
    Ok {
        /// The validated response value.
        value: R,
        /// The ladder rung that served it.
        rung: Rung,
        /// Microseconds spent queued before batch pickup.
        queue_us: u64,
        /// End-to-end microseconds from submit to resolution.
        total_us: u64,
    },
    /// Shed at admission: the queue was full (or the engine shut down).
    Rejected,
    /// The deadline passed before a validated result existed.
    Expired,
}

impl<R> Response<R> {
    /// Is this an `Ok` resolution?
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok { .. })
    }
}

/// The caller's handle to one in-flight request.
///
/// A ticket and its `Resolver` share one slot: a mutex-guarded
/// `{value, waiting, closed}` plus a condvar. The resolver stores the
/// value under the lock and signals the condvar only when `waiting` says
/// the ticket is blocked on it, so a request resolved before its caller
/// waits costs no wake-up at all.
pub struct Ticket<R> {
    slot: Arc<Slot<R>>,
}

struct Slot<R> {
    state: Mutex<SlotState<R>>,
    cv: Condvar,
}

struct SlotState<R> {
    value: Option<Response<R>>,
    /// Set by `Ticket::wait` while it sleeps on the condvar.
    waiting: bool,
    /// Set once the resolver has resolved or been dropped; no value can
    /// arrive after it.
    closed: bool,
}

impl<R> Ticket<R> {
    /// A ticket that is already resolved to `resp`.
    fn ready(resp: Response<R>) -> Self {
        Self::with_state(Some(resp), true)
    }

    fn with_state(value: Option<Response<R>>, closed: bool) -> Self {
        let state = SlotState {
            value,
            waiting: false,
            closed,
        };
        Self {
            slot: Arc::new(Slot {
                state: Mutex::new(state),
                cv: Condvar::new(),
            }),
        }
    }

    /// An unresolved ticket and the resolver that will resolve it.
    fn pending() -> (Self, Resolver<R>) {
        let ticket = Self::with_state(None, false);
        let resolver = Resolver {
            slot: Some(Arc::clone(&ticket.slot)),
        };
        (ticket, resolver)
    }

    /// Wait up to `timeout` for the resolution. `None` means the engine
    /// failed to resolve in time — the load generator counts that as a
    /// contract violation, and the integration suite asserts it never
    /// happens within deadline + grace. A ticket whose resolver was
    /// dropped unresolved, or whose resolution was already taken by an
    /// earlier `wait`, returns `None` at once.
    pub fn wait(&self, timeout: Duration) -> Option<Response<R>> {
        let mut state = lock_recover(&self.slot.state);
        let mut until = None;
        loop {
            if let Some(resp) = state.value.take() {
                return Some(resp);
            }
            if state.closed {
                return None;
            }
            let now = Instant::now();
            // A timeout too large for `Instant` waits without a bound.
            let until = *until.get_or_insert_with(|| now.checked_add(timeout));
            if until.is_some_and(|t| now >= t) {
                return None;
            }
            state.waiting = true;
            state = match until {
                Some(t) => {
                    let (guard, _) = self
                        .slot
                        .cv
                        .wait_timeout(state, t - now)
                        .unwrap_or_else(|e| e.into_inner());
                    guard
                }
                None => self.slot.cv.wait(state).unwrap_or_else(|e| e.into_inner()),
            };
            state.waiting = false;
        }
    }
}

/// The engine's end of a [`Ticket`]. Resolving consumes it; dropping it
/// unresolved (say, a batch unwound with the envelope in hand) closes the
/// slot so the waiting ticket returns `None` at once instead of sitting
/// out its timeout.
struct Resolver<R> {
    /// Always `Some` until `resolve` or `drop` closes the slot.
    slot: Option<Arc<Slot<R>>>,
}

impl<R> Resolver<R> {
    fn resolve(mut self, resp: Response<R>) {
        if let Some(slot) = self.slot.take() {
            slot.close(Some(resp));
        }
    }
}

impl<R> Drop for Resolver<R> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.close(None);
        }
    }
}

impl<R> Slot<R> {
    /// Store `value` (if any), mark the slot closed, and wake the ticket
    /// only if it is asleep on the condvar. The waiter sets `waiting`
    /// under the same lock before it sleeps, so a resolution either lands
    /// before the waiter checks `value` or sees `waiting` set and signals
    /// it.
    fn close(&self, value: Option<Response<R>>) {
        let mut state = lock_recover(&self.state);
        state.value = value;
        state.closed = true;
        let waiting = state.waiting;
        drop(state);
        if waiting {
            self.cv.notify_one();
        }
    }
}

/// Cumulative engine counters (snapshot via [`Engine::stats`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests shed at admission.
    pub rejected: u64,
    /// Requests that ran out of deadline.
    pub expired: u64,
    /// Requests served Ok, by ladder rung (`Rung::LADDER` order).
    pub ok_by_rung: [u64; 3],
    /// Batch attempts executed.
    pub attempts: u64,
    /// Attempts that panicked.
    pub panics: u64,
    /// Attempts abandoned as hung.
    pub timeouts: u64,
    /// Attempts whose output failed validation.
    pub validation_failures: u64,
    /// Breaker closed→open transitions.
    pub trips: u64,
    /// Breaker half-open→closed recoveries.
    pub recoveries: u64,
    /// Message of the most recent panicked attempt, for diagnostics.
    pub last_panic: Option<String>,
}

impl EngineStats {
    /// Total requests served Ok across rungs.
    pub fn ok(&self) -> u64 {
        self.ok_by_rung.iter().sum()
    }

    /// Ok responses served below the ninja rung.
    pub fn degraded(&self) -> u64 {
        self.ok_by_rung[1] + self.ok_by_rung[2]
    }
}

struct Envelope<K: BatchKernel> {
    req: K::Req,
    enqueued: Instant,
    deadline: Instant,
    resolver: Resolver<K::Resp>,
}

/// The admission queue and the batcher's wake protocol, all under one
/// mutex: `submit` signals `queue_cv` only when it finds `idle` set, and
/// the batcher sets `idle` only while it sleeps on an empty queue.
struct Queue<K: BatchKernel> {
    items: VecDeque<Envelope<K>>,
    /// The batcher is asleep (or about to sleep) on `queue_cv`.
    idle: bool,
    /// Set by `Drop for Engine`; `submit` then rejects and the batcher
    /// expires what is left and exits.
    shutdown: bool,
}

/// Lock-free engine counters, snapshotted by [`Engine::stats`].
///
/// Every counter is a standalone monotone tally that publishes no other
/// memory, so each uses relaxed atomics. A tally that must cover a
/// resolution is bumped before the resolver runs; the ticket's mutex then
/// orders the increment before any `stats()` the caller makes after
/// `wait` returns.
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    ok_by_rung: [AtomicU64; 3],
    attempts: AtomicU64,
    panics: AtomicU64,
    timeouts: AtomicU64,
    validation_failures: AtomicU64,
    trips: AtomicU64,
    recoveries: AtomicU64,
    last_panic: Mutex<Option<String>>,
}

/// Add `n` to a counter.
fn bump(counter: &AtomicU64, n: u64) {
    // ORDERING: a standalone tally (see `Counters`); the ticket mutex,
    // not this add, orders it before a caller's later `stats()`.
    counter.fetch_add(n, Ordering::Relaxed);
}

impl Counters {
    fn snapshot(&self) -> EngineStats {
        // ORDERING: each tally is read on its own, as `Counters` says; a
        // snapshot taken mid-batch may mix counts from either side of it.
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        EngineStats {
            submitted: get(&self.submitted),
            rejected: get(&self.rejected),
            expired: get(&self.expired),
            ok_by_rung: self.ok_by_rung.each_ref().map(get),
            attempts: get(&self.attempts),
            panics: get(&self.panics),
            timeouts: get(&self.timeouts),
            validation_failures: get(&self.validation_failures),
            trips: get(&self.trips),
            recoveries: get(&self.recoveries),
            last_panic: lock_recover(&self.last_panic).clone(),
        }
    }
}

struct Shared<K: BatchKernel> {
    kernel: Arc<K>,
    config: ServeConfig,
    queue: Mutex<Queue<K>>,
    queue_cv: Condvar,
    counters: Counters,
    chaos: Mutex<Option<ChaosSchedule>>,
    /// Schedule slot consumed by the next batch attempt.
    attempt_slot: AtomicU64,
}

/// A serving engine for one kernel. Dropping the engine shuts the
/// batcher down; still-queued requests resolve as `Expired`.
pub struct Engine<K: BatchKernel> {
    shared: Arc<Shared<K>>,
    batcher: Option<std::thread::JoinHandle<()>>,
}

impl<K: BatchKernel> Engine<K> {
    /// Start an engine serving `kernel` under `config`, with chaos
    /// injection per `chaos` (`None` = faultless).
    pub fn new(kernel: K, config: ServeConfig, chaos: Option<ChaosSchedule>) -> Self {
        let shared = Arc::new(Shared {
            kernel: Arc::new(kernel),
            config,
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                idle: false,
                shutdown: false,
            }),
            queue_cv: Condvar::new(),
            counters: Counters::default(),
            chaos: Mutex::new(chaos),
            attempt_slot: AtomicU64::new(0),
        });
        let b_shared = Arc::clone(&shared);
        let name = shared.kernel.name();
        let batcher = std::thread::Builder::new()
            .name(format!("serve-batch-{name}"))
            .spawn(move || batcher_loop(b_shared))
            .expect("spawn batcher thread");
        Self {
            shared,
            batcher: Some(batcher),
        }
    }

    /// The served kernel (for client-side response verification).
    pub fn kernel(&self) -> &K {
        &self.shared.kernel
    }

    /// The engine's configuration.
    pub fn config(&self) -> ServeConfig {
        self.shared.config
    }

    /// Submit one request. Never blocks: a full queue resolves the
    /// ticket immediately as `Rejected`.
    pub fn submit(&self, req: K::Req) -> Ticket<K::Resp> {
        let now = Instant::now();
        let mut q = lock_recover(&self.shared.queue);
        if q.shutdown || q.items.len() >= self.shared.config.queue_capacity {
            drop(q);
            bump(&self.shared.counters.rejected, 1);
            return Ticket::ready(Response::Rejected);
        }
        let (ticket, resolver) = Ticket::pending();
        q.items.push_back(Envelope {
            req,
            enqueued: now,
            deadline: now + self.shared.config.deadline,
            resolver,
        });
        // Only a sleeping batcher needs the (syscall-priced) signal, and
        // one signal per sleep is enough.
        let wake = std::mem::take(&mut q.idle);
        drop(q);
        bump(&self.shared.counters.submitted, 1);
        if ninja_probe::tracing_enabled() {
            ninja_probe::instant(&format!("serve:enqueue:{}", self.shared.kernel.name()));
        }
        if wake {
            self.shared.queue_cv.notify_one();
        }
        ticket
    }

    /// Replace the chaos schedule at runtime (`None` stops injection).
    /// Lets tests prove breaker recovery after faults cease.
    pub fn set_chaos(&self, chaos: Option<ChaosSchedule>) {
        *lock_recover(&self.shared.chaos) = chaos;
    }

    /// Snapshot the cumulative counters.
    pub fn stats(&self) -> EngineStats {
        self.shared.counters.snapshot()
    }
}

impl<K: BatchKernel> Drop for Engine<K> {
    fn drop(&mut self) {
        // Set under the queue lock, so the batcher either sees it before
        // it sleeps or is already asleep and gets this signal.
        lock_recover(&self.shared.queue).shutdown = true;
        self.shared.queue_cv.notify_one();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// --- Executor supervision ------------------------------------------------

struct Job<K: BatchKernel> {
    rung: Rung,
    reqs: Vec<K::Req>,
    fault: Option<FailureMode>,
    hang_sleep: Duration,
}

enum AttemptOutcome<R> {
    Completed(Vec<R>),
    Panicked(String),
    TimedOut,
}

/// Handle to the current executor thread generation. Replaced wholesale
/// when an attempt times out: the old thread keeps its (now orphaned)
/// channels and exits on its own once its bounded work finishes.
struct ExecutorHandle<K: BatchKernel> {
    kernel: Arc<K>,
    generation: u64,
    job_tx: Sender<Job<K>>,
    result_rx: Receiver<AttemptOutcome<K::Resp>>,
}

impl<K: BatchKernel> ExecutorHandle<K> {
    fn spawn(kernel: Arc<K>, generation: u64) -> Self {
        let (job_tx, job_rx) = mpsc::channel::<Job<K>>();
        let (result_tx, result_rx) = mpsc::channel();
        let exec_kernel = Arc::clone(&kernel);
        std::thread::Builder::new()
            .name(exec_thread_name(kernel.name(), generation))
            .spawn(move || executor_loop(exec_kernel, job_rx, result_tx))
            .expect("spawn executor thread");
        Self {
            kernel,
            generation,
            job_tx,
            result_rx,
        }
    }

    /// Run one attempt, waiting at most `budget`. On timeout the current
    /// executor is abandoned (tagged for the span validator so its
    /// unclosed spans are not misread as tracer bugs) and replaced.
    fn run_attempt(
        &mut self,
        rung: Rung,
        reqs: Vec<K::Req>,
        fault: Option<FailureMode>,
        hang_sleep: Duration,
        budget: Duration,
    ) -> AttemptOutcome<K::Resp> {
        if self
            .job_tx
            .send(Job {
                rung,
                reqs,
                fault,
                hang_sleep,
            })
            .is_err()
        {
            // Executor died unexpectedly; replace and report a timeout so
            // the batch retries.
            self.replace();
            return AttemptOutcome::TimedOut;
        }
        match self.result_rx.recv_timeout(budget) {
            Ok(outcome) => outcome,
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                ninja_probe::mark_thread_abandoned(&exec_thread_name(
                    self.kernel.name(),
                    self.generation,
                ));
                self.replace();
                AttemptOutcome::TimedOut
            }
        }
    }

    fn replace(&mut self) {
        *self = Self::spawn(Arc::clone(&self.kernel), self.generation + 1);
    }
}

fn exec_thread_name(kernel: &str, generation: u64) -> String {
    format!("serve-exec-{kernel}-{generation}")
}

fn executor_loop<K: BatchKernel>(
    kernel: Arc<K>,
    job_rx: Receiver<Job<K>>,
    result_tx: Sender<AttemptOutcome<K::Resp>>,
) {
    while let Ok(job) = job_rx.recv() {
        // An injected hang stalls before any work; the batcher's attempt
        // timeout fires first and abandons this thread. The stall is
        // bounded so the abandoned thread exits rather than leaking.
        if job.fault == Some(FailureMode::Hang) {
            std::thread::sleep(job.hang_sleep);
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _span = ninja_probe::tracing_enabled()
                .then(|| ninja_probe::span(&format!("serve:exec:{}:{}", kernel.name(), job.rung)));
            if job.fault == Some(FailureMode::Panic) {
                panic!("serve-chaos: injected panic at rung {}", job.rung);
            }
            kernel.run(job.rung, &job.reqs)
        }));
        let outcome = match result {
            Ok(mut out) => {
                match job.fault {
                    Some(FailureMode::NonFinite) | Some(FailureMode::WrongOutput) => {
                        // Corrupt one response — exactly the subtle fault
                        // validation must catch before delivery.
                        if let Some(mid) = out.len().checked_sub(1).map(|n| n / 2) {
                            kernel.corrupt(&mut out[mid], job.fault.unwrap());
                        }
                    }
                    _ => {}
                }
                AttemptOutcome::Completed(out)
            }
            Err(payload) => AttemptOutcome::Panicked(panic_message(payload.as_ref())),
        };
        if result_tx.send(outcome).is_err() {
            // Abandoned: the batcher gave up on this generation.
            return;
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

// --- Batcher -------------------------------------------------------------

struct Member<K: BatchKernel> {
    env: Envelope<K>,
    reference: K::Resp,
}

fn batcher_loop<K: BatchKernel>(shared: Arc<Shared<K>>) {
    let mut breakers = [
        Breaker::new(
            shared.config.breaker_threshold,
            shared.config.breaker_cooldown,
        ),
        Breaker::new(
            shared.config.breaker_threshold,
            shared.config.breaker_cooldown,
        ),
    ];
    let mut executor = ExecutorHandle::spawn(Arc::clone(&shared.kernel), 0);
    loop {
        let mut q = lock_recover(&shared.queue);
        // No poll timeout: `submit` pushes and reads `idle` under this
        // lock, so a request either is seen here before the batcher
        // sleeps or finds `idle` set and signals it.
        while q.items.is_empty() && !q.shutdown {
            q.idle = true;
            q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            q.idle = false;
        }
        if q.shutdown {
            // Resolve anything still queued so no ticket dangles.
            let leftovers: Vec<_> = q.items.drain(..).collect();
            drop(q);
            bump(&shared.counters.expired, leftovers.len() as u64);
            for env in leftovers {
                env.resolver.resolve(Response::Expired);
            }
            return;
        }
        let take = q.items.len().min(shared.config.max_batch);
        let batch: Vec<Envelope<K>> = q.items.drain(..take).collect();
        drop(q);
        process_batch(&shared, &mut breakers, &mut executor, batch);
    }
}

/// Pick the best rung the breakers currently allow. Scalar is the
/// unconditional floor.
fn choose_rung(breakers: &mut [Breaker; 2], now: Instant) -> Rung {
    if breakers[0].allows(now) {
        Rung::Ninja
    } else if breakers[1].allows(now) {
        Rung::Simd
    } else {
        Rung::Scalar
    }
}

fn process_batch<K: BatchKernel>(
    shared: &Shared<K>,
    breakers: &mut [Breaker; 2],
    executor: &mut ExecutorHandle<K>,
    batch: Vec<Envelope<K>>,
) {
    let kernel = &shared.kernel;
    let cfg = &shared.config;
    let _batch_span = ninja_probe::tracing_enabled()
        .then(|| ninja_probe::span(&format!("serve:batch:{}", kernel.name())));
    let picked_up = Instant::now();

    // Trusted reference, computed once on this thread (never injected)
    // and reused across retries. This is what makes "zero incorrect
    // responses" enforceable: nothing resolves Ok without matching it.
    let reqs: Vec<K::Req> = batch.iter().map(|e| e.req.clone()).collect();
    let reference = kernel.run(Rung::Scalar, &reqs);
    let mut members: Vec<Member<K>> = batch
        .into_iter()
        .zip(reference)
        .map(|(env, reference)| Member { env, reference })
        .collect();

    let mut attempt_no: u32 = 0;
    loop {
        // Expire members whose deadline has passed.
        let now = Instant::now();
        let (expired, live): (Vec<_>, Vec<_>) =
            members.into_iter().partition(|m| now >= m.env.deadline);
        if !expired.is_empty() {
            bump(&shared.counters.expired, expired.len() as u64);
            for m in expired {
                m.env.resolver.resolve(Response::Expired);
            }
        }
        members = live;
        if members.is_empty() {
            return;
        }

        let rung = choose_rung(breakers, now);
        // ORDERING: fault-schedule slot allocator; atomicity gives each
        // attempt a distinct slot and no other state hangs off it.
        let slot = shared.attempt_slot.fetch_add(1, Ordering::Relaxed);
        let fault = lock_recover(&shared.chaos).and_then(|s| s.fault_at(slot));
        let last_deadline = members
            .iter()
            .map(|m| m.env.deadline)
            .max()
            .expect("members nonempty");
        let budget = last_deadline.saturating_duration_since(now) + cfg.attempt_grace;
        let attempt_reqs: Vec<K::Req> = members.iter().map(|m| m.env.req.clone()).collect();

        bump(&shared.counters.attempts, 1);
        let outcome = executor.run_attempt(rung, attempt_reqs, fault, cfg.hang_sleep, budget);

        let failure = match outcome {
            AttemptOutcome::Completed(out)
                if out.len() == members.len()
                    && out
                        .iter()
                        .zip(members.iter())
                        .all(|(got, m)| kernel.matches(got, &m.reference)) =>
            {
                // Validated: resolve every live member.
                let resolved = Instant::now();
                let counters = &shared.counters;
                bump(&counters.ok_by_rung[rung.index()], members.len() as u64);
                if rung != Rung::Scalar && breakers[rung.index()].record_success() {
                    bump(&counters.recoveries, 1);
                }
                for (m, value) in members.into_iter().zip(out) {
                    let queue_us = picked_up.duration_since(m.env.enqueued).as_micros() as u64;
                    let total_us = resolved.duration_since(m.env.enqueued).as_micros() as u64;
                    m.env.resolver.resolve(Response::Ok {
                        value,
                        rung,
                        queue_us,
                        total_us,
                    });
                }
                return;
            }
            AttemptOutcome::Completed(_) => {
                bump(&shared.counters.validation_failures, 1);
                "validation"
            }
            AttemptOutcome::Panicked(message) => {
                *lock_recover(&shared.counters.last_panic) = Some(message);
                bump(&shared.counters.panics, 1);
                "panic"
            }
            AttemptOutcome::TimedOut => {
                bump(&shared.counters.timeouts, 1);
                "timeout"
            }
        };
        if ninja_probe::tracing_enabled() {
            ninja_probe::instant(&format!(
                "serve:fault:{}:{}:{}",
                kernel.name(),
                rung,
                failure
            ));
        }
        if rung != Rung::Scalar && breakers[rung.index()].record_failure(Instant::now()) {
            bump(&shared.counters.trips, 1);
        }

        // Capped exponential backoff, clipped to the remaining deadline
        // budget so a retry never pushes resolution past
        // deadline + grace + one backoff.
        let backoff = cfg
            .backoff_base
            .saturating_mul(1u32 << attempt_no.min(10))
            .min(cfg.backoff_cap);
        let remaining = last_deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(backoff.min(remaining));
        attempt_no += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal kernel: response = request + 1000 at every rung.
    struct AddK;

    impl BatchKernel for AddK {
        type Req = u32;
        type Resp = u32;

        fn name(&self) -> &'static str {
            "addk"
        }

        fn run(&self, _rung: Rung, reqs: &[u32]) -> Vec<u32> {
            reqs.iter().map(|r| r + 1000).collect()
        }

        fn matches(&self, got: &u32, reference: &u32) -> bool {
            got == reference
        }

        fn corrupt(&self, resp: &mut u32, _mode: FailureMode) {
            *resp = resp.wrapping_add(7);
        }
    }

    fn wait_budget(cfg: &ServeConfig) -> Duration {
        cfg.deadline + cfg.attempt_grace + cfg.backoff_cap + Duration::from_millis(500)
    }

    #[test]
    fn faultless_requests_serve_ok_on_ninja() {
        let engine = Engine::new(AddK, ServeConfig::default(), None);
        let tickets: Vec<_> = (0..100u32).map(|i| (i, engine.submit(i))).collect();
        let budget = wait_budget(&engine.config());
        for (i, t) in tickets {
            match t.wait(budget) {
                Some(Response::Ok { value, rung, .. }) => {
                    assert_eq!(value, i + 1000);
                    assert_eq!(rung, Rung::Ninja);
                }
                other => panic!("request {i}: unexpected {other:?}"),
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.ok(), 100);
        assert_eq!(stats.rejected + stats.expired, 0);
        assert_eq!(stats.trips, 0);
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let cfg = ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        let engine = Engine::new(AddK, cfg, None);
        for i in 0..10 {
            let t = engine.submit(i);
            assert_eq!(t.wait(Duration::from_secs(1)), Some(Response::Rejected));
        }
        assert_eq!(engine.stats().rejected, 10);
    }

    #[test]
    fn full_fault_rate_degrades_but_never_lies() {
        // Every attempt faults: panics, hangs, NaNs, and wrong outputs in
        // the deterministic schedule mix. Scalar retries eventually win
        // inside the deadline or the request expires — but no wrong value
        // is ever delivered.
        let cfg = ServeConfig {
            deadline: Duration::from_millis(120),
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(60),
            attempt_grace: Duration::from_millis(30),
            hang_sleep: Duration::from_millis(400),
            ..ServeConfig::default()
        };
        let engine = Engine::new(AddK, cfg, Some(ChaosSchedule::new(11, 1.0)));
        let tickets: Vec<_> = (0..40u32).map(|i| (i, engine.submit(i))).collect();
        let budget = wait_budget(&cfg);
        let mut ok = 0;
        for (i, t) in tickets {
            match t.wait(budget) {
                Some(Response::Ok { value, .. }) => {
                    assert_eq!(value, i + 1000, "wrong value delivered");
                    ok += 1;
                }
                Some(Response::Expired) | Some(Response::Rejected) => {}
                None => panic!("request {i} never resolved within budget"),
            }
        }
        let stats = engine.stats();
        // Wrong/NaN faults were caught by validation, never delivered.
        assert!(stats.validation_failures > 0 || stats.panics > 0 || stats.timeouts > 0);
        // At 100% fault rate nothing can validate; ok must be 0 and every
        // failure accounted as expired.
        assert_eq!(ok, 0);
        assert_eq!(stats.expired, 40);
    }

    #[test]
    fn chaos_off_switch_restores_clean_service() {
        let cfg = ServeConfig {
            deadline: Duration::from_millis(100),
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(20),
            hang_sleep: Duration::from_millis(300),
            ..ServeConfig::default()
        };
        let engine = Engine::new(AddK, cfg, Some(ChaosSchedule::new(5, 1.0)));
        let t = engine.submit(1);
        let _ = t.wait(wait_budget(&cfg));
        engine.set_chaos(None);
        std::thread::sleep(cfg.breaker_cooldown + Duration::from_millis(5));
        let t = engine.submit(2);
        match t.wait(wait_budget(&cfg)) {
            Some(Response::Ok { value, .. }) => assert_eq!(value, 1002),
            other => panic!("post-chaos request failed: {other:?}"),
        }
    }

    #[test]
    fn shutdown_resolves_queued_tickets() {
        // A kernel slow enough that the queue still holds requests when
        // the engine drops.
        struct SlowK;
        impl BatchKernel for SlowK {
            type Req = u32;
            type Resp = u32;
            fn name(&self) -> &'static str {
                "slowk"
            }
            fn run(&self, _rung: Rung, reqs: &[u32]) -> Vec<u32> {
                std::thread::sleep(Duration::from_millis(20));
                reqs.to_vec()
            }
            fn matches(&self, got: &u32, reference: &u32) -> bool {
                got == reference
            }
            fn corrupt(&self, _resp: &mut u32, _mode: FailureMode) {}
        }
        let cfg = ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        };
        let engine = Engine::new(SlowK, cfg, None);
        let tickets: Vec<_> = (0..20u32).map(|i| engine.submit(i)).collect();
        drop(engine);
        for t in tickets {
            assert!(
                t.wait(Duration::from_secs(2)).is_some(),
                "ticket dangled across shutdown"
            );
        }
    }

    #[test]
    fn serial_round_trips_never_lose_a_wake_up() {
        // Each request finds the batcher asleep on an empty queue, so
        // every one depends on `submit`'s signal. The batcher has no poll
        // timeout: a lost signal strands the ticket and fails here.
        let engine = Engine::new(AddK, ServeConfig::default(), None);
        let budget = wait_budget(&engine.config());
        for i in 0..2_000u32 {
            match engine.submit(i).wait(budget) {
                Some(Response::Ok { value, .. }) => assert_eq!(value, i + 1000),
                other => panic!("round trip {i}: {other:?}"),
            }
        }
        assert_eq!(engine.stats().ok(), 2_000);
    }

    type Resp = Response<u32>;

    /// A wait that only a missed signal could sit out.
    const LONG: Duration = Duration::from_secs(60);

    fn ok(value: u32) -> Resp {
        Response::Ok {
            value,
            rung: Rung::Ninja,
            queue_us: 0,
            total_us: 0,
        }
    }

    /// Block until `ticket` is asleep in `wait`, so the caller acts on a
    /// sleeping waiter without sleeping itself.
    fn until_waiting(ticket: &Ticket<u32>) {
        while !lock_recover(&ticket.slot.state).waiting {
            std::thread::yield_now();
        }
    }

    #[test]
    fn ticket_resolved_before_wait() {
        let (ticket, resolver) = Ticket::pending();
        resolver.resolve(ok(7));
        assert_eq!(ticket.wait(Duration::ZERO), Some(ok(7)));
    }

    #[test]
    fn ticket_resolved_during_wait() {
        let (ticket, resolver) = Ticket::pending();
        let start = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                until_waiting(&ticket);
                resolver.resolve(ok(8));
            });
            assert_eq!(ticket.wait(LONG), Some(ok(8)));
        });
        // Woken by the resolver, not by the timeout.
        assert!(start.elapsed() < LONG / 2, "{:?}", start.elapsed());
    }

    #[test]
    fn ticket_times_out_unresolved() {
        let (ticket, _resolver) = Ticket::<u32>::pending();
        let timeout = Duration::from_millis(20);
        let start = Instant::now();
        assert_eq!(ticket.wait(timeout), None);
        assert!(start.elapsed() >= timeout);
        assert!(!lock_recover(&ticket.slot.state).waiting);
    }

    #[test]
    fn ticket_with_dropped_resolver_returns_none_at_once() {
        // Dropped before the wait.
        let (ticket, resolver) = Ticket::<u32>::pending();
        drop(resolver);
        let start = Instant::now();
        assert_eq!(ticket.wait(LONG), None);
        // Dropped while the ticket sleeps.
        let (ticket, resolver) = Ticket::<u32>::pending();
        std::thread::scope(|s| {
            s.spawn(|| {
                until_waiting(&ticket);
                drop(resolver);
            });
            assert_eq!(ticket.wait(LONG), None);
        });
        assert!(start.elapsed() < LONG / 2, "{:?}", start.elapsed());
    }

    #[test]
    fn second_wait_after_resolution_returns_none_at_once() {
        let (ticket, resolver) = Ticket::pending();
        resolver.resolve(ok(9));
        assert_eq!(ticket.wait(Duration::ZERO), Some(ok(9)));
        let start = Instant::now();
        assert_eq!(ticket.wait(LONG), None);
        let rejected = Ticket::<u32>::ready(Response::Rejected);
        assert_eq!(rejected.wait(Duration::ZERO), Some(Response::Rejected));
        assert_eq!(rejected.wait(LONG), None);
        assert!(start.elapsed() < LONG / 2, "{:?}", start.elapsed());
    }
}
