//! The `serve-closed` and `serve-open` workloads: a Black-Scholes
//! `Engine` with `ServeConfig::default()`, loaded from one benchmark
//! thread, with every `Ok` re-verified against `price_contract`.
//!
//! Under saturation the batcher, the executor, the pool worker and this
//! load thread share the host's two cores, so a layer that frees CPU can
//! save more than its own self time on `serve-closed`.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ninja_kernels::black_scholes::{price_contract, OptionContract};
use ninja_kernels::chaos::FailureMode;
use ninja_parallel::ThreadPool;
use ninja_serve::{BatchKernel, BlackScholesServe, Engine, Response, Rung, ServeConfig, Ticket};

use crate::cpus;
use crate::spans::enter;
use crate::stats::Tally;

/// Requests kept in flight by the closed loop: one full `max_batch`.
pub const IN_FLIGHT: usize = 64;

/// Offered rate of the open loop, about 4% of the closed-loop
/// throughput, so batches hold about one request.
pub const OPEN_RATE: f64 = 20_000.0;

/// How long before a due time the open loop stops blocking and spins.
/// Blocking the whole gap woke the generator late; spinning much longer
/// took CPU from the engine and raised its latency.
const SPIN: Duration = Duration::from_micros(10);

/// Pool threads behind the engine's ninja rung. One worker gave steadier
/// throughput than two on a 2-core host, where the batcher, executor and
/// load thread already compete for the cores.
pub const POOL_THREADS: usize = 1;

/// Distinct contracts a run cycles through, each with its expected
/// `(call, put)` computed once.
pub struct Book {
    reqs: Vec<OptionContract>,
    expected: Vec<(f32, f32)>,
}

/// splitmix64: a small, seedable generator for request inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64, lo: f32, hi: f32) -> f32 {
    let u = (splitmix(state) >> 40) as f32 / (1u64 << 24) as f32;
    lo + (hi - lo) * u
}

impl Book {
    /// `n` contracts drawn from `seed`, over the same ranges as the
    /// Black-Scholes kernel's own option book.
    pub fn new(seed: u64, n: usize) -> Self {
        let mut s = seed;
        let reqs: Vec<OptionContract> = (0..n)
            .map(|_| OptionContract {
                spot: uniform(&mut s, 5.0, 120.0),
                strike: uniform(&mut s, 10.0, 100.0),
                years: uniform(&mut s, 0.1, 5.0),
                rate: uniform(&mut s, 0.01, 0.08),
                vol: uniform(&mut s, 0.05, 0.6),
            })
            .collect();
        let expected = reqs.iter().map(price_contract).collect();
        Self { reqs, expected }
    }

    /// The request with id `id` (the book repeats).
    pub fn req(&self, id: u64) -> &OptionContract {
        &self.reqs[id as usize % self.reqs.len()]
    }

    fn expected(&self, id: u64) -> &(f32, f32) {
        &self.expected[id as usize % self.expected.len()]
    }

    /// The first `n` requests and their expected responses.
    pub fn batch(&self, n: usize) -> (&[OptionContract], &[(f32, f32)]) {
        (&self.reqs[..n], &self.expected[..n])
    }
}

/// The engine and the pool its ninja rung runs on.
pub struct Server {
    /// The pool behind the ninja rung.
    pub pool: Arc<ThreadPool>,
    /// The engine under test.
    pub engine: Engine<BlackScholesServe>,
    /// Where the engine's threads and the load thread run, if pinned.
    pub split: Option<cpus::Split>,
}

impl Server {
    /// Starts the pool and the engine.
    pub fn start() -> Self {
        let _span = enter(|| "setup/engine".into());
        let split = cpus::split();
        let _pin = split.map(|s| cpus::pin(s.engine));
        let pool = Arc::new(ThreadPool::with_threads(POOL_THREADS));
        let kernel = BlackScholesServe::new(Arc::clone(&pool));
        let engine = Engine::new(kernel, ServeConfig::default(), None);
        Self {
            pool,
            engine,
            split,
        }
    }

    /// How long to wait for a ticket before counting it unresolved: the
    /// engine's deadline, attempt grace and one backoff, plus slack.
    fn resolve_budget(&self) -> Duration {
        let c = self.engine.config();
        c.deadline + c.attempt_grace + c.backoff_cap + Duration::from_millis(250)
    }
}

/// When a phase stops sending.
#[derive(Copy, Clone, Debug)]
pub enum Stop {
    /// After this many seconds (of sending, for the closed loop; of due
    /// times, for the open loop).
    Seconds(f64),
    /// After this many requests.
    Requests(u64),
}

impl Stop {
    fn done(self, elapsed_s: f64, sent: u64) -> bool {
        match self {
            Stop::Seconds(s) => elapsed_s >= s,
            Stop::Requests(n) => sent >= n,
        }
    }
}

/// What one phase observed.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Every request, counted once when it resolves.
    pub tally: Tally,
    /// Validated `Ok` responses.
    pub ok: u64,
    /// Shed at admission.
    pub rejected: u64,
    /// Resolved as expired.
    pub expired: u64,
    /// Not resolved within the budget.
    pub unresolved: u64,
    /// `Ok` responses that disagree with `price_contract`.
    pub incorrect: u64,
    /// `Ok` responses served below the ninja rung.
    pub degraded: u64,
    /// Latency of each validated `Ok`, in microseconds: from the submit
    /// call (closed loop) or the due time (open loop) to the moment the
    /// load thread saw the response.
    pub latency_us: Vec<f64>,
    /// Engine-reported queue wait of each `Ok`, in microseconds.
    pub queue_us: Vec<f64>,
    /// Engine-reported time after pickup (`total_us - queue_us`).
    pub exec_us: Vec<f64>,
    /// How late each open-loop submit call started, in microseconds.
    pub late_us: Vec<f64>,
    /// Total nanoseconds inside `Engine::submit`, and the call count.
    pub submit_ns: (f64, u64),
    /// First submit to last resolution, in seconds.
    pub elapsed_s: f64,
    /// Engine `ok` and `attempts` counter deltas over the phase.
    pub engine_ok: u64,
    /// See `engine_ok`.
    pub engine_attempts: u64,
}

impl Phase {
    fn settle(
        &mut self,
        server: &Server,
        book: &Book,
        id: u64,
        resp: Option<Response<(f32, f32)>>,
        latency_us: f64,
        inject_wrong: bool,
    ) {
        match resp {
            Some(Response::Ok {
                mut value,
                rung,
                queue_us,
                total_us,
            }) => {
                let kernel = server.engine.kernel();
                if inject_wrong && self.ok + self.incorrect == 0 {
                    kernel.corrupt(&mut value, FailureMode::WrongOutput);
                }
                let _span = enter(|| format!("serve/verify#{id}"));
                if !kernel.matches(&value, book.expected(id)) {
                    self.incorrect += 1;
                    self.tally.record(false);
                    return;
                }
                self.ok += 1;
                self.tally.record(true);
                if rung != Rung::Ninja {
                    self.degraded += 1;
                }
                self.latency_us.push(latency_us);
                self.queue_us.push(queue_us as f64);
                self.exec_us.push(total_us.saturating_sub(queue_us) as f64);
            }
            Some(Response::Rejected) => {
                self.rejected += 1;
                self.tally.record(false);
            }
            Some(Response::Expired) => {
                self.expired += 1;
                self.tally.record(false);
            }
            None => {
                self.unresolved += 1;
                self.tally.record(false);
            }
        }
    }

    fn submit(&mut self, server: &Server, book: &Book, id: u64) -> Ticket<(f32, f32)> {
        let _span = enter(|| format!("serve/submit#{id}"));
        let t = Instant::now();
        let ticket = server.engine.submit(*book.req(id));
        self.submit_ns.0 += t.elapsed().as_nanos() as f64;
        self.submit_ns.1 += 1;
        ticket
    }

    fn finish(&mut self, server: &Server, before: &ninja_serve::EngineStats, start: Instant) {
        self.elapsed_s = start.elapsed().as_secs_f64();
        let after = server.engine.stats();
        self.engine_ok = after.ok() - before.ok();
        self.engine_attempts = after.attempts - before.attempts;
    }

    /// Validated `Ok` responses per second.
    pub fn ok_rps(&self) -> f64 {
        self.ok as f64 / self.elapsed_s
    }
}

/// Serves `n` closed-loop requests to warm a fresh engine up.
pub fn warm_up(server: &Server, book: &Book, n: u64) -> Phase {
    let _span = enter(|| "setup/warmup".into());
    closed(server, book, Stop::Requests(n), false)
}

/// Outstanding requests, oldest first: id, submit or due instant, ticket.
type Pending = VecDeque<(u64, Instant, Ticket<(f32, f32)>)>;

/// Closed loop: [`IN_FLIGHT`] requests always outstanding; each
/// completed ticket is replaced at once.
pub fn closed(server: &Server, book: &Book, stop: Stop, inject_wrong: bool) -> Phase {
    let _span = enter(|| "loadgen/closed".into());
    let _pin = server.split.map(|s| cpus::pin(s.load));
    let budget = server.resolve_budget();
    let before = server.engine.stats();
    let mut phase = Phase::default();
    let mut pending = Pending::with_capacity(IN_FLIGHT);
    let start = Instant::now();
    let mut sent = 0u64;
    while pending.len() < IN_FLIGHT && !stop.done(0.0, sent) {
        let submitted = Instant::now();
        pending.push_back((sent, submitted, phase.submit(server, book, sent)));
        sent += 1;
    }
    while let Some((id, submitted, ticket)) = pending.pop_front() {
        let resp = {
            let _span = enter(|| format!("serve/wait#{id}"));
            ticket.wait(budget)
        };
        let latency_us = submitted.elapsed().as_secs_f64() * 1e6;
        phase.settle(server, book, id, resp, latency_us, inject_wrong);
        if !stop.done(start.elapsed().as_secs_f64(), sent) {
            let submitted = Instant::now();
            pending.push_back((sent, submitted, phase.submit(server, book, sent)));
            sent += 1;
        }
    }
    phase.finish(server, &before, start);
    phase
}

/// Open loop at `rate` requests per second. Request `i` is due at
/// `i / rate` seconds; between due times the load thread settles
/// resolved tickets, and latency counts from the due time, so a stalled
/// generator shows up as latency.
pub fn open(server: &Server, book: &Book, rate: f64, stop: Stop, inject_wrong: bool) -> Phase {
    let _span = enter(|| "loadgen/open".into());
    let _pin = server.split.map(|s| cpus::pin(s.load));
    let _timers = cpus::precise_timers();
    let budget = server.resolve_budget();
    let before = server.engine.stats();
    let mut phase = Phase::default();
    let mut pending = Pending::new();
    let start = Instant::now();
    let mut sent = 0u64;
    loop {
        let due_s = sent as f64 / rate;
        if stop.done(due_s, sent) {
            break;
        }
        let due = start + Duration::from_secs_f64(due_s);
        // Until the request is due: block on the oldest ticket (so a
        // response is seen as soon as it is sent) and spin only for the
        // last few microseconds, so this thread leaves the engine a core.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            let Some((_, _, ticket)) = pending.front() else {
                if left > SPIN {
                    std::thread::sleep(left - SPIN);
                } else {
                    std::hint::spin_loop();
                }
                continue;
            };
            let block = if left > SPIN {
                left - SPIN
            } else {
                Duration::ZERO
            };
            if let Some(resp) = ticket.wait(block) {
                let (id, due, _) = pending.pop_front().expect("front exists");
                let latency_us = due.elapsed().as_secs_f64() * 1e6;
                phase.settle(server, book, id, Some(resp), latency_us, inject_wrong);
            }
        }
        phase.late_us.push(due.elapsed().as_secs_f64() * 1e6);
        let ticket = phase.submit(server, book, sent);
        pending.push_back((sent, due, ticket));
        sent += 1;
    }
    for (id, due, ticket) in pending {
        let resp = ticket.wait(budget);
        let latency_us = due.elapsed().as_secs_f64() * 1e6;
        phase.settle(server, book, id, resp, latency_us, inject_wrong);
    }
    phase.finish(server, &before, start);
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn book_is_seeded() {
        let a = Book::new(7, 16);
        let b = Book::new(7, 16);
        let c = Book::new(8, 16);
        assert_eq!(a.reqs.len(), 16);
        assert!(a.reqs.iter().zip(&b.reqs).all(|(x, y)| x.spot == y.spot));
        assert!(a.reqs.iter().zip(&c.reqs).any(|(x, y)| x.spot != y.spot));
        assert!(a.reqs.iter().all(|r| (5.0..=120.0).contains(&r.spot)));
        assert_eq!(a.req(16).spot, a.req(0).spot);
    }
}
