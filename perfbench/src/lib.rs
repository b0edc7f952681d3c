//! End-to-end and per-layer benchmark of the ninja-gap workspace.
//!
//! Three workloads drive the workspace's public entry points:
//!
//! * `ladder`: the ten registry kernels at all five rungs, closed loop
//!   (see [`ladder`]);
//! * `serve-closed`: the Black-Scholes serving engine with a full batch
//!   always in flight (see [`serve::closed`]);
//! * `serve-open`: the same engine at a fixed offered rate, timed from
//!   each request's due time (see [`serve::open`]).
//!
//! An untraced run prints the end-to-end metrics of [`report::end_to_end`];
//! a traced run prints the per-layer metrics of [`report::per_layer`].
//! `README.md` beside this crate explains the choices.

pub mod cpus;
pub mod host;
pub mod ladder;
pub mod probes;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use std::path::PathBuf;
use std::time::Instant;

use ninja_kernels::{ProblemSize, Variant};

use crate::ladder::{Ladder, Samples};
use crate::probes::Probes;
use crate::serve::{Book, Phase, Server, Stop, OPEN_RATE};
use crate::stats::{geomean, median, percentile, Tally};

/// The benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every kernel at every rung.
    Ladder,
    /// The serving engine, closed loop.
    ServeClosed,
    /// The serving engine, open loop.
    ServeOpen,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Ladder, Workload::ServeClosed, Workload::ServeOpen];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ladder => "ladder",
            Workload::ServeClosed => "serve-closed",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Parses a name produced by [`Workload::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the untraced run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Kernel input size; `Quick` for measurement, `Test` for self-tests.
    pub size: ProblemSize,
    /// Corrupt one output, to show that the checks catch it.
    pub inject_wrong: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_dir: PathBuf,
}

impl Config {
    fn is_test(&self) -> bool {
        self.size == ProblemSize::Test
    }

    /// Distinct contracts in the request book.
    fn book_len(&self) -> usize {
        if self.is_test() {
            1 << 10
        } else {
            1 << 16
        }
    }

    /// Closed-loop requests served to warm an engine up.
    fn warmup_requests(&self) -> u64 {
        if self.is_test() {
            512
        } else {
            16_384
        }
    }

    /// Requests in each serve phase of a traced run.
    fn trace_requests(&self) -> u64 {
        if self.is_test() {
            2_000
        } else {
            10_000
        }
    }
}

/// Least number of set-ups, one per round, in an untraced `ladder` run.
const LADDER_SETUPS: usize = 3;
/// Engines, each started and warmed up afresh and then loaded for an
/// equal share of the run, in an untraced serve run.
const SERVE_WINDOWS: usize = 20;

/// A finished run: the operations it counted, its metrics, and the
/// human-readable report printed above the result line.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
    /// Report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    fn say(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The result line for this run's mode.
    pub fn json_line(&self, trace: bool) -> Result<String, String> {
        let expected = if trace {
            report::per_layer()
        } else {
            report::end_to_end()
        };
        report::json_line(self.tally, &self.metrics, &expected)
    }
}

fn pct(sorted: &[f64], q: f64, what: &str) -> Result<f64, String> {
    percentile(sorted, q).ok_or_else(|| {
        format!(
            "{what}: {} samples are too few for p{} (need {} beyond it)",
            sorted.len(),
            q * 100.0,
            stats::MIN_BEYOND
        )
    })
}

/// Prints every percentile that has enough samples beyond it, each
/// with the sample count.
fn percentiles(out: &mut Outcome, sorted_us: &[f64], what: &str) {
    for q in [0.5, 0.9, 0.99, 0.999] {
        let p = q * 100.0;
        let n = sorted_us.len();
        out.say(match percentile(sorted_us, q) {
            Some(v) => format!("{what}: p{p} = {v:.2} us (n={n})"),
            None => format!(
                "{what}: p{p} has fewer than {} of {n} samples beyond it",
                stats::MIN_BEYOND
            ),
        });
    }
}

/// Values of one metric per round or per engine, for the report.
fn list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.2}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Steal shares as percentages, NaN where unknown, for the report.
fn percent(shares: &[Option<f64>]) -> Vec<f64> {
    shares
        .iter()
        .map(|s| s.map_or(f64::NAN, |s| 100.0 * s))
        .collect()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Runs one workload. An error means an output was wrong or the run
/// could not measure what it must; no result line is printed then.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if cfg.trace {
        traced(cfg)
    } else {
        match cfg.workload {
            Workload::Ladder => untraced_ladder(cfg),
            Workload::ServeClosed | Workload::ServeOpen => untraced_serve(cfg),
        }
    }
}

fn untraced_ladder(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Each round runs on a ladder set up afresh (pool, inputs and
    // validation), so a run averages over as many input allocations and
    // thread placements as it has rounds. There are as many rounds as
    // come closest to the time asked for, judged by the first one, and at
    // least LADDER_SETUPS, whose median is `setup_s`. The figures pool
    // the runs of the least-stolen half of the rounds (see
    // `untraced_serve`).
    let mut setups = Vec::new();
    let mut per_round: Vec<Samples> = Vec::new();
    let mut steal = Vec::new();
    let mut rounds = LADDER_SETUPS;
    let mut ladder = None;
    while per_round.len() < rounds {
        // Drop the previous ladder first, so set-ups do not overlap.
        drop(ladder.take());
        let (mut l, times, tally) = Ladder::setup(cfg.size, cfg.seed, cfg.inject_wrong)?;
        setups.push(times.total_s);
        out.tally.add(tally);
        let mut samples = Samples::default();
        let start = Instant::now();
        let (done, share) = host::steal_during(|| l.round(&mut samples, &mut out.tally));
        done?;
        if per_round.is_empty() {
            let secs = start.elapsed().as_secs_f64();
            rounds = rounds.max((cfg.seconds / secs).round() as usize);
        }
        steal.push(share);
        per_round.push(samples);
        ladder = Some(l);
    }
    let ladder = ladder.expect("at least one round");
    let kept = host::least_stolen_half(&steal);
    let mut all = Samples::default();
    for &i in &kept {
        all.extend(&per_round[i]);
    }
    let rps: Vec<f64> = per_round
        .iter()
        .map(|r| r.runs() as f64 / r.seconds())
        .collect();
    out.say(format!(
        "ladder: {rounds} rounds of {} runs over {} cells; ok_rps per round {} | steal % {} | \
         kept {kept:?}, {:.2} s timed",
        per_round[0].runs(),
        5 * ladder.names().len(),
        list(&rps),
        list(&percent(&steal)),
        all.seconds()
    ));
    let sum = summarize(&mut out, &ladder, &all)?;
    // Each cell is a different operation, so percentiles are taken per
    // cell and then combined: p50 is the geometric mean over cells of
    // each cell's median, and p90 scales it by the p90 of every run's
    // time over its own cell's median. Percentiles of the pooled mix fell
    // between two cells' run times and jumped between them from run to
    // run.
    let cell_us: Vec<f64> = sum.cell_ms.iter().flatten().map(|ms| ms * 1e3).collect();
    let p50_us = geomean(&cell_us).ok_or("no ladder cell was timed")?;
    let mut ratio: Vec<f64> = all
        .cells
        .iter()
        .zip(&sum.cell_ms)
        .flat_map(|(runs, med_ms)| {
            runs.iter()
                .zip(med_ms)
                .flat_map(|(runs, m)| runs.iter().map(move |t| t * 1e3 / m))
        })
        .collect();
    ratio.sort_by(f64::total_cmp);
    let p90_ratio = pct(&ratio, 0.9, "ladder")?;
    out.say(format!(
        "p90 of run time over its cell's median = {p90_ratio:.4} (n={})",
        ratio.len()
    ));
    out.put("ok_rps", all.runs() as f64 / all.seconds());
    out.put("p50_us", p50_us);
    out.put("p90_us", p50_us * p90_ratio);
    let us = all.sorted_us();
    percentiles(&mut out, &us, "run latency, all cells pooled");
    out.put("setup_s", median(&setups).expect("LADDER_SETUPS > 0"));
    Ok(out)
}

/// Per-cell medians, per-rung geometric means, gap and residual.
struct LadderSummary {
    /// `cell_ms[k][v]`: median run time of kernel `k` at rung `v`.
    cell_ms: Vec<[f64; 5]>,
    /// Geometric mean over kernels of runs per second, per rung.
    rung: [f64; 5],
    /// Geometric mean over kernels of naive / ninja time.
    gap: f64,
    /// Geometric mean over kernels of algorithmic / ninja time.
    residual: f64,
}

fn summarize(out: &mut Outcome, ladder: &Ladder, s: &Samples) -> Result<LadderSummary, String> {
    let mut cell_ms = Vec::new();
    for (k, name) in ladder.names().iter().enumerate() {
        let mut row = [0.0f64; 5];
        for v in Variant::ALL {
            row[v as usize] = median(&s.cells[k][v as usize])
                .ok_or_else(|| format!("{name}/{v} has no successful run"))?
                * 1e3;
        }
        cell_ms.push(row);
    }
    let geo = |f: &dyn Fn(&[f64; 5]) -> f64| -> Result<f64, String> {
        geomean(&cell_ms.iter().map(f).collect::<Vec<_>>()).ok_or("no ladder cell was timed".into())
    };
    let mut rung = [0.0f64; 5];
    for v in Variant::ALL {
        rung[v as usize] = geo(&|c| 1e3 / c[v as usize])?;
        out.say(format!("{}_runs_per_s = {:.3}", v.name(), rung[v as usize]));
    }
    let ninja = Variant::Ninja as usize;
    let gap = geo(&|c| c[Variant::Naive as usize] / c[ninja])?;
    let residual = geo(&|c| c[Variant::Algorithmic as usize] / c[ninja])?;
    out.say(format!(
        "gap (naive/ninja) = {gap:.2}x, residual (algorithmic/ninja) = {residual:.2}x  \
         [derived, not gated]"
    ));
    Ok(LadderSummary {
        cell_ms,
        rung,
        gap,
        residual,
    })
}

/// Splits the measured time over [`SERVE_WINDOWS`] engines, each started
/// and warmed up afresh, and reports the median over the half of the
/// engines whose load saw the least steal. On a shared 2-vCPU host the
/// hypervisor at times took a fifth of the CPU for seconds on end; the
/// open loop then fell behind by milliseconds, and a p90 of 30 us read
/// as 3 ms. Steal is measured outside the program, so choosing engines
/// by it favours neither of two builds being compared.
fn untraced_serve(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let book = Book::new(cfg.seed, cfg.book_len());
    let (mut setups, mut rps, mut p50, mut p90) = (vec![], vec![], vec![], vec![]);
    let (mut lat, mut late, mut steal) = (vec![], vec![], vec![]);
    let mut sum = Phase::default();
    for _ in 0..SERVE_WINDOWS {
        let t = Instant::now();
        let server = Server::start();
        let warm = serve::warm_up(&server, &book, cfg.warmup_requests());
        setups.push(t.elapsed().as_secs_f64());
        check_phase(&mut out, &warm, "warm-up")?;
        if setups.len() == 1 {
            out.say(match server.split {
                Some(s) => format!(
                    "placement: load thread on CPU {}, engine threads on CPU {}",
                    s.load.trailing_zeros(),
                    s.engine.trailing_zeros()
                ),
                None => "placement: unpinned (fewer than two CPUs)".into(),
            });
        }
        let stop = Stop::Seconds(cfg.seconds / SERVE_WINDOWS as f64);
        let (phase, share) = host::steal_during(|| match cfg.workload {
            Workload::ServeClosed => serve::closed(&server, &book, stop, cfg.inject_wrong),
            _ => serve::open(&server, &book, OPEN_RATE, stop, cfg.inject_wrong),
        });
        steal.push(share);
        check_phase(&mut out, &phase, cfg.workload.name())?;
        let sorted_us = sorted(&phase.latency_us);
        rps.push(phase.ok_rps());
        p50.push(pct(&sorted_us, 0.5, "latency")?);
        p90.push(pct(&sorted_us, 0.9, "latency")?);
        lat.extend(sorted_us);
        late.extend(phase.late_us.iter().copied());
        for (total, n) in [
            (&mut sum.ok, phase.ok),
            (&mut sum.rejected, phase.rejected),
            (&mut sum.expired, phase.expired),
            (&mut sum.unresolved, phase.unresolved),
            (&mut sum.degraded, phase.degraded),
        ] {
            *total += n;
        }
    }
    let kept = host::least_stolen_half(&steal);
    let med_kept = |v: &[f64]| {
        median(&kept.iter().map(|&i| v[i]).collect::<Vec<_>>()).expect("SERVE_WINDOWS > 0")
    };
    out.put("ok_rps", med_kept(&rps));
    out.put("p50_us", med_kept(&p50));
    out.put("p90_us", med_kept(&p90));
    out.put("setup_s", median(&setups).expect("SERVE_WINDOWS > 0"));
    out.say(format!(
        "per engine: ok_rps {} | p50_us {} | p90_us {} | steal % {} | kept {:?}",
        list(&rps),
        list(&p50),
        list(&p90),
        list(&percent(&steal)),
        kept
    ));
    out.say(format!(
        "{}: {} ok; rejected {} expired {} unresolved {} degraded {}",
        cfg.workload.name(),
        sum.ok,
        sum.rejected,
        sum.expired,
        sum.unresolved,
        sum.degraded
    ));
    lat.sort_by(f64::total_cmp);
    percentiles(&mut out, &lat, "request latency, all engines");
    if !late.is_empty() {
        late.sort_by(f64::total_cmp);
        percentiles(&mut out, &late, "generator lateness, all engines");
    }
    Ok(out)
}

/// Adds a serve phase's operations to the run; a wrong `Ok` is an error.
fn check_phase(out: &mut Outcome, phase: &Phase, what: &str) -> Result<(), String> {
    out.tally.add(phase.tally);
    if phase.incorrect > 0 {
        return Err(format!(
            "{what}: {} Ok responses disagree with price_contract",
            phase.incorrect
        ));
    }
    Ok(())
}

/// The traced run: every per-layer probe untraced, then the workload's
/// own phase once untraced and once traced, for self times and the
/// tracing overhead.
fn traced(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Kernels: one untraced round of the ladder.
    let (mut ladder, times, tally) = Ladder::setup(cfg.size, cfg.seed, cfg.inject_wrong)?;
    out.tally.add(tally);
    out.put("setup.inputs_s", times.inputs_s);
    out.put("setup.validate_s", times.validate_s);
    let mut lsamples = Samples::default();
    ladder.round(&mut lsamples, &mut out.tally)?;
    let sum = summarize(&mut out, &ladder, &lsamples)?;
    for (name, row) in ladder.names().iter().zip(&sum.cell_ms) {
        for v in Variant::ALL {
            out.put(format!("kernels.{name}.{v}_ms"), row[v as usize]);
        }
    }
    for (name, w) in ladder.work() {
        out.put(format!("kernels.{name}.flop_per_byte"), w.flops / w.bytes);
        out.say(format!(
            "kernels.{name}: {:.3e} flop, {:.1} MiB per run, {:.3} flop/B [computed]",
            w.flops,
            w.bytes / (1 << 20) as f64,
            w.flops / w.bytes
        ));
    }
    for v in Variant::ALL {
        out.put(
            format!("ladder.{}_runs_per_s", v.name()),
            sum.rung[v as usize],
        );
    }
    out.put("ladder.gap", sum.gap);
    out.put("ladder.residual", sum.residual);
    drop(ladder);

    // Serve: untraced closed and open phases on one warmed-up engine.
    let book = Book::new(cfg.seed, cfg.book_len());
    let server = Server::start();
    check_phase(
        &mut out,
        &serve::warm_up(&server, &book, cfg.warmup_requests()),
        "warm-up",
    )?;
    let n = Stop::Requests(cfg.trace_requests());
    let closed_u = serve::closed(&server, &book, n, cfg.inject_wrong);
    check_phase(&mut out, &closed_u, "serve-closed")?;
    let open_u = serve::open(&server, &book, OPEN_RATE, n, cfg.inject_wrong);
    check_phase(&mut out, &open_u, "serve-open")?;
    out.put(
        "serve.submit_ns",
        open_u.submit_ns.0 / open_u.submit_ns.1.max(1) as f64,
    );
    out.put(
        "serve.queue_us_p50",
        pct(&sorted(&open_u.queue_us), 0.5, "queue")?,
    );
    out.put(
        "serve.exec_us_p50",
        pct(&sorted(&open_u.exec_us), 0.5, "exec")?,
    );
    out.put(
        "serve.batch_mean",
        closed_u.engine_ok as f64 / closed_u.engine_attempts.max(1) as f64,
    );
    out.put(
        "serve.rejected",
        (closed_u.rejected + open_u.rejected) as f64,
    );
    out.put("serve.expired", (closed_u.expired + open_u.expired) as f64);
    out.put(
        "serve.degraded",
        (closed_u.degraded + open_u.degraded) as f64,
    );
    out.put(
        "loadgen.late_us_p99",
        pct(&sorted(&open_u.late_us), 0.99, "lateness")?,
    );

    // Layer probes, untraced.
    let isa = ninja_simd::isa::active();
    out.say(format!(
        "isa dispatch: {} ({}-bit) [label]",
        isa.name(),
        isa.width_bits()
    ));
    let probes = Probes::default();
    for (name, value) in probes.measure(&book)? {
        out.put(name, value);
    }

    // The workload's own phase, set up with tracing on, then run once
    // untraced and once traced, back to back; then the probes again,
    // traced, so that every layer has spans.
    drop(server);
    ninja_probe::clear_events();
    ninja_probe::set_tracing(true);
    let traced =
        traced_phase(cfg, &book, &mut out).and_then(|phase| probes.measure(&book).map(|_| phase));
    ninja_probe::set_tracing(false);
    ninja_probe::set_metrics(false);
    let events = ninja_probe::take_events();
    let (overhead, pool) = traced?;
    ninja_probe::validate_events(&events).map_err(|e| format!("trace: {e}"))?;
    std::fs::create_dir_all(&cfg.trace_dir).map_err(|e| format!("trace dir: {e}"))?;
    let file = cfg
        .trace_dir
        .join(format!("trace-{}.json", cfg.workload.name()));
    std::fs::write(&file, ninja_probe::chrome_trace_json(&events))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    out.say(format!(
        "chrome trace: {} ({} events)",
        file.display(),
        events.len()
    ));

    let self_us = spans::self_times_us(&events)?;
    for (layer, us) in &self_us {
        out.say(format!("self time {layer:>8}: {:10.3} ms", us / 1e3));
        out.put(format!("trace.{layer}_self_ms"), us / 1e3);
    }
    out.say(
        "  (simd and parallel self time is the layer probes': the workloads reach \
         those layers only through kernels and serve, whose spans hold that time)",
    );
    out.say(format!("trace.overhead_frac = {overhead:.4}"));
    out.put("trace.overhead_frac", overhead);
    out.put("parallel.steals", pool.steals as f64);
    out.put(
        "parallel.local_pops",
        pool.workers.iter().map(|w| w.local_pops).sum::<u64>() as f64,
    );
    out.put(
        "parallel.injector_pops",
        pool.workers.iter().map(|w| w.injector_pops).sum::<u64>() as f64,
    );
    out.put(
        "parallel.parked_ms",
        pool.workers.iter().map(|w| w.parked_ns).sum::<u64>() as f64 / 1e6,
    );
    out.put("parallel.idle_frac", pool.idle_fraction());
    out.put("failed_frac", out.tally.failed_frac());
    Ok(out)
}

/// Sets the workload up with tracing on, runs its phase untraced and
/// then traced with pool counters on, and returns the traced phase's
/// relative slow-down with the pool counters over it. The slow-down is
/// the geometric mean of per-cell median ratios on `ladder`, and the
/// ratio of median latencies on the serve workloads.
fn traced_phase(
    cfg: &Config,
    book: &Book,
    out: &mut Outcome,
) -> Result<(f64, ninja_probe::PoolMetrics), String> {
    let instrument = |on: bool| {
        ninja_probe::set_tracing(on);
        ninja_probe::set_metrics(on);
    };
    match cfg.workload {
        Workload::Ladder => {
            let (mut ladder, _, tally) = Ladder::setup(cfg.size, cfg.seed, cfg.inject_wrong)?;
            out.tally.add(tally);
            let (mut plain, mut traced) = (Samples::default(), Samples::default());
            instrument(false);
            ladder.round(&mut plain, &mut out.tally)?;
            let before = ladder.pool().metrics();
            instrument(true);
            ladder.round(&mut traced, &mut out.tally)?;
            let pool = ladder.pool().metrics().delta(&before);
            let ratios: Vec<f64> = plain
                .cells
                .iter()
                .zip(&traced.cells)
                .flat_map(|(p, t)| p.iter().zip(t))
                .filter_map(|(p, t)| Some(median(t)? / median(p)?))
                .collect();
            Ok((
                geomean(&ratios).ok_or("no ladder cell was timed")? - 1.0,
                pool,
            ))
        }
        Workload::ServeClosed | Workload::ServeOpen => {
            let server = Server::start();
            check_phase(
                out,
                &serve::warm_up(&server, book, cfg.warmup_requests()),
                "warm-up",
            )?;
            let n = Stop::Requests(cfg.trace_requests());
            let run = |server: &Server| match cfg.workload {
                Workload::ServeClosed => serve::closed(server, book, n, cfg.inject_wrong),
                _ => serve::open(server, book, OPEN_RATE, n, cfg.inject_wrong),
            };
            instrument(false);
            let plain = run(&server);
            check_phase(out, &plain, cfg.workload.name())?;
            let before = server.pool.metrics();
            instrument(true);
            let traced = run(&server);
            check_phase(out, &traced, cfg.workload.name())?;
            let pool = server.pool.metrics().delta(&before);
            let p50 = |p: &Phase| pct(&sorted(&p.latency_us), 0.5, "latency");
            Ok((p50(&traced)? / p50(&plain)? - 1.0, pool))
        }
    }
}
