//! A/B test of the work-stealing scheduler against the legacy
//! shared-injector FIFO mode (`ThreadPoolBuilder::steal(false)`) on a
//! skewed task mix.
//!
//! The workload is the classic LIFO-vs-FIFO discriminator: a task running
//! on a pool worker spawns many tiny tasks and then one huge one. Under
//! FIFO the huge task sits behind every tiny task in the shared injector
//! and starts only after they drain — it runs alone at the end and its
//! lane dominates the region (a straggler). Under the work-stealing
//! scheduler the spawns land on the spawning worker's own deque: the
//! owner pops LIFO and starts the huge task immediately, while idle peers
//! steal the tiny tasks FIFO from the top — the huge task overlaps with
//! the tiny drain and the busy-time spread stays flat.
//!
//! Tasks occupy their lane by *sleeping*, not spinning: sleeping lanes
//! overlap even when the host has a single hardware thread (CI containers
//! often do), so per-lane busy time reflects the scheduler's placement
//! decisions rather than OS timeslicing noise.
//!
//! These tests flip the process-global probe metrics flag, so every test
//! takes `FLAG_LOCK` and restores the flag before releasing it.

use ninja_parallel::ThreadPoolBuilder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

static FLAG_LOCK: Mutex<()> = Mutex::new(());

struct MetricsOn;

impl MetricsOn {
    fn enable() -> Self {
        ninja_probe::set_metrics(true);
        MetricsOn
    }
}

impl Drop for MetricsOn {
    fn drop(&mut self) {
        ninja_probe::set_metrics(false);
    }
}

const TINY_TASKS: u64 = 48;
const TINY: Duration = Duration::from_millis(2);
// Sized near one lane's fair share of the tiny work, so a scheduler that
// overlaps it with the tiny drain can be near-perfectly balanced while
// the FIFO ordering — tiny drain first, huge alone at the end — leaves
// one lane with roughly double everyone else's busy time.
const HUGE: Duration = Duration::from_millis(24);

/// Runs the skewed spawn burst on a 4-lane pool with or without stealing.
/// Returns the region's metrics delta plus how many tiny tasks had
/// already started when the huge task began. The caller must hold
/// `FLAG_LOCK` with metrics enabled.
fn skewed_burst(steal: bool) -> (ninja_probe::PoolMetrics, u64) {
    let pool = ThreadPoolBuilder::new().num_threads(4).steal(steal).build();
    let started = AtomicU64::new(0);
    let huge_started_after = AtomicU64::new(0);
    let before = pool.metrics();
    pool.scope(|s| {
        let (started, huge_started_after) = (&started, &huge_started_after);
        // The burst must come from a pool worker (external spawns go to
        // the injector in both modes): nest it in a root task, and keep
        // the scope caller in `body` until the root reports which thread
        // claimed it. While the caller blocks here its post-body drain
        // loop cannot claim the root, so a worker must.
        let (on_lane, root_lane) = mpsc::channel();
        s.spawn_nested(move |s| {
            let name = std::thread::current().name().map(str::to_owned);
            on_lane.send(name).expect("scope body waits for the root");
            for _ in 0..TINY_TASKS {
                s.spawn(move || {
                    // ORDERING: a monotonic progress counter; the order
                    // probe below tolerates increments still in flight.
                    started.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(TINY);
                });
            }
            s.spawn(move || {
                // ORDERING: a snapshot for a coarse order assertion;
                // exactness doesn't matter, only FIFO-vs-LIFO scale.
                huge_started_after.store(started.load(Ordering::Relaxed), Ordering::Relaxed);
                std::thread::sleep(HUGE);
            });
        });
        let lane = root_lane.recv().expect("root task runs");
        assert!(
            lane.as_deref()
                .is_some_and(|n| n.starts_with("ninja-worker-")),
            "the root task must run on a pool worker, ran on {lane:?}"
        );
    });
    let after = pool.metrics().delta(&before);
    // ORDERING: read after the scope drained; no writers left.
    (after, huge_started_after.load(Ordering::Relaxed))
}

#[test]
fn stealing_flattens_a_skewed_task_burst() {
    let _guard = FLAG_LOCK.lock().unwrap();
    let _on = MetricsOn::enable();

    let (fifo, fifo_order) = skewed_burst(false);
    let (steal, steal_order) = skewed_burst(true);

    // Every task executed and is accounted in both modes: the root, the
    // tiny burst, and the huge task.
    assert_eq!(fifo.total_tasks(), TINY_TASKS + 2, "{fifo:?}");
    assert_eq!(steal.total_tasks(), TINY_TASKS + 2, "{steal:?}");

    // Mode wiring: a steal-disabled pool funnels everything through the
    // injector and never touches a deque; the stealing pool's burst is
    // served from the spawning worker's deque by its peers.
    assert_eq!(fifo.steals, 0, "{fifo:?}");
    let injector_pops: u64 = fifo.workers.iter().map(|w| w.injector_pops).sum();
    assert!(injector_pops >= TINY_TASKS, "{fifo:?}");
    assert!(steal.steals > 0, "peers must steal the burst: {steal:?}");
    assert!(steal.steal_ratio() > 0.0, "{steal:?}");

    // Scheduling order, the deterministic discriminator. FIFO: the huge
    // task was pushed to the injector after all 48 tiny tasks, so it can
    // only be popped after them (at most the 3 other lanes hold a popped
    // tiny task whose counter increment is still in flight). LIFO: the
    // owner pops the huge task right after the spawn loop, while peers
    // have stolen at most a handful of tiny tasks off the top.
    assert!(
        fifo_order >= TINY_TASKS - 3,
        "FIFO must drain the injector before the huge task: \
         started={fifo_order}\n{fifo:?}"
    );
    assert!(
        steal_order <= TINY_TASKS / 2,
        "LIFO pop must start the huge task while the tiny drain is young: \
         started={steal_order}\n{steal:?}"
    );

    // The headline claim: LIFO-pop + steal-FIFO overlaps the huge task
    // with the tiny drain, so the busy-time spread is measurably flatter
    // than the seed FIFO behavior, which serializes the huge task after
    // the drain and leaves its lane with roughly double the mean.
    let (fr, sr) = (fifo.imbalance_ratio(), steal.imbalance_ratio());
    assert!(
        sr + 0.2 < fr,
        "stealing should flatten the skewed burst: steal={sr:.3} fifo={fr:.3}\n\
         steal mode: {steal:?}\nfifo mode: {fifo:?}"
    );
}
