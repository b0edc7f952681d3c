//! The `ladder` workload: every registry kernel at every rung, called
//! through `KernelSpec::make` and `Instance::run` on a two-thread pool.
//!
//! One round runs each cell a fixed number of times, kernel by kernel
//! with the five rungs of a kernel back to back, so drift of a shared
//! host hits every rung alike. The repetition counts are constants, not
//! calibrated, so every run times the same mix of cells and the latency
//! percentiles over that mix move only when cells get faster or slower.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ninja_kernels::chaos::{self, FailureMode};
use ninja_kernels::{registry, Instance, KernelSpec, ProblemSize, Variant, Work};
use ninja_parallel::ThreadPool;

use crate::spans::enter;
use crate::stats::Tally;

/// Worker threads of the ladder's pool (the host has two cores).
pub const POOL_THREADS: usize = 2;

/// Runs per round of each cell, in `Variant::ALL` order. Chosen so that
/// each cell takes about 100 ms per round at `ProblemSize::Quick` on a
/// 2-core x86-64 host (a cell slower than that runs once), which puts
/// about 330 runs in a round of about 6.5 s.
const REPS: [(&str, [u32; 5]); 10] = [
    ("nbody", [6, 10, 7, 14, 30]),
    ("backprojection", [1, 2, 1, 2, 4]),
    ("conv1d", [3, 5, 6, 10, 16]),
    ("blackscholes", [4, 6, 6, 10, 21]),
    ("treesearch", [1, 1, 1, 1, 2]),
    ("mergesort", [1, 1, 1, 1, 2]),
    ("conv2d", [3, 4, 11, 16, 21]),
    ("volumerender", [2, 3, 2, 4, 7]),
    ("lbm", [3, 4, 11, 21, 22]),
    ("libor", [1, 1, 1, 3, 13]),
];

fn reps(kernel: &str, v: Variant) -> u32 {
    REPS.iter()
        .find(|(k, _)| *k == kernel)
        .map_or(1, |(_, r)| r[v as usize])
}

/// Time spent setting the ladder up, in seconds.
#[derive(Copy, Clone, Debug, Default)]
pub struct SetupTimes {
    /// Input generation (`KernelSpec::make`) over all kernels.
    pub inputs_s: f64,
    /// The validation pass over all cells.
    pub validate_s: f64,
    /// Pool start, inputs and validation together.
    pub total_s: f64,
}

/// Run times of every cell, in seconds, in registry × `Variant::ALL`
/// order.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// `cells[k][v]`: every timed run of kernel `k` at rung `v`.
    pub cells: Vec<[Vec<f64>; 5]>,
}

impl Samples {
    /// Every run time of every cell, in microseconds, sorted.
    pub fn sorted_us(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .cells
            .iter()
            .flat_map(|k| k.iter().flatten())
            .map(|s| s * 1e6)
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Number of timed runs.
    pub fn runs(&self) -> usize {
        self.cells.iter().flat_map(|k| k.iter()).map(Vec::len).sum()
    }

    /// Total timed seconds.
    pub fn seconds(&self) -> f64 {
        self.cells.iter().flat_map(|k| k.iter().flatten()).sum()
    }

    /// Adds every run of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.cells
            .resize_with(self.cells.len().max(other.cells.len()), Default::default);
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.extend_from_slice(t);
            }
        }
    }
}

/// The ladder's pool and one validated instance per kernel.
pub struct Ladder {
    pool: ThreadPool,
    kernels: Vec<(&'static str, Box<dyn Instance>)>,
}

impl Ladder {
    /// Starts the pool, generates every kernel's inputs from `seed`, and
    /// validates every cell against its reference. With `inject_wrong`
    /// a kernel whose ninja rung returns a wrong output joins the ladder.
    ///
    /// Returns the ladder, its set-up times, and the validations as
    /// attempted operations, or an error naming the first invalid cell.
    pub fn setup(
        size: ProblemSize,
        seed: u64,
        inject_wrong: bool,
    ) -> Result<(Ladder, SetupTimes, Tally), String> {
        let _span = enter(|| "setup/ladder".into());
        let start = Instant::now();
        let pool = ThreadPool::with_threads(POOL_THREADS);
        let mut specs: Vec<KernelSpec> = registry();
        if inject_wrong {
            specs.push(chaos::spec(FailureMode::WrongOutput));
        }
        let t = Instant::now();
        let kernels: Vec<(&'static str, Box<dyn Instance>)> = specs
            .iter()
            .map(|s| {
                let _span = enter(|| format!("setup/inputs/{}", s.name));
                (s.name, (s.make)(size, seed))
            })
            .collect();
        let inputs_s = t.elapsed().as_secs_f64();
        let mut ladder = Ladder { pool, kernels };
        let t = Instant::now();
        let mut tally = Tally::default();
        for (name, inst) in &mut ladder.kernels {
            for v in Variant::ALL {
                let _span = enter(|| format!("setup/validate/{name}/{v}"));
                let pool = &ladder.pool;
                match catch_unwind(AssertUnwindSafe(|| inst.validate(v, pool))) {
                    Ok(Ok(())) => tally.record(true),
                    Ok(Err(e)) => return Err(e.to_string()),
                    Err(_) => tally.record(false),
                }
            }
        }
        let times = SetupTimes {
            inputs_s,
            validate_s: t.elapsed().as_secs_f64(),
            total_s: start.elapsed().as_secs_f64(),
        };
        Ok((ladder, times, tally))
    }

    /// The pool every cell runs on.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Kernel names and their per-run work accounting.
    pub fn work(&self) -> Vec<(&'static str, Work)> {
        self.kernels.iter().map(|(n, i)| (*n, i.work())).collect()
    }

    /// Runs one round, appending each run's time to `samples`. A panic
    /// counts as a failed operation; a non-finite checksum is a wrong
    /// output and is returned as an error.
    pub fn round(&mut self, samples: &mut Samples, tally: &mut Tally) -> Result<(), String> {
        // The round loop is the ladder's load generator.
        let _span = enter(|| "loadgen/round".into());
        samples
            .cells
            .resize_with(self.kernels.len(), Default::default);
        for (k, (name, inst)) in self.kernels.iter_mut().enumerate() {
            for v in Variant::ALL {
                for _ in 0..reps(name, v) {
                    let _span = enter(|| format!("kernels/{name}/{v}"));
                    let pool = &self.pool;
                    let t = Instant::now();
                    let out = catch_unwind(AssertUnwindSafe(|| inst.run(v, pool)));
                    let dt = t.elapsed().as_secs_f64();
                    match out {
                        Ok(sum) if sum.is_finite() => {
                            std::hint::black_box(sum);
                            tally.record(true);
                            samples.cells[k][v as usize].push(dt);
                        }
                        Ok(sum) => return Err(format!("{name}/{v} returned checksum {sum}")),
                        Err(_) => tally.record(false),
                    }
                }
            }
        }
        Ok(())
    }

    /// Kernel names in ladder order.
    pub fn names(&self) -> Vec<&'static str> {
        self.kernels.iter().map(|(n, _)| *n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_kernel_has_repetitions() {
        for spec in registry() {
            assert!(REPS.iter().any(|(k, _)| *k == spec.name), "{}", spec.name);
        }
        assert_eq!(REPS.len(), registry().len());
    }
}
