//! Layer probes: microbenchmarks that time one public entry point of a
//! layer from outside, each checking its own output.
//!
//! A probe repeats its call in batches and reports the median batch
//! mean, so one descheduled batch does not set the figure.

use std::sync::Arc;
use std::time::Instant;

use ninja_parallel::{par_chunks_mut, ThreadPool};
use ninja_serve::{BatchKernel, BlackScholesServe, Rung};
use ninja_simd::isa::{self, math, Isa, IsaKind, IsaOp, SimdF32};

use crate::serve::{Book, IN_FLIGHT};
use crate::spans::enter;
use crate::stats::median;

const BATCHES: usize = 9;

/// Seconds per call of `f`: the median over [`BATCHES`] batches of
/// `iters` calls.
fn per_call_s(iters: usize, mut f: impl FnMut()) -> f64 {
    let means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    median(&means).expect("BATCHES > 0")
}

/// An `isa::math` function applied lane-wise over a buffer.
#[derive(Copy, Clone, Debug)]
pub enum MathFn {
    /// `isa::math::exp`.
    Exp,
    /// `isa::math::norm_cdf`.
    NormCdf,
}

struct Map<'a> {
    f: MathFn,
    src: &'a [f32],
    dst: &'a mut [f32],
}

impl IsaOp for Map<'_> {
    type Output = ();

    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        for (s, d) in self
            .src
            .chunks_exact(lanes)
            .zip(self.dst.chunks_exact_mut(lanes))
        {
            let x = I::F32::load(s);
            let y = match self.f {
                MathFn::Exp => math::exp::<I>(x),
                MathFn::NormCdf => math::norm_cdf::<I>(x),
            };
            y.store(d);
        }
    }
}

/// Elements per `isa::math` call: a multiple of every backend's width.
const MATH_LEN: usize = 4096;

/// Nanoseconds per element of `f` through `isa::dispatch`, after
/// checking the dispatched backend against the `Scalar` backend.
pub fn math_ns_per_elem(f: MathFn) -> Result<f64, String> {
    let src: Vec<f32> = (0..MATH_LEN)
        .map(|i| -6.0 + 12.0 * i as f32 / MATH_LEN as f32)
        .collect();
    let mut dst = vec![0.0f32; MATH_LEN];
    let mut reference = vec![0.0f32; MATH_LEN];
    isa::dispatch(Map {
        f,
        src: &src,
        dst: &mut dst,
    });
    isa::dispatch_on(
        IsaKind::Scalar,
        Map {
            f,
            src: &src,
            dst: &mut reference,
        },
    );
    for (i, (&got, &want)) in dst.iter().zip(&reference).enumerate() {
        if !got.is_finite() || (got - want).abs() > 1e-5 * want.abs().max(1.0) {
            return Err(format!("isa::math {f:?} lane {i}: {got} vs scalar {want}"));
        }
    }
    let _span = enter(|| format!("simd/{f:?}"));
    let s = per_call_s(200, || {
        isa::dispatch(Map {
            f,
            src: std::hint::black_box(&src),
            dst: &mut dst,
        })
    });
    std::hint::black_box(&dst);
    Ok(s * 1e9 / MATH_LEN as f64)
}

/// Microseconds per empty `parallel_for` over one index per thread.
pub fn for_empty_us(pool: &ThreadPool) -> f64 {
    let _span = enter(|| "parallel/for_empty".into());
    let n = pool.num_threads();
    per_call_s(2000, || {
        pool.parallel_for(0..n, 1, |r| {
            std::hint::black_box(r);
        })
    }) * 1e6
}

/// Microseconds per `join` of two empty closures.
pub fn join_empty_us(pool: &ThreadPool) -> f64 {
    let _span = enter(|| "parallel/join_empty".into());
    per_call_s(2000, || {
        std::hint::black_box(pool.join(|| 1u32, || 2u32));
    }) * 1e6
}

/// Microseconds per `par_chunks_mut` over the ninja rung's batch shape:
/// 64 `(call, put)` pairs in chunks of 16 requests. Checks that every
/// element was written.
pub fn chunks64_us(pool: &ThreadPool) -> Result<f64, String> {
    let _span = enter(|| "parallel/chunks64".into());
    let mut out = vec![0.0f32; 2 * IN_FLIGHT];
    let mut round = 0.0f32;
    let s = per_call_s(2000, || {
        round += 1.0;
        let r = round;
        par_chunks_mut(pool, &mut out, 32, |_, chunk| {
            for x in chunk.iter_mut() {
                *x = r;
            }
        });
    });
    if out.iter().any(|&x| x != round) {
        return Err("par_chunks_mut left an element unwritten".into());
    }
    Ok(s * 1e6)
}

/// Microseconds per `BlackScholesServe::run` of one 64-request batch at
/// `rung`, after checking every response against `price_contract`.
pub fn batch_us(kernel: &BlackScholesServe, book: &Book, rung: Rung) -> Result<f64, String> {
    let (reqs, expected) = book.batch(IN_FLIGHT);
    let got = kernel.run(rung, reqs);
    if got.len() != reqs.len() || !got.iter().zip(expected).all(|(g, e)| kernel.matches(g, e)) {
        return Err(format!(
            "BlackScholesServe::run at {rung} disagrees with price_contract"
        ));
    }
    let _span = enter(|| format!("serve/batch_{rung}"));
    Ok(per_call_s(200, || {
        std::hint::black_box(kernel.run(rung, std::hint::black_box(reqs)));
    }) * 1e6)
}

/// Every layer probe, on pools shaped like the workloads' own: the
/// ladder's two-thread pool for the `parallel` probes, and a
/// Black-Scholes serving kernel on the engine's one-thread pool.
pub struct Probes {
    pool: ThreadPool,
    kernel: BlackScholesServe,
}

impl Default for Probes {
    fn default() -> Self {
        Self {
            pool: ThreadPool::with_threads(crate::ladder::POOL_THREADS),
            kernel: BlackScholesServe::new(Arc::new(ThreadPool::with_threads(
                crate::serve::POOL_THREADS,
            ))),
        }
    }
}

impl Probes {
    /// Runs every probe once, checking each output, and returns the
    /// per-layer metrics by name. Requests come from `book`.
    pub fn measure(&self, book: &Book) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(vec![
            ("simd.exp_ns_per_elem", math_ns_per_elem(MathFn::Exp)?),
            (
                "simd.norm_cdf_ns_per_elem",
                math_ns_per_elem(MathFn::NormCdf)?,
            ),
            ("parallel.for_empty_us", for_empty_us(&self.pool)),
            ("parallel.join_empty_us", join_empty_us(&self.pool)),
            ("parallel.chunks64_us", chunks64_us(&self.pool)?),
            (
                "serve.scalar_ref_us",
                batch_us(&self.kernel, book, Rung::Scalar)?,
            ),
            (
                "serve.simd_batch_us",
                batch_us(&self.kernel, book, Rung::Simd)?,
            ),
            (
                "serve.ninja_batch_us",
                batch_us(&self.kernel, book, Rung::Ninja)?,
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_check_and_time() {
        let metrics = Probes::default().measure(&Book::new(3, 128)).unwrap();
        assert_eq!(metrics.len(), 8);
        for (name, v) in metrics {
            assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
        }
    }
}
