//! CPU time the hypervisor gave to other guests ("steal"), from
//! `/proc/stat`. A phase with high steal is slower for reasons outside
//! the program.

/// Cumulative steal and total CPU ticks of this machine (Linux).
#[derive(Copy, Clone, Debug)]
struct Ticks {
    steal: u64,
    total: u64,
}

impl Ticks {
    /// The counters now; `None` where `/proc/stat` cannot be read.
    fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        Self::parse(&stat)
    }

    fn parse(stat: &str) -> Option<Self> {
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let t: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|v| v.parse().ok())
            .collect::<Option<_>>()?;
        (t.len() == 8).then(|| Ticks {
            steal: t[7],
            total: t.iter().sum(),
        })
    }

    /// Share of CPU time stolen between `self` and `later`; `None` when no
    /// tick passed.
    fn steal_share(self, later: Ticks) -> Option<f64> {
        let total = later.total.checked_sub(self.total)?;
        let steal = later.steal.checked_sub(self.steal)?;
        (total > 0).then(|| steal as f64 / total as f64)
    }
}

/// Runs `f` and returns its result with the share of CPU time stolen
/// while it ran (`None` where steal cannot be read).
pub fn steal_during<T>(f: impl FnOnce() -> T) -> (T, Option<f64>) {
    let before = Ticks::now();
    let out = f();
    let share = before.zip(Ticks::now()).and_then(|(a, b)| a.steal_share(b));
    (out, share)
}

/// Indices, in ascending order, of the least-stolen half (rounded up)
/// of the windows whose steal shares are `steal`. A window whose steal
/// could not be read counts as stolen least, so that where `/proc/stat`
/// is missing the first half is kept.
pub fn least_stolen_half(steal: &[Option<f64>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| {
        let s = |i: usize| steal[i].unwrap_or(f64::NEG_INFINITY);
        s(a).total_cmp(&s(b)).then(a.cmp(&b))
    });
    order.truncate(steal.len().div_ceil(2));
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_cpu_column() {
        let a = Ticks::parse("cpu  10 0 5 80 1 0 0 4 0 0\ncpu0 1 0 0 0 0 0 0 0 0 0\n").unwrap();
        let b = Ticks::parse("cpu  20 0 5 150 1 0 0 24 0 0\n").unwrap();
        assert_eq!((a.steal, a.total), (4, 100));
        assert_eq!(a.steal_share(b), Some(0.2));
        assert_eq!(a.steal_share(a), None);
        assert!(Ticks::parse("intr 1 2 3\n").is_none());
    }

    #[test]
    fn least_stolen_half_keeps_the_quietest_windows_in_order() {
        let steal = [Some(0.3), Some(0.0), Some(0.2), Some(0.0), Some(0.1)];
        assert_eq!(least_stolen_half(&steal), vec![1, 3, 4]);
        assert_eq!(least_stolen_half(&steal[..4]), vec![1, 3]);
        assert_eq!(least_stolen_half(&[None, None, None]), vec![0, 1]);
        assert!(least_stolen_half(&[]).is_empty());
    }
}
