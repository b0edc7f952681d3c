//! Thread placement and timer precision for the serve workloads.
//!
//! On a host with two or more CPUs the serve workloads run the load
//! thread on one CPU and the engine's threads on another. Left to the
//! scheduler, the same run lands in one of several placements whose
//! hand-off latencies differ by more than 2x, so a figure depended on
//! where the threads happened to start; a fixed split removes that, and
//! keeps the generator from competing with the engine for a core. New
//! threads inherit the CPU mask of the thread that spawns them, which is
//! how the engine's batcher, executor and pool workers are placed.

/// The CPU masks of one placement (bit `i` = CPU `i`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Split {
    /// CPU of the load thread.
    pub load: u64,
    /// CPU of the engine's threads.
    pub engine: u64,
}

/// The two lowest CPUs this thread may run on, or `None` when it may
/// run on fewer than two (or the mask cannot be read).
pub fn split() -> Option<Split> {
    let mask = current()?;
    let load = mask & mask.wrapping_neg();
    let rest = mask & !load;
    let engine = rest & rest.wrapping_neg();
    (load != 0 && engine != 0).then_some(Split { load, engine })
}

/// Restricts the calling thread to `mask` until the guard drops, then
/// restores the mask it had. Does nothing when the mask cannot be read
/// or set.
pub fn pin(mask: u64) -> Pin {
    let prev = current().filter(|_| set(mask));
    Pin { prev }
}

/// Restores the previous CPU mask on drop.
#[must_use = "the thread is unpinned when the guard drops"]
pub struct Pin {
    prev: Option<u64>,
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(mask) = self.prev {
            set(mask);
        }
    }
}

/// Makes the calling thread's timed waits wake on time instead of up to
/// 50 µs late (the default timer slack) until the guard drops, so the
/// open loop can block between due times. Where this cannot be set, the
/// generator is only later, and its lateness is measured.
pub fn precise_timers() -> Slack {
    set_timer_slack(1);
    Slack
}

/// Restores the default timer slack on drop.
#[must_use = "the default timer slack returns when the guard drops"]
pub struct Slack;

impl Drop for Slack {
    fn drop(&mut self) {
        // A slack of 0 restores the thread's default.
        set_timer_slack(0);
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_timer_slack(ns: u64) {
    const SYS_PRCTL: u64 = 157;
    const PR_SET_TIMERSLACK: u64 = 29;
    let ret: i64;
    // SAFETY: prctl(PR_SET_TIMERSLACK, ns) changes a per-thread scheduler
    // setting and reads or writes no userspace memory; rcx/r11 are
    // clobbered per the syscall ABI. A failure leaves the slack as it was.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_PRCTL => ret,
            in("rdi") PR_SET_TIMERSLACK,
            in("rsi") ns,
            in("rdx") 0u64,
            in("r10") 0u64,
            in("r8") 0u64,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    let _ = ret;
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_timer_slack(_ns: u64) {}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(nr: u64, mask: *mut u64) -> i64 {
    let ret: i64;
    // SAFETY: sched_{get,set}affinity(pid = 0, len = 8, mask) reads or
    // writes exactly 8 bytes at `mask`, which points at a live u64 owned
    // by the caller; rcx/r11 are clobbered per the syscall ABI.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") 0u64,
            in("rsi") 8u64,
            in("rdx") mask,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// The calling thread's CPU mask over the first 64 CPUs.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn current() -> Option<u64> {
    const SYS_SCHED_GETAFFINITY: u64 = 204;
    let mut mask = 0u64;
    // A positive return is the number of bytes the kernel wrote.
    (affinity_syscall(SYS_SCHED_GETAFFINITY, &mut mask) > 0).then_some(mask)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set(mut mask: u64) -> bool {
    const SYS_SCHED_SETAFFINITY: u64 = 203;
    affinity_syscall(SYS_SCHED_SETAFFINITY, &mut mask) == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn current() -> Option<u64> {
    None
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set(_mask: u64) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_restores_the_previous_mask() {
        let Some(before) = current() else {
            return;
        };
        if let Some(s) = split() {
            assert_eq!(s.load.count_ones() + s.engine.count_ones(), 2);
            assert_eq!(s.load & s.engine, 0);
            {
                let _g = pin(s.engine);
                assert_eq!(current(), Some(s.engine));
            }
        }
        assert_eq!(current(), Some(before));
    }
}
