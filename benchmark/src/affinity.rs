//! CPU placement for the `solo` phase.
//!
//! With one op in flight, latency depends on whether the generator thread
//! and the server's loop thread share a core: unpinned, the acquire RTT p50
//! was bimodal (0.36 vs 0.59 ms) from run to run. [`Pin::first_allowed`]
//! confines the calling thread to the first CPU of its allowed set; a
//! server bound afterwards inherits the mask, so both ends of the socket
//! take turns on one core and the figure repeats. Dropping the guard
//! restores the original mask.
//!
//! [`Pin::nth_allowed`] gives each of the side-by-side threads of the
//! in-process `sat` phase a CPU of its own: threads spawned for a slice
//! were seen sharing one CPU for all of it (twice the latency, half the
//! rate) while the other stood idle.
//!
//! Raw `sched_getaffinity` / `sched_setaffinity` through glibc, std-only,
//! like `oma-net`'s epoll binding. Off Linux, or when the kernel refuses
//! (EPERM under some sandboxes), the phase runs unpinned and says so.

/// A scoped CPU pin for the calling thread (and threads it spawns while the
/// guard lives).
#[derive(Debug)]
pub struct Pin {
    /// The mask to restore on drop; `None` when pinning did not happen.
    restore: Option<imp::CpuSet>,
}

impl Pin {
    /// Pins the calling thread to the first CPU it is allowed to run on.
    pub fn first_allowed() -> Pin {
        Pin::nth_allowed(0)
    }

    /// Pins the calling thread to the `n`-th CPU (counting round its
    /// allowed set) it is allowed to run on.
    pub fn nth_allowed(n: usize) -> Pin {
        Pin {
            restore: imp::pin_nth_allowed(n),
        }
    }

    /// Whether the thread is actually confined to one CPU.
    pub fn pinned(&self) -> bool {
        self.restore.is_some()
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(mask) = self.restore.take() {
            imp::restore(&mask);
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    /// 1024 CPUs, the size of glibc's `cpu_set_t`.
    const WORDS: usize = 16;

    #[derive(Debug, Clone, Copy)]
    pub struct CpuSet([u64; WORDS]);

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    fn get() -> Option<CpuSet> {
        let mut set = CpuSet([0; WORDS]);
        // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes into
        // the exclusively borrowed array; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    fn set(mask: &CpuSet) -> bool {
        // SAFETY: the kernel only reads `size_of::<CpuSet>()` bytes from the
        // borrowed array; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.0.as_ptr()) == 0 }
    }

    pub fn pin_nth_allowed(n: usize) -> Option<CpuSet> {
        let original = get()?;
        let allowed: Vec<usize> = (0..WORDS * 64)
            .filter(|cpu| original.0[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        let cpu = *allowed.get(n % allowed.len().max(1))?;
        let mut one = CpuSet([0; WORDS]);
        one.0[cpu / 64] = 1u64 << (cpu % 64);
        set(&one).then_some(original)
    }

    pub fn restore(mask: &CpuSet) {
        let _ = set(mask);
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    #[derive(Debug, Clone, Copy)]
    pub struct CpuSet;

    pub fn pin_nth_allowed(_n: usize) -> Option<CpuSet> {
        None
    }

    pub fn restore(_mask: &CpuSet) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_is_scoped_and_never_fails_the_caller() {
        let before = std::thread::available_parallelism().map_or(1, |n| n.get());
        {
            let pin = Pin::first_allowed();
            if pin.pinned() {
                assert_eq!(
                    std::thread::available_parallelism().map_or(1, |n| n.get()),
                    1
                );
            }
        }
        assert_eq!(
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            before
        );
    }
}
