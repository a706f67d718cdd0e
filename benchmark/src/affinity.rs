//! Pin the whole process to one CPU before any thread exists.
//!
//! On this class of 2-vCPU shared VM an unpinned run's request-response
//! median moves between 55 µs and 5 ms with where the scheduler places the
//! six threads of a connection pair; pinned, it repeats within a few per
//! cent. On one core, goodput is 1 / (CPU per byte summed over all layers),
//! which is the ledger the per-layer metrics break down.

#[cfg(target_os = "linux")]
mod imp {
    use std::ffi::c_int;

    /// Room for 1024 CPUs, the kernel's default `CONFIG_NR_CPUS` ceiling.
    const MASK_BYTES: usize = 128;

    extern "C" {
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u8) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u8) -> c_int;
    }

    pub fn pin_to_highest_cpu() -> Option<usize> {
        let mut mask = [0u8; MASK_BYTES];
        // SAFETY: `mask` is a live, writable buffer of exactly the length
        // passed; pid 0 names the calling thread, and no other thread
        // exists yet, so the mask is inherited by every thread spawned
        // later.
        if unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..MASK_BYTES * 8)
            .rev()
            .find(|c| mask[c / 8] & (1 << (c % 8)) != 0)?;
        let mut one = [0u8; MASK_BYTES];
        one[cpu / 8] = 1 << (cpu % 8);
        // SAFETY: `one` is a live buffer of exactly the length passed and
        // names a CPU the kernel just reported as allowed.
        (unsafe { sched_setaffinity(0, MASK_BYTES, one.as_ptr()) } == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_highest_cpu() -> Option<usize> {
        None
    }
}

/// Pin the calling (still single-threaded) process to the highest-numbered
/// CPU it is allowed to use. Returns that CPU, or `None` where pinning is
/// unavailable; the run then goes ahead unpinned and says so.
pub fn pin_to_highest_cpu() -> Option<usize> {
    imp::pin_to_highest_cpu()
}
