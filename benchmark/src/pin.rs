//! Pins the benchmark process to one CPU.
//!
//! On a small virtual machine an idle core takes 20–100 µs to wake, and
//! every hand-off between threads on different cores pays it. Measured
//! on this repository's 2-vCPU host, letting the scheduler spread the
//! ALS threads over both cores made `als_udp_sat` serve 82 k–122 k ops/s
//! and `cluster_r2`'s median query read 34 µs or 117 µs from run to run;
//! pinned to one CPU the same binaries gave 192 k–199 k ops/s and
//! 19.7–21.6 µs. What moved was the hypervisor, not the code. A
//! benchmark that is to show a *software* regression has to take that
//! term out, so every workload runs on one CPU (threads inherit the
//! mask). Multi-core scaling is therefore **not** measured here.

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to the first CPU it is currently allowed on. Returns whether that
/// worked; where affinity cannot be set the run goes unpinned and says so
/// in its configuration line.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> bool {
    /// `cpu_set_t` is 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: the pointer covers `bytes` writable bytes of a live local
    // array, which is all `sched_getaffinity(2)` writes; pid 0 names the
    // calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = allowed.iter().position(|&w| w != 0) else {
        return false;
    };
    let mut one = [0u64; WORDS];
    one[word] = 1 << allowed[word].trailing_zeros();
    // SAFETY: the pointer covers `bytes` readable bytes of a live local
    // array, which is all `sched_setaffinity(2)` reads.
    unsafe { sched_setaffinity(0, bytes, one.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> bool {
    false
}
