//! How fast the host runs right now, measured with code that is not the
//! repository's: a fixed kernel of table lookups, data-dependent
//! branches and integer arithmetic, the mix a cycle-level simulator
//! spends its time on.
//!
//! Each workload times the kernel between its measured passes. The
//! result line's times are then scaled to a host on which the kernel
//! takes [`REFERENCE_KERNEL_MS`]: a co-tenant slowing the whole machine
//! between two sets of runs moves the kernel and the workload alike and
//! cancels, while a change in the repository's code moves the workload
//! alone and shows. The unscaled timings are printed beside them.

use std::time::Instant;

use crate::report::Outcome;
use crate::stats::median;
use crate::{secs, Rng};

/// Table words: 512 KiB, about the working set of one simulated trace.
const WORDS: usize = 1 << 16;

/// Kernel iterations per measurement.
const ITERS: usize = 16_000_000;

/// The kernel's time on the unloaded 2-vCPU VM the benchmark was tuned
/// on, ms.
pub const REFERENCE_KERNEL_MS: f64 = 112.0;

/// Wall time of one run of the reference kernel, ms.
#[must_use]
pub fn kernel_ms() -> f64 {
    let mut rng = Rng::new(0x5eed, 7);
    let mut table: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let t = Instant::now();
    let mut x = 0x9e37_79b9_u64;
    let mut acc = 0u64;
    for i in 0..ITERS {
        let slot = (x as usize ^ i) & (WORDS - 1);
        let v = table[slot];
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(v);
        if v & 3 == 0 {
            acc = acc.wrapping_add(v >> 7);
        } else {
            acc ^= v.rotate_left(13);
        }
        table[slot] = v ^ acc;
    }
    std::hint::black_box((acc, &table));
    secs(t) * 1e3
}

/// Records the kernel timings of a run and the factor that scales its
/// times to the reference host (`host_scale`).
pub fn record(out: &mut Outcome, kernel: &[f64]) {
    let at = median(kernel);
    out.timing("host.kernel_ms", "ms", kernel);
    out.metric("host_scale", "x", REFERENCE_KERNEL_MS / at);
    out.note(format!(
        "result-line times are scaled by {:.4} to the reference host \
         (kernel median {at:.3} ms here, {REFERENCE_KERNEL_MS} ms there)",
        REFERENCE_KERNEL_MS / at
    ));
}
