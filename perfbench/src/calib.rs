//! The reference kernel that scales CPU time to a nominal CPU.
//!
//! On a shared host the speed of a vCPU drifts, presumably with the
//! host's other load: on a 2-vCPU KVM guest, `dse_sweep` used 95k
//! points per CPU second for minutes at a time and 190k in others, and
//! CPU time follows that. So
//! every CPU time the benchmark gates is scaled by
//! `NOMINAL_S / (median CPU time of this kernel run beside the work)`:
//! the time the work would take on a CPU that runs the kernel in
//! [`NOMINAL_S`]. Over the same minutes the scaled figure moved by
//! about a tenth where the raw one moved twofold. The work and the
//! kernel slow down by different amounts when the host is busy, so the
//! scaling narrows the drift but does not remove it.
//!
//! The kernel is the benchmark's yardstick: changing it changes every
//! gated figure, so it stays as it is.

use crate::stats::median;
use crate::sys::CpuClock;
use std::collections::HashMap;

/// CPU seconds the kernel takes on the nominal CPU (about its fast
/// state on a 2-vCPU `Intel(R) Xeon(R) Processor` KVM guest).
pub const NOMINAL_S: f64 = 200e-6;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fixed work of the kind the model layers do: transcendental floating
/// point, hash-map updates and small allocations. The same amount of
/// work for every `seed`.
fn kernel(seed: u64) -> f64 {
    let mut map: HashMap<u64, f64> = HashMap::with_capacity(64);
    let mut rng = seed;
    let mut acc = 0.0;
    for i in 0..4000u32 {
        let r = splitmix(&mut rng);
        let x = (r >> 11) as f64 / (1u64 << 53) as f64 + 0.5;
        let v = x.ln() * x.sqrt() / (1.0 + x.exp()) + (x * 3.1).powf(1.3);
        let e = map.entry(r % 509).or_insert(0.0);
        *e += v;
        acc += *e * 1e-3;
        if i % 32 == 0 {
            let w: Vec<f64> = (0..48).map(|j| j as f64 * x).collect();
            acc += w.iter().sum::<f64>() * 1e-6;
        }
    }
    acc
}

/// Runs the kernel once; its CPU seconds by `clock`.
pub fn sample(clock: CpuClock, seed: u64) -> f64 {
    let t = clock.secs();
    std::hint::black_box(kernel(seed));
    clock.secs() - t
}

/// The factor that turns CPU seconds measured beside the kernel samples
/// `refs` into nominal CPU seconds; 1 without samples.
pub fn scale(refs: &mut [f64]) -> f64 {
    if refs.is_empty() {
        return 1.0;
    }
    NOMINAL_S / median(refs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_does_not_depend_on_the_seed_and_scale_is_relative() {
        assert!(kernel(1).is_finite() && kernel(2).is_finite());
        assert_eq!(kernel(7), kernel(7));
        assert_eq!(scale(&mut []), 1.0);
        let mut half = vec![NOMINAL_S / 2.0; 3];
        assert_eq!(scale(&mut half), 2.0);
    }
}
