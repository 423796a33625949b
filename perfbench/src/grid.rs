//! Seeded input generation. The benchmark hands the program only these
//! generated scenarios; the same seed always yields the same inputs.

use xlda_circuit::tech::TechNode;
use xlda_core::evaluate::{EdgeScenario, HdcScenario, MannScenario, TpuNvmScenario};
use xlda_core::mc::{CamYieldMcScenario, MannAccuracyMcScenario, McParams, NvmLifetimeMcScenario};

/// SplitMix64: a tiny, well-mixed generator owned by the benchmark so
/// its inputs never depend on the program's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005E_ED0F_BE7C_4A11)
    }

    /// A generator for sub-stream `k` of `seed` (independent of the
    /// order in which other sub-streams are drawn).
    pub fn stream(seed: u64, k: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Process nodes the grids span, by the names the serve protocol uses.
pub const TECHS: [&str; 7] = ["n130", "n90", "n65", "n45", "n40", "n32", "n22"];

pub fn tech(name: &str) -> TechNode {
    match name {
        "n130" => TechNode::n130(),
        "n90" => TechNode::n90(),
        "n65" => TechNode::n65(),
        "n45" => TechNode::n45(),
        "n40" => TechNode::n40(),
        "n32" => TechNode::n32(),
        "n22" => TechNode::n22(),
        other => panic!("unknown tech node {other}"),
    }
}

/// The parameters of one HDC design point, kept with its node name so
/// the serve client can write it as a request.
#[derive(Debug, Clone)]
pub struct HdcParams {
    pub tech: &'static str,
    pub s: HdcScenario,
}

/// HDC shapes repeat across points (few distinct CAM and crossbar
/// configurations per node) while accuracies are continuous, so every
/// point is distinct but its sub-problems recur as in a real grid.
pub fn hdc(rng: &mut Rng, tech_name: &'static str) -> HdcParams {
    let acc_sw = rng.range(0.86, 0.97);
    HdcParams {
        tech: tech_name,
        s: HdcScenario {
            dim_in: rng.pick(&[128, 256, 617, 784]),
            classes: rng.pick(&[10, 16, 26, 32]),
            hv_dim_sw: rng.pick(&[2048, 4096, 8192]),
            hv_dim_3b: rng.pick(&[1024, 2048]),
            hv_dim_2b: rng.pick(&[2048, 4096]),
            hv_dim_1b: rng.pick(&[2048, 4096]),
            acc_sw,
            acc_3b: acc_sw - rng.range(0.0, 0.01),
            acc_2b: acc_sw - rng.range(0.005, 0.02),
            acc_1b: acc_sw - rng.range(0.03, 0.08),
            acc_mlp: rng.range(0.85, 0.96),
            tech: tech(tech_name),
        },
    }
}

#[derive(Debug, Clone)]
pub struct MannParams {
    pub tech: &'static str,
    pub s: MannScenario,
}

pub fn mann(rng: &mut Rng, tech_name: &'static str) -> MannParams {
    let acc_software = rng.range(0.9, 0.97);
    MannParams {
        tech: tech_name,
        s: MannScenario {
            weights: rng.pick(&[32_000, 65_000, 130_000]),
            emb_dim: rng.pick(&[32, 64, 128]),
            hash_bits: rng.pick(&[64, 128, 256]),
            entries: rng.pick(&[25, 50, 125]),
            acc_software,
            acc_rram: acc_software - rng.range(0.0, 0.03),
            tech: tech(tech_name),
        },
    }
}

pub fn tpu_nvm(rng: &mut Rng, tech_name: &'static str) -> (HdcParams, usize) {
    let base = hdc(rng, tech_name);
    (base, rng.pick(&[1, 8, 64, 1000]))
}

pub fn tpu_scenario(p: &(HdcParams, usize)) -> TpuNvmScenario {
    TpuNvmScenario::new(p.0.s.clone(), p.1)
}

pub fn edge_scenario(p: &HdcParams) -> EdgeScenario {
    EdgeScenario::new(p.s.clone())
}

/// Monte-Carlo population: fixed trials per point, a fresh seed per
/// point, the program's default batch and thread settings.
fn mc(rng: &mut Rng, trials: usize) -> McParams {
    McParams {
        trials,
        // 32 bits: the serve protocol takes seeds up to u32::MAX.
        seed: rng.next_u64() >> 32,
        ..McParams::default()
    }
}

pub fn cam_yield_mc(rng: &mut Rng, trials: usize) -> CamYieldMcScenario {
    let mut s = CamYieldMcScenario {
        mc: mc(rng, trials),
        cells: rng.pick(&[64, 128, 256]),
        mismatches: rng.pick(&[2, 4, 8]),
        ..CamYieldMcScenario::default()
    };
    s.g_on *= rng.range(0.9, 1.1);
    s
}

pub fn mann_mc(rng: &mut Rng, trials: usize) -> MannAccuracyMcScenario {
    MannAccuracyMcScenario {
        mc: mc(rng, trials),
        hash_bits: rng.pick(&[64, 128, 256]),
        entries: rng.pick(&[25, 50, 125]),
        relax_decades: rng.range(1.0, 4.0),
        read_noise: rng.range(0.005, 0.02),
        ..MannAccuracyMcScenario::default()
    }
}

pub fn nvm_mc(rng: &mut Rng, trials: usize) -> NvmLifetimeMcScenario {
    NvmLifetimeMcScenario {
        mc: mc(rng, trials),
        // Whole MB/s, so the serve protocol's MB/s field maps back exactly.
        write_bytes_per_second: (10 + rng.below(90)) as f64 * 1e6,
        leveling: rng.range(0.8, 0.95),
        vth_bits: rng.pick(&[2, 3]),
        ..NvmLifetimeMcScenario::default()
    }
}

/// The scenario object of an hdc-based request (`hdc`, `triage`,
/// `edge`, `tpu_nvm`), every field explicit.
pub fn hdc_json(p: &HdcParams) -> String {
    let s = &p.s;
    format!(
        "{{\"dim_in\":{},\"classes\":{},\"hv_dim_sw\":{},\"hv_dim_3b\":{},\"hv_dim_2b\":{},\
         \"hv_dim_1b\":{},\"acc_sw\":{},\"acc_3b\":{},\"acc_2b\":{},\"acc_1b\":{},\
         \"acc_mlp\":{},\"tech\":\"{}\"}}",
        s.dim_in,
        s.classes,
        s.hv_dim_sw,
        s.hv_dim_3b,
        s.hv_dim_2b,
        s.hv_dim_1b,
        s.acc_sw,
        s.acc_3b,
        s.acc_2b,
        s.acc_1b,
        s.acc_mlp,
        p.tech
    )
}

pub fn mann_json(p: &MannParams) -> String {
    let s = &p.s;
    format!(
        "{{\"weights\":{},\"emb_dim\":{},\"hash_bits\":{},\"entries\":{},\
         \"acc_software\":{},\"acc_rram\":{},\"tech\":\"{}\"}}",
        s.weights, s.emb_dim, s.hash_bits, s.entries, s.acc_software, s.acc_rram, p.tech
    )
}

pub fn mann_mc_json(s: &MannAccuracyMcScenario) -> String {
    format!(
        "{{\"trials\":{},\"seed\":{},\"hash_bits\":{},\"entries\":{},\
         \"relax_decades\":{},\"read_noise\":{}}}",
        s.mc.trials, s.mc.seed, s.hash_bits, s.entries, s.relax_decades, s.read_noise
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = hdc(&mut Rng::stream(7, 3), "n40").s;
        let b = hdc(&mut Rng::stream(7, 3), "n40").s;
        let c = hdc(&mut Rng::stream(8, 3), "n40").s;
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
            assert!(r.exp_gap(1000.0) >= 0.0);
        }
    }
}
