//! Integration tests pinning the paper's headline claims at the
//! workspace level (the per-figure detail lives in `xlda-bench`).

use xlda::core::evaluate::{HdcScenario, MannScenario, Scenario};
use xlda::core::pareto::pareto_front;
use xlda::core::triage::{rank, Objective};
use xlda::crossbar::stochastic::StochasticProjection;
use xlda::device::fefet::Fefet;
use xlda::device::rram::Rram;
use xlda::evacam::validate::validate_all;
use xlda::num::rng::Rng64;
use xlda::nvram::{OptTarget, RamArray, RamCell, RamConfig, RamReport};
use xlda::syssim::study::offload_speedup;
use xlda::syssim::system::SystemConfig;
use xlda::syssim::workload::{cnn_trace, lstm_trace};

#[test]
fn fig5_validation_within_twenty_percent() {
    // Sec. VI / Fig. 5: the analytical CAM model lands within ~20 % of
    // published silicon on every reported figure of merit.
    let rows = validate_all().expect("reference chips model");
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(
            r.worst_error() <= 0.20,
            "{}: {:.1}% error",
            r.label,
            r.worst_error() * 100.0
        );
    }
}

#[test]
fn fig3h_headline_three_bit_fefet_cam_wins() {
    // Sec. III / Fig. 3H: at iso-accuracy, the 3-bit FeFET CAM is the
    // superior design point; 1-bit is fast but inaccurate.
    let candidates = HdcScenario::default().candidates().unwrap();
    let ranking = rank(&candidates, &Objective::latency_first(Some(0.9)));
    assert_eq!(ranking[0].name, "3b FeFET CAM");
    let sram = ranking
        .iter()
        .find(|r| r.name.contains("SRAM"))
        .expect("SRAM candidate");
    assert!(!sram.meets_floor, "1-bit SRAM must miss iso-accuracy");
    // The CAM survives multi-objective comparison too.
    let front = pareto_front(&candidates);
    assert!(front.iter().any(|&i| candidates[i].name == "3b FeFET CAM"));
}

#[test]
fn sec4_headline_rram_mann_latency_advantage() {
    // Sec. IV / Fig. 4E: the all-RRAM MANN pipeline yields substantial
    // latency and energy improvements at near-iso-accuracy.
    let cands = MannScenario::default().candidates().unwrap();
    let gpu = &cands[0].fom;
    let rram = &cands[1].fom;
    assert!(rram.latency_s * 10.0 < gpu.latency_s);
    assert!(rram.energy_j < gpu.energy_j);
}

#[test]
fn sec5_headline_cnn_speedup_up_to_twenty_x() {
    // Sec. V: system simulation shows analog crossbars speed up CNN
    // benchmarks by up to ~20x, and gains track the offloadable share.
    let cnn = offload_speedup(&cnn_trace(10), &SystemConfig::with_crossbar());
    assert!(
        cnn.speedup > 10.0 && cnn.speedup < 35.0,
        "CNN speedup {:.1}",
        cnn.speedup
    );
    let lstm = offload_speedup(&lstm_trace(16, 512), &SystemConfig::with_crossbar());
    assert!(lstm.speedup < cnn.speedup);
    assert!(lstm.speedup > 1.0);
}

#[test]
fn triage_objectives_change_the_winner_story() {
    // The framework exists to ask "under WHICH objective does a design
    // point win": batched GPU inference must beat batch-1 under any
    // objective, while dedicated hardware wins latency-first.
    let candidates = HdcScenario::default().candidates().unwrap();
    let lat = rank(&candidates, &Objective::latency_first(None));
    let pos = |ranking: &[xlda::core::triage::Ranked], name: &str| {
        ranking
            .iter()
            .position(|r| r.name.contains(name))
            .expect("candidate present")
    };
    assert!(pos(&lat, "batch 1000") < pos(&lat, "batch 1)"));
    assert!(pos(&lat, "FeFET CAM") < pos(&lat, "GPU HDC"));
}

#[test]
fn fig3d_fefet_cam_cell_conductance_is_square_law() {
    // E2 / Fig. 3D: a perfect match conducts only leakage, and inside
    // the V_th window the conductance grows with the square of the
    // deviation (the squared-Euclidean proxy).
    let dev = Fefet::silicon();
    assert_eq!(dev.cam_cell_conductance(0.0), dev.g_off);
    for dv in [dev.window() / 8.0, dev.window() / 4.0] {
        let g1 = dev.cam_cell_conductance(dv) - dev.g_off;
        let g2 = dev.cam_cell_conductance(2.0 * dv) - dev.g_off;
        assert!(g1 > 0.0, "conductance must rise off the match point");
        let ratio = g2 / g1;
        assert!(
            (ratio - 4.0).abs() < 1e-9,
            "doubling dV={dv} V scaled G - g_off by {ratio}, not 4"
        );
    }
}

#[test]
fn fig4c_tlsh_suppresses_unstable_hash_bits() {
    // E7 / Fig. 4C: after 6 decades of conductance relaxation, marking
    // near-plane bits "don't care" (TLSH) removes flips: the flip rate
    // of definite bits falls strictly as the threshold rises, and at
    // threshold 0.3 it is under half the binary LSH flip rate.
    let dev = Rram::taox();
    let (dim, bits, inputs) = (128, 256, 40);
    let thresholds = [0.0, 0.1, 0.2, 0.3, 0.5];
    let mut rng = Rng64::new(0x4c);
    let probes: Vec<Vec<f64>> = (0..inputs)
        .map(|_| (0..dim).map(|_| rng.uniform()).collect())
        .collect();
    let mut lsh_flips = 0usize;
    let mut lsh_total = 0usize;
    let mut tlsh = vec![(0usize, 0usize); thresholds.len()];
    for (trial, x) in probes.iter().enumerate() {
        let proj = StochasticProjection::new(dim, bits, &dev, &mut Rng64::new(77 + trial as u64));
        let mut drifted = proj.clone();
        drifted.relax(6.0, &mut rng);
        let (h0, h1) = (proj.hash(x), drifted.hash(x));
        lsh_flips += h0.iter().zip(&h1).filter(|(a, b)| a != b).count();
        lsh_total += bits;
        for (k, &frac) in thresholds.iter().enumerate() {
            let thr = proj.calibrate_threshold(std::slice::from_ref(x), frac);
            let t0 = proj.ternary_hash(x, thr);
            for (t, h) in t0.iter().zip(&h1) {
                if *t != 0 {
                    tlsh[k].1 += 1;
                    if t != h {
                        tlsh[k].0 += 1;
                    }
                }
            }
        }
    }
    let lsh_rate = lsh_flips as f64 / lsh_total as f64;
    let rates: Vec<f64> = tlsh
        .iter()
        .map(|&(f, n)| f as f64 / n.max(1) as f64)
        .collect();
    assert!(lsh_rate > 0.0, "relaxation must flip some binary bits");
    for (w, t) in rates.windows(2).zip(thresholds.windows(2)) {
        assert!(
            w[1] < w[0],
            "TLSH flip rate rose from {} (X={}) to {} (X={})",
            w[0],
            t[0],
            w[1],
            t[1]
        );
    }
    let at_03 = rates[3];
    assert!(
        at_03 < 0.5 * lsh_rate,
        "TLSH at 0.3 flips {at_03}, LSH {lsh_rate}"
    );
}

#[test]
fn nvram_sweep_flash_is_dense_but_culled_by_write_latency() {
    // E13 / Sec. VI memory lane: at 16 MiB (read-latency optimized),
    // 3D-NAND is far denser than RRAM but its writes are three orders
    // of magnitude slower; SRAM pays for its speed in area.
    let report = |cell| -> RamReport {
        let config = RamConfig {
            capacity_bits: 16 * 8 * (1 << 20),
            word_bits: 64,
            cell,
            ..RamConfig::default()
        };
        RamArray::auto_organize(&config, OptTarget::ReadLatency)
            .expect("16 MiB organizes")
            .report()
    };
    let nand = report(RamCell::Nand3D { layers: 64 });
    let rram = report(RamCell::Rram1T1R);
    let sram = report(RamCell::Sram6T);
    assert!(
        nand.area_mm2 < rram.area_mm2 / 3.0,
        "3D-NAND {} mm² vs RRAM {} mm²",
        nand.area_mm2,
        rram.area_mm2
    );
    assert!(
        nand.write_latency_s >= 1000.0 * rram.write_latency_s,
        "3D-NAND writes in {} s vs RRAM {} s",
        nand.write_latency_s,
        rram.write_latency_s
    );
    assert!(
        sram.area_mm2 >= 5.0 * rram.area_mm2,
        "SRAM {} mm² vs RRAM {} mm²",
        sram.area_mm2,
        rram.area_mm2
    );
}
