//! The scalar organiser and the batch solver share one organization
//! decision: the `nvram.auto_organize` memo entry one path writes is the
//! entry the other reads, and both agree bit for bit with memo on or off.

use std::sync::Mutex;
use xlda_circuit::tech::TechNode;
use xlda_num::memo;
use xlda_nvram::{OptTarget, RamArray, RamBatchSolver, RamCell, RamConfig, RamReport};

/// Serializes the tests of this file on the process-global memo switch
/// and the `nvram.auto_organize` counters.
static MEMO_LOCK: Mutex<()> = Mutex::new(());

fn org_counters() -> (u64, u64) {
    memo::snapshot()
        .iter()
        .find(|c| c.name == "nvram.auto_organize")
        .map_or((0, 0), |c| (c.hits, c.misses))
}

fn assert_bits(a: &RamReport, b: &RamReport) {
    for (x, y) in [
        (a.read_latency_s, b.read_latency_s),
        (a.write_latency_s, b.write_latency_s),
        (a.read_energy_j, b.read_energy_j),
        (a.write_energy_j, b.write_energy_j),
        (a.area_mm2, b.area_mm2),
        (a.leakage_w, b.leakage_w),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}

fn configs() -> Vec<(RamConfig, OptTarget)> {
    let mut out = Vec::new();
    for cell in [RamCell::Sram6T, RamCell::Rram1T1R, RamCell::Fefet1T] {
        for capacity_bits in [1u64 << 20, (8 << 20) + 12_345] {
            for target in [OptTarget::ReadLatency, OptTarget::Area] {
                let config = RamConfig {
                    capacity_bits,
                    word_bits: 64,
                    cell,
                    tech: TechNode::n40(),
                };
                out.push((config, target));
            }
        }
    }
    out
}

#[test]
fn batch_solver_reads_the_scalar_organizer_memo() {
    let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    memo::set_enabled(true);
    memo::clear_all();
    for (config, target) in configs() {
        let scalar = RamArray::auto_organize(&config, target).expect("organizes");
        let before = org_counters();
        let batch = RamBatchSolver::new()
            .auto_organize_report(&config, target)
            .expect("organizes");
        let after = org_counters();
        assert_eq!(after.0 - before.0, 1, "one memo hit");
        assert_eq!(after.1 - before.1, 0, "no memo miss");
        assert_bits(&scalar.report(), &batch);
    }
}

#[test]
fn memo_off_organizers_agree_bit_for_bit() {
    let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    memo::set_enabled(false);
    let mut solver = RamBatchSolver::new();
    let reports: Vec<_> = configs()
        .into_iter()
        .map(|(config, target)| {
            let scalar = RamArray::auto_organize(&config, target).map(|ram| ram.report());
            (scalar, solver.auto_organize_report(&config, target))
        })
        .collect();
    memo::set_enabled(true);
    for (scalar, batch) in reports {
        assert_bits(&scalar.expect("organizes"), &batch.expect("organizes"));
    }
}
