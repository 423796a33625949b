//! Batch/per-point parity property tests for the columnar sweep kernels.
//!
//! The columnar engine's core contract is that chunked batch kernels
//! change throughput, never numerics: for any grid, chunk size, worker
//! count, or failure pattern, [`sweep_scenarios`] must produce a
//! [`CandidateBatch`] bit-identical to the per-point reference
//! [`sweep_scenarios_reference`] — same lanes, same FOM bits, same
//! error/panic containment.
//! These tests pin that contract over random HDC / MANN / Monte-Carlo
//! grids and a triage pass over the reconstructed candidates.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use xlda_circuit::tech::TechNode;
use xlda_core::evaluate::{
    sweep_scenarios, sweep_scenarios_reference, HdcScenario, MannScenario, Scenario,
};
use xlda_core::fom::{Candidate, Fom};
use xlda_core::mc::{MannAccuracyMcScenario, McParams};
use xlda_core::sweep::SweepOptions;
use xlda_core::triage::{rank, Objective};
use xlda_core::XldaError;
use xlda_num::batch::{CandidateBatch, PointStatus};

fn tech(pick: u8) -> TechNode {
    match pick % 3 {
        0 => TechNode::n40(),
        1 => TechNode::n22(),
        _ => TechNode::n65(),
    }
}

/// Random HDC scenario shapes. Degenerate shapes (zero dims) are kept:
/// a point that errors must error identically in both arms.
fn hdc_point() -> impl Strategy<Value = HdcScenario> {
    (0usize..1024, 1usize..64, 0usize..6, 0u8..3, any::<bool>()).prop_map(
        |(dim_in, classes, hv_k, t, poison_acc)| HdcScenario {
            dim_in,
            classes,
            hv_dim_sw: hv_k * 512,
            hv_dim_3b: hv_k * 256,
            hv_dim_2b: hv_k * 512,
            hv_dim_1b: hv_k * 512,
            // A NaN accuracy fails FOM validation mid-candidate-set;
            // the batch kernel must record the identical error.
            acc_sw: if poison_acc && hv_k == 0 {
                f64::NAN
            } else {
                0.93
            },
            tech: tech(t),
            ..HdcScenario::default()
        },
    )
}

fn mann_point() -> impl Strategy<Value = MannScenario> {
    (
        1usize..300_000,
        1usize..256,
        1usize..512,
        1usize..6000,
        0u8..3,
        any::<bool>(),
    )
        .prop_map(
            |(weights, emb_dim, hash_bits, entries, t, poison)| MannScenario {
                weights,
                emb_dim,
                hash_bits,
                entries,
                // An out-of-range accuracy is rejected by validation; both
                // arms must agree on the rejection.
                acc_rram: if poison && entries < 200 { 1.5 } else { 0.94 },
                tech: tech(t),
                ..MannScenario::default()
            },
        )
}

fn scalar_arm() -> SweepOptions {
    SweepOptions::builder().threads(2).build()
}

fn columnar_arm(chunk: usize, threads: usize) -> SweepOptions {
    SweepOptions::builder()
        .chunk(chunk)
        .threads(threads)
        .build()
}

/// Full bit-level equality: structure, statuses, messages, lane names,
/// and every FOM column compared by `to_bits`, plus the FNV checksum.
fn assert_bit_identical(a: &CandidateBatch, b: &CandidateBatch) {
    assert_eq!(a.points(), b.points(), "point count");
    assert_eq!(a.lanes(), b.lanes(), "lane count");
    for p in 0..a.points() {
        assert_eq!(a.point_status(p), b.point_status(p), "status of point {p}");
        assert_eq!(
            a.point_message(p),
            b.point_message(p),
            "message of point {p}"
        );
        assert_eq!(a.lane_range(p), b.lane_range(p), "lane range of point {p}");
    }
    for l in 0..a.lanes() {
        assert_eq!(a.lane_name(l), b.lane_name(l), "name of lane {l}");
    }
    for (col, name) in [
        (
            CandidateBatch::latency_s as fn(&CandidateBatch) -> &[f64],
            "latency_s",
        ),
        (CandidateBatch::energy_j, "energy_j"),
        (CandidateBatch::area_mm2, "area_mm2"),
        (CandidateBatch::accuracy, "accuracy"),
    ] {
        let (ca, cb) = (col(a), col(b));
        for l in 0..ca.len() {
            assert_eq!(
                ca[l].to_bits(),
                cb[l].to_bits(),
                "{name} bits of lane {l} ({} vs {})",
                ca[l],
                cb[l]
            );
        }
    }
    assert_eq!(a.checksum(), b.checksum(), "batch checksum");
}

/// Rebuilds owned [`Candidate`]s from one point's lanes, so the triage
/// ranker can consume a columnar batch.
fn candidates_of(batch: &CandidateBatch, point: usize) -> Vec<Candidate> {
    batch
        .lane_range(point)
        .map(|l| {
            Candidate::new(
                batch.lane_name(l),
                Fom {
                    latency_s: batch.latency_s()[l],
                    energy_j: batch.energy_j()[l],
                    area_mm2: batch.area_mm2()[l],
                    accuracy: batch.accuracy()[l],
                },
            )
        })
        .collect()
}

/// A scenario wrapper that panics on flagged points, for containment
/// tests: the panic unwinds out of the batch kernel, forfeiting the
/// whole chunk to the per-point fallback.
#[derive(Debug, Clone)]
struct Poisoned {
    inner: HdcScenario,
    id: usize,
    panics: bool,
}

impl Scenario for Poisoned {
    fn kind(&self) -> &'static str {
        "poisoned-parity"
    }

    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        assert!(!self.panics, "poisoned point {}", self.id);
        self.inner.candidates()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random HDC grids (mixed tech nodes, error points included):
    /// columnar chunks of any size match the scalar arm bit-for-bit.
    #[test]
    fn hdc_random_grids_are_bit_identical(
        grid in proptest::collection::vec(hdc_point(), 1..14),
        chunk in 0usize..9,
        threads in 1usize..4,
    ) {
        let scalar = sweep_scenarios_reference(&grid, &scalar_arm());
        let columnar = sweep_scenarios(&grid, &columnar_arm(chunk, threads));
        assert_bit_identical(&scalar, &columnar);
    }

    /// Random MANN grids, including validation-rejected points.
    #[test]
    fn mann_random_grids_are_bit_identical(
        grid in proptest::collection::vec(mann_point(), 1..14),
        chunk in 0usize..9,
        threads in 1usize..4,
    ) {
        let scalar = sweep_scenarios_reference(&grid, &scalar_arm());
        let columnar = sweep_scenarios(&grid, &columnar_arm(chunk, threads));
        assert_bit_identical(&scalar, &columnar);
    }

    /// Monte-Carlo scenarios have no specialized batch kernel, so the
    /// columnar engine runs them through the provided per-point default
    /// of `Scenario::candidates_batch` — which must also be exact.
    #[test]
    fn mc_random_grids_take_the_default_batch_path(
        seeds in proptest::collection::vec(any::<u64>(), 1..5),
        chunk in 0usize..4,
    ) {
        let grid: Vec<MannAccuracyMcScenario> = seeds
            .into_iter()
            .map(|seed| MannAccuracyMcScenario {
                mc: McParams { trials: 24, seed, ..McParams::default() },
                hash_bits: 16,
                ..MannAccuracyMcScenario::default()
            })
            .collect();
        let scalar = sweep_scenarios_reference(&grid, &scalar_arm());
        let columnar = sweep_scenarios(&grid, &columnar_arm(chunk, 2));
        assert_bit_identical(&scalar, &columnar);
    }

    /// Triage over a columnar batch: ranking candidates reconstructed
    /// from the batch's lanes gives bit-identical scores to ranking the
    /// scalar arm's, under both weighting objectives.
    #[test]
    fn triage_scores_agree_across_arms(
        grid in proptest::collection::vec(hdc_point(), 1..8),
        chunk in 0usize..5,
    ) {
        let scalar = sweep_scenarios_reference(&grid, &scalar_arm());
        let columnar = sweep_scenarios(&grid, &columnar_arm(chunk, 2));
        for p in 0..scalar.points() {
            if scalar.point_status(p) != PointStatus::Ok {
                continue;
            }
            for obj in [Objective::latency_first(Some(0.9)), Objective::energy_first(Some(0.9))] {
                let a: Vec<u64> = rank(&candidates_of(&scalar, p), &obj)
                    .iter().map(|r| r.score.to_bits()).collect();
                let b: Vec<u64> = rank(&candidates_of(&columnar, p), &obj)
                    .iter().map(|r| r.score.to_bits()).collect();
                prop_assert_eq!(&a, &b, "point {} {:?}", p, obj);
            }
        }
    }

    /// Batch-size invariance: every chunk/thread shape folds to the
    /// same checksum as the single-threaded whole-grid batch.
    #[test]
    fn chunking_never_moves_the_checksum(
        grid in proptest::collection::vec(hdc_point(), 1..10),
    ) {
        let reference = sweep_scenarios(&grid, &columnar_arm(grid.len(), 1));
        for chunk in [1usize, 2, 3, 7, 0] {
            for threads in [1usize, 2, 3] {
                let got = sweep_scenarios(&grid, &columnar_arm(chunk, threads));
                assert_bit_identical(&reference, &got);
            }
        }
    }

    /// Poisoned-lane containment: panicking points surface as
    /// `Panicked` in *both* arms while every surviving chunk-mate keeps
    /// its exact scalar bits.
    #[test]
    fn poisoned_points_are_contained_identically(
        grid in proptest::collection::vec((hdc_point(), any::<bool>()), 1..10),
        chunk in 0usize..5,
    ) {
        let grid: Vec<Poisoned> = grid
            .into_iter()
            .enumerate()
            .map(|(id, (inner, panics))| Poisoned { inner, id, panics })
            .collect();
        // The unwind machinery prints each panic; silence the hook so
        // 16 proptest cases don't flood the test log.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = catch_unwind(AssertUnwindSafe(|| {
            let scalar = sweep_scenarios_reference(&grid, &scalar_arm());
            let columnar = sweep_scenarios(&grid, &columnar_arm(chunk, 2));
            (scalar, columnar)
        }));
        std::panic::set_hook(prev);
        let (scalar, columnar) = run.expect("sweeps contain the panics");
        for (p, s) in grid.iter().enumerate() {
            // Panicking points must surface as Panicked; the rest keep
            // whatever the inner scenario produced (Ok or Error).
            prop_assert_eq!(
                scalar.point_status(p) == PointStatus::Panicked,
                s.panics,
                "scalar point {}: {:?}",
                p,
                scalar.point_status(p)
            );
        }
        assert_bit_identical(&scalar, &columnar);
    }
}
