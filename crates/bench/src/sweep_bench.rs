//! Sweep-engine benchmark workloads (the `xlda-bench` binary).
//!
//! Measures the v2 sweep engine (work-stealing dispatch + cross-point
//! memoization, see `xlda_core::sweep`) against the v1 baseline path
//! (one contiguous chunk per worker, memoization globally disabled) on
//! three fixed design-space-exploration workloads:
//!
//! - **hdc** — the Fig. 3H candidate set evaluated over a grid of
//!   scenario shapes (feature dim × class count × HV length);
//! - **mann** — the Fig. 4E MANN platform comparison over a grid of
//!   network/memory shapes;
//! - **triage** — full cross-layer triage: the HDC candidate set plus
//!   weighted ranking under two objectives per scenario, the paper's
//!   "rapidly triage technology-enabled architectures" loop;
//! - **mc** — Monte-Carlo MANN accuracy distributions under device
//!   variation (`xlda_core::mc`), a grid of hash/relaxation shapes; each
//!   point runs a full trial population, so the report also carries
//!   `trials_per_sec`, and the v1/v2 checksum match doubles as the
//!   chunking-determinism gate (the two arms schedule differently).
//!
//! Both runs evaluate the identical point set and must produce
//! bit-identical results (`checksum_match`); the JSON report
//! (`BENCH_sweep.json`) is the trajectory format the CI `bench-smoke`
//! job gates on.
//!
//! The **hdc** and **mann** workloads additionally carry a cold-path
//! arm pair (`cold_scalar` / `cold_columnar`): both run with
//! memoization disabled, comparing the per-point reference
//! ([`xlda_core::evaluate::sweep_scenarios_reference`]) against the
//! columnar SoA batch kernels every
//! [`xlda_core::evaluate::sweep_scenarios`] call runs. The kernels
//! target exactly this memo-miss cold path — hoisted circuit solves
//! instead of cached ones — and must stay bit-identical to the
//! reference (`cold_checksum_match`).

use std::fmt::Write as _;
use std::time::Instant;
use xlda_circuit::tech::TechNode;
use xlda_core::evaluate::{
    sweep_scenarios, sweep_scenarios_reference, HdcScenario, MannScenario, Scenario,
};
use xlda_core::mc::{MannAccuracyMcScenario, McParams};
use xlda_core::sweep::{diff_caches, memo, sweep_with_stats, SweepOptions, SweepStats};
use xlda_core::triage::{rank, Objective};
use xlda_num::batch::{CandidateBatch, PointStatus};
use xlda_serve::json::Json;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3H HDC candidate evaluation over a scenario grid.
    Hdc,
    /// MANN platform comparison over a shape grid.
    Mann,
    /// HDC candidates + dual-objective ranking (full triage loop).
    Triage,
    /// MANN accuracy Monte-Carlo under variation, over a shape grid.
    Mc,
}

impl Workload {
    /// All workloads, in report order.
    pub fn all() -> [Workload; 4] {
        [
            Workload::Hdc,
            Workload::Mann,
            Workload::Triage,
            Workload::Mc,
        ]
    }

    /// Report name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Hdc => "hdc",
            Workload::Mann => "mann",
            Workload::Triage => "triage",
            Workload::Mc => "mc",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "hdc" => Some(Workload::Hdc),
            "mann" => Some(Workload::Mann),
            "triage" => Some(Workload::Triage),
            "mc" => Some(Workload::Mc),
            _ => None,
        }
    }
}

/// Measurements of one engine configuration over one workload.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Wall time of the sweep (s).
    pub elapsed_s: f64,
    /// Evaluated design points per second.
    pub points_per_sec: f64,
    /// Total memo-cache hits during the sweep.
    pub cache_hits: u64,
    /// Total memo-cache misses during the sweep.
    pub cache_misses: u64,
    /// Aggregate cache hit rate (0 when memoization is disabled).
    pub cache_hit_rate: f64,
    /// Per-cache counters: (name, hits, misses, entries).
    pub caches: Vec<(String, u64, u64, u64)>,
    /// Per-span aggregates from the obs layer:
    /// (name, total seconds, self seconds, calls).
    pub layers: Vec<(String, f64, f64, u64)>,
    /// Order-sensitive FNV fold of every output bit pattern.
    pub checksum: u64,
}

/// One workload's baseline-vs-v2 comparison.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Number of sweep points.
    pub points: usize,
    /// v1 path: one contiguous chunk per worker, memoization off.
    pub baseline: RunStats,
    /// v2 path: work-stealing, memoization on.
    pub v2: RunStats,
    /// Monte-Carlo trials evaluated inside each point (0 for the
    /// deterministic workloads).
    pub trials_per_point: usize,
    /// Cold-path (memo off) scalar-vs-columnar comparison; only the
    /// workloads with batch kernels (hdc, mann) carry one.
    pub cold: Option<ColdPath>,
}

impl WorkloadResult {
    /// Throughput ratio of v2 over the baseline path.
    pub fn speedup(&self) -> f64 {
        self.v2.points_per_sec / self.baseline.points_per_sec
    }

    /// Whether both paths produced bit-identical outputs.
    pub fn checksum_match(&self) -> bool {
        self.baseline.checksum == self.v2.checksum
    }

    /// Monte-Carlo trials per second on the v2 path (0 for the
    /// deterministic workloads).
    pub fn trials_per_sec(&self) -> f64 {
        self.v2.points_per_sec * self.trials_per_point as f64
    }
}

/// Cold-path comparison: the per-point reference vs the columnar batch
/// kernels, both with memoization disabled. This isolates the kernel
/// gain (hoisted invariant solves, SoA inner loops) from the memo
/// cache the warm arms lean on.
#[derive(Debug, Clone)]
pub struct ColdPath {
    /// Per-point reference evaluation (`sweep_scenarios_reference`),
    /// memo off.
    pub scalar: RunStats,
    /// SoA batch kernels (`sweep_scenarios`), memo off.
    pub columnar: RunStats,
}

impl ColdPath {
    /// Throughput ratio of the columnar kernels over the cold scalar
    /// path.
    pub fn speedup(&self) -> f64 {
        self.columnar.points_per_sec / self.scalar.points_per_sec
    }

    /// Whether the two cold arms produced bit-identical outputs.
    pub fn checksum_match(&self) -> bool {
        self.scalar.checksum == self.columnar.checksum
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fold_f64s(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(FNV_OFFSET, |h, v| (h ^ v.to_bits()).wrapping_mul(FNV_PRIME))
}

/// Folds a [`CandidateBatch`] with the same per-point structure as the
/// scalar eval closures: each Ok point folds its lanes' first `fields`
/// FOM columns (4 = latency/energy/area/accuracy for hdc, 3 for mann),
/// each failed point folds the `FNV_PRIME` error marker, and the
/// per-point hashes fold into one sweep checksum. A cold-columnar
/// checksum is therefore directly comparable to the scalar arms'.
fn fold_batch(batch: &CandidateBatch, fields: usize) -> u64 {
    let cols = [
        batch.latency_s(),
        batch.energy_j(),
        batch.area_mm2(),
        batch.accuracy(),
    ];
    (0..batch.points()).fold(FNV_OFFSET, |h, p| {
        let point = if batch.point_status(p) == PointStatus::Ok {
            batch.lane_range(p).fold(FNV_OFFSET, |h, lane| {
                cols[..fields].iter().fold(h, |h, col| {
                    (h ^ col[lane].to_bits()).wrapping_mul(FNV_PRIME)
                })
            })
        } else {
            FNV_PRIME
        };
        (h ^ point).wrapping_mul(FNV_PRIME)
    })
}

pub(crate) fn grid_hdc(smoke: bool) -> Vec<HdcScenario> {
    let dims: &[usize] = if smoke {
        &[256, 617]
    } else {
        &[256, 512, 617, 784, 1024]
    };
    let classes: &[usize] = if smoke {
        &[10, 26]
    } else {
        &[10, 16, 26, 40, 50]
    };
    let hvs: &[usize] = if smoke {
        &[1024, 2048]
    } else {
        &[1024, 2048, 4096, 8192]
    };
    let mut out = Vec::new();
    for &dim_in in dims {
        for &cls in classes {
            for &hv in hvs {
                out.push(HdcScenario {
                    dim_in,
                    classes: cls,
                    hv_dim_sw: hv,
                    hv_dim_3b: hv / 2,
                    hv_dim_2b: hv,
                    hv_dim_1b: hv,
                    tech: TechNode::n40(),
                    ..HdcScenario::default()
                });
            }
        }
    }
    out
}

pub(crate) fn grid_mann(smoke: bool) -> Vec<MannScenario> {
    let weights: &[usize] = if smoke {
        &[16_000, 65_000]
    } else {
        &[16_000, 65_000, 131_000, 262_000]
    };
    let embs: &[usize] = if smoke { &[64] } else { &[32, 64, 128] };
    let hashes: &[usize] = &[128, 256];
    let entries: &[usize] = if smoke {
        &[125, 1000]
    } else {
        &[125, 500, 1000, 5000]
    };
    let mut out = Vec::new();
    for &w in weights {
        for &e in embs {
            for &h in hashes {
                for &n in entries {
                    out.push(MannScenario {
                        weights: w,
                        emb_dim: e,
                        hash_bits: h,
                        entries: n,
                        tech: TechNode::n40(),
                        ..MannScenario::default()
                    });
                }
            }
        }
    }
    out
}

/// Trial population per MC grid point. Constant across the grid so the
/// report's `trials_per_sec` is exact, not an average.
pub(crate) const MC_TRIALS_PER_POINT: usize = 1024;

pub(crate) fn grid_mc(smoke: bool) -> Vec<MannAccuracyMcScenario> {
    let hash_bits: &[usize] = if smoke { &[64] } else { &[64, 128] };
    let decades: &[f64] = if smoke { &[3.0] } else { &[0.5, 1.5, 3.0, 4.5] };
    let noises: &[f64] = if smoke { &[0.01] } else { &[0.01, 0.05] };
    let mut out = Vec::new();
    for (i, &bits) in hash_bits.iter().enumerate() {
        for (j, &d) in decades.iter().enumerate() {
            for (k, &rn) in noises.iter().enumerate() {
                out.push(MannAccuracyMcScenario {
                    mc: McParams {
                        trials: MC_TRIALS_PER_POINT,
                        // Distinct seeds per point: the workload must not
                        // degenerate into one repeated stream.
                        seed: 0xBE2C_0000 + (i * 100 + j * 10 + k) as u64,
                        ..McParams::default()
                    },
                    hash_bits: bits,
                    relax_decades: d,
                    read_noise: rn,
                    ..MannAccuracyMcScenario::default()
                });
            }
        }
    }
    out
}

fn eval_mc(s: &MannAccuracyMcScenario) -> u64 {
    match s.evaluate() {
        Ok(eval) => eval.distributions.iter().fold(FNV_OFFSET, |h, d| {
            let h = [
                d.summary.mean,
                d.summary.std_dev,
                d.summary.p5,
                d.summary.p50,
                d.summary.p95,
                d.yield_fraction,
            ]
            .iter()
            .fold(h, |h, v| (h ^ v.to_bits()).wrapping_mul(FNV_PRIME));
            // The per-column checksum covers every trial bit, so a
            // single drifting draw anywhere fails the v1/v2 match.
            (h ^ d.checksum).wrapping_mul(FNV_PRIME)
        }),
        Err(_) => FNV_PRIME,
    }
}

fn eval_hdc(s: &HdcScenario) -> u64 {
    match s.candidates() {
        Ok(cands) => {
            let foms: Vec<f64> = cands
                .iter()
                .flat_map(|c| {
                    [
                        c.fom.latency_s,
                        c.fom.energy_j,
                        c.fom.area_mm2,
                        c.fom.accuracy,
                    ]
                })
                .collect();
            fold_f64s(&foms)
        }
        Err(_) => FNV_PRIME, // error marker, identical in both modes
    }
}

fn eval_mann(s: &MannScenario) -> u64 {
    match s.candidates() {
        Ok(cands) => {
            let foms: Vec<f64> = cands
                .iter()
                .flat_map(|c| [c.fom.latency_s, c.fom.energy_j, c.fom.area_mm2])
                .collect();
            fold_f64s(&foms)
        }
        Err(_) => FNV_PRIME,
    }
}

fn eval_triage(s: &HdcScenario) -> u64 {
    match s.candidates() {
        Ok(cands) => {
            let mut scores = Vec::new();
            for obj in [
                Objective::latency_first(Some(0.9)),
                Objective::energy_first(Some(0.9)),
            ] {
                for r in rank(&cands, &obj) {
                    scores.push(r.score);
                }
            }
            fold_f64s(&scores)
        }
        Err(_) => FNV_PRIME,
    }
}

/// Timing trials per measurement; the fastest is reported. The
/// workloads run in milliseconds, so a single trial is at the mercy of
/// scheduler noise; best-of-N recovers the engine's actual throughput.
const TRIALS: usize = 3;

fn measure<I, F>(inputs: &[I], f: F, opts: &SweepOptions, memo_on: bool, obs_on: bool) -> RunStats
where
    I: Sync,
    F: Fn(&I) -> u64 + Sync,
{
    let mut best: Option<RunStats> = None;
    for _ in 0..TRIALS {
        let run = measure_once(inputs, &f, opts, memo_on, obs_on);
        if best.as_ref().is_none_or(|b| run.elapsed_s < b.elapsed_s) {
            best = Some(run);
        }
    }
    best.expect("TRIALS >= 1")
}

fn measure_once<I, F>(
    inputs: &[I],
    f: F,
    opts: &SweepOptions,
    memo_on: bool,
    obs_on: bool,
) -> RunStats
where
    I: Sync,
    F: Fn(&I) -> u64 + Sync,
{
    // Cold caches every trial: each memoized run starts from scratch so
    // the reported speedup is the honest cold-sweep figure, not a
    // warm-cache replay. Span aggregates reset too, so the per-layer
    // breakdown reflects exactly this run.
    memo::clear_all();
    memo::set_enabled(memo_on);
    xlda_obs::reset_aggregates();
    xlda_obs::set_enabled(obs_on);
    let (out, stats) = sweep_with_stats(inputs, f, opts);
    xlda_obs::set_enabled(false);
    memo::set_enabled(true);
    let checksum = out
        .iter()
        .fold(FNV_OFFSET, |h, &c| (h ^ c).wrapping_mul(FNV_PRIME));
    run_stats(&stats, checksum)
}

fn run_stats(stats: &SweepStats, checksum: u64) -> RunStats {
    RunStats {
        elapsed_s: stats.elapsed.as_secs_f64(),
        points_per_sec: stats.points_per_sec(),
        cache_hits: stats.cache_hits(),
        cache_misses: stats.cache_misses(),
        cache_hit_rate: stats.cache_hit_rate(),
        caches: stats
            .caches
            .iter()
            .filter(|c| c.hits + c.misses > 0)
            .map(|c| (c.name.to_string(), c.hits, c.misses, c.entries))
            .collect(),
        layers: stats
            .layers
            .iter()
            .map(|l| {
                (
                    l.name.to_string(),
                    l.total_nanos as f64 * 1e-9,
                    l.self_nanos as f64 * 1e-9,
                    l.calls,
                )
            })
            .collect(),
        checksum,
    }
}

/// One cold trial: memoization and spans off, scenarios swept by
/// `sweep` ([`sweep_scenarios`] or its per-point reference) at the
/// default options, checksum folded from the batch.
fn measure_cold_once<S: Scenario>(
    inputs: &[S],
    sweep: fn(&[S], &SweepOptions) -> CandidateBatch,
    fields: usize,
) -> RunStats {
    memo::clear_all();
    memo::set_enabled(false);
    xlda_obs::reset_aggregates();
    xlda_obs::set_enabled(false);
    let caches_before = memo::snapshot();
    let start = Instant::now();
    let batch = sweep(inputs, &SweepOptions::default());
    let elapsed = start.elapsed();
    let caches = diff_caches(&caches_before, memo::snapshot());
    memo::set_enabled(true);
    let stats = SweepStats {
        points: inputs.len(),
        elapsed,
        caches,
        layers: Vec::new(),
    };
    run_stats(&stats, fold_batch(&batch, fields))
}

fn measure_cold<S: Scenario>(
    inputs: &[S],
    sweep: fn(&[S], &SweepOptions) -> CandidateBatch,
    fields: usize,
) -> RunStats {
    let mut best: Option<RunStats> = None;
    for _ in 0..TRIALS {
        let run = measure_cold_once(inputs, sweep, fields);
        if best.as_ref().is_none_or(|b| run.elapsed_s < b.elapsed_s) {
            best = Some(run);
        }
    }
    best.expect("TRIALS >= 1")
}

/// Cold-path pair for one workload: the per-point reference on the
/// work-stealing engine (its strongest memo-less configuration, so the
/// ratio credits the kernels and not the scheduler) vs the columnar
/// batch kernels.
fn cold_compare<S: Scenario>(inputs: &[S], fields: usize) -> ColdPath {
    ColdPath {
        scalar: measure_cold(inputs, sweep_scenarios_reference, fields),
        columnar: measure_cold(inputs, sweep_scenarios, fields),
    }
}

fn compare<I, F>(name: &'static str, inputs: &[I], f: F, obs_on: bool) -> WorkloadResult
where
    I: Sync,
    F: Fn(&I) -> u64 + Sync,
{
    // Baseline first so its cold run cannot benefit from v2's caches.
    // One contiguous chunk per worker is the v1 static partitioning.
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let v1 = SweepOptions::builder()
        .chunk(inputs.len().div_ceil(workers))
        .build();
    let baseline = measure(inputs, &f, &v1, false, obs_on);
    let v2 = measure(inputs, &f, &SweepOptions::default(), true, obs_on);
    WorkloadResult {
        name,
        points: inputs.len(),
        baseline,
        v2,
        trials_per_point: 0,
        cold: None,
    }
}

/// Runs one workload and returns its baseline-vs-v2 comparison.
/// `obs_on` controls span instrumentation (the per-layer breakdown is
/// empty when off).
pub fn run_workload_obs(w: Workload, smoke: bool, obs_on: bool) -> WorkloadResult {
    match w {
        Workload::Hdc => {
            let grid = grid_hdc(smoke);
            let mut r = compare("hdc", &grid, eval_hdc, obs_on);
            r.cold = Some(cold_compare(&grid, 4));
            r
        }
        Workload::Mann => {
            let grid = grid_mann(smoke);
            let mut r = compare("mann", &grid, eval_mann, obs_on);
            r.cold = Some(cold_compare(&grid, 3));
            r
        }
        Workload::Triage => compare("triage", &grid_hdc(smoke), eval_triage, obs_on),
        Workload::Mc => {
            let mut r = compare("mc", &grid_mc(smoke), eval_mc, obs_on);
            r.trials_per_point = MC_TRIALS_PER_POINT;
            r
        }
    }
}

/// [`run_workload_obs`] with instrumentation on.
pub fn run_workload(w: Workload, smoke: bool) -> WorkloadResult {
    run_workload_obs(w, smoke, true)
}

/// Runs the selected workloads (all of them when `which` is empty).
pub fn run(which: &[Workload], smoke: bool, obs_on: bool) -> Vec<WorkloadResult> {
    let list: Vec<Workload> = if which.is_empty() {
        Workload::all().to_vec()
    } else {
        which.to_vec()
    };
    list.into_iter()
        .map(|w| run_workload_obs(w, smoke, obs_on))
        .collect()
}

/// Disabled-vs-enabled instrumentation comparison of one workload's v2
/// path (the `--obs-overhead` mode, gated in CI).
#[derive(Debug, Clone)]
pub struct ObsOverhead {
    /// Workload name.
    pub workload: &'static str,
    /// Number of sweep points.
    pub points: usize,
    /// Spans disabled (the production default); fastest trial.
    pub off: RunStats,
    /// Spans enabled; fastest trial.
    pub on: RunStats,
    /// `on/off − 1` for each interleaved off/on trial pair.
    pub pair_overheads: Vec<f64>,
}

impl ObsOverhead {
    /// Fractional wall-time cost of enabling spans (0.05 = 5% slower):
    /// the median of the interleaved per-pair ratios. Single trials on a
    /// shared 1-core box jitter by ±10% in *both* directions, which rules
    /// out best-of-N floors (an extreme order statistic that inherits the
    /// distribution's tails); the pair median needs half the trials to be
    /// wrong in the same direction before it moves.
    pub fn overhead_frac(&self) -> f64 {
        if self.pair_overheads.is_empty() {
            return self.on.elapsed_s / self.off.elapsed_s - 1.0;
        }
        let mut sorted = self.pair_overheads.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    }

    /// Whether instrumentation left every output bit untouched.
    pub fn checksum_match(&self) -> bool {
        self.off.checksum == self.on.checksum
    }
}

/// Interleaved off/on trial pairs for the overhead gate. Single-trial
/// jitter on a shared 1-core box is ±10% — far above the 5% threshold —
/// so the gate needs enough trials that both best-of-N floors are clean.
const OVERHEAD_TRIALS: usize = 25;

fn overhead_compare<I, F>(name: &'static str, inputs: &[I], f: F) -> ObsOverhead
where
    I: Sync,
    F: Fn(&I) -> u64 + Sync,
{
    let opts = SweepOptions::default();
    // Interleave off/on trials so slow drift (CPU frequency, noisy
    // neighbours) hits both configurations equally instead of biasing
    // whichever ran second; best-of-N then compares the two floors.
    let mut off: Option<RunStats> = None;
    let mut on: Option<RunStats> = None;
    let mut pair_overheads = Vec::with_capacity(OVERHEAD_TRIALS);
    for _ in 0..OVERHEAD_TRIALS {
        let o = measure_once(inputs, &f, &opts, true, false);
        let e = measure_once(inputs, &f, &opts, true, true);
        pair_overheads.push(e.elapsed_s / o.elapsed_s - 1.0);
        if off.as_ref().is_none_or(|b| o.elapsed_s < b.elapsed_s) {
            off = Some(o);
        }
        if on.as_ref().is_none_or(|b| e.elapsed_s < b.elapsed_s) {
            on = Some(e);
        }
    }
    ObsOverhead {
        workload: name,
        points: inputs.len(),
        off: off.expect("OVERHEAD_TRIALS >= 1"),
        on: on.expect("OVERHEAD_TRIALS >= 1"),
        pair_overheads,
    }
}

/// Runs one workload's v2 path with spans off, then on.
///
/// The comparison always uses the full grid, even under `--smoke`: a
/// smoke grid finishes in hundreds of microseconds, where scheduler
/// jitter alone exceeds the 5% overhead gate, while the full grid is a
/// realistic cold sweep that still completes in well under a second.
pub fn run_obs_overhead(w: Workload, _smoke: bool) -> ObsOverhead {
    match w {
        Workload::Hdc => overhead_compare("hdc", &grid_hdc(false), eval_hdc),
        Workload::Mann => overhead_compare("mann", &grid_mann(false), eval_mann),
        Workload::Triage => overhead_compare("triage", &grid_hdc(false), eval_triage),
        Workload::Mc => overhead_compare("mc", &grid_mc(false), eval_mc),
    }
}

pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.6}");
    } else {
        out.push_str("null");
    }
}

fn push_run(out: &mut String, r: &RunStats) {
    out.push_str("{\"elapsed_s\":");
    push_json_f64(out, r.elapsed_s);
    out.push_str(",\"points_per_sec\":");
    push_json_f64(out, r.points_per_sec);
    let _ = write!(
        out,
        ",\"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":",
        r.cache_hits, r.cache_misses
    );
    push_json_f64(out, r.cache_hit_rate);
    out.push_str(",\"caches\":[");
    for (i, (name, hits, misses, entries)) in r.caches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"cache\":\"{name}\",\"hits\":{hits},\"misses\":{misses},\"entries\":{entries}}}"
        );
    }
    out.push_str("],\"layers\":[");
    for (i, (name, total_s, self_s, calls)) in r.layers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"layer\":\"{name}\",\"seconds\":");
        push_json_f64(out, *total_s);
        out.push_str(",\"self_seconds\":");
        push_json_f64(out, *self_s);
        let _ = write!(out, ",\"calls\":{calls}}}");
    }
    let _ = write!(out, "],\"checksum\":\"{:016x}\"}}", r.checksum);
}

/// Renders the results as the `BENCH_sweep.json` trajectory document.
///
/// Hand-rolled emission: the workspace has no serialization crate, so
/// the report writes this fixed schema directly.
pub fn to_json(results: &[WorkloadResult], smoke: bool) -> String {
    to_json_with_store(results, &[], smoke)
}

/// [`to_json`] with the persistent-store arm appended as a
/// `store_arms` array (omitted when empty). Store-arm entries key on
/// `store_workload` rather than `name`, so they cannot be mistaken for
/// the engine-comparison entries.
pub fn to_json_with_store(
    results: &[WorkloadResult],
    store_arms: &[crate::store_bench::StoreArmResult],
    smoke: bool,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"xlda-bench-sweep-v1\",\"mode\":\"{}\",\"workloads\":[",
        if smoke { "smoke" } else { "full" }
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{}\",\"points\":{},", r.name, r.points);
        out.push_str("\"baseline\":");
        push_run(&mut out, &r.baseline);
        out.push_str(",\"v2\":");
        push_run(&mut out, &r.v2);
        out.push_str(",\"speedup\":");
        push_json_f64(&mut out, r.speedup());
        if r.trials_per_point > 0 {
            let _ = write!(out, ",\"trials_per_point\":{},", r.trials_per_point);
            out.push_str("\"trials_per_sec\":");
            push_json_f64(&mut out, r.trials_per_sec());
        }
        let _ = write!(out, ",\"checksum_match\":{}", r.checksum_match());
        if let Some(cold) = &r.cold {
            out.push_str(",\"cold_scalar\":");
            push_run(&mut out, &cold.scalar);
            out.push_str(",\"cold_columnar\":");
            push_run(&mut out, &cold.columnar);
            out.push_str(",\"cold_speedup\":");
            push_json_f64(&mut out, cold.speedup());
            let _ = write!(out, ",\"cold_checksum_match\":{}", cold.checksum_match());
        }
        out.push('}');
    }
    out.push(']');
    if !store_arms.is_empty() {
        out.push_str(",\"store_arms\":[");
        for (i, a) in store_arms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::store_bench::push_store_arm(&mut out, a);
        }
        out.push(']');
    }
    out.push_str("}\n");
    out
}

/// The `workloads[]` entry of `doc` (a baseline or a report) whose
/// `key` field (`"name"`, or `"store_workload"` in store reports) is
/// `name`.
pub(crate) fn workload_entry<'a>(doc: &'a Json, key: &str, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get(key).and_then(Json::as_str) == Some(name))
}

/// Parses a document a gate reads (`what` names it in the failure),
/// recording a gate failure and returning `null` when it is not valid
/// JSON, so the gate then finds no floors in it.
pub(crate) fn parse_gate_input(text: &str, what: &str, failures: &mut Vec<String>) -> Json {
    Json::parse(text.trim()).unwrap_or_else(|e| {
        failures.push(format!("{what} is not valid JSON: {e}"));
        Json::Null
    })
}

/// Gates `results` against a committed baseline document.
///
/// For each workload present in `baseline_json`, fails when v2
/// throughput drops below `(1 - tolerance)` of the recorded
/// `points_per_sec` floor, when the measured speedup falls below a
/// recorded `min_speedup`, or when the two engine paths disagree
/// bit-for-bit. Workloads with a cold arm are additionally gated
/// against `cold_points_per_sec` / `min_cold_speedup` floors and must
/// keep the cold scalar/columnar checksums bit-identical. Every
/// message names the workload *and* the arm that failed. Returns the
/// list of failure messages (empty = pass).
pub fn check_against_baseline(
    results: &[WorkloadResult],
    baseline_json: &str,
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let baseline = parse_gate_input(baseline_json, "baseline", &mut failures);
    for r in results {
        let entry = workload_entry(&baseline, "name", r.name);
        let committed = |field: &str| entry.and_then(|e| e.get(field)).and_then(Json::as_f64);
        if !r.checksum_match() {
            failures.push(format!(
                "{} [v1 baseline vs v2 warm]: checksum mismatch ({:016x} vs {:016x})",
                r.name, r.baseline.checksum, r.v2.checksum
            ));
        }
        if let Some(floor) = committed("points_per_sec") {
            let min = floor * (1.0 - tolerance);
            if r.v2.points_per_sec < min {
                failures.push(format!(
                    "{} [v2 warm]: throughput {:.1} pts/s regressed below {:.1} \
                     (floor {:.1} − {:.0}% tolerance)",
                    r.name,
                    r.v2.points_per_sec,
                    min,
                    floor,
                    tolerance * 100.0
                ));
            }
        }
        if let Some(min_speedup) = committed("min_speedup") {
            if r.speedup() < min_speedup {
                failures.push(format!(
                    "{} [v2 warm]: speedup {:.2}x below required {:.2}x",
                    r.name,
                    r.speedup(),
                    min_speedup
                ));
            }
        }
        if let Some(floor) = committed("trials_per_sec") {
            let min = floor * (1.0 - tolerance);
            if r.trials_per_sec() < min {
                failures.push(format!(
                    "{} [v2 warm]: {:.0} trials/s regressed below {:.0} \
                     (floor {:.0} − {:.0}% tolerance)",
                    r.name,
                    r.trials_per_sec(),
                    min,
                    floor,
                    tolerance * 100.0
                ));
            }
        }
        if let Some(cold) = &r.cold {
            if !cold.checksum_match() {
                failures.push(format!(
                    "{} [cold scalar vs cold columnar]: checksum mismatch ({:016x} vs {:016x})",
                    r.name, cold.scalar.checksum, cold.columnar.checksum
                ));
            }
            if let Some(floor) = committed("cold_points_per_sec") {
                let min = floor * (1.0 - tolerance);
                if cold.columnar.points_per_sec < min {
                    failures.push(format!(
                        "{} [columnar cold]: throughput {:.1} pts/s regressed below {:.1} \
                         (floor {:.1} − {:.0}% tolerance)",
                        r.name,
                        cold.columnar.points_per_sec,
                        min,
                        floor,
                        tolerance * 100.0
                    ));
                }
            }
            if let Some(min_speedup) = committed("min_cold_speedup") {
                if cold.speedup() < min_speedup {
                    failures.push(format!(
                        "{} [columnar cold]: cold speedup {:.2}x below required {:.2}x",
                        r.name,
                        cold.speedup(),
                        min_speedup
                    ));
                }
            }
        }
    }
    failures
}

/// Prints a human-readable comparison table.
pub fn print(results: &[WorkloadResult]) {
    println!("sweep engine: v1 (static, no memo) vs v2 (work-stealing + memo)");
    crate::rule(92);
    println!(
        "{:>8} {:>7} {:>12} {:>12} {:>9} {:>10} {:>9} {:>10}",
        "workload", "points", "v1 pts/s", "v2 pts/s", "speedup", "hit rate", "entries", "identical"
    );
    for r in results {
        let entries: u64 = r.v2.caches.iter().map(|c| c.3).sum();
        println!(
            "{:>8} {:>7} {:>12.1} {:>12.1} {:>8.2}x {:>9.1}% {:>9} {:>10}",
            r.name,
            r.points,
            r.baseline.points_per_sec,
            r.v2.points_per_sec,
            r.speedup(),
            r.v2.cache_hit_rate * 100.0,
            entries,
            if r.checksum_match() { "yes" } else { "NO" },
        );
    }
    for r in results {
        if r.trials_per_point > 0 {
            println!(
                "{:>8} {} MC trials/point -> {:.0} trials/s (v2)",
                r.name,
                r.trials_per_point,
                r.trials_per_sec()
            );
        }
    }
    for r in results {
        if let Some(cold) = &r.cold {
            println!(
                "{:>8} cold path (memo off): scalar {:.1} pts/s -> columnar {:.1} pts/s \
                 ({:.2}x, {})",
                r.name,
                cold.scalar.points_per_sec,
                cold.columnar.points_per_sec,
                cold.speedup(),
                if cold.checksum_match() {
                    "bit-identical"
                } else {
                    "CHECKSUMS DIFFER"
                },
            );
        }
    }
    println!();
    for r in results {
        if r.v2.layers.is_empty() {
            continue;
        }
        // Percentages are of total span-covered time (the summed
        // self-times), which equals the roots' total time by telescoping.
        let covered: f64 = r.v2.layers.iter().map(|l| l.2).sum();
        println!("{} v2 per-layer self time:", r.name);
        for (name, total_s, self_s, calls) in &r.v2.layers {
            println!(
                "  {:>24} self {:>10} ({:>5.1}%)  total {:>10}  {calls} calls",
                name,
                crate::fmt_time(*self_s),
                100.0 * self_s / covered.max(1e-12),
                crate::fmt_time(*total_s),
            );
        }
    }
}

/// Prints the `--obs-overhead` comparison.
pub fn print_obs_overhead(o: &ObsOverhead) {
    println!(
        "obs overhead: {} ({} points, v2 path)",
        o.workload, o.points
    );
    crate::rule(64);
    println!(
        "  spans off: {:>10}  ({:.1} pts/s)",
        crate::fmt_time(o.off.elapsed_s),
        o.off.points_per_sec
    );
    println!(
        "  spans on:  {:>10}  ({:.1} pts/s)",
        crate::fmt_time(o.on.elapsed_s),
        o.on.points_per_sec
    );
    println!(
        "  overhead:  {:+.2}%  (median of {} interleaved pairs)   checksums {}",
        o.overhead_frac() * 100.0,
        o.pair_overheads.len(),
        if o.checksum_match() {
            "bit-identical"
        } else {
            "DIFFER"
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store_bench::{check_store_baseline, ArmStats, StoreArmResult};

    fn report(results: &[WorkloadResult]) -> Json {
        Json::parse(to_json(results, true).trim()).expect("report is valid JSON")
    }

    #[test]
    fn triage_smoke_is_transparent_and_faster() {
        let _guard = crate::test_lock();
        let r = run_workload(Workload::Triage, true);
        assert_eq!(r.points, 8);
        assert!(
            r.checksum_match(),
            "memoized sweep must be bit-identical: {:016x} vs {:016x}",
            r.baseline.checksum,
            r.v2.checksum
        );
        assert!(r.v2.cache_hits > 0, "caches must engage");
        assert!(r.baseline.cache_hits == 0, "baseline must not memoize");
        assert!(r.speedup() > 1.0, "speedup {:.2}", r.speedup());
    }

    #[test]
    fn layer_breakdown_accounts_for_wall_time() {
        let _guard = crate::test_lock();
        // Single-threaded so span-covered time is comparable to wall
        // time (with N workers the spans sum to ~N× wall).
        let inputs = grid_hdc(true);
        let opts = SweepOptions::builder().threads(1).build();
        let run = measure_once(&inputs, eval_triage, &opts, true, true);
        let self_sum: f64 = run.layers.iter().map(|l| l.2).sum();
        assert!(
            self_sum >= 0.9 * run.elapsed_s,
            "per-layer self time {self_sum:.6}s must cover >=90% of wall {:.6}s",
            run.elapsed_s
        );
        for expected in ["sweep.point", "evacam.report", "crossbar"] {
            assert!(
                run.layers.iter().any(|l| l.0 == expected),
                "breakdown missing span {expected}: {:?}",
                run.layers.iter().map(|l| &l.0).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn obs_overhead_is_transparent() {
        let _guard = crate::test_lock();
        let o = run_obs_overhead(Workload::Triage, true);
        assert!(
            o.checksum_match(),
            "instrumentation must not change outputs: {:016x} vs {:016x}",
            o.off.checksum,
            o.on.checksum
        );
        assert!(o.off.layers.is_empty(), "disabled run must record no spans");
        assert!(!o.on.layers.is_empty(), "enabled run must record spans");
    }

    #[test]
    fn mc_smoke_is_deterministic_across_engine_paths() {
        let _guard = crate::test_lock();
        let r = run_workload(Workload::Mc, true);
        assert_eq!(r.trials_per_point, MC_TRIALS_PER_POINT);
        // The two arms differ in schedule and memoization; identical
        // checksums here are the chunking-determinism gate.
        assert!(
            r.checksum_match(),
            "MC results must be schedule-invariant: {:016x} vs {:016x}",
            r.baseline.checksum,
            r.v2.checksum
        );
        assert!(r.trials_per_sec() > 0.0);
        let doc = report(std::slice::from_ref(&r));
        let mc = workload_entry(&doc, "name", "mc").expect("mc entry in report");
        assert_eq!(
            mc.get("trials_per_point").and_then(Json::as_usize),
            Some(MC_TRIALS_PER_POINT)
        );
        let tps = mc
            .get("trials_per_sec")
            .and_then(Json::as_f64)
            .expect("trials_per_sec in report");
        assert!((tps - r.trials_per_sec()).abs() < 1.0);
        // The trials_per_sec floor gates like points_per_sec does.
        let impossible = r#"{"workloads":[{"name":"mc","trials_per_sec":1e15}]}"#;
        let failures = check_against_baseline(std::slice::from_ref(&r), impossible, 0.3);
        assert!(
            failures.iter().any(|f| f.contains("trials/s")),
            "{failures:?}"
        );
    }

    #[test]
    fn json_report_round_trips() {
        let _guard = crate::test_lock();
        let r = run_workload(Workload::Mann, true);
        let doc = report(std::slice::from_ref(&r));
        let mann = workload_entry(&doc, "name", "mann").expect("mann entry in report");
        let pps = mann
            .get("baseline")
            .and_then(|b| b.get("points_per_sec"))
            .and_then(Json::as_f64)
            .expect("baseline pts/s");
        assert!((pps - r.baseline.points_per_sec).abs() < 1e-3);
        assert_eq!(mann.get("points").and_then(Json::as_usize), Some(r.points));
        assert!(workload_entry(&doc, "name", "absent").is_none());
    }

    #[test]
    fn cold_columnar_arm_is_bit_identical_and_gated() {
        let _guard = crate::test_lock();
        let r = run_workload(Workload::Hdc, true);
        let cold = r.cold.as_ref().expect("hdc carries a cold arm");
        assert!(
            cold.checksum_match(),
            "columnar kernels must be bit-identical to the cold reference: \
             {:016x} vs {:016x}",
            cold.scalar.checksum,
            cold.columnar.checksum
        );
        // fold_batch mirrors the scalar eval closures' structure, so the
        // cold checksums also match the warm arms' over the same grid.
        assert_eq!(cold.scalar.checksum, r.baseline.checksum);
        assert_eq!(cold.scalar.cache_hits, 0, "cold arms must not memoize");
        assert_eq!(cold.columnar.cache_hits, 0, "cold arms must not memoize");
        let doc = report(std::slice::from_ref(&r));
        let hdc = workload_entry(&doc, "name", "hdc").expect("hdc entry in report");
        assert!(hdc.get("cold_speedup").and_then(Json::as_f64).is_some());
        assert_eq!(
            hdc.get("cold_checksum_match").and_then(Json::as_bool),
            Some(true)
        );
        // Cold floors gate like the warm ones, with arm-labeled messages.
        let impossible =
            r#"{"workloads":[{"name":"hdc","cold_points_per_sec":1e15,"min_cold_speedup":1e9}]}"#;
        let failures = check_against_baseline(std::slice::from_ref(&r), impossible, 0.3);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("hdc [columnar cold]") && failures[0].contains("regressed"));
        assert!(failures[1].contains("cold speedup"));
    }

    #[test]
    fn baseline_gate_catches_regressions() {
        let _guard = crate::test_lock();
        let r = run_workload(Workload::Hdc, true);
        let generous = r#"{"workloads":[{"name":"hdc","points_per_sec":1e-6}]}"#;
        assert!(check_against_baseline(std::slice::from_ref(&r), generous, 0.3).is_empty());
        let impossible =
            r#"{"workloads":[{"name":"hdc","points_per_sec":1e15,"min_speedup":1e9}]}"#;
        let failures = check_against_baseline(std::slice::from_ref(&r), impossible, 0.3);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("regressed"));
        assert!(failures[1].contains("speedup"));
        let failures = check_against_baseline(&[r], "{\"workloads\":", 0.3);
        assert!(failures[0].contains("not valid JSON"), "{failures:?}");
    }

    fn run_at(points_per_sec: f64) -> RunStats {
        RunStats {
            elapsed_s: 1.0,
            points_per_sec,
            cache_hits: 0,
            cache_misses: 0,
            cache_hit_rate: 0.0,
            caches: Vec::new(),
            layers: Vec::new(),
            checksum: 0,
        }
    }

    fn arm_at(points_per_sec: f64) -> ArmStats {
        ArmStats {
            elapsed_s: 1.0,
            points_per_sec,
            hits: 1,
            misses: 0,
            checksum: 0,
        }
    }

    /// Runs that miss every floor of the committed baseline (zero
    /// throughput, trials and speedups on every arm) must trip each one:
    /// a floor the gate cannot find is silently skipped.
    #[test]
    fn gate_reads_every_committed_floor() {
        let text = include_str!("../../../ci/bench_baseline.json");
        let baseline = Json::parse(text).expect("committed baseline parses");
        let entries = baseline
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads list");
        // Every numeric field of a workload entry is a floor.
        let floors: usize = entries
            .iter()
            .map(|e| match e {
                Json::Obj(fields) => fields.iter().filter(|(_, v)| v.as_f64().is_some()).count(),
                _ => 0,
            })
            .sum();
        let results: Vec<WorkloadResult> = Workload::all()
            .iter()
            .map(|w| WorkloadResult {
                name: w.name(),
                points: 1,
                baseline: run_at(1.0),
                v2: run_at(0.0),
                trials_per_point: 1,
                cold: Some(ColdPath {
                    scalar: run_at(1.0),
                    columnar: run_at(0.0),
                }),
            })
            .collect();
        let arms: Vec<StoreArmResult> = Workload::all()
            .iter()
            .map(|w| StoreArmResult {
                name: w.name(),
                points: 1,
                cold: arm_at(1.0),
                warm: arm_at(0.0),
            })
            .collect();
        let mut failures = check_against_baseline(&results, text, 0.3);
        failures.extend(check_store_baseline(&arms, text));
        assert_eq!(failures.len(), floors, "{failures:#?}");
        for w in Workload::all() {
            assert!(
                failures.iter().any(|f| f.contains(w.name())),
                "no floor read for {}: {failures:#?}",
                w.name()
            );
        }
    }
}
