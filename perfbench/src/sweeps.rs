//! The two offline sweep workloads.
//!
//! A run is a stream of DSE *queries*: each query is one seeded grid
//! that a user sweeps and waits for. Queries are grouped in sessions of
//! [`SESSION`]; each session starts from empty memo caches
//! (`memo::clear_all`), as a fresh user process would. Every call goes
//! through `sweep_scenarios` with `SweepOptions::default()`.
//!
//! - `dse_sweep`: per query, one process node and a mixed grid of
//!   distinct hdc / mann / tpu_nvm / edge points whose shapes recur, so
//!   the memo layer has sub-problems to find; every hdc point is also
//!   ranked under two objectives.
//! - `mc_sweep`: per query, cam_yield_mc / mann_mc / nvm_mc points with
//!   fixed trials, plus one heavy point that can strand a worker.
//!
//! The gated timings are process CPU time ([`CpuClock`]) of a process
//! confined to one CPU ([`sys::Placement`]), so the defaults resolve to
//! one sweep worker, scaled to the nominal CPU ([`calib`]); wall-clock
//! figures are printed beside them.

use crate::calib;
use crate::grid::{self, Rng, TECHS};
use crate::layers::{memo_metrics, model_metrics, span_metrics, Inputs};
use crate::oracle::{self, Answer};
use crate::report::{peak_rss_mb, Metric, Outcome};
use crate::stats::{median, summarize};
use crate::sys::{self, CpuClock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xlda_core::evaluate::{
    sweep_scenarios, EdgeScenario, HdcScenario, MannScenario, Scenario, TpuNvmScenario,
};
use xlda_core::fom::{Candidate, Fom};
use xlda_core::mc::{CamYieldMcScenario, MannAccuracyMcScenario, NvmLifetimeMcScenario};
use xlda_core::sweep::{memo, SweepOptions};
use xlda_core::triage::{rank, Objective};
use xlda_core::XldaError;
use xlda_num::batch::{CandidateBatch, PointStatus};

/// Queries per session (memo cleared at each session start). The memo
/// warms over the first five or so queries of a `dse_sweep` session,
/// which then cost about 40% less; with 16 per session the median query
/// is a warm one instead of sitting on the boundary between the two,
/// and `fresh_cpu_p50_ms` gives the cold cost.
pub const SESSION: u64 = 16;
/// DSE query shape: points per kind.
const DSE_HDC: usize = 64;
const DSE_MANN: usize = 256;
const DSE_TPU: usize = 64;
const DSE_EDGE: usize = 64;
/// MC query shape: points per kind at [`MC_TRIALS`] trials each, plus
/// one cam_yield_mc point at [`MC_HEAVY`] times the trials.
pub const MC_TRIALS: usize = 64;
const MC_CAM: usize = 2;
const MC_MANN: usize = 1;
const MC_NVM: usize = 8;
const MC_HEAVY: usize = 4;
/// Every `ORACLE_EVERY`-th query contributes oracle samples, so the
/// samples kept (and the memory they take) stay small.
const ORACLE_EVERY: u64 = 16;

/// One scenario kept for the oracle with the answer the sweep gave.
pub struct Sample {
    pub scenario: Box<dyn Scenario>,
    pub got: Answer,
}

/// A seeded query stream.
pub trait Workload {
    type Query;
    fn name(&self) -> &'static str;
    fn query(&self, seed: u64, idx: u64) -> Self::Query;
    /// Points and work units (points or trials) in a query.
    fn size(&self, q: &Self::Query) -> (u64, u64);
    /// The user-visible work: sweep (and rank). Returns the batches.
    fn run(&self, q: &Self::Query) -> Vec<CandidateBatch>;
    /// The same sweep with every point's evaluation timed (traced runs).
    fn run_timed(&self, q: &Self::Query) -> Vec<CandidateBatch>;
    /// Oracle samples of query `idx`.
    fn sample(&self, q: &Self::Query, out: &[CandidateBatch], idx: u64, into: &mut Vec<Sample>);
}

/// Sum of per-point evaluation time in traced sweeps (a statistic).
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

/// A scenario whose evaluations are timed into [`BUSY_NS`].
#[derive(Clone)]
struct Timed<S>(S);

impl<S: Scenario> Scenario for Timed<S> {
    fn kind(&self) -> &'static str {
        self.0.kind()
    }

    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        let t = Instant::now();
        let r = self.0.candidates();
        BUSY_NS.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn store_key(&self) -> Option<xlda_core::store::Digest> {
        self.0.store_key()
    }
}

fn sweep<S: Scenario + Clone>(points: &[S], timed: bool) -> CandidateBatch {
    let opts = SweepOptions::default();
    if timed {
        let wrapped: Vec<Timed<S>> = points.iter().cloned().map(Timed).collect();
        sweep_scenarios(&wrapped, &opts)
    } else {
        sweep_scenarios(points, &opts)
    }
}

/// Candidates of point `p` rebuilt from a batch, as a user ranking the
/// sweep's output would.
fn candidates_of(b: &CandidateBatch, p: usize) -> Vec<Candidate> {
    b.lane_range(p)
        .map(|i| {
            Candidate::new(
                b.lane_name(i),
                Fom {
                    latency_s: b.latency_s()[i],
                    energy_j: b.energy_j()[i],
                    area_mm2: b.area_mm2()[i],
                    accuracy: b.accuracy()[i],
                },
            )
        })
        .collect()
}

/// Ranks every successful hdc point under the two triage objectives.
fn rank_hdc(b: &CandidateBatch) -> usize {
    let objectives = [
        Objective::latency_first(Some(0.9)),
        Objective::energy_first(None),
    ];
    let mut ranked = 0;
    for p in 0..b.points() {
        if b.point_status(p) == PointStatus::Ok {
            let cands = candidates_of(b, p);
            for o in &objectives {
                ranked += std::hint::black_box(rank(&cands, o)).len();
            }
        }
    }
    ranked
}

pub struct Dse;

pub struct DseQuery {
    hdc: Vec<HdcScenario>,
    mann: Vec<MannScenario>,
    tpu: Vec<TpuNvmScenario>,
    edge: Vec<EdgeScenario>,
}

impl Workload for Dse {
    type Query = DseQuery;

    fn name(&self) -> &'static str {
        "dse_sweep"
    }

    fn query(&self, seed: u64, idx: u64) -> DseQuery {
        let mut r = Rng::stream(seed, idx);
        let tech = r.pick(&TECHS);
        DseQuery {
            hdc: (0..DSE_HDC).map(|_| grid::hdc(&mut r, tech).s).collect(),
            mann: (0..DSE_MANN).map(|_| grid::mann(&mut r, tech).s).collect(),
            tpu: (0..DSE_TPU)
                .map(|_| grid::tpu_scenario(&grid::tpu_nvm(&mut r, tech)))
                .collect(),
            edge: (0..DSE_EDGE)
                .map(|_| grid::edge_scenario(&grid::hdc(&mut r, tech)))
                .collect(),
        }
    }

    fn size(&self, q: &DseQuery) -> (u64, u64) {
        let n = (q.hdc.len() + q.mann.len() + q.tpu.len() + q.edge.len()) as u64;
        (n, n)
    }

    fn run(&self, q: &DseQuery) -> Vec<CandidateBatch> {
        let out = vec![
            sweep(&q.hdc, false),
            sweep(&q.mann, false),
            sweep(&q.tpu, false),
            sweep(&q.edge, false),
        ];
        rank_hdc(&out[0]);
        out
    }

    fn run_timed(&self, q: &DseQuery) -> Vec<CandidateBatch> {
        let out = vec![
            sweep(&q.hdc, true),
            sweep(&q.mann, true),
            sweep(&q.tpu, true),
            sweep(&q.edge, true),
        ];
        rank_hdc(&out[0]);
        out
    }

    fn sample(&self, q: &DseQuery, out: &[CandidateBatch], idx: u64, into: &mut Vec<Sample>) {
        if !idx.is_multiple_of(ORACLE_EVERY) {
            return;
        }
        let mut r = Rng::stream(idx, 0x0AC1E);
        let mut take = |s: Box<dyn Scenario>, b: &CandidateBatch, p: usize| {
            into.push(Sample {
                scenario: s,
                got: oracle::from_batch(b, p),
            })
        };
        let p = r.below(q.hdc.len());
        take(Box::new(q.hdc[p].clone()), &out[0], p);
        let p = r.below(q.mann.len());
        take(Box::new(q.mann[p].clone()), &out[1], p);
        let p = r.below(q.tpu.len());
        take(Box::new(q.tpu[p].clone()), &out[2], p);
        let p = r.below(q.edge.len());
        take(Box::new(q.edge[p].clone()), &out[3], p);
    }
}

pub struct Mc;

pub struct McQuery {
    cam: Vec<CamYieldMcScenario>,
    mann: Vec<MannAccuracyMcScenario>,
    nvm: Vec<NvmLifetimeMcScenario>,
}

impl Workload for Mc {
    type Query = McQuery;

    fn name(&self) -> &'static str {
        "mc_sweep"
    }

    fn query(&self, seed: u64, idx: u64) -> McQuery {
        let mut r = Rng::stream(seed, idx);
        let mut cam: Vec<_> = (0..MC_CAM)
            .map(|_| grid::cam_yield_mc(&mut r, MC_TRIALS))
            .collect();
        let heavy = grid::cam_yield_mc(&mut r, MC_TRIALS * MC_HEAVY);
        cam.insert(r.below(cam.len() + 1), heavy);
        McQuery {
            cam,
            mann: (0..MC_MANN)
                .map(|_| grid::mann_mc(&mut r, MC_TRIALS))
                .collect(),
            nvm: (0..MC_NVM)
                .map(|_| grid::nvm_mc(&mut r, MC_TRIALS))
                .collect(),
        }
    }

    fn size(&self, q: &McQuery) -> (u64, u64) {
        let trials: usize = q.cam.iter().map(|s| s.mc.trials).sum::<usize>()
            + q.mann.iter().map(|s| s.mc.trials).sum::<usize>()
            + q.nvm.iter().map(|s| s.mc.trials).sum::<usize>();
        (
            (q.cam.len() + q.mann.len() + q.nvm.len()) as u64,
            trials as u64,
        )
    }

    fn run(&self, q: &McQuery) -> Vec<CandidateBatch> {
        vec![
            sweep(&q.cam, false),
            sweep(&q.mann, false),
            sweep(&q.nvm, false),
        ]
    }

    fn run_timed(&self, q: &McQuery) -> Vec<CandidateBatch> {
        vec![
            sweep(&q.cam, true),
            sweep(&q.mann, true),
            sweep(&q.nvm, true),
        ]
    }

    fn sample(&self, q: &McQuery, out: &[CandidateBatch], idx: u64, into: &mut Vec<Sample>) {
        if !idx.is_multiple_of(ORACLE_EVERY) {
            return;
        }
        let mut r = Rng::stream(idx, 0x0AC1E);
        let p = r.below(q.cam.len());
        into.push(Sample {
            scenario: Box::new(q.cam[p].clone()),
            got: oracle::from_batch(&out[0], p),
        });
        let p = r.below(q.mann.len());
        into.push(Sample {
            scenario: Box::new(q.mann[p].clone()),
            got: oracle::from_batch(&out[1], p),
        });
        let p = r.below(q.nvm.len());
        into.push(Sample {
            scenario: Box::new(q.nvm[p].clone()),
            got: oracle::from_batch(&out[2], p),
        });
    }
}

/// Per-session memo counters, summed across the clears that reset them.
#[derive(Default)]
pub struct MemoTally {
    /// `(cache name, hits, misses)`.
    pub caches: Vec<(&'static str, u64, u64)>,
    /// Largest total entry count seen at a session end.
    pub peak_entries: u64,
}

impl MemoTally {
    fn absorb(&mut self) {
        let snap = memo::snapshot();
        self.peak_entries = self.peak_entries.max(snap.iter().map(|c| c.entries).sum());
        for c in snap {
            match self.caches.iter_mut().find(|(n, _, _)| *n == c.name) {
                Some(e) => {
                    e.1 += c.hits;
                    e.2 += c.misses;
                }
                None => self.caches.push((c.name, c.hits, c.misses)),
            }
        }
    }
}

/// What the window recorded. CPU times are in nominal CPU seconds
/// ([`calib`]), scaled round by round; traced runs take no reference
/// samples and leave them unscaled.
#[derive(Default)]
pub struct Window {
    pub queries: u64,
    pub points: u64,
    pub units: u64,
    /// Per-query process CPU time.
    pub cpu: Vec<f64>,
    /// Per-query wall time, seconds.
    pub wall: Vec<f64>,
    /// CPU time of the session-first (cold memo) queries.
    pub fresh: Vec<f64>,
    /// CPU time of the set-up repetitions (timed runs).
    pub setups: Vec<f64>,
    /// Each round's scale to the nominal CPU, and the unscaled CPU
    /// seconds of all queries.
    pub scales: Vec<f64>,
    pub raw_cpu_s: f64,
    /// Host steal ticks during the window.
    pub steal: u64,
    pub broken: u64,
    pub samples: Vec<Sample>,
    pub memo: MemoTally,
    /// Σ per-point evaluation time (traced runs only).
    pub busy_s: f64,
}

/// The window is run in this many rounds of equal length; each timed
/// round starts with [`SETUP_PER_ROUND`] set-up repetitions, so the
/// set-up figure samples the whole run.
const ROUNDS: usize = 20;
const SETUP_PER_ROUND: u64 = 6;

/// Set-up: grid generation plus the first query from empty caches, in
/// CPU seconds. Repetition `rep` sweeps its own set-up grid, so the
/// median does not hang on one grid's cost.
fn setup<W: Workload>(w: &W, seed: u64, rep: u64) -> f64 {
    memo::clear_all();
    let cpu = CpuClock::own();
    let t = cpu.secs();
    let q = w.query(seed, u64::MAX - rep);
    std::hint::black_box(w.run(&q));
    cpu.secs() - t
}

/// Runs queries for `seconds`; a fresh session (empty memo caches)
/// starts every [`SESSION`] queries and at every round. Timed runs
/// sample the reference kernel after every query.
pub fn window<W: Workload>(w: &W, seed: u64, seconds: f64, traced: bool) -> Window {
    let mut win = Window::default();
    BUSY_NS.store(0, Ordering::Relaxed);
    let cpu = CpuClock::own();
    let steal0 = sys::steal_ticks();
    let round = Duration::from_secs_f64(seconds / ROUNDS as f64);
    let mut idx = 1u64;
    for k in 0..ROUNDS as u64 {
        let setups: Vec<f64> = if traced {
            Vec::new()
        } else {
            (0..SETUP_PER_ROUND)
                .map(|r| setup(w, seed, k * SETUP_PER_ROUND + r))
                .collect()
        };
        let (mut lat, mut fresh, mut refs) = (Vec::new(), Vec::new(), Vec::new());
        let end = Instant::now() + round;
        let mut in_session = 0;
        while Instant::now() < end {
            let q = w.query(seed, idx);
            let first = in_session % SESSION == 0;
            if first {
                if traced {
                    win.memo.absorb();
                }
                memo::clear_all();
            }
            let (t, c) = (Instant::now(), cpu.secs());
            let out = if traced { w.run_timed(&q) } else { w.run(&q) };
            let (dt, dc) = (t.elapsed().as_secs_f64(), cpu.secs() - c);
            let (points, units) = w.size(&q);
            win.queries += 1;
            win.points += points;
            win.units += units;
            win.wall.push(dt);
            lat.push(dc);
            if first {
                fresh.push(dc);
            }
            for b in &out {
                win.broken += (0..b.points())
                    .filter(|&p| !matches!(b.point_status(p), PointStatus::Ok | PointStatus::Error))
                    .count() as u64;
            }
            w.sample(&q, &out, idx, &mut win.samples);
            if !traced {
                refs.push(calib::sample(cpu, idx));
            }
            idx += 1;
            in_session += 1;
        }
        let scale = calib::scale(&mut refs);
        win.raw_cpu_s += lat.iter().sum::<f64>();
        win.cpu.extend(lat.iter().map(|x| x * scale));
        win.fresh.extend(fresh.iter().map(|x| x * scale));
        win.setups.extend(setups.iter().map(|x| x * scale));
        win.scales.push(scale);
    }
    win.steal = sys::steal_ticks() - steal0;
    if traced {
        win.memo.absorb();
    }
    win.busy_s = BUSY_NS.load(Ordering::Relaxed) as f64 * 1e-9;
    win
}

/// Compares every sample against the scalar `candidates()` oracle, run
/// single-threaded from empty caches.
fn check(samples: &[Sample], out: &mut Outcome) {
    memo::clear_all();
    let mut mismatched = 0;
    for s in samples {
        let want = oracle::from_result(&s.scenario.candidates());
        if !oracle::agrees(&s.got, &want) {
            mismatched += 1;
            if mismatched <= 5 {
                out.fail(
                    "oracle",
                    format!(
                        "{} point differs from candidates(): checksum {:016x} vs {:016x}",
                        s.scenario.kind(),
                        oracle::checksum(&s.got),
                        oracle::checksum(&want)
                    ),
                );
            } else {
                out.failed += 1;
            }
        }
    }
    let sum = samples
        .iter()
        .fold(0u64, |h, s| h.rotate_left(5) ^ oracle::checksum(&s.got));
    out.info.push(format!(
        "oracle: {} sampled points checked bit-exact, {mismatched} mismatched, checksum {sum:016x}",
        samples.len()
    ));
}

/// One timed run: the end-to-end metrics.
pub fn timed<W: Workload>(w: &W, seed: u64, seconds: f64, unit_name: &str) -> Outcome {
    let mut out = Outcome::default();
    let win = window(w, seed, seconds, false);
    report_end_to_end(&mut out, &win, unit_name);
    check(&win.samples, &mut out);
    out
}

fn report_end_to_end(out: &mut Outcome, win: &Window, unit_name: &str) {
    let wall_s: f64 = win.wall.iter().sum();
    let mut wall_ms: Vec<f64> = win.wall.iter().map(|x| x * 1e3).collect();
    out.info.push(format!(
        "wall clock (not gated): {:.0} {unit_name}/s over {} queries, query latency {}; \
         host steal {} ticks",
        win.units as f64 / wall_s,
        win.queries,
        crate::stats::tails(&mut wall_ms),
        win.steal
    ));
    out.info.push(format!(
        "unscaled CPU (not gated): {:.0} {unit_name} per CPU second; scale to the nominal CPU \
         per round {:.3?}",
        win.units as f64 / win.raw_cpu_s,
        win.scales
    ));
    let mut setups = win.setups.clone();
    out.push(
        Metric::new("setup_s", median(&mut setups), "s", setups.len()).note(
            "nominal CPU s, median of grid generation + first cold query, each on its own grid",
        ),
    );
    let cpu_s: f64 = win.cpu.iter().sum();
    out.push(
        Metric::new(
            "throughput_per_cpu_s",
            win.units as f64 / cpu_s,
            "1/s",
            win.cpu.len(),
        )
        .note(format!("{unit_name} per nominal CPU second")),
    );
    let s = summarize(&mut win.cpu.clone());
    out.push(Metric::new("cpu_p50_ms", s.p50 * 1e3, "ms", s.n).note("query nominal CPU time"));
    out.push(
        Metric::new("cpu_p95_ms", s.p95.unwrap_or(f64::NAN) * 1e3, "ms", s.n)
            .note("query nominal CPU time p95"),
    );
    let mut fresh = win.fresh.clone();
    out.push(
        Metric::new(
            "fresh_cpu_p50_ms",
            median(&mut fresh) * 1e3,
            "ms",
            fresh.len(),
        )
        .note("nominal CPU time of session-first queries (empty memo caches)"),
    );
    out.push(
        Metric::new(
            "peak_rss_mb",
            peak_rss_mb("self").unwrap_or(f64::NAN),
            "MB",
            1,
        )
        .note("VmHWM of the benchmark process"),
    );
    out.attempted += win.points;
    if win.broken > 0 {
        out.failed += win.broken;
        out.problems.push(format!(
            "phase=window: {} points panicked or were skipped",
            win.broken
        ));
    }
}

/// Model-layer sample inputs from the first queries of both sweeps.
pub fn layer_inputs(seed: u64) -> Inputs {
    let d = Dse.query(seed, 1);
    let mut inp = Inputs {
        hdc: d.hdc,
        mann: d.mann,
        tpu: d.tpu,
        edge: d.edge,
        ..Inputs::default()
    };
    for idx in 1..=4 {
        let q = Mc.query(seed, idx);
        inp.cam_mc.extend(q.cam);
        inp.mann_mc.extend(q.mann);
        inp.nvm_mc.extend(q.nvm);
    }
    inp
}

fn workers() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// Busy share and straggler time of one sweep: `busy_s` of per-point
/// work over `wall_s` of wall time on the default worker count.
fn sweep_metrics(busy_s: f64, wall_s: f64, n: usize) -> Vec<Metric> {
    let w = workers();
    vec![
        Metric::new("sweep.busy_share", busy_s / (wall_s * w), "ratio", n),
        Metric::new("sweep.straggler_s", wall_s - busy_s / w, "s", n),
    ]
}

/// `sweep.*` for an arbitrary point set, swept once with timing.
pub fn sweep_share<S: Scenario + Clone>(points: &[S]) -> Vec<Metric> {
    BUSY_NS.store(0, Ordering::Relaxed);
    let t = Instant::now();
    std::hint::black_box(sweep(points, true));
    let wall = t.elapsed().as_secs_f64();
    sweep_metrics(BUSY_NS.load(Ordering::Relaxed) as f64 * 1e-9, wall, 1)
}

/// One traced sweep run: layer self times, memo counters, scheduler
/// busy share over the window, then the model layers timed one call at
/// a time.
pub fn traced<W: Workload>(w: &W, seed: u64, seconds: f64) -> (Vec<Metric>, Outcome) {
    let mut outcome = Outcome::default();
    xlda_obs::span::set_enabled(true);
    let before = xlda_obs::span::aggregate_snapshot();
    let win = window(w, seed, seconds, true);
    let after = xlda_obs::span::aggregate_snapshot();
    xlda_obs::span::set_enabled(false);
    let wall: f64 = win.wall.iter().sum();
    let mut out = span_metrics(&before, &after, wall * workers());
    out.extend(sweep_metrics(win.busy_s, wall, win.queries as usize));
    let caches: Vec<(String, u64, u64)> = win
        .memo
        .caches
        .iter()
        .map(|&(n, h, m)| (n.to_string(), h, m))
        .collect();
    out.extend(memo_metrics(&caches, win.memo.peak_entries));
    let trials = if w.name() == "mc_sweep" { win.units } else { 0 };
    out.push(Metric::new(
        "mc.trials",
        trials as f64,
        "count",
        win.queries as usize,
    ));
    let (model, _, _, _) = model_metrics(&layer_inputs(seed));
    out.extend(model);
    outcome.attempted += win.points;
    if win.broken > 0 {
        outcome.fail(
            "traced",
            format!("{} points panicked or were skipped", win.broken),
        );
    }
    check(&win.samples, &mut outcome);
    (out, outcome)
}
