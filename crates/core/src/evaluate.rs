//! Cross-layer candidate evaluators behind the unified [`Scenario`] API.
//!
//! Every evaluable workload is a type implementing [`Scenario`]: one
//! fallible [`Scenario::candidates`] call assembles end-to-end FOMs for
//! its concrete design points by composing the substrate crates —
//! baseline platform models for software mappings, the crossbar macro
//! model for in-memory encoding, and the Eva-CAM array model for
//! associative search. The built-in scenarios generate the candidate
//! sets behind the paper's platform comparisons ([`HdcScenario`] for
//! Fig. 3H, [`MannScenario`] for the latency side of Fig. 4E) plus the
//! two Sec. III open-question studies ([`EdgeScenario`],
//! [`TpuNvmScenario`]).
//!
//! Because dispatch is through one trait, every consumer — the sweep
//! engine, the triage loop, `xlda-serve`, and `xlda-bench` — picks up a
//! new workload as soon as it implements `Scenario`. (The pre-trait
//! per-workload free functions, deprecated in 0.2.0, were removed in
//! 0.3.0.)
//!
//! # Batch sweeps
//!
//! [`sweep_scenarios`] evaluates a slice of same-type scenarios into one
//! [`CandidateBatch`] (structure-of-arrays columns). The work-stealing
//! scheduler hands whole chunks to [`Scenario::candidates_batch`], whose
//! built-in overrides hoist invariant circuit solves out of the point
//! loop through exact-equality caches — the memo-miss cold path's
//! dominant cost — while staying bit-identical to the per-point
//! reference [`sweep_scenarios_reference`] (see `DESIGN.md` §14).

use crate::error::{validate_fom, XldaError};
use crate::fom::{Candidate, Fom};
use crate::mc::McDistribution;
use crate::store::{Digest, DigestWriter};
use crate::sweep::{self, par_batch_map, par_try_map_with, PointFailure, SweepOptions};
use std::time::Instant;
use xlda_baseline::{HybridPipeline, Kernel, Platform};
use xlda_circuit::hoist::ExactCache;
use xlda_circuit::tech::TechNode;
use xlda_crossbar::macro_model::CrossbarMacro;
use xlda_crossbar::{CrossbarConfig, CrossbarError};
use xlda_evacam::{CamArray, CamCellDesign, CamConfig, CamReport, CamSolver, DataKind, MatchKind};
use xlda_num::batch::{product_scaled, product_scaled2, scale_u32, CandidateBatch, PointStatus};
use xlda_nvram::{OptTarget, RamArray, RamBatchSolver, RamCell, RamConfig, RamReport};

/// One evaluable workload mapping: a bundle of scenario parameters that
/// can assemble its full candidate set.
///
/// This is the single dispatch surface shared by the sweep engine, the
/// triage loop, the `xlda-serve` daemon, and `xlda-bench`: adding a
/// workload means implementing this trait once, and every consumer picks
/// it up without a new per-workload entry point.
///
/// Implementations must be pure (same parameters, same candidates) and
/// thread-safe — sweeps and the serving layer evaluate scenarios from
/// many workers concurrently.
///
/// # Examples
///
/// ```
/// use xlda_core::evaluate::{HdcScenario, Scenario};
///
/// let s = HdcScenario::default();
/// let candidates = s.candidates().expect("default scenario models");
/// assert_eq!(s.kind(), "hdc");
/// assert!(!candidates.is_empty());
/// ```
pub trait Scenario: Send + Sync {
    /// Stable workload-kind tag (`"hdc"`, `"mann"`, `"edge"`,
    /// `"tpu_nvm"`, …) used for request routing, batching labels, and
    /// reports.
    fn kind(&self) -> &'static str;

    /// Evaluates the scenario into its candidate set.
    ///
    /// # Errors
    ///
    /// The first layer rejection ([`XldaError::Cam`], [`XldaError::Ram`],
    /// [`XldaError::Crossbar`], [`XldaError::Circuit`]) or FOM
    /// validation failure ([`XldaError::InvalidFom`],
    /// [`XldaError::NonFinite`]).
    fn candidates(&self) -> Result<Vec<Candidate>, XldaError>;

    /// Full evaluation: the candidate set plus any Monte-Carlo
    /// distribution summaries.
    ///
    /// Deterministic scenarios keep this default (candidates only).
    /// Monte-Carlo scenarios override it to run their trial population
    /// once and derive both the distributions and the quantile-based
    /// candidates from the same draws — consumers that want everything
    /// (like `xlda-serve`) call this and never pay for the trials twice.
    ///
    /// # Errors
    ///
    /// Same contract as [`Scenario::candidates`].
    fn evaluate(&self) -> Result<Evaluation, XldaError> {
        Ok(Evaluation {
            candidates: self.candidates()?,
            distributions: Vec::new(),
        })
    }

    /// Evaluates a whole batch of scenarios into columnar storage — the
    /// per-chunk kernel every [`sweep_scenarios`] call runs.
    ///
    /// The provided implementation evaluates each point through
    /// [`Scenario::candidates`]; kinds without a specialised kernel
    /// (`tpu_nvm`, `edge`, the Monte-Carlo kinds, external impls) sweep
    /// through it with no extra work.
    /// Overrides may hoist work that is invariant across the batch —
    /// shared circuit solves, interned names, column scratch — but must
    /// stay **bit-identical** to the scalar path: for every point, the
    /// same lanes in the same order with the same `f64` bit patterns on
    /// success, or a failed point carrying the same error `Display`
    /// string. Hoisting that merely reuses a value the scalar path
    /// recomputes from identical inputs preserves this; reassociating
    /// arithmetic does not and is forbidden here (see `DESIGN.md` §14).
    ///
    /// Implementations must push lanes and close/fail exactly one point
    /// per element of `batch`, in order (see [`CandidateBatch`]). A
    /// kernel that panics or miscounts is contained by the sweep engine,
    /// which re-evaluates that chunk per point.
    ///
    /// `where Self: Sized` keeps the trait dyn-compatible; boxed
    /// scenarios take this provided per-point implementation.
    fn candidates_batch(batch: &[Self], out: &mut CandidateBatch)
    where
        Self: Sized,
    {
        for s in batch {
            match s.candidates() {
                Ok(cands) => push_candidates(out, &cands),
                Err(e) => out.fail_point(PointStatus::Error, e.to_string()),
            }
        }
    }

    /// Whether [`Scenario::candidates_batch`] is a specialised kernel
    /// that amortises work over a chunk (default `false`).
    ///
    /// [`sweep_scenarios`] sizes chunks by it: kernel kinds get the
    /// fat columnar chunks of [`sweep::par_batch_map`]; the rest get
    /// the per-point heuristic of [`sweep::par_map`], so one heavy point
    /// (a Monte-Carlo population, say) cannot strand a small grid on
    /// one worker.
    /// Scheduling only — the output does not depend on it.
    fn batch_kernel() -> bool
    where
        Self: Sized,
    {
        false
    }

    /// Content address of this scenario's complete parameter set for
    /// the persistent result store ([`crate::store`]).
    ///
    /// Must cover *everything* that can change the evaluation — kind
    /// tag, every numeric parameter (quantized), tech/config
    /// fingerprints — and *nothing* that cannot (MC `batch`/`threads`
    /// are schedule-only by the trial-stream contract and are
    /// excluded). Two scenarios with equal keys must evaluate
    /// bit-identically.
    ///
    /// The default returns `None`, which makes the store transparently
    /// bypass itself for scenario types that have not opted in.
    fn store_key(&self) -> Option<Digest> {
        None
    }
}

/// Boxed scenarios (the serving layer's batching currency) delegate the
/// whole trait, so `successive_halving` and the sweep engine accept
/// `&[Box<dyn Scenario>]` directly.
impl<T: Scenario + ?Sized> Scenario for Box<T> {
    fn kind(&self) -> &'static str {
        (**self).kind()
    }

    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        (**self).candidates()
    }

    fn evaluate(&self) -> Result<Evaluation, XldaError> {
        (**self).evaluate()
    }

    fn store_key(&self) -> Option<Digest> {
        (**self).store_key()
    }
}

/// Folds the [`HdcScenario`] parameter block into an open digest —
/// shared by the HDC key and the wrapper scenarios (edge, TPU+NVM)
/// whose results are functions of the same block.
fn fold_hdc(w: &mut DigestWriter, s: &HdcScenario) {
    w.usize(s.dim_in)
        .usize(s.classes)
        .usize(s.hv_dim_sw)
        .usize(s.hv_dim_3b)
        .usize(s.hv_dim_2b)
        .usize(s.hv_dim_1b)
        .f64(s.acc_sw)
        .f64(s.acc_3b)
        .f64(s.acc_2b)
        .f64(s.acc_1b)
        .f64(s.acc_mlp)
        .word(s.tech.memo_key());
}

/// Everything one [`Scenario`] evaluation produces: the candidate set
/// every consumer understands, plus distribution summaries for
/// Monte-Carlo scenario kinds (empty for deterministic ones).
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Assembled, validated candidates.
    pub candidates: Vec<Candidate>,
    /// Monte-Carlo outcome distributions, when the scenario has any.
    pub distributions: Vec<McDistribution>,
}

/// Scenario parameters for the HDC platform comparison (Fig. 3H).
///
/// HV dimensions are the *iso-accuracy sized* lengths: lower-precision
/// cells need longer hypervectors to reach the same accuracy (and 1-bit
/// cannot reach it at all), per Sec. III. The accuracy numbers are
/// produced by the `xlda-hdc` simulation and passed in.
#[derive(Debug, Clone, PartialEq)]
pub struct HdcScenario {
    /// Input feature dimensionality.
    pub dim_in: usize,
    /// Number of classes.
    pub classes: usize,
    /// HV length for the software / hybrid / MLP baselines.
    pub hv_dim_sw: usize,
    /// HV length giving iso-accuracy with 3-bit cells.
    pub hv_dim_3b: usize,
    /// HV length giving (near-)iso-accuracy with 2-bit cells.
    pub hv_dim_2b: usize,
    /// HV length used for the 1-bit SRAM CAM design point.
    pub hv_dim_1b: usize,
    /// Simulated accuracies for each design point.
    pub acc_sw: f64,
    /// 3-bit CAM accuracy.
    pub acc_3b: f64,
    /// 2-bit CAM accuracy.
    pub acc_2b: f64,
    /// 1-bit CAM accuracy.
    pub acc_1b: f64,
    /// MLP baseline accuracy.
    pub acc_mlp: f64,
    /// Process node for the dedicated hardware.
    pub tech: TechNode,
}

impl Default for HdcScenario {
    /// ISOLET-like shape with representative simulated accuracies.
    fn default() -> Self {
        Self {
            dim_in: 617,
            classes: 26,
            hv_dim_sw: 4096,
            hv_dim_3b: 2048,
            hv_dim_2b: 4096,
            hv_dim_1b: 4096,
            acc_sw: 0.93,
            acc_3b: 0.93,
            acc_2b: 0.92,
            acc_1b: 0.87,
            acc_mlp: 0.93,
            tech: TechNode::n40(),
        }
    }
}

/// Latency/energy of HDC inference on a software platform.
fn hdc_on_platform(s: &HdcScenario, platform: &Platform, batch: usize, hv: usize) -> (f64, f64) {
    let encode = Kernel::mvm(hv, s.dim_in);
    let search = Kernel::search(s.classes, hv, 4);
    let t = platform.time_per_item(&encode, batch) + platform.time_per_item(&search, batch);
    let e = (platform.energy(&encode, batch) + platform.energy(&search, batch)) / batch as f64;
    (t, e)
}

/// The fixed 256x256 encode-crossbar configuration of the HDC pipeline.
fn hdc_xbar_cfg() -> CrossbarConfig {
    CrossbarConfig {
        rows: 256,
        cols: 256,
        ..CrossbarConfig::default()
    }
}

/// The CAM configuration of one HDC design point: one CAM holding
/// `classes` words of `hv` cells.
fn hdc_cam_cfg(s: &HdcScenario, design: CamCellDesign, data: DataKind, hv: usize) -> CamConfig {
    let bits = data.bits_per_cell() as usize;
    CamConfig {
        words: s.classes,
        bits_per_word: hv * bits,
        design,
        data,
        match_kind: MatchKind::Best { max_distance: 8 },
        row_banks: 1,
        tech: s.tech.clone(),
    }
}

/// Encode-tile composition from one crossbar macro solve. Column tiles
/// run in parallel macros; row tiles accumulate serially. Shared by the
/// scalar path and the batch kernel's per-point arm, so both produce the
/// same bits.
fn hdc_encode_tiles(
    s: &HdcScenario,
    hv: usize,
    mvm_latency_s: f64,
    mvm_energy_j: f64,
    area_m2: f64,
) -> (f64, f64, f64) {
    let tiles_rows = s.dim_in.div_ceil(256);
    let tiles_cols = hv.div_ceil(256);
    (
        tiles_rows as f64 * mvm_latency_s,
        (tiles_rows * tiles_cols) as f64 * mvm_energy_j,
        (tiles_rows * tiles_cols) as f64 * area_m2 * 1e6, // mm²
    )
}

/// Composition tail of every HDC CAM design point, shared by the scalar
/// and batch paths.
fn hdc_cam_compose(
    t_encode: f64,
    e_encode: f64,
    a_encode: f64,
    rep: &CamReport,
) -> Result<(f64, f64, f64), XldaError> {
    let out = (
        t_encode + rep.search_latency_s,
        e_encode + rep.search_energy_j,
        a_encode + rep.area_um2 * 1e-6,
    );
    if !(out.0.is_finite() && out.1.is_finite() && out.2.is_finite()) {
        return Err(XldaError::NonFinite {
            stage: "hdc_on_cam",
            quantity: "latency/energy/area composition",
        });
    }
    Ok(out)
}

/// Latency/energy/area of HDC inference on a crossbar encoder plus a CAM
/// associative memory.
///
/// # Errors
///
/// Propagates the crossbar or CAM model's rejection of the design point
/// (e.g. an unachievable sense margin for long best-match words).
fn hdc_on_cam(
    s: &HdcScenario,
    design: CamCellDesign,
    data: DataKind,
    hv: usize,
) -> Result<(f64, f64, f64), XldaError> {
    // Encoding: random-projection MVM on analog crossbar tiles.
    let (t_encode, e_encode, a_encode) = {
        let _span = xlda_obs::span!("crossbar");
        let xmacro = CrossbarMacro::try_new(&hdc_xbar_cfg(), &s.tech, 8)?;
        let mvm = xmacro.mvm_cost();
        hdc_encode_tiles(s, hv, mvm.latency_s, mvm.energy_j, xmacro.area_m2())
    };

    let rep = {
        let _span = xlda_obs::span!("evacam");
        let cam = CamArray::new(hdc_cam_cfg(s, design, data, hv))?;
        cam.report()
    };
    hdc_cam_compose(t_encode, e_encode, a_encode, &rep)
}

impl Scenario for HdcScenario {
    fn kind(&self) -> &'static str {
        "hdc"
    }

    fn store_key(&self) -> Option<Digest> {
        let mut w = DigestWriter::new(self.kind());
        fold_hdc(&mut w, self);
        Some(w.finish())
    }

    /// Builds the full Fig. 3H candidate set: layer models reject
    /// infeasible design points with a typed [`XldaError`] instead of
    /// panicking, and every assembled FOM bundle is validated for
    /// finiteness before it enters the candidate set.
    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        let s = self;
        let gpu = Platform::gpu();
        let mut out = Vec::new();

        let (t, e) = hdc_on_platform(s, &gpu, 1, s.hv_dim_sw);
        let name = "GPU HDC (batch 1)";
        out.push(Candidate::new(
            name,
            validate_fom(
                name,
                Fom {
                    latency_s: t,
                    energy_j: e,
                    area_mm2: 0.0,
                    accuracy: s.acc_sw,
                },
            )?,
        ));

        let (t, e) = hdc_on_platform(s, &gpu, 1000, s.hv_dim_sw);
        let name = "GPU HDC (batch 1000)";
        out.push(Candidate::new(
            name,
            validate_fom(
                name,
                Fom {
                    latency_s: t,
                    energy_j: e,
                    area_mm2: 0.0,
                    accuracy: s.acc_sw,
                },
            )?,
        ));

        // TPU encodes (dense MVM), GPU searches.
        let hybrid = HybridPipeline::tpu_gpu();
        let encode = Kernel::mvm(s.hv_dim_sw, s.dim_in);
        let search = Kernel::search(s.classes, s.hv_dim_sw, 4);
        let batch = 1000;
        let name = "TPU-GPU hybrid (batch 1000)";
        out.push(Candidate::new(
            name,
            validate_fom(
                name,
                Fom {
                    latency_s: hybrid.time(&encode, &search, batch) / batch as f64,
                    energy_j: hybrid.energy(&encode, &search, batch) / batch as f64,
                    area_mm2: 0.0,
                    accuracy: s.acc_sw,
                },
            )?,
        ));

        for d in &HDC_CAM_DESIGNS {
            let (t, e, a) = hdc_on_cam(s, d.design, d.data, (d.hv)(s))?;
            out.push(Candidate::new(
                d.name,
                validate_fom(
                    d.name,
                    Fom {
                        latency_s: t,
                        energy_j: e,
                        area_mm2: a,
                        accuracy: (d.acc)(s),
                    },
                )?,
            ));
        }

        out.push(tpu_nvm_fom(s, 1)?);

        // MLP baseline: dim_in -> 512 -> classes on a GPU, batched.
        let l1 = Kernel::mvm(512, s.dim_in);
        let l2 = Kernel::mvm(s.classes, 512);
        let t = gpu.time_per_item(&l1, 1000) + gpu.time_per_item(&l2, 1000);
        let e = (gpu.energy(&l1, 1000) + gpu.energy(&l2, 1000)) / 1000.0;
        let name = "GPU MLP (batch 1000)";
        out.push(Candidate::new(
            name,
            validate_fom(
                name,
                Fom {
                    latency_s: t,
                    energy_j: e,
                    area_mm2: 0.0,
                    accuracy: s.acc_mlp,
                },
            )?,
        ));

        Ok(out)
    }

    fn batch_kernel() -> bool {
        true
    }

    /// Batch Fig. 3H kernel. Hoisted once per batch: the 256x256
    /// crossbar macro solve (per tech node), the CAM sense-margin search
    /// (per matchline config), and the NVM geometry sub-solves (per
    /// subarray shape) — the dominant self-time of the memo-miss cold
    /// path. When the batch shares one tech node, the encode-tile
    /// columns are additionally produced by the lane-unrolled column
    /// kernels. Every per-point composition reuses the scalar helpers,
    /// so results are bit-identical to [`Scenario::candidates`].
    fn candidates_batch(batch: &[Self], out: &mut CandidateBatch)
    where
        Self: Sized,
    {
        let mut h = HdcHoists::default();
        let enc = HdcEncodeCols::precompute(batch, &mut h.xbars, out);
        for (i, s) in batch.iter().enumerate() {
            match hdc_batch_point(s, i, enc.as_ref(), &mut h, out) {
                Ok(()) => out.close_point(),
                Err(e) => out.fail_point(PointStatus::Error, e.to_string()),
            }
        }
        if let Some(enc) = enc {
            enc.release(out);
        }
    }
}

/// One CAM design point of the Fig. 3H set, with per-scenario HV-length
/// and accuracy selectors so the table can be shared by the scalar loop
/// and the batch kernel (identical names, identical order).
struct HdcCamDesign {
    name: &'static str,
    design: CamCellDesign,
    data: DataKind,
    hv: fn(&HdcScenario) -> usize,
    acc: fn(&HdcScenario) -> f64,
}

/// The three CAM design points of the Fig. 3H set, in evaluation order.
const HDC_CAM_DESIGNS: [HdcCamDesign; 3] = [
    HdcCamDesign {
        name: "3b FeFET CAM",
        design: CamCellDesign::Fefet2T,
        data: DataKind::MultiBit(3),
        hv: |s| s.hv_dim_3b,
        acc: |s| s.acc_3b,
    },
    HdcCamDesign {
        name: "2b FeFET CAM",
        design: CamCellDesign::Fefet2T,
        data: DataKind::MultiBit(2),
        hv: |s| s.hv_dim_2b,
        acc: |s| s.acc_2b,
    },
    HdcCamDesign {
        name: "1b SRAM CAM",
        design: CamCellDesign::Sram16T,
        data: DataKind::Binary,
        hv: |s| s.hv_dim_1b,
        acc: |s| s.acc_1b,
    },
];

/// Batch-scoped cache over the crossbar macro solve for one fixed
/// `CrossbarConfig`/ADC-resolution pair, keyed by tech node. Caches the
/// rejection too, so a failing tech errors every point the way the
/// scalar path does.
type XbarCache = ExactCache<TechNode, Result<(f64, f64, f64), CrossbarError>>;

/// The crossbar macro's `(mvm latency, mvm energy, area m²)` triple for
/// `tech`, read off [`CrossbarMacro`] exactly as the scalar path reads
/// it, computed once per distinct tech node per batch.
fn solve_xbar(
    cache: &mut XbarCache,
    cfg: &CrossbarConfig,
    tech: &TechNode,
) -> Result<(f64, f64, f64), CrossbarError> {
    *cache.get_or_insert_with(tech.clone(), |t| {
        CrossbarMacro::try_new(cfg, t, 8).map(|m| {
            let mvm = m.mvm_cost();
            (mvm.latency_s, mvm.energy_j, m.area_m2())
        })
    })
}

/// The hoisted solver state of one HDC batch-kernel invocation.
#[derive(Default)]
struct HdcHoists {
    xbars: XbarCache,
    cams: CamSolver,
    rams: RamBatchSolver,
}

/// SoA encode-tile columns for one HDC batch: per CAM design, the
/// `(t_encode, e_encode, a_encode)` column triple produced by the
/// lane-unrolled kernels in [`xlda_num::batch`] from `u32` tile counts.
/// Only built when the whole batch shares one tech node (one crossbar
/// solve covers every point); otherwise the kernel computes per point —
/// both arms produce bit-identical values.
struct HdcEncodeCols {
    t: [Vec<f64>; 3],
    e: [Vec<f64>; 3],
    a: [Vec<f64>; 3],
}

impl HdcEncodeCols {
    fn precompute(
        batch: &[HdcScenario],
        xbars: &mut XbarCache,
        out: &mut CandidateBatch,
    ) -> Option<Self> {
        if batch.len() < 2 || !batch.windows(2).all(|w| w[0].tech == w[1].tech) {
            return None;
        }
        let _span = xlda_obs::span!("crossbar");
        // On Err the rejection is now cached; the per-point arm replays
        // it at the right point in the candidate order.
        let (lat, en, area_m2) = solve_xbar(xbars, &hdc_xbar_cfg(), &batch[0].tech).ok()?;
        let mut rows = out.take_u32();
        rows.extend(batch.iter().map(|s| s.dim_in.div_ceil(256) as u32));
        let mut cols = out.take_u32();
        let mut built = Self {
            t: [out.take_f64(), out.take_f64(), out.take_f64()],
            e: [out.take_f64(), out.take_f64(), out.take_f64()],
            a: [out.take_f64(), out.take_f64(), out.take_f64()],
        };
        for (d, design) in HDC_CAM_DESIGNS.iter().enumerate() {
            cols.clear();
            cols.extend(batch.iter().map(|s| (design.hv)(s).div_ceil(256) as u32));
            scale_u32(&mut built.t[d], &rows, lat);
            product_scaled(&mut built.e[d], &rows, &cols, en);
            product_scaled2(&mut built.a[d], &rows, &cols, area_m2, 1e6);
        }
        out.put_u32(rows);
        out.put_u32(cols);
        Some(built)
    }

    /// Returns the columns to the batch's scratch pool.
    fn release(self, out: &mut CandidateBatch) {
        for col in self.t.into_iter().chain(self.e).chain(self.a) {
            out.put_f64(col);
        }
    }
}

/// One point of the HDC batch kernel: the exact candidate sequence of
/// [`HdcScenario::candidates`] with hoisted solves injected.
fn hdc_batch_point(
    s: &HdcScenario,
    i: usize,
    enc: Option<&HdcEncodeCols>,
    h: &mut HdcHoists,
    out: &mut CandidateBatch,
) -> Result<(), XldaError> {
    let gpu = Platform::gpu();

    let (t, e) = hdc_on_platform(s, &gpu, 1, s.hv_dim_sw);
    push_validated(out, "GPU HDC (batch 1)", t, e, 0.0, s.acc_sw)?;

    let (t, e) = hdc_on_platform(s, &gpu, 1000, s.hv_dim_sw);
    push_validated(out, "GPU HDC (batch 1000)", t, e, 0.0, s.acc_sw)?;

    let hybrid = HybridPipeline::tpu_gpu();
    let encode = Kernel::mvm(s.hv_dim_sw, s.dim_in);
    let search = Kernel::search(s.classes, s.hv_dim_sw, 4);
    let batch = 1000;
    push_validated(
        out,
        "TPU-GPU hybrid (batch 1000)",
        hybrid.time(&encode, &search, batch) / batch as f64,
        hybrid.energy(&encode, &search, batch) / batch as f64,
        0.0,
        s.acc_sw,
    )?;

    for (d, design) in HDC_CAM_DESIGNS.iter().enumerate() {
        let hv = (design.hv)(s);
        let (t_encode, e_encode, a_encode) = match enc {
            Some(c) => (c.t[d][i], c.e[d][i], c.a[d][i]),
            None => {
                let _span = xlda_obs::span!("crossbar");
                let (lat, en, area_m2) = solve_xbar(&mut h.xbars, &hdc_xbar_cfg(), &s.tech)?;
                hdc_encode_tiles(s, hv, lat, en, area_m2)
            }
        };
        let rep = {
            let _span = xlda_obs::span!("evacam");
            h.cams
                .report(hdc_cam_cfg(s, design.design, design.data, hv))?
        };
        let (t, e, a) = hdc_cam_compose(t_encode, e_encode, a_encode, &rep)?;
        push_validated(out, design.name, t, e, a, (design.acc)(s))?;
    }

    let c = tpu_nvm_fom_hoisted(s, 1, &mut h.rams)?;
    let id = out.intern(&c.name);
    out.push_lane(
        id,
        c.fom.latency_s,
        c.fom.energy_j,
        c.fom.area_mm2,
        c.fom.accuracy,
    );

    let l1 = Kernel::mvm(512, s.dim_in);
    let l2 = Kernel::mvm(s.classes, 512);
    let t = gpu.time_per_item(&l1, 1000) + gpu.time_per_item(&l2, 1000);
    let e = (gpu.energy(&l1, 1000) + gpu.energy(&l2, 1000)) / 1000.0;
    push_validated(out, "GPU MLP (batch 1000)", t, e, 0.0, s.acc_mlp)?;
    Ok(())
}

/// Validates and appends one candidate lane to the batch's open point —
/// the columnar counterpart of `Candidate::new(name, validate_fom(..)?)`.
fn push_validated(
    out: &mut CandidateBatch,
    name: &str,
    latency_s: f64,
    energy_j: f64,
    area_mm2: f64,
    accuracy: f64,
) -> Result<(), XldaError> {
    let fom = validate_fom(
        name,
        Fom {
            latency_s,
            energy_j,
            area_mm2,
            accuracy,
        },
    )?;
    let id = out.intern(name);
    out.push_lane(id, fom.latency_s, fom.energy_j, fom.area_mm2, fom.accuracy);
    Ok(())
}

/// Appends a scalar candidate set as one successful columnar point.
fn push_candidates(out: &mut CandidateBatch, cands: &[Candidate]) {
    for c in cands {
        let id = out.intern(&c.name);
        out.push_lane(
            id,
            c.fom.latency_s,
            c.fom.energy_j,
            c.fom.area_mm2,
            c.fom.accuracy,
        );
    }
    out.close_point();
}

/// The paper's open question (Sec. III): "What if an existing
/// architecture (e.g., a TPU) is backed by a dense or distributed
/// non-volatile memory? Is this a better way to leverage an emerging
/// technology?" — answered by evaluation.
///
/// Models a TPU-class systolic core whose weights (projection matrix and
/// class HVs) reside in on-chip FeFET NVM instead of streaming from HBM:
/// weight traffic moves at the aggregated on-chip array bandwidth and at
/// NVM read energy, and the host-dispatch overhead shrinks (no off-chip
/// weight staging). The framework's verdict (see the
/// `nvm_backed_tpu_answers_the_open_question` test): it beats the GPU
/// baselines — especially at batch 1 and in energy — but the technology-
/// *enabled* CAM design point still wins, i.e. using the new device as
/// plain dense memory captures only part of its value.
#[derive(Debug, Clone, PartialEq)]
pub struct TpuNvmScenario {
    /// The HDC workload whose weights the on-chip NVM holds.
    pub base: HdcScenario,
    /// Inference batch size the weight streaming amortizes over.
    pub batch: usize,
}

impl TpuNvmScenario {
    /// Wraps an HDC scenario at the given batch size.
    pub fn new(base: HdcScenario, batch: usize) -> Self {
        Self { base, batch }
    }
}

impl Default for TpuNvmScenario {
    fn default() -> Self {
        Self::new(HdcScenario::default(), 1)
    }
}

impl Scenario for TpuNvmScenario {
    fn kind(&self) -> &'static str {
        "tpu_nvm"
    }

    fn store_key(&self) -> Option<Digest> {
        let mut w = DigestWriter::new(self.kind());
        fold_hdc(&mut w, &self.base);
        w.usize(self.batch);
        Some(w.finish())
    }

    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        Ok(vec![tpu_nvm_fom(&self.base, self.batch)?])
    }
}

/// Assembles the NVM-backed-TPU candidate shared by [`HdcScenario`]
/// (batch 1, inside the Fig. 3H set) and [`TpuNvmScenario`].
///
/// # Errors
///
/// [`XldaError::Ram`] if the NVM weight store cannot be organized
/// (degenerate capacity), [`XldaError::InvalidFom`] if the assembled
/// FOMs are non-finite.
fn tpu_nvm_fom(s: &HdcScenario, batch: usize) -> Result<Candidate, XldaError> {
    let weight_bytes = tpu_nvm_weight_bytes(s);
    let rep = {
        let _span = xlda_obs::span!("nvram");
        let ram =
            RamArray::auto_organize(&tpu_nvm_config(s, weight_bytes), OptTarget::ReadLatency)?;
        ram.report()
    };
    tpu_nvm_compose(s, batch, weight_bytes, &rep)
}

/// [`tpu_nvm_fom`] with the NVM geometry search hoisted through a
/// [`RamBatchSolver`]: the solver's organization search replays the
/// scalar search with its capacity-independent sub-solves cached, and
/// the composition tail is [`tpu_nvm_compose`] either way — bit-identical
/// by construction.
fn tpu_nvm_fom_hoisted(
    s: &HdcScenario,
    batch: usize,
    rams: &mut RamBatchSolver,
) -> Result<Candidate, XldaError> {
    let weight_bytes = tpu_nvm_weight_bytes(s);
    let rep = {
        let _span = xlda_obs::span!("nvram");
        rams.auto_organize_report(&tpu_nvm_config(s, weight_bytes), OptTarget::ReadLatency)?
    };
    tpu_nvm_compose(s, batch, weight_bytes, &rep)
}

/// Weight footprint: bipolar projection (1 bit/element) + 4-bit class
/// HVs, held in on-chip FeFET NVM.
fn tpu_nvm_weight_bytes(s: &HdcScenario) -> u64 {
    (s.dim_in * s.hv_dim_sw) as u64 / 8 + (s.classes * s.hv_dim_sw) as u64 / 2
}

fn tpu_nvm_config(s: &HdcScenario, weight_bytes: u64) -> RamConfig {
    RamConfig {
        capacity_bits: weight_bytes * 8,
        word_bits: 256,
        cell: RamCell::Fefet1T,
        tech: s.tech.clone(),
    }
}

/// Composition tail shared by the scalar and hoisted NVM-backed-TPU
/// paths.
fn tpu_nvm_compose(
    s: &HdcScenario,
    batch: usize,
    weight_bytes: u64,
    rep: &RamReport,
) -> Result<Candidate, XldaError> {
    let tpu = Platform::tpu();
    // 16 mats stream in parallel: aggregated on-chip weight bandwidth.
    let nvm_bw = 16.0 * (256.0 / 8.0) / rep.read_latency_s;
    let flops = 2.0 * (s.dim_in * s.hv_dim_sw + s.classes * s.hv_dim_sw) as f64;
    let t_compute = batch as f64 * flops / (tpu.peak_flops * tpu.efficiency);
    let t_weights = weight_bytes as f64 / nvm_bw; // streamed once per batch
                                                  // On-chip dispatch only: no host weight staging.
    let launch = 1e-6;
    let latency = (launch + t_compute.max(t_weights)) / batch as f64;
    let e_compute = tpu.active_power * (launch + t_compute.max(t_weights));
    let e_weights = weight_bytes as f64 / 32.0 * rep.read_energy_j;
    let name = format!("TPU + on-chip NVM (batch {batch})");
    let fom = validate_fom(
        &name,
        Fom {
            latency_s: latency,
            energy_j: (e_compute + e_weights) / batch as f64,
            area_mm2: rep.area_mm2,
            accuracy: s.acc_sw,
        },
    )?;
    Ok(Candidate::new(name, fom))
}

/// The paper's open question (Sec. III, (1)): "What is the best baseline
/// architecture to compare to? (i.e., is an HDC model more likely to be
/// deployed 'on the edge', making small batches more likely and a GPU
/// less likely to be employed?)" — answered by building the edge
/// candidate set: an edge-class GPU and a CPU at batch 1 against the
/// same CAM design point.
///
/// The framework's verdict (see `edge_deployment_answers_open_question`):
/// at the edge the software baselines get *worse* (no batching to
/// amortize launch overhead, weaker silicon), so the CAM's advantage
/// widens — the fair baseline question sharpens, rather than weakens,
/// the technology case.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EdgeScenario {
    /// The HDC workload deployed at the edge (batch 1).
    pub base: HdcScenario,
}

impl EdgeScenario {
    /// Wraps an HDC scenario for edge deployment.
    pub fn new(base: HdcScenario) -> Self {
        Self { base }
    }
}

impl Scenario for EdgeScenario {
    fn kind(&self) -> &'static str {
        "edge"
    }

    fn store_key(&self) -> Option<Digest> {
        let mut w = DigestWriter::new(self.kind());
        fold_hdc(&mut w, &self.base);
        Some(w.finish())
    }

    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        let s = &self.base;
        let mut out = Vec::new();
        for platform in [Platform::edge_gpu(), Platform::cpu()] {
            let (t, e) = hdc_on_platform(s, &platform, 1, s.hv_dim_sw);
            let name = format!("{} HDC (batch 1)", platform.name);
            let fom = validate_fom(
                &name,
                Fom {
                    latency_s: t,
                    energy_j: e,
                    area_mm2: 0.0,
                    accuracy: s.acc_sw,
                },
            )?;
            out.push(Candidate::new(name, fom));
        }
        let (t, e, a) = hdc_on_cam(
            s,
            CamCellDesign::Fefet2T,
            DataKind::MultiBit(3),
            s.hv_dim_3b,
        )?;
        let name = "3b FeFET CAM";
        out.push(Candidate::new(
            name,
            validate_fom(
                name,
                Fom {
                    latency_s: t,
                    energy_j: e,
                    area_mm2: a,
                    accuracy: s.acc_3b,
                },
            )?,
        ));
        Ok(out)
    }
}

/// Scenario for the MANN latency comparison (Fig. 4E right axis).
#[derive(Debug, Clone, PartialEq)]
pub struct MannScenario {
    /// CNN weight count.
    pub weights: usize,
    /// Embedding dimensionality.
    pub emb_dim: usize,
    /// Hash signature bits.
    pub hash_bits: usize,
    /// Stored memories (support entries).
    pub entries: usize,
    /// Accuracy of the software-cosine skyline.
    pub acc_software: f64,
    /// Accuracy of the RRAM hashing pipeline.
    pub acc_rram: f64,
    /// Process node.
    pub tech: TechNode,
}

impl Default for MannScenario {
    fn default() -> Self {
        Self {
            weights: 65_000,
            emb_dim: 64,
            hash_bits: 256,
            entries: 125,
            acc_software: 0.95,
            acc_rram: 0.94,
            tech: TechNode::n40(),
        }
    }
}

impl Scenario for MannScenario {
    fn kind(&self) -> &'static str {
        "mann"
    }

    fn store_key(&self) -> Option<Digest> {
        let mut w = DigestWriter::new(self.kind());
        w.usize(self.weights)
            .usize(self.emb_dim)
            .usize(self.hash_bits)
            .usize(self.entries)
            .f64(self.acc_software)
            .f64(self.acc_rram)
            .word(self.tech.memo_key());
        Some(w.finish())
    }

    /// Builds the MANN platform candidates: GPU software stack vs. the
    /// all-RRAM in-memory pipeline.
    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        let s = self;
        // RRAM path: CNN on crossbars, hashing on a stochastic crossbar, AM
        // search in an RRAM TCAM.
        let (mvm_latency_s, mvm_energy_j, area_m2) = {
            let _span = xlda_obs::span!("crossbar");
            let xmacro = CrossbarMacro::try_new(&mann_xbar_cfg(), &s.tech, 8)?;
            let mvm = xmacro.mvm_cost();
            (mvm.latency_s, mvm.energy_j, xmacro.area_m2())
        };
        let rep = {
            let _span = xlda_obs::span!("evacam");
            let cam = CamArray::new(mann_cam_cfg(s))?;
            cam.report()
        };
        mann_compose(s, mvm_latency_s, mvm_energy_j, area_m2, &rep)
    }

    fn batch_kernel() -> bool {
        true
    }

    /// Batch MANN kernel: hoists the 64x64 crossbar macro solve (per
    /// tech node) and the TCAM sense-margin search (per matchline
    /// config) across the batch, then composes each point through
    /// [`mann_compose`] — bit-identical to [`Scenario::candidates`].
    fn candidates_batch(batch: &[Self], out: &mut CandidateBatch)
    where
        Self: Sized,
    {
        let mut xbars = XbarCache::new();
        let mut cams = CamSolver::new();
        for s in batch {
            let point = (|| -> Result<Vec<Candidate>, XldaError> {
                let (mvm_latency_s, mvm_energy_j, area_m2) = {
                    let _span = xlda_obs::span!("crossbar");
                    solve_xbar(&mut xbars, &mann_xbar_cfg(), &s.tech)?
                };
                let rep = {
                    let _span = xlda_obs::span!("evacam");
                    cams.report(mann_cam_cfg(s))?
                };
                mann_compose(s, mvm_latency_s, mvm_energy_j, area_m2, &rep)
            })();
            match point {
                Ok(cands) => push_candidates(out, &cands),
                Err(e) => out.fail_point(PointStatus::Error, e.to_string()),
            }
        }
    }
}

/// The fixed 64x64 crossbar configuration of the MANN RRAM pipeline.
fn mann_xbar_cfg() -> CrossbarConfig {
    CrossbarConfig {
        rows: 64,
        cols: 64,
        ..CrossbarConfig::default()
    }
}

/// The RRAM TCAM configuration of the MANN associative-memory search.
fn mann_cam_cfg(s: &MannScenario) -> CamConfig {
    CamConfig {
        words: s.entries,
        bits_per_word: s.hash_bits,
        design: CamCellDesign::Rram2T2R,
        data: DataKind::Ternary,
        match_kind: MatchKind::Best { max_distance: 4 },
        row_banks: 1,
        tech: s.tech.clone(),
    }
}

/// Composition tail of the MANN candidate pair from one crossbar macro
/// solve and one TCAM report, shared by the scalar and batch paths.
fn mann_compose(
    s: &MannScenario,
    mvm_latency_s: f64,
    mvm_energy_j: f64,
    area_m2: f64,
    rep: &CamReport,
) -> Result<Vec<Candidate>, XldaError> {
    let gpu = Platform::gpu();
    // GPU path: CNN + exact cosine search over raw embeddings.
    let cnn = Kernel {
        flops_per_item: (s.weights as u64) * 100,
        bytes_per_item: 28 * 28 * 4,
        shared_bytes: (s.weights * 4) as u64,
    };
    let search = Kernel::search(s.entries, s.emb_dim, 4);
    let t_gpu = gpu.time_per_item(&cnn, 1) + gpu.time_per_item(&search, 1);
    let e_gpu = gpu.energy(&cnn, 1) + gpu.energy(&search, 1);

    // Paper: >65k weights across 36 64x64 crossbars; layers pipeline but
    // inference visits each layer once.
    let cnn_tiles = s.weights.div_ceil(64 * 64).max(1);
    let layer_depth = 4.0;
    let t_cnn = layer_depth * mvm_latency_s;
    let e_cnn = cnn_tiles as f64 * mvm_energy_j;
    let hash_tiles = (s.emb_dim.div_ceil(64) * (2 * s.hash_bits).div_ceil(64)).max(1);
    let t_hash = mvm_latency_s;
    let e_hash = hash_tiles as f64 * mvm_energy_j;
    let area = (cnn_tiles + hash_tiles) as f64 * area_m2 * 1e6 + rep.area_um2 * 1e-6;

    Ok(vec![
        Candidate::new(
            "GPU MANN (batch 1)",
            validate_fom(
                "GPU MANN (batch 1)",
                Fom {
                    latency_s: t_gpu,
                    energy_j: e_gpu,
                    area_mm2: 0.0,
                    accuracy: s.acc_software,
                },
            )?,
        ),
        Candidate::new(
            "RRAM in-memory MANN",
            validate_fom(
                "RRAM in-memory MANN",
                Fom {
                    latency_s: t_cnn + t_hash + rep.search_latency_s,
                    energy_j: e_cnn + e_hash + rep.search_energy_j,
                    area_mm2: area,
                    accuracy: s.acc_rram,
                },
            )?,
        ),
    ])
}

// ---------------------------------------------------------------------------
// Scenario sweep entry points.
// ---------------------------------------------------------------------------

/// Message recorded on points skipped by an expired sweep deadline;
/// matches `PointFailure::DeadlineExceeded`'s `Display` so both sweep
/// arms report the skip identically.
const DEADLINE_MSG: &str = "sweep deadline expired before evaluation";

thread_local! {
    /// Per-worker columnar scratch batch, reused across stolen chunks so
    /// column capacity and kernel scratch pools survive chunk boundaries.
    static CHUNK_BATCH: std::cell::RefCell<CandidateBatch> =
        std::cell::RefCell::new(CandidateBatch::new());
}

/// Evaluates a grid of same-type scenarios into one [`CandidateBatch`],
/// preserving input order, with per-point error/panic containment.
///
/// The work-stealing scheduler hands whole chunks to
/// [`Scenario::candidates_batch`], sized by [`Scenario::batch_kernel`]
/// (columnar chunks for kernel kinds, the per-point heuristic for the
/// rest); a chunk whose kernel panics or
/// miscounts its points is re-evaluated per point. The output is
/// bit-identical ([`CandidateBatch::checksum`]) to
/// [`sweep_scenarios_reference`] on deadline-free sweeps under the same
/// memo setting, and exact by construction with memo off: the kernels
/// reuse the scalar expressions and only hoist sub-solves the scalar
/// path recomputes from identical inputs.
///
/// [`SweepOptions::deadline`] is honored at *chunk* granularity (an
/// admitted chunk runs to completion), so under an expired deadline
/// this may skip different points than the per-point reference.
pub fn sweep_scenarios<S: Scenario>(scenarios: &[S], opts: &SweepOptions) -> CandidateBatch {
    let expires_at = opts.deadline().map(|d| Instant::now() + d);
    let run = |_base: usize, slice: &[S]| run_columnar_chunk(slice, expires_at);
    let chunks = if S::batch_kernel() {
        par_batch_map(scenarios, opts, run)
    } else {
        let clamp = sweep::MIN_AUTO_CHUNK..=sweep::MAX_AUTO_CHUNK;
        sweep::run_chunks(scenarios, opts, sweep::TARGET_STEALS_PER_WORKER, clamp, run)
    };
    let mut out = CandidateBatch::new();
    for c in &chunks {
        out.append(c);
    }
    out
}

/// The per-point reference [`sweep_scenarios`] must match: every point
/// evaluates through [`Scenario::candidates`] on the scalar engine
/// ([`par_try_map_with`], deadline at point granularity), and the
/// candidate sets are packed into a [`CandidateBatch`] in input order.
///
/// This is the oracle of the parity tests and the cold-path bench arm;
/// production sweeps call [`sweep_scenarios`].
pub fn sweep_scenarios_reference<S: Scenario>(
    scenarios: &[S],
    opts: &SweepOptions,
) -> CandidateBatch {
    let mut out = CandidateBatch::new();
    for r in par_try_map_with(scenarios, |s| s.candidates(), opts) {
        match r {
            Ok(cands) => push_candidates(&mut out, &cands),
            Err(PointFailure::Error(e)) => out.fail_point(PointStatus::Error, e.to_string()),
            Err(PointFailure::Panicked(msg)) => out.fail_point(PointStatus::Panicked, msg),
            Err(PointFailure::DeadlineExceeded) => {
                out.fail_point(PointStatus::DeadlineExceeded, DEADLINE_MSG);
            }
        }
    }
    out
}

/// One columnar chunk: deadline check, batch kernel under a chunk-level
/// panic guard, and a per-point scalar fallback if the kernel misbehaves.
fn run_columnar_chunk<S: Scenario>(slice: &[S], expires_at: Option<Instant>) -> CandidateBatch {
    // Chunk-granular deadline: mirrors the scalar engine's "never
    // interrupt an evaluator" rule at chunk scope.
    if expires_at.is_some_and(|t| Instant::now() >= t) {
        let mut out = CandidateBatch::new();
        for _ in slice {
            out.fail_point(PointStatus::DeadlineExceeded, DEADLINE_MSG);
        }
        return out;
    }
    let kernel = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        CHUNK_BATCH.with(|cell| {
            let mut b = cell.borrow_mut();
            b.clear();
            S::candidates_batch(slice, &mut b);
            b.clone()
        })
    }));
    match kernel {
        Ok(b) if b.points() == slice.len() => b,
        // A panicking or miscounting kernel forfeits the whole chunk to
        // per-point scalar evaluation with per-point containment, so one
        // poisoned lane cannot take down its chunk-mates.
        _ => {
            let mut out = CandidateBatch::new();
            for s in slice {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.candidates())) {
                    Ok(Ok(cands)) => push_candidates(&mut out, &cands),
                    Ok(Err(e)) => out.fail_point(PointStatus::Error, e.to_string()),
                    Err(payload) => {
                        out.fail_point(PointStatus::Panicked, sweep::panic_message(payload));
                    }
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdc_candidate_set_is_complete_and_valid() {
        let cands = HdcScenario::default().candidates().unwrap();
        assert_eq!(cands.len(), 8);
        for c in &cands {
            assert!(c.fom.is_valid(), "{}: {:?}", c.name, c.fom);
            assert!(c.fom.latency_s > 0.0);
        }
    }

    #[test]
    fn fig3h_shape_batching_helps_gpu() {
        let cands = HdcScenario::default().candidates().unwrap();
        let find = |n: &str| {
            cands
                .iter()
                .find(|c| c.name.contains(n))
                .unwrap_or_else(|| panic!("{n} missing"))
                .fom
        };
        let b1 = find("batch 1)");
        let b1000 = find("batch 1000)");
        assert!(b1000.latency_s < b1.latency_s / 10.0);
    }

    #[test]
    fn fig3h_shape_3b_cam_beats_gpu_latency() {
        // The headline Fig. 3H result: the 3-bit FeFET CAM design point
        // beats even batched GPU inference at iso-accuracy.
        let cands = HdcScenario::default().candidates().unwrap();
        let find = |n: &str| cands.iter().find(|c| c.name.contains(n)).expect("exists");
        let cam3 = find("3b FeFET");
        let gpu_b1 = find("GPU HDC (batch 1)");
        let gpu_b1000 = find("GPU HDC (batch 1000)");
        assert!(cam3.fom.latency_s < gpu_b1.fom.latency_s / 100.0);
        assert!(cam3.fom.latency_s < gpu_b1000.fom.latency_s);
        assert!(cam3.fom.accuracy >= gpu_b1.fom.accuracy - 1e-9);
    }

    #[test]
    fn fig3h_shape_2b_needs_longer_hvs_and_is_slower_than_3b() {
        let cands = HdcScenario::default().candidates().unwrap();
        let find = |n: &str| cands.iter().find(|c| c.name.contains(n)).expect("exists");
        let cam3 = find("3b FeFET");
        let cam2 = find("2b FeFET");
        assert!(cam2.fom.latency_s > cam3.fom.latency_s);
        assert!(cam2.fom.energy_j > cam3.fom.energy_j);
    }

    #[test]
    fn fig3h_shape_1b_sram_fast_but_inaccurate() {
        let cands = HdcScenario::default().candidates().unwrap();
        let find = |n: &str| cands.iter().find(|c| c.name.contains(n)).expect("exists");
        let sram = find("1b SRAM");
        let cam3 = find("3b FeFET");
        assert!(sram.fom.accuracy < cam3.fom.accuracy);
        assert!(sram.fom.area_mm2 > cam3.fom.area_mm2); // 16T cells
    }

    #[test]
    fn fig3h_shape_hybrid_nominal_improvement() {
        let cands = HdcScenario::default().candidates().unwrap();
        let find = |n: &str| cands.iter().find(|c| c.name.contains(n)).expect("exists");
        let gpu = find("GPU HDC (batch 1000)");
        let hybrid = find("TPU-GPU");
        assert!(hybrid.fom.latency_s < gpu.fom.latency_s);
        assert!(hybrid.fom.latency_s > gpu.fom.latency_s / 10.0); // nominal, not drastic
    }

    #[test]
    fn edge_deployment_answers_open_question() {
        // Sec. III open question (1): at the edge (batch 1, weaker
        // silicon) the software baselines slow down, so the CAM's
        // advantage is even larger than against the datacenter GPU.
        let s = HdcScenario::default();
        let edge = EdgeScenario::new(s.clone()).candidates().unwrap();
        assert_eq!(edge.len(), 3);
        let cam = edge.iter().find(|c| c.name.contains("CAM")).expect("cam");
        let edge_gpu = edge
            .iter()
            .find(|c| c.name.contains("edge-GPU"))
            .expect("edge gpu");
        let datacenter = s.candidates().unwrap();
        let dc_gpu_b1000 = datacenter
            .iter()
            .find(|c| c.name.contains("batch 1000)") && c.name.contains("GPU HDC"))
            .expect("dc gpu");
        let edge_advantage = edge_gpu.fom.latency_s / cam.fom.latency_s;
        let dc_advantage = dc_gpu_b1000.fom.latency_s / cam.fom.latency_s;
        assert!(
            edge_advantage > dc_advantage,
            "edge {edge_advantage:.0}x vs dc {dc_advantage:.0}x"
        );
        assert!(edge_advantage > 100.0);
    }

    #[test]
    fn nvm_backed_tpu_answers_the_open_question() {
        // Sec. III open question (2): an NVM-backed TPU is a *better
        // baseline* (beats GPU batch-1 latency and batched GPU energy)
        // but not a better *design point* than the FeFET CAM.
        let s = HdcScenario::default();
        let cands = s.candidates().unwrap();
        let find = |n: &str| cands.iter().find(|c| c.name.contains(n)).expect("exists");
        let nvm_tpu = find("TPU + on-chip NVM");
        let gpu_b1 = find("GPU HDC (batch 1)");
        let gpu_b1000 = find("GPU HDC (batch 1000)");
        let cam = find("3b FeFET CAM");
        assert!(nvm_tpu.fom.latency_s < gpu_b1.fom.latency_s / 5.0);
        assert!(nvm_tpu.fom.energy_j < gpu_b1000.fom.energy_j);
        assert!(cam.fom.latency_s < nvm_tpu.fom.latency_s / 10.0);
        assert!(cam.fom.energy_j < nvm_tpu.fom.energy_j);
    }

    /// Packs scalar `candidates()` results into a batch — the reference
    /// the kernels must match bit for bit.
    fn scalar_reference<S: Scenario>(scenarios: &[S]) -> CandidateBatch {
        let mut out = CandidateBatch::new();
        for s in scenarios {
            match s.candidates() {
                Ok(c) => push_candidates(&mut out, &c),
                Err(e) => out.fail_point(PointStatus::Error, e.to_string()),
            }
        }
        out
    }

    fn batch_of<S: Scenario>(scenarios: &[S]) -> CandidateBatch {
        let mut out = CandidateBatch::new();
        S::candidates_batch(scenarios, &mut out);
        out
    }

    fn assert_bit_identical(a: &CandidateBatch, b: &CandidateBatch) {
        assert_eq!(a.points(), b.points());
        assert_eq!(a.lanes(), b.lanes());
        assert_eq!(a.checksum(), b.checksum());
        for p in 0..a.points() {
            assert_eq!(a.point_status(p), b.point_status(p), "point {p}");
            assert_eq!(a.point_message(p), b.point_message(p), "point {p}");
            assert_eq!(a.lane_range(p), b.lane_range(p), "point {p}");
        }
        for i in 0..a.lanes() {
            assert_eq!(a.lane_name(i), b.lane_name(i), "lane {i}");
            for (col_a, col_b) in [
                (a.latency_s(), b.latency_s()),
                (a.energy_j(), b.energy_j()),
                (a.area_mm2(), b.area_mm2()),
                (a.accuracy(), b.accuracy()),
            ] {
                assert_eq!(col_a[i].to_bits(), col_b[i].to_bits(), "lane {i}");
            }
        }
    }

    #[test]
    fn hdc_batch_kernel_is_bit_identical_to_scalar() {
        // Uniform tech (columnar encode columns) over a dim/hv grid.
        let grid: Vec<HdcScenario> = (0..7)
            .map(|i| HdcScenario {
                dim_in: 617 + 100 * i,
                hv_dim_3b: 2048 + 512 * i,
                ..HdcScenario::default()
            })
            .collect();
        assert_bit_identical(&scalar_reference(&grid), &batch_of(&grid));
    }

    #[test]
    fn hdc_batch_kernel_handles_mixed_techs_and_errors() {
        // Mixed tech nodes force the per-point encode arm; the NaN point
        // must fail alone with the scalar error string.
        let mut grid = vec![
            HdcScenario::default(),
            HdcScenario {
                tech: TechNode::n22(),
                ..HdcScenario::default()
            },
            HdcScenario {
                acc_sw: f64::NAN,
                ..HdcScenario::default()
            },
            HdcScenario {
                dim_in: 1200,
                ..HdcScenario::default()
            },
        ];
        let reference = scalar_reference(&grid);
        let batch = batch_of(&grid);
        assert_eq!(batch.point_status(2), PointStatus::Error);
        assert_bit_identical(&reference, &batch);
        // Uniform-tech grid containing an error point: the hoisted
        // encode columns are computed for it, but the point still fails
        // identically.
        grid.remove(1);
        assert_bit_identical(&scalar_reference(&grid), &batch_of(&grid));
    }

    #[test]
    fn mann_batch_kernel_is_bit_identical_to_scalar() {
        let grid: Vec<MannScenario> = (0..6)
            .map(|i| MannScenario {
                entries: 125 + 40 * i,
                hash_bits: 256 + 32 * i,
                ..MannScenario::default()
            })
            .chain(std::iter::once(MannScenario {
                acc_rram: 1.5,
                ..MannScenario::default()
            }))
            .collect();
        let reference = scalar_reference(&grid);
        let batch = batch_of(&grid);
        assert_eq!(batch.point_status(6), PointStatus::Error);
        assert_bit_identical(&reference, &batch);
    }

    #[test]
    fn provided_candidates_batch_covers_external_impls() {
        // Edge/TpuNvm use the provided per-point default and must agree
        // with the scalar reference too.
        let grid: Vec<EdgeScenario> = (0..3)
            .map(|i| {
                EdgeScenario::new(HdcScenario {
                    dim_in: 617 + i,
                    ..HdcScenario::default()
                })
            })
            .collect();
        assert_bit_identical(&scalar_reference(&grid), &batch_of(&grid));
    }

    #[test]
    fn sweep_scenarios_matches_the_reference() {
        let grid: Vec<HdcScenario> = (0..10)
            .map(|i| HdcScenario {
                dim_in: 600 + 37 * i,
                ..HdcScenario::default()
            })
            .collect();
        let reference =
            sweep_scenarios_reference(&grid, &SweepOptions::builder().threads(2).build());
        let columnar = sweep_scenarios(&grid, &SweepOptions::builder().threads(2).chunk(3).build());
        assert_bit_identical(&reference, &columnar);
        assert_eq!(columnar.points(), grid.len());
    }

    /// A scenario whose batch kernel tags its lanes, so a sweep shows
    /// which path evaluated it.
    struct KernelTagged;

    impl KernelTagged {
        fn tagged(name: &str) -> Candidate {
            Candidate::new(
                name,
                Fom {
                    latency_s: 1.0,
                    energy_j: 1.0,
                    area_mm2: 0.0,
                    accuracy: 0.5,
                },
            )
        }
    }

    impl Scenario for KernelTagged {
        fn kind(&self) -> &'static str {
            "kernel-tagged"
        }

        fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
            Ok(vec![Self::tagged("per-point")])
        }

        fn candidates_batch(batch: &[Self], out: &mut CandidateBatch) {
            for _ in batch {
                push_candidates(out, &[Self::tagged("kernel")]);
            }
        }
    }

    #[test]
    fn default_sweep_runs_the_batch_kernel() {
        let out = sweep_scenarios(&[KernelTagged, KernelTagged], &SweepOptions::default());
        assert_eq!(out.points(), 2);
        assert_eq!(out.lane_name(0), "kernel");
        assert_eq!(out.lane_name(1), "kernel");
    }

    /// Chunk lengths [`ChunkProbe`] kernels were handed.
    static PROBED_CHUNKS: std::sync::Mutex<Vec<usize>> = std::sync::Mutex::new(Vec::new());

    /// A scenario that records the chunks a sweep hands its kernel;
    /// `KERNEL` is its [`Scenario::batch_kernel`].
    struct ChunkProbe<const KERNEL: bool>;

    impl<const KERNEL: bool> Scenario for ChunkProbe<KERNEL> {
        fn kind(&self) -> &'static str {
            "chunk-probe"
        }

        fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
            Ok(vec![KernelTagged::tagged("per-point")])
        }

        fn candidates_batch(batch: &[Self], out: &mut CandidateBatch) {
            PROBED_CHUNKS.lock().unwrap().push(batch.len());
            for _ in batch {
                push_candidates(out, &[KernelTagged::tagged("kernel")]);
            }
        }

        fn batch_kernel() -> bool {
            KERNEL
        }
    }

    fn probed_chunks<const KERNEL: bool>(opts: &SweepOptions) -> Vec<usize> {
        PROBED_CHUNKS.lock().unwrap().clear();
        let grid: Vec<ChunkProbe<KERNEL>> = (0..8).map(|_| ChunkProbe).collect();
        assert_eq!(sweep_scenarios(&grid, opts).points(), 8);
        let mut chunks = std::mem::take(&mut *PROBED_CHUNKS.lock().unwrap());
        chunks.sort_unstable();
        chunks
    }

    #[test]
    fn sweep_scenarios_sizes_chunks_by_batch_kernel() {
        let two = SweepOptions::builder().threads(2).build();
        // A kernel kind gets one columnar chunk (the columnar minimum)...
        assert_eq!(probed_chunks::<true>(&two), vec![8]);
        // ...a kind without one gets per-point chunks, so a heavy point
        // cannot hold the whole grid on one worker.
        assert_eq!(probed_chunks::<false>(&two), vec![1; 8]);
        // An explicit chunk wins for both.
        let fixed = SweepOptions::builder().threads(2).chunk(3).build();
        assert_eq!(probed_chunks::<true>(&fixed), vec![2, 3, 3]);
        assert_eq!(probed_chunks::<false>(&fixed), vec![2, 3, 3]);
    }

    /// A scenario whose evaluator panics on selected points, to exercise
    /// chunk-level containment and the per-point fallback.
    struct PanickyScenario {
        id: usize,
        panic_on: bool,
    }

    impl Scenario for PanickyScenario {
        fn kind(&self) -> &'static str {
            "panicky"
        }

        fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
            assert!(!self.panic_on, "poisoned point {}", self.id);
            Ok(vec![Candidate::new(
                "ok",
                Fom {
                    latency_s: 1.0 + self.id as f64,
                    energy_j: 1.0,
                    area_mm2: 0.0,
                    accuracy: 0.5,
                },
            )])
        }
    }

    #[test]
    fn columnar_sweep_contains_poisoned_lanes() {
        let grid: Vec<PanickyScenario> = (0..9)
            .map(|id| PanickyScenario {
                id,
                panic_on: id == 4,
            })
            .collect();
        let out = sweep_scenarios(&grid, &SweepOptions::builder().threads(2).chunk(3).build());
        assert_eq!(out.points(), 9);
        for p in 0..9 {
            if p == 4 {
                assert_eq!(out.point_status(p), PointStatus::Panicked);
                assert!(out.point_message(p).unwrap().contains("poisoned point 4"));
            } else {
                assert_eq!(out.point_status(p), PointStatus::Ok, "point {p}");
                assert_eq!(out.latency_s()[out.lane_range(p).start], 1.0 + p as f64);
            }
        }
    }

    #[test]
    fn columnar_deadline_skips_whole_chunks() {
        let grid: Vec<HdcScenario> = (0..4).map(|_| HdcScenario::default()).collect();
        let out = sweep_scenarios(
            &grid,
            &SweepOptions::builder()
                .threads(1)
                .deadline(std::time::Duration::ZERO)
                .build(),
        );
        assert_eq!(out.points(), 4);
        for p in 0..4 {
            assert_eq!(out.point_status(p), PointStatus::DeadlineExceeded);
            assert_eq!(out.point_message(p), Some(DEADLINE_MSG));
        }
    }

    #[test]
    fn scenario_kinds_are_stable() {
        assert_eq!(HdcScenario::default().kind(), "hdc");
        assert_eq!(MannScenario::default().kind(), "mann");
        assert_eq!(EdgeScenario::default().kind(), "edge");
        assert_eq!(TpuNvmScenario::default().kind(), "tpu_nvm");
    }

    #[test]
    fn scenarios_dispatch_through_trait_objects() {
        // The serving layer batches heterogeneous requests as one slice
        // of trait objects; every built-in scenario must evaluate
        // through that indirection.
        let batch: Vec<Box<dyn Scenario>> = vec![
            Box::new(HdcScenario::default()),
            Box::new(MannScenario::default()),
            Box::new(EdgeScenario::default()),
            Box::new(TpuNvmScenario::default()),
        ];
        for s in &batch {
            let cands = s
                .candidates()
                .unwrap_or_else(|e| panic!("{}: {e}", s.kind()));
            assert!(!cands.is_empty(), "{}", s.kind());
            for c in &cands {
                assert!(c.fom.is_valid(), "{}: {:?}", c.name, c.fom);
            }
        }
    }

    #[test]
    fn nan_accuracy_is_a_typed_error_not_a_panic() {
        let s = HdcScenario {
            acc_sw: f64::NAN,
            ..HdcScenario::default()
        };
        match s.candidates() {
            Err(XldaError::InvalidFom { name, fom }) => {
                assert!(name.contains("GPU HDC"), "{name}");
                assert!(fom.accuracy.is_nan());
            }
            other => panic!("expected InvalidFom, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_accuracy_is_rejected() {
        let s = MannScenario {
            acc_rram: 1.5,
            ..MannScenario::default()
        };
        assert!(matches!(s.candidates(), Err(XldaError::InvalidFom { .. })));
    }

    #[test]
    fn mann_rram_pipeline_beats_gpu_latency() {
        let cands = MannScenario::default().candidates().unwrap();
        assert_eq!(cands.len(), 2);
        let gpu = &cands[0].fom;
        let rram = &cands[1].fom;
        assert!(rram.latency_s < gpu.latency_s / 10.0);
        assert!(rram.energy_j < gpu.energy_j);
        assert!(rram.accuracy >= gpu.accuracy - 0.02);
    }
}
