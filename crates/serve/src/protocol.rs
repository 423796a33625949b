//! Request/response schema for the newline-delimited JSON protocol.
//!
//! One request per line in, one response per line out, matched by the
//! client-chosen `id`. Evaluation requests dispatch through
//! [`Scenario`]: the service never matches on workload internals, so a
//! new workload only has to implement the trait to become servable.
//!
//! Request shape:
//!
//! ```json
//! {"id":"r1","kind":"hdc","scenario":{"classes":26,"tech":"n40"},"deadline_ms":500}
//! {"id":"r2","kind":"triage","objective":"energy_first","floor":0.9}
//! {"id":"r3","kind":"stats"}
//! {"id":"r4","kind":"metrics"}
//! {"id":"r5","kind":"shutdown"}
//! ```
//!
//! `scenario` fields are optional overrides on the workload's
//! `Default`; `kind` is one of `hdc | mann | edge | tpu_nvm | triage |
//! cam_yield_mc | mann_mc | nvm_mc | refine | stats | metrics | debug |
//! shutdown`. The `*_mc` kinds are Monte-Carlo scenarios: their
//! `scenario` object also accepts the population controls `trials` (at
//! most [`MC_MAX_TRIALS`]) and `seed`, and their responses carry a
//! `distributions` array of summary digests next to `candidates`. A
//! request runs its whole population on the one worker that popped it,
//! so the library's schedule-only `batch`/`threads` are not read from
//! the wire (like any unknown key, they are ignored).
//!
//! `refine` is incremental DSE against the result store: it expands a
//! `grid` cross-product over a `base` workload, skips the digests the
//! client reports as `known`, resolves the rest through the store
//! (lookup or fresh evaluation), and optionally triages by successive
//! halving instead of exhaustively:
//!
//! ```json
//! {"id":"r6","kind":"refine","base":"hdc",
//!  "scenario":{"acc_sw":0.9},
//!  "grid":{"classes":[10,20,30],"tech":["n40","n22"]},
//!  "known":["<32-hex digest>"],
//!  "mode":"halving","fraction":0.25,
//!  "objective":"latency_first","floor":0.9}
//! ```
//!
//! See DESIGN.md §9, §12, and §13 for the full schema.

use crate::json::{obj, Json};
use std::collections::HashSet;
use xlda_circuit::tech::TechNode;
use xlda_core::evaluate::{EdgeScenario, HdcScenario, MannScenario, Scenario, TpuNvmScenario};
use xlda_core::fom::Candidate;
use xlda_core::mc::{
    CamYieldMcScenario, MannAccuracyMcScenario, McDistribution, McParams, NvmLifetimeMcScenario,
};
use xlda_core::store::Digest;
use xlda_core::triage::Objective;

/// Cross-product cap for one `refine` grid; larger explorations should
/// be split across requests (each one returns the digests needed to
/// resume exactly where it stopped).
pub const REFINE_MAX_POINTS: usize = 1024;

/// Largest Monte-Carlo `trials` population one request may ask for. The
/// engine allocates per-trial columns up front, so an unbounded
/// client-chosen population could ask for gigabytes and abort the
/// daemon on allocation failure.
pub const MC_MAX_TRIALS: usize = 1 << 20;

/// Ranking objective requested by a `triage` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TriageObjective {
    /// `Objective::latency_first`.
    LatencyFirst,
    /// `Objective::energy_first`.
    EnergyFirst,
}

/// Ranking spec carried by a `triage` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriageSpec {
    /// Which weighted objective ranks the candidates.
    pub objective: TriageObjective,
    /// Optional iso-accuracy floor.
    pub floor: Option<f64>,
}

impl TriageSpec {
    /// The core-crate objective this spec selects.
    pub fn objective(&self) -> Objective {
        match self.objective {
            TriageObjective::LatencyFirst => Objective::latency_first(self.floor),
            TriageObjective::EnergyFirst => Objective::energy_first(self.floor),
        }
    }
}

/// How a `refine` request spends its evaluation budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefineMode {
    /// Evaluate every unresolved grid point.
    Full,
    /// Successive-halving triage: evaluate a strided `fraction` of the
    /// grid first, then refine around the survivors.
    Halving {
        /// Initial evaluated fraction (stride `ceil(1/fraction)`).
        fraction: f64,
    },
}

/// One expanded grid point of a `refine` request.
pub struct RefinePoint {
    /// The point's content address ([`Scenario::store_key`]).
    pub digest: Digest,
    /// The scenario to evaluate on a miss.
    pub scenario: Box<dyn Scenario>,
}

/// A parsed `refine` request: incremental DSE over an expanded grid,
/// skipping digests the client already holds and points the store has
/// already resolved.
pub struct RefineSpec {
    /// Base workload kind the grid spans.
    pub base: String,
    /// The expanded cross-product, in axis-major order.
    pub points: Vec<RefinePoint>,
    /// Digests the client already has results for; these points are
    /// acknowledged as `"known"` without any lookup or evaluation.
    pub known: HashSet<Digest>,
    /// Full sweep or successive-halving triage.
    pub mode: RefineMode,
    /// Ranking objective for the response's `ranking` block (required
    /// meaningfully by halving mode; optional for full sweeps).
    pub triage: Option<TriageSpec>,
}

/// A parsed, admissible request.
pub enum Request {
    /// Evaluate a scenario (optionally ranking the result).
    Eval {
        /// Client-chosen correlation id, echoed in the response.
        id: String,
        /// The workload to evaluate, behind the unified trait.
        scenario: Box<dyn Scenario>,
        /// Present for `kind: "triage"`.
        triage: Option<TriageSpec>,
        /// Per-request deadline in milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Report queue/latency/cache statistics.
    Stats {
        /// Correlation id.
        id: String,
    },
    /// Report the server's counters, histograms, span aggregates, and
    /// memo caches in Prometheus text exposition format.
    Metrics {
        /// Correlation id.
        id: String,
    },
    /// Begin a graceful drain.
    Shutdown {
        /// Correlation id.
        id: String,
    },
    /// Report the flight recorder's retained slow/error request traces
    /// with their stage breakdowns.
    Debug {
        /// Correlation id.
        id: String,
    },
    /// Incremental DSE against the persistent result store.
    Refine {
        /// Correlation id.
        id: String,
        /// The expanded grid and its skip/triage controls.
        spec: RefineSpec,
        /// Per-request deadline in milliseconds from admission.
        deadline_ms: Option<u64>,
    },
}

/// Parses one request line. `Err` carries `(id-if-known, message)` so
/// the rejection can still be correlated.
pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let v = Json::parse(line).map_err(|e| (String::new(), format!("malformed JSON: {e}")))?;
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let fail = |msg: &str| Err((id.clone(), msg.to_string()));
    let kind = match v.get("kind").and_then(Json::as_str) {
        Some(k) => k,
        None => return fail("missing \"kind\""),
    };
    if id.is_empty() {
        return fail("missing \"id\"");
    }
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(d) => match d.as_usize() {
            Some(ms) => Some(ms as u64),
            None => return fail("\"deadline_ms\" must be a non-negative integer"),
        },
    };
    let spec = v.get("scenario").cloned().unwrap_or(Json::Obj(Vec::new()));
    if kind == "refine" {
        let spec = parse_refine(&v, &spec).map_err(|m| (id.clone(), m))?;
        return Ok(Request::Refine {
            id,
            spec,
            deadline_ms,
        });
    }
    let scenario: Box<dyn Scenario> = match kind {
        "stats" => return Ok(Request::Stats { id }),
        "metrics" => return Ok(Request::Metrics { id }),
        "shutdown" => return Ok(Request::Shutdown { id }),
        "debug" => return Ok(Request::Debug { id }),
        "hdc" | "triage" => Box::new(hdc_scenario(&spec).map_err(|m| (id.clone(), m))?),
        "mann" => Box::new(mann_scenario(&spec).map_err(|m| (id.clone(), m))?),
        "cam_yield_mc" => Box::new(cam_yield_mc_scenario(&spec).map_err(|m| (id.clone(), m))?),
        "mann_mc" => Box::new(mann_mc_scenario(&spec).map_err(|m| (id.clone(), m))?),
        "nvm_mc" => Box::new(nvm_mc_scenario(&spec).map_err(|m| (id.clone(), m))?),
        "edge" => Box::new(EdgeScenario::new(
            hdc_scenario(&spec).map_err(|m| (id.clone(), m))?,
        )),
        "tpu_nvm" => {
            let batch = match v.get("batch") {
                None | Some(Json::Null) => 1,
                Some(b) => match b.as_usize() {
                    Some(n) if n > 0 => n,
                    _ => return fail("\"batch\" must be a positive integer"),
                },
            };
            Box::new(TpuNvmScenario::new(
                hdc_scenario(&spec).map_err(|m| (id.clone(), m))?,
                batch,
            ))
        }
        other => return fail(&format!("unknown kind {other:?}")),
    };
    let triage = if kind == "triage" {
        let objective = match v.get("objective").and_then(Json::as_str) {
            None | Some("latency_first") => TriageObjective::LatencyFirst,
            Some("energy_first") => TriageObjective::EnergyFirst,
            Some(o) => return fail(&format!("unknown objective {o:?}")),
        };
        let floor = match v.get("floor") {
            None | Some(Json::Null) => None,
            Some(f) => match f.as_f64() {
                Some(x) if x.is_finite() => Some(x),
                _ => return fail("\"floor\" must be a finite number"),
            },
        };
        Some(TriageSpec { objective, floor })
    } else {
        None
    };
    Ok(Request::Eval {
        id,
        scenario,
        triage,
        deadline_ms,
    })
}

fn tech_node(name: &str) -> Result<TechNode, String> {
    Ok(match name {
        "n130" => TechNode::n130(),
        "n90" => TechNode::n90(),
        "n65" => TechNode::n65(),
        "n45" => TechNode::n45(),
        "n40" => TechNode::n40(),
        "n32" => TechNode::n32(),
        "n22" => TechNode::n22(),
        other => return Err(format!("unknown tech node {other:?}")),
    })
}

/// Reads an optional usize override, erroring on wrong types.
fn usize_field(spec: &Json, key: &str, into: &mut usize) -> Result<(), String> {
    match spec.get(key) {
        None | Some(Json::Null) => Ok(()),
        Some(v) => match v.as_usize() {
            Some(n) => {
                *into = n;
                Ok(())
            }
            None => Err(format!("{key:?} must be a non-negative integer")),
        },
    }
}

/// Reads an optional f64 override, erroring on wrong types.
fn f64_field(spec: &Json, key: &str, into: &mut f64) -> Result<(), String> {
    match spec.get(key) {
        None | Some(Json::Null) => Ok(()),
        Some(v) => match v.as_f64() {
            Some(x) => {
                *into = x;
                Ok(())
            }
            None => Err(format!("{key:?} must be a number")),
        },
    }
}

/// Builds an [`HdcScenario`] from default + JSON overrides.
pub fn hdc_scenario(spec: &Json) -> Result<HdcScenario, String> {
    let mut s = HdcScenario::default();
    usize_field(spec, "dim_in", &mut s.dim_in)?;
    usize_field(spec, "classes", &mut s.classes)?;
    usize_field(spec, "hv_dim_sw", &mut s.hv_dim_sw)?;
    usize_field(spec, "hv_dim_3b", &mut s.hv_dim_3b)?;
    usize_field(spec, "hv_dim_2b", &mut s.hv_dim_2b)?;
    usize_field(spec, "hv_dim_1b", &mut s.hv_dim_1b)?;
    f64_field(spec, "acc_sw", &mut s.acc_sw)?;
    f64_field(spec, "acc_3b", &mut s.acc_3b)?;
    f64_field(spec, "acc_2b", &mut s.acc_2b)?;
    f64_field(spec, "acc_1b", &mut s.acc_1b)?;
    f64_field(spec, "acc_mlp", &mut s.acc_mlp)?;
    if let Some(t) = spec.get("tech") {
        match t.as_str() {
            Some(name) => s.tech = tech_node(name)?,
            None => return Err("\"tech\" must be a node name string".into()),
        }
    }
    Ok(s)
}

/// Builds a [`MannScenario`] from default + JSON overrides.
pub fn mann_scenario(spec: &Json) -> Result<MannScenario, String> {
    let mut s = MannScenario::default();
    usize_field(spec, "weights", &mut s.weights)?;
    usize_field(spec, "emb_dim", &mut s.emb_dim)?;
    usize_field(spec, "hash_bits", &mut s.hash_bits)?;
    usize_field(spec, "entries", &mut s.entries)?;
    f64_field(spec, "acc_software", &mut s.acc_software)?;
    f64_field(spec, "acc_rram", &mut s.acc_rram)?;
    if let Some(t) = spec.get("tech") {
        match t.as_str() {
            Some(name) => s.tech = tech_node(name)?,
            None => return Err("\"tech\" must be a node name string".into()),
        }
    }
    Ok(s)
}

/// Reads the Monte-Carlo population controls (`trials`, `seed`) out of
/// a scenario spec object. `batch` and `threads` stay at their
/// defaults: they only shape scheduling, never a result bit or a store
/// digest, and a served request runs on the one worker that popped it.
fn mc_params(spec: &Json, mc: &mut McParams) -> Result<(), String> {
    usize_field(spec, "trials", &mut mc.trials)?;
    if mc.trials > MC_MAX_TRIALS {
        return Err(format!(
            "\"trials\" {} exceeds the cap of {MC_MAX_TRIALS}",
            mc.trials
        ));
    }
    match spec.get("seed") {
        None | Some(Json::Null) => {}
        Some(v) => match v.as_usize() {
            Some(n) => mc.seed = n as u64,
            None => return Err("\"seed\" must be a non-negative integer".into()),
        },
    }
    Ok(())
}

/// Builds a [`CamYieldMcScenario`] from default + JSON overrides.
pub fn cam_yield_mc_scenario(spec: &Json) -> Result<CamYieldMcScenario, String> {
    let mut s = CamYieldMcScenario::default();
    mc_params(spec, &mut s.mc)?;
    usize_field(spec, "cells", &mut s.cells)?;
    usize_field(spec, "mismatches", &mut s.mismatches)?;
    f64_field(spec, "g_on", &mut s.g_on)?;
    f64_field(spec, "g_off", &mut s.g_off)?;
    f64_field(spec, "sigma_g_on_rel", &mut s.variation.sigma_g_on_rel)?;
    f64_field(spec, "sigma_g_off_rel", &mut s.variation.sigma_g_off_rel)?;
    f64_field(spec, "target_error", &mut s.target_error)?;
    Ok(s)
}

/// Builds a [`MannAccuracyMcScenario`] from default + JSON overrides.
pub fn mann_mc_scenario(spec: &Json) -> Result<MannAccuracyMcScenario, String> {
    let mut s = MannAccuracyMcScenario::default();
    mc_params(spec, &mut s.mc)?;
    usize_field(spec, "hash_bits", &mut s.hash_bits)?;
    usize_field(spec, "entries", &mut s.entries)?;
    f64_field(spec, "acc_software", &mut s.acc_software)?;
    f64_field(spec, "relax_decades", &mut s.relax_decades)?;
    f64_field(spec, "read_noise", &mut s.read_noise)?;
    f64_field(spec, "acc_floor", &mut s.acc_floor)?;
    Ok(s)
}

/// Builds an [`NvmLifetimeMcScenario`] from default + JSON overrides.
/// Traffic is specified as `traffic_mb_s` (MB/s) to match the bench
/// workload vocabulary.
pub fn nvm_mc_scenario(spec: &Json) -> Result<NvmLifetimeMcScenario, String> {
    let mut s = NvmLifetimeMcScenario::default();
    mc_params(spec, &mut s.mc)?;
    f64_field(spec, "capacity_bytes", &mut s.capacity_bytes)?;
    let mut traffic_mb_s = s.write_bytes_per_second / 1e6;
    f64_field(spec, "traffic_mb_s", &mut traffic_mb_s)?;
    s.write_bytes_per_second = traffic_mb_s * 1e6;
    f64_field(spec, "leveling", &mut s.leveling)?;
    f64_field(spec, "leveling_sigma", &mut s.leveling_sigma)?;
    f64_field(spec, "endurance", &mut s.endurance)?;
    f64_field(
        spec,
        "endurance_sigma_decades",
        &mut s.endurance_sigma_decades,
    )?;
    f64_field(spec, "required_years", &mut s.required_years)?;
    let mut vth_bits = s.vth_bits as usize;
    usize_field(spec, "vth_bits", &mut vth_bits)?;
    if !(1..=4).contains(&vth_bits) {
        return Err("\"vth_bits\" must be between 1 and 4".into());
    }
    s.vth_bits = vth_bits as u8;
    f64_field(spec, "vth_sigma", &mut s.vth_sigma)?;
    Ok(s)
}

/// Builds a scenario of any evaluable `base` kind from one spec object
/// (defaults + overrides). Unlike the top-level request shape, wrapper
/// parameters (`batch` for `tpu_nvm`) live *inside* the spec so refine
/// grids can sweep them as axes.
pub fn build_scenario(base: &str, spec: &Json) -> Result<Box<dyn Scenario>, String> {
    Ok(match base {
        "hdc" => Box::new(hdc_scenario(spec)?),
        "mann" => Box::new(mann_scenario(spec)?),
        "edge" => Box::new(EdgeScenario::new(hdc_scenario(spec)?)),
        "tpu_nvm" => {
            let mut batch = 1usize;
            usize_field(spec, "batch", &mut batch)?;
            if batch == 0 {
                return Err("\"batch\" must be a positive integer".into());
            }
            Box::new(TpuNvmScenario::new(hdc_scenario(spec)?, batch))
        }
        "cam_yield_mc" => Box::new(cam_yield_mc_scenario(spec)?),
        "mann_mc" => Box::new(mann_mc_scenario(spec)?),
        "nvm_mc" => Box::new(nvm_mc_scenario(spec)?),
        other => return Err(format!("unknown refine base kind {other:?}")),
    })
}

/// Sets (or replaces) one key in a JSON object value.
fn obj_set(spec: &mut Json, key: &str, value: Json) {
    if let Json::Obj(pairs) = spec {
        pairs.retain(|(k, _)| k != key);
        pairs.push((key.to_string(), value));
    }
}

/// Parses the `refine`-specific fields and expands the grid
/// cross-product into digested points.
///
/// Shape:
///
/// ```json
/// {"id":"r6","kind":"refine","base":"hdc",
///  "scenario":{"acc_sw":0.9},
///  "grid":{"classes":[10,20,30],"tech":["n40","n22"]},
///  "known":["<32-hex digest>", "..."],
///  "mode":"halving","fraction":0.25,
///  "objective":"latency_first","floor":0.9}
/// ```
fn parse_refine(v: &Json, base_spec: &Json) -> Result<RefineSpec, String> {
    let base = match v.get("base").and_then(Json::as_str) {
        Some(b) => b.to_string(),
        None => return Err("refine requires a \"base\" workload kind".into()),
    };
    // Grid axes expand in the order the request lists them; a missing
    // or empty grid means one point (the base scenario itself).
    let mut axes: Vec<(String, Vec<Json>)> = Vec::new();
    match v.get("grid") {
        None | Some(Json::Null) => {}
        Some(Json::Obj(pairs)) => {
            for (key, vals) in pairs {
                let Some(vals) = vals.as_arr() else {
                    return Err(format!("grid axis {key:?} must be an array"));
                };
                if vals.is_empty() {
                    return Err(format!("grid axis {key:?} is empty"));
                }
                axes.push((key.clone(), vals.to_vec()));
            }
        }
        Some(_) => return Err("\"grid\" must be an object of axis arrays".into()),
    }
    let total: usize = axes
        .iter()
        .try_fold(1usize, |acc, (_, vals)| acc.checked_mul(vals.len()))
        .ok_or_else(|| "grid overflows".to_string())?;
    if total > REFINE_MAX_POINTS {
        return Err(format!(
            "grid expands to {total} points (cap {REFINE_MAX_POINTS}); split the request"
        ));
    }
    let mut points = Vec::with_capacity(total);
    for i in 0..total {
        let mut spec = base_spec.clone();
        let mut rest = i;
        for (key, vals) in &axes {
            obj_set(&mut spec, key, vals[rest % vals.len()].clone());
            rest /= vals.len();
        }
        let scenario = build_scenario(&base, &spec)?;
        let digest = scenario
            .store_key()
            .ok_or_else(|| format!("base kind {base:?} has no store key"))?;
        points.push(RefinePoint { digest, scenario });
    }
    let mut known = HashSet::new();
    match v.get("known") {
        None | Some(Json::Null) => {}
        Some(Json::Arr(items)) => {
            for item in items {
                let Some(hex) = item.as_str() else {
                    return Err("\"known\" entries must be digest strings".into());
                };
                let Some(d) = Digest::from_hex(hex) else {
                    return Err(format!("\"known\" digest {hex:?} is not 32 hex chars"));
                };
                known.insert(d);
            }
        }
        Some(_) => return Err("\"known\" must be an array of digest strings".into()),
    }
    let mode = match v.get("mode").and_then(Json::as_str) {
        None | Some("full") => RefineMode::Full,
        Some("halving") => {
            let fraction = match v.get("fraction") {
                None | Some(Json::Null) => 0.25,
                Some(f) => match f.as_f64() {
                    Some(x) if x.is_finite() && x > 0.0 && x <= 1.0 => x,
                    _ => return Err("\"fraction\" must be in (0, 1]".into()),
                },
            };
            RefineMode::Halving { fraction }
        }
        Some(other) => return Err(format!("unknown refine mode {other:?}")),
    };
    let triage = match v.get("objective").and_then(Json::as_str) {
        None => None,
        Some("latency_first") => Some(TriageObjective::LatencyFirst),
        Some("energy_first") => Some(TriageObjective::EnergyFirst),
        Some(o) => return Err(format!("unknown objective {o:?}")),
    }
    .map(|objective| -> Result<TriageSpec, String> {
        let floor = match v.get("floor") {
            None | Some(Json::Null) => None,
            Some(f) => match f.as_f64() {
                Some(x) if x.is_finite() => Some(x),
                _ => return Err("\"floor\" must be a finite number".into()),
            },
        };
        Ok(TriageSpec { objective, floor })
    })
    .transpose()?;
    Ok(RefineSpec {
        base,
        points,
        known,
        mode,
        triage,
    })
}

/// Serializes one Monte-Carlo distribution digest. The checksum is a
/// hex string: `f64` cannot carry 64 significant bits, and clients use
/// it only for equality (determinism audits).
pub fn distribution_json(d: &McDistribution) -> Json {
    obj(vec![
        ("name", Json::Str(d.name.to_string())),
        ("unit", Json::Str(d.unit.to_string())),
        ("criterion", Json::Str(d.criterion.to_string())),
        ("trials", Json::Num(d.summary.trials as f64)),
        ("nan_count", Json::Num(d.summary.nan_count as f64)),
        ("mean", Json::Num(d.summary.mean)),
        ("std_dev", Json::Num(d.summary.std_dev)),
        ("min", Json::Num(d.summary.min)),
        ("max", Json::Num(d.summary.max)),
        ("p5", Json::Num(d.summary.p5)),
        ("p50", Json::Num(d.summary.p50)),
        ("p95", Json::Num(d.summary.p95)),
        ("yield_fraction", Json::Num(d.yield_fraction)),
        ("checksum", Json::Str(format!("{:016x}", d.checksum))),
    ])
}

/// Serializes one candidate with full-precision FOMs.
pub fn candidate_json(c: &Candidate) -> Json {
    obj(vec![
        ("name", Json::Str(c.name.clone())),
        ("latency_s", Json::Num(c.fom.latency_s)),
        ("energy_j", Json::Num(c.fom.energy_j)),
        ("area_mm2", Json::Num(c.fom.area_mm2)),
        ("accuracy", Json::Num(c.fom.accuracy)),
    ])
}

/// A well-formed success response line (no trailing newline).
pub fn ok_response(id: &str, kind: &'static str, body: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![
        ("id", Json::Str(id.to_string())),
        ("ok", Json::Bool(true)),
        ("kind", Json::Str(kind.to_string())),
    ];
    pairs.extend(body);
    obj(pairs).to_string()
}

/// A well-formed error response line. `retry_after_ms` is present only
/// for backpressure rejections, signalling the client to resubmit.
pub fn err_response(id: &str, code: &str, message: &str, retry_after_ms: Option<u64>) -> String {
    let mut pairs = vec![
        ("id", Json::Str(id.to_string())),
        ("ok", Json::Bool(false)),
        ("code", Json::Str(code.to_string())),
        ("error", Json::Str(message.to_string())),
    ];
    if let Some(ms) = retry_after_ms {
        pairs.push(("retry_after_ms", Json::Num(ms as f64)));
    }
    obj(pairs).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_hdc_request() {
        let r = parse_request(r#"{"id":"a","kind":"hdc"}"#).unwrap();
        match r {
            Request::Eval {
                id,
                scenario,
                triage,
                deadline_ms,
            } => {
                assert_eq!(id, "a");
                assert_eq!(scenario.kind(), "hdc");
                assert!(triage.is_none());
                assert!(deadline_ms.is_none());
            }
            _ => panic!("not an eval request"),
        }
    }

    #[test]
    fn scenario_overrides_apply() {
        let r = parse_request(
            r#"{"id":"a","kind":"hdc","scenario":{"classes":7,"acc_sw":0.77,"tech":"n22"}}"#,
        )
        .unwrap();
        let cands = match r {
            Request::Eval { scenario, .. } => scenario.candidates().unwrap(),
            _ => panic!(),
        };
        let mut s = HdcScenario {
            classes: 7,
            acc_sw: 0.77,
            ..HdcScenario::default()
        };
        s.tech = TechNode::n22();
        use xlda_core::evaluate::Scenario as _;
        assert_eq!(cands, s.candidates().unwrap());
    }

    #[test]
    fn triage_request_carries_spec() {
        let r =
            parse_request(r#"{"id":"t","kind":"triage","objective":"energy_first","floor":0.9}"#)
                .unwrap();
        match r {
            Request::Eval { triage, .. } => {
                assert_eq!(
                    triage,
                    Some(TriageSpec {
                        objective: TriageObjective::EnergyFirst,
                        floor: Some(0.9),
                    })
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn all_eval_kinds_parse_and_dispatch() {
        for (kind, expect) in [
            ("hdc", "hdc"),
            ("mann", "mann"),
            ("edge", "edge"),
            ("tpu_nvm", "tpu_nvm"),
            ("triage", "hdc"),
            ("cam_yield_mc", "cam_yield_mc"),
            ("mann_mc", "mann_mc"),
            ("nvm_mc", "nvm_mc"),
        ] {
            let line = format!(r#"{{"id":"x","kind":"{kind}"}}"#);
            match parse_request(&line).unwrap() {
                Request::Eval { scenario, .. } => assert_eq!(scenario.kind(), expect),
                _ => panic!("{kind} did not parse as eval"),
            }
        }
    }

    #[test]
    fn refine_expands_the_grid_cross_product() {
        let r = parse_request(
            r#"{"id":"r","kind":"refine","base":"hdc","scenario":{"acc_sw":0.9},
                "grid":{"classes":[10,20,30],"tech":["n40","n22"]}}"#,
        )
        .unwrap();
        let spec = match r {
            Request::Refine { id, spec, .. } => {
                assert_eq!(id, "r");
                spec
            }
            _ => panic!("not a refine request"),
        };
        assert_eq!(spec.base, "hdc");
        assert_eq!(spec.points.len(), 6);
        assert_eq!(spec.mode, RefineMode::Full);
        assert!(spec.known.is_empty());
        // Every expanded point is distinct and its digest matches a
        // hand-built scenario's store key.
        let digests: HashSet<Digest> = spec.points.iter().map(|p| p.digest).collect();
        assert_eq!(digests.len(), 6);
        let mut want = HdcScenario {
            classes: 20,
            acc_sw: 0.9,
            ..HdcScenario::default()
        };
        want.tech = TechNode::n22();
        use xlda_core::evaluate::Scenario as _;
        assert!(digests.contains(&want.store_key().unwrap()));
    }

    #[test]
    fn refine_parses_known_mode_and_triage() {
        let hex = HdcScenario::default().store_key().unwrap().to_hex();
        let line = format!(
            r#"{{"id":"r","kind":"refine","base":"mann","grid":{{"hash_bits":[16,32]}},
                "known":["{hex}"],"mode":"halving","fraction":0.5,
                "objective":"energy_first","floor":0.8}}"#
        );
        let spec = match parse_request(&line).unwrap() {
            Request::Refine { spec, .. } => spec,
            _ => panic!(),
        };
        assert_eq!(spec.points.len(), 2);
        assert_eq!(spec.mode, RefineMode::Halving { fraction: 0.5 });
        assert!(spec.known.contains(&Digest::from_hex(&hex).unwrap()));
        assert_eq!(
            spec.triage,
            Some(TriageSpec {
                objective: TriageObjective::EnergyFirst,
                floor: Some(0.8),
            })
        );
    }

    #[test]
    fn refine_rejects_bad_requests() {
        for (line, frag) in [
            (r#"{"id":"r","kind":"refine"}"#, "base"),
            (
                r#"{"id":"r","kind":"refine","base":"warp_drive"}"#,
                "unknown refine base",
            ),
            (
                r#"{"id":"r","kind":"refine","base":"hdc","grid":{"classes":[]}}"#,
                "empty",
            ),
            (
                r#"{"id":"r","kind":"refine","base":"hdc","grid":{"classes":7}}"#,
                "array",
            ),
            (
                r#"{"id":"r","kind":"refine","base":"hdc","known":["zz"]}"#,
                "hex",
            ),
            (
                r#"{"id":"r","kind":"refine","base":"hdc","mode":"halving","fraction":0.0}"#,
                "fraction",
            ),
        ] {
            let msg = match parse_request(line) {
                Err((_, msg)) => msg,
                Ok(_) => panic!("accepted bad refine {line}"),
            };
            assert!(msg.contains(frag), "{line} -> {msg}");
        }
    }

    #[test]
    fn refine_caps_the_grid_size() {
        // 11 * 11 * 11 = 1331 > 1024.
        let axis: Vec<String> = (0..11).map(|i| (10 + i).to_string()).collect();
        let axis = axis.join(",");
        let line = format!(
            r#"{{"id":"r","kind":"refine","base":"hdc",
                "grid":{{"classes":[{axis}],"dim_in":[{axis}],"hv_dim_sw":[{axis}]}}}}"#
        );
        let msg = match parse_request(&line) {
            Err((_, msg)) => msg,
            Ok(_) => panic!("accepted an oversized grid"),
        };
        assert!(msg.contains("1331"), "{msg}");
    }

    #[test]
    fn mc_overrides_apply() {
        let r = parse_request(
            r#"{"id":"m","kind":"mann_mc","scenario":{"trials":64,"seed":9,"hash_bits":16,"relax_decades":1.5}}"#,
        )
        .unwrap();
        let eval = match r {
            Request::Eval { scenario, .. } => scenario.evaluate().unwrap(),
            _ => panic!(),
        };
        let expect = MannAccuracyMcScenario {
            mc: McParams {
                trials: 64,
                seed: 9,
                ..McParams::default()
            },
            hash_bits: 16,
            relax_decades: 1.5,
            ..MannAccuracyMcScenario::default()
        };
        assert_eq!(eval, expect.evaluate().unwrap());
        assert_eq!(eval.distributions.len(), 2);
    }

    #[test]
    fn mc_rejects_bad_population_controls() {
        for (line, frag) in [
            (
                r#"{"id":"a","kind":"nvm_mc","scenario":{"seed":-1}}"#,
                "seed",
            ),
            (
                r#"{"id":"a","kind":"cam_yield_mc","scenario":{"trials":"many"}}"#,
                "trials",
            ),
            (
                r#"{"id":"a","kind":"nvm_mc","scenario":{"vth_bits":9}}"#,
                "vth_bits",
            ),
        ] {
            let msg = match parse_request(line) {
                Err((_, msg)) => msg,
                Ok(_) => panic!("accepted bad request {line}"),
            };
            assert!(msg.contains(frag), "{line} -> {msg}");
        }
    }

    #[test]
    fn mc_population_is_capped_and_schedule_fields_are_not_read() {
        // Parse only: nothing here is evaluated.
        let msg = match parse_request(
            r#"{"id":"big","kind":"mann_mc","scenario":{"trials":4000000000,"batch":1}}"#,
        ) {
            Err((id, msg)) => {
                assert_eq!(id, "big");
                msg
            }
            Ok(_) => panic!("accepted a 4e9-trial population"),
        };
        assert!(msg.contains("trials") && msg.contains("cap"), "{msg}");
        let over = format!(
            r#"{{"id":"o","kind":"cam_yield_mc","scenario":{{"trials":{}}}}}"#,
            MC_MAX_TRIALS + 1
        );
        assert!(parse_request(&over).is_err());
        // At the cap, and with schedule fields a client may still send:
        // they parse, and the population controls stay at defaults.
        let s = mann_mc_scenario(
            &Json::parse(&format!(
                r#"{{"trials":{MC_MAX_TRIALS},"threads":4096,"batch":1}}"#
            ))
            .unwrap(),
        )
        .unwrap();
        let defaults = McParams::default();
        assert_eq!(s.mc.trials, MC_MAX_TRIALS);
        assert_eq!(
            (s.mc.batch, s.mc.threads),
            (defaults.batch, defaults.threads)
        );
        let s = nvm_mc_scenario(&Json::parse(r#"{"threads":4096,"batch":1}"#).unwrap()).unwrap();
        assert_eq!(s.mc, defaults);
        let line = r#"{"id":"t","kind":"cam_yield_mc","scenario":{"threads":4096,"batch":1}}"#;
        assert!(matches!(parse_request(line), Ok(Request::Eval { .. })));
    }

    #[test]
    fn distribution_json_round_trips() {
        let s = MannAccuracyMcScenario {
            mc: McParams {
                trials: 32,
                ..McParams::default()
            },
            hash_bits: 8,
            ..MannAccuracyMcScenario::default()
        };
        use xlda_core::evaluate::Scenario as _;
        let eval = s.evaluate().unwrap();
        let j = distribution_json(&eval.distributions[0]);
        let v = Json::parse(&j.to_string()).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("accuracy"));
        assert_eq!(v.get("trials").and_then(Json::as_f64), Some(32.0));
        assert_eq!(
            v.get("checksum").and_then(Json::as_str),
            Some(format!("{:016x}", eval.distributions[0].checksum).as_str())
        );
    }

    #[test]
    fn metrics_kind_parses() {
        match parse_request(r#"{"id":"m","kind":"metrics"}"#).unwrap() {
            Request::Metrics { id } => assert_eq!(id, "m"),
            _ => panic!("metrics did not parse"),
        }
    }

    #[test]
    fn rejects_bad_requests_with_reason() {
        for (line, frag) in [
            ("{}", "missing \"kind\""),
            (r#"{"kind":"hdc"}"#, "missing \"id\""),
            (r#"{"id":"a","kind":"nope"}"#, "unknown kind"),
            (r#"{"id":"a","kind":"hdc","deadline_ms":-5}"#, "deadline_ms"),
            (
                r#"{"id":"a","kind":"hdc","scenario":{"classes":"x"}}"#,
                "classes",
            ),
            (
                r#"{"id":"a","kind":"hdc","scenario":{"tech":"n28"}}"#,
                "unknown tech node",
            ),
            (r#"{"id":"a","kind":"tpu_nvm","batch":0}"#, "batch"),
            ("not json", "malformed JSON"),
        ] {
            let msg = match parse_request(line) {
                Err((_, msg)) => msg,
                Ok(_) => panic!("accepted bad request {line}"),
            };
            assert!(msg.contains(frag), "{line} -> {msg}");
        }
    }

    #[test]
    fn response_lines_are_parseable_json() {
        let ok = ok_response("a", "hdc", vec![("candidates", Json::Arr(vec![]))]);
        let v = Json::parse(&ok).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let err = err_response("b", "queue_full", "queue full", Some(2));
        let v = Json::parse(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("retry_after_ms").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn deeply_nested_frame_is_a_bad_request_not_a_stack_overflow() {
        let depth = 100_000;
        let frame = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let Err((id, msg)) = parse_request(&frame) else {
            panic!("accepted a {depth}-deep frame");
        };
        assert_eq!(id, "");
        assert!(msg.starts_with("malformed JSON"), "{msg}");
        assert!(msg.contains("depth"), "{msg}");
    }
}
