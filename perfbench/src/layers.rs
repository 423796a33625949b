//! Per-layer metrics of the traced run.
//!
//! Everything here is gathered from outside the program: by timing
//! public calls into one layer at a time, and by reading counters the
//! program already exposes (`memo::snapshot`, the obs span aggregates,
//! `ResultStore::stats`, the serve `stats` endpoint and access log).

use crate::report::Metric;
use crate::stats::summarize;
use std::collections::HashSet;
use std::time::Instant;
use xlda_baseline::{Kernel, Platform};
use xlda_circuit::tech::TechNode;
use xlda_core::evaluate::{EdgeScenario, HdcScenario, MannScenario, Scenario, TpuNvmScenario};
use xlda_core::fom::Candidate;
use xlda_core::mc::{CamYieldMcScenario, MannAccuracyMcScenario, NvmLifetimeMcScenario};
use xlda_core::sweep::memo;
use xlda_core::triage::{rank, Objective};
use xlda_crossbar::macro_model::CrossbarMacro;
use xlda_crossbar::CrossbarConfig;
use xlda_evacam::{CamArray, CamCellDesign, CamConfig, DataKind, MatchKind};
use xlda_nvram::{OptTarget, RamArray, RamCell, RamConfig};
use xlda_obs::span::SpanAgg;

/// Every per-layer metric, in report order. `BENCHMARK.json` lists the
/// same names (a test keeps the two in step).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.decode_ms.p50", "ms"),
    ("serve.decode_ms.p99", "ms"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p99", "ms"),
    ("serve.batch_ms.p50", "ms"),
    ("serve.batch_ms.p99", "ms"),
    ("serve.eval_ms.p50", "ms"),
    ("serve.eval_ms.p99", "ms"),
    ("serve.write_ms.p50", "ms"),
    ("serve.write_ms.p99", "ms"),
    ("serve.rejected", "count"),
    ("store.lookups", "count"),
    ("store.hit_rate", "ratio"),
    ("store.appends", "count"),
    ("store.append_bytes", "bytes"),
    ("store.open_s", "s"),
    ("memo.circuit.decoder.hits", "count"),
    ("memo.circuit.decoder.misses", "count"),
    ("memo.circuit.decoder.hit_rate", "ratio"),
    ("memo.circuit.matchline.hits", "count"),
    ("memo.circuit.matchline.misses", "count"),
    ("memo.circuit.matchline.hit_rate", "ratio"),
    ("memo.circuit.senseamp.hits", "count"),
    ("memo.circuit.senseamp.misses", "count"),
    ("memo.circuit.senseamp.hit_rate", "ratio"),
    ("memo.circuit.wire.hits", "count"),
    ("memo.circuit.wire.misses", "count"),
    ("memo.circuit.wire.hit_rate", "ratio"),
    ("memo.circuit.buffer_chain.hits", "count"),
    ("memo.circuit.buffer_chain.misses", "count"),
    ("memo.circuit.buffer_chain.hit_rate", "ratio"),
    ("memo.crossbar.macro.hits", "count"),
    ("memo.crossbar.macro.misses", "count"),
    ("memo.crossbar.macro.hit_rate", "ratio"),
    ("memo.nvram.auto_organize.hits", "count"),
    ("memo.nvram.auto_organize.misses", "count"),
    ("memo.nvram.auto_organize.hit_rate", "ratio"),
    ("memo.entries", "count"),
    ("evaluate.hdc.us.p50", "us"),
    ("evaluate.hdc.us.p99", "us"),
    ("evaluate.mann.us.p50", "us"),
    ("evaluate.mann.us.p99", "us"),
    ("evaluate.tpu_nvm.us.p50", "us"),
    ("evaluate.tpu_nvm.us.p99", "us"),
    ("evaluate.edge.us.p50", "us"),
    ("evaluate.edge.us.p99", "us"),
    ("triage.rank.us", "us"),
    ("crossbar.macro.us", "us"),
    ("crossbar.distinct", "count"),
    ("evacam.report.us", "us"),
    ("evacam.distinct", "count"),
    ("nvram.organize.us", "us"),
    ("nvram.distinct", "count"),
    ("baseline.platform.us", "us"),
    ("baseline.distinct", "count"),
    ("mc.cam_yield_mc.trial_us", "us"),
    ("mc.mann_mc.trial_us", "us"),
    ("mc.nvm_mc.trial_us", "us"),
    ("mc.trials", "count"),
    ("sweep.busy_share", "ratio"),
    ("sweep.straggler_s", "s"),
    ("layer.crossbar.self_s", "s"),
    ("layer.evacam.self_s", "s"),
    ("layer.evacam.report.self_s", "s"),
    ("layer.nvram.self_s", "s"),
    ("layer.nvram.auto_organize.self_s", "s"),
    ("layer.circuit.decoder.self_s", "s"),
    ("layer.circuit.matchline.self_s", "s"),
    ("layer.device.mlc.self_s", "s"),
    ("layer.device.state_histogram.self_s", "s"),
    ("layer.mc.trials.self_s", "s"),
    ("layer.mc.batch.self_s", "s"),
    ("layer.other.self_s", "s"),
    ("layer.unattributed_s", "s"),
    ("layer.wall_s", "s"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.answered", "count"),
];

/// Memo caches by metric name and the name the program registers.
pub const CACHES: [(&str, &str); 7] = [
    ("circuit.decoder", "circuit.decoder"),
    ("circuit.matchline", "circuit.matchline_max_cells"),
    ("circuit.senseamp", "circuit.senseamp_energy"),
    ("circuit.wire", "circuit.repeated_wire"),
    ("circuit.buffer_chain", "circuit.buffer_chain"),
    ("crossbar.macro", "crossbar.macro"),
    ("nvram.auto_organize", "nvram.auto_organize"),
];

/// Spans reported by name; the rest fold into `layer.other.self_s`.
const SPANS: [&str; 11] = [
    "crossbar",
    "evacam",
    "evacam.report",
    "nvram",
    "nvram.auto_organize",
    "circuit.decoder",
    "circuit.matchline",
    "device.mlc",
    "device.state_histogram",
    "mc.trials",
    "mc.batch",
];

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("count", |(_, u)| u)
}

fn m(name: &str, value: f64, n: usize) -> Metric {
    Metric::new(name, value, unit_of(name), n)
}

/// Orders `got` as [`PER_LAYER`]; a layer the run never reached reads
/// 0 with a note, so every traced run reports every name.
pub fn complete(got: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            got.iter()
                .find(|x| x.name == *name)
                .cloned()
                .unwrap_or_else(|| Metric::new(*name, 0.0, unit, 0).note("not reached"))
        })
        .collect()
}

/// Memo hit/miss counters per cache plus total entries.
pub fn memo_metrics(caches: &[(String, u64, u64)], entries: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    for (short, registered) in CACHES {
        let (h, mi) = caches
            .iter()
            .find(|(n, _, _)| n == registered)
            .map_or((0, 0), |c| (c.1, c.2));
        let total = h + mi;
        out.push(m(&format!("memo.{short}.hits"), h as f64, total as usize));
        out.push(m(
            &format!("memo.{short}.misses"),
            mi as f64,
            total as usize,
        ));
        out.push(m(
            &format!("memo.{short}.hit_rate"),
            if total == 0 {
                0.0
            } else {
                h as f64 / total as f64
            },
            total as usize,
        ));
    }
    out.push(m("memo.entries", entries as f64, 1));
    out
}

/// Layer self times over an interval, from the obs span aggregates;
/// `wall_s` is the worker time they are attributed against, so the
/// named spans, `other` and `unattributed` sum to `layer.wall_s`.
pub fn span_metrics(before: &[SpanAgg], after: &[SpanAgg], wall_s: f64) -> Vec<Metric> {
    let diff = xlda_obs::span::diff_aggregates(before, after);
    let self_s = |name: &str| {
        diff.iter()
            .find(|a| a.name == name)
            .map_or(0.0, |a| a.self_nanos as f64 * 1e-9)
    };
    let mut out = Vec::new();
    let mut named = 0.0;
    for s in SPANS {
        let v = self_s(s);
        named += v;
        out.push(m(&format!("layer.{s}.self_s"), v, 1));
    }
    let other: f64 = diff
        .iter()
        .filter(|a| !SPANS.contains(&a.name))
        .map(|a| a.self_nanos as f64 * 1e-9)
        .sum();
    out.push(m("layer.other.self_s", other, 1));
    // Negative when spans overlap across threads: a span that waits on
    // worker threads keeps counting self time while their child spans
    // run (mc.trials around its mc.batch workers).
    out.push(m("layer.unattributed_s", wall_s - named - other, 1));
    out.push(m("layer.wall_s", wall_s, 1));
    out
}

/// Sample inputs for timing each model layer's public calls.
#[derive(Default)]
pub struct Inputs {
    pub hdc: Vec<HdcScenario>,
    pub mann: Vec<MannScenario>,
    pub tpu: Vec<TpuNvmScenario>,
    pub edge: Vec<EdgeScenario>,
    pub cam_mc: Vec<CamYieldMcScenario>,
    pub mann_mc: Vec<MannAccuracyMcScenario>,
    pub nvm_mc: Vec<NvmLifetimeMcScenario>,
}

impl Inputs {
    /// Fills each empty kind from `other`, so every layer is timed on
    /// every workload (on that workload's inputs where it has them).
    pub fn or(mut self, other: Inputs) -> Inputs {
        fn fill<T>(a: &mut Vec<T>, b: Vec<T>) {
            if a.is_empty() {
                *a = b;
            }
        }
        fill(&mut self.hdc, other.hdc);
        fill(&mut self.mann, other.mann);
        fill(&mut self.tpu, other.tpu);
        fill(&mut self.edge, other.edge);
        fill(&mut self.cam_mc, other.cam_mc);
        fill(&mut self.mann_mc, other.mann_mc);
        fill(&mut self.nvm_mc, other.nvm_mc);
        self
    }
}

/// Microseconds per call of `f` over `xs`, p50 and p99 (or tail).
fn time_calls<T>(xs: &[T], mut f: impl FnMut(&T)) -> (f64, f64, usize) {
    let mut us: Vec<f64> = xs
        .iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let s = summarize(&mut us);
    (s.p50, s.p99_or_tail().1, s.n)
}

fn candidates_timed<S: Scenario>(
    kind: &str,
    xs: &[S],
    out: &mut Vec<Metric>,
    keep: &mut Vec<Vec<Candidate>>,
) {
    let (p50, p99, n) = time_calls(xs, |s| {
        if let Ok(c) = s.candidates() {
            keep.push(c);
        }
    });
    out.push(m(&format!("evaluate.{kind}.us.p50"), p50, n));
    out.push(m(&format!("evaluate.{kind}.us.p99"), p99, n));
}

fn tech_key(t: &TechNode) -> u64 {
    t.memo_key()
}

fn hdc_cam_cfg(s: &HdcScenario) -> CamConfig {
    // The 3-bit FeFET design point of the HDC candidate set.
    CamConfig {
        words: s.classes,
        bits_per_word: s.hv_dim_3b * 3,
        design: CamCellDesign::Fefet2T,
        data: DataKind::MultiBit(3),
        match_kind: MatchKind::Best { max_distance: 8 },
        row_banks: 1,
        tech: s.tech.clone(),
    }
}

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

/// Times the model layers' public calls on `inp`, from empty memo
/// caches, single-threaded and in input order. Spans are collected
/// over the whole interval; returns the metrics plus the wall seconds
/// spent inside the timed scenario evaluations.
pub fn model_metrics(inp: &Inputs) -> (Vec<Metric>, f64, Vec<SpanAgg>, Vec<SpanAgg>) {
    let mut out = Vec::new();
    memo::clear_all();
    xlda_obs::span::set_enabled(true);
    let before = xlda_obs::span::aggregate_snapshot();
    let t = Instant::now();
    let mut hdc_cands = Vec::new();
    let mut sink = Vec::new();
    candidates_timed("hdc", &inp.hdc, &mut out, &mut hdc_cands);
    candidates_timed("mann", &inp.mann, &mut out, &mut sink);
    candidates_timed("tpu_nvm", &inp.tpu, &mut out, &mut sink);
    candidates_timed("edge", &inp.edge, &mut out, &mut sink);
    let mut trial_us =
        |kind: &str, n_trials: &dyn Fn(usize) -> usize, count: usize, eval: &dyn Fn(usize)| {
            let idx: Vec<usize> = (0..count).collect();
            let mut per: Vec<f64> = idx
                .iter()
                .map(|&i| {
                    let t = Instant::now();
                    eval(i);
                    t.elapsed().as_secs_f64() * 1e6 / n_trials(i).max(1) as f64
                })
                .collect();
            let s = summarize(&mut per);
            out.push(m(&format!("mc.{kind}.trial_us"), s.p50, s.n));
        };
    trial_us(
        "cam_yield_mc",
        &|i| inp.cam_mc[i].mc.trials,
        inp.cam_mc.len(),
        &|i| drop(std::hint::black_box(inp.cam_mc[i].evaluate())),
    );
    trial_us(
        "mann_mc",
        &|i| inp.mann_mc[i].mc.trials,
        inp.mann_mc.len(),
        &|i| drop(std::hint::black_box(inp.mann_mc[i].evaluate())),
    );
    trial_us(
        "nvm_mc",
        &|i| inp.nvm_mc[i].mc.trials,
        inp.nvm_mc.len(),
        &|i| drop(std::hint::black_box(inp.nvm_mc[i].evaluate())),
    );
    let wall = t.elapsed().as_secs_f64();
    let after = xlda_obs::span::aggregate_snapshot();
    xlda_obs::span::set_enabled(false);

    let obj = Objective::latency_first(Some(0.9));
    let (p50, _, n) = time_calls(&hdc_cands, |c| drop(std::hint::black_box(rank(c, &obj))));
    out.push(m("triage.rank.us", p50, n));

    // Layer calls on the configurations the built-in scenarios derive
    // from these points (evaluate.rs): the 256x256 HDC and 64x64 MANN
    // crossbars, the HDC 3-bit FeFET and MANN RRAM TCAM arrays, the
    // NVM-backed TPU weight store, and the GPU baseline kernels.
    let mut xbars: Vec<(CrossbarConfig, TechNode)> = Vec::new();
    for s in &inp.hdc {
        xbars.push((
            CrossbarConfig {
                rows: 256,
                cols: 256,
                ..CrossbarConfig::default()
            },
            s.tech.clone(),
        ));
    }
    for s in &inp.mann {
        xbars.push((
            CrossbarConfig {
                rows: 64,
                cols: 64,
                ..CrossbarConfig::default()
            },
            s.tech.clone(),
        ));
    }
    let (p50, _, n) = time_calls(&xbars, |(cfg, tech)| {
        if let Ok(x) = CrossbarMacro::try_new(cfg, tech, 8) {
            std::hint::black_box(x.mvm_cost());
        }
    });
    out.push(m("crossbar.macro.us", p50, n));
    let distinct: HashSet<(usize, usize, u64)> = xbars
        .iter()
        .map(|(c, t)| (c.rows, c.cols, tech_key(t)))
        .collect();
    out.push(m("crossbar.distinct", distinct.len() as f64, n));

    let cams: Vec<CamConfig> = inp
        .hdc
        .iter()
        .map(hdc_cam_cfg)
        .chain(inp.mann.iter().map(mann_cam_cfg))
        .collect();
    let (p50, _, n) = time_calls(&cams, |cfg| {
        if let Ok(a) = CamArray::new(cfg.clone()) {
            std::hint::black_box(a.report());
        }
    });
    out.push(m("evacam.report.us", p50, n));
    let distinct: HashSet<String> = cams
        .iter()
        .map(|c| {
            format!(
                "{}/{}/{:?}/{:?}/{}",
                c.words,
                c.bits_per_word,
                c.design,
                c.data,
                tech_key(&c.tech)
            )
        })
        .collect();
    out.push(m("evacam.distinct", distinct.len() as f64, n));

    let rams: Vec<RamConfig> = inp
        .tpu
        .iter()
        .map(|t| {
            let s = &t.base;
            let bytes = (s.dim_in * s.hv_dim_sw) as u64 / 8 + (s.classes * s.hv_dim_sw) as u64 / 2;
            RamConfig {
                capacity_bits: bytes * 8,
                word_bits: 256,
                cell: RamCell::Fefet1T,
                tech: s.tech.clone(),
            }
        })
        .collect();
    let (p50, _, n) = time_calls(&rams, |cfg| {
        if let Ok(r) = RamArray::auto_organize(cfg, OptTarget::ReadLatency) {
            std::hint::black_box(r.report());
        }
    });
    out.push(m("nvram.organize.us", p50, n));
    let distinct: HashSet<(u64, u64)> = rams
        .iter()
        .map(|c| (c.capacity_bits, tech_key(&c.tech)))
        .collect();
    out.push(m("nvram.distinct", distinct.len() as f64, n));

    let gpu = Platform::gpu();
    let kernels: Vec<(Kernel, Kernel)> = inp
        .hdc
        .iter()
        .chain(inp.edge.iter().map(|e| &e.base))
        .map(|s| {
            (
                Kernel::mvm(s.hv_dim_sw, s.dim_in),
                Kernel::search(s.classes, s.hv_dim_sw, 4),
            )
        })
        .collect();
    let (p50, _, n) = time_calls(&kernels, |(enc, search)| {
        std::hint::black_box(
            gpu.time_per_item(enc, 1000) + gpu.time_per_item(search, 1000) + gpu.energy(enc, 1000),
        );
    });
    out.push(m("baseline.platform.us", p50, n));
    let distinct: HashSet<(usize, usize, usize)> = inp
        .hdc
        .iter()
        .chain(inp.edge.iter().map(|e| &e.base))
        .map(|s| (s.hv_dim_sw, s.dim_in, s.classes))
        .collect();
    out.push(m("baseline.distinct", distinct.len() as f64, n));
    (out, wall, before, after)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(section: &str) -> Vec<String> {
        let doc = include_str!("../../BENCHMARK.json");
        let v = xlda_serve::json::Json::parse(doc).expect("BENCHMARK.json parses");
        v.get(section)
            .and_then(|a| a.as_arr())
            .expect("section")
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn per_layer_names_match_benchmark_json() {
        let ours: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(ours, names("per_layer"));
    }

    #[test]
    fn end_to_end_names_match_benchmark_json() {
        assert_eq!(names("end_to_end"), crate::report::END_TO_END);
    }

    #[test]
    fn complete_fills_every_name_in_order() {
        let got = complete(vec![m("store.lookups", 3.0, 3)]);
        assert_eq!(got.len(), PER_LAYER.len());
        assert_eq!(got[11].name, "store.lookups");
        assert_eq!(got[11].value, 3.0);
        assert!(got.iter().all(|x| x.value.is_finite()));
    }

    #[test]
    fn span_metrics_telescope_to_wall() {
        let before = Vec::new();
        let after = vec![
            SpanAgg {
                name: "crossbar",
                total_nanos: 5,
                self_nanos: 4,
                calls: 1,
            },
            SpanAgg {
                name: "custom",
                total_nanos: 3,
                self_nanos: 2,
                calls: 1,
            },
        ];
        let ms = span_metrics(&before, &after, 1e-8);
        let parts: f64 = ms
            .iter()
            .filter(|x| x.name != "layer.wall_s")
            .map(|x| x.value)
            .sum();
        assert!((parts - 1e-8).abs() < 1e-18);
    }
}
