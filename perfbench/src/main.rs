//! `perfbench`: the xlda benchmark of record.
//!
//! ```text
//! perfbench --workload dse_sweep|mc_sweep|serve_mix --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH] [--work-dir DIR]
//! ```
//!
//! Prints one line per metric, then the result as one JSON object on
//! the last line of stdout. Exits 1 if any output check failed.
//!
//! The benchmark confines itself to one CPU and the daemon to another
//! ([`sys::Placement`]) and gates CPU time rather than wall time: on a
//! shared host, wall time follows what the host runs besides.

mod calib;
mod grid;
mod layers;
mod loadgen;
mod oracle;
mod provenance;
mod report;
mod serve;
mod stats;
mod sweeps;
mod sys;

use provenance::BoxInfo;
use report::{result_json, Outcome};
use std::process::exit;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<String>,
    work_dir: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload dse_sweep|mc_sweep|serve_mix --seed N --seconds S \
         --trace 0|1 [--serve-bin PATH] [--work-dir DIR]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        work_dir: ".bench_build/perfbench-work".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = val(),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                a.seconds = val().parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => a.trace = val() == "1",
            "--serve-bin" => a.serve_bin = Some(val()),
            "--work-dir" => a.work_dir = val(),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    a
}

/// Seconds of serve traffic behind the serve and store layer figures
/// of a traced sweep run.
const SERVE_PROBE_S: f64 = 2.0;

fn serve_bin(args: &Args) -> &str {
    args.serve_bin
        .as_deref()
        .unwrap_or_else(|| usage("this run needs --serve-bin"))
}

/// Serve, store and load-generator layers from a short traced serve
/// run, for the sweep workloads (which never reach those layers).
fn serve_probe(
    args: &Args,
    metrics: &mut Vec<report::Metric>,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let t = serve::traced(serve_bin(args), &args.work_dir, args.seed, SERVE_PROBE_S)?;
    metrics.extend(t.metrics.into_iter().filter(|m| {
        ["serve.", "store.", "loadgen."]
            .iter()
            .any(|p| m.name.starts_with(p))
    }));
    out.failed += t.outcome.failed;
    out.problems.extend(t.outcome.problems);
    out.info.extend(t.outcome.info);
    Ok(())
}

fn run(args: &Args) -> std::io::Result<Outcome> {
    let (seed, secs) = (args.seed, args.seconds);
    Ok(match (args.workload.as_str(), args.trace) {
        ("dse_sweep", false) => sweeps::timed(&sweeps::Dse, seed, secs, "points"),
        ("mc_sweep", false) => sweeps::timed(&sweeps::Mc, seed, secs, "trials"),
        ("serve_mix", false) => serve::timed(serve_bin(args), &args.work_dir, seed, secs)?,
        ("dse_sweep" | "mc_sweep", true) => {
            let (mut metrics, mut out) = if args.workload == "dse_sweep" {
                sweeps::traced(&sweeps::Dse, seed, secs)
            } else {
                sweeps::traced(&sweeps::Mc, seed, secs)
            };
            serve_probe(args, &mut metrics, &mut out)?;
            out.metrics = layers::complete(metrics);
            out
        }
        ("serve_mix", true) => {
            let t = serve::traced(serve_bin(args), &args.work_dir, seed, secs)?;
            let mut metrics = t.metrics;
            let inputs = serve::layer_inputs(&t.phase).or(sweeps::layer_inputs(seed));
            let (model, wall, before, after) = layers::model_metrics(&inputs);
            metrics.extend(model);
            metrics.extend(layers::span_metrics(&before, &after, wall));
            metrics.extend(sweeps::sweep_share(&inputs.hdc));
            metrics.push(report::Metric::new(
                "mc.trials",
                serve::mc_trials(&t.phase) as f64,
                "count",
                t.phase.plan.len(),
            ));
            let mut out = t.outcome;
            out.metrics = layers::complete(metrics);
            out
        }
        (other, _) => usage(&format!("unknown workload {other:?}")),
    })
}

fn main() {
    let args = parse_args();
    let boxinfo = BoxInfo::probe();
    let place = sys::placement();
    // Best effort, like every placement: a refused mask runs unconfined.
    let confined = sys::set_cpus(&[place.client]);
    let out = run(&args).unwrap_or_else(|e| {
        eprintln!(
            "perfbench: workload={} seed={} failed to run: {e} box: {boxinfo}",
            args.workload, args.seed
        );
        exit(1)
    });
    if !args.trace {
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            report::END_TO_END,
            "timed runs report every end-to-end metric"
        );
    }
    println!("box {boxinfo}");
    match confined {
        Ok(()) => println!(
            "placement: benchmark on cpu {}, xlda-serve on cpu {}",
            place.client, place.daemon
        ),
        Err(e) => println!("placement: not confined ({e}); figures are less steady"),
    }
    for line in &out.info {
        println!("{line}");
    }
    for m in &out.metrics {
        println!(
            "metric {} = {} {} (n={}) {}",
            m.name, m.value, m.unit, m.n, m.note
        );
    }
    for p in &out.problems {
        println!(
            "CHECK FAILED workload={} seed={} {p} box: {boxinfo}",
            args.workload, args.seed
        );
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    println!(
        "{}",
        result_json(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    if !correct {
        exit(1);
    }
}
