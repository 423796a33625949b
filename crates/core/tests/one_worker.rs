//! One-worker sweeps run on the calling thread.
//!
//! A sweep resolved to one worker spawns no thread, so its points run
//! where the caller's spans are open and the span breakdown telescopes:
//! a child span's time is carved out of its parent's self time instead
//! of being counted twice on another thread's stack.

use std::sync::Mutex;
use xlda_core::mc::run_trials_with;
use xlda_core::sweep::{par_batch_map, par_try_map_with, PointFailure, SweepOptions};
use xlda_obs::span;

/// Span collection is process-global: tests here are serialized so one
/// test's enabled window never records another's spans.
static SPANS: Mutex<()> = Mutex::new(());

fn one_worker() -> SweepOptions {
    SweepOptions::builder().threads(1).build()
}

#[test]
fn one_worker_sweeps_run_on_the_calling_thread() {
    let _g = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let caller = std::thread::current().id();
    let inputs: Vec<u32> = (0..100).collect();
    let points: Vec<Result<bool, PointFailure<()>>> = par_try_map_with(
        &inputs,
        |_| Ok(std::thread::current().id() == caller),
        &one_worker(),
    );
    assert!(points.iter().all(|p| *p == Ok(true)), "{points:?}");
    let chunks = par_batch_map(&inputs, &one_worker(), |_, _| {
        std::thread::current().id() == caller
    });
    assert!(!chunks.is_empty());
    assert!(chunks.iter().all(|&on_caller| on_caller), "{chunks:?}");
}

#[test]
fn one_worker_mc_spans_telescope() {
    let _g = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    span::set_enabled(true);
    let before = span::aggregate_snapshot();
    let cols = run_trials_with(256, 11, 16, &one_worker(), 1, |batch, cols| {
        for (i, slot) in cols[0].iter_mut().enumerate() {
            *slot = std::hint::black_box(batch.global_index(i) as f64).sqrt();
        }
        Ok(())
    })
    .expect("trials run");
    let layers = span::diff_aggregates(&before, &span::aggregate_snapshot());
    span::set_enabled(false);
    assert_eq!(cols[0].len(), 256);

    let layer = |name: &str| {
        layers
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("{name} missing from {layers:?}"))
            .clone()
    };
    let trials = layer("mc.trials");
    let batch = layer("mc.batch");
    assert_eq!(batch.calls, 16);
    assert!(
        trials.self_nanos + batch.self_nanos <= trials.total_nanos,
        "mc.trials self {} + mc.batch self {} > mc.trials total {}",
        trials.self_nanos,
        batch.self_nanos,
        trials.total_nanos
    );
}
