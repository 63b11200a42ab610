//! The serial run loop against the plain cycle-by-cycle step.
//!
//! `System::run_with(Serial)` skips each node's provably idle cycles under
//! its freeze certificate (`Node::next_activity`) and settles the skipped
//! stall bookkeeping in bulk. `System::tick` ticks every node every cycle
//! and never skips, so a `while !quiesced() { tick() }` loop is the
//! independent oracle for that certificate: both must produce the same
//! statistics, the same trace stream, the same metrics rows and the same
//! latency-profiler aggregate, bit for bit.

use smtp::trace::{Event, MemorySink};
use smtp::types::Cycle;
use smtp::{
    build_system, AppKind, EngineKind, ExperimentConfig, LatencyBreakdown, MachineModel, Report,
    System,
};

/// Metrics interval: a prime, so sample cycles are settle points of their
/// own rather than watchdog multiples (8192), and dense enough that some
/// sample lands while a node sleeps with its protocol thread busy (the
/// `prot_occ` column reads the bookkeeping a sleeper still owes).
const METRICS_EVERY: Cycle = 997;
/// Coherence-sanitizer interval, coprime with both schedules above.
const INVARIANTS_EVERY: Cycle = 7_001;

/// Everything observable from one run.
struct Observed {
    stats_json: String,
    events: Vec<(Cycle, Event)>,
    metrics: Vec<(Cycle, Vec<f64>)>,
    breakdown: LatencyBreakdown,
    now: Cycle,
}

fn observe(e: &ExperimentConfig, drive: impl FnOnce(&mut System) -> smtp::RunStats) -> Observed {
    let mut sys = build_system(e);
    sys.tracer().enable_all();
    let store = MemorySink::shared();
    sys.tracer().add_sink(Box::new(MemorySink::attach(&store)));
    sys.enable_metrics(METRICS_EVERY);
    sys.enable_invariant_checks(INVARIANTS_EVERY);
    let stats = drive(&mut sys);
    let events = store.borrow().clone();
    Observed {
        stats_json: Report::new(&stats).json(),
        events,
        metrics: sys.metrics().map(|s| s.rows().to_vec()).unwrap_or_default(),
        breakdown: sys.profiler().breakdown(),
        now: sys.now(),
    }
}

fn assert_step_oracle(e: &ExperimentConfig, label: &str) {
    let run = observe(e, |sys| {
        sys.run_with(e.max_cycles, EngineKind::Serial)
            .unwrap_or_else(|err| panic!("[{label}] serial run failed: {err}"))
    });
    let step = observe(e, |sys| {
        while !sys.quiesced() {
            assert!(
                sys.now() < e.max_cycles,
                "[{label}] step loop never quiesced"
            );
            sys.tick();
        }
        sys.tracer().flush();
        sys.collect()
    });
    assert_eq!(run.now, step.now, "[{label}] exit cycle diverged");
    assert_eq!(
        run.stats_json, step.stats_json,
        "[{label}] RunStats diverged"
    );
    assert_eq!(
        run.events.len(),
        step.events.len(),
        "[{label}] trace stream length diverged"
    );
    if let Some(i) = (0..run.events.len()).find(|&i| run.events[i] != step.events[i]) {
        panic!(
            "[{label}] trace streams diverge at event {i}:\n  run:  {:?}\n  step: {:?}",
            run.events[i], step.events[i]
        );
    }
    assert!(!run.metrics.is_empty(), "[{label}] no metrics rows sampled");
    assert_eq!(run.metrics, step.metrics, "[{label}] metrics rows diverged");
    assert_eq!(
        run.breakdown, step.breakdown,
        "[{label}] profiler aggregate diverged"
    );
}

fn point(model: MachineModel, app: AppKind, nodes: usize, ways: usize) -> ExperimentConfig {
    let mut e = ExperimentConfig::quick(model, app, nodes, ways);
    e.scale = 0.1;
    e
}

#[test]
fn smtp_ocean_matches_step_loop() {
    let e = point(MachineModel::SMTp, AppKind::Ocean, 4, 2);
    assert_step_oracle(&e, "smtp ocean x4");
}

#[test]
fn smtp_fft_matches_step_loop() {
    let e = point(MachineModel::SMTp, AppKind::Fft, 4, 2);
    assert_step_oracle(&e, "smtp fft x4");
}

#[test]
fn smtp_radix_matches_step_loop() {
    let e = point(MachineModel::SMTp, AppKind::Radix, 4, 1);
    assert_step_oracle(&e, "smtp radix x4");
}

#[test]
fn int_model_matches_step_loop() {
    let e = point(MachineModel::Int512KB, AppKind::Fft, 2, 2);
    assert_step_oracle(&e, "int512kb fft x2");
}

#[test]
fn base_model_matches_step_loop() {
    let e = point(MachineModel::Base, AppKind::Ocean, 2, 1);
    assert_step_oracle(&e, "base ocean x2");
}

/// The paper's largest machine.
#[test]
#[ignore = "seconds in release, minutes in debug; CI runs it in release via the engine-scaling leg"]
fn large_hypercube_matches_step_loop() {
    let e = point(MachineModel::SMTp, AppKind::Fft, 32, 2);
    assert_step_oracle(&e, "smtp fft x32");
}
