//! Host-side engine telemetry: wall-clock attribution must *telescope*
//! (per-phase time sums to lane total), the heartbeat must emit valid
//! JSONL even when a run dies mid-flight, and — the load-bearing property
//! — turning telemetry on must never perturb a single guest-visible bit:
//! the same `RunStats`, trace events and metrics rows fall out whether the
//! engine profiles itself or not, on either engine, faults or no faults.

use smtp::trace::{MemorySink, SharedBuf};
use smtp::{
    build_system, AppKind, EngineKind, EngineTuning, ExperimentConfig, FaultConfig, HostProfile,
    MachineModel,
};

fn point(model: MachineModel, nodes: usize, ways: usize, seed: Option<u64>) -> ExperimentConfig {
    let mut e = ExperimentConfig::quick(model, AppKind::Fft, nodes, ways);
    e.scale = 0.1;
    // Pin the worker count in the *config* so every run — serial or
    // parallel, telemetry or not — records the same `RunStats.workers`.
    e.workers = Some(2);
    if let Some(seed) = seed {
        e.faults = FaultConfig::chaos(seed);
    }
    e
}

/// Everything guest-visible from one run, plus the host profile when
/// telemetry was on.
struct Observed {
    stats: String,
    events: usize,
    first_events: String,
    metrics: Vec<(u64, Vec<f64>)>,
    host: Option<HostProfile>,
}

fn observe(e: &ExperimentConfig, engine: EngineKind, telemetry: bool) -> Observed {
    observe_tuned(e, engine, telemetry, EngineTuning::default())
}

fn observe_tuned(
    e: &ExperimentConfig,
    engine: EngineKind,
    telemetry: bool,
    tuning: EngineTuning,
) -> Observed {
    let mut sys = build_system(e);
    sys.set_engine_tuning(tuning);
    sys.tracer().enable_all();
    let store = MemorySink::shared();
    sys.tracer().add_sink(Box::new(MemorySink::attach(&store)));
    sys.enable_metrics(5_000);
    if telemetry {
        sys.enable_host_telemetry();
    }
    let stats = sys
        .run_with(e.max_cycles, engine)
        .unwrap_or_else(|err| panic!("{engine} engine failed: {err}"));
    let metrics = sys.metrics().map(|s| s.rows().to_vec()).unwrap_or_default();
    let events = store.borrow().len();
    let first_events = format!("{:?}", &store.borrow()[..events.min(64)]);
    Observed {
        stats: format!("{stats:?}"),
        events,
        first_events,
        metrics,
        host: sys.take_host_profile(),
    }
}

fn assert_guest_identical(a: &Observed, b: &Observed, label: &str) {
    assert_eq!(a.stats, b.stats, "[{label}] RunStats diverged");
    assert_eq!(a.events, b.events, "[{label}] trace length diverged");
    assert_eq!(
        a.first_events, b.first_events,
        "[{label}] trace events diverged"
    );
    assert_eq!(a.metrics, b.metrics, "[{label}] metrics rows diverged");
}

/// Per-lane phase attribution must telescope: the per-phase nanoseconds
/// sum to the lane's total within epsilon (the `PhaseTimer` charges every
/// interval between consecutive clock stamps to exactly one phase, so the
/// error should in fact be zero).
fn assert_telescopes(host: &HostProfile, label: &str) {
    const EPS: f64 = 1e-6;
    assert!(!host.lanes.is_empty(), "[{label}] profile carries no lanes");
    for lane in &host.lanes {
        let sum = lane.phase_sum();
        let err = (sum as f64 - lane.total_ns as f64).abs() / (lane.total_ns.max(1) as f64);
        assert!(
            err <= EPS,
            "[{label}] lane {} does not telescope: phases sum to {sum} ns, total {} ns",
            lane.name,
            lane.total_ns
        );
    }
    assert!(
        host.telescoping_error() <= EPS,
        "[{label}] telescoping_error {} exceeds epsilon",
        host.telescoping_error()
    );
}

/// A serial run's host profile, checked for the invariants every serial
/// profile obeys: one lane that telescopes, and every node-cycle of the
/// run either ticked or idle-skipped exactly once.
fn serial_profile(e: &ExperimentConfig, label: &str) -> HostProfile {
    let o = observe(e, EngineKind::Serial, true);
    let host = o.host.expect("telemetry on must yield a profile");
    assert_eq!(host.engine, "serial");
    assert_eq!(host.workers, 1);
    assert_eq!(host.lanes.len(), 1);
    assert!(host.epochs > 0, "[{label}] no epochs recorded");
    assert!(host.sim_cycles > 0 && host.wall_ns > 0);
    assert_eq!(
        host.ticked_cycles + host.skipped_cycles,
        host.sim_cycles * e.nodes as u64,
        "[{label}] ticked + skipped node-cycles do not cover the run"
    );
    assert_telescopes(&host, label);
    host
}

#[test]
fn serial_profile_telescopes_and_covers_the_run() {
    serial_profile(&point(MachineModel::SMTp, 2, 2, None), "serial");
    // Ocean's memory stalls are where the freeze certificates pay off.
    let mut ocean = point(MachineModel::SMTp, 2, 2, None);
    ocean.app = AppKind::Ocean;
    let host = serial_profile(&ocean, "serial ocean");
    assert!(host.skipped_cycles > 0, "serial engine skipped nothing");
    // Fault-armed nodes never certify, so chaos runs tick every cycle.
    let host = serial_profile(&point(MachineModel::SMTp, 2, 2, Some(3)), "serial chaos");
    assert_eq!(host.skipped_cycles, 0, "a fault-armed node skipped");
}

#[test]
fn parallel_profile_telescopes_and_covers_the_run() {
    let e = point(MachineModel::SMTp, 4, 2, None);
    let o = observe(&e, EngineKind::Parallel, true);
    let host = o.host.expect("telemetry on must yield a profile");
    assert_eq!(host.engine, "parallel");
    assert_eq!(host.workers, 2);
    // Coordinator lane plus one lane per worker.
    assert_eq!(host.lanes.len(), 1 + host.workers);
    assert!(host.epochs > 0, "no epochs recorded");
    assert_eq!(host.epochs, host.epoch_cycles.count());
    assert!(
        host.ticked_cycles + host.skipped_cycles > 0,
        "workers ticked nothing"
    );
    assert_telescopes(&host, "parallel");
    // Derived metrics stay in range.
    let bw = host.barrier_wait_frac();
    assert!(
        (0.0..=1.0).contains(&bw),
        "barrier_wait_frac {bw} out of range"
    );
    let skip = host.skip_efficiency();
    assert!(
        (0.0..=1.0).contains(&skip),
        "skip_efficiency {skip} out of range"
    );
    for u in host.worker_utilization() {
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    }
}

#[test]
fn telemetry_never_perturbs_guest_state() {
    let e = point(MachineModel::SMTp, 2, 2, None);
    let oracle = observe(&e, EngineKind::Serial, false);
    let serial_telem = observe(&e, EngineKind::Serial, true);
    let parallel_off = observe(&e, EngineKind::Parallel, false);
    let parallel_telem = observe(&e, EngineKind::Parallel, true);
    assert_guest_identical(&oracle, &serial_telem, "serial telemetry on/off");
    assert_guest_identical(&oracle, &parallel_off, "serial vs parallel");
    assert_guest_identical(&oracle, &parallel_telem, "serial vs parallel+telemetry");
    assert!(oracle.host.is_none(), "telemetry off must not profile");
    assert!(parallel_telem.host.is_some());
}

#[test]
fn telemetry_never_perturbs_guest_state_under_chaos_faults() {
    for seed in [7u64, 0xC8A05] {
        let e = point(MachineModel::SMTp, 2, 2, Some(seed));
        let oracle = observe(&e, EngineKind::Serial, false);
        let serial_telem = observe(&e, EngineKind::Serial, true);
        let parallel_telem = observe(&e, EngineKind::Parallel, true);
        assert_guest_identical(
            &oracle,
            &serial_telem,
            &format!("chaos({seed}) serial telemetry on/off"),
        );
        assert_guest_identical(
            &oracle,
            &parallel_telem,
            &format!("chaos({seed}) serial vs parallel+telemetry"),
        );
        assert_telescopes(
            parallel_telem.host.as_ref().unwrap(),
            &format!("chaos({seed})"),
        );
    }
}

/// The tuned-up engine — adaptive epochs plus per-epoch rebalancing — must
/// keep both telemetry promises at once: guest bits identical to the serial
/// oracle, and host attribution that still telescopes, with and without
/// chaos faults.
#[test]
fn tuned_engine_telemetry_telescopes_and_stays_bit_identical() {
    let aggressive = EngineTuning {
        adaptive_epochs: true,
        rebalance_every: 1,
        rebalance_threshold: 1.0,
    };
    for seed in [None, Some(7u64)] {
        let e = point(MachineModel::SMTp, 4, 2, seed);
        let oracle = observe(&e, EngineKind::Serial, false);
        let tuned = observe_tuned(&e, EngineKind::Parallel, true, aggressive);
        let label = format!("tuned chaos={seed:?}");
        assert_guest_identical(&oracle, &tuned, &label);
        assert_telescopes(tuned.host.as_ref().unwrap(), &label);
    }
}

#[test]
fn heartbeat_never_perturbs_guest_state() {
    let e = point(MachineModel::SMTp, 2, 2, None);
    let oracle = observe(&e, EngineKind::Serial, false);
    let buf = SharedBuf::new();
    let mut sys = build_system(&e);
    sys.tracer().enable_all();
    let store = MemorySink::shared();
    sys.tracer().add_sink(Box::new(MemorySink::attach(&store)));
    sys.enable_metrics(5_000);
    // The serial engine only checks the heartbeat at watchdog boundaries
    // (every 8192 cycles); the quick run is ~25k cycles, so a 4k-cycle
    // interval yields a beat at each boundary the run reaches.
    sys.enable_heartbeat(4_000, Some(Box::new(buf.clone())));
    let stats = sys.run(e.max_cycles).expect("run must complete");
    assert_eq!(
        oracle.stats,
        format!("{stats:?}"),
        "heartbeat perturbed RunStats"
    );
    assert_eq!(
        oracle.events,
        store.borrow().len(),
        "heartbeat perturbed trace"
    );
    assert_heartbeat_jsonl(&buf.to_string_lossy(), 2);
}

/// Validate a heartbeat stream: line-complete JSONL, each line one
/// balanced JSON object carrying the expected keys.
fn assert_heartbeat_jsonl(text: &str, min_lines: usize) {
    assert!(!text.is_empty(), "no heartbeat output");
    assert!(
        text.ends_with('\n'),
        "heartbeat stream truncated mid-line: {:?}",
        &text[text.len().saturating_sub(80)..]
    );
    let mut lines = 0usize;
    for line in text.lines() {
        assert!(
            line.starts_with("{\"hb\":") && line.ends_with('}'),
            "malformed heartbeat line: {line:?}"
        );
        for key in [
            "\"cycle\":",
            "\"sim_cycles_per_sec\":",
            "\"workers\":",
            "\"util\":[",
        ] {
            assert!(line.contains(key), "heartbeat line missing {key}: {line:?}");
        }
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in line.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' if !in_str => depth += 1,
                '}' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced braces: {line:?}");
        assert!(!in_str, "unterminated string: {line:?}");
        lines += 1;
    }
    assert!(
        lines >= min_lines,
        "expected at least {min_lines} heartbeat lines, got {lines}"
    );
}

#[test]
fn parallel_heartbeat_emits_valid_jsonl() {
    let e = point(MachineModel::SMTp, 4, 2, None);
    let buf = SharedBuf::new();
    let mut sys = build_system(&e);
    sys.enable_heartbeat(10_000, Some(Box::new(buf.clone())));
    sys.run_with(e.max_cycles, EngineKind::Parallel)
        .expect("run must complete");
    assert_heartbeat_jsonl(&buf.to_string_lossy(), 2);
}

/// A run far shorter than the heartbeat interval must still leave liveness
/// records: one at run start, one at run end, on both engines. (The first
/// beat used to arrive only after a full interval, so short runs logged
/// nothing at all.)
#[test]
fn short_runs_still_emit_start_and_end_heartbeats() {
    for engine in [EngineKind::Serial, EngineKind::Parallel] {
        let e = point(MachineModel::SMTp, 2, 2, None);
        let buf = SharedBuf::new();
        let mut sys = build_system(&e);
        // An interval no quick run can ever reach.
        sys.enable_heartbeat(1_000_000_000, Some(Box::new(buf.clone())));
        sys.run_with(e.max_cycles, engine)
            .expect("run must complete");
        let text = buf.to_string_lossy();
        assert_heartbeat_jsonl(&text, 2);
        let first = text.lines().next().expect("checked non-empty");
        assert!(
            first.contains("\"epochs\":0"),
            "first beat should be the run-start record: {first:?}"
        );
    }
}

/// A sink that forwards to a [`SharedBuf`] but panics once it has seen a
/// given number of complete lines — simulating a run dying mid-flight
/// *inside* the heartbeat path.
struct PanicAfterLines {
    inner: SharedBuf,
    lines: usize,
    panic_after: usize,
}

impl std::io::Write for PanicAfterLines {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.inner.write(data)?;
        self.lines += data.iter().filter(|&&b| b == b'\n').count();
        if self.lines >= self.panic_after {
            panic!("sink failure after {} heartbeat lines", self.lines);
        }
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn heartbeat_log_is_line_complete_even_after_a_mid_run_panic() {
    let e = point(MachineModel::SMTp, 2, 2, None);
    let buf = SharedBuf::new();
    let sink = PanicAfterLines {
        inner: buf.clone(),
        lines: 0,
        panic_after: 2,
    };
    let mut sys = build_system(&e);
    sys.enable_heartbeat(4_000, Some(Box::new(sink)));
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.run(e.max_cycles)));
    assert!(res.is_err(), "sink panic must surface");
    // The writer flushes per line, so everything before the failure is
    // still readable, line-complete JSONL.
    assert_heartbeat_jsonl(&buf.to_string_lossy(), 2);
}
