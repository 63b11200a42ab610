//! The benchmark's workloads: every input pinned, plus the guest-result
//! digests recorded for them.
//!
//! Why these three (see `README.md` for the measurements behind them):
//!
//! * `ocean16` — nearly all host time is inside `Node::tick` (pipeline and
//!   caches); the NoC and protocol are almost idle, so the parallel engine
//!   skips about half the node-cycles. Exercises idle skipping and
//!   adaptive epochs.
//! * `radix16-chaos` — the write-heavy scatter does the most protocol, NoC
//!   and SDRAM work per node-cycle; chaos faults route traffic through the
//!   link-level retry layer and withhold freeze certificates, so the
//!   parallel engine runs static epochs with no skipping. Bypasses the
//!   mechanisms `ocean16` exercises.
//! * `fft32-observed` — the paper's largest machine with every in-memory
//!   observer armed: the only workload with trace sinks attached, so the
//!   only one whose parallel-engine capture/replay carries span-stamped
//!   events.

use crate::guest::Digest;
use smtp::{
    build_system, AppKind, EngineKind, ExperimentConfig, FaultConfig, MachineModel, System,
};

/// Parallel-engine worker threads (plus the coordinator, which sleeps in
/// the epoch barrier nearly all the time).
const WORKERS: usize = 2;

/// Watchdog budget: far above every workload's run length, so reaching it
/// means the machine wedged.
pub const MAX_CYCLES: u64 = 20_000_000;

/// Top-K capacity of the causal-span exemplar list and of the spatial
/// per-line tracker on the observed workload.
pub(crate) const OBSERVER_TOP_K: usize = 32;

/// Interval of the metrics sampler on the observed workload.
const METRICS_INTERVAL: u64 = 10_000;

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Application kernel.
    pub app: AppKind,
    /// Nodes in the machine.
    pub nodes: usize,
    /// Workload scale. Each was chosen just above the kernel's minimum
    /// problem size, where `system.sim_cycles` moves with the scale.
    pub scale: f64,
    /// Inject `FaultConfig::chaos(seed)`: the only input the seed reaches.
    pub chaos: bool,
    /// Arm every in-memory observer (causal spans, spatial tracker,
    /// hot-spot metrics sampler).
    pub observed: bool,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ocean16",
        app: AppKind::Ocean,
        nodes: 16,
        scale: 0.14,
        chaos: false,
        observed: false,
    },
    Workload {
        name: "radix16-chaos",
        app: AppKind::Radix,
        nodes: 16,
        scale: 0.07,
        chaos: true,
        observed: false,
    },
    Workload {
        name: "fft32-observed",
        app: AppKind::Fft,
        nodes: 32,
        scale: 0.14,
        chaos: false,
        observed: true,
    },
];

/// Digests recorded from the serial engine: `<workload> <seed|*> <hex>`.
/// `*` marks a fault-free workload, whose guest results do not depend on
/// the seed.
const RECORDED: &str = include_str!("../digests.txt");

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The experiment point, with every field set here rather than taken
    /// from a default that the environment could change.
    pub fn experiment(&self, seed: u64, engine: EngineKind) -> ExperimentConfig {
        ExperimentConfig {
            model: MachineModel::SMTp,
            app: self.app,
            nodes: self.nodes,
            ways: 2,
            cpu_ghz: 2.0,
            scale: self.scale,
            look_ahead: true,
            bypass_lines: None,
            perfect_protocol_caches: false,
            prefetch: true,
            max_cycles: MAX_CYCLES,
            faults: if self.chaos {
                FaultConfig::chaos(seed)
            } else {
                FaultConfig::default()
            },
            engine,
            workers: Some(WORKERS),
        }
    }

    /// Build the machine (the part `setup_s` times).
    pub fn build(&self, seed: u64, engine: EngineKind) -> System {
        build_system(&self.experiment(seed, engine))
    }

    /// Arm the observers this workload runs with.
    pub fn arm_observers(&self, sys: &mut System) {
        if self.observed {
            arm_all_observers(sys);
        }
    }

    /// The recorded digest for `seed`, if one was recorded.
    pub fn recorded_digest(&self, seed: u64) -> Option<Digest> {
        recorded_digest(RECORDED, self.name, seed)
    }
}

/// Arm every in-memory observer on `sys`.
pub fn arm_all_observers(sys: &mut System) {
    sys.enable_causal_spans(OBSERVER_TOP_K);
    sys.enable_spatial(OBSERVER_TOP_K);
    sys.enable_metrics_hotspots(METRICS_INTERVAL);
}

/// Look `workload`/`seed` up in a digest table.
pub fn recorded_digest(table: &str, workload: &str, seed: u64) -> Option<Digest> {
    table.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (name, s, hex) = (f.next()?, f.next()?, f.next()?);
        let seed_matches = s == "*" || s.parse::<u64>().ok() == Some(seed);
        (name == workload && seed_matches)
            .then(|| u64::from_str_radix(hex, 16).ok().map(Digest))
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_recorded_digest() {
        for w in &WORKLOADS {
            assert!(w.recorded_digest(1).is_some(), "{}", w.name);
        }
    }

    #[test]
    fn fault_free_digest_ignores_the_seed() {
        let w = Workload::by_name("ocean16").unwrap();
        assert_eq!(w.recorded_digest(0), w.recorded_digest(12_345));
    }

    #[test]
    fn chaos_digest_depends_on_the_seed() {
        let w = Workload::by_name("radix16-chaos").unwrap();
        assert_ne!(w.recorded_digest(1), w.recorded_digest(2));
    }

    #[test]
    fn table_lookup_parses_rows() {
        let t = "a * 00ff\nb 7 10\nb 8 20\n";
        assert_eq!(recorded_digest(t, "a", 99), Some(Digest(0xff)));
        assert_eq!(recorded_digest(t, "b", 8), Some(Digest(0x20)));
        assert_eq!(recorded_digest(t, "b", 9), None);
        assert_eq!(recorded_digest(t, "c", 7), None);
    }
}
