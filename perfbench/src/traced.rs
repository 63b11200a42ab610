//! The traced pass: per-layer host time, measured from the benchmark's
//! own code around the calls into each layer.
//!
//! The serial half assembles the machine from its public parts and drives
//! it with the same calls `System::tick` makes, stamping a monotonic clock
//! between them. Every nanosecond between two stamps is charged to exactly
//! one layer, so the layers sum to the loop's wall-clock total. The
//! parallel half reads the epoch engine's own `HostProfile`.

use crate::report::Metrics;
use crate::workload::{Workload, MAX_CYCLES};
use smtp::core::Node;
use smtp::noc::{Msg, Network};
use smtp::trace::{Category, CausalSpans, HostPhase, HostProfile, Tracer};
use smtp::types::{Ctx, NodeId};
use smtp::workloads::{make_thread, SyncManager, WorkloadCfg};
use smtp::{EngineKind, ExperimentConfig, PhaseProfiler, RunStats, System, SystemConfig};
use std::time::Instant;

/// Layers of the outside-driven loop.
#[derive(Clone, Copy)]
enum Layer {
    /// `Network::pop_arrived` + `Node::receive`.
    Deliver = 0,
    /// `Node::tick` (pipeline, caches, protocol, SDRAM, sync fabric).
    Tick = 1,
    /// `Node::drain_outbox` + `Network::inject`.
    Inject = 2,
    /// Everything else: end-of-run tests and cycle bookkeeping.
    Loop = 3,
}

/// Telescoping stopwatch: each lap charges the time since the previous
/// one to a layer.
struct Laps {
    start: Instant,
    last: Instant,
    ns: [u64; 4],
}

impl Laps {
    fn new() -> Laps {
        let now = Instant::now();
        Laps {
            start: now,
            last: now,
            ns: [0; 4],
        }
    }

    #[inline]
    fn lap(&mut self, layer: Layer) {
        let now = Instant::now();
        self.ns[layer as usize] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }

    fn wall_ns(&self) -> u64 {
        self.last.duration_since(self.start).as_nanos() as u64
    }
}

/// Set-up times of the traced assembly.
pub struct SetupTimes {
    /// Building every thread's workload generator (`make_thread`).
    pub gen_s: f64,
    /// Assembling every node around its generators (`Node::with_threads`).
    pub assemble_s: f64,
}

/// A machine assembled from its public parts, as `build_system` would.
pub struct Machine {
    nodes: Vec<Node>,
    network: Option<Network>,
    sync: SyncManager,
    /// Held so the causal-span sink stays attached for the whole run.
    _causal: Option<CausalSpans>,
}

/// The outcome of one outside-driven run.
pub struct Driven {
    /// `System::now()` equivalent: the cycle after the last one ticked.
    now: u64,
    /// Cycle at which every application thread had finished.
    app_done_at: u64,
    /// Messages delivered from the network.
    delivered: u64,
    /// Host nanoseconds per layer, indexed by `Layer`.
    layer_ns: [u64; 4],
    /// Wall-clock of the loop, first stamp to last.
    wall_ns: u64,
}

/// The `SystemConfig` `build_system` derives from an experiment point.
fn system_config(e: &ExperimentConfig) -> SystemConfig {
    let mut cfg = SystemConfig::new(e.model, e.nodes, e.ways);
    cfg.cpu_ghz = e.cpu_ghz;
    cfg.pipeline.look_ahead_scheduling = e.look_ahead;
    if let Some(lines) = e.bypass_lines {
        cfg.pipeline.bypass_lines = lines;
    }
    cfg.pipeline.perfect_protocol_caches = e.perfect_protocol_caches;
    cfg.faults = e.faults.clone();
    cfg.workers = e.workers;
    cfg
}

/// Assemble the machine with the same tracer ring, phase profiler, fault
/// hooks and (on the observed workload) causal-span and spatial
/// observers that `System` attaches. The interval metrics sampler lives
/// inside `System` and has no outside counterpart; it reads guest state
/// and never changes it.
pub fn assemble(w: &Workload, seed: u64) -> (Machine, SetupTimes) {
    let e = w.experiment(seed, EngineKind::Serial);
    let cfg = system_config(&e);
    let wl = WorkloadCfg {
        nodes: cfg.nodes,
        app_threads: cfg.app_threads,
        scale: e.scale,
        prefetch: e.prefetch,
    };
    let t = Instant::now();
    let gens: Vec<Vec<_>> = (0..cfg.nodes)
        .map(|i| {
            (0..cfg.app_threads)
                .map(|c| make_thread(w.app, &wl, NodeId(i as u16), Ctx(c as u8)))
                .collect()
        })
        .collect();
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut nodes: Vec<Node> = gens
        .into_iter()
        .enumerate()
        .map(|(i, g)| Node::with_threads(NodeId(i as u16), &cfg, g))
        .collect();
    let assemble_s = t.elapsed().as_secs_f64();

    let mut network = (cfg.nodes > 1).then(|| Network::new(cfg.nodes, cfg.cpu_ghz, &cfg.net));
    let tracer = Tracer::new();
    tracer.enable_ring(128);
    let profiler = PhaseProfiler::new();
    for n in &mut nodes {
        n.set_tracer(tracer.clone());
        n.set_profiler(profiler.clone());
    }
    if let Some(net) = &mut network {
        net.set_tracer(tracer.clone());
        net.set_profiler(profiler.clone());
    }
    if cfg.faults.is_active() {
        for n in &mut nodes {
            n.set_faults(&cfg.faults);
        }
        if let Some(net) = &mut network {
            net.set_faults(&cfg.faults);
        }
    }
    let causal = w.observed.then(|| {
        let c = CausalSpans::new(crate::workload::OBSERVER_TOP_K);
        tracer.add_sink(c.sink());
        tracer.set_mask(
            tracer.mask()
                | Category::Cache.bit()
                | Category::Protocol.bit()
                | Category::Network.bit()
                | Category::Sdram.bit(),
        );
        for n in &mut nodes {
            n.directory.enable_spatial(crate::workload::OBSERVER_TOP_K);
            n.mem.enable_spatial(crate::workload::OBSERVER_TOP_K);
        }
        c
    });
    let machine = Machine {
        nodes,
        network,
        sync: SyncManager::new(cfg.total_app_threads()),
        _causal: causal,
    };
    (machine, SetupTimes { gen_s, assemble_s })
}

impl Machine {
    /// Run to quiescence, timing each layer.
    pub fn drive(&mut self) -> Result<Driven, String> {
        let mut now = 0u64;
        let mut app_done_at = None;
        let mut delivered = 0u64;
        let mut outbox: Vec<(u64, Msg)> = Vec::new();
        let mut laps = Laps::new();
        loop {
            let quiesced = app_done_at.is_some()
                && self.nodes.iter().all(Node::quiescent)
                && self
                    .network
                    .as_ref()
                    .is_none_or(|n| n.in_flight_count() == 0);
            if quiesced {
                break;
            }
            if now >= MAX_CYCLES {
                return Err(format!("traced run did not quiesce in {MAX_CYCLES} cycles"));
            }
            laps.lap(Layer::Loop);
            let before = delivered;
            if let Some(net) = &mut self.network {
                while let Some(msg) = net.pop_arrived(now) {
                    self.nodes[msg.dst.idx()].receive(msg, now);
                    delivered += 1;
                }
            }
            // An empty poll is loop bookkeeping, not message delivery.
            laps.lap(if delivered > before {
                Layer::Deliver
            } else {
                Layer::Loop
            });
            for node in &mut self.nodes {
                node.tick(now, &mut self.sync);
                laps.lap(Layer::Tick);
                node.drain_outbox(&mut outbox);
                // Most node-cycles send nothing. Skipping the stamp then
                // keeps the clock read itself out of the inject layer; the
                // few nanoseconds of the empty drain fall into the next
                // tick.
                if outbox.is_empty() {
                    continue;
                }
                let Some(net) = &mut self.network else {
                    return Err(format!("network message on a 1-node machine at {now}"));
                };
                for (at, msg) in outbox.drain(..) {
                    net.inject(at.max(now), msg);
                }
                laps.lap(Layer::Inject);
            }
            if app_done_at.is_none() && self.nodes.iter().all(Node::app_finished) {
                app_done_at = Some(now);
            }
            now += 1;
        }
        laps.lap(Layer::Loop);
        Ok(Driven {
            now,
            app_done_at: app_done_at.unwrap_or(now),
            delivered,
            layer_ns: laps.ns,
            wall_ns: laps.wall_ns(),
        })
    }

    /// Check this machine against a `System` that ran the same workload on
    /// the serial engine: same completion cycles, same public counters on
    /// every node and in the network.
    pub fn matches(&self, d: &Driven, sys: &System, stats: &RunStats) -> Result<(), String> {
        if d.now != sys.now() || d.app_done_at.max(1) != stats.cycles {
            return Err(format!(
                "traced run ended at cycle {} (application {}), System at {} ({})",
                d.now,
                d.app_done_at,
                sys.now(),
                stats.cycles
            ));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if node_counters(n) != node_counters(sys.node(i)) {
                return Err(format!("traced run diverged on node {i}"));
            }
        }
        let net = self
            .network
            .as_ref()
            .map(|n| *n.stats())
            .unwrap_or_default();
        if net != stats.network {
            return Err("traced run diverged in the network counters".to_string());
        }
        Ok(())
    }
}

/// Every public per-node counter, rendered for comparison.
fn node_counters(n: &Node) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:?}",
        n.pipeline.stats(),
        n.stats,
        n.mem.stats(),
        n.directory.stats(),
        n.handler_stats,
        n.fault_counters()
    )
}

/// Per-layer host metrics of an outside-driven run. `insts` counts
/// application plus protocol instructions; `untraced_wall_s` is the same
/// workload's wall-clock on `System::run_with(Serial)`.
pub fn layer_metrics(d: &Driven, nodes: usize, insts: u64, untraced_wall_s: f64) -> Metrics {
    let [deliver, tick, inject, lp] = d.layer_ns.map(|ns| ns as f64);
    let wall = d.wall_ns.max(1) as f64;
    let node_cycles = (d.now * nodes as u64).max(1) as f64;
    let mut m = Metrics::new();
    m.set("node.tick_ns", tick / node_cycles);
    m.set("node.tick_share", tick / wall);
    m.set("pipeline.host_ns_per_inst", tick / insts.max(1) as f64);
    m.set("noc.deliver_ns", deliver / d.delivered.max(1) as f64);
    m.set("noc.deliver_share", deliver / wall);
    m.set("noc.inject_ns", inject / node_cycles);
    m.set("noc.inject_share", inject / wall);
    m.set("system.loop_ns", lp / d.now.max(1) as f64);
    m.set("system.loop_share", lp / wall);
    m.set("bench.trace_overhead", wall / 1e9 / untraced_wall_s);
    m
}

/// Whether the layers add up to the loop's wall-clock total.
pub fn layers_sum_to_wall(d: &Driven) -> bool {
    d.layer_ns.iter().sum::<u64>() == d.wall_ns
}

/// Metrics of the parallel engine's own host profile. Lane phases other
/// than tick and the barrier waits run on the coordinator; each is given
/// as its share of the engine's wall-clock.
pub fn engine_metrics(p: &HostProfile) -> Metrics {
    let wall = p.wall_ns.max(1) as f64;
    let phase =
        |ph: HostPhase| p.lanes.iter().map(|l| l.phase_ns[ph as usize]).sum::<u64>() as f64 / wall;
    let util = p.worker_utilization();
    let mut m = Metrics::new();
    m.set("engine.skip_frac", p.skip_efficiency());
    m.set("engine.epochs", p.epochs as f64);
    m.set("engine.epoch_cycles_mean", p.epoch_cycles.mean());
    m.set("engine.barrier_wait_frac", p.barrier_wait_frac());
    m.set("engine.imbalance", p.imbalance_ratio());
    m.set(
        "engine.worker_tick_frac",
        util.iter().sum::<f64>() / util.len().max(1) as f64,
    );
    m.set("engine.exchange_frac", phase(HostPhase::Exchange));
    m.set("engine.merge_frac", phase(HostPhase::Merge));
    m.set("engine.inject_replay_frac", phase(HostPhase::InjectReplay));
    m.set("engine.quiescence_frac", phase(HostPhase::Quiescence));
    m.set("engine.checks_frac", phase(HostPhase::Checks));
    m.set(
        "engine.capture_replay_frac",
        phase(HostPhase::CaptureReplay),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtp::AppKind;

    /// A small machine: the outside-driven loop must reproduce
    /// `System::run_with(Serial)` exactly, with and without faults and
    /// observers.
    #[test]
    fn outside_driven_loop_matches_the_serial_engine() {
        for (chaos, observed) in [(false, false), (true, false), (false, true)] {
            let w = Workload {
                name: "probe",
                app: AppKind::Fft,
                nodes: 4,
                scale: 0.02,
                chaos,
                observed,
            };
            let (mut m, setup) = assemble(&w, 3);
            assert!(setup.gen_s >= 0.0 && setup.assemble_s > 0.0);
            let d = m.drive().unwrap();
            assert!(layers_sum_to_wall(&d));
            let mut sys = w.build(3, EngineKind::Serial);
            w.arm_observers(&mut sys);
            let stats = sys.run_with(MAX_CYCLES, EngineKind::Serial).unwrap();
            m.matches(&d, &sys, &stats).unwrap();
            assert!(d.delivered > 0);
        }
    }
}
