//! The full-machine simulator: nodes + interconnect + global clock.

use crate::engine::{EngineKind, EngineTuning};
use crate::error::{Diagnosis, RunError, RunErrorKind};
use crate::node::Node;
use crate::stats::RunStats;
use smtp_noc::{Msg, Network};
use smtp_protocol::DirState;
use smtp_trace::{
    Category, CausalSpans, Event, Heartbeat, HostPhase, HostProfile, IntervalSampler, PhaseTimer,
    Tracer,
};
use smtp_types::Ctx;
use smtp_types::{Cycle, FaultSummary, Histogram, NodeId, PhaseProfiler, SystemConfig};
use smtp_workloads::{AppKind, SyncManager, ThreadGen, WorkloadCfg};

/// Cycles between forward-progress checks. The epoch engine cuts its
/// windows on this schedule, and the serial loop's gate is a divisibility
/// test — both assume (and the assertion below guarantees) a power of two,
/// so the hot-path test compiles to a mask.
pub(crate) const WATCHDOG_INTERVAL: Cycle = 8192;

// A silently wrong watchdog schedule is worse than a build break: the gate
// used to be a hand-written mask test that only works for powers of two.
const _: () = assert!(
    WATCHDOG_INTERVAL.is_power_of_two(),
    "WATCHDOG_INTERVAL must be a power of two"
);

/// Consecutive stagnant checks (no progress of any kind) before the run
/// fails as a deadlock.
const DEADLOCK_CHECKS: u64 = 4;

/// Consecutive checks with protocol/network churn but zero application
/// commits before the run fails as a livelock. Deliberately generous: a
/// healthy machine never goes half a million cycles without committing a
/// single application instruction anywhere.
const LIVELOCK_CHECKS: u64 = 64;

/// Forward-progress watchdog state. Pure observer: it reads counters the
/// simulation updates anyway, so a healthy run is bit-identical with or
/// without it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Watchdog {
    /// (app instructions, protocol instructions + handlers, net messages)
    /// at the previous check.
    last_sig: (u64, u64, u64),
    /// Consecutive checks with a completely unchanged signature.
    stagnant: u64,
    /// Consecutive checks with no application commits (but other churn).
    app_stagnant: u64,
}

impl Watchdog {
    /// One watchdog check: escalate through warning trace events to a
    /// structured failure `(kind, message)`. Read-only on simulation state
    /// — a healthy run behaves identically with the watchdog present.
    /// Takes a node *view* rather than `&System` so both execution engines
    /// can drive it (the parallel engine holds its nodes behind locks).
    pub(crate) fn check(
        &mut self,
        nodes: &[&Node],
        network: Option<&Network>,
        app_done: bool,
        tracer: &Tracer,
        now: Cycle,
    ) -> Option<(RunErrorKind, String)> {
        // Unrecoverable injected faults surface immediately.
        for n in nodes {
            if let Some((cycle, protocol)) = n.first_uncorrectable() {
                let chan = if protocol { "protocol" } else { "main" };
                let id = n.id();
                return Some((
                    RunErrorKind::UnrecoverableFault,
                    format!("uncorrectable ECC error on {id:?} {chan} channel at cycle {cycle}"),
                ));
            }
        }
        let sig = progress_signature(nodes, network);
        if sig == self.last_sig {
            self.stagnant += 1;
            let stalled_for = self.stagnant * WATCHDOG_INTERVAL;
            let level = self.stagnant.min(u64::from(u8::MAX)) as u8;
            tracer.emit(Category::Fault, now, || Event::WatchdogWarn {
                level,
                stalled_for,
            });
            if self.stagnant >= DEADLOCK_CHECKS {
                return Some((
                    RunErrorKind::Deadlock,
                    format!("no forward progress for {stalled_for} cycles"),
                ));
            }
        } else {
            self.stagnant = 0;
        }
        // Livelock: the machine churns but the application never advances.
        if !app_done && sig.0 == self.last_sig.0 {
            self.app_stagnant += 1;
            if self.app_stagnant >= LIVELOCK_CHECKS {
                let stalled_for = self.app_stagnant * WATCHDOG_INTERVAL;
                return Some((
                    RunErrorKind::Livelock,
                    format!(
                        "protocol/network activity without an application commit for {stalled_for} cycles"
                    ),
                ));
            }
        } else {
            self.app_stagnant = 0;
        }
        self.last_sig = sig;
        None
    }
}

/// Machine-wide progress signature: anything moving shows up here.
pub(crate) fn progress_signature(nodes: &[&Node], network: Option<&Network>) -> (u64, u64, u64) {
    let mut app = 0;
    let mut prot = 0;
    for n in nodes {
        let p = n.pipeline.stats();
        app += p.committed_app();
        prot += p.committed_protocol() + n.stats.handlers;
    }
    let net = network.map_or(0, |n| n.stats().messages);
    (app, prot, net)
}

/// The online coherence sanitizer: sweep every materialized directory
/// entry in stable state and cross-check the caches. Busy lines are
/// mid-transaction and legitimately inconsistent, so they are skipped.
/// Returns the violation message, if any.
pub(crate) fn coherence_violation(nodes: &[&Node]) -> Option<String> {
    for home in nodes {
        for (line, state) in home.directory.entries() {
            if state.is_busy() {
                continue;
            }
            let mut holder: Option<NodeId> = None;
            for n in nodes {
                if n.mem.line_state(line).is_some_and(|s| s.is_writable()) {
                    if let Some(prev) = holder {
                        return Some(format!(
                            "coherence violation: {line:?} writable at both {prev:?} and {:?}",
                            n.id()
                        ));
                    }
                    holder = Some(n.id());
                }
            }
            if let Some(h) = holder {
                if state != DirState::Exclusive(h) {
                    return Some(format!(
                        "coherence violation: {line:?} writable at {h:?} but directory says {state:?}"
                    ));
                }
            }
        }
    }
    None
}

/// Injected-fault and recovery counters across a node view plus network.
pub(crate) fn fault_summary_of(nodes: &[&Node], network: Option<&Network>) -> FaultSummary {
    let mut s = network.map(|n| n.fault_counters()).unwrap_or_default();
    for n in nodes {
        s.merge(&n.fault_counters());
    }
    s
}

/// Interval-sampling state: the sampler plus the previous counter values
/// needed to turn cumulative statistics into per-interval rates.
pub(crate) struct MetricsState {
    pub(crate) sampler: IntervalSampler,
    prev_committed: Vec<u64>,
    prev_prot_active: Vec<u64>,
    prev_vnet: [u64; 4],
    /// Hot-spot drift columns armed: append per-interval peak home-node
    /// occupancy and peak link utilization to every sample.
    hotspots: bool,
    prev_occ: Vec<u64>,
    prev_link_busy: Vec<u64>,
}

impl MetricsState {
    /// Take one sample at `now` if due (no-op otherwise).
    pub(crate) fn sample(
        &mut self,
        app_threads: usize,
        nodes: &[&Node],
        network: Option<&Network>,
        now: Cycle,
    ) {
        if !self.sampler.due(now) {
            return;
        }
        let interval = self.sampler.interval() as f64;
        let mut values = Vec::with_capacity(4 * nodes.len() + 5);
        for (i, node) in nodes.iter().enumerate() {
            let s = node.pipeline.stats();
            let committed: u64 = s.committed[..app_threads].iter().sum();
            values.push((committed - self.prev_committed[i]) as f64 / interval);
            self.prev_committed[i] = committed;
            let active = s.protocol_active_cycles;
            values.push((active - self.prev_prot_active[i]) as f64 / interval);
            self.prev_prot_active[i] = active;
            values.push(node.mem.mshrs_used() as f64);
            values.push(node.protocol_queue_depth() as f64);
        }
        match network {
            Some(net) => {
                values.push(net.in_flight_count() as f64);
                let per_vnet = net.stats().per_vnet;
                for (prev, &cur) in self.prev_vnet.iter_mut().zip(per_vnet.iter()) {
                    values.push((cur - *prev) as f64 / interval);
                    *prev = cur;
                }
            }
            None => values.extend([0.0; 5]),
        }
        if self.hotspots {
            let mut occ_peak = 0.0f64;
            for (i, node) in nodes.iter().enumerate() {
                let occ = match &node.engine {
                    Some(e) => e.active_cycles(),
                    None => node.pipeline.stats().protocol_active_cycles,
                };
                occ_peak = occ_peak.max((occ - self.prev_occ[i]) as f64 / interval);
                self.prev_occ[i] = occ;
            }
            values.push(occ_peak);
            let mut link_peak = 0.0f64;
            if let Some(net) = network {
                let busy = net.link_busy();
                self.prev_link_busy.resize(busy.len(), 0);
                for (prev, &cur) in self.prev_link_busy.iter_mut().zip(busy.iter()) {
                    link_peak = link_peak.max((cur - *prev) as f64 / interval);
                    *prev = cur;
                }
            }
            values.push(link_peak);
        }
        self.sampler.record(now, values);
    }
}

/// The serial run loop's per-node wake schedule. A node ticked at `now`
/// whose freeze certificate returns bound `b` sleeps until `b`; the
/// stall bookkeeping it skips is settled lazily with [`Node::skip_idle`].
struct IdleSkip {
    /// Next cycle each node must be ticked at.
    wake: Vec<Cycle>,
    /// First cycle of each node's not-yet-settled skip span.
    settled: Vec<Cycle>,
    /// Node-cycles actually ticked.
    ticked: u64,
    /// Node-cycles skipped and settled in bulk.
    skipped: u64,
}

impl IdleSkip {
    fn new(nodes: usize, start: Cycle) -> IdleSkip {
        IdleSkip {
            wake: vec![start; nodes],
            settled: vec![start; nodes],
            ticked: 0,
            skipped: 0,
        }
    }

    /// Apply node `i`'s skipped bookkeeping up to (excluding) cycle `to`.
    fn settle(&mut self, node: &mut Node, i: usize, to: Cycle) {
        let from = self.settled[i];
        if from < to {
            node.skip_idle(from, to);
            self.skipped += to - from;
            self.settled[i] = to;
        }
    }

    /// Settle every node up to (excluding) cycle `to`.
    fn settle_all(&mut self, nodes: &mut [Node], to: Cycle) {
        for (i, node) in nodes.iter_mut().enumerate() {
            self.settle(node, i, to);
        }
    }

    /// Node `i` was just ticked at `now`: schedule its next tick.
    fn after_tick(&mut self, node: &Node, i: usize, now: Cycle) {
        self.ticked += 1;
        self.settled[i] = now + 1;
        self.wake[i] = node.next_activity(now).unwrap_or(now + 1);
    }
}

/// A complete simulated DSM machine running one application.
///
/// Fields are crate-visible so the execution engines
/// ([`crate::engine`]) can take the machine apart (nodes onto worker
/// threads, synchronization fabric behind a gate) and reassemble it.
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) app: AppKind,
    pub(crate) nodes: Vec<Node>,
    pub(crate) network: Option<Network>,
    pub(crate) sync: SyncManager,
    pub(crate) now: Cycle,
    pub(crate) app_done_at: Option<Cycle>,
    pub(crate) tracer: Tracer,
    pub(crate) profiler: PhaseProfiler,
    pub(crate) metrics: Option<MetricsState>,
    pub(crate) causal: Option<CausalSpans>,
    pub(crate) watchdog: Watchdog,
    /// Run the online coherence sanitizer every N cycles, if set.
    pub(crate) invariant_every: Option<Cycle>,
    /// Nodes whose cached [`Node::quiescent`] flag is set — makes the
    /// end-of-run test O(1) per cycle instead of an O(nodes) scan.
    pub(crate) quiet_nodes: usize,
    /// Nodes whose application threads have all finished (monotone).
    pub(crate) finished_nodes: usize,
    /// Reusable outbox drain buffer: the run loop used to allocate a fresh
    /// `Vec` per node per cycle via `Node::take_outbox`.
    pub(crate) outbox_scratch: Vec<(Cycle, Msg)>,
    /// Structured failure recorded mid-tick (e.g. a network message on a
    /// 1-node machine, which used to be an assert), surfaced by the run
    /// loop as a [`RunError`] with a full [`Diagnosis`].
    pub(crate) pending_error: Option<String>,
    /// Host-side telemetry enabled: the execution engines stamp a
    /// monotonic clock at run-loop phase transitions and leave a
    /// [`HostProfile`] behind. Strictly host-side — guest results are
    /// bit-identical either way.
    pub(crate) telemetry: bool,
    /// Live-run heartbeat emitter, if [`System::enable_heartbeat`] was
    /// called (implies telemetry).
    pub(crate) heartbeat: Option<Heartbeat>,
    /// The profile of the most recent telemetry-enabled run.
    pub(crate) host_profile: Option<HostProfile>,
    /// Host-side tuning knobs for the parallel epoch engine. Guest
    /// results are bit-identical for every setting.
    pub(crate) tuning: EngineTuning,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("model", &self.cfg.model)
            .field("nodes", &self.nodes.len())
            .field("app", &self.app)
            .field("now", &self.now)
            .finish()
    }
}

impl System {
    /// Build the machine described by `cfg`, loaded with `app` at the given
    /// workload scale.
    pub fn new(cfg: SystemConfig, app: AppKind, scale: f64) -> System {
        let wl = WorkloadCfg {
            nodes: cfg.nodes,
            app_threads: cfg.app_threads,
            scale,
            prefetch: true,
        };
        Self::with_workload(cfg, app, wl)
    }

    /// Build the machine with full workload-construction control.
    pub fn with_workload(cfg: SystemConfig, app: AppKind, wl: WorkloadCfg) -> System {
        cfg.validate();
        assert_eq!(wl.nodes, cfg.nodes);
        assert_eq!(wl.app_threads, cfg.app_threads);
        let nodes = (0..cfg.nodes)
            .map(|i| Node::new(NodeId(i as u16), &cfg, app, &wl))
            .collect();
        Self::assemble(cfg, app, nodes)
    }

    /// Build a machine running caller-provided workload generators — the
    /// public hook for custom [`smtp_workloads::Kernel`] implementations.
    /// `factory` is called once per (node, application context).
    pub fn with_threads(
        cfg: SystemConfig,
        mut factory: impl FnMut(NodeId, Ctx) -> ThreadGen,
    ) -> System {
        cfg.validate();
        let nodes = (0..cfg.nodes)
            .map(|i| {
                let id = NodeId(i as u16);
                let gens = (0..cfg.app_threads)
                    .map(|c| factory(id, Ctx(c as u8)))
                    .collect();
                Node::with_threads(id, &cfg, gens)
            })
            .collect();
        Self::assemble(cfg, AppKind::Fft, nodes)
    }

    fn assemble(cfg: SystemConfig, app: AppKind, mut nodes: Vec<Node>) -> System {
        let mut network = (cfg.nodes > 1).then(|| Network::new(cfg.nodes, cfg.cpu_ghz, &cfg.net));
        let sync = SyncManager::new(cfg.total_app_threads());
        // One tracer shared by every component. It starts with an empty
        // category mask — each emission point costs a single branch until
        // [`Tracer::set_mask`]/[`Tracer::enable_all`] turns categories on —
        // and a diagnostics ring so enabled runs keep their recent history
        // for deadlock panics.
        let tracer = Tracer::new();
        tracer.enable_ring(128);
        // One phase profiler shared the same way: every L2 miss transaction
        // is stamped at its phase boundaries by the cache hierarchy, the
        // node's MC interfaces and the network, keyed by (requester, line).
        let profiler = PhaseProfiler::new();
        for n in &mut nodes {
            n.set_tracer(tracer.clone());
            n.set_profiler(profiler.clone());
        }
        if let Some(net) = &mut network {
            net.set_tracer(tracer.clone());
            net.set_profiler(profiler.clone());
        }
        // Arm the fault-injection hooks described by the config. Each hook
        // gates itself, so this is a no-op for the default (all-off) plan
        // and the assembled machine is bit-identical to one without hooks.
        if cfg.faults.is_active() {
            for n in &mut nodes {
                n.set_faults(&cfg.faults);
            }
            if let Some(net) = &mut network {
                net.set_faults(&cfg.faults);
            }
        }
        System {
            cfg,
            app,
            nodes,
            network,
            sync,
            now: 0,
            app_done_at: None,
            tracer,
            profiler,
            metrics: None,
            causal: None,
            watchdog: Watchdog::default(),
            invariant_every: None,
            quiet_nodes: 0,
            finished_nodes: 0,
            outbox_scratch: Vec::new(),
            pending_error: None,
            telemetry: false,
            heartbeat: None,
            host_profile: None,
            tuning: EngineTuning::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The system tracer. Enable categories and attach sinks through this
    /// handle; every component shares it.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The latency phase profiler shared by every component. Use
    /// [`smtp_types::PhaseProfiler::keep_records`] before running to retain
    /// individual transaction records in addition to the aggregate.
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.profiler
    }

    /// Start interval sampling of machine metrics every `interval` cycles:
    /// per-node IPC, protocol-thread occupancy, MSHR usage and protocol
    /// queue depth, plus network in-flight count and per-virtual-network
    /// message rates. Retrieve the series with [`System::metrics`].
    pub fn enable_metrics(&mut self, interval: Cycle) {
        self.build_metrics(interval, false);
    }

    /// Like [`System::enable_metrics`], with two extra columns tracking
    /// hot-spot drift over time: `hot_home_occ` (the interval's peak
    /// per-node protocol occupancy) and `hot_link_util` (the interval's
    /// peak per-link busy fraction).
    pub fn enable_metrics_hotspots(&mut self, interval: Cycle) {
        self.build_metrics(interval, true);
    }

    fn build_metrics(&mut self, interval: Cycle, hotspots: bool) {
        let n = self.nodes.len();
        let mut columns = Vec::with_capacity(4 * n + 7);
        for i in 0..n {
            columns.push(format!("ipc{i}"));
            columns.push(format!("prot_occ{i}"));
            columns.push(format!("mshr{i}"));
            columns.push(format!("queue{i}"));
        }
        columns.push("net_inflight".to_string());
        for v in 0..4 {
            columns.push(format!("vn{v}"));
        }
        if hotspots {
            columns.push("hot_home_occ".to_string());
            columns.push("hot_link_util".to_string());
        }
        let links = self.network.as_ref().map_or(0, |net| net.link_busy().len());
        self.metrics = Some(MetricsState {
            sampler: IntervalSampler::new(interval, columns),
            prev_committed: vec![0; n],
            prev_prot_active: vec![0; n],
            prev_vnet: [0; 4],
            hotspots,
            prev_occ: vec![0; n],
            prev_link_busy: vec![0; links],
        });
    }

    /// The sampled metrics time-series, if [`System::enable_metrics`] was
    /// called.
    pub fn metrics(&self) -> Option<&IntervalSampler> {
        self.metrics.as_ref().map(|m| &m.sampler)
    }

    /// Turn on spatial hot-spot attribution: every directory (home side)
    /// and cache hierarchy (requester side) gets a deterministic
    /// Space-Saving tracker of capacity `top_k`, and
    /// [`RunStats::spatial`](crate::RunStats) carries the merged, classified
    /// hot-line list after the run. The per-home heatmap and per-link
    /// utilization matrix are collected regardless; this only arms the
    /// per-line layer. Counters mutate exclusively on real protocol/cache
    /// activity, so serial and parallel runs stay bit-identical.
    pub fn enable_spatial(&mut self, top_k: usize) {
        for n in &mut self.nodes {
            n.directory.enable_spatial(top_k);
            n.mem.enable_spatial(top_k);
        }
    }

    /// Whether spatial hot-spot attribution is armed.
    pub fn spatial_enabled(&self) -> bool {
        self.nodes
            .first()
            .is_some_and(|n| n.mem.spatial().is_some())
    }

    /// Turn on causal-span analysis: attach a [`CausalSpans`] sink to the
    /// tracer and enable the categories that carry span-stamped events
    /// (cache, protocol, network, SDRAM). The analyzer reconstructs each
    /// transaction's causal DAG, folds its critical path into the run-level
    /// breakdown reported in [`RunStats::critical_path`], and keeps the
    /// `top_k` slowest transactions as full-tree exemplars. On a deadlock,
    /// still-open spans are dumped into the [`Diagnosis`]. Returns the
    /// shared handle for direct queries (exemplars, open spans).
    pub fn enable_causal_spans(&mut self, top_k: usize) -> CausalSpans {
        let causal = self.causal.get_or_insert_with(|| {
            let c = CausalSpans::new(top_k);
            self.tracer.add_sink(c.sink());
            self.tracer.set_mask(
                self.tracer.mask()
                    | Category::Cache.bit()
                    | Category::Protocol.bit()
                    | Category::Network.bit()
                    | Category::Sdram.bit(),
            );
            c
        });
        causal.clone()
    }

    /// The causal-span analyzer, if [`System::enable_causal_spans`] was
    /// called.
    pub fn causal_spans(&self) -> Option<&CausalSpans> {
        self.causal.as_ref()
    }

    fn sample_metrics(&mut self, now: Cycle) {
        // Check dueness before building the node view: the common case is
        // "not due" (or sampling disabled) and must stay allocation-free.
        if !self.metrics.as_ref().is_some_and(|m| m.sampler.due(now)) {
            return;
        }
        let nodes: Vec<&Node> = self.nodes.iter().collect();
        let m = self.metrics.as_mut().expect("dueness checked");
        m.sample(self.cfg.app_threads, &nodes, self.network.as_ref(), now);
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advance one cycle, ticking every node. This is the plain
    /// cycle-by-cycle step: it never idle-skips, which makes a loop of
    /// `tick` calls the independent oracle for the freeze certificates
    /// ([`Node::next_activity`]) that both run engines skip by.
    pub fn tick(&mut self) {
        let now = self.now;
        if let Some(net) = &mut self.network {
            while let Some(msg) = net.pop_arrived(now) {
                self.nodes[msg.dst.idx()].receive(msg, now);
            }
        }
        for i in 0..self.nodes.len() {
            self.tick_node(i, now);
        }
        self.end_cycle(now);
    }

    /// One cycle of the serial run loop: [`System::tick`], except that
    /// nodes asleep under a freeze certificate are not ticked. A delivery
    /// wakes its destination early; every other read of node state from
    /// outside settles the sleepers first.
    fn tick_skipping(&mut self, idle: &mut IdleSkip) {
        let now = self.now;
        if let Some(net) = &mut self.network {
            while let Some(msg) = net.pop_arrived(now) {
                let d = msg.dst.idx();
                idle.settle(&mut self.nodes[d], d, now);
                idle.wake[d] = now;
                self.nodes[d].receive(msg, now);
            }
        }
        for i in 0..self.nodes.len() {
            if idle.wake[i] > now {
                continue;
            }
            idle.settle(&mut self.nodes[i], i, now);
            self.tick_node(i, now);
            idle.after_tick(&self.nodes[i], i, now);
        }
        // The sampler reads per-node counters the sleepers still owe.
        if self.metrics.as_ref().is_some_and(|m| m.sampler.due(now)) {
            idle.settle_all(&mut self.nodes, now + 1);
        }
        self.end_cycle(now);
    }

    /// Tick node `i` at `now` and route its outbox into the network: the
    /// per-node body shared by [`System::tick`] and the serial run loop.
    fn tick_node(&mut self, i: usize, now: Cycle) {
        let node = &mut self.nodes[i];
        let was_quiet = node.quiescent();
        let was_finished = node.app_finished();
        node.tick(now, &mut self.sync);
        if node.quiescent() != was_quiet {
            if was_quiet {
                self.quiet_nodes -= 1;
            } else {
                self.quiet_nodes += 1;
            }
        }
        if node.app_finished() && !was_finished {
            self.finished_nodes += 1;
        }
        node.drain_outbox(&mut self.outbox_scratch);
        if let Some(net) = &mut self.network {
            for (at, msg) in self.outbox_scratch.drain(..) {
                net.inject(at.max(now), msg);
            }
        } else if !self.outbox_scratch.is_empty() {
            // A 1-node machine has no network; a message bound for a
            // remote node means the address map or protocol is broken.
            // Record a structured failure for the run loop instead of
            // crashing mid-tick.
            let id = node.id();
            self.outbox_scratch.clear();
            self.pending_error.get_or_insert_with(|| {
                format!("network message emitted on a 1-node machine by {id:?} at cycle {now}")
            });
        }
    }

    /// Close cycle `now`: application-completion mark, metrics sample,
    /// clock advance.
    fn end_cycle(&mut self, now: Cycle) {
        if self.app_done_at.is_none() && self.finished_nodes == self.nodes.len() {
            self.app_done_at = Some(now);
        }
        self.sample_metrics(now);
        self.now += 1;
    }

    /// Whether the application has completed *and* all protocol activity
    /// has drained. O(1): maintained from the per-node cached flags.
    pub fn quiesced(&self) -> bool {
        let quiet = self.app_done_at.is_some()
            && self.quiet_nodes == self.nodes.len()
            && self
                .network
                .as_ref()
                .is_none_or(|n| n.in_flight_count() == 0);
        debug_assert_eq!(
            quiet,
            self.app_done_at.is_some()
                && self.nodes.iter().all(|n| n.quiesced())
                && self
                    .network
                    .as_ref()
                    .is_none_or(|n| n.in_flight_count() == 0),
            "cached per-node quiescence diverged from a full scan"
        );
        quiet
    }

    /// Run the online coherence-invariant sanitizer every `every` cycles:
    /// at most one node may hold a writable copy of any stable line, and a
    /// writable holder must match the directory's exclusive owner. A
    /// violation ends the run with an [`RunErrorKind::UnrecoverableFault`]
    /// instead of silently corrupting results.
    pub fn enable_invariant_checks(&mut self, every: Cycle) {
        self.invariant_every = Some(every.max(1));
    }

    /// Turn on host-side engine telemetry: the run loop stamps a monotonic
    /// clock at every phase transition (tick/compute, barrier waits,
    /// merge, capture/injection replay, quiescence retraction, checks) and
    /// leaves a [`HostProfile`] behind — per-lane wall-clock attribution
    /// whose phase sums telescope to the lane totals, plus per-epoch
    /// counters (epoch length, ticked vs. idle-skipped node-cycles,
    /// barrier message counts, worker imbalance). Strictly host-side:
    /// guest-visible results are bit-identical with telemetry on or off.
    /// Retrieve the profile with [`System::host_profile`] after the run.
    pub fn enable_host_telemetry(&mut self) {
        self.telemetry = true;
    }

    /// Emit a live-run heartbeat roughly every `every` simulated cycles
    /// (snapped to the engine's epoch boundaries): one flushed JSONL
    /// record per beat with the current cycle, simulated cycles per wall
    /// second, epoch rate and per-worker utilization, written to `out`
    /// (`None` = stderr). Implies [`System::enable_host_telemetry`]. Each
    /// line is flushed as it is written, so an interrupted run still
    /// leaves a line-complete log.
    pub fn enable_heartbeat(&mut self, every: Cycle, out: Option<Box<dyn std::io::Write + Send>>) {
        self.telemetry = true;
        self.heartbeat = Some(Heartbeat::new(every, out));
    }

    /// Set the parallel engine's host-side tuning knobs (adaptive epoch
    /// bound, periodic load-driven repartitioning). Strictly a wall-clock
    /// matter: guest-visible results are bit-identical for every setting,
    /// which the `engine_equivalence` grid enforces. The serial engine
    /// ignores tuning entirely.
    pub fn set_engine_tuning(&mut self, tuning: EngineTuning) {
        self.tuning = tuning;
    }

    /// The parallel engine tuning currently in effect.
    pub fn engine_tuning(&self) -> EngineTuning {
        self.tuning
    }

    /// The host-side profile of the most recent run, if
    /// [`System::enable_host_telemetry`] (or the heartbeat) was on.
    pub fn host_profile(&self) -> Option<&HostProfile> {
        self.host_profile.as_ref()
    }

    /// Take ownership of the most recent run's host profile.
    pub fn take_host_profile(&mut self) -> Option<HostProfile> {
        self.host_profile.take()
    }

    /// Run to completion on the serial reference engine. `Ok` carries the
    /// collected statistics; `Err` carries the failure class
    /// ([`RunErrorKind`]) and a machine-state [`Diagnosis`]. The escalating
    /// forward-progress watchdog converts deadlocks, livelocks and
    /// unrecoverable faults into structured errors; exhausting `max_cycles`
    /// before quiescence reports as a deadlock. The tracer is flushed on
    /// both paths.
    ///
    /// The serial engine ticks nodes in index order, one cycle at a time,
    /// but skips a node's provably idle cycles: after each tick it asks the
    /// node's freeze certificate ([`Node::next_activity`]) and does not
    /// tick it again before the bound, unless a network delivery wakes it
    /// early. The skipped stall bookkeeping is settled in bulk
    /// ([`Node::skip_idle`]) before anything reads node state (checks,
    /// samples, errors, run exit), so the results are bit-identical to a
    /// loop of [`System::tick`]. Fault-armed nodes never certify and are
    /// ticked every cycle.
    pub fn run(&mut self, max_cycles: Cycle) -> Result<RunStats, RunError> {
        self.run_with(max_cycles, EngineKind::Serial)
    }

    /// Run to completion on the chosen execution engine. Both engines
    /// produce bit-identical statistics, trace streams and fault behavior;
    /// [`EngineKind::Parallel`] is a performance choice, not a semantic
    /// one.
    pub fn run_with(
        &mut self,
        max_cycles: Cycle,
        engine: EngineKind,
    ) -> Result<RunStats, RunError> {
        match engine {
            EngineKind::Serial => self.run_serial(max_cycles),
            EngineKind::Parallel => crate::engine::run_parallel(self, max_cycles),
        }
    }

    fn run_serial(&mut self, max_cycles: Cycle) -> Result<RunStats, RunError> {
        // Host telemetry for the serial reference loop, in the same
        // HostProfile shape the parallel engine produces: one lane, no
        // barrier phases, with WATCHDOG_INTERVAL segments standing in as
        // "epochs" so per-epoch histograms are directly comparable.
        self.host_profile = None;
        let mut timer = self.telemetry.then(|| PhaseTimer::new(HostPhase::Tick));
        let mut epoch_cycles = Histogram::new();
        let mut epochs: u64 = 0;
        let start_cycle = self.now;
        let mut epoch_start = self.now;
        if let Some(hb) = &mut self.heartbeat {
            hb.start(start_cycle);
            // Initial liveness record at the run start, so even a run
            // shorter than one heartbeat interval leaves a line-complete
            // log.
            hb.emit(start_cycle, "serial", 1, 0, &[0.0]);
        }
        let mut idle = IdleSkip::new(self.nodes.len(), start_cycle);
        let res: Result<(), RunError> = 'run: {
            while !self.quiesced() {
                self.tick_skipping(&mut idle);
                // Everything below reads node state: settle the sleepers
                // on any cycle where a check, an error or the budget fires.
                let now = self.now;
                if self.pending_error.is_some()
                    || now.is_multiple_of(WATCHDOG_INTERVAL)
                    || self.invariant_every.is_some_and(|e| now.is_multiple_of(e))
                    || now >= max_cycles
                {
                    idle.settle_all(&mut self.nodes, now);
                }
                if let Some(msg) = self.pending_error.take() {
                    break 'run Err(self.run_error(RunErrorKind::UnrecoverableFault, msg));
                }
                if self.now.is_multiple_of(WATCHDOG_INTERVAL) {
                    if let Some(t) = &mut timer {
                        t.switch(HostPhase::Checks);
                    }
                    let fail = self.watchdog_check();
                    if let Some(t) = &mut timer {
                        t.switch(HostPhase::Other);
                        epoch_cycles.record(self.now - epoch_start);
                        t.end_epoch();
                        epochs += 1;
                        epoch_start = self.now;
                        if self.heartbeat.as_ref().is_some_and(|hb| hb.due(self.now)) {
                            // Serial "utilization" is the loop's tick share
                            // of wall-clock so far.
                            t.flush();
                            let all_ns = t.charged_ns();
                            let util = if all_ns == 0 {
                                0.0
                            } else {
                                t.phase_total_ns(HostPhase::Tick) as f64 / all_ns as f64
                            };
                            let mut hb = self.heartbeat.take().expect("dueness checked");
                            hb.emit(self.now, "serial", 1, epochs, &[util]);
                            self.heartbeat = Some(hb);
                        }
                        t.switch(HostPhase::Tick);
                    }
                    if let Some(err) = fail {
                        break 'run Err(err);
                    }
                }
                if let Some(every) = self.invariant_every {
                    if self.now.is_multiple_of(every) {
                        if let Some(t) = &mut timer {
                            t.switch(HostPhase::Checks);
                        }
                        let fail = self.check_coherence();
                        if let Some(t) = &mut timer {
                            t.switch(HostPhase::Tick);
                        }
                        if let Some(err) = fail {
                            break 'run Err(err);
                        }
                    }
                }
                if self.now >= max_cycles {
                    break 'run Err(self.run_error(
                        RunErrorKind::Deadlock,
                        format!(
                            "{:?} {} x{} ({}-way) did not quiesce in {max_cycles} cycles",
                            self.cfg.model, self.app, self.cfg.nodes, self.cfg.app_threads
                        ),
                    ));
                }
            }
            Ok(())
        };
        idle.settle_all(&mut self.nodes, self.now);
        self.tracer.flush();
        if let Some(mut t) = timer {
            if self.now > epoch_start {
                // Close the final partial epoch.
                t.flush();
                epoch_cycles.record(self.now - epoch_start);
                t.end_epoch();
                epochs += 1;
            }
            if self.heartbeat.is_some() {
                // Final liveness record at the run end, closing the log
                // even when the run never crossed a heartbeat interval.
                t.flush();
                let all_ns = t.charged_ns();
                let util = if all_ns == 0 {
                    0.0
                } else {
                    t.phase_total_ns(HostPhase::Tick) as f64 / all_ns as f64
                };
                let mut hb = self.heartbeat.take().expect("checked");
                hb.emit(self.now, "serial", 1, epochs, &[util]);
                self.heartbeat = Some(hb);
            }
            let lane = t.finish("serial");
            let sim_cycles = self.now - start_cycle;
            self.host_profile = Some(HostProfile {
                engine: "serial".to_string(),
                workers: 1,
                epochs,
                lookahead: 0,
                sim_cycles,
                wall_ns: lane.total_ns,
                lanes: vec![lane],
                epoch_cycles,
                barrier_msgs: Histogram::new(),
                imbalance_x1000: Histogram::new(),
                ticked_cycles: idle.ticked,
                skipped_cycles: idle.skipped,
            });
        }
        res.map(|()| self.collect())
    }

    fn watchdog_check(&mut self) -> Option<RunError> {
        let nodes: Vec<&Node> = self.nodes.iter().collect();
        let fail = self.watchdog.check(
            &nodes,
            self.network.as_ref(),
            self.app_done_at.is_some(),
            &self.tracer,
            self.now,
        );
        drop(nodes);
        let (kind, msg) = fail?;
        Some(self.run_error(kind, msg))
    }

    fn check_coherence(&self) -> Option<RunError> {
        let nodes: Vec<&Node> = self.nodes.iter().collect();
        let msg = coherence_violation(&nodes)?;
        drop(nodes);
        Some(self.run_error(RunErrorKind::UnrecoverableFault, msg))
    }

    /// Injected-fault and recovery counters across the whole machine.
    pub fn fault_summary(&self) -> FaultSummary {
        let nodes: Vec<&Node> = self.nodes.iter().collect();
        fault_summary_of(&nodes, self.network.as_ref())
    }

    pub(crate) fn run_error(&self, kind: RunErrorKind, message: String) -> RunError {
        RunError {
            kind,
            cycle: self.now,
            message,
            diagnosis: Box::new(self.diagnose()),
        }
    }

    /// Gather the machine-state evidence attached to every [`RunError`].
    fn diagnose(&self) -> Diagnosis {
        let mut nodes = Vec::with_capacity(self.nodes.len() * 2);
        let mut busy_lines = Vec::new();
        for n in &self.nodes {
            let s = n.pipeline.stats();
            nodes.push(format!(
                "{:?}: finished={} committed={:?} prot_quiesced={} dir_busy={} pending={}",
                n.id(),
                n.pipeline.finished(),
                &s.committed,
                n.pipeline.protocol_quiesced(),
                n.directory.any_busy(),
                n.directory.pending_len(),
            ));
            nodes.push(format!("  queues: {}", n.debug_queues()));
            for (line, st) in n.directory.busy_lines() {
                busy_lines.push(format!("busy {line:?} state={st:?}"));
                for peer in &self.nodes {
                    busy_lines.push(format!(
                        "  at {:?}: {}",
                        peer.id(),
                        peer.mem.debug_line(line)
                    ));
                }
            }
        }
        let stuck_transactions = self
            .profiler
            .open_records()
            .iter()
            .take(8)
            .map(|r| {
                let (b, at) = PhaseProfiler::last_progress(r);
                format!(
                    "{:?} {:?} {:?}: last boundary {b:?} at cycle {at} ({} cycles ago)",
                    r.requester,
                    r.line,
                    r.class,
                    self.now.saturating_sub(at)
                )
            })
            .collect();
        // With causal spans enabled, dump every still-open transaction as
        // an annotated span tree: the exact trail of messages and handlers
        // the wedged transaction got through before it stopped.
        let open_spans = self
            .causal
            .as_ref()
            .map(|c| {
                c.open_spans()
                    .iter()
                    .take(8)
                    .map(|ex| ex.render_tree())
                    .collect()
            })
            .unwrap_or_default();
        Diagnosis {
            nodes,
            busy_lines,
            stuck_transactions,
            open_spans,
            recent_events: self.tracer.ring_dump(),
            faults: self.fault_summary(),
        }
    }

    /// Gather statistics from every component.
    pub fn collect(&self) -> RunStats {
        RunStats::collect(
            &self.cfg,
            self.app,
            self.app_done_at.unwrap_or(self.now),
            &self.nodes,
            self.network.as_ref(),
            &self.sync,
            &self.profiler,
            self.causal.as_ref(),
        )
    }

    /// Node access for white-box tests.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }
}
