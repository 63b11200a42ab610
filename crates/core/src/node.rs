//! One DSM node: SMT pipeline + caches + directory + memory controller,
//! assembled per machine model.

use smtp_cache::{Grant, IntervResult, InvalResult, MemEvent, MemHierarchy, MissKind};
use smtp_isa::{Inst, SyncCond, SyncEnv, SyncOp, SyncOutcome};
use smtp_mem::{DirCache, ProtocolEngine, Sdram, TimedQueue};
use smtp_noc::{Msg, MsgKind};
use smtp_pipeline::{PipeEnv, SmtPipeline};
use smtp_protocol::{handler_program, Directory, DispatchGovernor, HandlerStats, Transition};
use smtp_trace::{Category, Event, HandlerClass, StallClass, Tracer};
use smtp_types::faults::SITE_DISPATCH;
use smtp_types::{
    Ctx, Cycle, Distribution, FaultConfig, FaultSummary, FaultWindows, LineAddr, MachineModel,
    NodeId, PhaseBoundary, PhaseProfiler, Region, SpanId, SystemConfig,
};
use smtp_workloads::{make_thread, AppKind, ThreadGen, WorkloadCfg};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A coherence handler instance being executed by the protocol thread.
#[derive(Debug)]
struct HandlerInstance {
    prog: Vec<Inst>,
    pos: usize,
    sends: Vec<Msg>,
    data_reply: Option<usize>,
    data_ready_at: Cycle,
    /// Line this handler serves (trace attribution).
    line: LineAddr,
    /// Handler class (trace attribution).
    handler: HandlerClass,
    /// Per-node dispatch sequence number, matching the `handler_dispatch`
    /// trace event this instance was announced with.
    trace_seq: u64,
    /// Cycle the dispatch unit accepted this handler (occupancy stats).
    dispatched_at: Cycle,
    /// [`smtp_protocol::HandlerKind`] index (occupancy stats).
    kind_idx: usize,
    /// Causal span of the transaction this handler serves.
    span: SpanId,
}

/// The SMTp handler dispatch unit (paper §2.1): selects queued
/// transactions, computes the handler PC, and feeds the protocol thread's
/// fetch. With look-ahead scheduling (§2.3) the next handler's first
/// instruction is handed to fetch as soon as the previous handler's fetch
/// completes; otherwise it waits for the previous `ldctxt` to graduate.
#[derive(Debug)]
pub struct DispatchUnit {
    las: bool,
    running: VecDeque<HandlerInstance>,
    fetch_idx: usize,
    /// Handlers dispatched in total.
    pub handlers: u64,
    /// Handlers whose fetch began via look-ahead.
    pub look_ahead: u64,
}

impl DispatchUnit {
    fn new(las: bool) -> DispatchUnit {
        DispatchUnit {
            las,
            running: VecDeque::with_capacity(2),
            fetch_idx: 0,
            handlers: 0,
            look_ahead: 0,
        }
    }

    fn can_accept(&self) -> bool {
        self.running.len() < if self.las { 2 } else { 1 }
    }

    fn enqueue(&mut self, h: HandlerInstance) {
        debug_assert!(self.can_accept());
        self.handlers += 1;
        self.running.push_back(h);
    }

    fn next_inst(&mut self) -> Option<Inst> {
        loop {
            let idx = self.fetch_idx;
            let h = self.running.get_mut(idx)?;
            if h.pos < h.prog.len() {
                let i = h.prog[h.pos];
                h.pos += 1;
                return Some(i);
            }
            if self.las && idx + 1 < self.running.len() {
                self.fetch_idx = idx + 1;
                self.look_ahead += 1;
                continue;
            }
            return None;
        }
    }

    /// The graduating handler's `msg_idx`-th send, and the cycle it may
    /// actually leave (data replies wait for SDRAM).
    fn send_msg(&self, idx: u8, now: Cycle) -> (Msg, Cycle) {
        let h = self.running.front().expect("send without running handler");
        let msg = h.sends[idx as usize];
        let at = if h.data_reply == Some(idx as usize) {
            now.max(h.data_ready_at)
        } else {
            now
        };
        (msg, at)
    }

    fn ldctxt_graduated(&mut self) -> HandlerInstance {
        let h = self
            .running
            .pop_front()
            .expect("ldctxt without running handler");
        debug_assert_eq!(
            h.pos,
            h.prog.len(),
            "handler graduated before fetch finished"
        );
        self.fetch_idx = self.fetch_idx.saturating_sub(1);
        h
    }

    /// Whether no handler is running or queued.
    pub fn idle(&self) -> bool {
        self.running.is_empty()
    }

    /// Diagnostics: (instances, fetch_idx, per-instance pos/len).
    pub fn debug_state(&self) -> String {
        let inst: Vec<String> = self
            .running
            .iter()
            .map(|h| format!("{}/{}", h.pos, h.prog.len()))
            .collect();
        format!("running={:?} fetch_idx={}", inst, self.fetch_idx)
    }
}

/// Deferred node-local events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pending {
    /// Deliver a message to this node (local traffic and timed emissions).
    Deliver(Msg),
    /// Complete a fill from local SDRAM (code / protocol / local data).
    Fill(LineAddr, Grant),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Timed {
    at: Cycle,
    seq: u64,
    what: Pending,
}

impl Ord for Timed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Actions recorded by the pipeline environment during a tick, replayed
/// against the dispatch unit afterwards.
#[derive(Clone, Copy, Debug)]
enum ProtAction {
    Send(u8, Cycle),
    Ldctxt,
}

/// Per-node statistics beyond what the sub-components track.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Messages sent into the network.
    pub msgs_out: u64,
    /// Local (same-node) protocol messages.
    pub msgs_local: u64,
    /// Peak local-miss-interface queue depth.
    pub lmi_peak: usize,
    /// Peak network-interface input queue depth.
    pub ni_peak: usize,
    /// Handlers executed on the embedded engine or protocol thread.
    pub handlers: u64,
}

/// One DSM node.
pub struct Node {
    id: NodeId,
    model: MachineModel,
    mc_div: u64,
    /// System-bus cycles (CPU clock) for a header-sized L2<->MC transfer.
    bus_req: u64,
    /// System-bus cycles for a full cache-line transfer (Table 3: 64-bit
    /// bus at the memory-controller clock).
    bus_data: u64,
    /// The SMT pipeline.
    pub pipeline: SmtPipeline,
    /// The cache hierarchy.
    pub mem: MemHierarchy,
    /// The directory for lines homed here.
    pub directory: Directory,
    /// The SDRAM.
    pub sdram: Sdram,
    /// The embedded protocol engine (non-SMTp models).
    pub engine: Option<ProtocolEngine>,
    /// The SMTp handler dispatch unit.
    pub dispatch: DispatchUnit,
    gens: Vec<ThreadGen>,
    lmi: TimedQueue<Msg>,
    ni_in: TimedQueue<Msg>,
    replay: VecDeque<Msg>,
    events: BinaryHeap<Reverse<Timed>>,
    seq: u64,
    actions: Vec<ProtAction>,
    outbox: Vec<(Cycle, Msg)>,
    trace_line: Option<u64>,
    tracer: Tracer,
    profiler: PhaseProfiler,
    /// Fault-injection gate for handler dispatch (starvation, delays).
    governor: DispatchGovernor,
    /// Whether any fault hook on this node is armed (skips event polling
    /// with one branch when not).
    faults_armed: bool,
    /// Cached result of [`Node::quiesced`], refreshed at the end of every
    /// [`Node::tick`] so the system's end-of-run test is O(1) per cycle
    /// instead of a full component scan per node.
    quiescent: bool,
    /// Cached `pipeline.finished()` (monotone), refreshed with
    /// [`Node::quiescent`] so the system's application-done test is O(1).
    app_finished: bool,
    /// Fault-stream snapshots taken by the epoch engine on quiescent
    /// ticks, keyed by loop-top cycle, so [`Node::retract_idle`] can also
    /// rewind the per-cycle fault draws (governor polls, stall-window
    /// checks) that those ticks consumed. Always empty under the serial
    /// engine and with faults disarmed.
    fault_rewinds: Vec<(Cycle, FaultRewind)>,
    /// Extra statistics.
    pub stats: NodeStats,
    /// Per-handler-kind dispatch counts and occupancy.
    pub handler_stats: HandlerStats,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("model", &self.model)
            .finish()
    }
}

impl Node {
    /// Assemble a node for the given machine model and application.
    pub fn new(id: NodeId, cfg: &SystemConfig, app: AppKind, wl: &WorkloadCfg) -> Node {
        let gens = (0..cfg.app_threads)
            .map(|c| make_thread(app, wl, id, Ctx(c as u8)))
            .collect();
        Node::with_threads(id, cfg, gens)
    }

    /// Assemble a node with caller-provided workload generators (one per
    /// application context) — the hook for custom [`smtp_workloads::Kernel`]s.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `cfg.app_threads` generators are supplied.
    pub fn with_threads(id: NodeId, cfg: &SystemConfig, gens: Vec<ThreadGen>) -> Node {
        assert_eq!(gens.len(), cfg.app_threads, "one generator per app context");
        let smtp = cfg.model.uses_protocol_thread();
        let pipeline = SmtPipeline::new(id, &cfg.pipeline, cfg.app_threads, smtp);
        let mem = MemHierarchy::new(id, &cfg.pipeline, smtp);
        let sdram = Sdram::from_ns(cfg.cpu_ghz, cfg.mem.sdram_access_ns, cfg.mem.sdram_bw_gbps);
        let engine = if cfg.model.has_protocol_engine() {
            let dircache = match cfg.model.dir_cache_kb() {
                Some(kb) => DirCache::direct_mapped(
                    (kb / cfg.mem.dir_cache_scale_div).max(1),
                    cfg.mem.dir_cache_line,
                ),
                None => DirCache::perfect(),
            };
            Some(ProtocolEngine::new(
                cfg.mc_divisor(),
                sdram.access_cycles(),
                dircache,
                cfg.mem.pp_icache_bytes,
            ))
        } else {
            None
        };
        let div = cfg.mc_divisor();
        Node {
            id,
            model: cfg.model,
            mc_div: div,
            bus_req: (cfg.net.header_bytes / cfg.mem.bus_bytes).max(1) * div,
            bus_data: (smtp_types::L2_LINE / cfg.mem.bus_bytes) * div,
            pipeline,
            mem,
            directory: Directory::new(id),
            sdram,
            engine,
            dispatch: DispatchUnit::new(smtp && cfg.pipeline.look_ahead_scheduling),
            gens,
            lmi: TimedQueue::new(),
            ni_in: TimedQueue::new(),
            replay: VecDeque::new(),
            events: BinaryHeap::new(),
            seq: 0,
            actions: Vec::new(),
            outbox: Vec::new(),
            trace_line: std::env::var("SMTP_TRACE_LINE")
                .ok()
                .and_then(|v| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok()),
            tracer: Tracer::disabled(),
            profiler: PhaseProfiler::disabled(),
            governor: DispatchGovernor::disabled(),
            faults_armed: false,
            quiescent: false,
            app_finished: false,
            fault_rewinds: Vec::new(),
            stats: NodeStats::default(),
            handler_stats: HandlerStats::new(),
        }
    }

    /// Attach the system tracer to this node and all its sub-components.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.pipeline.set_tracer(tracer.clone());
        self.mem.set_tracer(tracer.clone());
        self.directory.set_tracer(tracer.clone());
        self.sdram.set_tracer(self.id, tracer.clone());
        self.tracer = tracer;
    }

    /// Attach the latency phase profiler to this node and its hierarchy.
    pub fn set_profiler(&mut self, profiler: PhaseProfiler) {
        self.mem.set_profiler(profiler.clone());
        self.profiler = profiler;
    }

    /// Arm this node's fault-injection hooks (ECC on SDRAM reads,
    /// dispatch-queue stall windows, protocol-thread starvation and handler
    /// delays). A no-op unless `faults` is enabled with nonzero rates.
    pub fn set_faults(&mut self, faults: &FaultConfig) {
        if !faults.enabled {
            return;
        }
        self.sdram.set_faults(faults, self.id);
        if faults.dispatch_stall.any() {
            let node = u64::from(self.id.0);
            self.lmi.set_stall(FaultWindows::new(
                faults.stream(SITE_DISPATCH ^ node),
                &faults.dispatch_stall,
            ));
            self.ni_in.set_stall(FaultWindows::new(
                faults.stream(SITE_DISPATCH ^ node ^ (1 << 32)),
                &faults.dispatch_stall,
            ));
        }
        self.governor = DispatchGovernor::from_faults(faults, self.id);
        self.faults_armed = faults.is_active();
    }

    /// This node's injected-fault counters (ECC, stalls, starvation,
    /// handler delays); link-level counters live in the network.
    pub fn fault_counters(&self) -> FaultSummary {
        FaultSummary {
            ecc_corrected: self.sdram.ecc_corrected(),
            ecc_uncorrectable: self.sdram.ecc_uncorrectable(),
            dispatch_stall_windows: self.lmi.stall_windows() + self.ni_in.stall_windows(),
            starvation_windows: self.governor.starvation_windows(),
            handler_delays: self.governor.handler_delays(),
            ..FaultSummary::default()
        }
    }

    /// First uncorrectable ECC error on this node, if any:
    /// `(cycle, protocol_channel)` — the watchdog's unrecoverable signal.
    pub fn first_uncorrectable(&self) -> Option<(Cycle, bool)> {
        self.sdram.first_uncorrectable()
    }

    /// Emit one trace event per newly opened fault window (called on MC
    /// edges; the hooks themselves hold no tracer).
    #[cold]
    fn poll_fault_events(&mut self, now: Cycle) {
        let node = self.id;
        if let Some(until) = self.lmi.stall_opened() {
            self.tracer
                .emit(Category::Fault, now, || Event::StallWindow {
                    node,
                    kind: StallClass::DispatchQueue,
                    until,
                });
        }
        if let Some(until) = self.ni_in.stall_opened() {
            self.tracer
                .emit(Category::Fault, now, || Event::StallWindow {
                    node,
                    kind: StallClass::DispatchQueue,
                    until,
                });
        }
        if let Some(until) = self.governor.starvation_opened() {
            self.tracer
                .emit(Category::Fault, now, || Event::StallWindow {
                    node,
                    kind: StallClass::Starvation,
                    until,
                });
        }
        if let Some(until) = self.governor.handler_delayed() {
            self.tracer
                .emit(Category::Fault, now, || Event::StallWindow {
                    node,
                    kind: StallClass::HandlerDelay,
                    until,
                });
        }
    }

    /// Waiting time observed by home transactions in the local-miss and
    /// network-interface input queues (dispatch queueing, Table 7 context).
    pub fn dispatch_wait(&self) -> Distribution {
        let mut d = self.lmi.wait().clone();
        d.merge(self.ni_in.wait());
        d
    }

    #[inline]
    fn trace(&self, now: Cycle, what: &str, msg: &Msg) {
        if self.trace_line == Some(msg.addr.raw()) {
            eprintln!("[{now}] {:?} {what}: {msg}", self.id);
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Workload generators (for statistics).
    pub fn gens(&self) -> &[ThreadGen] {
        &self.gens
    }

    fn schedule(&mut self, at: Cycle, what: Pending) {
        self.seq += 1;
        self.events.push(Reverse(Timed {
            at,
            seq: self.seq,
            what,
        }));
    }

    /// Route an outgoing message (local delivery or network injection).
    fn emit_msg(&mut self, msg: Msg, at: Cycle) {
        self.trace(at, "emit", &msg);
        if self.profiler.is_enabled()
            && matches!(
                msg.kind,
                MsgKind::DataShared | MsgKind::DataExcl { .. } | MsgKind::UpgradeAck { .. }
            )
        {
            self.profiler
                .stamp(msg.dst, msg.addr, PhaseBoundary::ReplySent, at);
            if msg.dst == self.id {
                // Local replies skip the network; they are "delivered" when
                // the local MC hands them over.
                self.profiler.stamp(
                    msg.dst,
                    msg.addr,
                    PhaseBoundary::ReplyDelivered,
                    at + self.mc_div,
                );
            }
        }
        if msg.dst == self.id {
            self.stats.msgs_local += 1;
            let node = self.id;
            self.tracer.emit(Category::Network, at, || Event::LocalMsg {
                node,
                line: msg.addr,
                msg: msg.kind.trace_label(),
                span: msg.span,
            });
            self.schedule(at + self.mc_div, Pending::Deliver(msg));
        } else {
            self.stats.msgs_out += 1;
            self.outbox.push((at, msg));
        }
    }

    /// Accept a message delivered by the network (or locally).
    pub fn receive(&mut self, msg: Msg, now: Cycle) {
        debug_assert_eq!(msg.dst, self.id);
        self.trace(now, "recv", &msg);
        match msg.kind {
            // Home-directed transactions queue for the protocol backend.
            MsgKind::GetS
            | MsgKind::GetX
            | MsgKind::Upgrade
            | MsgKind::Put { .. }
            | MsgKind::SharingWb { .. }
            | MsgKind::TransferAck { .. } => {
                self.ni_in.push(now + self.mc_div, msg);
                self.stats.ni_peak = self.stats.ni_peak.max(self.ni_in.len());
            }
            // Requester/third-party messages are handled by the cache
            // hierarchy; data replies first cross the 64-bit system bus at
            // the memory-controller clock (Table 3).
            MsgKind::DataShared => {
                self.schedule(now + self.bus_data, Pending::Fill(msg.addr, Grant::Shared));
            }
            MsgKind::DataExcl { acks } => {
                self.schedule(
                    now + self.bus_data,
                    Pending::Fill(msg.addr, Grant::Excl { acks }),
                );
            }
            MsgKind::UpgradeAck { acks } => {
                self.schedule(
                    now + self.bus_req,
                    Pending::Fill(msg.addr, Grant::UpgradeAck { acks }),
                );
            }
            MsgKind::AckInv => self.mem.ack_arrived(msg.addr, now),
            MsgKind::WbAck => self.mem.wb_acked(msg.addr),
            MsgKind::Inval { requester } => match self.mem.inval(msg.addr, requester, msg.span) {
                InvalResult::AckNow => {
                    let ack =
                        Msg::new(MsgKind::AckInv, msg.addr, self.id, requester).with_span(msg.span);
                    self.emit_msg(ack, now + 2);
                }
                InvalResult::Deferred => {}
            },
            MsgKind::IntervShared { requester } => {
                let home = msg.src;
                match self.mem.interv_shared(msg.addr, requester, msg.span) {
                    IntervResult::FromCache { .. } | IntervResult::FromWb { .. } => {
                        self.reply_interv_shared(msg.addr, requester, home, msg.span, now);
                    }
                    IntervResult::Deferred => {}
                }
            }
            MsgKind::IntervExcl { requester } => {
                let home = msg.src;
                match self.mem.interv_excl(msg.addr, requester, msg.span) {
                    IntervResult::FromCache { .. } | IntervResult::FromWb { .. } => {
                        self.reply_interv_excl(msg.addr, requester, home, msg.span, now);
                    }
                    IntervResult::Deferred => {}
                }
            }
        }
        self.drain_mem_events(now);
    }

    fn reply_interv_shared(
        &mut self,
        line: LineAddr,
        requester: NodeId,
        home: NodeId,
        span: SpanId,
        now: Cycle,
    ) {
        let at = now + 2;
        self.emit_msg(
            Msg::new(MsgKind::DataShared, line, self.id, requester).with_span(span),
            at,
        );
        self.emit_msg(
            Msg::new(MsgKind::SharingWb { requester }, line, self.id, home).with_span(span),
            at,
        );
    }

    fn reply_interv_excl(
        &mut self,
        line: LineAddr,
        requester: NodeId,
        home: NodeId,
        span: SpanId,
        now: Cycle,
    ) {
        let at = now + 2;
        self.emit_msg(
            Msg::new(MsgKind::DataExcl { acks: 0 }, line, self.id, requester).with_span(span),
            at,
        );
        self.emit_msg(
            Msg::new(
                MsgKind::TransferAck {
                    new_owner: requester,
                },
                line,
                self.id,
                home,
            )
            .with_span(span),
            at,
        );
    }

    /// Translate cache-hierarchy events into coherence/SDRAM actions and
    /// pipeline wake-ups.
    fn drain_mem_events(&mut self, now: Cycle) {
        while let Some(ev) = self.mem.pop_event() {
            match ev {
                MemEvent::AppMiss { line, kind, span } => {
                    let mk = match kind {
                        MissKind::Read => MsgKind::GetS,
                        MissKind::Write => MsgKind::GetX,
                        MissKind::Upgrade => MsgKind::Upgrade,
                    };
                    let home = line.home();
                    let msg = Msg::new(mk, line, self.id, home).with_span(span);
                    self.trace(now, "miss", &msg);
                    let at = now + self.bus_req;
                    self.profiler
                        .stamp(self.id, line, PhaseBoundary::ReqSent, at);
                    if home == self.id {
                        // Local misses reach the home MC straight over the
                        // system bus — no request-network hop.
                        self.profiler
                            .stamp(self.id, line, PhaseBoundary::ReqDelivered, at);
                        self.lmi.push(at, msg);
                        self.stats.lmi_peak = self.stats.lmi_peak.max(self.lmi.len());
                    } else {
                        self.outbox.push((at, msg));
                        self.stats.msgs_out += 1;
                    }
                }
                MemEvent::ProtocolFetch { line, span } => {
                    // Dedicated 64-bit protocol bus straight to local SDRAM
                    // (paper §2.1): no contention with application traffic,
                    // but the line still pays the bus serialization.
                    let done = self.sdram.read_protocol(now, span) + self.bus_data;
                    self.schedule(done, Pending::Fill(line, Grant::Excl { acks: 0 }));
                }
                MemEvent::CodeFetch { line, span } => {
                    let done = self.sdram.read(now, span) + self.bus_data;
                    self.schedule(done, Pending::Fill(line, Grant::Shared));
                }
                MemEvent::Writeback { line, dirty, span } => {
                    if matches!(line.region(), Region::AppData) {
                        let home = line.home();
                        let msg =
                            Msg::new(MsgKind::Put { dirty }, line, self.id, home).with_span(span);
                        let at = now + if dirty { self.bus_data } else { self.bus_req };
                        if home == self.id {
                            self.lmi.push(at, msg);
                        } else {
                            self.outbox.push((at, msg));
                            self.stats.msgs_out += 1;
                        }
                    } else if dirty {
                        // Directory / protocol lines: local SDRAM write.
                        self.sdram.write_protocol(now, span);
                    }
                }
                MemEvent::LoadDone { tag, at } => self.pipeline.load_done(tag, at),
                MemEvent::StoreDone { tag, at, performed } => {
                    self.pipeline.store_done(tag, at, performed)
                }
                MemEvent::IFetchDone { ctx, at } => self.pipeline.ifetch_done(ctx, at),
                MemEvent::DeferredInvalAck {
                    line,
                    requester,
                    span,
                } => {
                    let ack = Msg::new(MsgKind::AckInv, line, self.id, requester).with_span(span);
                    self.emit_msg(ack, now + 2);
                }
                MemEvent::DeferredIntervShared {
                    line,
                    requester,
                    span,
                    ..
                } => {
                    self.reply_interv_shared(line, requester, line.home(), span, now);
                }
                MemEvent::DeferredIntervExcl {
                    line,
                    requester,
                    span,
                    ..
                } => {
                    self.reply_interv_excl(line, requester, line.home(), span, now);
                }
            }
        }
    }

    /// Pop the next home transaction ready at `now` (replays first).
    fn next_home_msg(&mut self, now: Cycle) -> Option<Msg> {
        if let Some(m) = self.replay.pop_front() {
            return Some(m);
        }
        if let Some(m) = self.ni_in.pop_due(now) {
            return Some(m);
        }
        self.lmi.pop_due(now)
    }

    /// Run the home-side protocol processing for this MC edge.
    fn home_dispatch(&mut self, now: Cycle) {
        if !now.is_multiple_of(self.mc_div) {
            return;
        }
        if self.faults_armed {
            let allowed = self.governor.allow(now);
            self.poll_fault_events(now);
            if !allowed {
                return;
            }
        }
        match self.model {
            MachineModel::SMTp => {
                // Feed the protocol thread's dispatch unit.
                let mut guard = 0;
                while self.dispatch.can_accept() && guard < 4 {
                    guard += 1;
                    let Some(msg) = self.next_home_msg(now) else {
                        break;
                    };
                    let Some(t) = self.directory.process(&msg, now) else {
                        self.trace(now, "defer", &msg);
                        continue; // deferred into the pending queue
                    };
                    self.trace(now, "handle", &msg);
                    self.stats.handlers += 1;
                    let seq = self.stats.handlers;
                    self.trace_dispatch(&msg, &t, seq, now);
                    self.stamp_dispatched(&msg, now);
                    self.start_protocol_thread_handler(msg.addr, t, msg.span, now, seq);
                }
            }
            _ => {
                // Embedded engine: one handler at a time.
                let mut guard = 0;
                while guard < 4 {
                    guard += 1;
                    if !self.engine.as_ref().expect("engine").idle(now) {
                        break;
                    }
                    let Some(msg) = self.next_home_msg(now) else {
                        break;
                    };
                    let Some(t) = self.directory.process(&msg, now) else {
                        continue;
                    };
                    self.stats.handlers += 1;
                    let seq = self.stats.handlers;
                    self.trace_dispatch(&msg, &t, seq, now);
                    self.stamp_dispatched(&msg, now);
                    self.run_engine_handler(msg.addr, t, msg.span, now, seq);
                    break;
                }
            }
        }
    }

    /// Stamp the dispatch boundary of the requester's open transaction.
    /// Only primary requests open transactions — secondary home traffic
    /// (Put, SharingWb, TransferAck) may carry a line address the sender
    /// has its own unrelated open transaction on, so it must not stamp.
    fn stamp_dispatched(&mut self, msg: &Msg, now: Cycle) {
        if matches!(msg.kind, MsgKind::GetS | MsgKind::GetX | MsgKind::Upgrade) {
            self.profiler
                .stamp(msg.src, msg.addr, PhaseBoundary::Dispatched, now);
        }
    }

    /// Announce a handler dispatch to the tracer. `seq` pairs the event
    /// with its eventual `handler_complete`.
    fn trace_dispatch(&mut self, msg: &Msg, t: &Transition, seq: u64, now: Cycle) {
        let node = self.id;
        self.tracer
            .emit(Category::Protocol, now, || Event::HandlerDispatch {
                node,
                line: msg.addr,
                handler: t.kind.trace_class(),
                msg: msg.kind.trace_label(),
                src: msg.src,
                seq,
                span: msg.span,
            });
    }

    fn common_handler_setup(
        &mut self,
        line: LineAddr,
        t: &Transition,
        span: SpanId,
        now: Cycle,
    ) -> Cycle {
        if t.sdram_write {
            self.sdram.write(now, span);
        }
        if t.unbusied {
            let pend = self.directory.take_pending(line);
            self.replay.extend(pend);
        }
        if t.data_reply.is_some() {
            // The dispatch unit starts the memory access in parallel with
            // handler execution (paper §2.1).
            self.sdram.read(now, span)
        } else {
            0
        }
    }

    fn start_protocol_thread_handler(
        &mut self,
        line: LineAddr,
        t: Transition,
        span: SpanId,
        now: Cycle,
        seq: u64,
    ) {
        let data_ready_at = self.common_handler_setup(line, &t, span, now);
        let prog = handler_program(self.id, line, &t);
        let handler = t.kind.trace_class();
        let kind_idx = t.kind.index();
        self.dispatch.enqueue(HandlerInstance {
            prog,
            pos: 0,
            sends: t.sends,
            data_reply: t.data_reply,
            data_ready_at,
            line,
            handler,
            trace_seq: seq,
            dispatched_at: now,
            kind_idx,
            span,
        });
    }

    fn run_engine_handler(
        &mut self,
        line: LineAddr,
        t: Transition,
        span: SpanId,
        now: Cycle,
        seq: u64,
    ) {
        let data_ready_at = self.common_handler_setup(line, &t, span, now);
        let prog = handler_program(self.id, line, &t);
        let run = self
            .engine
            .as_mut()
            .expect("engine")
            .run_handler(self.id, &prog, now);
        self.handler_stats
            .record(t.kind.index(), run.finish.saturating_sub(now));
        let node = self.id;
        let handler = t.kind.trace_class();
        self.tracer
            .emit(Category::Protocol, run.finish, || Event::HandlerComplete {
                node,
                line,
                handler,
                seq,
                span,
            });
        for (send_at, idx) in run.sends {
            let msg = t.sends[idx];
            let at = if t.data_reply == Some(idx) {
                send_at.max(data_ready_at)
            } else {
                send_at
            };
            self.emit_msg(msg, at);
        }
    }

    /// Advance the node one CPU cycle. Outgoing network messages are left
    /// in the outbox for the system to drain via [`Node::drain_outbox`].
    /// `sync` is the shared synchronization fabric — the serial engine
    /// passes the system's [`SyncManager`] directly; the parallel engine
    /// passes a cross-thread gate that serializes access in cycle order.
    pub fn tick(&mut self, now: Cycle, sync: &mut dyn SyncEnv) {
        // 1. Due local events.
        while self.events.peek().is_some_and(|Reverse(t)| t.at <= now) {
            let Reverse(t) = self.events.pop().expect("peeked");
            match t.what {
                Pending::Deliver(msg) => self.receive(msg, now),
                Pending::Fill(line, grant) => {
                    self.mem.fill(line, grant, now);
                    self.drain_mem_events(now);
                }
            }
        }
        // 2. Home-side protocol dispatch (MC clock).
        self.home_dispatch(now);
        // 3. Pipeline.
        debug_assert!(self.actions.is_empty());
        let mut env = NodeEnv {
            node: self.id,
            gens: &mut self.gens,
            sync,
            dispatch: &mut self.dispatch,
            actions: &mut self.actions,
        };
        self.pipeline.tick(now, &mut env, &mut self.mem);
        // 4. Protocol-thread graduation effects. The buffer is drained and
        // put back, so it keeps its capacity for the next graduation.
        let mut actions = std::mem::take(&mut self.actions);
        for a in actions.drain(..) {
            match a {
                ProtAction::Send(idx, at) => {
                    let (msg, send_at) = self.dispatch.send_msg(idx, at);
                    self.emit_msg(msg, send_at);
                }
                ProtAction::Ldctxt => {
                    let h = self.dispatch.ldctxt_graduated();
                    self.handler_stats
                        .record(h.kind_idx, now.saturating_sub(h.dispatched_at));
                    let node = self.id;
                    self.tracer
                        .emit(Category::Protocol, now, || Event::HandlerComplete {
                            node,
                            line: h.line,
                            handler: h.handler,
                            seq: h.trace_seq,
                            span: h.span,
                        });
                }
            }
        }
        self.actions = actions;
        // 5. New cache events from this cycle's pipeline activity.
        self.drain_mem_events(now);
        // 6. Refresh the cached status flags (O(1) end-of-run tests).
        self.app_finished = self.pipeline.finished();
        self.quiescent = self.quiesced();
    }

    /// Drain messages bound for the network.
    pub fn take_outbox(&mut self) -> Vec<(Cycle, Msg)> {
        std::mem::take(&mut self.outbox)
    }

    /// Drain messages bound for the network into a caller-owned scratch
    /// buffer, avoiding the per-node-per-cycle `Vec` allocation that
    /// [`Node::take_outbox`] implies in the hot run loop.
    pub fn drain_outbox(&mut self, into: &mut Vec<(Cycle, Msg)>) {
        into.append(&mut self.outbox);
    }

    /// Combined depth of the protocol input queues (local-miss interface,
    /// network interface, and replay) — the metrics-sampling signal.
    pub fn protocol_queue_depth(&self) -> usize {
        self.lmi.len() + self.ni_in.len() + self.replay.len()
    }

    /// Diagnostics: queue depths and dispatch state.
    pub fn debug_queues(&self) -> String {
        format!(
            "lmi={} ni_in={} replay={} events={} dispatch[{}] outbox={}",
            self.lmi.len(),
            self.ni_in.len(),
            self.replay.len(),
            self.events.len(),
            self.dispatch.debug_state(),
            self.outbox.len(),
        )
    }

    /// Whether this node has reached total quiescence (used by the system
    /// to detect the end of the run).
    pub fn quiesced(&self) -> bool {
        self.pipeline.finished()
            && self.pipeline.protocol_quiesced()
            && self.pipeline.drains_quiesced()
            && self.lmi.is_empty()
            && self.ni_in.is_empty()
            && self.replay.is_empty()
            && self.events.is_empty()
            && self.dispatch.idle()
            && !self.directory.any_busy()
            && self.directory.pending_len() == 0
    }

    /// Cached quiescence, as of the end of the last [`Node::tick`] — the
    /// O(1) form of [`Node::quiesced`] used by the run loops. Stale until
    /// the first tick (a freshly assembled node is never quiescent).
    pub fn quiescent(&self) -> bool {
        self.quiescent
    }

    /// Cached `pipeline.finished()` as of the end of the last
    /// [`Node::tick`]. Monotone: once true it stays true.
    pub fn app_finished(&self) -> bool {
        self.app_finished
    }

    /// Conservative earliest cycle at which this node can do meaningful
    /// work again, given that it was just ticked at `now` and will receive
    /// no external delivery before the returned bound. Returns `None` when
    /// the node must be ticked at `now + 1` (anything could happen), or
    /// `Some(b)` with `b > now + 1` when every tick in `now+1..b` is
    /// provably a pure stall tick: the only state the skipped ticks would
    /// mutate is the bookkeeping that [`Node::skip_idle`] replays in bulk.
    ///
    /// Fault hooks are time-sensitive (stall windows open on check
    /// schedules, governors poll per MC edge), so an armed node never
    /// skips.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.faults_armed || !self.replay.is_empty() {
            return None;
        }
        let mut bound = self.pipeline.frozen_until(now, self.dispatch.idle())?;
        if let Some(Reverse(t)) = self.events.peek() {
            bound = bound.min(t.at);
        }
        if let Some(at) = self.lmi.next_due() {
            bound = bound.min(at);
        }
        if let Some(at) = self.ni_in.next_due() {
            bound = bound.min(at);
        }
        (bound > now + 1).then_some(bound)
    }

    /// Account for skipped pure-stall ticks over `from..to` (both bounds
    /// as cycles the node is *not* ticked for `from..to`, with the next
    /// real tick at `to`). Replays the per-cycle bookkeeping the skipped
    /// ticks would have performed (stall-bucket stats, round-robin
    /// rotation) so a skipping run is bit-identical to a cycle-by-cycle
    /// one.
    pub fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.pipeline.skip_stalled(from, to);
    }

    /// Roll back the bookkeeping of ticks `from..to` that the epoch engine
    /// executed past the exact quiescence point (all of which were idle
    /// ticks on a fully quiescent node), including any fault-stream draws
    /// those ticks consumed (restored from the [`Node::snapshot_faults`]
    /// snapshot taken at `from`).
    pub fn retract_idle(&mut self, from: Cycle, to: Cycle) {
        self.pipeline.retract_idle(from, to);
        if let Some(i) = self.fault_rewinds.iter().position(|(at, _)| *at == from) {
            let (_, s) = self.fault_rewinds.swap_remove(i);
            self.lmi.restore_stall(s.lmi_stall);
            self.ni_in.restore_stall(s.ni_stall);
            self.governor = s.governor;
        } else {
            debug_assert!(
                !self.faults_armed,
                "retracting an armed node without a fault snapshot at {from}"
            );
        }
        self.fault_rewinds.clear();
    }

    /// Record the fault-stream state as of loop-top cycle `at` (called by
    /// the epoch engine after a tick that left the node quiescent, so a
    /// later [`Node::retract_idle`] back to `at` restores the exact RNG
    /// positions). A no-op with faults disarmed.
    pub fn snapshot_faults(&mut self, at: Cycle) {
        if !self.faults_armed {
            return;
        }
        self.fault_rewinds.push((
            at,
            FaultRewind {
                lmi_stall: self.lmi.stall_state(),
                ni_stall: self.ni_in.stall_state(),
                governor: self.governor.clone(),
            },
        ));
    }

    /// Drop fault snapshots from a previous epoch (its retraction window
    /// has passed).
    pub fn clear_fault_snapshots(&mut self) {
        self.fault_rewinds.clear();
    }
}

/// One [`Node::snapshot_faults`] snapshot: every piece of fault-injection
/// state that per-cycle hooks mutate even on pure idle ticks.
struct FaultRewind {
    lmi_stall: Option<FaultWindows>,
    ni_stall: Option<FaultWindows>,
    governor: DispatchGovernor,
}

/// The pipeline environment for one tick.
struct NodeEnv<'a> {
    node: NodeId,
    gens: &'a mut [ThreadGen],
    sync: &'a mut dyn SyncEnv,
    dispatch: &'a mut DispatchUnit,
    actions: &'a mut Vec<ProtAction>,
}

impl PipeEnv for NodeEnv<'_> {
    fn next_app_inst(&mut self, ctx: Ctx) -> Inst {
        use smtp_isa::InstSource;
        self.gens[ctx.idx()].next_inst()
    }

    fn next_protocol_inst(&mut self) -> Option<Inst> {
        self.dispatch.next_inst()
    }

    fn poll(&mut self, node: NodeId, ctx: Ctx, cond: SyncCond) -> bool {
        debug_assert_eq!(node, self.node);
        self.sync.poll(node, ctx, cond)
    }

    fn sync_store(&mut self, node: NodeId, ctx: Ctx, op: SyncOp) -> SyncOutcome {
        debug_assert_eq!(node, self.node);
        self.sync.sync_store(node, ctx, op)
    }

    fn sync_result(&mut self, ctx: Ctx, outcome: SyncOutcome) {
        use smtp_isa::InstSource;
        if !ctx.is_protocol() {
            self.gens[ctx.idx()].sync_result(outcome);
        }
    }

    fn send_graduated(&mut self, msg_idx: u8, now: Cycle) {
        self.actions.push(ProtAction::Send(msg_idx, now));
    }

    fn ldctxt_graduated(&mut self, _now: Cycle) {
        self.actions.push(ProtAction::Ldctxt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtp_types::SystemConfig;
    use smtp_workloads::SyncManager;

    fn node(model: MachineModel) -> (Node, SyncManager) {
        let cfg = SystemConfig::new(model, 1, 1);
        let wl = WorkloadCfg {
            nodes: 1,
            app_threads: 1,
            scale: 0.05,
            prefetch: true,
        };
        (
            Node::new(NodeId(0), &cfg, AppKind::Fft, &wl),
            SyncManager::new(1),
        )
    }

    #[test]
    fn dispatch_unit_gates_without_las() {
        let mut d = DispatchUnit::new(false);
        assert!(d.can_accept());
        d.enqueue(HandlerInstance {
            prog: vec![Inst::new(smtp_isa::Op::Switch, 0)],
            pos: 0,
            sends: vec![],
            data_reply: None,
            data_ready_at: 0,
            line: LineAddr(0),
            handler: HandlerClass::Put,
            trace_seq: 0,
            dispatched_at: 0,
            kind_idx: 0,
            span: SpanId::NONE,
        });
        assert!(!d.can_accept());
        assert!(d.next_inst().is_some());
        assert!(d.next_inst().is_none(), "no look-ahead without LAS");
        d.ldctxt_graduated();
        assert!(d.can_accept());
        assert!(d.idle());
    }

    #[test]
    fn dispatch_unit_look_ahead_switches_after_fetch() {
        let mut d = DispatchUnit::new(true);
        let mk = |n: u32| HandlerInstance {
            prog: (0..n).map(|p| Inst::new(smtp_isa::Op::PAlu, p)).collect(),
            pos: 0,
            sends: vec![],
            data_reply: None,
            data_ready_at: 0,
            line: LineAddr(0),
            handler: HandlerClass::Put,
            trace_seq: 0,
            dispatched_at: 0,
            kind_idx: 0,
            span: SpanId::NONE,
        };
        d.enqueue(mk(2));
        d.enqueue(mk(3));
        assert!(!d.can_accept());
        // Fetch drains handler 0 then continues into handler 1.
        for _ in 0..5 {
            assert!(d.next_inst().is_some());
        }
        assert!(d.next_inst().is_none());
        assert_eq!(d.look_ahead, 1);
        d.ldctxt_graduated();
        assert!(d.can_accept());
        d.ldctxt_graduated();
        assert!(d.idle());
    }

    #[test]
    fn smtp_node_has_no_engine_and_vice_versa() {
        let (n, _) = node(MachineModel::SMTp);
        assert!(n.engine.is_none());
        let (n, _) = node(MachineModel::Int512KB);
        assert!(n.engine.is_some());
    }

    #[test]
    fn single_node_runs_some_cycles_without_panic() {
        let (mut n, mut sync) = node(MachineModel::SMTp);
        for now in 0..5_000 {
            n.tick(now, &mut sync);
            assert!(n.take_outbox().is_empty(), "single node must stay local");
        }
        // It must be making progress.
        assert!(n.pipeline.stats().committed[0] > 100);
    }

    #[test]
    fn base_node_also_progresses() {
        let (mut n, mut sync) = node(MachineModel::Base);
        for now in 0..5_000 {
            n.tick(now, &mut sync);
            n.take_outbox();
        }
        assert!(n.pipeline.stats().committed[0] > 100);
    }
}
