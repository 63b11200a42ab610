//! Execution engines: how the machine's cycle loop is driven.
//!
//! Two interchangeable backends produce bit-identical results:
//!
//! * [`EngineKind::Serial`] — the reference loop in
//!   [`System::run`](crate::System::run): nodes ticked in index order, one
//!   cycle at a time, each node skipping the cycles its freeze certificate
//!   ([`Node::next_activity`]) proves to be pure stalls, with the skipped
//!   bookkeeping settled before anything reads node state. Single-threaded,
//!   and the oracle the parallel engine is tested against; a loop of
//!   [`System::tick`](crate::System::tick), which ticks every node every
//!   cycle, is in turn the oracle for the certificate.
//! * [`EngineKind::Parallel`] — the epoch engine in this module. Nodes are
//!   partitioned across worker threads and advanced independently for
//!   *epochs* bounded so that within one epoch no message injected by any
//!   node can arrive at another; node interactions are confined to epoch
//!   barriers where the coordinator replays message injections and
//!   pre-distributes the next epoch's arrivals.
//!
//! The epoch bound starts from the static minimum cross-node message
//! latency ([`smtp_noc::Network::min_latency`]) and, with
//! [`EngineTuning::adaptive_epochs`] (the default), extends it using what
//! the previous epoch *observed*: every node's freeze certificate
//! ([`Node::next_activity`]) proves the node performs only pure stall
//! ticks — no message injection, no sync-fabric traffic — before its wake
//! bound, and the network knows its next scheduled arrival. No node can
//! therefore inject before `inj_min = max(e_start, min(earliest wake,
//! next arrival))`, and the epoch may safely run to `inj_min +
//! min_latency`. Any node without a certificate (including every node of
//! a fault-armed machine, where certificates are never issued) collapses
//! the bound back to the conservative static one.
//!
//! Determinism is preserved by three mechanisms:
//!
//! 1. **Capture/replay of observability streams.** Trace events and
//!    profiler operations emitted on worker threads are captured into
//!    thread-local buffers tagged with their serial position
//!    ([`smtp_types::capture::CapturePoint`]) and replayed by the
//!    coordinator in a stable merge, recreating the serial engine's exact
//!    stream. Workers park their batches in per-worker harvest slots (no
//!    shared-lock convoy at the barrier), and the coordinator replays an
//!    epoch's merged batch *while the workers tick the next epoch* —
//!    stream reconstruction is double-buffered off the barrier's critical
//!    path, except at cycles where a watchdog check (which reads and
//!    writes the trace stream) must observe it, where the replay stays
//!    synchronous.
//! 2. **A position-gated synchronization fabric.** The shared
//!    [`SyncManager`] is order-sensitive (barrier arrivals, flag stores),
//!    so workers publish their current `(cycle, node)` position and a sync
//!    operation waits until every other worker has advanced past it —
//!    imposing the serial engine's lexicographic order on the fabric
//!    without locking nodes to each other the rest of the time. Each
//!    worker always advances the lowest-positioned node it owns, so the
//!    globally lowest operation can never be waiting on a higher one.
//! 3. **Epoch cuts on every schedule the serial loop observes.** Epochs
//!    end at watchdog multiples, invariant-check multiples, metrics-sample
//!    cycles and `max_cycles`, so every check runs at the same cycle, on
//!    the same machine state, in the same order as the serial loop.
//!
//! Like the serial loop, the engine skips provably idle cycles: after each
//! tick a node reports a conservative bound ([`Node::next_activity`])
//! below which every tick would be a pure stall tick, and the worker jumps
//! straight to the bound (clamped to the next scheduled delivery and the
//! epoch end), bulk-applying the skipped bookkeeping. Fault-armed nodes
//! never skip, and the cut schedule above keeps watchdog, invariant and
//! sampler ticks exact.
//!
//! Partitions are contiguous node ranges delimited by fence posts carried
//! in each epoch's [`WindowPlan`]. With [`EngineTuning::rebalance_every`]
//! nonzero (the default), the coordinator accumulates per-node tick
//! counts and, when the per-worker tick imbalance over a window exceeds
//! [`EngineTuning::rebalance_threshold`], recomputes the fences by a
//! prefix-sum split of the observed per-node load. Ownership moves only
//! at barriers; the cross-epoch per-node state a worker needs (freeze
//! bounds, quiescence and app-finish marks) lives in a shared per-node
//! table written back at every barrier, so a node's state follows it to
//! its new owner. Guest results are bit-identical for every partition:
//! the gate order and the capture positions are partition-independent.

use crate::error::{RunError, RunErrorKind};
use crate::node::Node;
use crate::stats::RunStats;
use crate::system::{coherence_violation, System, WATCHDOG_INTERVAL};
use smtp_isa::{SyncCond, SyncEnv, SyncOp, SyncOutcome};
use smtp_noc::Msg;
use smtp_trace::{
    take_captured_events, CapturedEvent, HostPhase, HostProfile, LaneProfile, PhaseTimer, Tracer,
};
use smtp_types::capture::{self, lane_inject, lane_tick, LANE_DELIVER};
use smtp_types::{
    take_captured_prof_ops, CapturePoint, Ctx, Cycle, Histogram, NodeId, PhaseProfiler, ProfOp,
};
use smtp_workloads::SyncManager;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Which execution engine drives the cycle loop. Both produce bit-identical
/// statistics, trace streams and fault-injection behavior; the choice is
/// purely about wall-clock speed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The reference loop: one cycle at a time, nodes in index order,
    /// idle-skipping nodes under a freeze certificate. Single-threaded.
    #[default]
    Serial,
    /// The epoch engine: nodes partitioned across worker threads,
    /// synchronized at lookahead barriers, with idle-cycle skipping.
    Parallel,
}

impl std::str::FromStr for EngineKind {
    type Err = String;
    fn from_str(s: &str) -> Result<EngineKind, String> {
        match s {
            "serial" => Ok(EngineKind::Serial),
            "parallel" => Ok(EngineKind::Parallel),
            other => Err(format!("unknown engine {other:?} (serial|parallel)")),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Serial => write!(f, "serial"),
            EngineKind::Parallel => write!(f, "parallel"),
        }
    }
}

/// Host-side tuning knobs for the parallel epoch engine. Strictly a
/// wall-clock matter: guest-visible results are bit-identical for every
/// setting (enforced by the `engine_equivalence` grid).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineTuning {
    /// Extend epochs past the static minimum-latency bound using the
    /// previous epoch's freeze certificates and the network's next
    /// scheduled arrival (see the module docs). Falls back to the static
    /// bound whenever any node lacks a certificate.
    pub adaptive_epochs: bool,
    /// Consider repartitioning nodes across workers every this many
    /// epochs (`0` = never). The partition actually moves only when the
    /// observed per-worker tick imbalance over the window exceeds
    /// [`EngineTuning::rebalance_threshold`].
    pub rebalance_every: u64,
    /// Max/mean per-worker tick ratio above which a due rebalance fires.
    pub rebalance_threshold: f64,
}

impl Default for EngineTuning {
    fn default() -> EngineTuning {
        EngineTuning {
            adaptive_epochs: true,
            rebalance_every: 32,
            rebalance_threshold: 1.1,
        }
    }
}

impl EngineTuning {
    /// The conservative configuration: static epoch bound, fixed
    /// partition. The parallel engine behaved this way before tuning
    /// existed; useful as a differential baseline.
    pub fn conservative() -> EngineTuning {
        EngineTuning {
            adaptive_epochs: false,
            rebalance_every: 0,
            rebalance_threshold: f64::INFINITY,
        }
    }
}

/// Bits reserved for the node index in a packed worker position.
const NODE_BITS: u32 = 12;

/// Pack a `(cycle, node)` position into one atomic word, ordered like the
/// serial engine's lexicographic `(cycle, node index)` tick order.
fn pack(cycle: Cycle, node: usize) -> u64 {
    (cycle << NODE_BITS) | node as u64
}

/// Next multiple of `m` strictly greater than `x`.
fn next_multiple(x: Cycle, m: Cycle) -> Cycle {
    (x / m + 1) * m
}

/// The shared synchronization fabric plus per-worker position words.
struct Gate {
    positions: Vec<AtomicU64>,
    sync: Mutex<SyncManager>,
}

/// One worker's view of the gate for the node it is currently ticking.
/// Implements [`SyncEnv`] by waiting until every other worker has advanced
/// past this position, then forwarding to the real manager — which applies
/// synchronization operations in exactly the serial engine's order.
struct GateRef<'a> {
    gate: &'a Gate,
    me: usize,
    pos: u64,
}

impl GateRef<'_> {
    fn wait_turn(&self) {
        let mut spins = 0u32;
        loop {
            let blocked = self
                .gate
                .positions
                .iter()
                .enumerate()
                .any(|(i, p)| i != self.me && p.load(Ordering::Acquire) <= self.pos);
            if !blocked {
                return;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl SyncEnv for GateRef<'_> {
    fn poll(&mut self, node: NodeId, ctx: Ctx, cond: SyncCond) -> bool {
        self.wait_turn();
        self.gate.sync.lock().unwrap().poll(node, ctx, cond)
    }

    fn sync_store(&mut self, node: NodeId, ctx: Ctx, op: SyncOp) -> SyncOutcome {
        self.wait_turn();
        self.gate.sync.lock().unwrap().sync_store(node, ctx, op)
    }
}

/// The coordinator's instructions for the next epoch, including the
/// partition fence posts: worker `w` owns nodes `fence[w]..fence[w + 1]`
/// for this epoch. Fences only move between epochs (rebalancing).
struct WindowPlan {
    start: Cycle,
    end: Cycle,
    stop: bool,
    fence: Vec<usize>,
}

/// One recorded outbox message: node `node` pushed message `slot` of its
/// tick at `cycle`, asking for injection at `at`.
struct InjectRec {
    cycle: Cycle,
    node: usize,
    slot: u32,
    at: Cycle,
    msg: Msg,
}

/// Per-node engine state shared across epochs and workers. Workers read
/// their owned slice at the opening barrier and write it back at the
/// closing one, so rebalancing can hand a node — state and all — to a
/// different worker between epochs.
struct SharedState {
    /// Per node: first cycle X such that the node has been quiescent from
    /// the end of tick `X-1` onward (`None` while active).
    quiet_since: Vec<Option<Cycle>>,
    /// Per node: first cycle at whose tick-end the application threads had
    /// all finished.
    finished_at: Vec<Option<Cycle>>,
    /// Per node: freeze bound from the last real tick (0 = none): the
    /// node provably performs only pure stall ticks before this cycle.
    /// Lets a node stay frozen across epoch barriers, and feeds the
    /// adaptive epoch bound.
    wake: Vec<Cycle>,
    /// Per node: ticks executed in the epoch just finished (rebalancing
    /// load signal).
    node_ticks: Vec<u64>,
    /// Structured failure recorded mid-epoch (1-node machine emitting a
    /// network message), with the serial cycle it would surface at.
    error: Option<(Cycle, String)>,
    /// Per worker, for the epoch just finished: `(node ticks executed,
    /// node-cycles idle-skipped, tick-phase nanoseconds)`. The tick
    /// nanoseconds are zero when host telemetry is off; the counters are
    /// always maintained (two integer adds per event).
    wstats: Vec<(u64, u64, u64)>,
}

/// One worker's per-epoch batch of captured observability streams and
/// outbox messages. Each worker owns one slot, so parking a batch at the
/// barrier never contends with sibling workers.
#[derive(Default)]
struct WorkerHarvest {
    events: Vec<CapturedEvent>,
    prof: Vec<(CapturePoint, ProfOp)>,
    injects: Vec<InjectRec>,
}

/// A per-node delivery: `(arrival cycle, capture slot, message)`.
type Delivery = (Cycle, u32, Msg);

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    me: usize,
    n: usize,
    cells: &[Mutex<Node>],
    gate: &Gate,
    plan: &Mutex<WindowPlan>,
    inboxes: &[Mutex<VecDeque<Delivery>>],
    state: &Mutex<SharedState>,
    slot: &Mutex<WorkerHarvest>,
    barrier: &Barrier,
    single_node: bool,
    telem: bool,
    lanes_out: &Mutex<Vec<(usize, LaneProfile)>>,
) {
    capture::begin((0, 0, 0));
    // Host telemetry: a handful of clock stamps per *epoch*, so the
    // per-tick hot path is untouched. The opening barrier wait is the
    // "departure" wait (blocked on the coordinator publishing the next
    // window), the closing one the "arrival" wait (blocked on sibling
    // stragglers); gate spin-waits happen mid-tick and are charged to
    // the tick phase.
    let mut timer = telem.then(|| PhaseTimer::new(HostPhase::BarrierDepart));
    // Worker-local per-node scratch, indexed by global node id; only the
    // currently owned slice is live (refreshed from the shared state each
    // epoch, since rebalancing may have moved nodes between workers).
    let mut hints: Vec<Cycle> = vec![0; n];
    let mut inbox: Vec<VecDeque<Delivery>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut quiet: Vec<Option<Cycle>> = vec![None; n];
    let mut finished: Vec<Option<Cycle>> = vec![None; n];
    let mut node_ticks: Vec<u64> = vec![0; n];
    let mut injects: Vec<InjectRec> = Vec::new();
    let mut scratch: Vec<(Cycle, Msg)> = Vec::new();
    let mut heap: BinaryHeap<Reverse<(Cycle, usize)>> = BinaryHeap::new();
    loop {
        barrier.wait();
        let (p, lo, hi) = {
            let pl = plan.lock().unwrap();
            ((pl.start, pl.end, pl.stop), pl.fence[me], pl.fence[me + 1])
        };
        let (p_start, p_end, p_stop) = p;
        if p_stop {
            break;
        }
        if let Some(t) = &mut timer {
            t.switch(HostPhase::Tick);
        }
        let mut ticks: u64 = 0;
        let mut skipped: u64 = 0;
        // Refresh cross-epoch node state for the owned range (ownership
        // may have moved since this worker last saw these nodes), pull
        // this epoch's pre-distributed deliveries, and pin the owned
        // nodes for the whole window: nothing else touches them until the
        // closing barrier, so locking once here keeps the per-tick loop
        // free of lock traffic.
        {
            let st = state.lock().unwrap();
            for g in lo..hi {
                hints[g] = st.wake[g];
                quiet[g] = st.quiet_since[g];
                finished[g] = st.finished_at[g];
                node_ticks[g] = 0;
            }
        }
        let mut guards: Vec<_> = (lo..hi).map(|g| cells[g].lock().unwrap()).collect();
        for g in lo..hi {
            inbox[g].append(&mut inboxes[g].lock().unwrap());
        }
        // Seed the schedule, extending freeze certificates across the
        // barrier: a node frozen past the epoch start skips straight to
        // its bound (clamped to its first delivery and the epoch end).
        heap.clear();
        for g in lo..hi {
            let mut at = p_start;
            let node = &mut *guards[g - lo];
            // The previous epoch's retraction window has passed.
            node.clear_fault_snapshots();
            if hints[g] > at {
                let cap = hints[g]
                    .min(p_end)
                    .min(inbox[g].front().map_or(Cycle::MAX, |d| d.0));
                if cap > at {
                    node.skip_idle(at, cap);
                    skipped += cap - at;
                    at = cap;
                }
            }
            heap.push(Reverse((at, g)));
        }
        // Advance the lowest-positioned owned node until the epoch ends.
        let mut failed = false;
        while let Some(&Reverse((c, g))) = heap.peek() {
            if c >= p_end || failed {
                break;
            }
            heap.pop();
            gate.positions[me].store(pack(c, g), Ordering::Release);
            let node = &mut *guards[g - lo];
            // Deliveries for this cycle, at their serial positions.
            while inbox[g].front().is_some_and(|d| d.0 == c) {
                let (cycle, slot_no, msg) = inbox[g].pop_front().expect("peeked");
                capture::set_point((cycle, LANE_DELIVER, slot_no));
                node.receive(msg, cycle);
            }
            debug_assert!(
                inbox[g].front().is_none_or(|d| d.0 > c),
                "missed a scheduled delivery"
            );
            capture::set_point((c, lane_tick(g), 0));
            let mut env = GateRef {
                gate,
                me,
                pos: pack(c, g),
            };
            node.tick(c, &mut env);
            ticks += 1;
            node_ticks[g] += 1;
            node.drain_outbox(&mut scratch);
            if single_node && !scratch.is_empty() {
                // No network to inject into: surface the serial engine's
                // structured failure and freeze the machine at this tick.
                scratch.clear();
                let id = node.id();
                state.lock().unwrap().error.get_or_insert_with(|| {
                    (
                        c + 1,
                        format!(
                            "network message emitted on a 1-node machine by {id:?} at cycle {c}"
                        ),
                    )
                });
                failed = true;
            } else {
                for (k, (at, msg)) in scratch.drain(..).enumerate() {
                    injects.push(InjectRec {
                        cycle: c,
                        node: g,
                        slot: k as u32,
                        at,
                        msg,
                    });
                }
            }
            if node.quiescent() {
                if quiet[g].is_none() {
                    quiet[g] = Some(c + 1);
                }
                // This tick may later turn out to lie past the machine's
                // exact quiescence point; snapshot the fault streams so a
                // retraction can rewind their draws too.
                node.snapshot_faults(c + 1);
            } else {
                quiet[g] = None;
            }
            if finished[g].is_none() && node.app_finished() {
                finished[g] = Some(c);
            }
            // Idle-cycle skipping: jump past provably pure stall ticks.
            hints[g] = 0;
            let mut next = c + 1;
            if !failed {
                if let Some(b) = node.next_activity(c) {
                    hints[g] = b;
                    let cap = b
                        .min(p_end)
                        .min(inbox[g].front().map_or(Cycle::MAX, |d| d.0));
                    if cap > next {
                        node.skip_idle(next, cap);
                        skipped += cap - next;
                        next = cap;
                    }
                }
            }
            heap.push(Reverse((next, g)));
        }
        drop(guards);
        gate.positions[me].store(pack(p_end, 0), Ordering::Release);
        let tick_ns = match &mut timer {
            Some(t) => {
                t.switch(HostPhase::Merge);
                t.epoch_phase_ns(HostPhase::Tick)
            }
            None => 0,
        };
        // Park the batch: node state into the shared table (tiny copies),
        // the bulky capture streams into this worker's own slot.
        {
            let mut st = state.lock().unwrap();
            st.wake[lo..hi].copy_from_slice(&hints[lo..hi]);
            st.quiet_since[lo..hi].copy_from_slice(&quiet[lo..hi]);
            st.finished_at[lo..hi].copy_from_slice(&finished[lo..hi]);
            st.node_ticks[lo..hi].copy_from_slice(&node_ticks[lo..hi]);
            st.wstats[me] = (ticks, skipped, tick_ns);
        }
        {
            let mut sl = slot.lock().unwrap();
            sl.events.extend(take_captured_events());
            sl.prof.extend(take_captured_prof_ops());
            sl.injects.append(&mut injects);
        }
        if let Some(t) = &mut timer {
            t.switch(HostPhase::BarrierArrive);
        }
        barrier.wait();
        if let Some(t) = &mut timer {
            t.switch(HostPhase::BarrierDepart);
            t.end_epoch();
        }
    }
    capture::end();
    if let Some(t) = timer {
        lanes_out
            .lock()
            .unwrap()
            .push((me, t.finish(&format!("w{me}"))));
    }
}

/// Contiguous chunk of the node range owned by worker `w` of `workers`.
fn chunk(w: usize, workers: usize, n: usize) -> (usize, usize) {
    let base = n / workers;
    let rem = n % workers;
    let lo = w * base + w.min(rem);
    let hi = lo + base + usize::from(w < rem);
    (lo, hi)
}

/// Fence posts splitting `load` (per-node weights) into `workers`
/// contiguous runs of near-equal total weight, each at least one node:
/// worker `w` gets `fence[w]..fence[w + 1]`.
fn balanced_fence(load: &[u64], workers: usize) -> Vec<usize> {
    let n = load.len();
    let total: u64 = load.iter().sum();
    let mut fence = Vec::with_capacity(workers + 1);
    fence.push(0);
    let mut acc = 0u64;
    let mut g = 0usize;
    for w in 1..workers {
        let target = total as f64 * w as f64 / workers as f64;
        // Leave at least one node for every remaining worker.
        let hi_max = n - (workers - w);
        let hi_min = fence[w - 1] + 1;
        // Take nodes while the running prefix stays within this worker's
        // share — inclusively, so a prefix landing exactly on the target
        // cuts *after* the node that reached it (an even split stays even).
        while g < hi_max && (g < hi_min || ((acc + load[g]) as f64) <= target) {
            acc += load[g];
            g += 1;
        }
        fence.push(g);
    }
    fence.push(n);
    fence
}

/// Sort and replay a batch of captured trace/profiler streams into the
/// serial-order sinks, optionally dropping everything at or past `cut`
/// (positions the serial loop never reached). Leaves the buffers empty.
fn replay_streams(
    events: &mut Vec<CapturedEvent>,
    prof: &mut Vec<(CapturePoint, ProfOp)>,
    cut: Option<Cycle>,
    tracer: &Tracer,
    profiler: &PhaseProfiler,
) {
    if let Some(q) = cut {
        events.retain(|e| e.0 .0 < q);
        prof.retain(|o| o.0 .0 < q);
    }
    events.sort_by_key(|e| e.0);
    prof.sort_by_key(|o| o.0);
    tracer.replay_captured(events);
    profiler.replay_captured(prof);
    events.clear();
    prof.clear();
}

/// Run the machine to completion on the parallel epoch engine. Produces
/// results bit-identical to [`System::run`] for the same seed and
/// configuration; see the module docs for how.
pub(crate) fn run_parallel(sys: &mut System, max_cycles: Cycle) -> Result<RunStats, RunError> {
    let n = sys.nodes.len();
    if n > (1usize << NODE_BITS) {
        // Positions pack the node index into 12 bits; fall back rather
        // than mis-order the synchronization fabric.
        return sys.run_with(max_cycles, EngineKind::Serial);
    }
    if sys.quiesced() {
        if let Some(hb) = &mut sys.heartbeat {
            // Even a no-op run leaves its start and end liveness records.
            hb.start(sys.now);
            hb.emit(sys.now, "parallel", 0, 0, &[]);
            hb.emit(sys.now, "parallel", 0, 0, &[]);
        }
        sys.tracer.flush();
        return Ok(sys.collect());
    }
    let lookahead = sys
        .network
        .as_ref()
        .map_or(WATCHDOG_INTERVAL, |net| net.min_latency().max(1));
    // Worker count: pinned by the configuration, or the host's available
    // parallelism; never more workers than nodes (a pinned count larger
    // than the node count clamps rather than spawning empty partitions,
    // and `SystemConfig::validate` rejects zero). A host-side knob only —
    // results are bit-identical for any count.
    let workers = sys
        .cfg
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .clamp(1, n);
    let tuning = sys.tuning;
    let single_node = sys.network.is_none();
    let telem = sys.telemetry;
    sys.host_profile = None;
    let mut coord = telem.then(|| PhaseTimer::new(HostPhase::Other));
    let lanes_out: Mutex<Vec<(usize, LaneProfile)>> = Mutex::new(Vec::new());
    let start_now = sys.now;
    let mut epochs: u64 = 0;
    let mut epoch_cycles = Histogram::new();
    let mut barrier_msgs = Histogram::new();
    let mut imbalance_x1000 = Histogram::new();
    let mut ticked_cycles: u64 = 0;
    let mut skipped_cycles: u64 = 0;
    // Heartbeat bookkeeping: cumulative per-worker tick nanoseconds, so a
    // beat can report utilization over the interval since the last beat.
    let mut hb_cum_tick: Vec<u64> = vec![0; workers];
    let mut hb_last_tick: Vec<u64> = vec![0; workers];
    let mut hb_last_wall = Instant::now();
    if let Some(hb) = &mut sys.heartbeat {
        hb.start(start_now);
        // Initial liveness record at the run start, so even a run shorter
        // than one heartbeat interval leaves a line-complete log.
        hb.emit(start_now, "parallel", workers, 0, &vec![0.0; workers]);
    }

    // Take the machine apart: nodes behind per-node locks for the workers,
    // the synchronization fabric behind the position gate.
    let cells: Vec<Mutex<Node>> = std::mem::take(&mut sys.nodes)
        .into_iter()
        .map(Mutex::new)
        .collect();
    let placeholder = SyncManager::new(sys.cfg.total_app_threads());
    let gate = Gate {
        positions: (0..workers)
            .map(|_| AtomicU64::new(pack(sys.now, 0)))
            .collect(),
        sync: Mutex::new(std::mem::replace(&mut sys.sync, placeholder)),
    };
    let init_fence: Vec<usize> = (0..workers)
        .map(|w| chunk(w, workers, n).0)
        .chain([n])
        .collect();
    let plan = Mutex::new(WindowPlan {
        start: sys.now,
        end: sys.now,
        stop: false,
        fence: init_fence.clone(),
    });
    let inboxes: Vec<Mutex<VecDeque<Delivery>>> =
        (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
    let state = Mutex::new(SharedState {
        quiet_since: vec![None; n],
        finished_at: vec![None; n],
        wake: vec![0; n],
        node_ticks: vec![0; n],
        error: None,
        wstats: vec![(0, 0, 0); workers],
    });
    let slots: Vec<Mutex<WorkerHarvest>> = (0..workers)
        .map(|_| Mutex::new(WorkerHarvest::default()))
        .collect();
    let barrier = Barrier::new(workers + 1);

    let mut metrics = sys.metrics.take();
    let mut wd = sys.watchdog;
    let mut app_done_at = sys.app_done_at;
    // Exact-quiescence trackers (see the Q computation at the barrier).
    let mut finished_at: Vec<Option<Cycle>> = vec![None; n];
    let mut quiet_since: Vec<Option<Cycle>> = vec![None; n];
    let mut net_empty_from: Cycle = sys.now;
    // Coordinator-side copy of the per-node freeze bounds harvested at the
    // last barrier; feeds the adaptive epoch bound.
    let mut wake: Vec<Cycle> = vec![0; n];
    // Rebalancing bookkeeping: per-node and per-worker tick loads
    // accumulated over the current observation window.
    let mut fence = init_fence;
    let mut load: Vec<u64> = vec![0; n];
    let mut wload: Vec<u64> = vec![0; workers];
    let mut window_epochs: u64 = 0;
    let mut refence_due = false;
    let mut rebalances: u64 = 0;
    // Streams captured for an epoch but not yet replayed into the tracer
    // and profiler. Pre-pass captures land in `held_*` (they belong to the
    // epoch being planned); the merged batch accumulates in `pending_*`
    // and is normally replayed *while the workers tick the next epoch*.
    let mut held_events: Vec<CapturedEvent> = Vec::new();
    let mut held_prof: Vec<(CapturePoint, ProfOp)> = Vec::new();
    let mut pending_events: Vec<CapturedEvent> = Vec::new();
    let mut pending_prof: Vec<(CapturePoint, ProfOp)> = Vec::new();

    let outcome: Result<Cycle, (RunErrorKind, String, Cycle)> = std::thread::scope(|s| {
        for (w, slot) in slots.iter().enumerate() {
            let cells = &cells;
            let gate = &gate;
            let plan = &plan;
            let inboxes = &inboxes;
            let state = &state;
            let barrier = &barrier;
            let lanes_out = &lanes_out;
            s.spawn(move || {
                worker_loop(
                    w,
                    n,
                    cells,
                    gate,
                    plan,
                    inboxes,
                    state,
                    slot,
                    barrier,
                    single_node,
                    telem,
                    lanes_out,
                )
            });
        }

        let mut e_start = sys.now;
        let outcome = loop {
            // A due rebalance moves the fences before the next epoch is
            // published; ownership only ever changes at this point, while
            // every worker is parked at the opening barrier.
            if refence_due {
                refence_due = false;
                fence = balanced_fence(&load, workers);
                load.fill(0);
                rebalances += 1;
            }
            // Epoch bound: adaptive (from observed freeze certificates
            // and the next in-flight arrival) or static, then cut on
            // every schedule the serial loop observes.
            let mut e_end = if tuning.adaptive_epochs {
                // Earliest cycle any node could act: frozen nodes cannot
                // inject before their certified wake bound or their first
                // delivery, whichever is earlier; a node without a
                // certificate could act immediately.
                let mut wake_min = Cycle::MAX;
                for &w in &wake {
                    let eff = if w > e_start { w } else { e_start };
                    wake_min = wake_min.min(eff);
                    if wake_min == e_start {
                        break;
                    }
                }
                let arrival = sys
                    .network
                    .as_ref()
                    .and_then(|net| net.next_arrival())
                    .unwrap_or(Cycle::MAX);
                let inj_min = wake_min.min(arrival).max(e_start);
                inj_min.saturating_add(lookahead)
            } else {
                e_start.saturating_add(lookahead)
            };
            e_end = e_end.min(next_multiple(e_start, WATCHDOG_INTERVAL));
            if let Some(every) = sys.invariant_every {
                e_end = e_end.min(next_multiple(e_start, every));
            }
            if let Some(m) = &metrics {
                e_end = e_end.min(m.sampler.next_due() + 1);
            }
            e_end = e_end.min(max_cycles).max(e_start + 1);
            // Pre-pass: every arrival in this epoch is already in flight
            // (lookahead), so pop and pre-distribute them now, capturing
            // the network's own events at their serial positions.
            if let Some(t) = &mut coord {
                t.switch(HostPhase::Exchange);
            }
            if let Some(net) = &mut sys.network {
                capture::begin((0, 0, 0));
                while let Some(a) = net.next_arrival() {
                    if a >= e_end {
                        break;
                    }
                    let mut k = 0u32;
                    loop {
                        capture::set_point((a, LANE_DELIVER, 2 * k));
                        let Some(msg) = net.pop_arrived(a) else { break };
                        inboxes[msg.dst.idx()]
                            .lock()
                            .unwrap()
                            .push_back((a, 2 * k + 1, msg));
                        net_empty_from = net_empty_from.max(a + 1);
                        k += 1;
                    }
                }
                capture::end();
                held_events.extend(take_captured_events());
                held_prof.extend(take_captured_prof_ops());
            }
            {
                let mut pl = plan.lock().unwrap();
                pl.start = e_start;
                pl.end = e_end;
                pl.stop = false;
                pl.fence.clone_from(&fence);
            }
            if let Some(t) = &mut coord {
                t.switch(HostPhase::BarrierDepart);
            }
            barrier.wait(); // epoch starts
                            // Double-buffered stream reconstruction: replay the previous
                            // epoch's merged capture batch while the workers tick this
                            // epoch. (Empty when the previous epoch had to replay
                            // synchronously — watchdog cycles, quiescence, failures.)
            if !pending_events.is_empty() || !pending_prof.is_empty() {
                if let Some(t) = &mut coord {
                    t.switch(HostPhase::CaptureReplay);
                }
                replay_streams(
                    &mut pending_events,
                    &mut pending_prof,
                    None,
                    &sys.tracer,
                    &sys.profiler,
                );
            }
            if let Some(t) = &mut coord {
                t.switch(HostPhase::BarrierArrive);
            }
            barrier.wait(); // epoch done
            if let Some(t) = &mut coord {
                t.switch(HostPhase::Merge);
            }
            let mut injects: Vec<InjectRec> = Vec::new();
            let failure;
            {
                let mut st = state.lock().unwrap();
                for g in 0..n {
                    quiet_since[g] = st.quiet_since[g];
                    if finished_at[g].is_none() {
                        finished_at[g] = st.finished_at[g];
                    }
                    wake[g] = st.wake[g];
                    load[g] += st.node_ticks[g];
                }
                failure = st.error.take();
                // Per-epoch counters: epoch length, barrier traffic, work
                // done vs. skipped, and the owned-node tick imbalance
                // across workers.
                epochs += 1;
                epoch_cycles.record(e_end - e_start);
                let mut tick_sum = 0u64;
                let mut tick_max = 0u64;
                for (w, (cum, &(t, sk, ns))) in hb_cum_tick.iter_mut().zip(&st.wstats).enumerate() {
                    ticked_cycles += t;
                    skipped_cycles += sk;
                    *cum += ns;
                    tick_sum += t;
                    tick_max = tick_max.max(t);
                    wload[w] += t;
                }
                if workers > 1 && tick_sum > 0 {
                    let mean = tick_sum as f64 / workers as f64;
                    imbalance_x1000.record((tick_max as f64 * 1000.0 / mean) as u64);
                }
            }
            for sl in &slots {
                let mut sl = sl.lock().unwrap();
                pending_events.append(&mut sl.events);
                pending_prof.append(&mut sl.prof);
                injects.append(&mut sl.injects);
            }
            pending_events.append(&mut held_events);
            pending_prof.append(&mut held_prof);
            barrier_msgs.record(injects.len() as u64);
            // Schedule a repartition when a full observation window shows
            // a worker ticking disproportionately often.
            if workers > 1 && tuning.rebalance_every > 0 {
                window_epochs += 1;
                if window_epochs >= tuning.rebalance_every {
                    window_epochs = 0;
                    let sum: u64 = wload.iter().sum();
                    let max = wload.iter().copied().max().unwrap_or(0);
                    if sum > 0 {
                        let mean = sum as f64 / workers as f64;
                        refence_due = max as f64 > mean * tuning.rebalance_threshold;
                    }
                    if !refence_due {
                        load.fill(0);
                    }
                    wload.fill(0);
                }
            }
            // Replay this epoch's injections in serial order.
            injects.sort_by_key(|r| (r.cycle, r.node, r.slot));
            if let Some(t) = &mut coord {
                t.switch(HostPhase::InjectReplay);
            }
            if let Some(net) = &mut sys.network {
                capture::begin((0, 0, 0));
                for r in injects.drain(..) {
                    capture::set_point((r.cycle, lane_inject(r.node), r.slot));
                    net.inject(r.at.max(r.cycle), r.msg);
                }
                capture::end();
                pending_events.extend(take_captured_events());
                pending_prof.extend(take_captured_prof_ops());
            }
            if let Some(t) = &mut coord {
                t.switch(HostPhase::Quiescence);
            }
            if app_done_at.is_none() && finished_at.iter().all(|f| f.is_some()) {
                app_done_at = finished_at.iter().map(|f| f.expect("checked")).max();
            }
            // Exact serial exit cycle Q, if this epoch reached quiescence:
            // the first loop-top cycle at which the application is done,
            // every node is quiescent and nothing is in flight.
            let in_flight = sys.network.as_ref().map_or(0, |net| net.in_flight_count());
            let q_cycle = match app_done_at {
                Some(done) if in_flight == 0 && quiet_since.iter().all(|q| q.is_some()) => {
                    let mq = quiet_since
                        .iter()
                        .map(|q| q.expect("checked"))
                        .max()
                        .expect("at least one node");
                    Some((done + 1).max(mq).max(net_empty_from).max(e_start))
                }
                _ => None,
            };
            // Merge every capture stream into the serial order and replay
            // now when something downstream must observe it this epoch:
            // a watchdog check reads (and writes) the trace stream, an
            // invariant cycle or the run's end flushes it, and ticks at
            // or past Q are about to be retracted (the serial loop never
            // ran them), so their events are dropped. Otherwise the
            // replay is deferred into the next epoch's tick window.
            let ends_epoch_checked = e_end.is_multiple_of(WATCHDOG_INTERVAL)
                || sys
                    .invariant_every
                    .is_some_and(|every| e_end.is_multiple_of(every));
            if failure.is_some() || q_cycle.is_some() || ends_epoch_checked || e_end >= max_cycles {
                if let Some(t) = &mut coord {
                    t.switch(HostPhase::CaptureReplay);
                }
                let cut = q_cycle.filter(|&q| q < e_end && failure.is_none());
                replay_streams(
                    &mut pending_events,
                    &mut pending_prof,
                    cut,
                    &sys.tracer,
                    &sys.profiler,
                );
            }
            if let Some((cycle, msg)) = failure {
                break Err((RunErrorKind::UnrecoverableFault, msg, cycle));
            }
            if let Some(q) = q_cycle {
                if q < e_end {
                    // The serial loop would have exited at Q, before the
                    // ticks Q..e_end — all idle ticks on a quiescent
                    // machine — and before any end-of-epoch check. Roll
                    // the overshoot back.
                    if let Some(t) = &mut coord {
                        t.switch(HostPhase::Quiescence);
                    }
                    for cell in &cells {
                        cell.lock().unwrap().retract_idle(q, e_end);
                    }
                    break Ok(q);
                }
            }
            // End-of-epoch checks, in exact serial order and on the exact
            // serial state (every node has now reached e_end).
            if let Some(t) = &mut coord {
                t.switch(HostPhase::Checks);
            }
            {
                let guards: Vec<_> = cells.iter().map(|c| c.lock().unwrap()).collect();
                let view: Vec<&Node> = guards.iter().map(|g| &**g).collect();
                if let Some(m) = &mut metrics {
                    m.sample(sys.cfg.app_threads, &view, sys.network.as_ref(), e_end - 1);
                }
                if e_end.is_multiple_of(WATCHDOG_INTERVAL) {
                    if let Some((kind, msg)) = wd.check(
                        &view,
                        sys.network.as_ref(),
                        app_done_at.is_some(),
                        &sys.tracer,
                        e_end,
                    ) {
                        break Err((kind, msg, e_end));
                    }
                }
                if let Some(every) = sys.invariant_every {
                    if e_end.is_multiple_of(every) {
                        if let Some(msg) = coherence_violation(&view) {
                            break Err((RunErrorKind::UnrecoverableFault, msg, e_end));
                        }
                    }
                }
            }
            if e_end >= max_cycles {
                break Err((
                    RunErrorKind::Deadlock,
                    format!(
                        "{:?} {} x{} ({}-way) did not quiesce in {max_cycles} cycles",
                        sys.cfg.model, sys.app, sys.cfg.nodes, sys.cfg.app_threads
                    ),
                    e_end,
                ));
            }
            if q_cycle == Some(e_end) {
                break Ok(e_end);
            }
            if let Some(t) = &mut coord {
                t.switch(HostPhase::Other);
                t.end_epoch();
            }
            if sys.heartbeat.as_ref().is_some_and(|hb| hb.due(e_end)) {
                // Per-worker utilization over the interval since the last
                // beat: tick nanoseconds against coordinator wall-clock.
                let now_wall = Instant::now();
                let dt_ns = now_wall.duration_since(hb_last_wall).as_nanos().max(1) as f64;
                let util: Vec<f64> = (0..workers)
                    .map(|w| (hb_cum_tick[w] - hb_last_tick[w]) as f64 / dt_ns)
                    .collect();
                hb_last_tick.copy_from_slice(&hb_cum_tick);
                hb_last_wall = now_wall;
                let hb = sys.heartbeat.as_mut().expect("dueness checked");
                hb.emit(e_end, "parallel", workers, epochs, &util);
            }
            e_start = e_end;
        };
        {
            let mut pl = plan.lock().unwrap();
            pl.start = 0;
            pl.end = 0;
            pl.stop = true;
        }
        barrier.wait();
        outcome
    });
    debug_assert!(pending_events.is_empty() && pending_prof.is_empty());

    // Reassemble the machine.
    sys.nodes = cells
        .into_iter()
        .map(|m| m.into_inner().expect("worker panicked holding a node"))
        .collect();
    sys.sync = gate.sync.into_inner().expect("sync lock poisoned");
    sys.metrics = metrics;
    sys.watchdog = wd;
    sys.app_done_at = app_done_at;
    sys.quiet_nodes = sys.nodes.iter().filter(|n| n.quiescent()).count();
    sys.finished_nodes = sys.nodes.iter().filter(|n| n.app_finished()).count();
    let end_now = match &outcome {
        Ok(q) => *q,
        Err((_, _, cycle)) => *cycle,
    };
    if let Some(hb) = &mut sys.heartbeat {
        // Final liveness record at the run end, closing the log even when
        // the run never crossed a heartbeat interval.
        let now_wall = Instant::now();
        let dt_ns = now_wall.duration_since(hb_last_wall).as_nanos().max(1) as f64;
        let util: Vec<f64> = (0..workers)
            .map(|w| (hb_cum_tick[w] - hb_last_tick[w]) as f64 / dt_ns)
            .collect();
        hb.emit(end_now, "parallel", workers, epochs, &util);
    }
    if let Some(t) = coord {
        let mut lanes = vec![t.finish("coord")];
        let mut wl = lanes_out.into_inner().expect("lanes lock poisoned");
        wl.sort_by_key(|&(w, _)| w);
        lanes.extend(wl.into_iter().map(|(_, l)| l));
        let _ = rebalances; // reported via the imbalance histogram today
        sys.host_profile = Some(HostProfile {
            engine: "parallel".to_string(),
            workers,
            epochs,
            lookahead,
            sim_cycles: end_now.saturating_sub(start_now),
            wall_ns: lanes[0].total_ns,
            lanes,
            epoch_cycles,
            barrier_msgs,
            imbalance_x1000,
            ticked_cycles,
            skipped_cycles,
        });
    }
    match outcome {
        Ok(q) => {
            sys.now = q;
            sys.tracer.flush();
            Ok(sys.collect())
        }
        Err((kind, msg, cycle)) => {
            sys.now = cycle;
            sys.tracer.flush();
            Err(sys.run_error(kind, msg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_fence_splits_by_weight() {
        // Heavy head: the first worker should get fewer nodes.
        let f = balanced_fence(&[100, 1, 1, 1, 1, 1, 1, 1], 2);
        assert_eq!(f, vec![0, 1, 8]);
        // Uniform load: near-even split.
        let f = balanced_fence(&[10; 8], 4);
        assert_eq!(f, vec![0, 2, 4, 6, 8]);
        // Zero load still yields non-empty partitions.
        let f = balanced_fence(&[0; 4], 4);
        assert_eq!(f, vec![0, 1, 2, 3, 4]);
        // More extreme skew than workers can fix: every partition keeps
        // at least one node.
        let f = balanced_fence(&[0, 0, 0, 1000], 4);
        assert_eq!(f.len(), 5);
        for w in 0..4 {
            assert!(f[w] < f[w + 1], "empty partition in {f:?}");
        }
    }

    #[test]
    fn chunk_covers_all_nodes() {
        for workers in 1..=8 {
            for n in workers..=32 {
                let mut covered = 0;
                for w in 0..workers {
                    let (lo, hi) = chunk(w, workers, n);
                    assert!(lo <= hi);
                    covered += hi - lo;
                }
                assert_eq!(covered, n);
            }
        }
    }

    /// Both engines lean on the same contract: once the machine reports
    /// quiescent, overshooting it by extra ticks and then retracting the
    /// idle bookkeeping ([`crate::node::Node::retract_idle`], exactly
    /// what the parallel engine does when an epoch runs past the exact
    /// quiescence point) leaves *nothing* observable behind. This holds
    /// the contract to account for the `sb_drain_app` hole (a finished
    /// thread's last stores still draining to L1d after `quiesced()`
    /// went true, each drain an un-retractable cache access), which
    /// surfaced as a 64-node stats divergence.
    #[test]
    #[ignore = "minutes in a debug build; CI runs it in release via the engine-scaling leg"]
    fn quiesced_machine_ticks_are_inert() {
        use crate::experiment::{build_system, ExperimentConfig};
        use smtp_types::MachineModel;
        use smtp_workloads::AppKind;

        let mut e = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Fft, 64, 2);
        e.scale = 0.02;
        let mut sys = build_system(&e);
        sys.run_with(e.max_cycles, EngineKind::Serial).unwrap();
        let snapshot = |sys: &crate::system::System| -> Vec<String> {
            sys.nodes
                .iter()
                .map(|n| format!("{:?} {:?}", n.mem.stats(), n.pipeline.stats()))
                .collect()
        };
        let before = snapshot(&sys);
        assert!(sys.nodes.iter().all(|n| n.quiescent()));
        let q = sys.now;
        for _ in 0..512 {
            sys.tick();
        }
        for cell in sys.nodes.iter_mut() {
            cell.retract_idle(q, q + 512);
        }
        let after = snapshot(&sys);
        for (g, (a, b)) in before.iter().zip(&after).enumerate() {
            assert_eq!(
                a, b,
                "node {g}: post-quiescence overshoot + retraction is not a no-op"
            );
        }
        assert!(sys.nodes.iter().all(|n| n.quiescent()));
    }
}
