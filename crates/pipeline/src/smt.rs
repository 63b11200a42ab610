//! The nine-stage out-of-order SMT pipeline with SMTp extensions.
//!
//! Per-cycle stage order (commit first so freed resources recycle within
//! the cycle, then back-to-front): resolve branches → commit → store-buffer
//! drain / issue → rename → decode → fetch. See the crate docs for the
//! SMTp-specific behaviour.

use crate::branch::{BranchPredictor, Btb};
use crate::env::PipeEnv;
use crate::regs::{RegFiles, RenameOutcome};
use crate::stats::PipeStats;
use crate::window::{DynInst, ThreadState};
use smtp_cache::{AccessOutcome, MemHierarchy};
use smtp_isa::{FuClass, Inst, Op, Reg, RegClass, SyncOp, SyncOutcome};
use smtp_trace::{Category, Event, Tracer};
use smtp_types::{app_code_addr, Addr, Ctx, Cycle, NodeId, PipelineParams, Region, MAX_CTX};
use std::collections::VecDeque;

const SEQ_MASK: u64 = 0x0FFF_FFFF;

/// Tag used by the head of the application store-buffer drain queue.
const APP_DRAIN_TAG: u32 = 0xD000_0000;
/// Tag used by the head of the protocol store drain queue.
const PROT_DRAIN_TAG: u32 = 0xE000_0000;

/// Encode a pipeline wake-up tag for the memory hierarchy.
fn make_tag(ctx: Ctx, seq: u64) -> u32 {
    ((ctx.0 as u32) << 28) | (seq & SEQ_MASK) as u32
}

fn split_tag(tag: u32) -> (Ctx, u64) {
    (Ctx((tag >> 28) as u8), (tag & SEQ_MASK as u32) as u64)
}

#[derive(Clone, Copy, Debug)]
struct Resolve {
    ctx: Ctx,
    seq: u64,
    at: Cycle,
}

#[derive(Clone, Debug)]
struct FrontEntry {
    ctx: Ctx,
    seq: u64,
    inst: Inst,
    predicted_taken: bool,
}

/// A two-section front-end queue: application instructions may use at most
/// `cap - reserve` slots; the protocol section may use all of them
/// (paper §2.2 — the queues keep separate logical head/tail pointers).
#[derive(Clone, Debug)]
struct FrontQueue {
    app: VecDeque<FrontEntry>,
    prot: VecDeque<FrontEntry>,
    cap: usize,
    reserve: usize,
}

impl FrontQueue {
    fn new(cap: usize, reserve: usize) -> FrontQueue {
        FrontQueue {
            app: VecDeque::with_capacity(cap),
            prot: VecDeque::with_capacity(cap),
            cap,
            reserve,
        }
    }

    fn total(&self) -> usize {
        self.app.len() + self.prot.len()
    }

    fn can_push(&self, ctx: Ctx) -> bool {
        if self.total() >= self.cap {
            return false;
        }
        ctx.is_protocol() || self.app.len() < self.cap - self.reserve
    }

    fn push(&mut self, e: FrontEntry) {
        debug_assert!(self.can_push(e.ctx));
        if e.ctx.is_protocol() {
            self.prot.push_back(e);
        } else {
            self.app.push_back(e);
        }
    }

    /// Move (in order) all entries of one context to the back of `out` —
    /// squash support. Returns how many moved.
    fn remove_ctx(&mut self, ctx: Ctx, out: &mut VecDeque<(u64, Inst)>) -> usize {
        let q = if ctx.is_protocol() {
            &mut self.prot
        } else {
            &mut self.app
        };
        let before = out.len();
        q.retain(|e| {
            if e.ctx == ctx {
                out.push_back((e.seq, e.inst));
            }
            e.ctx != ctx
        });
        out.len() - before
    }
}

/// The active contexts in commit priority order: application threads
/// `0..app_threads`, then the protocol context on SMTp. A fixed-size `Copy`
/// list, so the per-cycle stages can walk it while mutating the pipeline.
#[derive(Clone, Copy, Debug)]
struct ActiveCtxs {
    ctxs: [Ctx; MAX_CTX],
    len: usize,
}

impl ActiveCtxs {
    fn new(app_threads: usize, smtp: bool) -> ActiveCtxs {
        let mut ctxs = [Ctx(0); MAX_CTX];
        for (i, c) in ctxs.iter_mut().enumerate().take(app_threads) {
            *c = Ctx(i as u8);
        }
        let mut len = app_threads;
        if smtp {
            ctxs[len] = Ctx::protocol();
            len += 1;
        }
        ActiveCtxs { ctxs, len }
    }
}

impl std::ops::Deref for ActiveCtxs {
    type Target = [Ctx];

    fn deref(&self) -> &[Ctx] {
        &self.ctxs[..self.len]
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CommitOne {
    Committed,
    Blocked,
    Empty,
}

/// The SMT pipeline of one node.
#[derive(Debug)]
pub struct SmtPipeline {
    node: NodeId,
    p: PipelineParams,
    app_threads: usize,
    active: ActiveCtxs,
    reserve: usize,
    threads: Vec<ThreadState>,
    regs: RegFiles,
    pred: BranchPredictor,
    btb: Btb,
    decode_q: FrontQueue,
    rename_q: FrontQueue,
    iq_int: VecDeque<(Ctx, u64)>,
    iq_fp: VecDeque<(Ctx, u64)>,
    iq_int_used: usize,
    iq_fp_used: usize,
    lsq_used: usize,
    ckpt_used: usize,
    sb_used: usize,
    sb_drain_app: VecDeque<(Ctx, Addr)>,
    sb_drain_prot: VecDeque<Addr>,
    sb_drain_app_waiting: bool,
    sb_drain_prot_waiting: bool,
    resolving: Vec<Resolve>,
    rr_commit: usize,
    rr_mem: usize,
    drain_first: bool,
    stats: PipeStats,
    tracer: Tracer,
}

impl SmtPipeline {
    /// Build a pipeline for `node` with `app_threads` application contexts;
    /// `smtp` enables the protocol context and the resource reservations.
    pub fn new(node: NodeId, p: &PipelineParams, app_threads: usize, smtp: bool) -> SmtPipeline {
        let reserve = usize::from(smtp);
        let threads = (0..MAX_CTX)
            .map(|i| ThreadState::new(Ctx(i as u8), p.ras_entries))
            .collect();
        SmtPipeline {
            node,
            p: p.clone(),
            app_threads,
            active: ActiveCtxs::new(app_threads, smtp),
            reserve,
            threads,
            regs: RegFiles::new(
                p.int_regs(app_threads),
                p.fp_regs(app_threads),
                app_threads,
                reserve,
            ),
            pred: BranchPredictor::new(),
            btb: Btb::new(p.btb_sets, p.btb_ways),
            decode_q: FrontQueue::new(p.decode_queue, reserve),
            rename_q: FrontQueue::new(p.rename_queue, reserve),
            iq_int: VecDeque::new(),
            iq_fp: VecDeque::new(),
            iq_int_used: 0,
            iq_fp_used: 0,
            lsq_used: 0,
            ckpt_used: 0,
            sb_used: 0,
            sb_drain_app: VecDeque::new(),
            sb_drain_prot: VecDeque::new(),
            sb_drain_app_waiting: false,
            sb_drain_prot_waiting: false,
            resolving: Vec::new(),
            rr_commit: 0,
            rr_mem: 0,
            drain_first: false,
            stats: PipeStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach the system tracer (events: `pipe_send`, `pipe_ldctxt`, and
    /// the sync events fired at `SyncStore` graduation).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Whether every application thread has finished its program.
    pub fn finished(&self) -> bool {
        self.threads[..self.app_threads]
            .iter()
            .all(|t| t.finished())
    }

    /// Whether the protocol thread has no instructions in flight.
    pub fn protocol_quiesced(&self) -> bool {
        let t = &self.threads[Ctx::protocol().idx()];
        t.window.is_empty()
            && t.refetch.is_empty()
            && t.peeked.is_none()
            && t.frontend_count == 0
            && self.sb_drain_prot.is_empty()
    }

    /// Whether both store-buffer drain queues have fully written back. A
    /// thread can be [`SmtPipeline::finished`] (program ended, window
    /// committed) while its last stores still sit in the drain queue; each
    /// remaining entry is a real cache access on a future tick, so the
    /// node must not claim quiescence until the queues are empty.
    pub fn drains_quiesced(&self) -> bool {
        self.sb_drain_app.is_empty() && self.sb_drain_prot.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &PipeStats {
        &self.stats
    }

    /// Predictor statistics for a context: `(predictions, mispredictions)`.
    pub fn branch_stats(&self, ctx: Ctx) -> (u64, u64) {
        self.pred.stats(ctx)
    }

    /// A load miss completed: wake the waiting instruction.
    pub fn load_done(&mut self, tag: u32, at: Cycle) {
        let (ctx, mseq) = split_tag(tag);
        let th = &mut self.threads[ctx.idx()];
        // Find the (unique) window instruction with this masked sequence
        // still waiting on memory.
        let Some(head) = th.window.front().map(|d| d.seq) else {
            return;
        };
        let mut target = None;
        for d in th.window.iter_mut() {
            if d.seq & SEQ_MASK == mseq && d.mem_started && !d.issued && d.inst.is_load() {
                target = Some(d);
                break;
            }
        }
        let _ = head;
        if let Some(d) = target {
            d.issued = true;
            d.ready_at = at;
            if let Some((class, phys, _)) = d.dst_phys {
                self.regs.set_ready(class, phys, at);
            }
        }
        // Stale wake-ups for squashed instructions are ignored.
    }

    /// An instruction-cache miss completed for `ctx`.
    pub fn ifetch_done(&mut self, ctx: Ctx, _at: Cycle) {
        self.threads[ctx.idx()].awaiting_ifetch = false;
    }

    fn fetch_addr(&self, ctx: Ctx, pc: u32) -> Addr {
        if ctx.is_protocol() {
            Addr::new(self.node, Region::ProtocolCode, pc as u64 * 4)
        } else {
            app_code_addr(self.node, ctx.idx(), pc)
        }
    }

    /// Advance one cycle.
    pub fn tick(&mut self, now: Cycle, env: &mut dyn PipeEnv, mem: &mut MemHierarchy) {
        self.resolve_branches(now, env);
        self.commit(now, env, mem);
        self.issue(now, mem);
        self.rename(now);
        self.decode();
        self.fetch(now, env, mem);
        self.end_of_cycle_stats(now);
    }

    // ------------------------------ resolve ------------------------------

    fn resolve_branches(&mut self, now: Cycle, env: &mut dyn PipeEnv) {
        if self.resolving.is_empty() {
            return;
        }
        self.resolving
            .sort_unstable_by_key(|r| (r.at, r.ctx.0, r.seq));
        // Sorted, the due entries form a prefix. Anything pushed while it
        // resolves lands behind the not-yet-due rest.
        let due = self.resolving.partition_point(|r| r.at <= now);
        for i in 0..due {
            let r = self.resolving[i];
            self.resolve_one(r, now, env);
        }
        self.resolving.drain(..due);
    }

    fn resolve_one(&mut self, r: Resolve, now: Cycle, _env: &mut dyn PipeEnv) {
        let th = &mut self.threads[r.ctx.idx()];
        let Some(d) = th.find_mut(r.seq) else {
            return; // squashed
        };
        if d.resolved
            || !d.issued
            || d.ready_at != r.at
            || !d.inst.is_predicted_branch() && !matches!(d.inst.op, Op::Call { .. } | Op::Ret)
        {
            return; // stale entry (instruction was squashed and refetched)
        }
        d.resolved = true;
        if d.holds_ckpt {
            d.holds_ckpt = false;
            self.ckpt_used -= 1;
            if r.ctx.is_protocol() {
                self.stats.prot_branch_stack.sub(1);
            }
        }
        let (op, pc, predicted) = (d.inst.op, d.inst.pc, d.predicted_taken);
        match op {
            Op::Branch { taken, target } | Op::PBranch { taken, target } => {
                self.stats.branches[r.ctx.idx()] += 1;
                self.pred.train(r.ctx, pc, taken);
                if taken {
                    self.btb.insert(pc, target);
                }
                if predicted != taken {
                    self.stats.mispredicts[r.ctx.idx()] += 1;
                    self.pred.record_mispredict(r.ctx);
                    self.squash_after(r.ctx, r.seq, now);
                }
            }
            Op::Call { .. } | Op::Ret => {
                // RAS predictions are always correct in this model (squash
                // recovery restores the stack perfectly; see DESIGN.md).
            }
            _ => {}
        }
    }

    // ------------------------------ squash ------------------------------

    fn squash_after(&mut self, ctx: Ctx, bseq: u64, now: Cycle) {
        let is_prot = ctx.is_protocol();
        let th = &mut self.threads[ctx.idx()];
        // The refetch order is: squashed window, rename queue, decode queue,
        // peek slot, then whatever was already awaiting refetch. Append the
        // new entries behind the old ones, then rotate the old ones to the
        // back.
        let old = th.refetch.len();
        let keep = th.window.partition_point(|d| d.seq <= bseq);
        let squashed = th.window.len() - keep;
        th.refetch
            .extend(th.window.range(keep..).map(|d| (d.seq, d.inst)));
        // Roll back youngest-first.
        while th.window.len() > keep {
            let d = th.window.pop_back().expect("checked");
            if let Some((class, phys, prev)) = d.dst_phys {
                self.regs.rollback(
                    ctx,
                    Reg {
                        class,
                        idx: d.dst_logical,
                    },
                    phys,
                    prev,
                );
            }
            if d.holds_ckpt {
                self.ckpt_used -= 1;
                if is_prot {
                    self.stats.prot_branch_stack.sub(1);
                }
            }
            if d.in_lsq {
                self.lsq_used -= 1;
                if is_prot {
                    self.stats.prot_lsq.sub(1);
                }
            }
            if d.in_sb {
                self.sb_used -= 1;
            }
            match d.in_iq {
                Some(RegClass::Int) => {
                    self.iq_int_used -= 1;
                    if is_prot {
                        self.stats.prot_int_queue.sub(1);
                    }
                }
                Some(RegClass::Fp) => self.iq_fp_used -= 1,
                None => {}
            }
            self.stats.squashed[ctx.idx()] += 1;
        }
        while th.mem_order.back().is_some_and(|&s| s > bseq) {
            th.mem_order.pop_back();
        }
        if is_prot && squashed > 0 {
            self.stats.protocol_squash_cycles += 1;
        }
        // Remove younger front-end entries; they are all younger than
        // anything in the window.
        let rq = self.rename_q.remove_ctx(ctx, &mut th.refetch);
        let dq = self.decode_q.remove_ctx(ctx, &mut th.refetch);
        th.frontend_count -= rq + dq;
        th.refetch.extend(th.peeked.take());
        th.refetch.rotate_left(old);
        if th.block_seq.is_some_and(|s| s > bseq) {
            th.block_seq = None;
        }
        if th.halted {
            // The squashed path re-fetches; the program end marker will be
            // produced again by the source replay if it was speculative.
            th.halted = th.refetch.is_empty() && th.peeked.is_none();
        }
        th.fetch_stall_until = now + self.p.redirect_penalty + 3; // front-end refill
    }

    // ------------------------------ commit ------------------------------

    fn commit(&mut self, now: Cycle, env: &mut dyn PipeEnv, mem: &mut MemHierarchy) {
        let active = self.active;
        let n = active.len();
        let mut budget = self.p.commit_width;
        let mut committed_any = [false; MAX_CTX];
        'outer: while budget > 0 {
            let mut any = false;
            for k in 0..n {
                if budget == 0 {
                    break 'outer;
                }
                let ctx = active[(self.rr_commit + k) % n];
                match self.try_commit_one(ctx, now, env, mem) {
                    CommitOne::Committed => {
                        budget -= 1;
                        any = true;
                        committed_any[ctx.idx()] = true;
                    }
                    CommitOne::Blocked | CommitOne::Empty => {}
                }
            }
            if !any {
                break;
            }
        }
        self.rr_commit = (self.rr_commit + 1) % n;
        // Paper §4 time attribution (Figs. 5/7): every pre-finish cycle of
        // an application thread lands in exactly one bucket — busy, memory,
        // synchronization, squash recovery, fetch-starved or other.
        for (t, &committed) in committed_any.iter().enumerate().take(self.app_threads) {
            let th = &self.threads[t];
            if th.finished() {
                continue;
            }
            if committed {
                self.stats.busy_cycles[t] += 1;
                continue;
            }
            if let Some(h) = th.window.front() {
                if h.inst.is_mem() && !h.completed(now) {
                    self.stats.memory_stall[t] += 1;
                    continue;
                }
            }
            if th.block_seq.is_some() {
                self.stats.sync_stall[t] += 1;
            } else if th.fetch_stall_until > now {
                self.stats.squash_stall[t] += 1;
            } else if th.window.is_empty() && th.frontend_count == 0 && th.peeked.is_none() {
                self.stats.fetch_starved[t] += 1;
            } else {
                self.stats.other_stall[t] += 1;
            }
        }
    }

    fn try_commit_one(
        &mut self,
        ctx: Ctx,
        now: Cycle,
        env: &mut dyn PipeEnv,
        mem: &mut MemHierarchy,
    ) -> CommitOne {
        let is_prot = ctx.is_protocol();
        {
            let th = &self.threads[ctx.idx()];
            let Some(head) = th.window.front() else {
                return CommitOne::Empty;
            };
            if head.inst.is_nonspeculative() && !head.issued && !self.prepare_nonspec(ctx, now, mem)
            {
                return CommitOne::Blocked;
            }
        }
        // SyncBranch: resolve non-speculatively at graduation.
        {
            let th = &self.threads[ctx.idx()];
            let head = th.window.front().expect("checked above");
            if let Op::SyncBranch { cond } = head.inst.op {
                if head.completed(now) && !head.resolved {
                    let seq = head.seq;
                    let holds = head.holds_ckpt;
                    let satisfied = env.poll(self.node, ctx, cond);
                    env.sync_result(ctx, smtp_isa::SyncOutcome::Cond(satisfied));
                    if holds {
                        self.ckpt_used -= 1;
                        if ctx.is_protocol() {
                            self.stats.prot_branch_stack.sub(1);
                        }
                    }
                    let th = &mut self.threads[ctx.idx()];
                    if th.block_seq == Some(seq) {
                        th.block_seq = None;
                    }
                    let d = th.window.front_mut().expect("checked");
                    d.resolved = true;
                    d.holds_ckpt = false;
                }
            }
        }
        let th = &self.threads[ctx.idx()];
        let head = th.window.front().expect("checked above");
        if !head.completed(now) || (head.inst.is_branch() && !head.resolved) {
            return CommitOne::Blocked;
        }
        let d = self.threads[ctx.idx()].window.pop_front().expect("checked");
        // Graduation-time effects.
        match d.inst.op {
            Op::Send { msg_idx } => {
                let node = self.node;
                self.tracer
                    .emit(Category::Pipeline, now, || Event::PipeSend { node, ctx });
                env.send_graduated(msg_idx, now)
            }
            Op::Ldctxt => {
                let node = self.node;
                self.tracer
                    .emit(Category::Pipeline, now, || Event::PipeLdctxt { node, ctx });
                env.ldctxt_graduated(now)
            }
            Op::SyncStore { op, .. } => {
                let out = env.sync_store(self.node, ctx, op);
                self.trace_sync(ctx, op, out, now);
                env.sync_result(ctx, out);
                let th = &mut self.threads[ctx.idx()];
                if th.block_seq == Some(d.seq) {
                    th.block_seq = None;
                }
                th.sync_store_started = false;
            }
            _ => {}
        }
        if let Some((class, _phys, prev)) = d.dst_phys {
            self.regs.free_prev(ctx, class, prev);
        }
        if d.in_lsq {
            self.lsq_used -= 1;
            if is_prot {
                self.stats.prot_lsq.sub(1);
            }
        }
        if d.in_sb {
            // The store's slot stays allocated until it drains to the cache.
            if let Some(addr) = d.inst.mem_addr() {
                if matches!(d.inst.op, Op::PStore { .. }) {
                    self.sb_drain_prot.push_back(addr);
                } else {
                    self.sb_drain_app.push_back((ctx, addr));
                }
            }
        }
        self.stats.committed[ctx.idx()] += 1;
        CommitOne::Committed
    }

    /// Translate a graduated sync store's `(op, outcome)` pair into the
    /// observable sync event, if any. Lock attempts record win/lose;
    /// barrier arrivals record spin vs group completion (the last arrival).
    fn trace_sync(&self, ctx: Ctx, op: SyncOp, out: SyncOutcome, now: Cycle) {
        let node = self.node;
        let ev = match (op, out) {
            (SyncOp::LockAttempt(lock), SyncOutcome::Acquired) => {
                Some(Event::LockAcquire { node, ctx, lock })
            }
            (SyncOp::LockAttempt(lock), SyncOutcome::Failed) => {
                Some(Event::LockFail { node, ctx, lock })
            }
            (SyncOp::LockRelease(lock), _) => Some(Event::LockRelease { node, ctx, lock }),
            (SyncOp::BarrierArrive { bar, .. }, SyncOutcome::MustSpin { .. }) => {
                Some(Event::BarrierArrive { node, ctx, bar })
            }
            (SyncOp::BarrierArrive { bar, .. }, SyncOutcome::PropagateUp) => {
                Some(Event::BarrierComplete { node, ctx, bar })
            }
            _ => None,
        };
        if let Some(ev) = ev {
            self.tracer.emit(Category::Sync, now, || ev);
        }
    }

    /// Make a non-speculative head instruction executable. Returns `false`
    /// while it must keep waiting.
    fn prepare_nonspec(&mut self, ctx: Ctx, now: Cycle, mem: &mut MemHierarchy) -> bool {
        let sb_cap = self.p.store_buffer;
        let reserve = self.reserve;
        let sb_used = self.sb_used;
        let th = &mut self.threads[ctx.idx()];
        let d = th.window.front_mut().expect("caller checked");
        match d.inst.op {
            Op::Send { .. } | Op::Switch | Op::Ldctxt => {
                d.issued = true;
                d.ready_at = now;
                if let Some((class, phys, _)) = d.dst_phys {
                    self.regs.set_ready(class, phys, now);
                }
                true
            }
            Op::PStore { .. } => {
                // Protocol may use every store-buffer slot, including the
                // reserved one.
                if sb_used >= sb_cap {
                    return false;
                }
                self.sb_used += 1;
                d.in_sb = true;
                d.issued = true;
                d.ready_at = now + 1;
                true
            }
            Op::SyncStore { addr, .. } => {
                // Performed directly against the cache at graduation; the
                // semantic effect fires at commit. On a miss the store
                // joins the MSHR and a StoreDone wake-up finishes it.
                let _ = (th.sync_store_started, reserve);
                if d.mem_started {
                    return false; // joined an in-flight miss; wait
                }
                let seq = d.seq;
                match mem.store_retire(make_tag(ctx, seq), addr, now, false) {
                    AccessOutcome::Ready(at) => {
                        d.issued = true;
                        d.ready_at = at;
                        true
                    }
                    AccessOutcome::Pending => {
                        d.mem_started = true;
                        false
                    }
                    AccessOutcome::Blocked => false,
                }
            }
            _ => unreachable!("non-speculative op list out of sync"),
        }
    }

    // ------------------------------- issue -------------------------------

    fn srcs_ready(&self, d: &DynInst, now: Cycle) -> bool {
        d.src_phys.iter().all(|s| match s {
            Some((class, phys)) => self.regs.ready_at(*class, *phys) <= now,
            None => true,
        })
    }

    fn issue(&mut self, now: Cycle, mem: &mut MemHierarchy) {
        // Integer queue: ALUs minus the dedicated address-calculation unit.
        let alu_budget = self.p.alus - 1;
        self.issue_queue(RegClass::Int, alu_budget, now);
        self.issue_queue(RegClass::Fp, self.p.fpus, now);
        // One memory operation per cycle through the AGU + D-cache port,
        // shared with store-buffer drains (alternating priority).
        let mut port = 1usize;
        if self.drain_first {
            self.drain_app_stores(now, mem, &mut port);
            self.issue_mem(now, mem, &mut port);
        } else {
            self.issue_mem(now, mem, &mut port);
            self.drain_app_stores(now, mem, &mut port);
        }
        self.drain_first = !self.drain_first;
        // Protocol stores drain on their own path (deadlock avoidance: they
        // must never queue behind blocked application stores).
        self.drain_protocol_stores(now, mem);
    }

    /// Issue ready entries of one queue oldest-first, up to `budget`, in a
    /// single in-place pass. Entries left behind keep their age order;
    /// squashed or stale entries are dropped.
    fn issue_queue(&mut self, class: RegClass, mut budget: usize, now: Cycle) {
        let mut q = std::mem::take(match class {
            RegClass::Int => &mut self.iq_int,
            RegClass::Fp => &mut self.iq_fp,
        });
        q.retain(|&(ctx, seq)| {
            let lat = match self.threads[ctx.idx()].find(seq) {
                Some(d) if d.in_iq == Some(class) && !d.issued => {
                    if budget == 0 || !self.srcs_ready(d, now) {
                        return true;
                    }
                    d.inst.exec_latency(
                        self.p.int_mul_latency,
                        self.p.int_div_latency,
                        self.p.fp_mul_latency,
                        self.p.fp_div_latency,
                    )
                }
                _ => return false, // squashed or stale: drop the entry
            };
            budget -= 1;
            self.issue_one(class, ctx, seq, now + 2 + lat);
            false
        });
        match class {
            RegClass::Int => self.iq_int = q,
            RegClass::Fp => self.iq_fp = q,
        }
    }

    /// Issue one issue-queue entry whose result is ready at `ready_at`
    /// (2 operand-read stages + execution).
    fn issue_one(&mut self, class: RegClass, ctx: Ctx, seq: u64, ready_at: Cycle) {
        let is_prot = ctx.is_protocol();
        let d = self.threads[ctx.idx()].find_mut(seq).expect("present");
        d.issued = true;
        d.in_iq = None;
        d.ready_at = ready_at;
        let dst = d.dst_phys;
        // SyncBranches resolve at commit instead (their outcome delivery
        // must be non-speculative).
        let is_branch = d.inst.is_branch() && !matches!(d.inst.op, Op::SyncBranch { .. });
        match class {
            RegClass::Int => {
                self.iq_int_used -= 1;
                if is_prot {
                    self.stats.prot_int_queue.sub(1);
                }
            }
            RegClass::Fp => self.iq_fp_used -= 1,
        }
        if let Some((c, phys, _)) = dst {
            self.regs.set_ready(c, phys, ready_at);
        }
        if is_branch {
            self.resolving.push(Resolve {
                ctx,
                seq,
                at: ready_at,
            });
        }
    }

    fn issue_mem(&mut self, now: Cycle, mem: &mut MemHierarchy, port: &mut usize) {
        if *port == 0 {
            return;
        }
        let active = self.active;
        let n = active.len();
        for k in 0..n {
            if *port == 0 {
                return;
            }
            let ctx = active[(self.rr_mem + k) % n];
            let Some(&mseq) = self.threads[ctx.idx()].mem_order.front() else {
                continue;
            };
            let (op, ready) = {
                let th = &self.threads[ctx.idx()];
                let d = th.find(mseq).expect("mem_order out of sync");
                (d.inst.op, self.srcs_ready(d, now))
            };
            if !ready {
                continue;
            }
            let is_prot_access = matches!(op, Op::PLoad { .. });
            match op {
                Op::Load { addr } | Op::SyncLoad { addr } | Op::PLoad { addr } => {
                    *port -= 1;
                    match mem.load(make_tag(ctx, mseq), addr, now, is_prot_access) {
                        AccessOutcome::Ready(at) => {
                            let d = self.threads[ctx.idx()].find_mut(mseq).expect("present");
                            d.issued = true;
                            d.mem_started = true;
                            d.ready_at = at;
                            if let Some((class, phys, _)) = d.dst_phys {
                                self.regs.set_ready(class, phys, at);
                            }
                            self.threads[ctx.idx()].mem_order.pop_front();
                        }
                        AccessOutcome::Pending => {
                            let d = self.threads[ctx.idx()].find_mut(mseq).expect("present");
                            d.mem_started = true;
                            self.threads[ctx.idx()].mem_order.pop_front();
                        }
                        AccessOutcome::Blocked => {
                            // Retry next cycle; the port attempt is spent.
                        }
                    }
                    self.rr_mem = (self.rr_mem + k + 1) % n;
                    return;
                }
                Op::Store { .. } => {
                    let cap = self.p.store_buffer - self.reserve;
                    if self.sb_used >= cap {
                        continue; // wait for a store-buffer slot
                    }
                    *port -= 1;
                    self.sb_used += 1;
                    let d = self.threads[ctx.idx()].find_mut(mseq).expect("present");
                    d.in_sb = true;
                    d.issued = true;
                    d.ready_at = now + 1;
                    self.threads[ctx.idx()].mem_order.pop_front();
                    self.rr_mem = (self.rr_mem + k + 1) % n;
                    return;
                }
                Op::Prefetch { addr, exclusive } => {
                    *port -= 1;
                    mem.prefetch(addr, exclusive, now);
                    let d = self.threads[ctx.idx()].find_mut(mseq).expect("present");
                    d.issued = true;
                    d.ready_at = now + 1;
                    self.threads[ctx.idx()].mem_order.pop_front();
                    self.rr_mem = (self.rr_mem + k + 1) % n;
                    return;
                }
                _ => unreachable!("non-speculative ops never enter mem_order"),
            }
        }
    }

    fn drain_app_stores(&mut self, now: Cycle, mem: &mut MemHierarchy, port: &mut usize) {
        if *port == 0 || self.sb_drain_app_waiting {
            return;
        }
        let Some(&(_, addr)) = self.sb_drain_app.front() else {
            return;
        };
        *port -= 1;
        match mem.store_retire(APP_DRAIN_TAG, addr, now, false) {
            AccessOutcome::Ready(_) => {
                self.sb_drain_app.pop_front();
                self.sb_used -= 1;
            }
            AccessOutcome::Pending => self.sb_drain_app_waiting = true,
            AccessOutcome::Blocked => {}
        }
    }

    fn drain_protocol_stores(&mut self, now: Cycle, mem: &mut MemHierarchy) {
        if self.sb_drain_prot_waiting {
            return;
        }
        let Some(&addr) = self.sb_drain_prot.front() else {
            return;
        };
        match mem.store_retire(PROT_DRAIN_TAG, addr, now, true) {
            AccessOutcome::Ready(_) => {
                self.sb_drain_prot.pop_front();
                self.sb_used -= 1;
            }
            AccessOutcome::Pending => self.sb_drain_prot_waiting = true,
            AccessOutcome::Blocked => {}
        }
    }

    /// A store that joined a miss resolved (see
    /// [`smtp_cache::MemEvent::StoreDone`]). `performed` means its data is
    /// in the line; otherwise it must retry (upgrade path).
    pub fn store_done(&mut self, tag: u32, at: Cycle, performed: bool) {
        if tag == APP_DRAIN_TAG {
            if performed {
                self.sb_drain_app.pop_front();
                self.sb_used -= 1;
            }
            self.sb_drain_app_waiting = false;
            return;
        }
        if tag == PROT_DRAIN_TAG {
            if performed {
                self.sb_drain_prot.pop_front();
                self.sb_used -= 1;
            }
            self.sb_drain_prot_waiting = false;
            return;
        }
        let (ctx, mseq) = split_tag(tag);
        let th = &mut self.threads[ctx.idx()];
        for d in th.window.iter_mut() {
            if d.seq & SEQ_MASK == mseq && d.mem_started && !d.issued && d.inst.is_store() {
                if performed {
                    d.issued = true;
                    d.ready_at = at;
                } else {
                    d.mem_started = false; // retry: upgrade will be issued
                }
                return;
            }
        }
        // Stale wake-up for a squashed instruction: ignored.
    }

    // ------------------------------- rename -------------------------------

    fn rename(&mut self, now: Cycle) {
        let mut budget = self.p.fetch_width; // 8-wide rename
                                             // Protocol section first (it is rarely occupied and must never be
                                             // blocked behind a stalled application instruction).
        while budget > 0 {
            let Some(e) = self.rename_q.prot.front().cloned() else {
                break;
            };
            if self.try_rename(&e, now) {
                self.rename_q.prot.pop_front();
                budget -= 1;
            } else {
                break;
            }
        }
        while budget > 0 {
            let Some(e) = self.rename_q.app.front().cloned() else {
                break;
            };
            if self.try_rename(&e, now) {
                self.rename_q.app.pop_front();
                budget -= 1;
            } else {
                break;
            }
        }
    }

    fn try_rename(&mut self, e: &FrontEntry, _now: Cycle) -> bool {
        let ctx = e.ctx;
        let is_prot = ctx.is_protocol();
        let inst = e.inst;
        let app_reserve = if is_prot { 0 } else { self.reserve };
        if self.threads[ctx.idx()].window.len() >= self.p.active_list {
            return false;
        }
        if inst.is_branch() && self.ckpt_used >= self.p.branch_stack - app_reserve {
            return false;
        }
        if inst.is_mem() {
            if self.lsq_used >= self.p.lsq - app_reserve {
                self.stats.lsq_full_stalls[ctx.idx()] += 1;
                return false;
            }
        } else {
            match inst.fu_class() {
                FuClass::IntAlu | FuClass::IntMulDiv => {
                    if self.iq_int_used >= self.p.int_queue - app_reserve {
                        self.stats.iq_full_stalls[ctx.idx()] += 1;
                        return false;
                    }
                }
                FuClass::Fpu => {
                    if self.iq_fp_used >= self.p.fp_queue {
                        self.stats.iq_full_stalls[ctx.idx()] += 1;
                        return false;
                    }
                }
                FuClass::Mem => unreachable!(),
            }
        }
        // Branches also occupy an integer-queue slot for resolution.
        if inst.is_branch() && self.iq_int_used >= self.p.int_queue - app_reserve {
            self.stats.iq_full_stalls[ctx.idx()] += 1;
            return false;
        }
        if let Some(dst) = inst.dst {
            if !self.regs.can_alloc(ctx, dst.class) {
                return false;
            }
        }
        // All checks passed: allocate.
        let mut d = DynInst::new(inst, e.seq, e.predicted_taken);
        for (i, s) in inst.srcs.iter().enumerate() {
            if let Some(r) = s {
                d.src_phys[i] = Some((r.class, self.regs.lookup(ctx, *r)));
            }
        }
        if let Some(dst) = inst.dst {
            match self.regs.rename(ctx, dst) {
                RenameOutcome::Ok { phys, prev } => {
                    d.dst_phys = Some((dst.class, phys, prev));
                    d.dst_logical = dst.idx;
                }
                RenameOutcome::Stall => unreachable!("can_alloc checked"),
            }
        }
        if inst.is_branch() {
            d.holds_ckpt = true;
            self.ckpt_used += 1;
            if is_prot {
                self.stats.prot_branch_stack.add(1);
            }
        }
        if inst.is_mem() {
            d.in_lsq = true;
            self.lsq_used += 1;
            if is_prot {
                self.stats.prot_lsq.add(1);
            }
            if !inst.is_nonspeculative() {
                self.threads[ctx.idx()].mem_order.push_back(e.seq);
            }
        }
        if !inst.is_mem() || inst.is_branch() {
            // Issue-queue entry (branches use the integer queue).
            let class = match inst.fu_class() {
                FuClass::Fpu => RegClass::Fp,
                _ => RegClass::Int,
            };
            if !inst.is_mem() || inst.is_branch() {
                match class {
                    RegClass::Int => {
                        self.iq_int_used += 1;
                        self.iq_int.push_back((ctx, e.seq));
                        if is_prot {
                            self.stats.prot_int_queue.add(1);
                        }
                    }
                    RegClass::Fp => {
                        self.iq_fp_used += 1;
                        self.iq_fp.push_back((ctx, e.seq));
                    }
                }
                d.in_iq = Some(class);
            }
        }
        // Instructions with no issue path (Nop/Halt-like, none in practice)
        // complete instantly.
        if d.in_iq.is_none() && !d.inst.is_mem() {
            d.issued = true;
            d.ready_at = _now;
        }
        let th = &mut self.threads[ctx.idx()];
        th.window.push_back(d);
        th.frontend_count -= 1;
        true
    }

    // ------------------------------- decode -------------------------------

    fn decode(&mut self) {
        let mut budget = self.p.fetch_width;
        while budget > 0 {
            let Some(e) = self.decode_q.prot.front() else {
                break;
            };
            if self.rename_q.can_push(e.ctx) {
                let e = self.decode_q.prot.pop_front().expect("checked");
                self.rename_q.push(e);
                budget -= 1;
            } else {
                break;
            }
        }
        while budget > 0 {
            let Some(e) = self.decode_q.app.front() else {
                break;
            };
            if self.rename_q.can_push(e.ctx) {
                let e = self.decode_q.app.pop_front().expect("checked");
                self.rename_q.push(e);
                budget -= 1;
            } else {
                break;
            }
        }
    }

    // ------------------------------- fetch -------------------------------

    fn peek_next(&mut self, ctx: Ctx, env: &mut dyn PipeEnv) -> Option<(u64, Inst)> {
        let th = &mut self.threads[ctx.idx()];
        if let Some(p) = th.peeked {
            return Some(p);
        }
        if let Some(e) = th.refetch.pop_front() {
            th.peeked = Some(e);
            return Some(e);
        }
        if th.halted {
            return None;
        }
        let inst = if ctx.is_protocol() {
            env.next_protocol_inst()?
        } else {
            env.next_app_inst(ctx)
        };
        let th = &mut self.threads[ctx.idx()];
        let seq = th.next_seq;
        th.next_seq += 1;
        th.peeked = Some((seq, inst));
        Some((seq, inst))
    }

    fn fetch(&mut self, now: Cycle, env: &mut dyn PipeEnv, mem: &mut MemHierarchy) {
        // ICOUNT: pick the fetchable threads with the fewest in-flight
        // instructions.
        let mut order = [Ctx(0); MAX_CTX];
        let mut n = 0;
        for &c in self.active.iter() {
            let th = &self.threads[c.idx()];
            if th.block_seq.is_none() && th.fetch_stall_until <= now && !th.awaiting_ifetch {
                order[n] = c;
                n += 1;
            }
        }
        let order = &mut order[..n];
        order.sort_by_key(|&c| self.threads[c.idx()].inflight());
        let mut budget = self.p.fetch_width;
        let mut taken_threads = 0;
        for &ctx in order.iter() {
            if budget == 0 || taken_threads == self.p.fetch_threads {
                break;
            }
            let f = self.fetch_thread(ctx, budget, now, env, mem);
            if f > 0 {
                taken_threads += 1;
                budget -= f;
            }
        }
    }

    fn fetch_thread(
        &mut self,
        ctx: Ctx,
        budget: usize,
        now: Cycle,
        env: &mut dyn PipeEnv,
        mem: &mut MemHierarchy,
    ) -> usize {
        let Some((_, first)) = self.peek_next(ctx, env) else {
            return 0;
        };
        // Instruction-cache access for this bundle. Skipped while the
        // decode queue has no room: nothing could be delivered anyway, and
        // probing the I-cache every stalled cycle both inflates hit
        // statistics and keeps an otherwise-idle thread mutating state.
        if !matches!(first.op, Op::Halt) {
            if !self.decode_q.can_push(ctx) {
                return 0;
            }
            let addr = self.fetch_addr(ctx, first.pc);
            let is_prot = ctx.is_protocol();
            match mem.ifetch(ctx, addr, now, is_prot) {
                AccessOutcome::Ready(_) => {}
                AccessOutcome::Pending => {
                    self.threads[ctx.idx()].awaiting_ifetch = true;
                    return 0;
                }
                AccessOutcome::Blocked => return 0,
            }
        }
        let mut fetched = 0;
        while fetched < budget {
            let Some((seq, inst)) = self.peek_next(ctx, env) else {
                break;
            };
            if matches!(inst.op, Op::Halt) {
                let th = &mut self.threads[ctx.idx()];
                th.peeked = None;
                th.halted = true;
                break;
            }
            if !self.decode_q.can_push(ctx) {
                break; // stays in the peek slot
            }
            self.threads[ctx.idx()].peeked = None;
            let mut predicted_taken = false;
            let mut stop = false;
            match inst.op {
                Op::Branch { target, .. } | Op::PBranch { target, .. } => {
                    predicted_taken = self.pred.predict(ctx, inst.pc);
                    if predicted_taken {
                        if self.btb.lookup(inst.pc).is_none() {
                            self.btb.insert(inst.pc, target);
                            self.threads[ctx.idx()].fetch_stall_until = now + 2;
                        }
                        stop = true;
                    }
                }
                Op::Call { .. } => {
                    self.threads[ctx.idx()].ras.push(inst.pc + 1);
                    predicted_taken = true;
                    stop = true;
                }
                Op::Ret => {
                    self.threads[ctx.idx()].ras.pop();
                    predicted_taken = true;
                    stop = true;
                }
                Op::SyncBranch { .. } | Op::SyncStore { .. } => {
                    self.threads[ctx.idx()].block_seq = Some(seq);
                    stop = true;
                }
                _ => {}
            }
            self.decode_q.push(FrontEntry {
                ctx,
                seq,
                inst,
                predicted_taken,
            });
            let th = &mut self.threads[ctx.idx()];
            th.frontend_count += 1;
            self.stats.fetched[ctx.idx()] += 1;
            fetched += 1;
            if stop {
                break;
            }
        }
        fetched
    }

    // ------------------------------- stats -------------------------------

    fn end_of_cycle_stats(&mut self, now: Cycle) {
        self.stats.cycles = now + 1;
        let pt = &self.threads[Ctx::protocol().idx()];
        if !pt.window.is_empty()
            || !pt.refetch.is_empty()
            || pt.peeked.is_some()
            || pt.frontend_count > 0
        {
            self.stats.protocol_active_cycles += 1;
        }
        self.stats.prot_int_regs_peak = self.regs.protocol_int_regs_peak();
    }

    /// Register-file diagnostics.
    pub fn regs(&self) -> &RegFiles {
        &self.regs
    }

    // --------------------------- idle skipping ---------------------------

    /// Conservative stall certificate, evaluated right after `tick(now)`.
    ///
    /// Returns `Some(bound)` when every tick at cycles `now+1 .. bound-1`
    /// is provably a *pure stall tick*: no stage moves an instruction, no
    /// external call (`PipeEnv`, `MemHierarchy`) is made, and the only state
    /// changes are the per-cycle bookkeeping that [`SmtPipeline::skip_stalled`]
    /// applies in bulk (cycle counter, commit round-robin rotation, memory-port
    /// priority flip, per-thread stall buckets). `bound` may be `Cycle::MAX`
    /// when the pipeline is waiting purely on external wake-ups (cache fills,
    /// network deliveries); the caller clamps it with its own event horizon.
    ///
    /// Returns `None` when any context could do real work next cycle. The
    /// certificate must be *exact* about purity — the parallel engine's
    /// bit-equality with the serial oracle depends on it — so every blocked
    /// path that still mutates state (I-cache probes, stall-counter bumps,
    /// `store_retire` retries) rejects the skip.
    ///
    /// `prot_source_idle` tells the certificate whether the protocol
    /// instruction source (`PipeEnv::next_protocol_inst`) is guaranteed to
    /// return `None` without side effects (i.e. the dispatch unit is empty).
    pub fn frozen_until(&self, now: Cycle, prot_source_idle: bool) -> Option<Cycle> {
        let mut bound = Cycle::MAX;
        // Decode: a non-empty decode queue only stays put while the rename
        // queue has no room for its front entry.
        if let Some(e) = self.decode_q.prot.front() {
            if self.rename_q.can_push(e.ctx) {
                return None;
            }
        }
        if let Some(e) = self.decode_q.app.front() {
            if self.rename_q.can_push(e.ctx) {
                return None;
            }
        }
        // Rename: only a window-full front entry fails before any stall
        // counter is bumped; every other rejection path mutates statistics.
        if let Some(e) = self.rename_q.prot.front() {
            if self.threads[e.ctx.idx()].window.len() < self.p.active_list {
                return None;
            }
        }
        if let Some(e) = self.rename_q.app.front() {
            if self.threads[e.ctx.idx()].window.len() < self.p.active_list {
                return None;
            }
        }
        // Store-buffer drains retry the cache every cycle unless a drain
        // miss is outstanding.
        if !self.sb_drain_app.is_empty() && !self.sb_drain_app_waiting {
            return None;
        }
        if !self.sb_drain_prot.is_empty() && !self.sb_drain_prot_waiting {
            return None;
        }
        // Pending branch resolutions fire at their scheduled cycle.
        for r in &self.resolving {
            bound = bound.min(r.at);
        }
        // Issue queues: an entry issues as soon as its sources are ready.
        for &(ctx, seq) in self.iq_int.iter().chain(self.iq_fp.iter()) {
            let th = &self.threads[ctx.idx()];
            let Some(d) = th.find(seq) else { continue };
            if d.issued || d.in_iq.is_none() {
                continue; // stale entry: dropped for free on the next pass
            }
            bound = bound.min(self.srcs_ready_at(d));
        }
        for &ctx in self.active.iter() {
            let th = &self.threads[ctx.idx()];
            // Memory issue: the head of the memory order issues when its
            // sources are ready — except a Store facing a full store
            // buffer, which waits (purely) for a drain.
            if let Some(&mseq) = th.mem_order.front() {
                let d = th.find(mseq).expect("mem_order out of sync");
                let ready_at = self.srcs_ready_at(d);
                if matches!(d.inst.op, Op::Store { .. })
                    && self.sb_used >= self.p.store_buffer - self.reserve
                {
                    // Blocked on a store-buffer slot; drains are inert.
                } else {
                    bound = bound.min(ready_at);
                }
            }
            // Fetch: the context must be either filtered out of the fetch
            // order or provably unable to deliver anything.
            if th.block_seq.is_some() || th.awaiting_ifetch {
                // Cleared by a commit or an I-fetch wake-up; both are
                // covered by other bounds.
            } else if th.fetch_stall_until > now {
                bound = bound.min(th.fetch_stall_until);
            } else if let Some((_, inst)) = th.peeked {
                if matches!(inst.op, Op::Halt) || self.decode_q.can_push(ctx) {
                    return None; // would halt the thread / deliver the bundle
                }
            } else if !th.refetch.is_empty() {
                return None; // would refill the peek slot
            } else if !(th.halted || ctx.is_protocol() && prot_source_idle) {
                return None; // would draw from the instruction source
            }
            // Commit: the head either commits, polls, or waits purely.
            if let Some(head) = th.window.front() {
                if head.inst.is_nonspeculative() && !head.issued {
                    match head.inst.op {
                        Op::PStore { .. } => {
                            if self.sb_used < self.p.store_buffer {
                                return None; // would allocate and issue
                            }
                        }
                        Op::SyncStore { .. } => {
                            if !head.mem_started {
                                return None; // would retry store_retire
                            }
                        }
                        _ => return None, // Send/Switch/Ldctxt prepare instantly
                    }
                } else if head.issued {
                    if head.ready_at <= now + 1 {
                        return None; // completes (commits or polls) next tick
                    }
                    bound = bound.min(head.ready_at);
                }
            }
        }
        if bound <= now + 1 {
            return None;
        }
        Some(bound)
    }

    /// Earliest cycle at which every source of `d` is ready.
    fn srcs_ready_at(&self, d: &DynInst) -> Cycle {
        d.src_phys.iter().fold(0, |acc, s| match s {
            Some((class, phys)) => acc.max(self.regs.ready_at(*class, *phys)),
            None => acc,
        })
    }

    /// Bulk-apply the per-cycle bookkeeping of the pure stall ticks at
    /// cycles `from .. to` (exclusive), exactly as if [`SmtPipeline::tick`]
    /// had run for each of them under a valid [`SmtPipeline::frozen_until`]
    /// certificate. The caller resumes real ticking at `to`.
    pub fn skip_stalled(&mut self, from: Cycle, to: Cycle) {
        debug_assert!(to > from);
        let skipped = to - from;
        let n = self.active.len();
        self.rr_commit = (self.rr_commit + (skipped % n as u64) as usize) % n;
        if skipped % 2 == 1 {
            self.drain_first = !self.drain_first;
        }
        // Stall attribution: the per-cycle classification in `commit` is
        // constant across the frozen span (the certificate bounds every
        // condition it reads), so classify once and multiply.
        for t in 0..self.app_threads {
            let th = &self.threads[t];
            if th.finished() {
                continue;
            }
            let bucket = if th
                .window
                .front()
                .is_some_and(|h| h.inst.is_mem() && !h.completed(from))
            {
                &mut self.stats.memory_stall
            } else if th.block_seq.is_some() {
                &mut self.stats.sync_stall
            } else if th.fetch_stall_until > from {
                &mut self.stats.squash_stall
            } else if th.window.is_empty() && th.frontend_count == 0 && th.peeked.is_none() {
                &mut self.stats.fetch_starved
            } else {
                &mut self.stats.other_stall
            };
            bucket[t] += skipped;
        }
        let pt = &self.threads[Ctx::protocol().idx()];
        if !pt.window.is_empty()
            || !pt.refetch.is_empty()
            || pt.peeked.is_some()
            || pt.frontend_count > 0
        {
            self.stats.protocol_active_cycles += skipped;
        }
        self.stats.cycles = to;
    }

    /// Undo the per-cycle bookkeeping of ticks at cycles `from .. to`
    /// (exclusive) on a *fully quiescent* pipeline — the parallel engine's
    /// end-of-run fixup for epoch overshoot past the serial exit cycle.
    /// Quiescent ticks touch nothing but the cycle counter, the commit
    /// round-robin and the drain-priority flip, so those are rolled back.
    pub fn retract_idle(&mut self, from: Cycle, to: Cycle) {
        debug_assert!(to >= from);
        debug_assert!(self.finished() && self.protocol_quiesced());
        let over = to - from;
        let n = self.active.len();
        let back = (over % n as u64) as usize;
        self.rr_commit = (self.rr_commit + n - back) % n;
        if over % 2 == 1 {
            self.drain_first = !self.drain_first;
        }
        self.stats.cycles = from;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtp_cache::MemHierarchy;
    use smtp_isa::source::FixedProgram;
    use smtp_isa::{InstSource, SyncCond, SyncOp, SyncOutcome};
    use smtp_types::{NodeId, PipelineParams};

    /// Minimal env: fixed programs per app thread, no protocol thread.
    struct TestEnv {
        progs: Vec<FixedProgram>,
        sends: Vec<u8>,
        ldctxts: u64,
    }

    impl TestEnv {
        fn new(progs: Vec<Vec<Inst>>) -> TestEnv {
            TestEnv {
                progs: progs.into_iter().map(FixedProgram::new).collect(),
                sends: Vec::new(),
                ldctxts: 0,
            }
        }
    }

    impl PipeEnv for TestEnv {
        fn next_app_inst(&mut self, ctx: Ctx) -> Inst {
            self.progs[ctx.idx()].next_inst()
        }
        fn next_protocol_inst(&mut self) -> Option<Inst> {
            None
        }
        fn poll(&mut self, _n: NodeId, _c: Ctx, cond: SyncCond) -> bool {
            matches!(cond, SyncCond::LockFree(_))
        }
        fn sync_store(&mut self, _n: NodeId, _c: Ctx, _op: SyncOp) -> SyncOutcome {
            SyncOutcome::Done
        }
        fn sync_result(&mut self, ctx: Ctx, outcome: SyncOutcome) {
            if let Some(p) = self.progs.get_mut(ctx.idx()) {
                p.sync_result(outcome)
            }
        }
        fn send_graduated(&mut self, msg_idx: u8, _now: Cycle) {
            self.sends.push(msg_idx);
        }
        fn ldctxt_graduated(&mut self, _now: Cycle) {
            self.ldctxts += 1;
        }
    }

    fn addr(off: u64) -> Addr {
        Addr::new(NodeId(0), Region::AppData, off)
    }

    fn run(
        pipe: &mut SmtPipeline,
        env: &mut TestEnv,
        mem: &mut MemHierarchy,
        max_cycles: u64,
    ) -> u64 {
        for now in 0..max_cycles {
            // Deliver hierarchy wake-ups the way the node would.
            while let Some(ev) = mem.pop_event() {
                use smtp_cache::MemEvent::*;
                match ev {
                    LoadDone { tag, at } => pipe.load_done(tag, at),
                    StoreDone { tag, at, performed } => pipe.store_done(tag, at, performed),
                    IFetchDone { ctx, at } => pipe.ifetch_done(ctx, at),
                    AppMiss { line, .. } | CodeFetch { line, .. } | ProtocolFetch { line, .. } => {
                        // Instant local memory in these unit tests.
                        mem.fill(line, smtp_cache::Grant::Excl { acks: 0 }, now + 20);
                    }
                    _ => {}
                }
            }
            pipe.tick(now, env, mem);
            if pipe.finished() {
                return now;
            }
        }
        panic!("pipeline did not finish in {max_cycles} cycles");
    }

    fn straight_line(n: usize) -> Vec<Inst> {
        (0..n)
            .map(|i| {
                Inst::new(Op::IntAlu, i as u32)
                    .with_srcs(Some(Reg::int(((i) % 8) as u8)), None)
                    .with_dst(Reg::int(((i + 1) % 8) as u8))
            })
            .collect()
    }

    fn pipeline(app_threads: usize, smtp: bool) -> (SmtPipeline, MemHierarchy) {
        let p = PipelineParams::default();
        (
            SmtPipeline::new(NodeId(0), &p, app_threads, smtp),
            MemHierarchy::new(NodeId(0), &p, smtp),
        )
    }

    #[test]
    fn straight_line_code_commits_all() {
        let (mut pipe, mut mem) = pipeline(1, false);
        let mut env = TestEnv::new(vec![straight_line(200)]);
        run(&mut pipe, &mut env, &mut mem, 5000);
        assert_eq!(pipe.stats().committed[0], 200);
        assert_eq!(pipe.stats().squashed[0], 0);
    }

    #[test]
    fn two_threads_share_the_pipeline() {
        let (mut pipe, mut mem) = pipeline(2, false);
        let mut env = TestEnv::new(vec![straight_line(150), straight_line(150)]);
        run(&mut pipe, &mut env, &mut mem, 5000);
        assert_eq!(pipe.stats().committed[0], 150);
        assert_eq!(pipe.stats().committed[1], 150);
    }

    #[test]
    fn loads_and_stores_flow_through_the_cache() {
        let prog: Vec<Inst> = (0..50)
            .flat_map(|i| {
                [
                    Inst::new(
                        Op::Load {
                            addr: addr(0x1000 + i * 8),
                        },
                        (i * 2) as u32,
                    )
                    .with_dst(Reg::int(1)),
                    Inst::new(
                        Op::Store {
                            addr: addr(0x8000 + i * 8),
                        },
                        (i * 2 + 1) as u32,
                    )
                    .with_srcs(Some(Reg::int(1)), None),
                ]
            })
            .collect();
        let (mut pipe, mut mem) = pipeline(1, false);
        let mut env = TestEnv::new(vec![prog]);
        run(&mut pipe, &mut env, &mut mem, 20_000);
        assert_eq!(pipe.stats().committed[0], 100);
    }

    #[test]
    fn taken_loop_branch_trains_and_commits() {
        // A 10-iteration loop: body of 3 ALU ops + backward branch.
        let mut prog = Vec::new();
        for i in 0..10 {
            for b in 0..3 {
                prog.push(
                    Inst::new(Op::IntAlu, b)
                        .with_srcs(Some(Reg::int(b as u8)), None)
                        .with_dst(Reg::int(b as u8 + 1)),
                );
            }
            prog.push(Inst::new(
                Op::Branch {
                    taken: i != 9,
                    target: 0,
                },
                3,
            ));
        }
        let (mut pipe, mut mem) = pipeline(1, false);
        let mut env = TestEnv::new(vec![prog]);
        run(&mut pipe, &mut env, &mut mem, 5000);
        assert_eq!(pipe.stats().committed[0], 40);
        assert_eq!(pipe.stats().branches[0], 10);
        // At least the final not-taken iteration usually mispredicts, but
        // every squashed instruction must have been refetched and committed.
    }

    #[test]
    fn misprediction_squashes_and_refetches() {
        // Alternating branch directions at one PC defeat the predictor
        // often enough to exercise squash/refetch.
        let mut prog = Vec::new();
        for i in 0..40 {
            prog.push(
                Inst::new(Op::IntAlu, 0)
                    .with_srcs(Some(Reg::int(0)), None)
                    .with_dst(Reg::int(1)),
            );
            prog.push(Inst::new(
                Op::Branch {
                    taken: i % 2 == 0,
                    target: 0,
                },
                1,
            ));
            prog.push(
                Inst::new(Op::IntAlu, 2)
                    .with_srcs(Some(Reg::int(1)), None)
                    .with_dst(Reg::int(2)),
            );
        }
        let (mut pipe, mut mem) = pipeline(1, false);
        let mut env = TestEnv::new(vec![prog]);
        run(&mut pipe, &mut env, &mut mem, 20_000);
        assert_eq!(pipe.stats().committed[0], 120);
        assert!(pipe.stats().mispredicts[0] > 0, "no mispredictions seen");
        assert!(pipe.stats().squashed[0] > 0, "no squashes seen");
    }

    #[test]
    fn sync_branch_serializes_and_resolves() {
        let prog = vec![
            Inst::new(Op::SyncLoad { addr: addr(0x40) }, 0).with_dst(Reg::int(1)),
            Inst::new(
                Op::SyncBranch {
                    cond: SyncCond::LockFree(0),
                },
                1,
            )
            .with_srcs(Some(Reg::int(1)), None),
            Inst::new(Op::IntAlu, 2).with_dst(Reg::int(2)),
        ];
        let (mut pipe, mut mem) = pipeline(1, false);
        let mut env = TestEnv::new(vec![prog]);
        run(&mut pipe, &mut env, &mut mem, 5000);
        assert_eq!(pipe.stats().committed[0], 3);
        assert_eq!(env.progs[0].outcomes, vec![SyncOutcome::Cond(true)]);
    }

    #[test]
    fn sync_store_fires_semantics_at_graduation() {
        let prog = vec![
            Inst::new(
                Op::SyncStore {
                    addr: addr(0x80),
                    op: SyncOp::LockRelease(3),
                },
                0,
            ),
            Inst::new(Op::IntAlu, 1).with_dst(Reg::int(1)),
        ];
        let (mut pipe, mut mem) = pipeline(1, false);
        let mut env = TestEnv::new(vec![prog]);
        run(&mut pipe, &mut env, &mut mem, 10_000);
        assert_eq!(pipe.stats().committed[0], 2);
        assert_eq!(env.progs[0].outcomes, vec![SyncOutcome::Done]);
    }

    #[test]
    fn fp_ops_use_fp_queue() {
        let prog: Vec<Inst> = (0..60)
            .map(|i| {
                Inst::new(Op::FpMul, i as u32)
                    .with_srcs(Some(Reg::fp(3)), Some(Reg::fp(2)))
                    .with_dst(Reg::fp(3))
            })
            .collect();
        let (mut pipe, mut mem) = pipeline(1, false);
        let mut env = TestEnv::new(vec![prog]);
        let cycles = run(&mut pipe, &mut env, &mut mem, 5000);
        assert_eq!(pipe.stats().committed[0], 60);
        // Dependent chain: roughly one per 3 cycles minimum.
        assert!(cycles > 60, "dependent FP chain finished implausibly fast");
    }

    #[test]
    fn prefetches_commit_without_registers() {
        let prog: Vec<Inst> = (0..20)
            .map(|i| {
                Inst::new(
                    Op::Prefetch {
                        addr: addr(0x10000 + i * 128),
                        exclusive: i % 2 == 0,
                    },
                    i as u32,
                )
            })
            .collect();
        let (mut pipe, mut mem) = pipeline(1, false);
        let mut env = TestEnv::new(vec![prog]);
        run(&mut pipe, &mut env, &mut mem, 5000);
        assert_eq!(pipe.stats().committed[0], 20);
    }

    #[test]
    fn memory_stall_accounting_counts_miss_cycles() {
        // One load to a cold line: the fill takes ~20 cycles in the test
        // harness, during which the head is a memory op.
        let prog = vec![
            Inst::new(Op::Load { addr: addr(0x5000) }, 0).with_dst(Reg::int(1)),
            Inst::new(Op::IntAlu, 1)
                .with_srcs(Some(Reg::int(1)), None)
                .with_dst(Reg::int(2)),
        ];
        let (mut pipe, mut mem) = pipeline(1, false);
        let mut env = TestEnv::new(vec![prog]);
        run(&mut pipe, &mut env, &mut mem, 5000);
        assert!(pipe.stats().memory_stall[0] > 0);
    }

    #[test]
    fn icount_shares_fetch_roughly_fairly() {
        let (mut pipe, mut mem) = pipeline(2, false);
        let mut env = TestEnv::new(vec![straight_line(400), straight_line(400)]);
        run(&mut pipe, &mut env, &mut mem, 20_000);
        let f0 = pipe.stats().fetched[0] as f64;
        let f1 = pipe.stats().fetched[1] as f64;
        assert!(
            (f0 / f1 - 1.0).abs() < 0.3,
            "ICOUNT unfair: {f0} vs {f1} fetches"
        );
    }

    #[test]
    fn protocol_context_inactive_without_smtp() {
        let (mut pipe, mut mem) = pipeline(1, false);
        let mut env = TestEnv::new(vec![straight_line(50)]);
        run(&mut pipe, &mut env, &mut mem, 5000);
        assert_eq!(pipe.stats().committed[Ctx::protocol().idx()], 0);
        assert_eq!(pipe.stats().protocol_active_cycles, 0);
    }

    /// Env that runs one protocol handler program alongside an app thread.
    struct ProtEnv {
        app: FixedProgram,
        handler: Vec<Inst>,
        pos: usize,
        dispatched: bool,
        sends: Vec<u8>,
        ldctxts: u64,
    }

    impl PipeEnv for ProtEnv {
        fn next_app_inst(&mut self, _ctx: Ctx) -> Inst {
            use smtp_isa::InstSource;
            self.app.next_inst()
        }
        fn next_protocol_inst(&mut self) -> Option<Inst> {
            if !self.dispatched || self.pos >= self.handler.len() {
                return None;
            }
            let i = self.handler[self.pos];
            self.pos += 1;
            Some(i)
        }
        fn poll(&mut self, _n: NodeId, _c: Ctx, _cond: smtp_isa::SyncCond) -> bool {
            true
        }
        fn sync_store(
            &mut self,
            _n: NodeId,
            _c: Ctx,
            _op: smtp_isa::SyncOp,
        ) -> smtp_isa::SyncOutcome {
            smtp_isa::SyncOutcome::Done
        }
        fn sync_result(&mut self, _ctx: Ctx, _o: smtp_isa::SyncOutcome) {}
        fn send_graduated(&mut self, msg_idx: u8, _now: Cycle) {
            self.sends.push(msg_idx);
        }
        fn ldctxt_graduated(&mut self, _now: Cycle) {
            self.ldctxts += 1;
        }
    }

    #[test]
    fn protocol_thread_executes_a_handler_to_graduation() {
        let p = PipelineParams::default();
        let mut pipe = SmtPipeline::new(NodeId(0), &p, 1, true);
        let mut mem = MemHierarchy::new(NodeId(0), &p, true);
        let dir = Addr::new(NodeId(0), Region::Directory, 0x40);
        let handler = vec![
            Inst::new(Op::PLoad { addr: dir }, 0).with_dst(Reg::int(1)),
            Inst::new(Op::PAlu, 8)
                .with_srcs(Some(Reg::int(1)), None)
                .with_dst(Reg::int(3)),
            Inst::new(Op::Send { msg_idx: 0 }, 9).with_srcs(Some(Reg::int(3)), None),
            Inst::new(Op::PStore { addr: dir }, 10).with_srcs(Some(Reg::int(3)), None),
            Inst::new(Op::Switch, 11).with_dst(Reg::int(6)),
            Inst::new(Op::Ldctxt, 12).with_dst(Reg::int(2)),
        ];
        let mut env = ProtEnv {
            app: FixedProgram::new(straight_line(40)),
            handler,
            pos: 0,
            dispatched: true,
            sends: Vec::new(),
            ldctxts: 0,
        };
        for now in 0..20_000 {
            while let Some(ev) = mem.pop_event() {
                use smtp_cache::MemEvent::*;
                match ev {
                    LoadDone { tag, at } => pipe.load_done(tag, at),
                    IFetchDone { ctx, at } => pipe.ifetch_done(ctx, at),
                    AppMiss { line, .. } | CodeFetch { line, .. } | ProtocolFetch { line, .. } => {
                        mem.fill(line, smtp_cache::Grant::Excl { acks: 0 }, now + 20);
                    }
                    _ => {}
                }
            }
            pipe.tick(now, &mut env, &mut mem);
            if env.ldctxts == 1 && pipe.finished() {
                break;
            }
        }
        assert_eq!(env.ldctxts, 1, "handler did not graduate");
        assert_eq!(env.sends, vec![0], "send did not fire at graduation");
        assert_eq!(pipe.stats().committed[Ctx::protocol().idx()], 6);
        assert!(pipe.stats().protocol_active_cycles > 0);
        assert!(
            pipe.stats().prot_lsq.peak() >= 3,
            "PLoad/PStore/switch/ldctxt occupy LSQ"
        );
    }

    #[test]
    fn finished_requires_all_threads() {
        let (mut pipe, mut mem) = pipeline(2, false);
        let mut env = TestEnv::new(vec![straight_line(5), straight_line(500)]);
        // Run a few cycles: thread 0 finishes early, pipeline not finished.
        for now in 0..40 {
            while let Some(ev) = mem.pop_event() {
                if let smtp_cache::MemEvent::IFetchDone { ctx, at } = ev {
                    pipe.ifetch_done(ctx, at);
                } else if let smtp_cache::MemEvent::CodeFetch { line, .. } = ev {
                    mem.fill(line, smtp_cache::Grant::Excl { acks: 0 }, now + 5);
                }
            }
            pipe.tick(now, &mut env, &mut mem);
        }
        assert!(!pipe.finished());
    }

    /// Put `inst` into `ctx`'s window as renamed into the integer issue
    /// queue, with no source operands unless the caller adds some.
    fn enqueue_int(pipe: &mut SmtPipeline, ctx: Ctx, inst: Inst) -> u64 {
        let th = &mut pipe.threads[ctx.idx()];
        let seq = th.next_seq;
        th.next_seq += 1;
        let mut d = DynInst::new(inst, seq, false);
        d.in_iq = Some(RegClass::Int);
        th.window.push_back(d);
        pipe.iq_int.push_back((ctx, seq));
        pipe.iq_int_used += 1;
        seq
    }

    /// Put an issued branch at `pc` into `ctx`'s window, due to resolve at
    /// `at`, and schedule its resolution.
    fn issued_branch(
        pipe: &mut SmtPipeline,
        ctx: Ctx,
        pc: u32,
        target: u32,
        predicted_taken: bool,
        at: Cycle,
    ) -> u64 {
        let th = &mut pipe.threads[ctx.idx()];
        let seq = th.next_seq;
        th.next_seq += 1;
        let op = Op::Branch {
            taken: true,
            target,
        };
        let mut d = DynInst::new(Inst::new(op, pc), seq, predicted_taken);
        d.issued = true;
        d.ready_at = at;
        th.window.push_back(d);
        pipe.resolving.push(Resolve { ctx, seq, at });
        seq
    }

    fn iq_int(pipe: &SmtPipeline) -> Vec<(Ctx, u64)> {
        pipe.iq_int.iter().copied().collect()
    }

    #[test]
    fn issue_queue_issues_oldest_ready_first_and_keeps_age_order() {
        let (mut pipe, _mem) = pipeline(2, true);
        let budget = pipe.p.alus - 1;
        let now = 10;
        // One entry whose source is not ready yet, then more ready entries
        // than the ALUs can take, alternating between the two threads.
        let blocked = enqueue_int(&mut pipe, Ctx(0), Inst::new(Op::IntAlu, 0));
        let phys = pipe.regs.lookup(Ctx(0), Reg::int(5));
        pipe.regs.set_ready(RegClass::Int, phys, now + 5);
        pipe.threads[0].find_mut(blocked).unwrap().src_phys[0] = Some((RegClass::Int, phys));
        let mut ready = Vec::new();
        for i in 0..budget + 3 {
            let ctx = Ctx((i % 2) as u8);
            let seq = enqueue_int(&mut pipe, ctx, Inst::new(Op::IntAlu, i as u32 + 1));
            ready.push((ctx, seq));
        }
        pipe.issue_queue(RegClass::Int, budget, now);
        for &(ctx, seq) in &ready[..budget] {
            let d = pipe.threads[ctx.idx()].find(seq).unwrap();
            assert!(d.issued && d.in_iq.is_none());
            assert_eq!(d.ready_at, now + 3, "2 operand-read stages + 1");
        }
        let mut kept = vec![(Ctx(0), blocked)];
        kept.extend_from_slice(&ready[budget..]);
        assert_eq!(iq_int(&pipe), kept, "leftovers keep their age order");
        assert_eq!(pipe.iq_int_used, kept.len());
        // Next cycle the leftover ready entries go; the blocked one waits.
        pipe.issue_queue(RegClass::Int, budget, now + 1);
        assert_eq!(iq_int(&pipe), vec![(Ctx(0), blocked)]);
        pipe.issue_queue(RegClass::Int, budget, now + 5);
        assert!(pipe.iq_int.is_empty());
        assert_eq!(pipe.iq_int_used, 0);
    }

    #[test]
    fn stale_issue_queue_entries_are_dropped_not_issued() {
        let (mut pipe, _mem) = pipeline(2, true);
        let now = 10;
        // Thread 1's two entries (sequences 1 and 2) are squashed by a
        // branch at sequence 0; thread 0's stay live.
        pipe.threads[1].next_seq = 1;
        enqueue_int(&mut pipe, Ctx(1), Inst::new(Op::IntAlu, 1));
        enqueue_int(&mut pipe, Ctx(1), Inst::new(Op::IntAlu, 2));
        let a = enqueue_int(&mut pipe, Ctx(0), Inst::new(Op::IntAlu, 3));
        let b = enqueue_int(&mut pipe, Ctx(0), Inst::new(Op::IntAlu, 4));
        pipe.squash_after(Ctx(1), 0, now);
        assert!(pipe.threads[1].window.is_empty());
        assert_eq!(pipe.threads[1].refetch.len(), 2);
        // A budget of one: the stale entries must not consume it.
        pipe.issue_queue(RegClass::Int, 1, now);
        assert!(pipe.threads[0].find(a).unwrap().issued);
        assert!(!pipe.threads[0].find(b).unwrap().issued);
        assert_eq!(iq_int(&pipe), vec![(Ctx(0), b)]);
        assert_eq!(pipe.iq_int_used, 1);
    }

    #[test]
    fn branches_due_on_the_same_cycle_resolve_in_at_ctx_seq_order() {
        let (mut pipe, _mem) = pipeline(2, true);
        let mut env = TestEnv::new(vec![Vec::new(), Vec::new()]);
        let now = 10;
        // Context order: the last resolution writes the shared BTB entry.
        issued_branch(&mut pipe, Ctx(1), 7, 111, true, now);
        issued_branch(&mut pipe, Ctx(0), 7, 100, true, now);
        // Sequence order: both of thread 0's next branches mispredict; the
        // older resolves first and squashes the younger, whose resolution
        // then finds it gone.
        issued_branch(&mut pipe, Ctx(0), 20, 0, false, now);
        let young = issued_branch(&mut pipe, Ctx(0), 21, 0, false, now);
        // Scheduled in the opposite of resolution order.
        pipe.resolving.reverse();
        let later = issued_branch(&mut pipe, Ctx(1), 30, 5, true, now + 4);

        pipe.resolve_branches(now, &mut env);
        assert_eq!(pipe.btb.lookup(7), Some(111), "ctx 1 resolved after ctx 0");
        assert_eq!(pipe.stats.mispredicts[0], 1, "older branch resolved first");
        assert_eq!(pipe.stats.squashed[0], 1);
        assert_eq!(pipe.threads[0].refetch.front().map(|e| e.0), Some(young));
        assert_eq!(pipe.resolving.len(), 1);
        assert_eq!(pipe.resolving[0].seq, later);
    }

    #[test]
    fn branch_pushed_during_resolution_survives_into_next_cycle() {
        let (mut pipe, _mem) = pipeline(1, true);
        let mut env = TestEnv::new(vec![Vec::new()]);
        let now = 10;
        let due = issued_branch(&mut pipe, Ctx(0), 3, 0, true, now);
        let b = enqueue_int(
            &mut pipe,
            Ctx(0),
            Inst::new(
                Op::Branch {
                    taken: false,
                    target: 0,
                },
                4,
            ),
        );
        // The cycle's resolve stage, then its issue stage pushes `b`.
        pipe.resolve_branches(now, &mut env);
        pipe.issue_queue(RegClass::Int, 1, now);
        assert!(pipe.threads[0].find(due).unwrap().resolved);
        assert_eq!(pipe.resolving.len(), 1);
        assert_eq!(pipe.resolving[0].seq, b);
        let at = pipe.resolving[0].at;
        assert_eq!(at, now + 3);
        pipe.resolve_branches(at - 1, &mut env);
        assert!(!pipe.threads[0].find(b).unwrap().resolved);
        pipe.resolve_branches(at, &mut env);
        assert!(pipe.threads[0].find(b).unwrap().resolved);
        assert!(pipe.resolving.is_empty());
    }

    /// A thread can be `finished()` while its last committed stores are
    /// still queued for drain to the cache — those drains are real cache
    /// accesses on future ticks, so quiescence must wait for them. (The
    /// 64-node engine divergence came from exactly this gap.)
    #[test]
    fn drains_block_quiescence() {
        let (mut pipe, _mem) = pipeline(1, false);
        assert!(pipe.drains_quiesced());
        pipe.sb_drain_app
            .push_back((Ctx(0), smtp_types::Addr(0x40)));
        assert!(!pipe.drains_quiesced());
        pipe.sb_drain_app.clear();
        pipe.sb_drain_prot.push_back(smtp_types::Addr(0x80));
        assert!(!pipe.drains_quiesced());
        pipe.sb_drain_prot.clear();
        assert!(pipe.drains_quiesced());
    }
}
