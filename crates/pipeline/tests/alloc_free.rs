//! Allocation regression test for the per-cycle pipeline tick.
//!
//! `SmtPipeline::tick` runs once per node per simulated cycle, so a heap
//! allocation inside it is paid hundreds of thousands of times per node
//! in a typical run. Once the queues have grown to their steady-state
//! capacity, a tick must allocate nothing. A counting global allocator
//! (per thread, so the tests may run in parallel) checks it.

use smtp_cache::{Grant, MemEvent, MemHierarchy};
use smtp_isa::{Inst, Op, Reg, SyncCond, SyncOp, SyncOutcome};
use smtp_pipeline::{PipeEnv, SmtPipeline};
use smtp_types::{Addr, Ctx, Cycle, NodeId, PipelineParams, Region};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Endless application loops, one body per thread; the protocol thread
/// stays idle.
struct LoopEnv {
    body: Vec<Inst>,
    pos: [usize; 2],
}

impl PipeEnv for LoopEnv {
    fn next_app_inst(&mut self, ctx: Ctx) -> Inst {
        let pos = &mut self.pos[ctx.idx()];
        let inst = self.body[*pos];
        *pos = (*pos + 1) % self.body.len();
        inst
    }
    fn next_protocol_inst(&mut self) -> Option<Inst> {
        None
    }
    fn poll(&mut self, _n: NodeId, _c: Ctx, _cond: SyncCond) -> bool {
        true
    }
    fn sync_store(&mut self, _n: NodeId, _c: Ctx, _op: SyncOp) -> SyncOutcome {
        SyncOutcome::Done
    }
    fn sync_result(&mut self, _ctx: Ctx, _outcome: SyncOutcome) {}
    fn send_graduated(&mut self, _msg_idx: u8, _now: Cycle) {}
    fn ldctxt_graduated(&mut self, _now: Cycle) {}
}

/// A 2-thread SMTp pipeline (protocol context present) running `body` in
/// both application threads.
fn machine(body: Vec<Inst>) -> (SmtPipeline, MemHierarchy, LoopEnv) {
    let p = PipelineParams::default();
    let pipe = SmtPipeline::new(NodeId(0), &p, 2, true);
    let mem = MemHierarchy::new(NodeId(0), &p, true);
    let env = LoopEnv { body, pos: [0; 2] };
    (pipe, mem, env)
}

/// Deliver the hierarchy's wake-ups the way the node does, with local
/// memory answering every miss 20 cycles later.
fn deliver(pipe: &mut SmtPipeline, mem: &mut MemHierarchy, now: Cycle) {
    while let Some(ev) = mem.pop_event() {
        match ev {
            MemEvent::LoadDone { tag, at } => pipe.load_done(tag, at),
            MemEvent::StoreDone { tag, at, performed } => pipe.store_done(tag, at, performed),
            MemEvent::IFetchDone { ctx, at } => pipe.ifetch_done(ctx, at),
            MemEvent::AppMiss { line, .. }
            | MemEvent::CodeFetch { line, .. }
            | MemEvent::ProtocolFetch { line, .. } => {
                mem.fill(line, Grant::Excl { acks: 0 }, now + 20)
            }
            _ => {}
        }
    }
}

const WARMUP: Cycle = 5_000;
const MEASURED: Cycle = 20_000;

/// Tick `WARMUP` cycles, then `MEASURED` more. Returns, over the measured
/// ticks that allocated no MSHR: how many there were, how many heap
/// allocations they made, and the instructions committed meanwhile.
fn steady_state(body: Vec<Inst>) -> (u64, u64, u64) {
    let (mut pipe, mut mem, mut env) = machine(body);
    for now in 0..WARMUP {
        deliver(&mut pipe, &mut mem, now);
        pipe.tick(now, &mut env, &mut mem);
    }
    let committed = |p: &SmtPipeline| p.stats().committed.iter().sum::<u64>();
    let start = committed(&pipe);
    let (mut ticks, mut total) = (0, 0);
    for now in WARMUP..WARMUP + MEASURED {
        deliver(&mut pipe, &mut mem, now);
        let mshrs = mem.mshrs_used();
        let before = allocs();
        pipe.tick(now, &mut env, &mut mem);
        let made = allocs() - before;
        // A tick that opens a miss may grow the hierarchy's queues.
        if mem.mshrs_used() <= mshrs {
            ticks += 1;
            total += made;
        }
    }
    (ticks, total, committed(&pipe) - start)
}

fn alu(pc: u32) -> Inst {
    let r = (pc % 6) as u8;
    Inst::new(Op::IntAlu, pc)
        .with_srcs(Some(Reg::int(r)), None)
        .with_dst(Reg::int(r + 1))
}

#[test]
fn compute_only_ticks_make_no_allocations() {
    let body: Vec<Inst> = (0..64).map(alu).collect();
    let (ticks, made, committed) = steady_state(body);
    assert_eq!(ticks, MEASURED, "compute-only code opened a miss");
    assert!(committed > MEASURED, "pipeline made no progress");
    assert_eq!(made, 0, "{made} allocations in {ticks} steady-state ticks");
}

#[test]
fn load_loop_ticks_make_no_allocations_outside_misses() {
    let data = |off: u64| Addr::new(NodeId(0), Region::AppData, 0x4000 + off);
    let mut body = Vec::new();
    for i in 0..4u32 {
        body.push(
            Inst::new(
                Op::Load {
                    addr: data(u64::from(i) * 40),
                },
                3 * i,
            )
            .with_dst(Reg::int(1)),
        );
        body.push(
            Inst::new(Op::IntAlu, 3 * i + 1)
                .with_srcs(Some(Reg::int(1)), None)
                .with_dst(Reg::int(2)),
        );
        body.push(alu(3 * i + 2));
    }
    body.push(Inst::new(
        Op::Branch {
            taken: true,
            target: 0,
        },
        12,
    ));
    let (ticks, made, committed) = steady_state(body);
    assert!(ticks > MEASURED / 2, "only {ticks} ticks opened no miss");
    assert!(committed > MEASURED, "pipeline made no progress");
    assert_eq!(made, 0, "{made} allocations in {ticks} steady-state ticks");
}
