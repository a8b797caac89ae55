//! Steady-state allocation audits: with the trace sink disabled, the
//! cycle loop must not allocate at all; with a JSONL sink attached,
//! serializing an event must not allocate either.
//!
//! Each simulation's allocations are construction plus first-touch
//! growth of its reusable buffers — a fixed count. If the count moves
//! with run length, something on the per-cycle path has started
//! allocating (a collect, a fresh Vec, an event built for a disabled
//! sink), which is exactly the regression this test exists to catch.
//!
//! Allocations are counted per thread, so tests running in parallel do
//! not pollute each other's measured windows.
//!
//! `unsafe` allowlist: this is the one file in the workspace permitted
//! to use `unsafe` — `GlobalAlloc` is an unsafe trait, so a counting
//! allocator cannot be written without it. Every library crate carries
//! `#![deny(unsafe_code)]`; integration tests compile as separate
//! crates, which is why the denial does not bite here.

use ff_core::{Baseline, JsonlSink, MachineConfig, Runahead, Trace, TraceSink, TwoPass};
use ff_workloads::{benchmark_by_name, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so the allocator can
    // touch it at any point in a thread's life without allocating.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOC_CALLS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.with(Cell::get);
    f();
    ALLOC_CALLS.with(Cell::get) - before
}

#[test]
fn disabled_sink_runs_do_not_allocate_per_cycle() {
    let w = benchmark_by_name("compress-like", Scale::Tiny).unwrap();
    let cfg = MachineConfig::paper_table1();

    // Budgets past the first-touch growth phase but well apart in run
    // length; the long run executes roughly twice the instructions.
    let (short_budget, long_budget) = (1_000, w.budget);

    // One throwaway run per model warms any lazily-grown process state
    // (thread-locals, the allocator itself) out of the measurement.
    let _ = Baseline::new(&w.program, w.memory.clone(), cfg.clone()).run(short_budget);
    let _ = TwoPass::new(&w.program, w.memory.clone(), cfg.clone()).run(short_budget);
    let _ = Runahead::new(&w.program, w.memory.clone(), cfg.clone()).run(short_budget);

    let base_short = allocs_during(|| {
        let r = Baseline::new(&w.program, w.memory.clone(), cfg.clone()).run(short_budget);
        assert_eq!(r.retired, short_budget);
    });
    let base_long = allocs_during(|| {
        let r = Baseline::new(&w.program, w.memory.clone(), cfg.clone()).run(long_budget);
        assert!(r.retired > short_budget, "long run must actually run longer");
    });
    assert_eq!(
        base_short, base_long,
        "baseline allocations scale with run length: the cycle loop allocates"
    );

    let tp_short = allocs_during(|| {
        let r = TwoPass::new(&w.program, w.memory.clone(), cfg.clone()).run(short_budget);
        assert_eq!(r.retired, short_budget);
    });
    let tp_long = allocs_during(|| {
        let r = TwoPass::new(&w.program, w.memory.clone(), cfg.clone()).run(long_budget);
        assert!(r.retired > short_budget, "long run must actually run longer");
    });
    assert_eq!(
        tp_short, tp_long,
        "two-pass allocations scale with run length: the cycle loop allocates"
    );

    // Runahead episodes store speculatively, so this also covers the
    // store overlay: it must keep its table across episodes.
    let ra_short = allocs_during(|| {
        let r = Runahead::new(&w.program, w.memory.clone(), cfg.clone()).run(short_budget);
        assert_eq!(r.retired, short_budget);
    });
    let ra_long = allocs_during(|| {
        let r = Runahead::new(&w.program, w.memory.clone(), cfg).run(long_budget);
        assert!(r.retired > short_budget, "long run must actually run longer");
        assert!(r.metrics.counter("runahead.episodes").unwrap() > 1);
    });
    assert_eq!(
        ra_short, ra_long,
        "runahead allocations scale with run length: the cycle loop allocates"
    );
}

#[test]
fn jsonl_sink_serializes_events_without_allocating() {
    let w = benchmark_by_name("mcf-like", Scale::Tiny).unwrap();
    let mut trace = Trace::new();
    let _ = TwoPass::new(&w.program, w.memory.clone(), MachineConfig::paper_table1())
        .run_with_sink(w.budget, &mut trace);
    let mut sink = JsonlSink::new(std::io::sink());
    // The first pass grows the sink's line buffer to the longest line.
    for &e in trace.events() {
        sink.emit(e);
    }
    let allocs = allocs_during(|| {
        for &e in trace.events() {
            sink.emit(e);
        }
    });
    assert_eq!(sink.written(), 2 * trace.len() as u64);
    assert_eq!(allocs, 0, "JsonlSink allocated while streaming {} events", trace.len());
}
