//! JSONL trace byte pins.
//!
//! `ff_trace` and every analysis downstream of it read the exact bytes
//! [`JsonlSink`] writes, so the serialized form of each [`TraceEvent`]
//! is pinned here: one golden line per variant and per enum value the
//! variant carries (with `pc: None`/`Some` and `u64::MAX`/`usize::MAX`
//! extremes), plus FNV-1a hashes of two whole tiny-scale traces, both as
//! written (format version 2) and re-expanded to the version-1 stream
//! that sampled occupancy every cycle. A diff here is a trace format
//! change, never an optimization side effect.
//!
//! Re-bless `tests/golden/trace_events.jsonl` (only for a deliberate
//! format change) with
//! `FF_BLESS_TRACE_JSONL=1 cargo test --test trace_jsonl`.

use ff_bench::traceview::{densify_samples, load_events};
use fleaflicker::core::{
    parse_jsonl_line, CycleClass, FlushKind, JsonlSink, MachineConfig, Pipe, Runahead, SimReport,
    StallCause, TraceEvent, TraceHeader, TraceSink, TwoPass,
};
use fleaflicker::mem::MemLevel;
use fleaflicker::workloads::{benchmark_by_name, Scale, Workload};

const GOLDEN_PATH: &str = "tests/golden/trace_events.jsonl";

const FLUSH_KINDS: [FlushKind; 2] = [FlushKind::BdetMispredict, FlushKind::StoreConflict];
const PIPES: [Pipe; 2] = [Pipe::A, Pipe::B];

/// One seed event per variant: the exhaustive `match` in
/// [`pinned_events`] expands each seed over the values it carries.
fn seeds() -> Vec<TraceEvent> {
    const U: u64 = u64::MAX;
    const Z: usize = usize::MAX;
    vec![
        TraceEvent::Fetch { cycle: 13, seq: 21, pc: 5 },
        TraceEvent::AExec { cycle: 13, seq: 21, pc: 5, ready_at: 14 },
        TraceEvent::Defer { cycle: 13, seq: 22, pc: 6 },
        TraceEvent::CqEnqueue { cycle: 13, seq: 22, pc: 6, depth: 2 },
        TraceEvent::CqDequeue { cycle: 20, seq: 22, pc: 6, resident: 7 },
        TraceEvent::BExec { cycle: 20, seq: 22, pc: 6 },
        TraceEvent::Squash { cycle: 21, seq: 23, pc: 7 },
        TraceEvent::ADispatch { cycle: 1, seq: 2, pc: 3, deferred: true },
        TraceEvent::BRetire { cycle: 4, seq: 2, pc: 3, was_deferred: false },
        TraceEvent::Flush { cycle: 5, kind: FlushKind::StoreConflict, boundary_seq: 1 },
        TraceEvent::ARedirect { cycle: 6, pc: 9 },
        TraceEvent::GroupDispatch { cycle: 7, pipe: Pipe::A, head_seq: 10, len: 4 },
        TraceEvent::ClassTransition {
            cycle: 8,
            from: CycleClass::Unstalled,
            to: CycleClass::Unstalled,
        },
        TraceEvent::CauseTransition { cycle: 8, cause: StallCause::Issue, pc: None },
        TraceEvent::MissBegin {
            cycle: 9,
            pipe: Pipe::B,
            level: MemLevel::Mem,
            addr: 0xdead_beef,
            fill_at: 161,
        },
        TraceEvent::MissEnd { cycle: 161, addr: 0xdead_beef, level: MemLevel::Mem },
        TraceEvent::QueueSample { cycle: 10, depth: 7, mshr: 3 },
        TraceEvent::RunaheadEnter { cycle: 11, pc: 40 },
        TraceEvent::RunaheadExit { cycle: 12, pc: 40, discarded: 17 },
        // Integer extremes: every u64/usize/u32 field at its maximum.
        TraceEvent::Fetch { cycle: U, seq: U, pc: Z },
        TraceEvent::AExec { cycle: U, seq: U, pc: Z, ready_at: U },
        TraceEvent::CqEnqueue { cycle: U, seq: U, pc: Z, depth: u32::MAX },
        TraceEvent::CqDequeue { cycle: U, seq: U, pc: Z, resident: U },
        TraceEvent::ADispatch { cycle: U, seq: U, pc: Z, deferred: false },
        TraceEvent::BRetire { cycle: U, seq: U, pc: Z, was_deferred: true },
        TraceEvent::MissBegin { cycle: U, pipe: Pipe::A, level: MemLevel::L1, addr: U, fill_at: U },
        TraceEvent::QueueSample { cycle: U, depth: u32::MAX, mshr: u32::MAX },
        TraceEvent::RunaheadExit { cycle: U, pc: Z, discarded: U },
        TraceEvent::ARedirect { cycle: 0, pc: 0 },
    ]
}

/// The pinned event list. The `match` has no wildcard arm, so a new
/// [`TraceEvent`] variant does not compile until it is pinned here.
fn pinned_events() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for seed in seeds() {
        match seed {
            TraceEvent::Fetch { .. }
            | TraceEvent::AExec { .. }
            | TraceEvent::Defer { .. }
            | TraceEvent::CqEnqueue { .. }
            | TraceEvent::CqDequeue { .. }
            | TraceEvent::BExec { .. }
            | TraceEvent::Squash { .. }
            | TraceEvent::ADispatch { .. }
            | TraceEvent::BRetire { .. }
            | TraceEvent::ARedirect { .. }
            | TraceEvent::QueueSample { .. }
            | TraceEvent::RunaheadEnter { .. }
            | TraceEvent::RunaheadExit { .. } => out.push(seed),
            TraceEvent::Flush { cycle, boundary_seq, .. } => {
                out.extend(FLUSH_KINDS.map(|kind| TraceEvent::Flush { cycle, kind, boundary_seq }));
            }
            TraceEvent::GroupDispatch { cycle, head_seq, len, .. } => {
                out.extend(PIPES.map(|pipe| TraceEvent::GroupDispatch {
                    cycle,
                    pipe,
                    head_seq,
                    len,
                }));
            }
            TraceEvent::ClassTransition { cycle, .. } => {
                // Each class appears as both `from` and `to`.
                for (i, &to) in CycleClass::ALL.iter().enumerate() {
                    let from = CycleClass::ALL[(i + 1) % CycleClass::ALL.len()];
                    out.push(TraceEvent::ClassTransition { cycle, from, to });
                }
            }
            TraceEvent::CauseTransition { cycle, .. } => {
                for (i, &cause) in StallCause::ALL.iter().enumerate() {
                    out.push(TraceEvent::CauseTransition { cycle, cause, pc: Some(i as u64) });
                }
                out.push(TraceEvent::CauseTransition { cycle, cause: StallCause::Issue, pc: None });
                out.push(TraceEvent::CauseTransition {
                    cycle: u64::MAX,
                    cause: StallCause::LoadMem,
                    pc: Some(u64::MAX),
                });
            }
            TraceEvent::MissBegin { cycle, addr, fill_at, .. } => {
                for pipe in PIPES {
                    for level in MemLevel::ALL {
                        out.push(TraceEvent::MissBegin { cycle, pipe, level, addr, fill_at });
                    }
                }
            }
            TraceEvent::MissEnd { cycle, addr, .. } => {
                out.extend(MemLevel::ALL.map(|level| TraceEvent::MissEnd { cycle, addr, level }));
            }
        }
    }
    out
}

/// The event lines `JsonlSink` writes for `events`; its header line is
/// checked and stripped.
fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    for &e in events {
        sink.emit(e);
    }
    sink.finish();
    assert!(!sink.errored());
    assert_eq!(sink.written(), events.len() as u64);
    let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    let (header, body) = text.split_once('\n').unwrap();
    assert_eq!(TraceHeader::parse(header), Some(TraceHeader::CURRENT));
    body.to_string()
}

#[test]
fn every_trace_event_variant_serializes_to_its_pinned_line() {
    let events = pinned_events();
    let text = to_jsonl(&events);
    if std::env::var_os("FF_BLESS_TRACE_JSONL").is_some() {
        std::fs::write(GOLDEN_PATH, &text).unwrap();
    }
    let golden = include_str!("golden/trace_events.jsonl");
    for (i, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} ({:?}) drifted from {GOLDEN_PATH}", i + 1, events[i]);
    }
    assert_eq!(text.lines().count(), golden.lines().count(), "{GOLDEN_PATH} line count");
    assert_eq!(text, golden);
    // The pinned lines parse back to the events that produced them.
    let parsed: Vec<TraceEvent> = golden.lines().map(|l| parse_jsonl_line(l).unwrap()).collect();
    assert_eq!(parsed, events);
}

/// 64-bit FNV-1a over the trace bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn traced_bytes(
    bench: &str,
    run: impl FnOnce(&Workload, &mut dyn TraceSink) -> SimReport,
) -> Vec<u8> {
    let w = benchmark_by_name(bench, Scale::Tiny).unwrap();
    let mut sink = JsonlSink::new(Vec::new());
    let report = run(&w, &mut sink);
    assert!(report.retired > 0 && !sink.errored(), "{bench}");
    sink.into_inner().unwrap()
}

#[test]
fn whole_tiny_traces_hash_to_their_pinned_values() {
    let cfg = MachineConfig::paper_table1();
    let mcf = traced_bytes("mcf-like", |w, sink| {
        TwoPass::new(&w.program, w.memory.clone(), cfg.clone()).run_with_sink(w.budget, sink)
    });
    let vpr = traced_bytes("vpr-like", |w, sink| {
        Runahead::new(&w.program, w.memory.clone(), cfg.clone()).run_with_sink(w.budget, sink)
    });
    let got = [(mcf.len(), fnv1a64(&mcf)), (vpr.len(), fnv1a64(&vpr))];
    assert_eq!(
        got,
        [(441_266, 0x2a24_643e_d086_0deb), (388_918, 0xa359_c8ce_279f_a859)],
        "mcf-like 2P / vpr-like runahead JSONL (bytes, FNV-1a)"
    );
    // Nothing was lost: expanding the occupancy step function back to
    // one sample per cycle reproduces the version-1 stream (no header)
    // byte for byte.
    let dense = |bytes: &[u8]| {
        let events = load_events(bytes).unwrap();
        to_jsonl(&densify_samples(&events)).into_bytes()
    };
    let (mcf, vpr) = (dense(&mcf), dense(&vpr));
    let got = [(mcf.len(), fnv1a64(&mcf)), (vpr.len(), fnv1a64(&vpr))];
    assert_eq!(
        got,
        [(1_337_498, 0xfdc9_4fd5_cf23_dd2a), (524_439, 0x456b_462f_e24a_83be)],
        "mcf-like 2P / vpr-like runahead re-densified JSONL (bytes, FNV-1a)"
    );
}
