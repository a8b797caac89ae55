//! Per-layer metrics (`--trace 1`).
//!
//! Spans are recorded from the benchmark's side, around each call into
//! a crate's public entry point; the program itself is not
//! instrumented. A span carries its calibration speed and a work count,
//! so each layer's normalized host time per unit of work comes straight
//! from its spans. The run first repeats the end-to-end passes,
//! alternating passes with and without span recording (their ratio is
//! `bench.span_overhead`), then makes one layer pass per kernel:
//!
//! * ff-isa: the golden interpreter (`ArchState::run`);
//! * ff-core fast-forward: base and 2P with `fast_forward` on and off;
//! * ff-mem: the interpreter's load/store stream replayed through a
//!   cold `DataHierarchy`;
//! * ff-predict: the interpreter's conditional-branch stream replayed
//!   through the Table 1 predictor;
//! * ff-core sink: base and 2P on each kernel's first
//!   [`SINK_PREFIX`] instructions untraced, with a counting sink and
//!   with a `JsonlSink`, differenced ([`SINK_REPS`] times).
//!
//! Simulated counts (CPI, deferral, flushes, queue-full cycles) come
//! from the reference reports and repeat exactly.

use crate::workload::Model;
use crate::{median, metric, timed_passes, Harness, Metric, Samples, Timing};
use ff_core::{JsonlSink, TraceEvent, TraceSink};
use ff_isa::{evaluate, ArchState, Effect};
use ff_mem::{DataHierarchy, HierarchyConfig, MemLevel};
use ff_predict::PredictorConfig;
use ff_workloads::Workload;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

/// Instructions per kernel run in the sink layer: enough to amortize
/// machine construction, small enough that JSONL on `paper-grid` stays
/// within seconds.
const SINK_PREFIX: u64 = 20_000;

/// Repetitions of each sink-layer leg.
const SINK_REPS: usize = 3;

/// The models the fast-forward and sink layers run (the pair the
/// `traced` workload was defined around).
const LAYER_MODELS: [Model; 2] = [Model::Base, Model::TwoPass];

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
    /// Calibration speed factor (1.0 for enclosing spans).
    speed: f64,
    /// Work units done inside the span (instructions, accesses,
    /// branches or events, by layer).
    count: u64,
}

#[derive(Default)]
struct Spans(Vec<Span>);

impl Spans {
    fn record(&mut self, name: &'static str, parent: Option<usize>, t: &Timing, count: u64) {
        let (start, end, speed) = (t.start, t.end, t.speed);
        self.0.push(Span { name, parent, start, end, speed, count });
    }

    fn open(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.0.push(Span { name, parent: None, start: now, end: now, speed: 1.0, count: 0 });
        self.0.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.0[id].end = Instant::now();
    }

    /// Normalized nanoseconds and work count over every span `name`.
    fn total(&self, name: &str) -> (f64, u64) {
        self.0.iter().filter(|s| s.name == name).fold((0.0, 0), |(ns, n), s| {
            (ns + (s.end - s.start).as_secs_f64() * 1e9 * s.speed, n + s.count)
        })
    }

    /// Normalized nanoseconds per work unit over every span `name`.
    fn ns_per(&self, name: &str) -> f64 {
        let (ns, n) = self.total(name);
        ns / n as f64
    }

    /// Calls, total and self host time (ms, not normalized) per span
    /// name. Self time is a span's duration minus its children's.
    fn self_time_table(&self) -> String {
        let mut child = vec![Duration::ZERO; self.0.len()];
        for s in &self.0 {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut rows: BTreeMap<&str, (usize, Duration, Duration)> = BTreeMap::new();
        for (i, s) in self.0.iter().enumerate() {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.end - s.start;
            row.2 += (s.end - s.start).saturating_sub(child[i]);
        }
        let mut out =
            format!("{:<16} {:>6} {:>11} {:>11}\n", "span", "calls", "total_ms", "self_ms");
        for (name, (calls, total, own)) in rows {
            out += &format!(
                "{name:<16} {calls:>6} {:>11.1} {:>11.1}\n",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            );
        }
        out
    }
}

/// Span name of a model's timed operation.
fn core_span(m: Model) -> &'static str {
    match m {
        Model::Base => "core.base",
        Model::TwoPass => "core.2p",
        Model::TwoPassRegroup => "core.2pre",
        Model::Runahead => "core.runahead",
    }
}

/// `(ff on, ff off)` span names of a fast-forward leg.
fn ff_spans(m: Model) -> (&'static str, &'static str) {
    match m {
        Model::Base => ("ff.on.base", "ff.off.base"),
        _ => ("ff.on.2p", "ff.off.2p"),
    }
}

/// A sink that only counts events: the cost of emitting them.
#[derive(Default)]
struct CountingSink(u64);

impl TraceSink for CountingSink {
    fn emit(&mut self, e: TraceEvent) {
        black_box(e);
        self.0 += 1;
    }
}

/// A writer that counts and discards bytes.
#[derive(Default)]
struct ByteCount(u64);

impl io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A captured stream of `(address or pc, flag)` pairs.
type Stream = Vec<(u64, bool)>;

/// The interpreter's data-access stream `(addr, is_store)` and
/// conditional-branch stream `(pc, taken)` for one kernel.
fn capture(w: &Workload) -> (Stream, Stream) {
    let (mut accesses, mut branches) = (Vec::new(), Vec::new());
    let mut st = ArchState::new(&w.program, w.memory.clone());
    while !st.is_halted() && st.instr_count() < w.budget {
        let pc = st.pc();
        let Some(insn) = w.program.get(pc) else { break };
        match evaluate(insn, &st) {
            Effect::Load { addr, .. } => accesses.push((addr, false)),
            Effect::Store { addr, .. } => accesses.push((addr, true)),
            // Unpredicated branches are unconditional; the front end
            // predicts only predicated ones.
            Effect::Branch { taken, .. } if insn.qp.is_some() => branches.push((pc as u64, taken)),
            _ => {}
        }
        st.step();
    }
    (accesses, branches)
}

/// Layer pass counters that are not host times.
#[derive(Default)]
struct Counts {
    interp_instrs: u64,
    accesses: u64,
    l1_hits: u64,
    mem_hits: u64,
    branches: u64,
    mispredicts: u64,
    sink_instrs: u64,
    events: u64,
    bytes: u64,
}

/// Runs the traced passes and the layer pass; returns every per-layer
/// metric.
pub fn measure(h: &mut Harness, seconds: f64) -> Vec<Metric> {
    let mut spans = Spans::default();

    // Passes alternate span recording on and off.
    let (mut on, mut off) = (Samples::new(h), Samples::new(h));
    let start = Instant::now();
    let mut passes = 0;
    while passes < 2 || start.elapsed() < Duration::from_secs_f64(seconds) {
        if passes % 2 == 0 {
            let pass = spans.open("pass");
            timed_passes(h, 0.0, &mut on, |m, t, r| {
                spans.record(core_span(m), Some(pass), t, r.retired);
            });
            spans.close(pass);
        } else {
            timed_passes(h, 0.0, &mut off, |_, _, _| {});
        }
        passes += 1;
    }
    let span_overhead = on.s_per_instr(h) / off.s_per_instr(h);

    let layers = spans.open("layers");
    let counts = layer_pass(h, &mut spans, layers);
    spans.close(layers);
    eprint!("{}", spans.self_time_table());

    let mut out = Vec::new();
    let interp_ns = spans.ns_per("isa.interp");
    out.push(metric("isa.interp.ns_per_instr", interp_ns, "ns"));
    for m in Model::ALL {
        let (cycles, retired) = (0..h.kernels.len())
            .filter_map(|k| h.reference(k, m))
            .fold((0, 0), |(c, n), r| (c + r.cycles, n + r.retired));
        let cpi = cycles as f64 / retired as f64;
        // The end-to-end estimator over the span-recording passes, so
        // 1000 / ns_per_instr compares directly with `sim_mips.<m>`.
        let ns = 1e3 / on.sim_mips(h, m);
        let key = m.key();
        out.push(metric(format!("core.{key}.ns_per_instr"), ns, "ns"));
        out.push(metric(format!("core.{key}.ns_per_cycle"), ns / cpi, "ns"));
        out.push(metric(format!("core.{key}.x_interp"), ns / interp_ns, "x"));
        out.push(metric(format!("core.{key}.cpi"), cpi, "cycles/instr"));
    }
    for m in LAYER_MODELS {
        let (on, off) = ff_spans(m);
        let gain = spans.total(off).0 / spans.total(on).0;
        out.push(metric(format!("core.{}.ff_gain", m.key()), gain, "x"));
    }
    out.extend(two_pass_metrics(h));
    let c = &counts;
    let per_kinstr = |n: u64| n as f64 * 1e3 / c.interp_instrs as f64;
    out.push(metric("mem.hier.ns_per_access", spans.ns_per("mem.hier"), "ns"));
    out.push(metric("mem.hier.accesses_per_kinstr", per_kinstr(c.accesses), "1/kinstr"));
    out.push(metric("mem.hier.l1_hit_rate", c.l1_hits as f64 / c.accesses as f64, "frac"));
    out.push(metric("mem.hier.mem_frac", c.mem_hits as f64 / c.accesses as f64, "frac"));
    out.push(metric("predict.ns_per_branch", spans.ns_per("predict"), "ns"));
    out.push(metric("predict.branches_per_kinstr", per_kinstr(c.branches), "1/kinstr"));
    out.push(metric("predict.mispredict_rate", c.mispredicts as f64 / c.branches as f64, "frac"));
    let off_ns = spans.total("sink.off").0 - spans.total("sink.state_copy").0;
    let (count_ns, _) = spans.total("sink.count");
    let (jsonl_ns, _) = spans.total("sink.jsonl");
    out.push(metric(
        "core.sink.events_per_instr",
        c.events as f64 / c.sink_instrs as f64,
        "1/instr",
    ));
    out.push(metric(
        "core.sink.emit_ns_per_instr",
        (count_ns - off_ns) / c.sink_instrs as f64,
        "ns",
    ));
    out.push(metric("core.sink.jsonl_ns_per_event", (jsonl_ns - count_ns) / c.events as f64, "ns"));
    out.push(metric("core.sink.jsonl_bytes_per_event", c.bytes as f64 / c.events as f64, "B"));
    out.push(metric("host.cal_rate", median(&mut h.clock.rates.clone()) / 1e6, "Msteps/s"));
    out.push(metric("bench.span_overhead", span_overhead, "x"));
    out
}

/// 2P's B-pipe work, summed over the workload's kernels.
fn two_pass_metrics(h: &Harness) -> Vec<Metric> {
    let (mut dispatched, mut deferred, mut flushes, mut full, mut cycles, mut retired) =
        (0, 0, 0, 0, 0, 0);
    for r in (0..h.kernels.len()).filter_map(|k| h.reference(k, Model::TwoPass)) {
        let tp = r.two_pass.as_ref().expect("two-pass report carries two-pass stats");
        dispatched += tp.dispatched_a;
        deferred += tp.deferred;
        flushes += tp.store_conflict_flushes + r.branches.repaired_in_b;
        full += tp.queue_full_cycles;
        cycles += r.cycles;
        retired += r.retired;
    }
    vec![
        metric("core.2p.deferral_rate", deferred as f64 / dispatched as f64, "frac"),
        metric("core.2p.flushes_per_kinstr", flushes as f64 * 1e3 / retired as f64, "1/kinstr"),
        metric("core.2p.queue_full_frac", full as f64 / cycles as f64, "frac"),
    ]
}

/// One call per layer per kernel (three per sink leg), each timed
/// between calibration probes and recorded as a span under `parent`.
fn layer_pass(h: &mut Harness, spans: &mut Spans, parent: usize) -> Counts {
    let mut c = Counts::default();
    let traced = h.bench.traced();
    for k in 0..h.kernels.len() {
        let w = &h.kernels[k].w;
        let clock = &mut h.clock;
        let parent = Some(parent);

        let (summary, t) =
            clock.time(|| ArchState::new(&w.program, w.memory.clone()).run(w.budget));
        spans.record("isa.interp", parent, &t, summary.instrs);
        c.interp_instrs += summary.instrs;

        // Fast-forward legs, run as the workload runs its operations;
        // the leg order alternates between kernels so drift cancels.
        let mut ff_reports = Vec::new();
        for m in LAYER_MODELS {
            let (on_name, off_name) = ff_spans(m);
            let legs = if k % 2 == 0 { [true, false] } else { [false, true] };
            for ff in legs {
                let (r, t) = clock.time(|| {
                    if traced {
                        m.run_with_sink(w, w.budget, ff, &mut JsonlSink::new(io::sink()))
                    } else {
                        m.run_with_state(w, w.budget, ff).0
                    }
                });
                spans.record(if ff { on_name } else { off_name }, parent, &t, r.retired);
                ff_reports.push((m, r));
            }
        }

        let (accesses, branches) = capture(w);
        let mut hier = DataHierarchy::new(HierarchyConfig::paper_table1())
            .expect("Table 1 hierarchy geometry is valid");
        let ((), t) = clock.time(|| {
            for &(addr, store) in &accesses {
                black_box(if store { hier.store(addr) } else { hier.load(addr) });
            }
        });
        spans.record("mem.hier", parent, &t, accesses.len() as u64);
        let stats = hier.stats();
        c.accesses += accesses.len() as u64;
        c.l1_hits += stats.load_hits[MemLevel::L1.index()] + stats.store_hits[MemLevel::L1.index()];
        c.mem_hits +=
            stats.load_hits[MemLevel::Mem.index()] + stats.store_hits[MemLevel::Mem.index()];

        let mut predictor = PredictorConfig::paper_table1().build();
        let (wrong, t) = clock.time(|| {
            let mut wrong = 0u64;
            for &(pc, taken) in &branches {
                wrong += u64::from(predictor.predict(pc) != taken);
                predictor.update(pc, taken);
            }
            wrong
        });
        spans.record("predict", parent, &t, branches.len() as u64);
        c.branches += branches.len() as u64;
        c.mispredicts += wrong;

        let budget = w.budget.min(SINK_PREFIX);
        let mut sink_reports = Vec::new();
        for _ in 0..SINK_REPS {
            for m in LAYER_MODELS {
                let ((plain, state), t) = clock.time(|| m.run_with_state(w, budget, true));
                spans.record("sink.off", parent, &t, plain.retired);
                // The untraced entry point also copies out the final
                // state, which the sink entry point does not; time that
                // copy so the sink layer's cost excludes it.
                let ((), t) = clock.time(|| drop(black_box(state.clone())));
                spans.record("sink.state_copy", parent, &t, 0);
                let mut counting = CountingSink::default();
                let (counted, t) = clock.time(|| m.run_with_sink(w, budget, true, &mut counting));
                spans.record("sink.count", parent, &t, counted.retired);
                let mut jsonl = JsonlSink::new(ByteCount::default());
                let (serialized, t) = clock.time(|| m.run_with_sink(w, budget, true, &mut jsonl));
                spans.record("sink.jsonl", parent, &t, counting.0);
                c.sink_instrs += plain.retired;
                c.events += counting.0;
                c.bytes += jsonl.into_inner().map_or(0, |b| b.0);
                sink_reports.push((m, plain, [counted, serialized]));
            }
        }

        // Checks, outside every timed call: fast-forward and sinks must
        // not change what is simulated.
        for (m, r) in ff_reports {
            h.check_extra(k, m, |reference| {
                (&r == reference).then_some(()).ok_or("fast-forward changed the report")
            });
        }
        for (m, plain, traced_reports) in sink_reports {
            for r in traced_reports {
                h.check_extra(k, m, |_| {
                    (r == plain).then_some(()).ok_or("a trace sink changed the report")
                });
            }
        }
    }
    c
}
