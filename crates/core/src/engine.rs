//! The cycle engine shared by all four models.
//!
//! The paper compares one in-order EPIC machine with three back ends:
//! `base`, two-pass (`2P`, `2Pre`) and the §2 runahead comparator share
//! the front end, the memory hierarchy and the Figure-6 cycle
//! accounting. [`Engine`] owns that shared machine ([`Machine`]) and
//! runs the one cycle loop — livelock guard, stall charging, trace
//! bookkeeping and event-driven fast-forward — while a [`Core`]
//! supplies only what differs: one cycle of its back end, the extra
//! conditions under which a stall span may be skipped, and its own
//! report fields. The engine is generic over its core (static
//! dispatch), so the hot loop has no `dyn`.
//!
//! [`simulate`] is the one place a [`ModelKind`] picks a core.

use crate::accounting::{CauseBreakdown, CycleClass, StallAttr, StallCause, StallProfile};
use crate::config::MachineConfig;
use crate::decoded::DecodedProgram;
use crate::frontend::{Frontend, FrontendConfig};
use crate::replay::TraceReplay;
use crate::report::{BranchStats, MemAccessStats, ModelKind, Pipe, SimReport};
use crate::sink::{SinkHandle, TraceSink};
use crate::{Baseline, Runahead, TwoPass};
use ff_isa::reg::TOTAL_REGS;
use ff_isa::{load_write, MemoryImage, Program, RegId};
use ff_mem::{DataHierarchy, MemLevel, MshrFile};

/// The architectural register file with its scoreboard: each
/// register's bits, the cycle its latest value becomes readable, and
/// the refined cause and static pc charged to a consumer that blocks on
/// it. Whether the pending producer is a load is the cause's class.
#[derive(Debug)]
pub struct Scoreboard {
    pub(crate) bits: [u64; TOTAL_REGS],
    pub(crate) ready_at: [u64; TOTAL_REGS],
    cause: [StallCause; TOTAL_REGS],
    pc: [usize; TOTAL_REGS],
}

impl Default for Scoreboard {
    fn default() -> Self {
        Scoreboard {
            bits: [0; TOTAL_REGS],
            ready_at: [0; TOTAL_REGS],
            cause: [StallCause::DepOther; TOTAL_REGS],
            pc: [0; TOTAL_REGS],
        }
    }
}

impl Scoreboard {
    /// Writes `bits` to `reg`, readable from `ready_at`; a consumer
    /// blocking on it is charged `cause` at the producer's `pc`.
    pub(crate) fn write(
        &mut self,
        reg: RegId,
        bits: u64,
        ready_at: u64,
        cause: StallCause,
        pc: usize,
    ) {
        let i = reg.index();
        self.bits[i] = bits;
        self.ready_at[i] = ready_at;
        self.cause[i] = cause;
        self.pc[i] = pc;
    }

    /// Writes a load result waiting on a fill from `level`.
    pub(crate) fn write_load(
        &mut self,
        reg: RegId,
        bits: u64,
        ready_at: u64,
        level: MemLevel,
        pc: usize,
    ) {
        self.write(reg, bits, ready_at, StallCause::load(level), pc);
    }

    /// Whether register `idx`'s pending producer is a load.
    pub(crate) fn pending_load(&self, idx: usize) -> bool {
        self.cause[idx].class() == CycleClass::LoadStall
    }

    /// The block on register `idx` at cycle `now`, if its value is not
    /// yet readable: the producer's attribution and the cycle the value
    /// becomes readable (the fast-forward wake hint).
    pub(crate) fn block(&self, idx: usize, now: u64) -> Option<(StallAttr, u64)> {
        (self.ready_at[idx] > now)
            .then(|| (StallAttr::at(self.cause[idx], self.pc[idx]), self.ready_at[idx]))
    }
}

/// The machine state every model shares: configuration, front end,
/// decoded program, architectural registers and memory, the data
/// hierarchy with its MSHRs, the clock, and the statistics that do not
/// depend on the back end.
#[derive(Debug)]
pub struct Machine<'p> {
    pub(crate) cfg: MachineConfig,
    pub(crate) frontend: Frontend<'p>,
    /// Per-pc pre-decoded metadata (sources, dests, FU class, latency).
    pub(crate) code: DecodedProgram,
    /// Architectural (B-file, for two-pass) registers.
    pub(crate) regs: Scoreboard,
    pub(crate) mem_img: MemoryImage,
    pub(crate) hier: DataHierarchy,
    pub(crate) mshrs: MshrFile,
    pub(crate) cycle: u64,
    pub(crate) retired: u64,
    pub(crate) halted: bool,
    /// Booked fills and last emitted transitions/sample, for tracing.
    pub(crate) trace: TraceReplay,
    pub(crate) mem_stats: MemAccessStats,
    pub(crate) branches: BranchStats,
}

impl<'p> Machine<'p> {
    fn new(program: &'p Program, mem: MemoryImage, cfg: MachineConfig) -> Self {
        let fe_cfg = FrontendConfig {
            fetch_width: cfg.issue_width,
            buffer_capacity: cfg.fetch_buffer,
            icache_miss_latency: cfg.icache_miss_latency,
            icache: ff_mem::CacheGeometry::new(16 * 1024, 4, 64),
        };
        Machine {
            frontend: Frontend::new(program, cfg.predictor.build(), fe_cfg),
            code: DecodedProgram::new(program, &cfg.latencies),
            regs: Scoreboard::default(),
            mem_img: mem,
            hier: DataHierarchy::new(cfg.hierarchy).expect("valid hierarchy"),
            mshrs: MshrFile::new(cfg.max_outstanding_loads),
            cycle: 0,
            retired: 0,
            halted: false,
            trace: TraceReplay::new(),
            mem_stats: MemAccessStats::default(),
            branches: BranchStats::default(),
            cfg,
        }
    }

    /// Initiates a load of `addr` from `pipe`: accesses the hierarchy,
    /// records the access and books the fill (L1 hits bypass the MSHRs;
    /// misses allocate or merge). Returns the data-ready cycle and the
    /// level the data is *effectively* waiting on: a fill-clamped L1 hit
    /// reports the in-flight fill's level, for stall attribution.
    pub(crate) fn access_load(
        &mut self,
        addr: u64,
        pipe: Pipe,
        sink: &mut SinkHandle,
    ) -> (u64, MemLevel) {
        let out = self.hier.load(addr);
        self.mem_stats.record_load(pipe, out.level, out.latency);
        let done = self.cycle + out.latency;
        let line = self.cfg.hierarchy.l2.line_of(addr);
        if out.level == MemLevel::L1 {
            // Tags fill at access time, so a "hit" may name a line whose
            // fill is still in flight: complete no earlier than the fill.
            return match self.mshrs.pending_fill(self.cycle, line) {
                Some((fill_done, fill_level)) if fill_done > done => (fill_done, fill_level),
                _ => (done, MemLevel::L1),
            };
        }
        let fill_at =
            self.mshrs.request(self.cycle, line, done, out.level).unwrap_or(done).max(done);
        self.trace.miss_begin(sink, self.cycle, pipe, out.level, addr, fill_at);
        (fill_at, out.level)
    }

    /// Executes an architectural load by the instruction at `pc` into
    /// `dest`. Returns the loaded bits and the cycle they are readable.
    pub(crate) fn arch_load(
        &mut self,
        pc: usize,
        (addr, size, signed): (u64, u64, bool),
        dest: RegId,
        sink: &mut SinkHandle,
    ) -> (u64, u64) {
        let bits = load_write(self.mem_img.load(addr, size), size, signed);
        let (done, level) = self.access_load(addr, Pipe::B, sink);
        self.regs.write_load(dest, bits, done, level, pc);
        (bits, done)
    }

    /// Retires the conditional branch at `pc`: trains the predictor and
    /// counts the outcome, a misprediction as repaired at B-DET when
    /// `b_det` (a deferred two-pass branch) and at A-DET otherwise (the
    /// single DET stage of the in-order pipe).
    pub(crate) fn retire_branch(
        &mut self,
        pc: usize,
        taken: bool,
        mispredicted: bool,
        b_det: bool,
    ) {
        self.branches.retired += 1;
        self.frontend.predictor_mut().update(pc as u64, taken);
        if mispredicted {
            self.branches.mispredicted += 1;
            if b_det {
                self.branches.repaired_in_b += 1;
            } else {
                self.branches.repaired_in_a += 1;
            }
        }
    }
}

/// A model's back end: everything one model does differently on top of
/// the shared [`Machine`]. Implemented by the baseline, two-pass and
/// runahead cores of this crate.
pub trait Core: Sized {
    /// Builds the back end's own state for a machine configured by
    /// `cfg`.
    fn new(cfg: &MachineConfig) -> Self;

    /// The model this core simulates under `cfg`.
    fn kind(&self, cfg: &MachineConfig) -> ModelKind;

    /// Simulates one cycle. Returns the cycle's attribution (its class
    /// is `attr.cause.class()`) and, on a stall, the fast-forward wake
    /// hint: the earliest cycle at which the stall can change, or `None`
    /// when the next cycle may already differ.
    fn step(&mut self, m: &mut Machine<'_>, sink: &mut SinkHandle) -> (StallAttr, Option<u64>);

    /// Whether the machine, not halted, can make no further progress
    /// (the run loop stops defensively).
    fn drained(&self, m: &Machine<'_>) -> bool;

    /// Coupling-queue depth reported in occupancy samples.
    fn queue_depth(&self) -> u32 {
        0
    }

    /// The fast-forward target for a stall that wakes at `wake`, capped
    /// by the core's own pending events, or `None` when the core is not
    /// provably inert across the span.
    fn ff_cap(&self, wake: u64) -> Option<u64> {
        Some(wake)
    }

    /// Charges the core's own counters for `span` skipped stall cycles,
    /// exactly as ticking each of them would.
    fn charge_span(&mut self, _span: u64) {}

    /// Audit: asserts that the span ending at `target` (exclusive),
    /// about to be skipped under `attr`, had no enabled event on its
    /// last cycle.
    #[cfg(feature = "audit")]
    fn audit_span(&mut self, m: &mut Machine<'_>, attr: StallAttr, target: u64);

    /// Fills the model-specific report fields, then collects the
    /// report's metrics.
    fn finish_report(&mut self, report: &mut SimReport) {
        report.collect_metrics();
    }

    /// Runs `engine` to the end: `engine.run_to_end(max_instrs, sink)`.
    ///
    /// Each core writes this one line in its own impl, so the cycle loop
    /// is compiled in this crate, where the machine's helpers inline,
    /// rather than anew in every crate that runs a model (optimized
    /// builds do not share generic instantiations across crates).
    fn drive(
        engine: Engine<'_, Self>,
        max_instrs: u64,
        sink: Option<&mut dyn TraceSink>,
    ) -> RunOutput;
}

/// The final result of one run: the report plus the final architectural
/// registers and memory (for differential testing).
#[derive(Debug)]
pub struct RunOutput {
    /// The run's report.
    pub report: SimReport,
    /// Final architectural register bits.
    pub regs: [u64; TOTAL_REGS],
    /// Final data memory.
    pub mem: MemoryImage,
}

/// A cycle-level simulator: the shared [`Machine`] driven by the back
/// end `C` (see [`crate::Baseline`], [`crate::TwoPass`] and
/// [`crate::Runahead`]).
#[derive(Debug)]
pub struct Engine<'p, C> {
    m: Machine<'p>,
    core: C,
    /// Per-cause cycle accounting; the six-class breakdown is its
    /// collapse.
    breakdown: CauseBreakdown,
    /// Per-PC stall attribution for the profile table.
    profile: StallProfile,
}

impl<'p, C: Core> Engine<'p, C> {
    /// Creates a machine over `program` with initial data memory `mem`.
    #[must_use]
    pub fn new(program: &'p Program, mem: MemoryImage, cfg: MachineConfig) -> Self {
        Engine {
            core: C::new(&cfg),
            m: Machine::new(program, mem, cfg),
            breakdown: CauseBreakdown::new(),
            profile: StallProfile::new(),
        }
    }

    /// Runs until `halt` retires or `max_instrs` instructions retire.
    #[must_use]
    pub fn run(self, max_instrs: u64) -> SimReport {
        C::drive(self, max_instrs, None).report
    }

    /// Runs with every pipeline event streamed into `sink` (see
    /// [`crate::sink`] for bounded and streaming sinks, and
    /// [`crate::Trace`] to record in memory).
    #[must_use]
    pub fn run_with_sink(self, max_instrs: u64, sink: &mut dyn TraceSink) -> SimReport {
        C::drive(self, max_instrs, Some(sink)).report
    }

    /// Runs to completion and returns both the report and the final
    /// architectural state (register bits and memory) for differential
    /// testing against the golden interpreter.
    #[must_use]
    pub fn run_with_state(self, max_instrs: u64) -> (SimReport, [u64; TOTAL_REGS], MemoryImage) {
        let out = C::drive(self, max_instrs, None);
        (out.report, out.regs, out.mem)
    }

    /// Runs until `halt` retires or `max_instrs` instructions retire,
    /// then builds the report and moves the final state out.
    pub(crate) fn run_to_end(
        mut self,
        max_instrs: u64,
        sink: Option<&mut dyn TraceSink>,
    ) -> RunOutput {
        let mut handle = sink.map_or_else(SinkHandle::off, SinkHandle::on);
        self.run_loop(max_instrs, &mut handle);
        handle.finish();
        let Engine { m, mut core, breakdown, profile } = self;
        let mut report = SimReport {
            model: core.kind(&m.cfg),
            cycles: m.cycle,
            retired: m.retired,
            breakdown: breakdown.collapse(),
            breakdown2: breakdown,
            stall_profile: profile,
            mem: m.mem_stats,
            branches: m.branches,
            hierarchy: *m.hier.stats(),
            mshr: m.mshrs.stats(),
            two_pass: None,
            metrics: crate::metrics::MetricsSnapshot::default(),
        };
        core.finish_report(&mut report);
        RunOutput { report, regs: m.regs.bits, mem: m.mem_img }
    }

    fn run_loop(&mut self, max_instrs: u64, sink: &mut SinkHandle) {
        // A forward-progress guard: any livelock is a simulator bug and
        // must surface as a panic, not a hang.
        let cycle_cap = max_instrs.saturating_mul(500).max(1_000_000);
        while !self.m.halted && self.m.retired < max_instrs {
            let m = &mut self.m;
            assert!(
                m.cycle < cycle_cap,
                "{} simulation livelocked at cycle {} (retired {})",
                self.core.kind(&m.cfg),
                m.cycle,
                m.retired
            );
            m.frontend.tick(m.cycle);
            if sink.is_on() {
                m.trace.drain_misses(m.cycle, sink);
            }
            let (attr, wake) = self.core.step(m, sink);
            self.breakdown.charge(attr.cause);
            if let Some(pc) = attr.pc {
                self.profile.record(pc, attr.cause);
            }
            if sink.is_on() {
                let mshr = m.mshrs.outstanding(m.cycle) as u32;
                m.trace.end_cycle(m.cycle, attr, self.core.queue_depth(), mshr, sink);
            }
            m.cycle += 1;
            if !m.halted && self.core.drained(m) {
                break; // defensive: no further progress possible
            }
            if m.cfg.fast_forward && attr.cause != StallCause::Issue {
                self.fast_forward(attr, wake, sink);
            }
        }
        self.m.trace.close(self.m.cycle, sink);
    }

    /// Event-driven fast-forward: having just charged a stall cycle with
    /// wake hint `wake`, jump the clock across the provably identical
    /// stall span `[cycle, target)`, bulk-charging the attribution and
    /// replaying the span's trace output (see
    /// [`TraceReplay::replay_span`]) so results are byte-identical to
    /// ticking every cycle.
    fn fast_forward(&mut self, attr: StallAttr, wake: Option<u64>, sink: &mut SinkHandle) {
        let Some(mut target) = wake.and_then(|w| self.core.ff_cap(w)) else { return };
        let m = &mut self.m;
        // The front end must be inert across the span: either stopped /
        // buffer-full (`tick` is a no-op at any clock value) or
        // refilling, which caps the jump at the refill arrival. An
        // actively fetching front end yields `resume_at <= now`, making
        // the span empty.
        if !m.frontend.is_stopped_or_full() {
            target = target.min(m.frontend.resume_at());
        }
        if target <= m.cycle {
            return;
        }
        #[cfg(feature = "audit")]
        self.core.audit_span(m, attr, target);
        let span = target - m.cycle;
        self.breakdown.charge_n(attr.cause, span);
        if let Some(pc) = attr.pc {
            self.profile.record_n(pc, attr.cause, span);
        }
        self.core.charge_span(span);
        m.trace.replay_span(m.cycle, target, self.core.queue_depth(), &m.mshrs, sink);
        m.cycle = target;
    }
}

/// Runs `program` from initial memory `mem` on model `kind` under `cfg`
/// until `halt` retires or `max_instrs` instructions retire, streaming
/// every pipeline event into `sink` when one is given.
///
/// `cfg.two_pass.regroup` is set from `kind`, so the report always
/// names the model asked for.
///
/// # Examples
///
/// ```
/// use ff_core::{simulate, MachineConfig, ModelKind, Trace};
/// use ff_isa::{MemoryImage, ProgramBuilder, RegId};
/// use ff_isa::reg::IntReg;
///
/// let mut b = ProgramBuilder::new();
/// b.movi(IntReg::n(1), 5);
/// b.stop();
/// b.halt();
/// let program = b.build()?;
/// let kind: ModelKind = "2pre".parse()?;
/// let mut trace = Trace::new();
/// let cfg = MachineConfig::paper_table1();
/// let out = simulate(kind, &program, MemoryImage::new(), &cfg, 1_000, Some(&mut trace));
/// assert_eq!(out.report.model, ModelKind::TwoPassRegroup);
/// assert_eq!(out.regs[RegId::Int(IntReg::n(1)).index()], 5);
/// assert!(!trace.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn simulate(
    kind: ModelKind,
    program: &Program,
    mem: MemoryImage,
    cfg: &MachineConfig,
    max_instrs: u64,
    sink: Option<&mut dyn TraceSink>,
) -> RunOutput {
    let mut cfg = cfg.clone();
    cfg.two_pass.regroup = kind == ModelKind::TwoPassRegroup;
    match kind {
        ModelKind::Baseline => Baseline::new(program, mem, cfg).run_to_end(max_instrs, sink),
        ModelKind::TwoPass | ModelKind::TwoPassRegroup => {
            TwoPass::new(program, mem, cfg).run_to_end(max_instrs, sink)
        }
        ModelKind::Runahead => Runahead::new(program, mem, cfg).run_to_end(max_instrs, sink),
    }
}
