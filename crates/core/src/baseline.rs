//! The baseline in-order EPIC pipeline (the paper's `base` machine).
//!
//! Issue-group-granularity stalls are the defining behaviour: if any
//! instruction in the group at the head of the fetch buffer has an
//! unready operand, the *whole group and everything behind it* waits —
//! the "artificial dependences" of the paper's Figure 1. Loads are
//! non-blocking (stall-on-use): a load's consumers, not the load itself,
//! expose its latency.
//!
//! Branch mispredictions resolve when the branch issues; the redirect
//! penalty (`frontend_depth + exec_to_det`) is charged as front-end dead
//! time. Wrong-path instructions therefore never corrupt architectural
//! state, and the final registers/memory match the golden interpreter
//! exactly — a property the test suite checks differentially.

use crate::accounting::{
    CauseBreakdown, CycleBreakdown, CycleClass, StallAttr, StallCause, StallProfile,
};
use crate::config::MachineConfig;
use crate::decoded::DecodedProgram;
use crate::exec_common::fitting_prefix_classes;
use crate::frontend::{Frontend, FrontendConfig};
use crate::replay::TraceReplay;
use crate::report::{BranchStats, MemAccessStats, ModelKind, Pipe, SimReport};
use crate::sink::{SinkHandle, TraceSink};
use crate::trace::{Trace, TraceEvent};
use ff_isa::reg::TOTAL_REGS;
use ff_isa::{evaluate, load_write, Effect, MemoryImage, Program, RegId};
use ff_mem::{DataHierarchy, MemLevel, MshrFile};

/// The baseline in-order pipeline simulator.
///
/// # Examples
///
/// ```
/// use ff_core::{Baseline, MachineConfig};
/// use ff_isa::{MemoryImage, ProgramBuilder};
/// use ff_isa::reg::IntReg;
///
/// let mut b = ProgramBuilder::new();
/// b.movi(IntReg::n(1), 5);
/// b.stop();
/// b.halt();
/// let program = b.build()?;
///
/// let sim = Baseline::new(&program, MemoryImage::new(), MachineConfig::paper_table1());
/// let report = sim.run(1_000);
/// assert_eq!(report.retired, 2);
/// assert!(report.cycles > 0);
/// # Ok::<(), ff_isa::BuildProgramError>(())
/// ```
#[derive(Debug)]
pub struct Baseline<'p> {
    cfg: MachineConfig,
    frontend: Frontend<'p>,
    /// Per-pc pre-decoded metadata (sources, dests, FU class, latency).
    code: DecodedProgram,
    /// Architectural register file, raw bits.
    regs: [u64; TOTAL_REGS],
    /// Cycle at which each register's latest value becomes readable.
    ready_at: [u64; TOTAL_REGS],
    /// Whether the pending producer of each register is a load.
    pending_load: [bool; TOTAL_REGS],
    /// Refined stall cause charged if a consumer blocks on the register.
    reg_cause: [StallCause; TOTAL_REGS],
    /// Static pc of the register's pending producer (stall blame).
    reg_pc: [usize; TOTAL_REGS],
    mem_img: MemoryImage,
    hier: DataHierarchy,
    mshrs: MshrFile,
    cycle: u64,
    retired: u64,
    halted: bool,
    /// Booked fills and last emitted transitions/sample, for tracing.
    trace: TraceReplay,
    breakdown: CycleBreakdown,
    breakdown2: CauseBreakdown,
    profile: StallProfile,
    mem_stats: MemAccessStats,
    branches: BranchStats,
}

impl<'p> Baseline<'p> {
    /// Creates a baseline machine over `program` with initial data
    /// memory `mem`.
    #[must_use]
    pub fn new(program: &'p Program, mem: MemoryImage, cfg: MachineConfig) -> Self {
        let fe_cfg = FrontendConfig {
            fetch_width: cfg.issue_width,
            buffer_capacity: cfg.fetch_buffer,
            icache_miss_latency: cfg.icache_miss_latency,
            icache: ff_mem::CacheGeometry::new(16 * 1024, 4, 64),
        };
        let frontend = Frontend::new(program, cfg.predictor.build(), fe_cfg);
        let code = DecodedProgram::new(program, &cfg.latencies);
        let hier = DataHierarchy::new(cfg.hierarchy).expect("valid hierarchy");
        let mshrs = MshrFile::new(cfg.max_outstanding_loads);
        Baseline {
            cfg,
            frontend,
            code,
            regs: [0; TOTAL_REGS],
            ready_at: [0; TOTAL_REGS],
            pending_load: [false; TOTAL_REGS],
            reg_cause: [StallCause::DepOther; TOTAL_REGS],
            reg_pc: [0; TOTAL_REGS],
            mem_img: mem,
            hier,
            mshrs,
            cycle: 0,
            retired: 0,
            halted: false,
            trace: TraceReplay::new(),
            breakdown: CycleBreakdown::new(),
            breakdown2: CauseBreakdown::new(),
            profile: StallProfile::new(),
            mem_stats: MemAccessStats::default(),
            branches: BranchStats::default(),
        }
    }

    /// Pre-sets an integer register (e.g. to pass kernel arguments).
    pub fn set_int(&mut self, r: ff_isa::IntReg, value: u64) {
        self.regs[RegId::Int(r).index()] = value;
    }

    /// Runs until `halt` retires or `max_instrs` instructions retire.
    #[must_use]
    pub fn run(self, max_instrs: u64) -> SimReport {
        self.run_with_state(max_instrs).0
    }

    /// Runs with every pipeline event streamed into `sink` (see
    /// [`crate::sink`] for bounded and streaming sinks).
    #[must_use]
    pub fn run_with_sink(mut self, max_instrs: u64, sink: &mut dyn TraceSink) -> SimReport {
        let mut handle = SinkHandle::on(sink);
        self.run_loop(max_instrs, &mut handle);
        handle.finish();
        self.into_report()
    }

    /// Runs with event tracing enabled, returning the report and the
    /// recorded in-memory [`Trace`].
    #[must_use]
    pub fn run_traced(mut self, max_instrs: u64) -> (SimReport, Trace) {
        let mut trace = Trace::new();
        let mut handle = SinkHandle::on(&mut trace);
        self.run_loop(max_instrs, &mut handle);
        handle.finish();
        (self.into_report(), trace)
    }

    /// Classifies a block on register index `idx`: the Figure-6 class
    /// from the pending-producer kind, plus the refined cause and the
    /// producer's pc recorded when the register was written.
    fn reg_block(&self, idx: usize) -> (CycleClass, StallAttr) {
        let class = if self.pending_load[idx] {
            CycleClass::LoadStall
        } else {
            CycleClass::NonLoadDepStall
        };
        let attr = StallAttr::at(self.reg_cause[idx], self.reg_pc[idx]);
        debug_assert_eq!(attr.cause.class(), class);
        (class, attr)
    }

    /// First blocking register of the group at cycle `now`, if any:
    /// returns the stall class implied by its pending producer, the
    /// refined attribution of the blocking producer, and the cycle the
    /// blocking register becomes readable (the fast-forward wake hint).
    fn group_block_at(&self, len: usize, now: u64) -> Option<(CycleClass, StallAttr, u64)> {
        for i in 0..len {
            let d = self.code.at(self.frontend.peek(i).pc);
            for src in d.srcs.iter() {
                if self.ready_at[src.index()] > now {
                    let (class, attr) = self.reg_block(src.index());
                    return Some((class, attr, self.ready_at[src.index()]));
                }
            }
            // EPIC WAW: a destination still being produced stalls too.
            for dst in d.dests.iter() {
                if self.ready_at[dst.index()] > now {
                    let (class, attr) = self.reg_block(dst.index());
                    return Some((class, attr, self.ready_at[dst.index()]));
                }
            }
        }
        None
    }

    /// The refined front-end attribution for a cycle with no complete
    /// issue group: refill penalty vs. fetch starvation.
    fn frontend_attr(&self) -> StallAttr {
        StallAttr::new(if self.frontend.is_refilling(self.cycle) {
            StallCause::FeRefill
        } else {
            StallCause::FeEmpty
        })
    }

    /// One issue attempt. On a stall, the third element is the
    /// fast-forward wake hint: the earliest cycle at which the blocking
    /// condition can change (`None` when no such cycle is known — e.g.
    /// fetch is still actively filling the buffer).
    fn step_issue(&mut self, sink: &mut SinkHandle) -> (CycleClass, StallAttr, Option<u64>) {
        let Some(group_len) = self.frontend.complete_group_len() else {
            // A refill penalty expires at a known cycle; a merely-empty
            // buffer can complete a group on any fetch tick.
            let wake = self.frontend.is_refilling(self.cycle).then(|| self.frontend.resume_at());
            return (CycleClass::FrontEndStall, self.frontend_attr(), wake);
        };

        // Structural: split oversubscribed groups; the prefix issues now.
        let n = fitting_prefix_classes(
            (0..group_len).map(|i| self.code.at(self.frontend.peek(i).pc).fu),
            &self.cfg.fu_slots,
            self.cfg.issue_width,
        );

        // Dependence check over the whole architectural group: EPIC
        // stalls the group if *any* member is unready, even one that
        // would issue in a later split chunk.
        if let Some((class, attr, ready)) = self.group_block_at(group_len, self.cycle) {
            return (class, attr, Some(ready));
        }

        // Conservative MSHR gate: a group containing a load needs room
        // for a possible fill.
        let first_load = (0..n).find(|&i| self.code.at(self.frontend.peek(i).pc).is_load);
        if let Some(i) = first_load {
            if !self.mshrs.has_room(self.cycle) {
                let pc = self.frontend.peek(i).pc;
                return (
                    CycleClass::ResourceStall,
                    StallAttr::at(StallCause::ResMshr, pc),
                    self.mshrs.next_wakeup(self.cycle),
                );
            }
        }

        // Issue the prefix in order.
        let head_seq = self.frontend.peek(0).seq;
        let mut issued = 0;
        let mut redirect: Option<(usize, u64)> = None;
        for i in 0..n {
            let f = *self.frontend.peek(i);
            self.retired += 1;
            issued += 1;
            // One pipe: fetch, dispatch, and retire are the same event here.
            sink.emit_with(|| TraceEvent::Fetch { cycle: self.cycle, seq: f.seq, pc: f.pc });
            sink.emit_with(|| TraceEvent::BRetire {
                cycle: self.cycle,
                seq: f.seq,
                pc: f.pc,
                was_deferred: false,
            });
            let d = self.code.at(f.pc);
            let lat = d.latency;
            let cause = d.dep_cause;
            let conditional = d.insn.qp.is_some();
            let effect = evaluate(&d.insn, &self.regs);
            match effect {
                Effect::Nullified | Effect::Nop => {}
                Effect::Write(writes) => {
                    for w in writes.iter() {
                        self.regs[w.reg.index()] = w.bits;
                        self.ready_at[w.reg.index()] = self.cycle + lat;
                        self.pending_load[w.reg.index()] = false;
                        self.reg_cause[w.reg.index()] = cause;
                        self.reg_pc[w.reg.index()] = f.pc;
                    }
                }
                Effect::Load { addr, size, signed, dest } => {
                    let raw = self.mem_img.load(addr, size);
                    let out = self.hier.load(addr);
                    let (done, eff_level) = self.finish_load(addr, out.level, out.latency, sink);
                    self.mem_stats.record_load(Pipe::B, out.level, out.latency);
                    self.regs[dest.index()] = load_write(raw, size, signed);
                    self.ready_at[dest.index()] = done;
                    self.pending_load[dest.index()] = true;
                    self.reg_cause[dest.index()] = StallCause::load(eff_level);
                    self.reg_pc[dest.index()] = f.pc;
                }
                Effect::Store { addr, size, bits } => {
                    self.mem_img.write(addr, size, bits);
                    let _ = self.hier.store(addr);
                }
                Effect::Branch { taken, target } => {
                    let mispredicted =
                        self.resolve_branch(f.pc, f.predicted_taken, conditional, taken);
                    if mispredicted {
                        let correct = if taken { target } else { f.pc + 1 };
                        redirect = Some((correct, self.cycle + self.cfg.adet_penalty()));
                        break; // younger same-group instructions squash
                    }
                    if taken {
                        break; // taken branch ends the group
                    }
                }
                Effect::Halt => {
                    self.halted = true;
                    break;
                }
            }
        }

        self.frontend.consume(issued);
        if issued > 0 {
            sink.emit_with(|| TraceEvent::GroupDispatch {
                cycle: self.cycle,
                pipe: Pipe::B,
                head_seq,
                len: issued as u32,
            });
        }
        if let Some((pc, at)) = redirect {
            sink.emit_with(|| TraceEvent::ARedirect { cycle: self.cycle, pc });
            self.frontend.redirect(pc, at);
        }
        (CycleClass::Unstalled, StallAttr::new(StallCause::Issue), None)
    }

    /// Audit probe: re-runs the (side-effect-free) stall classification
    /// of [`Baseline::step_issue`] as of cycle `at`, without issuing.
    /// Used to check that a fast-forwarded span truly had no enabled
    /// event on its final skipped cycle.
    #[cfg(feature = "audit")]
    fn probe_stall(&self, at: u64) -> Option<(CycleClass, StallAttr)> {
        let Some(group_len) = self.frontend.complete_group_len() else {
            let cause = if self.frontend.is_refilling(at) {
                StallCause::FeRefill
            } else {
                StallCause::FeEmpty
            };
            return Some((CycleClass::FrontEndStall, StallAttr::new(cause)));
        };
        if let Some((class, attr, _)) = self.group_block_at(group_len, at) {
            return Some((class, attr));
        }
        let n = fitting_prefix_classes(
            (0..group_len).map(|i| self.code.at(self.frontend.peek(i).pc).fu),
            &self.cfg.fu_slots,
            self.cfg.issue_width,
        );
        let first_load = (0..n).find(|&i| self.code.at(self.frontend.peek(i).pc).is_load);
        if let Some(i) = first_load {
            if !self.mshrs.has_room(at) {
                let pc = self.frontend.peek(i).pc;
                return Some((CycleClass::ResourceStall, StallAttr::at(StallCause::ResMshr, pc)));
            }
        }
        None
    }

    /// Books a load's fill: L1 hits bypass the MSHRs; misses allocate or
    /// merge. Returns the data-ready cycle and the hierarchy level the
    /// data is *effectively* waiting on (a fill-clamped L1 hit reports
    /// the in-flight fill's level, for stall attribution).
    fn finish_load(
        &mut self,
        addr: u64,
        level: MemLevel,
        latency: u64,
        sink: &mut SinkHandle,
    ) -> (u64, MemLevel) {
        let done = self.cycle + latency;
        let line = self.cfg.hierarchy.l2.line_of(addr);
        if level == MemLevel::L1 {
            // Tags fill at access time, so a "hit" may name a line whose
            // fill is still in flight: complete no earlier than the fill.
            return match self.mshrs.pending_fill(self.cycle, line) {
                Some((fill_done, fill_level)) if fill_done > done => (fill_done, fill_level),
                _ => (done, MemLevel::L1),
            };
        }
        let fill_at = self.mshrs.request(self.cycle, line, done, level).unwrap_or(done).max(done);
        self.trace.miss_begin(sink, self.cycle, Pipe::B, level, addr, fill_at);
        (fill_at, level)
    }

    /// Updates branch statistics and the predictor; returns whether the
    /// branch was mispredicted.
    fn resolve_branch(
        &mut self,
        pc: usize,
        predicted_taken: bool,
        conditional: bool,
        taken: bool,
    ) -> bool {
        if !conditional {
            return false; // unconditional: fetch already followed it
        }
        self.branches.retired += 1;
        self.frontend.predictor_mut().update(pc as u64, taken);
        let mispredicted = taken != predicted_taken;
        if mispredicted {
            self.branches.mispredicted += 1;
            self.branches.repaired_in_a += 1;
        }
        mispredicted
    }

    /// Final architectural register bits (for differential testing).
    #[must_use]
    pub fn reg_bits(&self) -> &[u64; TOTAL_REGS] {
        &self.regs
    }

    /// Final data memory (for differential testing).
    #[must_use]
    pub fn mem(&self) -> &MemoryImage {
        &self.mem_img
    }

    fn into_report(self) -> SimReport {
        let mut report = SimReport {
            model: ModelKind::Baseline,
            cycles: self.cycle,
            retired: self.retired,
            breakdown: self.breakdown,
            breakdown2: self.breakdown2,
            stall_profile: self.profile,
            mem: self.mem_stats,
            branches: self.branches,
            hierarchy: *self.hier.stats(),
            mshr: self.mshrs.stats(),
            two_pass: None,
            metrics: crate::metrics::MetricsSnapshot::default(),
        };
        report.collect_metrics();
        report
    }

    fn run_loop(&mut self, max_instrs: u64, sink: &mut SinkHandle) {
        let cycle_cap = max_instrs.saturating_mul(500).max(1_000_000);
        while !self.halted && self.retired < max_instrs {
            assert!(
                self.cycle < cycle_cap,
                "baseline simulation livelocked at cycle {} (retired {})",
                self.cycle,
                self.retired
            );
            self.frontend.tick(self.cycle);
            if sink.is_on() {
                self.trace.drain_misses(self.cycle, sink);
            }
            let (class, attr, wake) = self.step_issue(sink);
            self.breakdown.charge(class);
            self.breakdown2.charge(attr.cause);
            if let Some(pc) = attr.pc {
                self.profile.record(pc, attr.cause);
            }
            if sink.is_on() {
                let mshr = self.mshrs.outstanding(self.cycle) as u32;
                self.trace.end_cycle(self.cycle, class, attr, 0, mshr, sink);
            }
            self.cycle += 1;
            if self.frontend.is_drained()
                && self.frontend.complete_group_len().is_none()
                && !self.halted
            {
                break;
            }
            if self.cfg.fast_forward && class != CycleClass::Unstalled {
                self.fast_forward(class, attr, wake, sink);
            }
        }
        self.trace.close(self.cycle, sink);
    }

    /// Event-driven fast-forward: having just charged a stall cycle with
    /// wake hint `wake`, jump the clock across the provably identical
    /// stall span `[self.cycle, target)`, bulk-charging the attribution
    /// and replaying the span's trace output (see
    /// [`TraceReplay::replay_span`]) so results are byte-identical to
    /// ticking every cycle.
    fn fast_forward(
        &mut self,
        class: CycleClass,
        attr: StallAttr,
        wake: Option<u64>,
        sink: &mut SinkHandle,
    ) {
        let Some(wake) = wake else { return };
        // The front end must be inert across the span: either stopped /
        // buffer-full (inert until the engine itself makes progress) or
        // refilling, which caps the jump at the refill arrival. An
        // actively fetching front end yields `resume_at <= now`, making
        // the span empty.
        let target = if self.frontend.is_stopped_or_full() {
            wake
        } else {
            wake.min(self.frontend.resume_at())
        };
        if target <= self.cycle {
            return;
        }
        #[cfg(feature = "audit")]
        assert_eq!(
            self.probe_stall(target - 1),
            Some((class, attr)),
            "fast-forwarded span [{}, {target}) had an enabled event",
            self.cycle,
        );
        let span = target - self.cycle;
        self.breakdown.charge_n(class, span);
        self.breakdown2.charge_n(attr.cause, span);
        if let Some(pc) = attr.pc {
            self.profile.record_n(pc, attr.cause, span);
        }
        self.trace.replay_span(self.cycle, target, 0, &self.mshrs, sink);
        self.cycle = target;
    }

    /// Runs to completion and returns both the report and the final
    /// architectural state (register bits and memory) for differential
    /// testing against the golden interpreter.
    #[must_use]
    pub fn run_with_state(
        mut self,
        max_instrs: u64,
    ) -> (SimReport, [u64; TOTAL_REGS], MemoryImage) {
        self.run_loop(max_instrs, &mut SinkHandle::off());
        let regs = self.regs;
        let mem = std::mem::take(&mut self.mem_img);
        (self.into_report(), regs, mem)
    }

    /// Runs with tracing *and* returns the final architectural state —
    /// one simulation serving both the retirement-order and final-state
    /// halves of a differential check (see `ff-verify`).
    #[must_use]
    pub fn run_traced_with_state(
        mut self,
        max_instrs: u64,
    ) -> (SimReport, Trace, [u64; TOTAL_REGS], MemoryImage) {
        let mut trace = Trace::new();
        let mut handle = SinkHandle::on(&mut trace);
        self.run_loop(max_instrs, &mut handle);
        handle.finish();
        let regs = self.regs;
        let mem = std::mem::take(&mut self.mem_img);
        (self.into_report(), trace, regs, mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::reg::{IntReg, PredReg};
    use ff_isa::{ArchState, CmpKind, ProgramBuilder};

    fn r(i: u8) -> IntReg {
        IntReg::n(i)
    }

    fn p(i: u8) -> PredReg {
        PredReg::n(i)
    }

    fn cfg() -> MachineConfig {
        MachineConfig::paper_table1()
    }

    /// Pointer-chase loop: each load's address depends on the previous
    /// load's value — maximal exposure of memory latency.
    fn chase_program(len: i64) -> (Program, MemoryImage) {
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0x10000); // node pointer
        b.movi(r(2), 0);
        b.stop();
        let top = b.here();
        b.ld8(r(1), r(1), 0);
        b.stop();
        b.addi(r(2), r(2), 1);
        b.stop();
        b.cmpi(CmpKind::Lt, p(1), p(2), r(2), len);
        b.stop();
        b.br_cond(p(1), top);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let mut mem = MemoryImage::new();
        // Chain nodes 4KB apart so each hop misses L1.
        for i in 0..len as u64 {
            mem.write_u64(0x10000 + i * 4096, 0x10000 + (i + 1) * 4096);
        }
        (program, mem)
    }

    #[test]
    fn matches_interpreter_on_loop() {
        let (program, mem) = chase_program(8);
        let mut interp = ArchState::new(&program, mem.clone());
        interp.run(1_000_000);

        let sim = Baseline::new(&program, mem, cfg());
        let (report, regs, sim_mem) = sim.run_with_state(1_000_000);
        assert_eq!(report.retired, interp.instr_count());
        assert_eq!(&regs, interp.reg_bits());
        assert_eq!(&sim_mem, interp.mem());
    }

    #[test]
    fn breakdown_sums_to_total_cycles() {
        let (program, mem) = chase_program(16);
        let report = Baseline::new(&program, mem, cfg()).run(1_000_000);
        assert_eq!(report.breakdown.total(), report.cycles);
        assert!(report.cycles > 0);
    }

    #[test]
    fn pointer_chase_is_load_stall_dominated() {
        let (program, mem) = chase_program(64);
        let report = Baseline::new(&program, mem, cfg()).run(1_000_000);
        assert!(
            report.breakdown.load_stalls() > report.cycles / 3,
            "dependent misses should dominate: {}",
            report.breakdown
        );
    }

    #[test]
    fn ipc_reasonable_on_independent_alu_loop() {
        // A loop so the I-cache warms up; body is 8 groups of 4
        // independent ALU ops plus the loop-control chain.
        let mut b = ProgramBuilder::new();
        b.movi(r(9), 0);
        b.stop();
        let top = b.here();
        for _ in 0..8 {
            b.addi(r(1), r(1), 1);
            b.addi(r(2), r(2), 1);
            b.addi(r(3), r(3), 1);
            b.addi(r(4), r(4), 1);
            b.stop();
        }
        b.addi(r(9), r(9), 1);
        b.stop();
        b.cmpi(CmpKind::Lt, p(1), p(2), r(9), 64);
        b.stop();
        b.br_cond(p(1), top);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let report = Baseline::new(&program, MemoryImage::new(), cfg()).run(100_000);
        assert!(report.ipc() > 2.0, "got ipc {}", report.ipc());
    }

    #[test]
    fn mispredicted_branches_charge_front_end_stalls() {
        // Data-dependent unpredictable branch pattern via xorshift bits.
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0x9E3779B97F4A7C15u64 as i64);
        b.movi(r(2), 0);
        b.stop();
        let top = b.here();
        // advance PRNG
        b.shli(r(3), r(1), 13);
        b.stop();
        b.xor(r(1), r(1), r(3));
        b.stop();
        b.shri(r(3), r(1), 7);
        b.stop();
        b.xor(r(1), r(1), r(3));
        b.stop();
        b.andi(r(4), r(1), 1);
        b.stop();
        b.cmpi(CmpKind::Eq, p(1), p(2), r(4), 1);
        b.stop();
        let skip = b.new_label();
        b.br_cond(p(1), skip);
        b.stop();
        b.addi(r(5), r(5), 1);
        b.stop();
        b.bind(skip);
        b.addi(r(2), r(2), 1);
        b.stop();
        b.cmpi(CmpKind::Lt, p(3), p(4), r(2), 200);
        b.stop();
        b.br_cond(p(3), top);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let report = Baseline::new(&program, MemoryImage::new(), cfg()).run(1_000_000);
        assert!(report.branches.mispredicted > 20, "{:?}", report.branches);
        assert!(report.breakdown[CycleClass::FrontEndStall] > 0);
        // All baseline repairs happen at the (single) DET stage.
        assert_eq!(report.branches.repaired_in_a, report.branches.mispredicted);
    }

    #[test]
    fn run_traced_smoke() {
        let (program, mem) = chase_program(8);
        let plain = Baseline::new(&program, mem.clone(), cfg()).run(1_000_000);
        let (report, trace) = Baseline::new(&program, mem, cfg()).run_traced(1_000_000);
        assert_eq!(report.cycles, plain.cycles, "tracing must not perturb timing");
        let retires =
            trace.events().iter().filter(|e| matches!(e, TraceEvent::BRetire { .. })).count()
                as u64;
        assert_eq!(retires, report.retired);
        assert!(trace.events().iter().any(|e| matches!(e, TraceEvent::GroupDispatch { .. })));
        assert!(trace.events().iter().any(|e| matches!(e, TraceEvent::ClassTransition { .. })));
        assert!(
            trace.events().iter().any(|e| matches!(e, TraceEvent::MissBegin { .. }))
                && trace.events().iter().any(|e| matches!(e, TraceEvent::MissEnd { .. })),
            "a pointer chase must record cache misses"
        );
        // The baseline has no coupling queue: every sample reports depth 0.
        assert!(trace
            .events()
            .iter()
            .all(|e| !matches!(e, TraceEvent::QueueSample { depth, .. } if *depth != 0)));
    }

    #[test]
    fn halting_immediately_is_fine() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let program = b.build().unwrap();
        let report = Baseline::new(&program, MemoryImage::new(), cfg()).run(10);
        assert_eq!(report.retired, 1);
    }

    #[test]
    fn instruction_budget_stops_run() {
        let mut b = ProgramBuilder::new();
        let top = b.here();
        b.addi(r(1), r(1), 1);
        b.stop();
        b.br(top);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let report = Baseline::new(&program, MemoryImage::new(), cfg()).run(1000);
        assert!(report.retired >= 1000);
        assert!(report.retired < 1100);
    }
}
