//! Checkpoint-based runahead execution (the paper's §2 comparison).
//!
//! Synthesizes the Dundas and Mutlu schemes the paper cites: when the
//! in-order pipeline stalls on the *use* of a pending load, the machine
//! checkpoints architectural state and keeps executing speculatively —
//! propagating INV ("invalid") marks instead of stalling — purely to
//! warm the memory hierarchy. When the blocking load returns, the
//! checkpoint is restored and execution resumes at the stalled group;
//! **all runahead results are discarded** (the contrast the paper draws:
//! two-pass pipelining *keeps* its pre-executed work).
//!
//! Modeling choices (documented in DESIGN.md): runahead stores write a
//! private overlay (forwarded to runahead loads, discarded at exit);
//! branches with INV conditions follow the predictor; the predictor is
//! trained only by architectural execution; exit charges a small
//! restart penalty plus a front-end refill.

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
use ff_isa::{evaluate, load_write, Effect, MemoryImage, Program};
use ff_mem::{DataHierarchy, MemLevel, MshrFile};
use overlay::StoreOverlay;
use serde::{Deserialize, Serialize};

mod overlay;

/// Extra counters for the runahead machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunaheadStats {
    /// Times runahead mode was entered.
    pub episodes: u64,
    /// Cycles spent in runahead mode.
    pub runahead_cycles: u64,
    /// Loads initiated during runahead (the prefetch benefit).
    pub runahead_loads: u64,
    /// Runahead instructions whose results were discarded.
    pub discarded_instrs: u64,
}

/// Cycles charged when leaving runahead mode (checkpoint restore).
const EXIT_PENALTY: u64 = 2;

/// The baseline in-order pipeline extended with runahead pre-execution.
///
/// # Examples
///
/// ```
/// use ff_core::{MachineConfig, Runahead};
/// use ff_isa::{MemoryImage, ProgramBuilder};
/// use ff_isa::reg::IntReg;
///
/// let mut b = ProgramBuilder::new();
/// b.movi(IntReg::n(1), 5);
/// b.stop();
/// b.halt();
/// let program = b.build()?;
/// let report = Runahead::new(&program, MemoryImage::new(), MachineConfig::paper_table1())
///     .run(1_000);
/// assert_eq!(report.retired, 2);
/// # Ok::<(), ff_isa::BuildProgramError>(())
/// ```
#[derive(Debug)]
pub struct Runahead<'p> {
    cfg: MachineConfig,
    frontend: Frontend<'p>,
    /// Per-pc pre-decoded metadata (sources, dests, FU class, latency).
    code: DecodedProgram,
    regs: [u64; TOTAL_REGS],
    ready_at: [u64; TOTAL_REGS],
    pending_load: [bool; TOTAL_REGS],
    mem_img: MemoryImage,
    hier: DataHierarchy,
    mshrs: MshrFile,
    cycle: u64,
    retired: u64,
    halted: bool,
    /// Booked fills and last emitted transitions/sample, for tracing.
    trace: TraceReplay,
    breakdown: CycleBreakdown,
    /// Refined per-cause accounting (collapses onto `breakdown`).
    breakdown2: CauseBreakdown,
    /// Per-PC stall attribution for the profile table.
    profile: StallProfile,
    /// Refined stall cause most recently charged to each register.
    reg_cause: [StallCause; TOTAL_REGS],
    /// PC of the instruction that last wrote each register.
    reg_pc: [usize; TOTAL_REGS],
    mem_stats: MemAccessStats,
    branches: BranchStats,
    /// Control of the open runahead episode; `None` in normal mode.
    ra: Option<Episode>,
    /// Speculative state, meaningful only while `ra` is `Some`.
    spec: SpecState,
    ra_stats: RunaheadStats,
}

/// Control of one runahead episode.
#[derive(Debug, Clone, Copy)]
struct Episode {
    /// Cycle the blocking load completes (episode end).
    until: u64,
    /// PC of the stalled group, to refetch at exit.
    resume_pc: usize,
    /// Set when runahead ran off a halt or drained: idle until `until`.
    done: bool,
    /// `discarded_instrs` at episode entry, so the exit event can report
    /// how many speculative instructions this episode threw away.
    discarded_at_entry: u64,
    /// Attribution of the blocking load captured at entry: every cycle of
    /// the episode is charged to the load the machine is stalled on.
    attr: StallAttr,
}

/// Speculative state of runahead execution. The machine owns one for
/// its whole lifetime and resets it at each episode entry, so the cycle
/// loop neither moves nor reallocates it; whatever an episode leaves
/// behind is discarded by the next entry's reset.
#[derive(Debug)]
struct SpecState {
    /// Speculative register bits.
    regs: [u64; TOTAL_REGS],
    /// INV marks.
    inv: [bool; TOTAL_REGS],
    /// Per-register availability within runahead.
    ready_at: [u64; TOTAL_REGS],
    /// Runahead store overlay.
    stores: StoreOverlay,
}

impl<'p> Runahead<'p> {
    /// Creates a runahead machine over `program` with initial memory.
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
        Runahead {
            cfg,
            frontend,
            code,
            regs: [0; TOTAL_REGS],
            ready_at: [0; TOTAL_REGS],
            pending_load: [false; TOTAL_REGS],
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
            reg_cause: [StallCause::DepOther; TOTAL_REGS],
            reg_pc: [0; TOTAL_REGS],
            mem_stats: MemAccessStats::default(),
            branches: BranchStats::default(),
            ra: None,
            spec: SpecState {
                regs: [0; TOTAL_REGS],
                inv: [false; TOTAL_REGS],
                ready_at: [0; TOTAL_REGS],
                stores: StoreOverlay::default(),
            },
            ra_stats: RunaheadStats::default(),
        }
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

    /// Runs to completion, returning final architectural state as well.
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

    fn run_loop(&mut self, max_instrs: u64, sink: &mut SinkHandle) {
        let cycle_cap = max_instrs.saturating_mul(500).max(1_000_000);
        while !self.halted && self.retired < max_instrs {
            assert!(
                self.cycle < cycle_cap,
                "runahead simulation livelocked at cycle {} (retired {})",
                self.cycle,
                self.retired
            );
            self.frontend.tick(self.cycle);
            if sink.is_on() {
                self.trace.drain_misses(self.cycle, sink);
            }
            let (class, attr, wake) =
                if self.ra.is_some() { self.ra_step(sink) } else { self.normal_step(sink) };
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
            if self.ra.is_none()
                && self.frontend.is_drained()
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

    /// Event-driven fast-forward across a provably identical idle span
    /// (see [`crate::Baseline`] for the scheme). Skipped runahead-mode
    /// cycles also bulk-charge `runahead_cycles`, exactly as ticking
    /// each idle episode cycle would.
    fn fast_forward(
        &mut self,
        class: CycleClass,
        attr: StallAttr,
        wake: Option<u64>,
        sink: &mut SinkHandle,
    ) {
        let Some(wake) = wake else { return };
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
        if self.ra.is_some() {
            self.ra_stats.runahead_cycles += span;
        }
        self.trace.replay_span(self.cycle, target, 0, &self.mshrs, sink);
        self.cycle = target;
    }

    /// Refined attribution for a front-end stall cycle: an in-progress
    /// refill (redirect / icache miss) versus a simply empty buffer.
    fn frontend_attr(&self) -> StallAttr {
        if self.frontend.is_refilling(self.cycle) {
            StallAttr::new(StallCause::FeRefill)
        } else {
            StallAttr::new(StallCause::FeEmpty)
        }
    }

    /// Normal-mode issue: identical to the baseline, except a load-use
    /// stall flips the machine into runahead instead of idling. On a
    /// stall, the third element is the fast-forward wake hint (`None`
    /// when the next cycle may differ — e.g. a runahead episode just
    /// opened, or fetch is actively filling the buffer).
    fn normal_step(&mut self, sink: &mut SinkHandle) -> (CycleClass, StallAttr, Option<u64>) {
        let Some(group_len) = self.frontend.complete_group_len() else {
            let wake = self.frontend.is_refilling(self.cycle).then(|| self.frontend.resume_at());
            return (CycleClass::FrontEndStall, self.frontend_attr(), wake);
        };

        // Dependence check at issue-group granularity.
        let mut block: Option<(CycleClass, usize, u64, StallAttr)> = None;
        'outer: for i in 0..group_len {
            let pc = self.frontend.peek(i).pc;
            let d = self.code.at(pc);
            for reg in d.srcs.iter().chain(d.dests.iter()) {
                let idx = reg.index();
                if self.ready_at[idx] > self.cycle {
                    let class = if self.pending_load[idx] {
                        CycleClass::LoadStall
                    } else {
                        CycleClass::NonLoadDepStall
                    };
                    let attr = StallAttr::at(self.reg_cause[idx], self.reg_pc[idx]);
                    debug_assert_eq!(attr.cause.class(), class);
                    block = Some((class, pc, self.ready_at[idx], attr));
                    break 'outer;
                }
            }
        }
        if let Some((class, _stall_pc, until, attr)) = block {
            if class == CycleClass::LoadStall {
                // The whole group stalls (EPIC group-at-once issue), so
                // the episode must refetch from the group *head*: the
                // blocked instruction may be a later member, and any
                // members before it have not executed architecturally.
                let head_pc = self.frontend.peek(0).pc;
                self.enter_runahead(head_pc, until, attr, sink);
                // The next cycle runs in runahead mode — never skip it.
                return (class, attr, None);
            }
            return (class, attr, Some(until));
        }

        let n = fitting_prefix_classes(
            (0..group_len).map(|i| self.code.at(self.frontend.peek(i).pc).fu),
            &self.cfg.fu_slots,
            self.cfg.issue_width,
        );
        if let Some(i) = (0..n).find(|&i| self.code.at(self.frontend.peek(i).pc).is_load) {
            if !self.mshrs.has_room(self.cycle) {
                let pc = self.frontend.peek(i).pc;
                return (
                    CycleClass::ResourceStall,
                    StallAttr::at(StallCause::ResMshr, pc),
                    self.mshrs.next_wakeup(self.cycle),
                );
            }
        }

        let head_seq = self.frontend.peek(0).seq;
        let mut issued = 0;
        let mut redirect: Option<(usize, u64)> = None;
        for i in 0..n {
            let f = *self.frontend.peek(i);
            self.retired += 1;
            issued += 1;
            // Single-pipe normal mode: fetch and retire share the cycle.
            // Speculative runahead-episode instructions get no lifecycle
            // events (their seqs are reused after the checkpoint restore);
            // `RunaheadEnter`/`RunaheadExit` bound those spans instead.
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
                    let (done, eff_level) =
                        self.book_load(addr, out.level, out.latency, Pipe::B, sink);
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
                    if conditional {
                        self.branches.retired += 1;
                        self.frontend.predictor_mut().update(f.pc as u64, taken);
                        if taken != f.predicted_taken {
                            self.branches.mispredicted += 1;
                            self.branches.repaired_in_a += 1;
                            let correct = if taken { target } else { f.pc + 1 };
                            redirect = Some((correct, self.cycle + self.cfg.adet_penalty()));
                            break;
                        }
                    }
                    if taken {
                        break;
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

    /// Audit probe: re-derives the idle classification as of cycle `at`
    /// without side effects, to check that a fast-forwarded span truly
    /// had no enabled event on its final skipped cycle.
    #[cfg(feature = "audit")]
    fn probe_stall(&self, at: u64) -> Option<(CycleClass, StallAttr)> {
        if let Some(ra) = &self.ra {
            // A skipped runahead cycle must be idle: episode still open
            // and nothing issuable.
            assert!(at < ra.until, "fast-forward overran the episode end");
            assert!(
                ra.done || self.frontend.complete_group_len().is_none(),
                "fast-forwarded runahead span had an issuable group"
            );
            return Some((CycleClass::LoadStall, ra.attr));
        }
        let Some(group_len) = self.frontend.complete_group_len() else {
            let cause = if self.frontend.is_refilling(at) {
                StallCause::FeRefill
            } else {
                StallCause::FeEmpty
            };
            return Some((CycleClass::FrontEndStall, StallAttr::new(cause)));
        };
        for i in 0..group_len {
            let pc = self.frontend.peek(i).pc;
            let d = self.code.at(pc);
            for reg in d.srcs.iter().chain(d.dests.iter()) {
                let idx = reg.index();
                if self.ready_at[idx] > at {
                    let class = if self.pending_load[idx] {
                        CycleClass::LoadStall
                    } else {
                        CycleClass::NonLoadDepStall
                    };
                    return Some((class, StallAttr::at(self.reg_cause[idx], self.reg_pc[idx])));
                }
            }
        }
        let n = fitting_prefix_classes(
            (0..group_len).map(|i| self.code.at(self.frontend.peek(i).pc).fu),
            &self.cfg.fu_slots,
            self.cfg.issue_width,
        );
        if let Some(i) = (0..n).find(|&i| self.code.at(self.frontend.peek(i).pc).is_load) {
            if !self.mshrs.has_room(at) {
                let pc = self.frontend.peek(i).pc;
                return Some((CycleClass::ResourceStall, StallAttr::at(StallCause::ResMshr, pc)));
            }
        }
        None
    }

    fn enter_runahead(
        &mut self,
        stall_pc: usize,
        until: u64,
        attr: StallAttr,
        sink: &mut SinkHandle,
    ) {
        self.ra_stats.episodes += 1;
        sink.emit_with(|| TraceEvent::RunaheadEnter { cycle: self.cycle, pc: stall_pc });
        self.ra = Some(Episode {
            until,
            resume_pc: stall_pc,
            done: false,
            discarded_at_entry: self.ra_stats.discarded_instrs,
            attr,
        });
        // Checkpoint: runahead starts from the architectural state.
        self.spec.regs = self.regs;
        self.spec.inv = [false; TOTAL_REGS];
        self.spec.ready_at = self.ready_at;
        self.spec.stores.clear();
    }

    /// One cycle of runahead pre-execution. Architecturally the machine
    /// is still stalled on the blocking load, so the cycle is charged as
    /// a load stall. On an idle runahead cycle (episode done, or fetch
    /// starved), the third element is the fast-forward wake hint.
    fn ra_step(&mut self, sink: &mut SinkHandle) -> (CycleClass, StallAttr, Option<u64>) {
        let ra = self.ra.expect("in runahead mode");
        self.ra_stats.runahead_cycles += 1;
        let attr = ra.attr;

        if self.cycle >= ra.until {
            // Blocking load returned: restore the checkpoint and refetch
            // from the stalled group.
            sink.emit_with(|| TraceEvent::RunaheadExit {
                cycle: self.cycle,
                pc: ra.resume_pc,
                discarded: self.ra_stats.discarded_instrs - ra.discarded_at_entry,
            });
            self.frontend.redirect(ra.resume_pc, self.cycle + EXIT_PENALTY);
            self.ra = None;
            return (CycleClass::LoadStall, attr, None);
        }

        let mut wake = None;
        if ra.done {
            // Ran off a halt: nothing left to pre-execute, idle until the
            // blocking load returns.
            wake = Some(ra.until);
        } else if self.frontend.complete_group_len().is_some() {
            self.ra_issue(sink);
        } else {
            // Fetch-starved runahead cycle: idle until the front end
            // refills (the run loop caps the jump) or the episode ends.
            wake = Some(ra.until);
        }
        (CycleClass::LoadStall, attr, wake)
    }

    /// Issues one group speculatively under INV semantics.
    fn ra_issue(&mut self, sink: &mut SinkHandle) {
        let Some(group_len) = self.frontend.complete_group_len() else {
            return;
        };
        let n = fitting_prefix_classes(
            (0..group_len).map(|i| self.code.at(self.frontend.peek(i).pc).fu),
            &self.cfg.fu_slots,
            self.cfg.issue_width,
        );

        let mut issued = 0;
        let mut redirect: Option<usize> = None;
        for i in 0..n {
            let f = *self.frontend.peek(i);
            issued += 1;
            self.ra_stats.discarded_instrs += 1;

            let d = self.code.at(f.pc);
            let lat = d.latency;
            let conditional = d.insn.qp.is_some();

            // INV / not-yet-ready sources poison the result instead of
            // stalling.
            let mut poisoned = false;
            for src in d.srcs.iter() {
                let idx = src.index();
                if self.spec.inv[idx] || self.spec.ready_at[idx] > self.cycle {
                    poisoned = true;
                }
            }

            let effect = evaluate(&d.insn, &self.spec.regs);
            match effect {
                Effect::Nullified | Effect::Nop => {}
                Effect::Write(writes) => {
                    for w in writes.iter() {
                        self.spec.regs[w.reg.index()] = w.bits;
                        self.spec.inv[w.reg.index()] = poisoned;
                        self.spec.ready_at[w.reg.index()] = self.cycle + lat;
                    }
                }
                Effect::Load { addr, size, signed, dest } => {
                    if poisoned {
                        self.spec.inv[dest.index()] = true;
                    } else {
                        // The whole point: initiate the miss early.
                        let raw = self.spec.stores.read(&self.mem_img, addr, size);
                        let out = self.hier.load(addr);
                        let (done, _) = self.book_load(addr, out.level, out.latency, Pipe::A, sink);
                        self.mem_stats.record_load(Pipe::A, out.level, out.latency);
                        self.ra_stats.runahead_loads += 1;
                        self.spec.regs[dest.index()] = load_write(raw, size, signed);
                        self.spec.inv[dest.index()] = false;
                        self.spec.ready_at[dest.index()] = done;
                    }
                }
                Effect::Store { addr, size, bits } => {
                    if !poisoned {
                        self.spec.stores.write(addr, size, bits);
                    }
                }
                Effect::Branch { taken, target } => {
                    if poisoned {
                        // Condition unknown: trust the prediction and keep
                        // fetching down the predicted path.
                        if f.predicted_taken {
                            break;
                        }
                    } else {
                        if conditional && taken != f.predicted_taken {
                            redirect = Some(if taken { target } else { f.pc + 1 });
                            break;
                        }
                        if taken {
                            break;
                        }
                    }
                }
                Effect::Halt => {
                    if let Some(ra) = &mut self.ra {
                        ra.done = true;
                    }
                    break;
                }
            }
        }
        self.frontend.consume(issued);
        if let Some(pc) = redirect {
            // In-runahead branch repair: cheap redirect, no episode end.
            self.frontend.redirect(pc, self.cycle + self.cfg.adet_penalty());
        }
    }

    /// Books a load against the MSHRs, returning its completion cycle and
    /// the *effective* level the consumer would wait on (a fill-clamped L1
    /// hit is really waiting on the in-flight fill's level).
    fn book_load(
        &mut self,
        addr: u64,
        level: MemLevel,
        latency: u64,
        pipe: Pipe,
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
        self.trace.miss_begin(sink, self.cycle, pipe, level, addr, fill_at);
        (fill_at, level)
    }

    /// Runahead-specific statistics.
    #[must_use]
    pub fn runahead_stats(&self) -> RunaheadStats {
        self.ra_stats
    }

    fn into_report(self) -> SimReport {
        let mut report = SimReport {
            model: ModelKind::Runahead,
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
        // The runahead counters are model-specific; splice them into the
        // uniform namespace by hand.
        let mut b = crate::metrics::MetricsBuilder::new();
        b.counter("runahead.episodes", self.ra_stats.episodes)
            .counter("runahead.cycles", self.ra_stats.runahead_cycles)
            .counter("runahead.loads", self.ra_stats.runahead_loads)
            .counter("runahead.discarded_instrs", self.ra_stats.discarded_instrs);
        report.metrics.counters.extend(b.build().counters);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Baseline;
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

    /// Streaming loads where each iteration's miss can be prefetched by
    /// runahead during the previous stall.
    fn stream_program(len: i64) -> (ff_isa::Program, MemoryImage) {
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0x10_0000);
        b.movi(r(2), 0);
        b.movi(r(3), 0);
        b.stop();
        let top = b.here();
        b.ld8(r(4), r(1), 0);
        b.stop();
        b.addi(r(1), r(1), 4096);
        b.stop();
        b.add(r(3), r(3), r(4)); // stall-on-use point
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
        for i in 0..len as u64 {
            mem.write_u64(0x10_0000 + i * 4096, i * 3);
        }
        (program, mem)
    }

    #[test]
    fn matches_interpreter_after_runahead_episodes() {
        let (program, mem) = stream_program(64);
        let mut interp = ArchState::new(&program, mem.clone());
        interp.run(1_000_000);

        let (report, regs, sim_mem) = Runahead::new(&program, mem, cfg()).run_with_state(1_000_000);
        assert_eq!(report.retired, interp.instr_count());
        assert_eq!(&regs, interp.reg_bits());
        assert_eq!(&sim_mem, interp.mem());
        assert_eq!(report.breakdown.total(), report.cycles);
    }

    #[test]
    fn stall_mid_group_resumes_at_group_head() {
        // The stalled use sits *behind* an independent instruction in its
        // issue group. The episode must refetch from the group head, or
        // the independent instruction is skipped forever (regression:
        // resume_pc used to be the blocked member's pc).
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0x10_0000);
        b.movi(r(6), 7);
        b.stop();
        b.ld8(r(4), r(1), 0); // cold miss
        b.stop();
        b.movi(r(5), 1); // independent group head
        b.add(r(7), r(4), r(6)); // stall-on-use, second group member
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let mut mem = MemoryImage::new();
        mem.write_u64(0x10_0000, 35);

        let mut interp = ArchState::new(&program, mem.clone());
        interp.run(1_000);
        let (report, regs, _) = Runahead::new(&program, mem, cfg()).run_with_state(1_000);
        assert_eq!(report.retired, interp.instr_count());
        assert_eq!(&regs, interp.reg_bits());
        let r5 = ff_isa::RegId::Int(r(5)).index();
        assert_eq!(regs[r5], 1, "group head must retire after the episode");
    }

    #[test]
    fn runahead_beats_plain_baseline_on_streams() {
        let (program, mem) = stream_program(256);
        let base = Baseline::new(&program, mem.clone(), cfg()).run(10_000_000);
        let sim = Runahead::new(&program, mem, cfg());
        let report = sim.run(10_000_000);
        assert!(
            report.cycles < base.cycles,
            "runahead should prefetch: base={} ra={}",
            base.cycles,
            report.cycles
        );
    }

    #[test]
    fn runahead_stats_populated() {
        let (program, mem) = stream_program(64);
        let mut sim = Runahead::new(&program, mem, cfg());
        // Drive manually so stats remain accessible.
        let mut guard = 0;
        let mut off = SinkHandle::off();
        while !sim.halted && guard < 1_000_000 {
            sim.frontend.tick(sim.cycle);
            let (class, attr, _wake) =
                if sim.ra.is_some() { sim.ra_step(&mut off) } else { sim.normal_step(&mut off) };
            sim.breakdown.charge(class);
            sim.breakdown2.charge(attr.cause);
            sim.cycle += 1;
            guard += 1;
        }
        let stats = sim.runahead_stats();
        assert!(stats.episodes > 0);
        assert!(stats.runahead_loads > 0, "{stats:?}");
        assert!(stats.runahead_cycles >= stats.episodes);
    }

    #[test]
    fn run_traced_records_episodes_and_matches_untraced_timing() {
        let (program, mem) = stream_program(64);
        let plain = Runahead::new(&program, mem.clone(), cfg()).run(1_000_000);
        let (report, trace) = Runahead::new(&program, mem, cfg()).run_traced(1_000_000);
        assert_eq!(report.cycles, plain.cycles, "tracing must not perturb timing");
        assert_eq!(report.retired, plain.retired);
        let enters =
            trace.events().iter().filter(|e| matches!(e, TraceEvent::RunaheadEnter { .. })).count()
                as u64;
        let exits: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RunaheadExit { discarded, .. } => Some(*discarded),
                _ => None,
            })
            .collect();
        assert_eq!(enters, report.metrics.counter("runahead.episodes").unwrap());
        assert!(!exits.is_empty());
        assert_eq!(
            exits.iter().sum::<u64>(),
            report.metrics.counter("runahead.discarded_instrs").unwrap(),
            "per-episode discard counts must sum to the total"
        );
        let retires =
            trace.events().iter().filter(|e| matches!(e, TraceEvent::BRetire { .. })).count()
                as u64;
        assert_eq!(retires, report.retired);
    }

    #[test]
    fn runahead_store_overlay_is_discarded() {
        // A runahead-executed store must never reach architectural
        // memory: the stalled-on load gates a store that runahead passes.
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0x10_0000);
        b.movi(r(5), 0x20_0000);
        b.movi(r(6), 42);
        b.stop();
        b.ld8(r(4), r(1), 0); // cold miss
        b.stop();
        b.add(r(7), r(4), r(6)); // stall-on-use -> runahead entered
        b.stop();
        b.st8(r(6), r(5), 0); // pre-executed by runahead, then replayed
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let mem = MemoryImage::new();

        let mut interp = ArchState::new(&program, mem.clone());
        interp.run(1_000);
        let (_, _, sim_mem) = Runahead::new(&program, mem, cfg()).run_with_state(1_000);
        assert_eq!(&sim_mem, interp.mem());
        assert_eq!(sim_mem.read_u64(0x20_0000), 42, "architectural store must land once");
    }
}
