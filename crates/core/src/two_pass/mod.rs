//! The flea-flicker two-pass pipeline (the paper's contribution).
//!
//! Two in-order back ends coupled by a FIFO queue:
//!
//! * the **A-pipe** dispatches one issue group per cycle and *never
//!   stalls on unanticipated latency*: instructions whose operands are
//!   unavailable are suppressed (deferred), their destinations marked
//!   invalid in the [`afile::AFile`], and independent instructions keep
//!   executing — including down mispredicted paths of branches whose
//!   resolution was deferred;
//! * the **coupling queue** ([`queue::CouplingQueue`]) carries every
//!   instruction, in order, with either its pre-computed results (the
//!   coupling result store) or a deferred marker;
//! * the **B-pipe** merges pre-computed results into the architectural
//!   B-file (waiting out "dangling dependences" on still-in-flight A-pipe
//!   loads), executes deferred instructions, commits stores in order,
//!   checks pre-executed loads against the ALAT, resolves deferred
//!   branches (B-DET), and feeds committed values back to the A-file.
//!
//! Memory correctness follows the paper's §3.4: A-pipe stores go to a
//! speculative store buffer (forwarded to younger A-pipe loads); loads
//! pre-executed past *deferred* stores allocate ALAT entries that
//! B-executed stores invalidate; a missing entry at merge triggers a
//! store-conflict flush.

pub mod afile;
pub mod queue;

use crate::accounting::{
    CauseBreakdown, CycleBreakdown, CycleClass, StallAttr, StallCause, StallProfile,
};
use crate::config::{FeedbackLatency, MachineConfig};
use crate::decoded::DecodedProgram;
use crate::exec_common::fitting_prefix_classes;
use crate::frontend::{FetchedInsn, Frontend, FrontendConfig};
use crate::replay::TraceReplay;
use crate::report::{BranchStats, MemAccessStats, ModelKind, Pipe, SimReport, TwoPassStats};
use crate::sink::{SinkHandle, TraceSink};
use crate::trace::{FlushKind, Trace, TraceEvent};
use afile::{AFile, ProducerKind, SourceState};
use ff_isa::reg::TOTAL_REGS;
use ff_isa::{evaluate, load_write, Effect, MemoryImage, Program, RegId, Writes};
use ff_mem::{Alat, AlatCheck, DataHierarchy, ForwardResult, MemLevel, MshrFile, StoreBuffer};
use queue::{BranchInfo, CouplingQueue, CqEntry, CqState, LoadInfo, StoreInfo};

/// A pending B→A committed-result update.
#[derive(Debug, Clone, Copy)]
struct FeedbackMsg {
    apply_at: u64,
    reg: RegId,
    seq: u64,
    bits: u64,
}

/// A flush decision made while merging a bundle.
#[derive(Debug, Clone, Copy)]
struct FlushPlan {
    boundary_seq: u64,
    redirect_pc: usize,
    penalty: u64,
    kind: FlushKind,
}

/// Why the A-pipe dispatched nothing this cycle (`None` from
/// [`TwoPass::a_step`] means it made progress). Fast-forward may skip a
/// span only for reasons that are provably stable while both pipes are
/// inert: `FpBlock` depends on A-file producer timers that advance with
/// the clock, so it never skips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AIdle {
    /// The A-pipe already dispatched `halt`.
    Halted,
    /// The §3.5 deferral throttle holds dispatch.
    Throttled,
    /// The fetch buffer holds no complete issue group.
    NoGroup,
    /// The coupling queue has no free slot.
    QueueFull,
    /// `stall_on_anticipable_fp` blocks on an in-flight FP producer.
    FpBlock,
}

/// A register written by an earlier entry of the bundle under check:
/// `avail = true` means available at merge time (pre-executed), `false`
/// means produced later this cycle (deferred) and unusable by bundle
/// peers. The writer's pc and refined cause ride along for attribution.
#[derive(Debug, Clone, Copy)]
struct BundleWrite {
    reg: usize,
    avail: bool,
    pc: usize,
    cause: StallCause,
}

/// The two-pass pipeline simulator.
///
/// # Examples
///
/// ```
/// use ff_core::{MachineConfig, TwoPass};
/// use ff_isa::{MemoryImage, ProgramBuilder};
/// use ff_isa::reg::IntReg;
///
/// let mut b = ProgramBuilder::new();
/// b.movi(IntReg::n(1), 5);
/// b.stop();
/// b.halt();
/// let program = b.build()?;
///
/// let sim = TwoPass::new(&program, MemoryImage::new(), MachineConfig::paper_table1());
/// let report = sim.run(1_000);
/// assert_eq!(report.retired, 2);
/// assert!(report.two_pass.is_some());
/// # Ok::<(), ff_isa::BuildProgramError>(())
/// ```
#[derive(Debug)]
pub struct TwoPass<'p> {
    cfg: MachineConfig,
    frontend: Frontend<'p>,
    /// Per-pc pre-decoded metadata (sources, dests, FU class, latency).
    code: DecodedProgram,
    /// Reusable scratch for the bundle dependence check (allocation-free
    /// steady state).
    bundle_scratch: Vec<BundleWrite>,
    afile: AFile,
    /// Architectural (B-file) register bits.
    b_regs: [u64; TOTAL_REGS],
    /// Cycle each B-file register's latest value becomes readable.
    b_ready: [u64; TOTAL_REGS],
    /// Whether the pending B-side producer is a load.
    b_pending_load: [bool; TOTAL_REGS],
    /// Refined stall cause most recently charged to each B-file register.
    b_cause: [StallCause; TOTAL_REGS],
    /// PC of the instruction that last wrote each B-file register.
    b_pc: [usize; TOTAL_REGS],
    mem_img: MemoryImage,
    hier: DataHierarchy,
    mshrs: MshrFile,
    store_buffer: StoreBuffer,
    alat: Alat,
    cq: CouplingQueue,
    feedback: Vec<FeedbackMsg>,
    cycle: u64,
    retired: u64,
    halted: bool,
    a_halted: bool,
    deferred_stores_in_cq: usize,
    /// Sliding-window deferral history for the §3.5 throttle: one bit
    /// per recent dispatch, true = deferred.
    defer_window: std::collections::VecDeque<bool>,
    /// Whether the throttle currently holds the A-pipe.
    throttled: bool,
    /// Booked fills and last emitted transitions/sample, for tracing.
    trace: TraceReplay,
    breakdown: CycleBreakdown,
    /// Refined per-cause accounting (collapses onto `breakdown`).
    breakdown2: CauseBreakdown,
    /// Per-PC stall attribution for the profile table.
    profile: StallProfile,
    mem_stats: MemAccessStats,
    branches: BranchStats,
    stats: TwoPassStats,
}

impl<'p> TwoPass<'p> {
    /// Creates a two-pass machine over `program` with initial data
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
        let hier = DataHierarchy::new(cfg.hierarchy).expect("valid hierarchy");
        let mshrs = MshrFile::new(cfg.max_outstanding_loads);
        let store_buffer = StoreBuffer::new(cfg.two_pass.store_buffer_size);
        let alat = Alat::new(cfg.two_pass.alat);
        let cq = CouplingQueue::new(cfg.two_pass.queue_size);
        let code = DecodedProgram::new(program, &cfg.latencies);
        TwoPass {
            cfg,
            frontend,
            code,
            bundle_scratch: Vec::new(),
            afile: AFile::new(),
            b_regs: [0; TOTAL_REGS],
            b_ready: [0; TOTAL_REGS],
            b_pending_load: [false; TOTAL_REGS],
            b_cause: [StallCause::DepOther; TOTAL_REGS],
            b_pc: [0; TOTAL_REGS],
            mem_img: mem,
            hier,
            mshrs,
            store_buffer,
            alat,
            cq,
            feedback: Vec::new(),
            cycle: 0,
            retired: 0,
            halted: false,
            a_halted: false,
            deferred_stores_in_cq: 0,
            defer_window: std::collections::VecDeque::new(),
            throttled: false,
            trace: TraceReplay::new(),
            breakdown: CycleBreakdown::new(),
            breakdown2: CauseBreakdown::new(),
            profile: StallProfile::new(),
            mem_stats: MemAccessStats::default(),
            branches: BranchStats::default(),
            stats: TwoPassStats::default(),
        }
    }

    /// Pre-sets an integer register in both files (to pass kernel
    /// arguments).
    pub fn set_int(&mut self, r: ff_isa::IntReg, value: u64) {
        let idx = RegId::Int(r).index();
        self.b_regs[idx] = value;
        self.afile.write_executed(RegId::Int(r), value, afile::ARCH_DYN_ID, 0, ProducerKind::Other);
        // Pre-set values are architectural, not speculative.
        let _ = self.afile.feedback_update(RegId::Int(r), afile::ARCH_DYN_ID, value, 0);
    }

    /// Runs until `halt` retires in the B-pipe or `max_instrs`
    /// instructions retire.
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

    /// Runs to completion, returning the report plus final architectural
    /// state for differential testing.
    #[must_use]
    pub fn run_with_state(
        mut self,
        max_instrs: u64,
    ) -> (SimReport, [u64; TOTAL_REGS], MemoryImage) {
        self.run_loop(max_instrs, &mut SinkHandle::off());
        let regs = self.b_regs;
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
        let regs = self.b_regs;
        let mem = std::mem::take(&mut self.mem_img);
        (self.into_report(), trace, regs, mem)
    }

    fn run_loop(&mut self, max_instrs: u64, sink: &mut SinkHandle) {
        // A forward-progress guard: any livelock is a simulator bug and
        // must surface as a panic, not a hang.
        let cycle_cap = max_instrs.saturating_mul(500).max(1_000_000);
        while !self.halted && self.retired < max_instrs {
            assert!(
                self.cycle < cycle_cap,
                "two-pass simulation livelocked at cycle {} (retired {}, cq {}, \
                 fetch drained: {})",
                self.cycle,
                self.retired,
                self.cq.len(),
                self.frontend.is_drained()
            );
            self.frontend.tick(self.cycle);
            self.apply_feedback();
            if sink.is_on() {
                self.trace.drain_misses(self.cycle, sink);
            }
            let (class, attr, b_wake) = self.b_step(sink);
            #[cfg(feature = "audit")]
            let b_fingerprint = self.audit_b_fingerprint();
            let mut a_idle = Some(AIdle::Halted);
            if !self.halted {
                a_idle = self.a_step(sink);
            }
            #[cfg(feature = "audit")]
            {
                self.audit_a_isolation(b_fingerprint);
                self.audit_cq_discipline();
            }
            self.breakdown.charge(class);
            self.breakdown2.charge(attr.cause);
            if let Some(pc) = attr.pc {
                self.profile.record(pc, attr.cause);
            }
            self.stats.queue_occupancy_sum += self.cq.len() as u64;
            self.stats.queue_depth_hist.observe(self.cq.len() as u64);
            if sink.is_on() {
                let (depth, mshr) =
                    (self.cq.len() as u32, self.mshrs.outstanding(self.cycle) as u32);
                self.trace.end_cycle(self.cycle, class, attr, depth, mshr, sink);
            }
            self.cycle += 1;
            if self.frontend.is_drained() && self.cq.is_empty() && !self.halted {
                break; // defensive: no further progress possible
            }
            if self.cfg.fast_forward && class != CycleClass::Unstalled {
                self.fast_forward(class, attr, b_wake, a_idle, sink);
            }
        }
        self.trace.close(self.cycle, sink);
    }

    /// Event-driven fast-forward: with the B-pipe stalled (with a known
    /// wake event) and the A-pipe idle for a clock-independent reason,
    /// every intermediate cycle replays the same stall, so jump straight
    /// to the earliest event that could change anything — the B-pipe
    /// wake, the next pending feedback arrival, or the front end's
    /// refill completion — bulk-charging the skipped span. Results are
    /// byte-identical to per-cycle simulation.
    fn fast_forward(
        &mut self,
        class: CycleClass,
        attr: StallAttr,
        wake: Option<u64>,
        a_idle: Option<AIdle>,
        sink: &mut SinkHandle,
    ) {
        let Some(wake) = wake else { return };
        let idle = match a_idle {
            // FpBlock depends on A-file timers that advance with the
            // clock; a throttle or full queue can only be released by
            // B-pipe progress, a missing group only by fetch progress.
            Some(i) if i != AIdle::FpBlock => i,
            _ => return,
        };
        let mut target = wake;
        // A feedback message landing mid-span would update the A-file
        // (and the applied/stale counters) at a clamped cycle; stop
        // there and let the landing cycle apply it on time.
        if let Some(fb) = self.feedback.iter().map(|m| m.apply_at).min() {
            target = target.min(fb);
        }
        // An actively fetching front end makes progress every cycle; a
        // refilling one is inert until its resume cycle. (Stopped or
        // full, `tick` is a guaranteed no-op at any clock value.)
        if !self.frontend.is_stopped_or_full() {
            target = target.min(self.frontend.resume_at());
        }
        if target <= self.cycle {
            return;
        }
        #[cfg(feature = "audit")]
        self.audit_ff_span(class, attr, idle, target);
        let span = target - self.cycle;
        self.breakdown.charge_n(class, span);
        self.breakdown2.charge_n(attr.cause, span);
        if let Some(pc) = attr.pc {
            self.profile.record_n(pc, attr.cause, span);
        }
        let depth = self.cq.len() as u64;
        self.stats.queue_occupancy_sum += depth * span;
        self.stats.queue_depth_hist.observe_n(depth, span);
        match idle {
            AIdle::Throttled => self.stats.throttled_cycles += span,
            AIdle::QueueFull => self.stats.queue_full_cycles += span,
            _ => {}
        }
        // Fills that complete mid-span emit `MissEnd` at their true
        // cycles, and an occupancy sample marks each MSHR change.
        self.trace.replay_span(self.cycle, target, depth as u32, &self.mshrs, sink);
        self.cycle = target;
    }

    fn into_report(mut self) -> SimReport {
        self.stats.store_buffer = self.store_buffer.stats();
        self.stats.alat = self.alat.stats();
        let mut report = SimReport {
            model: if self.cfg.two_pass.regroup {
                ModelKind::TwoPassRegroup
            } else {
                ModelKind::TwoPass
            },
            cycles: self.cycle,
            retired: self.retired,
            breakdown: self.breakdown,
            breakdown2: self.breakdown2,
            stall_profile: self.profile,
            mem: self.mem_stats,
            branches: self.branches,
            hierarchy: *self.hier.stats(),
            mshr: self.mshrs.stats(),
            two_pass: Some(self.stats),
            metrics: crate::metrics::MetricsSnapshot::default(),
        };
        report.collect_metrics();
        report
    }

    // ---- feedback path --------------------------------------------------

    fn push_feedback(&mut self, reg: RegId, seq: u64, bits: u64, completion: u64) {
        if let FeedbackLatency::Cycles(lat) = self.cfg.two_pass.feedback_latency {
            self.feedback.push(FeedbackMsg { apply_at: completion + lat, reg, seq, bits });
        }
    }

    fn apply_feedback(&mut self) {
        let now = self.cycle;
        let mut i = 0;
        while i < self.feedback.len() {
            if self.feedback[i].apply_at <= now {
                let m = self.feedback.swap_remove(i);
                if self.afile.feedback_update(m.reg, m.seq, m.bits, now) {
                    self.stats.feedback_applied += 1;
                } else {
                    self.stats.feedback_stale += 1;
                }
            } else {
                i += 1;
            }
        }
    }

    // ---- B-pipe ---------------------------------------------------------

    /// Dependence/dangling/structural check over the first `len` queue
    /// entries as one issue bundle. `None` means the bundle can issue
    /// whole. Otherwise reports the index of the first blocked entry,
    /// the stall class, whether the block is *internal* — a
    /// dependence on a deferred bundle peer, which time will not resolve
    /// (the bundle must split there) — or *external* (stall the group,
    /// EPIC-style), the refined attribution of the blocking producer,
    /// and, for external blocks, the cycle the block resolves (the
    /// producer's `ready_at`, or the earliest MSHR fill for a structural
    /// block) — the fast-forward wake hint.
    fn bundle_block(
        &mut self,
        len: usize,
    ) -> Option<(usize, CycleClass, bool, StallAttr, Option<u64>)> {
        // Reuse the scratch buffer across cycles: take it out of `self`
        // so the scan can borrow the rest of the machine immutably.
        let mut written = std::mem::take(&mut self.bundle_scratch);
        written.clear();
        let result = self.bundle_block_scan(len, &mut written);
        self.bundle_scratch = written;
        result
    }

    fn bundle_block_scan(
        &self,
        len: usize,
        written: &mut Vec<BundleWrite>,
    ) -> Option<(usize, CycleClass, bool, StallAttr, Option<u64>)> {
        let now = self.cycle;
        let find = |written: &[BundleWrite], idx: usize| {
            written.iter().rev().position(|w| w.reg == idx).map(|p| written.len() - 1 - p)
        };
        for i in 0..len {
            let e = self.cq.get(i).expect("bundle in range");
            let d = self.code.at(e.pc);
            match e.state {
                CqState::Executed { ready_at, pending_load, writes, load, .. } => {
                    if ready_at > now {
                        let class = if pending_load {
                            CycleClass::LoadStall
                        } else {
                            CycleClass::NonLoadDepStall
                        };
                        let cause = if pending_load {
                            StallCause::load(load.map_or(MemLevel::L1, |li| li.level))
                        } else {
                            d.dep_cause
                        };
                        let attr = StallAttr::at(cause, e.pc);
                        debug_assert_eq!(attr.cause.class(), class);
                        return Some((i, class, false, attr, Some(ready_at)));
                    }
                    for w in writes.iter() {
                        written.push(BundleWrite {
                            reg: w.reg.index(),
                            avail: true,
                            pc: e.pc,
                            cause: d.dep_cause,
                        });
                    }
                }
                CqState::Deferred => {
                    for src in d.srcs.iter() {
                        let idx = src.index();
                        match find(written, idx) {
                            Some(w) if written[w].avail => {}
                            Some(w) => {
                                let attr = StallAttr::at(written[w].cause, written[w].pc);
                                debug_assert_eq!(attr.cause.class(), CycleClass::NonLoadDepStall);
                                return Some((i, CycleClass::NonLoadDepStall, true, attr, None));
                            }
                            None => {
                                if self.b_ready[idx] > now {
                                    let class = if self.b_pending_load[idx] {
                                        CycleClass::LoadStall
                                    } else {
                                        CycleClass::NonLoadDepStall
                                    };
                                    let attr = StallAttr::at(self.b_cause[idx], self.b_pc[idx]);
                                    debug_assert_eq!(attr.cause.class(), class);
                                    return Some((i, class, false, attr, Some(self.b_ready[idx])));
                                }
                            }
                        }
                    }
                    if d.is_load && !self.mshrs.has_room(now) {
                        let attr = StallAttr::at(StallCause::ResMshr, e.pc);
                        let wake = self.mshrs.next_wakeup(now);
                        return Some((i, CycleClass::ResourceStall, false, attr, wake));
                    }
                    // WAW against a deferred peer also forces a split:
                    // sequential apply order must be preserved in time.
                    for dst in d.dests.iter() {
                        if let Some(w) = find(written, dst.index()) {
                            if !written[w].avail {
                                let attr = StallAttr::at(written[w].cause, written[w].pc);
                                debug_assert_eq!(attr.cause.class(), CycleClass::NonLoadDepStall);
                                return Some((i, CycleClass::NonLoadDepStall, true, attr, None));
                            }
                        }
                    }
                    for dst in d.dests.iter() {
                        written.push(BundleWrite {
                            reg: dst.index(),
                            avail: false,
                            pc: e.pc,
                            cause: d.dep_cause,
                        });
                    }
                }
            }
        }
        None
    }

    /// The third element is the fast-forward wake hint: the earliest
    /// cycle at which this stall could resolve, when one is knowable.
    /// `FeEmpty` and `APipe` report `None` — the A-pipe or front end may
    /// make progress the very next cycle.
    fn b_step(&mut self, sink: &mut SinkHandle) -> (CycleClass, StallAttr, Option<u64>) {
        let glen = match self.cq.head_group_len(self.cycle) {
            Some(g) => g,
            // A group larger than the coupling queue can never present a
            // group_end marker: when the queue is completely full of one
            // unterminated group, consume it as a chunk (hardware would
            // issue an oversized group over multiple cycles anyway).
            None if self.cq.free() == 0
                && self.cq.get(self.cq.len() - 1).is_some_and(|e| e.enq_cycle < self.cycle) =>
            {
                self.cq.len()
            }
            None => {
                // Nothing consumable: starving on fetch, or waiting for
                // the A-pipe's one-cycle head start.
                return if self.frontend.is_refilling(self.cycle) {
                    (
                        CycleClass::FrontEndStall,
                        StallAttr::new(StallCause::FeRefill),
                        Some(self.frontend.resume_at()),
                    )
                } else if self.frontend.complete_group_len().is_none() {
                    (CycleClass::FrontEndStall, StallAttr::new(StallCause::FeEmpty), None)
                } else {
                    (CycleClass::APipeStall, StallAttr::new(StallCause::APipe), None)
                };
            }
        };

        // An internal (bundle-peer) dependence splits the group — time
        // alone would never resolve it; an external one stalls the whole
        // group at EPIC issue-group granularity.
        let mut issue_len = glen;
        if let Some((idx, stall, internal, attr, wake)) = self.bundle_block(glen) {
            if !internal || idx == 0 {
                return (stall, attr, wake);
            }
            issue_len = idx;
        }

        let mut bundle = fitting_prefix_classes(
            (0..issue_len).map(|i| self.code.at(self.cq.get(i).unwrap().pc).fu),
            &self.cfg.fu_slots,
            self.cfg.issue_width,
        )
        .min(issue_len);

        // Instruction regrouping (2Pre): remove the stop bit after the
        // head group when pre-execution has made the next group
        // independent of it. The regrouper looks ahead one group per
        // cycle ("re-groups but does not reorder", §3.1).
        if self.cfg.two_pass.regroup && bundle == glen && issue_len == glen {
            if let Some(next_len) = self.cq.group_len_after(bundle, self.cycle) {
                let cand = bundle + next_len;
                let fits = fitting_prefix_classes(
                    (0..cand).map(|i| self.code.at(self.cq.get(i).unwrap().pc).fu),
                    &self.cfg.fu_slots,
                    self.cfg.issue_width,
                ) >= cand;
                // Any block — internal or external — vetoes the merge.
                if fits && self.bundle_block(cand).is_none() {
                    bundle = cand;
                    self.stats.regroup_merges += 1;
                }
            }
        }

        let head_seq = self.cq.get(0).map(|e| e.seq);
        let mut processed = 0;
        let mut flush: Option<FlushPlan> = None;
        for i in 0..bundle {
            let entry = *self.cq.get(i).expect("bundle in range");
            processed += 1;
            let done = self.merge_entry(&entry, &mut flush, sink);
            if done || flush.is_some() {
                break;
            }
        }
        self.cq.consume(processed);
        if processed > 0 {
            if let Some(head_seq) = head_seq {
                sink.emit_with(|| TraceEvent::GroupDispatch {
                    cycle: self.cycle,
                    pipe: Pipe::B,
                    head_seq,
                    len: processed as u32,
                });
            }
        }
        if let Some(plan) = flush {
            self.do_flush(plan, sink);
        }
        (CycleClass::Unstalled, StallAttr::new(StallCause::Issue), None)
    }

    /// Retires one queue entry into architectural state. Returns `true`
    /// when the machine halted.
    fn merge_entry(
        &mut self,
        entry: &CqEntry,
        flush: &mut Option<FlushPlan>,
        sink: &mut SinkHandle,
    ) -> bool {
        self.retired += 1;
        self.stats.slip_hist.observe(self.cycle.saturating_sub(entry.enq_cycle));
        sink.emit_with(|| TraceEvent::CqDequeue {
            cycle: self.cycle,
            seq: entry.seq,
            pc: entry.pc,
            resident: self.cycle.saturating_sub(entry.enq_cycle),
        });
        if entry.state.is_deferred() {
            sink.emit_with(|| TraceEvent::BExec {
                cycle: self.cycle,
                seq: entry.seq,
                pc: entry.pc,
            });
        }
        sink.emit_with(|| TraceEvent::BRetire {
            cycle: self.cycle,
            seq: entry.seq,
            pc: entry.pc,
            was_deferred: entry.state.is_deferred(),
        });
        let d = self.code.at(entry.pc);
        let (is_fp, is_halt, cause) = (d.is_fp, d.is_halt, d.dep_cause);
        if is_fp {
            self.stats.fp_retired += 1;
        }
        #[cfg(feature = "audit")]
        if let CqState::Executed { ready_at, .. } = entry.state {
            assert!(
                ready_at <= self.cycle,
                "audit: pc {} (seq {}) merges at cycle {} but its A-pipe result \
                 is not ready until cycle {ready_at}",
                entry.pc,
                entry.seq,
                self.cycle
            );
        }
        match entry.state {
            CqState::Executed { writes, load, store, branch, .. } => {
                for w in writes.iter() {
                    let idx = w.reg.index();
                    self.b_regs[idx] = w.bits;
                    self.b_ready[idx] = self.cycle;
                    self.b_pending_load[idx] = false;
                    self.b_cause[idx] = cause;
                    self.b_pc[idx] = entry.pc;
                    self.push_feedback(w.reg, entry.seq, w.bits, self.cycle);
                }
                if let Some(li) = load {
                    if self.alat.check_and_remove(entry.seq) == AlatCheck::Conflict {
                        self.store_conflict_flush(entry, li, flush, sink);
                        return false;
                    }
                }
                if let Some(si) = store {
                    self.mem_img.write(si.addr, si.size, si.bits);
                    let _ = self.hier.store(si.addr);
                    let _ = self.store_buffer.remove(entry.seq);
                    self.stats.stores_retired += 1;
                }
                if let Some(bi) = branch {
                    self.retire_branch(entry.pc, bi);
                }
                if is_halt {
                    self.halted = true;
                    return true;
                }
            }
            CqState::Deferred => {
                return self.execute_deferred(entry, flush, sink);
            }
        }
        false
    }

    fn retire_branch(&mut self, pc: usize, bi: BranchInfo) {
        if !bi.conditional {
            return;
        }
        self.branches.retired += 1;
        self.frontend.predictor_mut().update(pc as u64, bi.taken);
        if bi.mispredicted {
            self.branches.mispredicted += 1;
            self.branches.repaired_in_a += 1;
        }
    }

    /// Executes a deferred entry in the B-pipe. Returns `true` on halt.
    fn execute_deferred(
        &mut self,
        entry: &CqEntry,
        flush: &mut Option<FlushPlan>,
        sink: &mut SinkHandle,
    ) -> bool {
        let d = self.code.at(entry.pc);
        let lat = d.latency;
        let cause = d.dep_cause;
        let has_qp = d.insn.qp.is_some();
        #[cfg(feature = "audit")]
        self.audit_deferred_sources(entry.pc);
        let effect = evaluate(&d.insn, &self.b_regs);
        match effect {
            Effect::Nullified | Effect::Nop => {}
            Effect::Write(writes) => {
                for w in writes.iter() {
                    let idx = w.reg.index();
                    self.b_regs[idx] = w.bits;
                    self.b_ready[idx] = self.cycle + lat;
                    self.b_pending_load[idx] = false;
                    self.b_cause[idx] = cause;
                    self.b_pc[idx] = entry.pc;
                    self.push_feedback(w.reg, entry.seq, w.bits, self.cycle + lat);
                }
            }
            Effect::Load { addr, size, signed, dest } => {
                let raw = self.mem_img.load(addr, size);
                let out = self.hier.load(addr);
                let (done, eff_level) = self.book_load(addr, out.level, out.latency, Pipe::B, sink);
                self.mem_stats.record_load(Pipe::B, out.level, out.latency);
                let idx = dest.index();
                self.b_regs[idx] = load_write(raw, size, signed);
                self.b_ready[idx] = done;
                self.b_pending_load[idx] = true;
                self.b_cause[idx] = StallCause::load(eff_level);
                self.b_pc[idx] = entry.pc;
                self.push_feedback(dest, entry.seq, self.b_regs[idx], done);
            }
            Effect::Store { addr, size, bits } => {
                self.mem_img.write(addr, size, bits);
                let _ = self.hier.store(addr);
                // A deferred store executed in the B-pipe invalidates the
                // ALAT entries of younger pre-executed loads (§3.4).
                let _ = self.alat.store_invalidate(addr, size);
                self.stats.stores_retired += 1;
                self.deferred_stores_in_cq = self.deferred_stores_in_cq.saturating_sub(1);
            }
            Effect::Branch { taken, target } => {
                debug_assert!(has_qp, "unconditional branches never defer");
                self.branches.retired += 1;
                self.frontend.predictor_mut().update(entry.pc as u64, taken);
                if taken != entry.predicted_taken {
                    self.branches.mispredicted += 1;
                    self.branches.repaired_in_b += 1;
                    let redirect_pc = if taken { target } else { entry.pc + 1 };
                    *flush = Some(FlushPlan {
                        boundary_seq: entry.seq,
                        redirect_pc,
                        penalty: self.cfg.bdet_penalty(),
                        kind: FlushKind::BdetMispredict,
                    });
                }
            }
            Effect::Halt => {
                // Halt has no sources and cannot defer; defensive only.
                self.halted = true;
                return true;
            }
        }
        false
    }

    /// Handles an ALAT miss at merge: re-execute the load against
    /// architectural memory and flush all younger speculative state.
    fn store_conflict_flush(
        &mut self,
        entry: &CqEntry,
        li: LoadInfo,
        flush: &mut Option<FlushPlan>,
        sink: &mut SinkHandle,
    ) {
        self.stats.store_conflict_flushes += 1;
        if li.risky {
            self.stats.loads_past_deferred_store_conflicting += 1;
        }
        // Re-execute the offending load with correct memory.
        let effect = evaluate(&self.code.at(entry.pc).insn, &self.b_regs);
        if let Effect::Load { addr, size, signed, dest } = effect {
            let raw = self.mem_img.load(addr, size);
            let out = self.hier.load(addr);
            let (done, eff_level) = self.book_load(addr, out.level, out.latency, Pipe::B, sink);
            self.mem_stats.record_load(Pipe::B, out.level, out.latency);
            let idx = dest.index();
            self.b_regs[idx] = load_write(raw, size, signed);
            self.b_ready[idx] = done;
            self.b_pending_load[idx] = true;
            self.b_cause[idx] = StallCause::load(eff_level);
            self.b_pc[idx] = entry.pc;
            self.push_feedback(dest, entry.seq, self.b_regs[idx], done);
        }
        *flush = Some(FlushPlan {
            boundary_seq: entry.seq,
            redirect_pc: entry.pc + 1,
            penalty: self.cfg.bdet_penalty(),
            kind: FlushKind::StoreConflict,
        });
    }

    fn do_flush(&mut self, plan: FlushPlan, sink: &mut SinkHandle) {
        sink.emit_with(|| TraceEvent::Flush {
            cycle: self.cycle,
            kind: plan.kind,
            boundary_seq: plan.boundary_seq,
        });
        // `boundary_seq` is the seq of the flush-triggering instruction
        // (mispredicted branch / conflicting load); it retires in B, so
        // flush_after keeps it and squashes only strictly younger work.
        if sink.is_on() {
            for e in self.cq.iter() {
                if e.seq > plan.boundary_seq {
                    let (seq, pc) = (e.seq, e.pc);
                    sink.emit_with(|| TraceEvent::Squash { cycle: self.cycle, seq, pc });
                }
            }
        }
        let _ = self.cq.flush_after(plan.boundary_seq);
        self.frontend.redirect(plan.redirect_pc, self.cycle + plan.penalty);
        let _ =
            self.afile.repair_from(&self.b_regs, &self.b_ready, &self.b_pending_load, self.cycle);
        self.store_buffer.flush_after(plan.boundary_seq);
        self.alat.flush_after(plan.boundary_seq);
        self.feedback.retain(|m| m.seq <= plan.boundary_seq);
        self.a_halted = false;
        self.throttled = false;
        self.defer_window.clear();
        let code = &self.code;
        self.deferred_stores_in_cq =
            self.cq.iter().filter(|e| e.state.is_deferred() && code.at(e.pc).is_store).count();
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

    // ---- A-pipe ---------------------------------------------------------

    /// Whether the instruction must defer based on A-file source state.
    /// Predication refines this: a ready-and-false qualifying predicate
    /// nullifies the instruction regardless of its other operands.
    fn must_defer(&self, pc: usize) -> bool {
        let d = self.code.at(pc);
        if let Some(qp) = d.insn.qp {
            match self.afile.source_state(RegId::Pred(qp), self.cycle) {
                SourceState::Deferred | SourceState::InFlight(_) => return true,
                SourceState::Ready => {
                    let qp_true = ff_isa::RegRead::read(&self.afile, RegId::Pred(qp)) != 0;
                    if !qp_true {
                        return false; // nullified: executes (as a no-op)
                    }
                }
            }
        }
        d.op_srcs
            .iter()
            .any(|src| !matches!(self.afile.source_state(src, self.cycle), SourceState::Ready))
    }

    /// Records a dispatch outcome in the throttle window and returns
    /// whether the A-pipe should pause (deferral rate above threshold
    /// with a deep queue backlog).
    fn throttle_check(&mut self) -> bool {
        let Some(t) = self.cfg.two_pass.throttle else { return false };
        if self.throttled {
            if self.cq.len() <= t.resume_occupancy {
                self.throttled = false;
                self.defer_window.clear();
            }
        } else if self.defer_window.len() >= t.window {
            let deferred = self.defer_window.iter().filter(|&&d| d).count();
            if deferred as f64 / self.defer_window.len() as f64 > t.defer_threshold
                && self.cq.len() > t.resume_occupancy
            {
                self.throttled = true;
            }
        }
        if self.throttled {
            self.stats.throttled_cycles += 1;
        }
        self.throttled
    }

    fn note_dispatch(&mut self, deferred: bool) {
        if let Some(t) = self.cfg.two_pass.throttle {
            self.defer_window.push_back(deferred);
            while self.defer_window.len() > t.window {
                self.defer_window.pop_front();
            }
        }
    }

    /// Dispatches one issue group into the coupling queue. Returns the
    /// reason nothing was dispatched, or `None` on progress — the
    /// fast-forward layer skips a stalled span only when the reason is
    /// stable under an advancing clock (see [`AIdle`]).
    fn a_step(&mut self, sink: &mut SinkHandle) -> Option<AIdle> {
        if self.a_halted {
            return Some(AIdle::Halted);
        }
        if self.throttle_check() {
            return Some(AIdle::Throttled);
        }
        let Some(glen) = self.frontend.complete_group_len() else {
            return Some(AIdle::NoGroup);
        };
        let mut n = fitting_prefix_classes(
            (0..glen).map(|i| self.code.at(self.frontend.peek(i).pc).fu),
            &self.cfg.fu_slots,
            self.cfg.issue_width,
        )
        .min(glen);

        // Dispatch only as much as the coupling queue can hold; pushing
        // nothing when the group doesn't fit whole would deadlock against
        // a B-pipe waiting for the group's end marker.
        let free = self.cq.free();
        if free == 0 {
            self.stats.queue_full_cycles += 1;
            return Some(AIdle::QueueFull);
        }
        n = n.min(free);

        // Optional policy: stall (like the baseline) on anticipable FP
        // latencies instead of deferring whole FP chains (§4, 175.vpr).
        if self.cfg.two_pass.stall_on_anticipable_fp {
            for i in 0..glen {
                let blocked = self.code.at(self.frontend.peek(i).pc).srcs.iter().any(|src| {
                    matches!(
                        self.afile.source_state(src, self.cycle),
                        SourceState::InFlight(ProducerKind::Fp)
                    )
                });
                if blocked {
                    return Some(AIdle::FpBlock);
                }
            }
        }

        let head_seq = self.frontend.peek(0).seq;
        let mut processed = 0;
        let mut redirect: Option<(usize, u64)> = None;
        for i in 0..n {
            let f = *self.frontend.peek(i);
            processed += 1;
            self.stats.dispatched_a += 1;
            sink.emit_with(|| TraceEvent::Fetch { cycle: self.cycle, seq: f.seq, pc: f.pc });

            let (state, stop) = if self.must_defer(f.pc) {
                (CqState::Deferred, false)
            } else {
                self.a_execute(&f, &mut redirect, sink)
            };

            self.note_dispatch(state.is_deferred());
            if state.is_deferred() {
                let d = self.code.at(f.pc);
                let dests = d.dests;
                self.stats.deferred += 1;
                if d.is_store {
                    self.stats.stores_deferred += 1;
                    self.deferred_stores_in_cq += 1;
                }
                if d.is_fp {
                    self.stats.fp_deferred += 1;
                }
                for dst in dests.iter() {
                    self.afile.mark_deferred(dst, f.seq);
                }
            } else {
                self.stats.executed_in_a += 1;
            }

            match state {
                CqState::Executed { ready_at, .. } => sink.emit_with(|| TraceEvent::AExec {
                    cycle: self.cycle,
                    seq: f.seq,
                    pc: f.pc,
                    ready_at,
                }),
                CqState::Deferred => {
                    sink.emit_with(|| TraceEvent::Defer { cycle: self.cycle, seq: f.seq, pc: f.pc })
                }
            }
            sink.emit_with(|| TraceEvent::ADispatch {
                cycle: self.cycle,
                seq: f.seq,
                pc: f.pc,
                deferred: state.is_deferred(),
            });
            self.cq.push(CqEntry {
                seq: f.seq,
                pc: f.pc,
                // Squashing the rest of the group (A-DET mispredict,
                // taken branch, halt) truncates it: the B-pipe must see
                // this entry as the group's end or it would wait forever
                // for members that will never arrive.
                group_end: f.group_end || stop,
                predicted_taken: f.predicted_taken,
                enq_cycle: self.cycle,
                state,
            });
            sink.emit_with(|| TraceEvent::CqEnqueue {
                cycle: self.cycle,
                seq: f.seq,
                pc: f.pc,
                depth: self.cq.len() as u32,
            });

            if stop {
                break;
            }
        }
        self.frontend.consume(processed);
        if processed > 0 {
            sink.emit_with(|| TraceEvent::GroupDispatch {
                cycle: self.cycle,
                pipe: Pipe::A,
                head_seq,
                len: processed as u32,
            });
        }
        if let Some((pc, at)) = redirect {
            sink.emit_with(|| TraceEvent::ARedirect { cycle: self.cycle, pc });
            self.frontend.redirect(pc, at);
        }
        None
    }

    /// Executes one instruction in the A-pipe. Returns the queue state
    /// plus whether group processing must stop (taken branch, A-DET
    /// squash, halt). May fall back to `Deferred` for structural reasons
    /// (partial store forward, MSHR or store-buffer full).
    fn a_execute(
        &mut self,
        f: &FetchedInsn,
        redirect: &mut Option<(usize, u64)>,
        sink: &mut SinkHandle,
    ) -> (CqState, bool) {
        let now = self.cycle;
        let d = self.code.at(f.pc);
        let lat = d.latency;
        let producer = if d.is_fp { ProducerKind::Fp } else { ProducerKind::Other };
        let conditional = d.insn.qp.is_some();
        let effect = evaluate(&d.insn, &self.afile);
        match effect {
            Effect::Nullified | Effect::Nop => {
                (CqState::executed(Writes::default(), now, false), false)
            }
            Effect::Write(writes) => {
                for w in writes.iter() {
                    self.afile.write_executed(w.reg, w.bits, f.seq, now + lat, producer);
                }
                (CqState::executed(writes, now + lat, false), false)
            }
            Effect::Load { addr, size, signed, dest } => {
                self.a_load(f, addr, size, signed, dest, sink)
            }
            Effect::Store { addr, size, bits } => {
                if self.store_buffer.is_full() {
                    return (CqState::Deferred, false);
                }
                self.store_buffer.insert(f.seq, addr, size, bits).expect("checked capacity");
                (
                    CqState::Executed {
                        writes: Writes::default(),
                        ready_at: now,
                        pending_load: false,
                        load: None,
                        store: Some(StoreInfo { addr, size, bits }),
                        branch: None,
                    },
                    false,
                )
            }
            Effect::Branch { taken, target } => {
                let mispredicted = conditional && taken != f.predicted_taken;
                if mispredicted {
                    let correct = if taken { target } else { f.pc + 1 };
                    *redirect = Some((correct, now + self.cfg.adet_penalty()));
                }
                let bi = BranchInfo { taken, mispredicted, conditional };
                (
                    CqState::Executed {
                        writes: Writes::default(),
                        ready_at: now,
                        pending_load: false,
                        load: None,
                        store: None,
                        branch: Some(bi),
                    },
                    // Stop on squash or on an actually-taken branch (the
                    // front end ended the group there if predicted taken).
                    mispredicted || taken,
                )
            }
            Effect::Halt => {
                self.a_halted = true;
                (CqState::executed(Writes::default(), now, false), true)
            }
        }
    }

    fn a_load(
        &mut self,
        f: &FetchedInsn,
        addr: u64,
        size: u64,
        signed: bool,
        dest: RegId,
        sink: &mut SinkHandle,
    ) -> (CqState, bool) {
        let now = self.cycle;
        let risky = self.deferred_stores_in_cq > 0;

        let (bits, ready_at, level, latency, eff_level) =
            match self.store_buffer.forward(f.seq, addr, size) {
                ForwardResult::Partial => return (CqState::Deferred, false),
                ForwardResult::Forwarded(raw) => {
                    // Store-buffer bypass at L1 speed.
                    let lat = self.cfg.hierarchy.l1_latency;
                    (load_write(raw, size, signed), now + lat, MemLevel::L1, lat, MemLevel::L1)
                }
                ForwardResult::NoConflict => {
                    if !self.mshrs.has_room(now) && self.hier.probe(addr) != MemLevel::L1 {
                        return (CqState::Deferred, false);
                    }
                    let raw = self.mem_img.load(addr, size);
                    let out = self.hier.load(addr);
                    let (done, eff) = self.book_load(addr, out.level, out.latency, Pipe::A, sink);
                    (load_write(raw, size, signed), done, out.level, out.latency, eff)
                }
            };

        self.mem_stats.record_load(Pipe::A, level, latency);
        self.alat.allocate(f.seq, addr, size);
        if risky {
            self.stats.loads_past_deferred_store += 1;
        }
        self.afile.write_executed(dest, bits, f.seq, ready_at, ProducerKind::Load);

        let mut writes = Writes::default();
        writes.push(ff_isa::RegWrite { reg: dest, bits });
        (
            CqState::Executed {
                writes,
                ready_at,
                pending_load: true,
                load: Some(LoadInfo { addr, size, risky, level: eff_level }),
                store: None,
                branch: None,
            },
            false,
        )
    }
}

/// Per-cycle invariant auditing (the `audit` cargo feature).
///
/// These checks assert the model's internal contracts every simulated
/// cycle and panic on the first violation. They cost real time and are
/// compiled out by default; `ff-verify --features audit` (or any build
/// with `ff-core/audit`) turns them on for every two-pass simulation.
#[cfg(feature = "audit")]
impl TwoPass<'_> {
    /// FNV-1a fingerprint of the B-visible architectural registers,
    /// snapshotted between the B-step and the A-step of one cycle.
    fn audit_b_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &bits in self.b_regs.iter() {
            h ^= bits;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// A-pipe isolation: the A-step must never update B-visible register
    /// state — A-pipe results reach the B-file only by merging through
    /// the coupling queue. (A-pipe stores are likewise confined to the
    /// speculative store buffer; memory is cross-checked end-to-end by
    /// `ff-verify`'s differential oracle rather than per cycle.)
    fn audit_a_isolation(&self, before: u64) {
        assert!(
            self.audit_b_fingerprint() == before,
            "audit: A-step mutated B-visible registers at cycle {}",
            self.cycle
        );
    }

    /// Coupling-queue FIFO discipline: sequence numbers strictly
    /// increase from head to tail (program order, no duplicates even
    /// across flushes) and enqueue cycles never decrease.
    fn audit_cq_discipline(&self) {
        let mut prev: Option<(u64, u64)> = None;
        for e in self.cq.iter() {
            if let Some((seq, enq)) = prev {
                assert!(
                    e.seq > seq,
                    "audit: coupling queue out of order at cycle {}: seq {} follows seq {seq}",
                    self.cycle,
                    e.seq
                );
                assert!(
                    e.enq_cycle >= enq,
                    "audit: coupling queue enqueue cycles regress at cycle {}: \
                     seq {} enqueued at {} after {enq}",
                    self.cycle,
                    e.seq,
                    e.enq_cycle
                );
            }
            assert!(
                e.enq_cycle <= self.cycle,
                "audit: coupling queue entry seq {} enqueued in the future ({} > {})",
                e.seq,
                e.enq_cycle,
                self.cycle
            );
            prev = Some((e.seq, e.enq_cycle));
        }
    }

    /// Fast-forward legality: the cycle just before the landing cycle —
    /// the last one skipped — must re-derive the *same* B-pipe stall, the
    /// A-pipe idle reason must still hold, and no B→A feedback message
    /// may land inside the span. Re-deriving at `target - 1` covers the
    /// whole span: every stall predicate here is monotone in the clock
    /// (a `ready_at`/fill/refill boundary not yet crossed at `target - 1`
    /// was not crossed earlier either).
    fn audit_ff_span(&mut self, class: CycleClass, attr: StallAttr, idle: AIdle, target: u64) {
        let start = self.cycle;
        assert!(
            self.feedback.iter().all(|m| m.apply_at >= target),
            "audit: fast-forwarded span [{start}, {target}) crosses a feedback arrival",
        );
        self.cycle = target - 1;
        let probed = self.probe_b_stall();
        assert_eq!(
            probed,
            Some((class, attr)),
            "audit: fast-forwarded span [{start}, {target}) had an enabled B-pipe event",
        );
        let still_idle = match idle {
            AIdle::Halted => self.a_halted,
            AIdle::Throttled => {
                self.throttled
                    && self
                        .cfg
                        .two_pass
                        .throttle
                        .is_some_and(|t| self.cq.len() > t.resume_occupancy)
            }
            AIdle::NoGroup => self.frontend.complete_group_len().is_none(),
            AIdle::QueueFull => self.cq.free() == 0,
            AIdle::FpBlock => false, // never skipped
        };
        assert!(
            still_idle,
            "audit: fast-forwarded span [{start}, {target}) had an enabled A-pipe event \
             (idle reason {idle:?} no longer holds)",
        );
        self.cycle = start;
    }

    /// Read-only re-derivation of `b_step`'s stall classification at the
    /// current clock. `None` means the B-pipe would make progress.
    fn probe_b_stall(&mut self) -> Option<(CycleClass, StallAttr)> {
        let glen = match self.cq.head_group_len(self.cycle) {
            Some(g) => g,
            None if self.cq.free() == 0
                && self.cq.get(self.cq.len() - 1).is_some_and(|e| e.enq_cycle < self.cycle) =>
            {
                return None; // oversized-group chunk: consumable
            }
            None => {
                return Some(if self.frontend.is_refilling(self.cycle) {
                    (CycleClass::FrontEndStall, StallAttr::new(StallCause::FeRefill))
                } else if self.frontend.complete_group_len().is_none() {
                    (CycleClass::FrontEndStall, StallAttr::new(StallCause::FeEmpty))
                } else {
                    (CycleClass::APipeStall, StallAttr::new(StallCause::APipe))
                });
            }
        };
        match self.bundle_block(glen) {
            Some((idx, stall, internal, attr, _wake)) if !internal || idx == 0 => {
                Some((stall, attr))
            }
            _ => None,
        }
    }

    /// B-side scoreboard discipline: a deferred instruction executes
    /// only once every source register's producer latency has elapsed
    /// (the bundle dependence check must have stalled or split first).
    fn audit_deferred_sources(&self, pc: usize) {
        let d = self.code.at(pc);
        for src in d.srcs.iter() {
            let idx = src.index();
            assert!(
                self.b_ready[idx] <= self.cycle,
                "audit: deferred pc {pc} reads {src} at cycle {} before its \
                 producer (pc {}) completes at cycle {}",
                self.cycle,
                self.b_pc[idx],
                self.b_ready[idx]
            );
        }
    }
}

#[cfg(test)]
mod tests;
