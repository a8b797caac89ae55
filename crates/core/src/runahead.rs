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
//! In normal mode the machine is the baseline pipe: it issues through
//! [`BaselineCore`] and differs only in reacting to a load-use stall.
//!
//! Modeling choices (documented in DESIGN.md): runahead stores write a
//! private overlay (forwarded to runahead loads, discarded at exit);
//! branches with INV conditions follow the predictor; the predictor is
//! trained only by architectural execution; exit charges a small
//! restart penalty plus a front-end refill.

use crate::accounting::{CycleClass, StallAttr};
use crate::baseline::BaselineCore;
use crate::config::MachineConfig;
use crate::engine::{Core, Engine, Machine, RunOutput};
use crate::exec_common::fitting_prefix_classes;
use crate::report::{ModelKind, Pipe, SimReport};
use crate::sink::{SinkHandle, TraceSink};
use crate::trace::TraceEvent;
use ff_isa::reg::TOTAL_REGS;
use ff_isa::{evaluate, load_write, Effect};
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
pub type Runahead<'p> = Engine<'p, RunaheadCore>;

/// The runahead back end: the baseline issue stage plus checkpointed
/// pre-execution episodes.
#[derive(Debug)]
pub struct RunaheadCore {
    /// Normal-mode issue.
    base: BaselineCore,
    /// Control of the open runahead episode; `None` in normal mode.
    ra: Option<Episode>,
    /// Speculative state, meaningful only while `ra` is `Some`.
    spec: SpecState,
    stats: RunaheadStats,
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

impl RunaheadCore {
    fn enter_runahead(
        &mut self,
        m: &Machine<'_>,
        until: u64,
        attr: StallAttr,
        sink: &mut SinkHandle,
    ) {
        // The whole group stalls (EPIC group-at-once issue), so the
        // episode must refetch from the group *head*: the blocked
        // instruction may be a later member, and any members before it
        // have not executed architecturally.
        let resume_pc = m.frontend.peek(0).pc;
        self.stats.episodes += 1;
        sink.emit_with(|| TraceEvent::RunaheadEnter { cycle: m.cycle, pc: resume_pc });
        self.ra = Some(Episode {
            until,
            resume_pc,
            done: false,
            discarded_at_entry: self.stats.discarded_instrs,
            attr,
        });
        // Checkpoint: runahead starts from the architectural state.
        self.spec.regs = m.regs.bits;
        self.spec.inv = [false; TOTAL_REGS];
        self.spec.ready_at = m.regs.ready_at;
        self.spec.stores.clear();
    }

    /// One cycle of runahead pre-execution. Architecturally the machine
    /// is still stalled on the blocking load, so the cycle is charged to
    /// it. On an idle runahead cycle (episode done, or fetch starved),
    /// the second element is the fast-forward wake hint.
    fn ra_step(
        &mut self,
        ra: Episode,
        m: &mut Machine<'_>,
        sink: &mut SinkHandle,
    ) -> (StallAttr, Option<u64>) {
        self.stats.runahead_cycles += 1;
        if m.cycle >= ra.until {
            // Blocking load returned: restore the checkpoint and refetch
            // from the stalled group.
            sink.emit_with(|| TraceEvent::RunaheadExit {
                cycle: m.cycle,
                pc: ra.resume_pc,
                discarded: self.stats.discarded_instrs - ra.discarded_at_entry,
            });
            m.frontend.redirect(ra.resume_pc, m.cycle + EXIT_PENALTY);
            self.ra = None;
            return (ra.attr, None);
        }
        if !ra.done && m.frontend.complete_group_len().is_some() {
            self.ra_issue(m, sink);
            return (ra.attr, None);
        }
        // Ran off a halt (nothing left to pre-execute) or fetch-starved:
        // idle until the blocking load returns (the run loop caps the
        // jump at a front-end refill).
        (ra.attr, Some(ra.until))
    }

    /// Issues one group speculatively under INV semantics.
    fn ra_issue(&mut self, m: &mut Machine<'_>, sink: &mut SinkHandle) {
        let Some(group_len) = m.frontend.complete_group_len() else {
            return;
        };
        let n = fitting_prefix_classes(
            (0..group_len).map(|i| m.code.at(m.frontend.peek(i).pc).fu),
            &m.cfg.fu_slots,
            m.cfg.issue_width,
        );

        let now = m.cycle;
        let mut issued = 0;
        let mut redirect: Option<usize> = None;
        for i in 0..n {
            let f = *m.frontend.peek(i);
            issued += 1;
            self.stats.discarded_instrs += 1;

            let d = m.code.at(f.pc);
            let lat = d.latency;
            let conditional = d.insn.qp.is_some();

            // INV / not-yet-ready sources poison the result instead of
            // stalling.
            let spec = &mut self.spec;
            let poisoned =
                d.srcs.iter().any(|src| spec.inv[src.index()] || spec.ready_at[src.index()] > now);

            match evaluate(&d.insn, &spec.regs) {
                Effect::Nullified | Effect::Nop => {}
                Effect::Write(writes) => {
                    for w in writes.iter() {
                        spec.regs[w.reg.index()] = w.bits;
                        spec.inv[w.reg.index()] = poisoned;
                        spec.ready_at[w.reg.index()] = now + lat;
                    }
                }
                Effect::Load { addr, size, signed, dest } => {
                    if poisoned {
                        spec.inv[dest.index()] = true;
                    } else {
                        // The whole point: initiate the miss early.
                        let raw = spec.stores.read(&m.mem_img, addr, size);
                        let (done, _) = m.access_load(addr, Pipe::A, sink);
                        self.stats.runahead_loads += 1;
                        spec.regs[dest.index()] = load_write(raw, size, signed);
                        spec.inv[dest.index()] = false;
                        spec.ready_at[dest.index()] = done;
                    }
                }
                Effect::Store { addr, size, bits } => {
                    if !poisoned {
                        spec.stores.write(addr, size, bits);
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
        m.frontend.consume(issued);
        if let Some(pc) = redirect {
            // In-runahead branch repair: cheap redirect, no episode end.
            m.frontend.redirect(pc, now + m.cfg.adet_penalty());
        }
    }
}

impl Core for RunaheadCore {
    fn new(cfg: &MachineConfig) -> Self {
        RunaheadCore {
            base: BaselineCore::new(cfg),
            ra: None,
            spec: SpecState {
                regs: [0; TOTAL_REGS],
                inv: [false; TOTAL_REGS],
                ready_at: [0; TOTAL_REGS],
                stores: StoreOverlay::default(),
            },
            stats: RunaheadStats::default(),
        }
    }

    fn kind(&self, _cfg: &MachineConfig) -> ModelKind {
        ModelKind::Runahead
    }

    /// Normal mode issues exactly as the baseline, except that a
    /// load-use stall opens a runahead episode instead of idling; the
    /// next cycle then runs in runahead mode, so it is never skipped.
    fn step(&mut self, m: &mut Machine<'_>, sink: &mut SinkHandle) -> (StallAttr, Option<u64>) {
        if let Some(ra) = self.ra {
            return self.ra_step(ra, m, sink);
        }
        let (attr, wake) = self.base.step(m, sink);
        if attr.cause.class() == CycleClass::LoadStall {
            let until = wake.expect("a load-use block wakes when its fill lands");
            self.enter_runahead(m, until, attr, sink);
            return (attr, None);
        }
        (attr, wake)
    }

    fn drained(&self, m: &Machine<'_>) -> bool {
        self.ra.is_none() && self.base.drained(m)
    }

    fn drive(
        engine: Engine<'_, Self>,
        max_instrs: u64,
        sink: Option<&mut dyn TraceSink>,
    ) -> RunOutput {
        engine.run_to_end(max_instrs, sink)
    }

    fn charge_span(&mut self, span: u64) {
        if self.ra.is_some() {
            self.stats.runahead_cycles += span;
        }
    }

    #[cfg(feature = "audit")]
    fn audit_span(&mut self, m: &mut Machine<'_>, attr: StallAttr, target: u64) {
        let Some(ra) = &self.ra else { return self.base.audit_span(m, attr, target) };
        // A skipped runahead cycle must be idle: episode still open and
        // nothing issuable.
        assert!(target - 1 < ra.until, "fast-forward overran the episode end");
        assert!(
            ra.done || m.frontend.complete_group_len().is_none(),
            "fast-forwarded runahead span had an issuable group"
        );
        assert_eq!(ra.attr, attr, "fast-forwarded runahead span changed attribution");
    }

    fn finish_report(&mut self, report: &mut SimReport) {
        report.collect_metrics();
        // The runahead counters are model-specific; splice them into the
        // uniform namespace by hand.
        let mut b = crate::metrics::MetricsBuilder::new();
        b.counter("runahead.episodes", self.stats.episodes)
            .counter("runahead.cycles", self.stats.runahead_cycles)
            .counter("runahead.loads", self.stats.runahead_loads)
            .counter("runahead.discarded_instrs", self.stats.discarded_instrs);
        report.metrics.counters.extend(b.build().counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Baseline;
    use crate::trace::Trace;
    use ff_isa::reg::{IntReg, PredReg};
    use ff_isa::{ArchState, CmpKind, MemoryImage, ProgramBuilder};

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
        let report = Runahead::new(&program, mem, cfg()).run(1_000_000);
        let counter = |name| report.metrics.counter(name).unwrap();
        assert!(counter("runahead.episodes") > 0);
        assert!(counter("runahead.loads") > 0, "{:?}", report.metrics);
        assert!(counter("runahead.cycles") >= counter("runahead.episodes"));
    }

    #[test]
    fn run_traced_records_episodes_and_matches_untraced_timing() {
        let (program, mem) = stream_program(64);
        let plain = Runahead::new(&program, mem.clone(), cfg()).run(1_000_000);
        let mut trace = Trace::new();
        let report = Runahead::new(&program, mem, cfg()).run_with_sink(1_000_000, &mut trace);
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
