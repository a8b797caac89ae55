//! Pre-decoded program store.
//!
//! The back ends of every model interrogate each instruction
//! many times — source/destination walks for the dependence check, the
//! FU class for slot packing, the fixed latency and refined stall cause
//! on every write. Re-deriving those from the `Opcode` every cycle is
//! pure waste: the program is static. [`DecodedProgram`] computes the
//! lot once at machine construction, so the steady state indexes a
//! dense array by pc instead of walking enum matches.

use crate::accounting::StallCause;
use crate::config::OpLatencies;
use ff_isa::{FuClass, Instruction, Program, RegList};

/// Everything the engines need to know about one static instruction.
#[derive(Debug, Clone, Copy)]
pub struct DecodedInsn {
    /// The instruction itself (for `evaluate`).
    pub insn: Instruction,
    /// All sources *including* the qualifying predicate.
    pub srcs: RegList,
    /// Operation sources only (the A-pipe defer check treats the
    /// qualifying predicate specially).
    pub op_srcs: RegList,
    /// Destination registers.
    pub dests: RegList,
    /// Functional-unit class, for slot packing.
    pub fu: FuClass,
    /// Whether this is a load (variable latency).
    pub is_load: bool,
    /// Whether this is a store.
    pub is_store: bool,
    /// Whether this uses the FP subpipeline.
    pub is_fp: bool,
    /// Whether this is `halt`.
    pub is_halt: bool,
    /// Fixed execution latency under the machine's `OpLatencies`
    /// (0 for loads: the hierarchy decides).
    pub latency: u64,
    /// Refined stall cause charged to consumers of this producer.
    pub dep_cause: StallCause,
}

/// The whole program, decoded once, indexed by pc.
#[derive(Debug)]
pub struct DecodedProgram {
    insns: Vec<DecodedInsn>,
}

impl DecodedProgram {
    /// Decodes `program` under the machine's operation latencies.
    ///
    /// The static facts (operand walks, FU class, kind flags) come from
    /// the shared [`ff_isa::InsnFacts`] extraction — the same definition
    /// the `ff-verify` static checker analyzes — so this store only adds
    /// the machine-specific annotations (latency, refined stall cause).
    #[must_use]
    pub fn new(program: &Program, lat: &OpLatencies) -> Self {
        let insns = program
            .iter()
            .map(|insn| {
                let f = insn.facts();
                let latency = lat.for_class(f.lc, 0);
                DecodedInsn {
                    insn: *insn,
                    srcs: f.srcs,
                    op_srcs: f.op_srcs,
                    dests: f.dests,
                    fu: f.fu,
                    is_load: f.is_load,
                    is_store: f.is_store,
                    is_fp: f.is_fp,
                    is_halt: f.is_halt,
                    latency,
                    dep_cause: StallCause::dep(f.lc),
                }
            })
            .collect();
        DecodedProgram { insns }
    }

    /// The decoded instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range (the front end only hands out pcs
    /// it validated against the program).
    #[inline]
    #[must_use]
    pub fn at(&self, pc: usize) -> &DecodedInsn {
        &self.insns[pc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::reg::{IntReg, PredReg, RegId};
    use ff_isa::{CmpKind, ProgramBuilder};

    #[test]
    fn decode_matches_on_the_fly_derivation() {
        let mut b = ProgramBuilder::new();
        let top = b.here();
        b.movi(IntReg::n(1), 5);
        b.ld8(IntReg::n(2), IntReg::n(1), 0);
        b.stop();
        b.cmpi(CmpKind::Lt, PredReg::n(1), PredReg::n(2), IntReg::n(2), 4);
        b.stop();
        b.br_cond(PredReg::n(1), top);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let lat = OpLatencies::defaults();
        let dec = DecodedProgram::new(&program, &lat);
        for (pc, insn) in program.iter().enumerate() {
            let d = dec.at(pc);
            assert_eq!(d.insn, *insn);
            assert_eq!(d.srcs, insn.sources());
            assert_eq!(d.op_srcs, insn.op.sources());
            assert_eq!(d.dests, insn.dests());
            assert_eq!(d.fu, insn.op.fu_class());
            assert_eq!(d.is_load, insn.op.is_load());
            assert_eq!(d.is_store, insn.op.is_store());
            assert_eq!(d.is_fp, insn.op.is_fp());
            assert_eq!(d.dep_cause, StallCause::dep(insn.op.latency_class()));
        }
        // The conditional branch reads its qualifying predicate.
        assert!(dec.at(3).srcs.contains(RegId::Pred(PredReg::n(1))));
        assert!(dec.at(3).op_srcs.is_empty());
        assert!(dec.at(4).is_halt);
        assert_eq!(dec.at(1).latency, 0, "loads carry no fixed latency");
    }
}
