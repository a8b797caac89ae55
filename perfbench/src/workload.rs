//! The benchmark's workloads and the four machine models, driven only
//! through the crates' public entry points.

use ff_core::{Baseline, MachineConfig, Runahead, SimReport, TraceSink, TwoPass};
use ff_isa::{MemoryImage, TOTAL_REGS};
use ff_workloads::synth::{AccessPattern, BranchBehavior, SynthSpec};
use ff_workloads::{paper_benchmarks, Scale, Workload};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// The simulated machines of Figures 6/7 plus the §2 runahead
/// comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Base,
    TwoPass,
    TwoPassRegroup,
    Runahead,
}

/// Final architectural state: registers and data memory.
pub type FinalState = ([u64; TOTAL_REGS], MemoryImage);

impl Model {
    pub const ALL: [Model; 4] =
        [Model::Base, Model::TwoPass, Model::TwoPassRegroup, Model::Runahead];

    /// Metric-name key (`sim_mips.<key>`, `core.<key>.*`).
    pub fn key(self) -> &'static str {
        match self {
            Model::Base => "base",
            Model::TwoPass => "2p",
            Model::TwoPassRegroup => "2pre",
            Model::Runahead => "runahead",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// The Table 1 machine for this model, fast-forward as given.
    fn config(self, fast_forward: bool) -> MachineConfig {
        let mut cfg = MachineConfig::paper_table1();
        cfg.fast_forward = fast_forward;
        cfg.two_pass.regroup = self == Model::TwoPassRegroup;
        cfg
    }

    /// Untraced run returning the final architectural state.
    pub fn run_with_state(self, w: &Workload, budget: u64, ff: bool) -> (SimReport, FinalState) {
        let (p, m, cfg) = (&w.program, w.memory.clone(), self.config(ff));
        let (report, regs, mem) = match self {
            Model::Base => Baseline::new(p, m, cfg).run_with_state(budget),
            Model::TwoPass | Model::TwoPassRegroup => {
                TwoPass::new(p, m, cfg).run_with_state(budget)
            }
            Model::Runahead => Runahead::new(p, m, cfg).run_with_state(budget),
        };
        (report, (regs, mem))
    }

    /// Run with every trace event streamed into `sink`.
    pub fn run_with_sink(
        self,
        w: &Workload,
        budget: u64,
        ff: bool,
        sink: &mut dyn TraceSink,
    ) -> SimReport {
        let (p, m, cfg) = (&w.program, w.memory.clone(), self.config(ff));
        match self {
            Model::Base => Baseline::new(p, m, cfg).run_with_sink(budget, sink),
            Model::TwoPass | Model::TwoPassRegroup => {
                TwoPass::new(p, m, cfg).run_with_sink(budget, sink)
            }
            Model::Runahead => Runahead::new(p, m, cfg).run_with_sink(budget, sink),
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// The ten Table 2 kernels at ref scale, untraced (fixed kernels).
    PaperGrid,
    /// Seeded memory-bound pointer-chase and random-index kernels.
    SynthChase,
    /// Seeded L1-resident stream kernels with ALU/FP chains.
    SynthResident,
    /// The ten Table 2 kernels, every event streamed to a JSONL sink
    /// (fixed kernels).
    Traced,
}

/// A kernel with a benchmark-local label.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub label: String,
    pub w: Workload,
}

/// Footprint of the `synth-chase` kernels: 16 MB, more than 8x the
/// 1.5 MB modelled L3.
const CHASE_FOOTPRINT: u64 = 16 << 20;
/// Footprint of the `synth-resident` kernels: half the 16 KB L1.
const RESIDENT_FOOTPRINT: u64 = 8 << 10;

impl Bench {
    pub const ALL: [Bench; 4] =
        [Bench::PaperGrid, Bench::SynthChase, Bench::SynthResident, Bench::Traced];

    pub fn name(self) -> &'static str {
        match self {
            Bench::PaperGrid => "paper-grid",
            Bench::SynthChase => "synth-chase",
            Bench::SynthResident => "synth-resident",
            Bench::Traced => "traced",
        }
    }

    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Whether every timed run streams its events into a JSONL sink.
    pub fn traced(self) -> bool {
        self == Bench::Traced
    }

    /// Builds the workload's kernels. Only the synthetic workloads read
    /// `seed`; `paper-grid` and `traced` use the fixed Table 2 kernels.
    pub fn build(self, seed: u64) -> Vec<Kernel> {
        match self {
            Bench::PaperGrid => table2(Scale::Reference),
            // Tiny scale keeps JSONL serialization (30-60x an untraced
            // run) within the run's time while every kernel still runs
            // to completion.
            Bench::Traced => table2(Scale::Tiny),
            Bench::SynthChase => {
                let chase = SynthSpec {
                    iterations: 20_000,
                    footprint_bytes: CHASE_FOOTPRINT,
                    access: AccessPattern::PointerChase,
                    alu_chain: 2,
                    fp_chain: 0,
                    // A store to the next node would pull its line into
                    // L1 before the chase loads it, hiding every miss.
                    store_every: false,
                    branch: BranchBehavior::None,
                    seed: 0,
                };
                let random =
                    SynthSpec { access: AccessPattern::RandomIndex, store_every: true, ..chase };
                let br = BranchBehavior::DataDependent;
                seeded(
                    seed,
                    &[
                        ("chase", chase),
                        ("chase-br", SynthSpec { alu_chain: 3, branch: br, ..chase }),
                        ("random", random),
                        (
                            "random-br",
                            SynthSpec { alu_chain: 1, fp_chain: 1, branch: br, ..random },
                        ),
                    ],
                )
            }
            Bench::SynthResident => {
                let stream = SynthSpec {
                    iterations: 12_000,
                    footprint_bytes: RESIDENT_FOOTPRINT,
                    access: AccessPattern::Stream { stride: 8 },
                    alu_chain: 3,
                    fp_chain: 2,
                    store_every: true,
                    branch: BranchBehavior::DataDependent,
                    seed: 0,
                };
                seeded(
                    seed,
                    &[
                        ("stream", stream),
                        (
                            "stream-line",
                            SynthSpec {
                                access: AccessPattern::Stream { stride: 64 },
                                alu_chain: 2,
                                fp_chain: 4,
                                ..stream
                            },
                        ),
                        (
                            "random",
                            SynthSpec {
                                access: AccessPattern::RandomIndex,
                                alu_chain: 4,
                                fp_chain: 1,
                                ..stream
                            },
                        ),
                    ],
                )
            }
        }
    }
}

fn table2(scale: Scale) -> Vec<Kernel> {
    paper_benchmarks(scale).into_iter().map(|w| Kernel { label: w.name.to_string(), w }).collect()
}

/// One kernel per shape, each with a data seed drawn from the workload
/// seed. The seed changes data only (chase order, table contents),
/// never a kernel's shape, so throughput is comparable across seeds.
fn seeded(seed: u64, shapes: &[(&str, SynthSpec)]) -> Vec<Kernel> {
    let mut rng = SplitMix(seed);
    shapes
        .iter()
        .map(|&(label, spec)| Kernel {
            label: label.to_string(),
            w: SynthSpec { seed: rng.next(), ..spec }.build(),
        })
        .collect()
}

/// SplitMix64: derives the synthetic kernels' data seeds from the
/// workload seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
