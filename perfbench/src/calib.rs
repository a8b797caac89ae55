//! Host-speed calibration.
//!
//! Absolute simulator throughput on a shared host moves by ±20–25%
//! between identical trials, because other tenants take CPU time and
//! cache. The calibration kernel is a small match-dispatch interpreter
//! over a 1 MB table: like the simulator it is branchy, dispatch-bound
//! and touches more memory than a host L1 holds, so host slowdowns hit
//! both alike. It uses no repository code, so a speed-up of any
//! simulator crate cannot leak into the normalizer.
//!
//! A probe runs before every timed call; the call's host time is scaled
//! by the probe's speed relative to [`REF_STEPS_PER_SEC`], giving the
//! time the call would have taken on the reference host.

use std::hint::black_box;
use std::time::Instant;

/// Probe speed of the reference host (an Intel Xeon at 2.1 GHz, two
/// cores shared with other tenants). Normalized times are expressed on
/// this host; changing the constant rescales every normalized metric.
pub const REF_STEPS_PER_SEC: f64 = 180.0e6;

/// Interpreter steps per probe (a few milliseconds on the reference
/// host).
const PROBE_STEPS: u64 = 1 << 20;

const TABLE_WORDS: usize = (1 << 20) / 8;

/// One instruction of the toy interpreter. Registers are `r0..r3`.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `r[d] = xorshift(r[d])`
    Hash(usize),
    /// `r[d] = table[r[a] % len]`
    Load(usize, usize),
    /// `r[d] += r[a]`
    Add(usize, usize),
    /// `table[r[a] % len] = r[v]`
    Store(usize, usize),
    /// Jump to `target` when `r[c]` is odd (data-dependent, unlearnable).
    BrOdd(usize, usize),
    /// Unconditional jump.
    Jmp(usize),
}

/// The calibration kernel and its state.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    code: [Op; 8],
    regs: [u64; 4],
}

impl Calibrator {
    /// Builds the kernel with a fixed table image.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x >> 7
            })
            .collect();
        let code = [
            Op::Hash(0),
            Op::Load(1, 0),
            Op::Add(2, 1),
            Op::BrOdd(1, 5),
            Op::Add(3, 0),
            Op::Store(1, 2),
            Op::Load(3, 2),
            Op::Jmp(0),
        ];
        Calibrator { table, code, regs: [1, 0, 0, 0] }
    }

    fn run(&mut self, steps: u64) -> u64 {
        let mask = TABLE_WORDS as u64 - 1;
        let (table, code, r) = (&mut self.table, &self.code, &mut self.regs);
        let mut pc = 0;
        for _ in 0..steps {
            pc = match code[pc] {
                Op::Hash(d) => {
                    let mut v = r[d];
                    v ^= v << 13;
                    v ^= v >> 7;
                    v ^= v << 17;
                    r[d] = v;
                    pc + 1
                }
                Op::Load(d, a) => {
                    r[d] = table[(r[a] & mask) as usize];
                    pc + 1
                }
                Op::Add(d, a) => {
                    r[d] = r[d].wrapping_add(r[a]);
                    pc + 1
                }
                Op::Store(a, v) => {
                    table[(r[a] & mask) as usize] = r[v];
                    pc + 1
                }
                Op::BrOdd(c, target) => {
                    if r[c] & 1 == 1 {
                        target
                    } else {
                        pc + 1
                    }
                }
                Op::Jmp(target) => target,
            };
        }
        r[2] ^ r[3]
    }

    /// Runs one probe and returns the host's speed relative to the
    /// reference host (2.0 = twice as fast) and the raw probe rate in
    /// steps per second.
    pub fn probe(&mut self) -> (f64, f64) {
        let t = Instant::now();
        black_box(self.run(black_box(PROBE_STEPS)));
        let rate = PROBE_STEPS as f64 / t.elapsed().as_secs_f64();
        (rate / REF_STEPS_PER_SEC, rate)
    }
}
