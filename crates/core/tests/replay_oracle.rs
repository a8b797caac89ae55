//! Differential test: [`ff_core::replay::TraceReplay`]'s event-driven
//! span replay vs a per-cycle reference loop.
//!
//! Random runs are generated with the vendored deterministic `rand`:
//! active cycles book fills against a real [`MshrFile`] (few distinct
//! lines, so requests merge, and a small file, so some are rejected) and
//! change the queue depth, class and cause at random; between them,
//! stall spans of random length are replayed. Fill times are steered
//! onto a span's first and last cycles and onto shared cycles, the
//! boundaries where a jump could skip or double-emit. The reference
//! visits every cycle the way the models did before replay became
//! event-driven, so the two event streams must be identical.

use ff_core::replay::TraceReplay;
use ff_core::{CycleClass, Pipe, SinkHandle, StallAttr, StallCause, Trace, TraceEvent};
use ff_mem::{MemLevel, MshrFile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Visits every cycle: drains completed fills, then samples occupancy,
/// emitting a sample only when it differs from the last one.
#[derive(Default)]
struct Reference {
    pending: Vec<(u64, u64, MemLevel)>,
    last_class: Option<CycleClass>,
    last_attr: Option<StallAttr>,
    last_sample: Option<(u64, u32, u32)>,
    out: Vec<TraceEvent>,
}

impl Reference {
    fn miss_begin(&mut self, cycle: u64, level: MemLevel, addr: u64, fill_at: u64) {
        self.out.push(TraceEvent::MissBegin { cycle, pipe: Pipe::B, level, addr, fill_at });
        self.pending.push((fill_at, addr, level));
    }

    /// The models' original drain, `swap_remove` order included.
    fn drain(&mut self, now: u64) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                let (cycle, addr, level) = self.pending.swap_remove(i);
                self.out.push(TraceEvent::MissEnd { cycle, addr, level });
            } else {
                i += 1;
            }
        }
    }

    fn sample(&mut self, cycle: u64, depth: u32, mshr: u32) {
        if self.last_sample.map(|(_, d, m)| (d, m)) != Some((depth, mshr)) {
            self.out.push(TraceEvent::QueueSample { cycle, depth, mshr });
            self.last_sample = Some((cycle, depth, mshr));
        }
    }

    fn end_cycle(&mut self, cycle: u64, attr: StallAttr, depth: u32, mshr: u32) {
        let class = attr.cause.class();
        if self.last_class != Some(class) {
            let from = self.last_class.unwrap_or(class);
            self.out.push(TraceEvent::ClassTransition { cycle, from, to: class });
            self.last_class = Some(class);
        }
        if self.last_attr != Some(attr) {
            let pc = attr.pc.map(|p| p as u64);
            self.out.push(TraceEvent::CauseTransition { cycle, cause: attr.cause, pc });
            self.last_attr = Some(attr);
        }
        self.sample(cycle, depth, mshr);
    }

    fn close(&mut self, end: u64) {
        if let Some((cycle, depth, mshr)) = self.last_sample {
            if cycle + 1 < end {
                self.out.push(TraceEvent::QueueSample { cycle: end - 1, depth, mshr });
            }
        }
    }
}

const ATTRS: [StallAttr; 4] = [
    StallAttr::at(StallCause::LoadMem, 3),
    StallAttr::at(StallCause::LoadL2, 3),
    StallAttr::at(StallCause::ResMshr, 5),
    StallAttr::new(StallCause::FeEmpty),
];

#[test]
fn event_driven_replay_matches_the_per_cycle_reference() {
    let (mut edge_fills, mut shared_fill_cycles, mut skipped) = (0u64, 0u64, 0u64);
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mshrs = MshrFile::new(rng.gen_range(1usize..=8));
        let mut trace = Trace::new();
        let mut sink = SinkHandle::on(&mut trace);
        let mut fast = TraceReplay::new();
        let mut reference = Reference::default();
        let (mut depth, mut attr) = (0u32, ATTRS[0]);
        let mut c = 0u64;
        for _ in 0..300 {
            // One active cycle, then the stall span [c + 1, span_end).
            let span_end = c + 1 + rng.gen_range(0u64..120);
            fast.drain_misses(c, &mut sink);
            reference.drain(c);
            for _ in 0..rng.gen_range(0usize..4) {
                let latency = match rng.gen_range(0u32..5) {
                    0 => 1,                         // the span's first cycle
                    1 => (span_end - c).max(2) - 1, // the span's last cycle
                    2 => span_end - c,              // the next active cycle
                    _ => rng.gen_range(1u64..300),
                };
                if latency == 1 || latency + 1 == span_end - c {
                    edge_fills += 1;
                }
                let line = rng.gen_range(0u64..6) * 64;
                let level = MemLevel::ALL[rng.gen_range(1usize..4)];
                let done = c + latency;
                let fill_at = mshrs.request(c, line, done, level).unwrap_or(done).max(done);
                let addr = line + rng.gen_range(0u64..64);
                fast.miss_begin(&mut sink, c, Pipe::B, level, addr, fill_at);
                reference.miss_begin(c, level, addr, fill_at);
            }
            if rng.gen_bool(0.3) {
                depth = rng.gen_range(0u32..3);
            }
            if rng.gen_bool(0.2) {
                attr = ATTRS[rng.gen_range(0usize..ATTRS.len())];
            }
            let mshr = mshrs.outstanding(c) as u32;
            fast.end_cycle(c, attr, depth, mshr, &mut sink);
            reference.end_cycle(c, attr, depth, mshr);

            fast.replay_span(c + 1, span_end, depth, &mshrs, &mut sink);
            for k in c + 1..span_end {
                let before = reference.out.len();
                reference.drain(k);
                if reference.out.len() > before + 1 {
                    shared_fill_cycles += 1;
                }
                reference.sample(k, depth, mshrs.outstanding(k) as u32);
                if reference.out.len() == before {
                    skipped += 1;
                }
            }
            c = span_end;
        }
        fast.close(c, &mut sink);
        reference.close(c);
        let got = trace.events();
        for (i, (g, want)) in got.iter().zip(&reference.out).enumerate() {
            assert_eq!(g, want, "seed {seed}: event {i} differs");
        }
        assert_eq!(got.len(), reference.out.len(), "seed {seed}: event count");
        assert!(mshrs.stats().merges > 0, "seed {seed}: no merged requests exercised");
    }
    assert!(edge_fills > 1000, "only {edge_fills} fills on span edges");
    assert!(shared_fill_cycles > 100, "only {shared_fill_cycles} cycles with several fills");
    assert!(skipped > 100_000, "only {skipped} silent cycles: the jump is barely exercised");
}
