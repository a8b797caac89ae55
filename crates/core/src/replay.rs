//! Trace output that spans cycles, shared by every model.
//!
//! Most trace events belong to the cycle that emits them. Three kinds do
//! not, and [`TraceReplay`] keeps their state:
//!
//! * `MissEnd` — a fill booked at one cycle completes at a later one,
//!   so booked fills wait in a pending list until the clock reaches
//!   them.
//! * `ClassTransition` / `CauseTransition` — emitted only when the
//!   charged class or refined attribution differs from the previous
//!   cycle's.
//! * `QueueSample` — emitted only on a cycle whose `(depth, mshr)`
//!   occupancy differs from the last sample, plus one closing sample on
//!   the run's final cycle, so readers treat samples as a step function
//!   up to the end of the run.
//!
//! Because samples are change-driven, a fast-forwarded stall span (no
//! transitions, constant queue depth) is replayed by jumping between the
//! cycles where a booked fill lands or an MSHR entry expires
//! ([`TraceReplay::replay_span`]) rather than visiting every skipped
//! cycle. The output is identical to ticking each cycle.

use crate::accounting::{CycleClass, StallAttr};
use crate::report::Pipe;
use crate::sink::SinkHandle;
use crate::trace::TraceEvent;
use ff_mem::{MemLevel, MshrFile};

/// Cross-cycle trace state of one run. Only touched while a sink is
/// attached.
#[derive(Debug, Clone, Default)]
pub struct TraceReplay {
    /// In-flight fills awaiting a `MissEnd` event, as `(fill_at, addr,
    /// level)`.
    pending_misses: Vec<(u64, u64, MemLevel)>,
    last_class: Option<CycleClass>,
    last_attr: Option<StallAttr>,
    /// `(cycle, depth, mshr)` of the last emitted `QueueSample`.
    last_sample: Option<(u64, u32, u32)>,
}

impl TraceReplay {
    /// Fresh state for a new run.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits `MissBegin` for a fill booked at `cycle` and remembers it,
    /// so its `MissEnd` fires once the clock reaches `fill_at`.
    #[inline]
    pub fn miss_begin(
        &mut self,
        sink: &mut SinkHandle,
        cycle: u64,
        pipe: Pipe,
        level: MemLevel,
        addr: u64,
        fill_at: u64,
    ) {
        if sink.is_on() {
            sink.emit_with(|| TraceEvent::MissBegin { cycle, pipe, level, addr, fill_at });
            self.pending_misses.push((fill_at, addr, level));
        }
    }

    /// Emits `MissEnd` for every booked fill completed by `now`.
    pub fn drain_misses(&mut self, now: u64, sink: &mut SinkHandle) {
        let mut i = 0;
        while i < self.pending_misses.len() {
            if self.pending_misses[i].0 <= now {
                let (fill_at, addr, level) = self.pending_misses.swap_remove(i);
                sink.emit_with(|| TraceEvent::MissEnd { cycle: fill_at, addr, level });
            } else {
                i += 1;
            }
        }
    }

    /// Closes cycle `cycle`, charged to attribution `attr` (and so to
    /// its cause's class): emits the class and cause transitions it
    /// opens, then its occupancy sample if that changed.
    pub fn end_cycle(
        &mut self,
        cycle: u64,
        attr: StallAttr,
        depth: u32,
        mshr: u32,
        sink: &mut SinkHandle,
    ) {
        let class = attr.cause.class();
        if self.last_class != Some(class) {
            let from = self.last_class.unwrap_or(class);
            sink.emit_with(|| TraceEvent::ClassTransition { cycle, from, to: class });
            self.last_class = Some(class);
        }
        if self.last_attr != Some(attr) {
            sink.emit_with(|| TraceEvent::CauseTransition {
                cycle,
                cause: attr.cause,
                pc: attr.pc.map(|p| p as u64),
            });
            self.last_attr = Some(attr);
        }
        self.sample(cycle, depth, mshr, sink);
    }

    /// Emits a `QueueSample` for `cycle` unless `(depth, mshr)` equals
    /// the last one emitted.
    fn sample(&mut self, cycle: u64, depth: u32, mshr: u32, sink: &mut SinkHandle) {
        if !matches!(self.last_sample, Some((_, d, m)) if (d, m) == (depth, mshr)) {
            sink.emit_with(|| TraceEvent::QueueSample { cycle, depth, mshr });
            self.last_sample = Some((cycle, depth, mshr));
        }
    }

    /// Replays the trace output of the fast-forwarded stall span
    /// `[from, to)`: `MissEnd` at each booked fill's cycle and a sample
    /// wherever MSHR occupancy changes, in the order ticking each cycle
    /// would emit them. The span's class and cause are constant (no
    /// transitions fire) and its coupling-queue depth is `depth`; no
    /// fill is booked inside it, so occupancy can only change where a
    /// pending fill lands or an MSHR entry expires, and only those
    /// cycles are visited.
    pub fn replay_span(
        &mut self,
        from: u64,
        to: u64,
        depth: u32,
        mshrs: &MshrFile,
        sink: &mut SinkHandle,
    ) {
        if !sink.is_on() {
            return;
        }
        let mut c = from;
        while c < to {
            self.drain_misses(c, sink);
            self.sample(c, depth, mshrs.outstanding(c) as u32, sink);
            // Every pending fill lands after `c` now, as does any wakeup.
            let next_fill = self.pending_misses.iter().map(|m| m.0).min();
            let next = match (next_fill, mshrs.next_wakeup(c)) {
                (Some(f), Some(w)) => f.min(w),
                (f, w) => f.or(w).unwrap_or(to),
            };
            c = next.min(to);
        }
    }

    /// Emits the closing sample on `end - 1`, the run's final cycle,
    /// unless the last sample already marks it (call once the run loop
    /// has stopped, with the clock at `end`).
    pub fn close(&self, end: u64, sink: &mut SinkHandle) {
        if let Some((cycle, depth, mshr)) = self.last_sample {
            if cycle + 1 < end {
                sink.emit_with(|| TraceEvent::QueueSample { cycle: end - 1, depth, mshr });
            }
        }
    }
}
