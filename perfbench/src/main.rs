//! ff-perfbench — the repository benchmark.
//!
//! ```text
//! ff-perfbench --workload paper-grid|synth-chase|synth-resident|traced
//!              [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One operation is one (kernel, model) simulation. After set-up, a
//! golden interpreter run per kernel and one untimed warm-up pass, the
//! benchmark repeats passes over every operation for `--seconds`,
//! timing each call between two host-calibration probes (see
//! [`calib`]). Every operation's output is checked outside the timed
//! region. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (see [`layers`]) with `--trace 1`.
//! The line before it records the host.
//!
//! Single-threaded; writes nothing to disk.

mod calib;
mod layers;
mod workload;

use calib::Calibrator;
use ff_core::{JsonlSink, SimReport};
use ff_isa::ArchState;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Bench, FinalState, Kernel, Model, DEFAULT_SEED};

const USAGE: &str = "usage: ff-perfbench --workload paper-grid|synth-chase|synth-resident|traced \
[--seed N] [--seconds S] [--trace 0|1]";

/// Workload builds timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// The regrouping gain the paper reports (Figure 6: 2Pre over 2P).
const PAPER_REGROUP_GAIN: f64 = 1.08;

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bench = None;
    let mut args =
        Args { bench: Bench::PaperGrid, seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    args.bench = bench.ok_or("--workload is required")?;
    Ok(args)
}

/// The interpreter's result for one kernel: what every model must
/// reproduce.
struct Golden {
    instrs: u64,
    state: FinalState,
}

/// Host time of one timed call, and the host speed the calibration
/// probes around it measured.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub start: Instant,
    pub end: Instant,
    pub speed: f64,
}

impl Timing {
    /// Host seconds scaled to the reference host.
    pub fn norm_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * self.speed
    }
}

/// The calibration probe and every raw rate it measured.
pub struct Clock {
    cal: Calibrator,
    rates: Vec<f64>,
    /// Speed from the probe that closed the previous timed call.
    last: Option<f64>,
}

impl Clock {
    fn probe(&mut self) -> f64 {
        let (speed, rate) = self.cal.probe();
        self.rates.push(rate);
        speed
    }

    /// Times `f`, bracketed by calibration probes; the call's speed is
    /// the mean of the probe before and the probe after it. The probe
    /// after one call is the probe before the next.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = match self.last.take() {
            Some(speed) => speed,
            None => self.probe(),
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let after = self.probe();
        self.last = Some(after);
        (out, Timing { start, end, speed: (before + after) / 2.0 })
    }
}

/// Kernels, their golden results and the per-operation reference
/// reports, plus the attempted/failed tally.
pub struct Harness {
    bench: Bench,
    kernels: Vec<Kernel>,
    golden: Vec<Golden>,
    /// First (warm-up) report of each operation, indexed
    /// `kernel * 4 + model`.
    reference: Vec<Option<SimReport>>,
    clock: Clock,
    attempted: u64,
    failed: u64,
}

impl Harness {
    pub fn reference(&self, k: usize, m: Model) -> Option<&SimReport> {
        self.reference[k * 4 + m.index()].as_ref()
    }

    /// Runs operation (`k`, `m`) once as the workload defines it,
    /// timed, and checks its output outside the timed region. Returns
    /// the timing and the report, or `None` when the operation failed.
    pub fn op(&mut self, k: usize, m: Model) -> Option<(Timing, SimReport)> {
        self.run_checked(k, m, self.bench.traced())
    }

    /// One timed, checked call of (`k`, `m`), streaming every event into
    /// a JSONL sink when `traced`. A traced run exposes no final state,
    /// so it is checked against the reference report alone.
    fn run_checked(&mut self, k: usize, m: Model, traced: bool) -> Option<(Timing, SimReport)> {
        self.attempted += 1;
        let w = &self.kernels[k].w;
        let outcome = if traced {
            let (run, t) = self.clock.time(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    let mut sink = JsonlSink::new(std::io::sink());
                    let r = m.run_with_sink(w, w.budget, true, &mut sink);
                    (r, sink.errored())
                }))
            });
            match run {
                Ok((_, true)) => Err("JSONL sink write failed".to_string()),
                Ok((r, false)) => self.check_repeat(k, m, &r).map(|()| (t, r)),
                Err(_) => Err("panicked".to_string()),
            }
        } else {
            let (run, t) = self
                .clock
                .time(|| catch_unwind(AssertUnwindSafe(|| m.run_with_state(w, w.budget, true))));
            match run {
                Ok((r, state)) => self
                    .check_golden(k, &r, &state)
                    .and_then(|()| self.check_repeat(k, m, &r))
                    .map(|()| (t, r)),
                Err(_) => Err("panicked".to_string()),
            }
        };
        outcome.map_err(|e| self.fail(k, m, &e)).ok()
    }

    /// Counts one extra layer call of (`k`, `m`) as an operation,
    /// failed when `check` rejects it given the reference report.
    pub fn check_extra(
        &mut self,
        k: usize,
        m: Model,
        check: impl FnOnce(&SimReport) -> Result<(), &'static str>,
    ) {
        self.attempted += 1;
        let verdict = self.reference(k, m).map_or(Err("no reference report"), check);
        if let Err(e) = verdict {
            self.fail(k, m, e);
        }
    }

    fn fail(&mut self, k: usize, m: Model, why: &str) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("FAILED {} on {}: {why}", self.kernels[k].label, m.key());
        }
    }

    fn check_golden(&self, k: usize, r: &SimReport, state: &FinalState) -> Result<(), String> {
        let g = &self.golden[k];
        if r.retired != g.instrs {
            return Err(format!("retired {} != interpreter {}", r.retired, g.instrs));
        }
        if state.0 != g.state.0 {
            return Err("final registers differ from the interpreter".into());
        }
        if state.1 != g.state.1 {
            return Err("final memory differs from the interpreter".into());
        }
        Ok(())
    }

    /// Repeats must reproduce the first report exactly; the first
    /// becomes the reference.
    fn check_repeat(&mut self, k: usize, m: Model, r: &SimReport) -> Result<(), String> {
        match &self.reference[k * 4 + m.index()] {
            Some(first) if first != r => Err("report differs from the first run".into()),
            Some(_) => Ok(()),
            None => {
                self.reference[k * 4 + m.index()] = Some(r.clone());
                Ok(())
            }
        }
    }

    /// Warm-up pass, untimed: every operation once. On `traced` an
    /// untraced run comes first, so it is the one checked against the
    /// interpreter and becomes the reference the traced runs must equal.
    fn warm_up(&mut self) {
        for k in 0..self.kernels.len() {
            for m in Model::ALL {
                if self.bench.traced() {
                    self.run_checked(k, m, false);
                }
                self.op(k, m);
            }
        }
    }
}

/// Builds the workload `SETUP_REPS` times; returns the last build and
/// the median normalized build time.
fn setup(bench: Bench, seed: u64, clock: &mut Clock) -> (Vec<Kernel>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kernels = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut kernels));
        let (built, t) = clock.time(|| bench.build(seed));
        kernels = built;
        times.push(t.norm_s());
    }
    (kernels, median(&mut times))
}

fn golden(kernels: &[Kernel]) -> Vec<Golden> {
    kernels
        .iter()
        .map(|k| {
            let mut st = ArchState::new(&k.w.program, k.w.memory.clone());
            st.run(k.w.budget);
            assert!(st.is_halted(), "{} must halt within its budget", k.label);
            Golden { instrs: st.instr_count(), state: (*st.reg_bits(), st.mem().clone()) }
        })
        .collect()
}

/// First quartile by nearest rank (the minimum below four samples).
/// `v` must not be empty.
fn lower_quartile(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 4]
}

/// Median; sorts `v` in place. 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Normalized host seconds of every timed call, per operation
/// (`kernel * 4 + model`).
pub struct Samples(Vec<Vec<f64>>);

/// Runs passes over every operation, in kernel-major order so slow
/// host drift reaches every model alike, until `seconds` have elapsed
/// (at least one pass), adding every call to `samples`. `on_op` sees
/// each successful call.
pub fn timed_passes(
    h: &mut Harness,
    seconds: f64,
    samples: &mut Samples,
    mut on_op: impl FnMut(Model, &Timing, &SimReport),
) {
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        for k in 0..h.kernels.len() {
            for m in Model::ALL {
                if let Some((t, r)) = h.op(k, m) {
                    on_op(m, &t, &r);
                    samples.0[k * 4 + m.index()].push(t.norm_s());
                }
            }
        }
        passes += 1;
    }
}

impl Samples {
    pub fn new(h: &Harness) -> Samples {
        Samples(vec![Vec::new(); h.kernels.len() * 4])
    }

    /// Retired instructions and the sum of per-operation first-quartile
    /// normalized seconds over the operations of `models`. Interference
    /// from other tenants only ever slows a call, and the probe tracks
    /// it only in part, so the lower quartile is steadier than the
    /// median and, unlike the minimum, not set by one misread probe.
    fn totals(&self, h: &Harness, models: &[Model]) -> (u64, f64) {
        let (mut n, mut s) = (0, 0.0);
        for k in 0..h.kernels.len() {
            for &m in models {
                let times = &self.0[k * 4 + m.index()];
                if let (Some(r), false) = (h.reference(k, m), times.is_empty()) {
                    n += r.retired;
                    s += lower_quartile(times);
                }
            }
        }
        (n, s)
    }

    /// Simulated Minstr per normalized host second of model `m`.
    pub fn sim_mips(&self, h: &Harness, m: Model) -> f64 {
        let (n, s) = self.totals(h, &[m]);
        n as f64 / s / 1e6
    }

    /// Normalized host seconds per simulated instruction over every
    /// model.
    pub fn s_per_instr(&self, h: &Harness) -> f64 {
        let (n, s) = self.totals(h, &Model::ALL);
        s / n as f64
    }
}

/// |mean(2P/base cycles) / mean(2Pre/base cycles) - 1.08| over the
/// workload's kernels.
fn paper_err(h: &Harness) -> Option<f64> {
    let (mut p, mut re) = (0.0, 0.0);
    for k in 0..h.kernels.len() {
        let base = h.reference(k, Model::Base)?.cycles as f64;
        p += h.reference(k, Model::TwoPass)?.cycles as f64 / base;
        re += h.reference(k, Model::TwoPassRegroup)?.cycles as f64 / base;
    }
    Some((p / re - PAPER_REGROUP_GAIN).abs())
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (a zero-time division) become null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn end_to_end(h: &mut Harness, args: &Args, setup_s: f64) -> Vec<Metric> {
    let mut samples = Samples::new(h);
    timed_passes(h, args.seconds, &mut samples, |_, _, _| {});
    let mut out: Vec<Metric> = Model::ALL
        .into_iter()
        .map(|m| metric(format!("sim_mips.{}", m.key()), samples.sim_mips(h, m), "Minstr/s"))
        .collect();
    out.push(metric("setup_s", setup_s, "s"));
    out.push(metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"));
    out.push(metric("paper_err", paper_err(h).unwrap_or(f64::NAN), "ratio"));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut clock = Clock { cal: Calibrator::new(), rates: Vec::new(), last: None };
    let (kernels, setup_s) = setup(args.bench, args.seed, &mut clock);
    let golden = golden(&kernels);
    let n_ops = kernels.len() * 4;
    let mut h = Harness {
        bench: args.bench,
        kernels,
        golden,
        reference: vec![None; n_ops],
        clock,
        attempted: 0,
        failed: 0,
    };
    h.warm_up();

    let metrics = if args.trace {
        layers::measure(&mut h, args.seconds)
    } else {
        end_to_end(&mut h, &args, setup_s)
    };

    let host = ff_bench::selfprof::HostInfo::detect();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{\"rustc\": {}, \
         \"opt_level\": {}, \"cpu\": {}, \"nproc\": {}, \"cal_rate_msteps\": {}}}}}",
        json_str(args.bench.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        json_str(&host.rustc),
        json_str(&host.opt_level),
        json_str(&host.cpu),
        nproc,
        json_num(median(&mut h.clock.rates.clone()) / 1e6),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let correct = h.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        h.attempted,
        h.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
