//! Integration tests for the results warehouse, the query/diff layer,
//! and the HTML dashboard: roundtrips, regression-gate semantics,
//! Pareto extraction, byte-determinism, and the golden dashboard pin.
//!
//! Regenerate the pinned dashboard after an intentional rendering
//! change with:
//!
//! ```text
//! FF_BLESS_DASHBOARD=1 cargo test -p ff-bench --test report_warehouse
//! ```

use ff_bench::experiments;
use ff_bench::report::{
    compute_bounds_rows, content_hash, diff_reports, golden_record, mark_frontier, perf_record,
    render_dashboard, runs_dir_for, sweep_points, sweep_record, DashboardData, ParetoPoint,
    RunRecord, SweepLogEntry, Warehouse, CPI_NOISE_FLOOR, KIND_GOLDEN,
};
use ff_bench::selfprof::{HostInfo, PerfSnapshot, Section};
use ff_bench::sweep::{run_sweep, Cell, SweepOpts};
use ff_core::{SimReport, StallCause};
use ff_workloads::Scale;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};

/// A fresh, empty directory unique to this test process + name.
fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-report-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_report(bench: &str, model: &str) -> SimReport {
    let w = ff_workloads::benchmark_by_name(bench, Scale::Tiny).expect("known benchmark");
    experiments::run_model(&w, model.parse().expect("known model"))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn sweep_rows() -> Value {
    Value::Array(vec![
        obj(vec![
            ("benchmark", Value::Str("li-like".into())),
            ("size", Value::UInt(8)),
            ("cycles", Value::UInt(2000)),
            ("retired", Value::UInt(1000)),
        ]),
        obj(vec![
            ("benchmark", Value::Str("li-like".into())),
            ("size", Value::UInt(16)),
            ("cycles", Value::UInt(1000)),
            ("retired", Value::UInt(1000)),
        ]),
        obj(vec![
            // Dominated: costs more than size=16 yet runs no faster.
            ("benchmark", Value::Str("li-like".into())),
            ("size", Value::UInt(32)),
            ("cycles", Value::UInt(1000)),
            ("retired", Value::UInt(1000)),
        ]),
        obj(vec![
            ("benchmark", Value::Str("mcf-like".into())),
            ("size", Value::UInt(8)),
            ("cycles", Value::UInt(4000)),
            ("retired", Value::UInt(1000)),
        ]),
    ])
}

#[test]
fn warehouse_roundtrips_records_and_lists_them_sorted() {
    let wh = Warehouse::open(temp_store("roundtrip"));
    let sweep = sweep_record("ablate_queue", "tiny", sweep_rows());
    let path = wh.put(&sweep).expect("put sweep");
    assert!(path.exists());
    assert_eq!(sweep.content_hash, content_hash(&sweep.payload));

    let report = tiny_report("mcf-like", "2P");
    let golden = golden_record("mcf-like", "2P", "", "tiny", &report);
    wh.put(&golden).expect("put golden");
    let perf = perf_record("BENCH_2026-01-01", obj(vec![("date", Value::Str("x".into()))]));
    wh.put(&perf).expect("put perf");

    let back = wh.get(&golden.key).expect("get golden");
    assert_eq!(back, golden);
    let parsed = SimReport::from_value(&back.payload).expect("payload is a SimReport");
    assert_eq!(parsed, report);

    let listed = wh.list().expect("list");
    assert_eq!(listed.len(), 3);
    let keys: Vec<&str> = listed.iter().map(|r| r.key.as_str()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "listing must be key-sorted");
    assert!(wh.get("golden;kernel=nope").is_err(), "missing key must error");

    // Re-putting identical data is byte-stable: no churn in a
    // committed warehouse.
    let before = std::fs::read(&path).unwrap();
    wh.put(&sweep).expect("re-put");
    assert_eq!(before, std::fs::read(&path).unwrap());
}

#[test]
fn warehouse_rejects_foreign_layout_versions() {
    let rec = sweep_record("fig6", "tiny", sweep_rows());
    let mut v = rec.to_value();
    if let Value::Object(fields) = &mut v {
        for (k, val) in fields.iter_mut() {
            if k == "warehouse" {
                *val = Value::Str("99".into());
            }
        }
    }
    let err = RunRecord::from_value(&v).unwrap_err();
    assert!(err.to_string().contains("layout"), "{err}");
}

#[test]
fn diff_flags_only_regressions_beyond_threshold_and_noise_floor() {
    let a = tiny_report("mcf-like", "2P");
    assert!(a.retired > 0);
    let same = diff_reports(&a, &a, 0.05);
    assert!(!same.regressed(), "identical runs must not regress");

    // Degrade one cause by 50%: that cause and the total both move.
    let mut b = a.clone();
    let cause = StallCause::LoadMem;
    let old = b.breakdown2[cause];
    assert!(old > 0, "tiny mcf-like must show memory stalls");
    b.breakdown2.charge_n(cause, old / 2);
    b.breakdown.charge_n(cause.class(), old / 2);
    b.cycles += old / 2;
    b.collect_metrics();
    let diff = diff_reports(&a, &b, 0.05);
    assert!(diff.regressed());
    let row = diff.causes.iter().find(|c| c.cause == cause.label()).unwrap();
    assert!(row.regression, "the degraded cause itself must be flagged");
    assert!((row.rel - 0.5).abs() < 0.02, "relative growth ~50%, got {}", row.rel);

    // The same absolute movement is fine under a looser threshold.
    assert!(!diff_reports(&a, &b, 0.75).regressed());

    // Sub-noise-floor absolute movement never regresses, whatever the
    // relative change looks like: inflate retired so a one-cycle
    // wobble is microscopic in CPI terms, then charge one cycle.
    let mut base = a.clone();
    base.retired *= 10_000;
    let mut tiny_wiggle = base.clone();
    tiny_wiggle.breakdown2.charge_n(cause, 1);
    tiny_wiggle.breakdown.charge_n(cause.class(), 1);
    tiny_wiggle.cycles += 1;
    let d = diff_reports(&base, &tiny_wiggle, 0.0);
    let row = d.causes.iter().find(|c| c.cause == cause.label()).unwrap();
    assert!(row.delta > 0.0 && row.delta <= CPI_NOISE_FLOOR);
    assert!(!row.regression, "one-cycle wobble must stay under the noise floor");
}

#[test]
fn pareto_frontier_marks_dominance_within_groups() {
    let rows = sweep_rows();
    let mut points = sweep_points(&rows, "size").expect("pareto points");
    mark_frontier(&mut points);
    let find = |cost: f64, group: &str| -> &ParetoPoint {
        points.iter().find(|p| p.cost == cost && p.group == group).unwrap()
    };
    assert!(find(8.0, "li-like").on_frontier, "cheapest point is always on the frontier");
    assert!(find(16.0, "li-like").on_frontier);
    assert!(!find(32.0, "li-like").on_frontier, "same perf at higher cost is dominated");
    assert!(find(8.0, "mcf-like").on_frontier, "groups have independent frontiers");
    assert!((find(16.0, "li-like").perf - 1.0).abs() < 1e-12, "perf is IPC when retired exists");

    assert!(sweep_points(&rows, "no_such_field").is_err());
}

/// Builds the fixed two-kernel warehouse behind the dashboard tests.
fn dashboard_fixture(dir: &Path) -> (Warehouse, Vec<(String, PerfSnapshot)>) {
    let wh = Warehouse::open(dir);
    for (bench, model) in [("mcf-like", "base"), ("mcf-like", "2P"), ("li-like", "2P")] {
        let report = tiny_report(bench, model);
        wh.put(&golden_record(bench, model, "", "tiny", &report)).unwrap();
    }
    let fig6 = experiments::fig6(Scale::Tiny);
    let fig6_rows = Value::Array(fig6.iter().map(Serialize::to_value).collect());
    wh.put(&sweep_record("fig6", "tiny", fig6_rows)).unwrap();
    let fig7 = experiments::fig7(Scale::Tiny);
    let fig7_rows = Value::Array(fig7.iter().map(Serialize::to_value).collect());
    wh.put(&sweep_record("fig7", "tiny", fig7_rows)).unwrap();
    wh.append_sweep_log(&SweepLogEntry {
        experiment: "fig6".into(),
        date: "2026-01-01".into(),
        scale: "tiny".into(),
        code: "3".into(),
        jobs: 4,
        cells: 18,
        computed: 18,
        cached: 0,
        failed: 0,
        wall_ms: 1200,
    })
    .unwrap();
    wh.append_sweep_log(&SweepLogEntry {
        experiment: "fig6".into(),
        date: "2026-01-02".into(),
        scale: "tiny".into(),
        code: "3".into(),
        jobs: 4,
        cells: 18,
        computed: 0,
        cached: 18,
        failed: 0,
        wall_ms: 40,
    })
    .unwrap();
    let snapshot = |date: &str, seconds: f64| PerfSnapshot {
        date: date.to_string(),
        scale: "tiny".into(),
        host: HostInfo::default(),
        sections: vec![Section { name: "sim.2p".into(), seconds, instrs: 1_000_000 }],
    };
    let perf = vec![
        ("BENCH_2026-01-01".to_string(), snapshot("2026-01-01", 0.10)),
        ("BENCH_2026-01-02".to_string(), snapshot("2026-01-02", 0.08)),
    ];
    (wh, perf)
}

#[test]
fn dashboard_is_deterministic_and_self_contained() {
    let dir = temp_store("dashboard-det");
    let (wh, perf) = dashboard_fixture(&dir);
    let records = wh.list().unwrap();
    let sweep_log = wh.sweep_log();
    let bounds = compute_bounds_rows();
    let data = DashboardData {
        records: &records,
        sweep_log: &sweep_log,
        perf: &perf,
        bounds: &bounds,
        generated_at: Some("fixture"),
    };
    let first = render_dashboard(&data);
    let second = render_dashboard(&data);
    assert_eq!(first, second, "rendering twice must be byte-identical");

    // Self-contained: no network fetches, no scripts, one document.
    for banned in ["http://", "https://", "<script", "@import", "url("] {
        assert!(!first.contains(banned), "dashboard must not contain `{banned}`");
    }
    assert!(first.starts_with("<!DOCTYPE html>"));
    assert!(first.contains("<svg"), "CPI stacks are inline SVG");
    assert!(first.contains("mcf-like"), "golden runs are shown");
    assert!(first.contains("fig6"), "sweep records are shown");
    assert!(first.contains("sim.2p"), "perf sections are shown");
    assert!(first.contains("fixture"), "the supplied timestamp is echoed");
}

#[test]
fn dashboard_matches_the_golden_pin() {
    let dir = temp_store("dashboard-pin");
    let (wh, perf) = dashboard_fixture(&dir);
    let records = wh.list().unwrap();
    let sweep_log = wh.sweep_log();
    let bounds = compute_bounds_rows();
    let data = DashboardData {
        records: &records,
        sweep_log: &sweep_log,
        perf: &perf,
        bounds: &bounds,
        generated_at: Some("golden-fixture"),
    };
    let html = render_dashboard(&data);
    let pin = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dashboard.html");
    if std::env::var_os("FF_BLESS_DASHBOARD").is_some() {
        std::fs::write(&pin, &html).expect("bless dashboard pin");
        return;
    }
    let expected = std::fs::read_to_string(&pin)
        .expect("tests/golden/dashboard.html missing — regenerate with FF_BLESS_DASHBOARD=1");
    assert!(
        html == expected,
        "dashboard drifted from the golden pin; if intentional, regenerate with \
         FF_BLESS_DASHBOARD=1 cargo test -p ff-bench --test report_warehouse"
    );
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LogRow {
    name: String,
    value: u64,
}

#[test]
fn run_sweep_appends_an_invocation_summary_to_the_warehouse_log() {
    let cache = temp_store("sweep-log");
    let opts = SweepOpts {
        scale: Scale::Tiny,
        json: false,
        jobs: 2,
        cache: true,
        filter: None,
        cache_dir: cache.clone(),
        fast_forward: true,
    };
    let cells = || -> Vec<Cell<LogRow>> {
        (0..3)
            .map(|i| {
                Cell::new(format!("k{i}"), "m", "", move || LogRow {
                    name: format!("k{i}"),
                    value: i,
                })
            })
            .collect()
    };
    run_sweep("log-test", &opts, cells());
    run_sweep("log-test", &opts, cells());

    let wh = Warehouse::open(runs_dir_for(&cache));
    let log = wh.sweep_log();
    assert_eq!(log.len(), 2, "each invocation appends one line");
    assert!(log.iter().all(|e| e.experiment == "log-test" && e.cells == 3));
    assert_eq!(log[0].computed, 3);
    assert_eq!(log[0].cached, 0);
    assert_eq!(log[1].computed, 0, "second run is fully cached");
    assert_eq!(log[1].cached, 3);
    assert!((log[1].hit_rate() - 1.0).abs() < 1e-12);

    // The golden-record constructor and the gate share KIND_GOLDEN.
    let report = tiny_report("li-like", "base");
    assert_eq!(golden_record("li-like", "base", "", "tiny", &report).kind, KIND_GOLDEN);
}
