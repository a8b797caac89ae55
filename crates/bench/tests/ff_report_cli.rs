//! CLI contract tests for `ff_report capture`: every model name the
//! other tools accept captures a golden run under its canonical
//! warehouse key, and an unknown name exits nonzero without panicking.

use std::process::{Command, Output};

fn capture(dir: &std::path::Path, model: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ff_report"))
        .args(["capture", "--bench", "mcf-like", "--scale", "tiny", "--model", model, "--dir"])
        .arg(dir)
        .output()
        .expect("spawn ff_report")
}

#[test]
fn capture_accepts_every_model_spelling_and_rejects_unknown_ones() {
    let dir = std::env::temp_dir().join(format!("ff_report_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let out = capture(&dir, "runahead");
    assert!(out.status.success(), "runahead: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("model=runahead;"), "stdout:\n{stdout}");

    // The `ff_trace record` spelling stores the canonical `2P` key.
    let out = capture(&dir, "2p");
    assert!(out.status.success(), "2p: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("golden;kernel=mcf-like;model=2P;params=;scale=tiny;"), "{stdout}");

    let out = capture(&dir, "nope");
    assert_eq!(out.status.code(), Some(1), "an unknown model is an error, not a panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown model `nope`"), "stderr:\n{stderr}");
    assert!(stderr.contains("base, 2P, 2Pre, runahead"), "stderr must list the models:\n{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}
