//! A benchmark run writes nothing into the repository, reports a
//! correct result on its last stdout line, and rejects bad arguments.

use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark lives one level below the root")
}

/// `git status --porcelain` of the repository, or `None` outside a git
/// checkout.
fn git_status() -> Option<Vec<u8>> {
    let out = Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=all", "--ignored=no"])
        .current_dir(repo_root())
        .output()
        .ok()?;
    out.status.success().then_some(out.stdout)
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ff-perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn runs_leave_the_tree_clean_and_report_correct_results() {
    let before = git_status();
    for trace in ["0", "1"] {
        let out =
            bench(&["--workload", "traced", "--seed", "1", "--seconds", "0", "--trace", trace]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    }
    match before {
        Some(before) => assert_eq!(
            String::from_utf8_lossy(&before),
            String::from_utf8_lossy(&git_status().expect("still a git checkout")),
            "a benchmark run changed the repository"
        ),
        None => eprintln!("not a git checkout; tree-cleanliness check skipped"),
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--seed", "1"],
        &["--workload", "traced", "--trace", "2"],
        &["--workload", "traced", "--seconds"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
