//! Integration tests of the `repro` command-line surface.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let output = repro().output().expect("spawn repro");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage: repro"));
}

#[test]
fn unknown_experiment_is_rejected() {
    let output = repro().arg("table99").output().expect("spawn repro");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown experiment"));
}

#[test]
fn bad_scale_is_rejected() {
    for bad in ["-1", "0", "zebra"] {
        let output = repro()
            .args(["figure1", "--scale", bad])
            .output()
            .expect("spawn repro");
        assert!(!output.status.success(), "--scale {bad} accepted");
    }
}

#[test]
fn help_flag_prints_usage() {
    let output = repro().arg("--help").output().expect("spawn repro");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--scale"));
    assert!(stderr.contains("table1..table10"));
}

#[test]
fn figure1_regenerates_the_paper_derivation() {
    let output = repro().arg("figure1").output().expect("spawn repro");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("new nogood (union minus x5): ¬((x1=0) (x2=1) (x3=2))"));
    assert!(stdout.contains("[figure1 done"));
}

#[test]
fn csv_output_lands_in_the_requested_directory() {
    let dir = std::env::temp_dir().join(format!("repro-cli-test-{}", std::process::id()));
    let output = repro()
        .args([
            "table8",
            "--scale",
            "0.01",
            "--out",
            dir.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        assert_timings_in_seconds(&String::from_utf8_lossy(&output.stdout)),
        1
    );
    let csv = std::fs::read_to_string(dir.join("table8.csv")).expect("csv written");
    assert!(csv.starts_with("n,algorithm,cycle,maxcck"));
    // 4 sizes × 2 algorithms + header.
    assert_eq!(csv.lines().count(), 9);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Asserts every `done in` line of `stdout` matches `done in [0-9.]+s`,
/// the shape the documented normalizer
/// `sed 's/done in [0-9.]*s/done in Xs/'` rewrites. Returns how many
/// there were.
fn assert_timings_in_seconds(stdout: &str) -> usize {
    let mut count = 0;
    for line in stdout.lines() {
        let Some((_, rest)) = line.split_once("done in ") else {
            continue;
        };
        let value = rest.strip_suffix("s]").unwrap_or_default();
        assert!(
            !value.is_empty() && value.chars().all(|c| c.is_ascii_digit() || c == '.'),
            "timing line {line:?} does not match `done in [0-9.]+s`"
        );
        count += 1;
    }
    count
}

#[test]
fn timing_lines_are_in_seconds() {
    // figure1 finishes in microseconds, the case a `Duration` debug
    // print would render as `µs`.
    let output = repro().arg("figure1").output().expect("spawn repro");
    assert!(output.status.success());
    assert_eq!(
        assert_timings_in_seconds(&String::from_utf8_lossy(&output.stdout)),
        1
    );
}
