//! `rpctl audit` and `rpctl publish` refuse the same inputs with the same
//! message: each check `Publisher` runs before it groups a table (an SA
//! domain of one value, no public attribute, `p`, `λ` or `δ` out of
//! range) ends both commands with exit status 1 and one `error:` line,
//! never a panic.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh directory for one test's files.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpctl-refusals-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `rpctl` with `args` and returns its exit code and standard error.
fn rpctl(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rpctl"))
        .args(args)
        .output()
        .expect("rpctl runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Writes `csv` into `dir` and checks that `audit` and `publish` with the
/// `extra` options both exit 1 with `error: {message}` and nothing else.
fn refused_alike(test: &str, csv: &str, extra: &[&str], message: &str) {
    let dir = scratch_dir(test);
    let input = dir.join("input.csv");
    std::fs::write(&input, csv).expect("write csv");
    let output = dir.join("release.rppub");
    let input = input.to_str().expect("utf-8 path");
    let mut audit = vec!["audit", "--input", input, "--sa", "Disease"];
    audit.extend_from_slice(extra);
    let mut publish = audit.clone();
    publish[0] = "publish";
    publish.extend_from_slice(&["--output", output.to_str().expect("utf-8 path")]);
    let want = (Some(1), format!("error: {message}\n"));
    assert_eq!(rpctl(&audit), want, "audit {extra:?}");
    assert_eq!(rpctl(&publish), want, "publish {extra:?}");
    assert!(
        !Path::new(&output).exists(),
        "a refused publish wrote a release"
    );
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

const TWO_DISEASES: &str = "Job,Disease\neng,flu\ndoc,none\neng,none\n";

#[test]
fn an_sa_column_with_one_value_is_refused() {
    refused_alike(
        "one-value",
        "Job,Disease\neng,flu\ndoc,flu\n",
        &[],
        "SA domain must have at least 2 values, got 1",
    );
}

#[test]
fn a_table_of_only_the_sa_column_is_refused() {
    refused_alike(
        "sa-only",
        "Disease\nflu\nnone\n",
        &[],
        "table needs at least one public attribute besides SA",
    );
}

#[test]
fn a_retention_outside_the_unit_interval_is_refused() {
    refused_alike(
        "p",
        TWO_DISEASES,
        &["--p", "1.5"],
        "retention p must lie in (0, 1), got 1.5",
    );
}

#[test]
fn a_zero_lambda_is_refused() {
    refused_alike(
        "lambda",
        TWO_DISEASES,
        &["--lambda", "0"],
        "lambda must be positive and finite, got 0",
    );
}

#[test]
fn a_zero_delta_is_refused() {
    refused_alike(
        "delta",
        TWO_DISEASES,
        &["--delta", "0"],
        "delta must lie in (0, 1], got 0",
    );
}

#[test]
fn valid_parameters_audit_and_publish() {
    let dir = scratch_dir("valid");
    let input = dir.join("input.csv");
    std::fs::write(&input, TWO_DISEASES).expect("write csv");
    let output = dir.join("release.rppub");
    let input = input.to_str().expect("utf-8 path");
    let common = ["--input", input, "--sa", "Disease", "--no-generalize"];
    let audit: Vec<&str> = ["audit"].iter().chain(&common).copied().collect();
    assert_eq!(rpctl(&audit), (Some(0), String::new()));
    let mut publish: Vec<&str> = ["publish"].iter().chain(&common).copied().collect();
    publish.extend_from_slice(&["--output", output.to_str().expect("utf-8 path")]);
    assert_eq!(rpctl(&publish), (Some(0), String::new()));
    assert!(output.exists(), "publish wrote no release");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
