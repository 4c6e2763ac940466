//! Command-line contract of the `reproduce` binary. Every case here is
//! rejected before a corpus is built, so the suite runs in milliseconds.

use std::path::PathBuf;
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A path under the temp directory that does not exist yet.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("thetis-reproduce-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = reproduce(&[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("usage: reproduce"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unknown_experiment_fails_without_creating_the_output_directory() {
    let dir = fresh_dir("nosuch");
    let out = reproduce(&["nosuch", "--out", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("unknown experiment \"nosuch\""),
        "{}",
        stderr(&out)
    );
    assert!(!dir.exists(), "{} was created", dir.display());
}

#[test]
fn scale_outside_the_unit_interval_is_a_usage_error() {
    let out = reproduce(&["table2", "--scale", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--scale"), "{}", stderr(&out));
}

#[test]
fn retired_flags_are_rejected_by_name() {
    for (flag, value) in [("--threads", "1"), ("--kernel", "f32")] {
        let out = reproduce(&["table2", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(
            stderr(&out).contains(&format!("unknown flag {flag}")),
            "{flag}: {}",
            stderr(&out)
        );
    }
}
