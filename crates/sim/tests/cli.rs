//! `drishti-sim` exit statuses when its output cannot be written.
//!
//! Stdout or stderr on `/dev/full` makes every write fail with `ENOSPC`.
//! A failed write exits 1, a usage error exits 2 whether or not its
//! message was written, and neither panics (exit 101).

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};

const FULL: &str = "/dev/full";

/// `drishti-sim args`, with stdout (`to_stdout`) or stderr on `/dev/full`
/// and the other stream discarded; returns the exit status. `None` where
/// the platform has no `/dev/full`.
fn exit_code(args: &[&str], to_stdout: bool) -> Option<i32> {
    if !Path::new(FULL).exists() {
        return None;
    }
    let full = || Stdio::from(File::create(FULL).expect("open /dev/full"));
    let (stdout, stderr) = if to_stdout {
        (full(), Stdio::null())
    } else {
        (Stdio::null(), full())
    };
    let status = Command::new(env!("CARGO_BIN_EXE_drishti-sim"))
        .args(args)
        .stdout(stdout)
        .stderr(stderr)
        .status()
        .expect("spawn drishti-sim");
    Some(status.code().expect("drishti-sim exited by a signal"))
}

#[test]
fn help_on_a_full_stdout_exits_1() {
    if let Some(code) = exit_code(&["--help"], true) {
        assert_eq!(code, 1);
    }
    if let Some(code) = exit_code(&["--help"], false) {
        assert_eq!(code, 0, "the usage went to stdout, which was writable");
    }
}

#[test]
fn usage_error_on_a_full_stderr_exits_2() {
    if let Some(code) = exit_code(&["--bogus"], false) {
        assert_eq!(code, 2);
    }
}

#[test]
fn run_on_a_full_stdout_exits_1() {
    let run = ["--cores", "2", "--accesses", "2000", "--warmup", "500"];
    if let Some(code) = exit_code(&run, true) {
        assert_eq!(code, 1);
    }
}
