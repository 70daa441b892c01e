//! A mistyped flag must stop a bench binary with exit status 2 before any
//! work starts, not fall through to a full paper-scale run.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` with `args` and returns its exit code. A binary that is still
/// running after the deadline ignored the typo and started the experiment.
fn exit_code(bin: &str, args: &[&str]) -> i32 {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot start {bin}: {e}"));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("child status") {
            return status.code().expect("exited, not killed by a signal");
        }
        if Instant::now() > deadline {
            child.kill().expect("kill the runaway run");
            child.wait().expect("reap the runaway run");
            panic!("{bin} {args:?} ran an experiment instead of rejecting the flag");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn figure_binary_rejects_mistyped_flags() {
    let bin = env!("CARGO_BIN_EXE_fig8_job_dist");
    assert_eq!(exit_code(bin, &["--quik"]), 2);
    assert_eq!(exit_code(bin, &["--smok"]), 2);
}

#[test]
fn scenario_matrix_rejects_mistyped_flags() {
    let bin = env!("CARGO_BIN_EXE_scenario_matrix");
    assert_eq!(exit_code(bin, &["--quik"]), 2);
    assert_eq!(exit_code(bin, &["--smok"]), 2);
    assert_eq!(exit_code(bin, &["--smoke", "--trace-out"]), 2);
}
