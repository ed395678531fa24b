//! Exit-code gate for the `repro` binary's experiment dispatch: a name
//! that no experiment answers to is a usage error (exit 2), never a
//! silent no-op.

use std::process::Command;

#[test]
fn removed_train_experiment_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["train", "--quick", "--no-out"])
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown experiment `train`"), "{stderr}");
}
