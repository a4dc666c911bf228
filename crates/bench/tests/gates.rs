//! The `gate` binary end to end. Each gate's rows and drill are checked
//! in its own `*_rate_gate.rs` test file; this one checks what only the
//! binary does: read `HTPAR_GATE_HANDICAP_US` and exit 1 on a miss.

use std::process::Command;

use htpar_bench::harness;

/// The env var reaches the trials through the binary, and a miss exits
/// 1 naming the floor.
#[test]
fn drill_env_handicap_fails_the_gate_bin() {
    let out = Command::new(env!("CARGO_BIN_EXE_gate"))
        .args(["launch", "--trials", "1"])
        .env(harness::ENV_HANDICAP_US, "1000")
        .output()
        .expect("the gate binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stderr.contains("below the floor"), "stderr:\n{stderr}");
}
