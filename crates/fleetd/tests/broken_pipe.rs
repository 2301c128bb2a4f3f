//! A reader that closes the pipe before the fleet panel is printed
//! (`pio-fleetd | head -0`) must not turn a correct run into a failure.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_clean_exit() {
    // Drop the read end before the child starts, so every write to its
    // stdout fails with a broken pipe, however fast the child runs.
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_pio-fleetd"))
        .args(["--jobs", "2", "--faulted", "0"])
        .stdout(writer)
        .stderr(Stdio::null())
        .status()
        .expect("run pio-fleetd");
    assert!(status.success(), "pio-fleetd exited with {status}");
}
