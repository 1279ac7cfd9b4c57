//! Process-level behaviour of the `rtdose` binary.

use std::process::{Command, Stdio};

/// A reader that stops early (`rtdose info | head -1`) closes the pipe.
/// The command must then end quietly with status 0, not panic on the
/// failed write. The read end is closed before the spawn, so every
/// write the command makes fails with a broken pipe.
#[test]
fn a_closed_stdout_pipe_ends_the_command_quietly() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_rtdose"))
        .arg("info")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
