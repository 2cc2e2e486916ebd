//! End-to-end tests of the `spotfi` binary, driven through
//! `std::process::Command` on the built executable.

use std::process::{Command, Output};

fn spotfi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spotfi"))
        .args(args)
        .output()
        .expect("spawn spotfi")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn help_lists_all_commands() {
    for args in [vec!["help"], vec![]] {
        let out = spotfi(&args);
        assert!(out.status.success());
        let text = stdout(&out);
        for cmd in ["figures", "simulate", "analyze", "scenario"] {
            assert!(text.contains(cmd), "help missing `{}`", cmd);
        }
    }
}

#[test]
fn unknown_command_fails_with_hint() {
    let out = spotfi(&["frobnicate"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown command"));
    assert!(err.contains("spotfi help"));
}

#[test]
fn simulate_then_analyze_roundtrip() {
    let dir = std::env::temp_dir();
    let path = dir.join("spotfi_cli_test.dat");
    let path_str = path.to_str().unwrap();

    let sim = spotfi(&[
        "simulate",
        "--out",
        path_str,
        "--target",
        "-2,5",
        "--packets",
        "8",
        "--seed",
        "5",
    ]);
    assert!(sim.status.success(), "simulate failed: {}", stderr(&sim));
    assert!(stdout(&sim).contains("wrote 8 records"));

    let ana = spotfi(&["analyze", path_str]);
    std::fs::remove_file(&path).ok();
    assert!(ana.status.success(), "analyze failed: {}", stderr(&ana));
    let text = stdout(&ana);
    assert!(text.contains("parsed 8 beamforming records"));
    assert!(text.contains("direct path"), "no direct path in:\n{}", text);
}

#[test]
fn analyze_missing_file_errors() {
    let out = spotfi(&["analyze", "/nonexistent/never.dat"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("reading"));
}

#[test]
fn simulate_requires_out() {
    let out = spotfi(&["simulate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--out"));
}

#[test]
fn bad_point_value_reports_nicely() {
    let out = spotfi(&["simulate", "--out", "/tmp/x.dat", "--target", "oops"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("expects x,y"));
}

#[test]
fn scenario_runs_trimmed() {
    let out = spotfi(&["scenario", "office", "--targets", "2", "--packets", "6"]);
    assert!(out.status.success(), "scenario failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("office-01"));
    assert!(text.contains("medians"));
}

/// The two-process distributed path: `fleet --export-wire` produces a
/// spotfi-wire-v1 capture, `serve --listen` binds a unix socket, and
/// `ingest --connect` streams the capture into it. Every frame must be
/// decoded — no corruption, no truncation — and the server must exit
/// cleanly on sender hangup.
#[cfg(unix)]
#[test]
fn wire_loopback_round_trip() {
    use std::process::Stdio;
    let dir = std::env::temp_dir();
    let frames = dir.join("spotfi_cli_wire.bin");
    let sock = dir.join("spotfi_cli_wire.sock");
    let frames_str = frames.to_str().unwrap();
    let sock_str = sock.to_str().unwrap();
    std::fs::remove_file(&sock).ok();

    let exp = spotfi(&[
        "fleet",
        "--targets",
        "2",
        "--packets",
        "6",
        "--aps",
        "4",
        "--export-wire",
        frames_str,
    ]);
    assert!(exp.status.success(), "export failed: {}", stderr(&exp));
    assert!(stdout(&exp).contains("wire frames"));

    let serve = Command::new(env!("CARGO_BIN_EXE_spotfi"))
        .args([
            "serve",
            "--listen",
            sock_str,
            "--aps",
            "4",
            "--workers",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let ing = spotfi(&["ingest", frames_str, "--connect", sock_str]);
    let out = serve.wait_with_output().expect("serve exit");
    std::fs::remove_file(&frames).ok();
    std::fs::remove_file(&sock).ok();

    assert!(ing.status.success(), "connect failed: {}", stderr(&ing));
    assert!(stdout(&ing).contains("streamed"));
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("corrupt 0 + incomplete 0"),
        "lossless loopback must decode every frame:\n{}",
        text
    );
    assert!(text.contains("packets processed"), "{}", text);
}

/// `ingest` registers fewer receivers than the capture was exported from:
/// frames from receivers 2 and 3 decode but are unknown. The exported
/// document must still balance every decoded frame against the fleet's
/// intake, and `check-diagnostics` must accept it.
#[test]
fn ingest_routing_identity_holds_with_unknown_receivers() {
    let dir = std::env::temp_dir();
    let frames = dir.join("spotfi_cli_routing.bin");
    let diag = dir.join("spotfi_cli_routing_diag.json");
    let (frames_str, diag_str) = (frames.to_str().unwrap(), diag.to_str().unwrap());

    let exp = spotfi(&[
        "fleet",
        "--targets",
        "2",
        "--packets",
        "6",
        "--aps",
        "4",
        "--export-wire",
        frames_str,
    ]);
    assert!(exp.status.success(), "export failed: {}", stderr(&exp));
    let ing = spotfi(&[
        "ingest",
        frames_str,
        "--aps",
        "2",
        "--diagnostics",
        diag_str,
    ]);
    let check = spotfi(&["check-diagnostics", diag_str]);
    let json = std::fs::read_to_string(&diag).unwrap_or_default();
    std::fs::remove_file(&frames).ok();
    std::fs::remove_file(&diag).ok();

    assert!(ing.status.success(), "ingest failed: {}", stderr(&ing));
    assert!(
        check.status.success(),
        "check-diagnostics rejected the export: {}",
        stderr(&check)
    );
    // The counter exists only once a frame was counted against it.
    assert!(
        json.contains("\"name\": \"ingest.unknown_receiver\""),
        "{json}"
    );
}

/// The `packets processed` count on a `fleet:` line.
fn packets_processed(text: &str) -> u64 {
    let line = text
        .lines()
        .find(|l| l.starts_with("fleet: "))
        .unwrap_or_else(|| panic!("no fleet line in:\n{}", text));
    line["fleet: ".len()..]
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no packet count in {:?}", line))
}

/// A late frame whose length field points past the end of the capture
/// leaves the frames behind it buffered until the stream ends, where the
/// decoder salvages them. `serve` must hand those frames to its engine
/// exactly as file-mode `ingest` does: both process the same packets.
#[cfg(unix)]
#[test]
fn serve_processes_frames_salvaged_at_end_of_stream() {
    use std::process::Stdio;
    let dir = std::env::temp_dir();
    let frames = dir.join("spotfi_cli_salvage.bin");
    let sock = dir.join("spotfi_cli_salvage.sock");
    let frames_str = frames.to_str().unwrap();
    let sock_str = sock.to_str().unwrap();
    std::fs::remove_file(&sock).ok();

    let exp = spotfi(&[
        "fleet",
        "--targets",
        "2",
        "--packets",
        "6",
        "--aps",
        "4",
        "--export-wire",
        frames_str,
    ]);
    assert!(exp.status.success(), "export failed: {}", stderr(&exp));
    // Walk the frames (28-byte header, payload, 4-byte CRC) and give the
    // fourth-to-last an in-range payload length far past the end of file.
    let mut bytes = std::fs::read(&frames).unwrap();
    let mut starts = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(bytes[pos + 24..pos + 28].try_into().unwrap());
        pos += 28 + len as usize + 4;
    }
    assert!(starts.len() > 4, "{} frames", starts.len());
    let late = starts[starts.len() - 4];
    bytes[late + 24..late + 28].copy_from_slice(&0xF_0000u32.to_le_bytes());
    assert!(bytes.len() < 0xF_0000);
    std::fs::write(&frames, &bytes).unwrap();

    let file = spotfi(&["ingest", frames_str]);
    let serve = Command::new(env!("CARGO_BIN_EXE_spotfi"))
        .args([
            "serve",
            "--listen",
            sock_str,
            "--aps",
            "4",
            "--workers",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let ing = spotfi(&["ingest", frames_str, "--connect", sock_str]);
    let out = serve.wait_with_output().expect("serve exit");
    std::fs::remove_file(&frames).ok();
    std::fs::remove_file(&sock).ok();

    assert!(file.status.success(), "ingest failed: {}", stderr(&file));
    assert!(ing.status.success(), "connect failed: {}", stderr(&ing));
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (file_text, served) = (stdout(&file), String::from_utf8_lossy(&out.stdout));
    assert!(file_text.contains("incomplete 1"), "{}", file_text);
    assert!(served.contains("incomplete 1"), "{}", served);
    assert_eq!(
        packets_processed(&served),
        packets_processed(&file_text),
        "serve:\n{}\ningest:\n{}",
        served,
        file_text
    );
}

#[test]
fn figures_rejects_unknown_figure() {
    let out = spotfi(&["figures", "fig99", "--fast"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown figure"));
}
