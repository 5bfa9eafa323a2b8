//! End-to-end tests of the `dsx-serve` binary's flag handling: conflicting
//! and invalid network flags must exit 2 *before* any layer construction
//! (the PR-3 CLI contract), a listen/connect round trip must work over a
//! real socket, and `--model` checkpoints that are missing, corrupt or
//! version-mismatched must exit 2 with a one-line reason.

use dsx_models::Checkpoint;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsx-serve"))
        .args(args)
        .output()
        .expect("running the dsx-serve binary failed")
}

/// Asserts the canonical flag-error contract: exit code 2, a stderr that
/// names the problem, and no model construction (no "serving model:" line).
fn assert_flag_error(args: &[&str], stderr_needle: &str) {
    let out = run(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(stderr_needle),
        "{args:?}: stderr must mention '{stderr_needle}', got: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("serving model:"),
        "{args:?}: no model may be built after a flag error:\n{stdout}"
    );
}

#[test]
fn listen_plus_connect_is_rejected_before_construction() {
    assert_flag_error(
        &["--listen", "127.0.0.1:0", "--connect", "127.0.0.1:1"],
        "mutually exclusive",
    );
}

#[test]
fn invalid_addresses_are_rejected_before_construction() {
    assert_flag_error(&["--listen", "not-an-address"], "socket address");
    assert_flag_error(&["--connect", "localhost:7878"], "socket address");
    assert_flag_error(&["--listen", "127.0.0.1:notaport"], "socket address");
    assert_flag_error(&["--listen"], "needs a value");
}

#[test]
fn serve_secs_without_listen_is_rejected() {
    assert_flag_error(&["--serve-secs", "5"], "--serve-secs only applies");
}

#[test]
fn removed_batch_wait_flags_exit_two_as_unknown() {
    assert_flag_error(&["--listen", "127.0.0.1:0", "--adaptive"], "unknown flag");
    assert_flag_error(&["--max-wait-us", "500"], "unknown flag");
}

#[test]
fn unknown_flags_still_exit_two() {
    assert_flag_error(&["--frobnicate"], "unknown flag");
}

/// A scratch path under the target-provided temp dir, removed on drop.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> ScratchFile {
        ScratchFile(
            std::env::temp_dir().join(format!("dsx-serve-cli-{}-{tag}.ckpt", std::process::id())),
        )
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Captures the default serving model into checkpoint bytes (the shape the
/// binary's loadgen mode demands).
fn serving_checkpoint_bytes() -> Vec<u8> {
    let spec = dsx_serve::serving_spec();
    let model = dsx_serve::build_serving_model(&spec, dsx_core::BackendKind::Naive);
    Checkpoint::capture(&spec, &*model).encode()
}

#[test]
fn missing_model_file_exits_two_before_construction() {
    assert_flag_error(
        &["--model", "/nonexistent/never/model.ckpt", "--skip-serial"],
        "cannot load --model",
    );
}

#[test]
fn corrupt_model_bytes_exit_two_before_construction() {
    let scratch = ScratchFile::new("corrupt");
    std::fs::write(&scratch.0, b"these are not checkpoint bytes").expect("writing scratch file");
    assert_flag_error(
        &["--model", scratch.0.to_str().unwrap(), "--skip-serial"],
        "cannot load --model",
    );
}

#[test]
fn version_mismatched_model_exits_two_before_construction() {
    let mut bytes = serving_checkpoint_bytes();
    // Forge a future format version (offset 4..6, after the 4-byte magic)
    // and re-seal the trailing whole-file CRC so only the version differs.
    bytes[4] = 99;
    bytes[5] = 0;
    let body_len = bytes.len() - 4;
    let crc = dsx_tensor::crc32(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
    let scratch = ScratchFile::new("version");
    std::fs::write(&scratch.0, &bytes).expect("writing scratch file");
    assert_flag_error(
        &["--model", scratch.0.to_str().unwrap(), "--skip-serial"],
        "version",
    );
}

#[test]
fn loaded_model_serves_with_a_matching_digest() {
    let spec = dsx_serve::serving_spec();
    let model = dsx_serve::build_serving_model(&spec, dsx_core::BackendKind::Blocked);
    let expected = format!(
        "model digest: {:08x}",
        dsx_models::model_digest(&*model, &spec)
    );
    let ckpt = Checkpoint::capture(&spec, &*model);
    let scratch = ScratchFile::new("digest");
    ckpt.save(&scratch.0).expect("saving the checkpoint");

    let out = run(&[
        "--model",
        scratch.0.to_str().unwrap(),
        "--requests",
        "8",
        "--concurrency",
        "2",
        "--skip-serial",
    ]);
    assert!(
        out.status.success(),
        "serving a loaded model failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&expected),
        "the binary must serve bit-identical weights (wanted '{expected}'):\n{stdout}"
    );
}

#[test]
fn reload_over_the_wire_hot_swaps_without_closing_the_connection() {
    let ckpt = Checkpoint::decode(&serving_checkpoint_bytes()).expect("decoding own bytes");
    let scratch = ScratchFile::new("reload");
    ckpt.save(&scratch.0).expect("saving the checkpoint");

    let (mut server, addr) = spawn_listener(&["--model", scratch.0.to_str().unwrap()]);
    let mut client = dsx_net::NetClient::connect(&addr).expect("connecting");
    let probe = dsx_tensor::Tensor::randn(&[1, 3, 8, 8], 42);
    let before = client.infer(&probe).expect("inference before reload");
    assert_eq!(client.reload().expect("first reload"), 1);
    assert_eq!(client.reload().expect("second reload"), 2);
    // Same file on disk, so the swapped-in weights answer identically —
    // and the connection survived both swaps.
    let after = client.infer(&probe).expect("inference after reload");
    assert_eq!(before.as_slice(), after.as_slice());
    drop(client);
    server.kill().expect("stopping the listener");
    server.wait().expect("reaping the listener");
}

#[test]
fn reload_without_a_model_path_is_a_typed_server_error() {
    let (mut server, addr) = spawn_listener(&[]);
    let mut client = dsx_net::NetClient::connect(&addr).expect("connecting");
    let err = client.reload().expect_err("reload must be refused");
    match err {
        dsx_net::NetError::Server { code, message } => {
            assert_eq!(code, dsx_net::ErrorCode::BadRequest);
            assert!(message.contains("not enabled"), "{message}");
        }
        other => panic!("expected a typed server error, got: {other}"),
    }
    // The refusal is per-request, not fatal: the connection still serves.
    let logits = client
        .infer(&dsx_tensor::Tensor::randn(&[1, 3, 8, 8], 42))
        .expect("inference after refused reload");
    assert_eq!(logits.shape()[0], 1);
    drop(client);
    server.kill().expect("stopping the listener");
    server.wait().expect("reaping the listener");
}

/// Spawns `dsx-serve --listen 127.0.0.1:0` and parses the bound address
/// off its stdout.
fn spawn_listener(extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dsx-serve"))
        .args(["--listen", "127.0.0.1:0", "--serve-secs", "30"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning the listener failed");
    let stdout = child.stdout.take().expect("captured stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("listener exited before announcing its address")
            .expect("reading listener stdout");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    // Keep draining stdout in the background so the child never blocks on
    // a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

#[test]
fn listen_and_connect_round_trip_over_a_real_socket() {
    let (mut server, addr) = spawn_listener(&[]);
    let out = run(&[
        "--connect",
        &addr,
        "--requests",
        "12",
        "--concurrency",
        "3",
        "--skip-serial",
    ]);
    server.kill().expect("stopping the listener");
    server.wait().expect("reaping the listener");
    assert!(
        out.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("net batched (3 connections):"), "{stdout}");
    assert!(stdout.contains("12 requests"), "{stdout}");
    assert!(
        stdout.contains("p99"),
        "percentiles in the summary: {stdout}"
    );
}
