//! End-to-end socket tests on `127.0.0.1:0`: parity with direct inference,
//! concurrent clients with interleaved request ids, protocol-error
//! handling, and survival of misbehaving peers.

mod common;

use common::SlowIdentity;
use dsx_net::{protocol, ErrorCode, Frame, NetClient, NetServer, WireError};
use dsx_nn::{GlobalAvgPool, Layer, Linear, ReLU, Sequential};
use dsx_serve::ServeConfig;
use dsx_tensor::{allclose, Tensor};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A tiny model: [N, 2, 4, 4] -> [N, 3] logits.
fn tiny_model() -> Arc<dyn Layer> {
    Arc::new(
        Sequential::new("tiny-net")
            .push(ReLU::new())
            .push(GlobalAvgPool::new())
            .push(Linear::new(2, 3, 7)),
    )
}

fn request(seed: u64) -> Tensor {
    Tensor::randn(&[1, 2, 4, 4], seed)
}

fn quick_config() -> ServeConfig {
    ServeConfig::default().with_workers(2).with_max_batch(4)
}

#[test]
fn single_client_round_trip_matches_direct_inference() {
    let model = tiny_model();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&model), quick_config()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for seed in 0..5 {
        let input = request(seed);
        let served = client.infer(&input).unwrap();
        let direct = model.infer(&input);
        assert_eq!(served.shape(), &[1, 3]);
        assert!(
            allclose(&served, &direct, 1e-6),
            "seed {seed}: network parity with direct infer"
        );
    }
    drop(client);
    let snap = server.shutdown();
    assert_eq!(snap.requests, 5);
}

#[test]
fn pipelined_requests_reassemble_by_id_whatever_the_order() {
    let model = tiny_model();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&model), quick_config()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    // Deliberately non-contiguous, shuffled id space on one connection.
    let ids = [907u64, 3, 500, 42, 77, 11];
    let inputs: Vec<Tensor> = (0..ids.len()).map(|i| request(1000 + i as u64)).collect();
    for (id, input) in ids.iter().zip(&inputs) {
        client.send_request_with_id(*id, input).unwrap();
    }
    let mut got = std::collections::HashMap::new();
    for _ in 0..ids.len() {
        let reply = client.read_reply().unwrap();
        let output = reply.result.expect("no error frames expected");
        assert!(got.insert(reply.id, output).is_none(), "duplicate id");
    }
    for (id, input) in ids.iter().zip(&inputs) {
        let direct = model.infer(input);
        assert!(
            allclose(&got[id], &direct, 1e-6),
            "id {id} reassembled to the wrong output"
        );
    }
    drop(client);
    server.shutdown();
}

#[test]
fn concurrent_clients_each_get_their_own_answers() {
    let model = tiny_model();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&model), quick_config()).unwrap();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let model = Arc::clone(&model);
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                for i in 0..8u64 {
                    let input = request(t * 1_000 + i);
                    let served = client.infer(&input).unwrap();
                    let direct = model.infer(&input);
                    assert!(allclose(&served, &direct, 1e-6), "client {t} request {i}");
                }
            });
        }
    });
    let snap = server.shutdown();
    assert_eq!(snap.requests, 32);
    assert!(
        snap.max_batch_occupancy >= 1,
        "stats flowed through the network path: {snap}"
    );
}

#[test]
fn malformed_frame_gets_an_error_frame_and_the_connection_survives() {
    let model = tiny_model();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&model), quick_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A frame with an honest length but corrupt magic: recoverable.
    let mut bytes = protocol::encode_frame(&Frame::Request {
        id: 5,
        deadline_us: 0,
        tensor: request(0),
    });
    bytes[4] ^= 0xFF;
    stream.write_all(&bytes).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    match protocol::read_frame(&mut reader).unwrap() {
        Frame::Error { id, code, .. } => {
            assert_eq!(id, 0, "an unparseable frame has no attributable id");
            assert_eq!(code, ErrorCode::Malformed);
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // A garbled payload under a valid header keeps its id: pad a valid
    // request frame with trailing junk (and an honest length prefix).
    let mut padded = protocol::encode_frame(&Frame::Request {
        id: 55,
        deadline_us: 0,
        tensor: request(1),
    });
    let new_len = u32::from_le_bytes(padded[..4].try_into().unwrap()) + 2;
    padded[..4].copy_from_slice(&new_len.to_le_bytes());
    padded.extend_from_slice(&[0, 0]);
    stream.write_all(&padded).unwrap();
    match protocol::read_frame(&mut reader).unwrap() {
        Frame::Error { id, code, .. } => {
            assert_eq!(id, 55, "payload errors stay attributed to their request");
            assert_eq!(code, ErrorCode::Malformed);
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The same connection still serves valid requests afterwards.
    let input = request(9);
    stream
        .write_all(&protocol::encode_frame(&Frame::Request {
            id: 6,
            deadline_us: 0,
            tensor: input.clone(),
        }))
        .unwrap();
    match protocol::read_frame(&mut reader).unwrap() {
        Frame::Response { id, tensor } => {
            assert_eq!(id, 6);
            assert!(allclose(&tensor, &model.infer(&input), 1e-6));
        }
        other => panic!("expected a response, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
}

#[test]
fn truncated_frame_then_disconnect_leaves_the_server_healthy() {
    let model = tiny_model();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&model), quick_config()).unwrap();
    {
        // Claim 100 body bytes, send 10, hang up: EOF mid-frame on the
        // server's reader, which must close only that connection.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0xABu8; 10]).unwrap();
    }
    {
        // An oversize length prefix: the server answers with a typed error
        // frame and then closes the connection.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(&(dsx_net::MAX_FRAME_LEN as u32 + 1).to_le_bytes())
            .unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        match protocol::read_frame(&mut reader).unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
            other => panic!("expected an error frame, got {other:?}"),
        }
        // The server closed its end: the stream ends (cleanly or with a
        // reset, depending on timing), never with another frame.
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        assert!(rest.is_empty(), "no frames after close, got {rest:?}");
    }
    // The server itself is unharmed: fresh connections serve as before.
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.infer(&request(1)).unwrap().shape(), &[1, 3]);
    drop(client);
    server.shutdown();
}

#[test]
fn client_disconnecting_mid_request_cancels_quietly() {
    // A slow forward pass guarantees the request is still in flight when
    // the client vanishes.
    let model: Arc<dyn Layer> = Arc::new(
        Sequential::new("slow-net")
            .push(SlowIdentity {
                delay: Duration::from_millis(150),
            })
            .push(GlobalAvgPool::new())
            .push(Linear::new(2, 3, 7)),
    );
    let server = NetServer::start(
        "127.0.0.1:0",
        model,
        ServeConfig::default().with_workers(1).with_max_batch(8),
    )
    .unwrap();
    {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(&protocol::encode_frame(&Frame::Request {
                id: 1,
                deadline_us: 0,
                tensor: request(2),
            }))
            .unwrap();
        // Hang up without reading the response.
    }
    // The batch completes after the disconnect; delivery fails silently and
    // the worker pool keeps serving new connections.
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.infer(&request(3)).unwrap().shape(), &[1, 3]);
    drop(client);
    let snap = server.shutdown();
    assert_eq!(
        snap.requests, 2,
        "the abandoned request was still served: {snap}"
    );
}

#[test]
fn declared_request_dims_surface_as_bad_request_error_frames() {
    let server = NetServer::start(
        "127.0.0.1:0",
        tiny_model(),
        quick_config().with_request_dims(&[2, 4, 4]),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let err = client.infer(&Tensor::zeros(&[1, 9, 9, 9])).unwrap_err();
    match err {
        dsx_net::NetError::Server { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("[2, 4, 4]"), "{message}");
        }
        other => panic!("expected a server error, got {other}"),
    }
    // Same connection, conforming request: served.
    assert_eq!(client.infer(&request(4)).unwrap().shape(), &[1, 3]);
    drop(client);
    server.shutdown();
}

#[test]
fn response_frames_from_clients_are_rejected_but_not_fatal() {
    let model = tiny_model();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&model), quick_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(&protocol::encode_frame(&Frame::Response {
            id: 77,
            tensor: request(0),
        }))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    match protocol::read_frame(&mut reader).unwrap() {
        Frame::Error { id, code, .. } => {
            assert_eq!(id, 77, "the bogus frame's id is echoed");
            assert_eq!(code, ErrorCode::Malformed);
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    drop(stream);
    drop(reader);
    server.shutdown();
}

#[test]
fn shutdown_reports_what_the_wire_served() {
    let server = NetServer::start("127.0.0.1:0", tiny_model(), quick_config()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for seed in 0..6 {
        client.infer(&request(seed)).unwrap();
    }
    drop(client);
    let snap = server.shutdown();
    assert_eq!(snap.requests, 6);
    assert!(snap.throughput_rps > 0.0);
    assert!(snap.p50_latency_us <= snap.p99_latency_us);
}

#[test]
fn stats_frame_returns_live_metrics_over_the_wire() {
    let model = tiny_model();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&model), quick_config()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for seed in 0..4 {
        client.infer(&request(seed)).unwrap();
    }
    let snapshot = client.stats().unwrap();
    // The serve tier's counters ride along with the process-wide registry.
    assert!(
        snapshot.get("serve.requests").unwrap_or(0) >= 4,
        "serve.requests missing or low in {snapshot}"
    );
    assert!(
        snapshot.get("serve.latency.count").unwrap_or(0) >= 4,
        "latency histogram summary missing in {snapshot}"
    );
    // The wire tier observed at least our own frames (other tests in this
    // process may have added more — counters are process-global).
    assert!(
        snapshot.get("net.frames_read").unwrap_or(0) >= 4,
        "net.frames_read missing in {snapshot}"
    );
    assert!(snapshot.get("net.bytes_read").unwrap_or(0) > 0);
    // Entries arrive sorted so the one-line rendering is stable.
    let names: Vec<&str> = snapshot.entries.iter().map(|e| e.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "snapshot entries must arrive sorted");
    // A normal request still works on the same connection afterwards.
    assert_eq!(client.infer(&request(9)).unwrap().shape(), &[1, 3]);
    drop(client);
    server.shutdown();
}

#[test]
fn wire_error_display_is_readable() {
    // Cheap coverage of the error plumbing the tests above rely on.
    let err = WireError::Malformed {
        id: 12,
        why: "bad magic".to_string(),
    };
    assert!(err.to_string().contains("bad magic"));
    assert!(err.is_recoverable());
    assert_eq!(err.frame_id(), 12);
}
