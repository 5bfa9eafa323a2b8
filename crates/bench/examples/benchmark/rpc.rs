//! The three serving workloads: one fixed server (`serving_spec()` on the
//! `Blocked` backend, `ServeConfig::default()` with one worker) under three
//! traffic mixes over loopback TCP.

use crate::model::{build_naive, build_via_checkpoint, close, ms, Budget, Lifecycle, RunOut};
use crate::rng::{poisson_schedule, SplitMix64};
use crate::spans::Recorder;
use crate::stats::Op;
use dsx_net::protocol::{read_frame, write_frame, Frame};
use dsx_net::{ClientConfig, NetClient, NetServer};
use dsx_nn::{Layer, Sequential};
use dsx_serve::{serving_spec, ServeConfig, ServeSnapshot};
use dsx_tensor::Tensor;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct request tensors, each with its expected output.
pub const POOL: usize = 64;
/// Sequential round trips at the end of set-up.
pub const WARMUP: usize = 64;
/// Arrival rate of `rpc_open`: 1.4× the measured unbatched capacity
/// (≈170 req/s) and ≈0.6× the batched one (≈420 req/s) on the sizing host.
pub const OPEN_RATE: f64 = 240.0;
/// The open-loop sender may run this late at p99 before a run is flagged as
/// not the load described. The issue's 1 ms is what an idle host allows; with
/// the cores kept awake (`awake.rs`) the sender sometimes wakes behind a
/// running thread and waits out its time slice — a steady ≈3.5 ms at p99,
/// against 0.5–53 ms without — and the wait is charged to the request, which
/// is timed from when it was due.
pub const LATE_LIMIT_MS: f64 = 5.0;
/// Requests `rpc_sat` keeps in flight: two full batches of 8.
pub const SAT_WINDOW: usize = 16;
/// A reply later than this is a failure, not a latency.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Relative tolerance of every reply against its expected output.
const REPLY_TOL: f32 = 1e-4;

pub fn serve_config() -> ServeConfig {
    ServeConfig::default().with_workers(1)
}

fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Some(REPLY_TIMEOUT),
        ..ClientConfig::default()
    }
}

/// The request pool and what the served model must answer to each.
pub struct Oracle {
    pub pool: Vec<Tensor>,
    pub expected: Vec<Tensor>,
    seed: u64,
}

impl Oracle {
    fn reply_ok(&self, idx: usize, reply: &Tensor) -> bool {
        close(reply, &self.expected[idx % POOL], REPLY_TOL)
    }
}

/// A set-up server with its oracle and a warm connection.
pub struct Served {
    pub model: Arc<Sequential>,
    pub oracle: Oracle,
    pub server: NetServer,
    pub client: NetClient,
    pub lifecycle: Lifecycle,
    pub conn_setup_ms: f64,
    /// Set-up checks that did not hold (empty on a correct run).
    pub problems: Vec<String>,
}

impl Served {
    /// Model lifecycle, oracle outputs, `Naive` cross-check, server start,
    /// connect and `WARMUP` checked round trips. All of it is `setup_s`.
    pub fn setup(seed: u64) -> Served {
        let spec = serving_spec();
        let model_seed = SplitMix64::stream(seed, "rpc.model").next_u64();
        let (model, lifecycle) = build_via_checkpoint(&spec, model_seed);
        let model = Arc::new(model);

        let mut rng = SplitMix64::stream(seed, "rpc.pool");
        let pool: Vec<Tensor> = (0..POOL).map(|_| rng.tensor(&[1, 3, 8, 8])).collect();
        let expected: Vec<Tensor> = pool.iter().map(|x| model.infer(x)).collect();

        let mut problems = Vec::new();
        let naive = build_naive(&spec, model_seed);
        for (x, want) in pool.iter().zip(&expected).take(4) {
            if !close(want, &naive.infer(x), 1e-3) {
                problems.push("Blocked model disagrees with the Naive oracle".to_string());
            }
        }

        let server = start_server(&model);
        let t = Instant::now();
        let mut client = connect(server.local_addr());
        let conn_setup_ms = ms(t.elapsed());
        for i in 0..WARMUP {
            match client.infer(&pool[i % POOL]) {
                Ok(out) if close(&out, &expected[i % POOL], REPLY_TOL) => {}
                Ok(_) => problems.push(format!("warm-up reply {i} is wrong")),
                Err(e) => problems.push(format!("warm-up request {i} failed: {e}")),
            }
        }
        Served {
            model,
            oracle: Oracle {
                pool,
                expected,
                seed,
            },
            server,
            client,
            lifecycle,
            conn_setup_ms,
            problems,
        }
    }

    /// Closes the connection, drains the server, and checks that it neither
    /// shed nor dropped a request.
    pub fn teardown(self) -> Vec<String> {
        let Served {
            server,
            client,
            mut problems,
            ..
        } = self;
        drop(client);
        problems.extend(snapshot_problems(&server.shutdown()));
        problems
    }
}

pub fn connect(addr: SocketAddr) -> NetClient {
    NetClient::connect_with(addr, client_config())
        .expect("connecting to a server this process started")
}

pub fn start_server(model: &Arc<Sequential>) -> NetServer {
    let model: Arc<dyn Layer> = model.clone();
    NetServer::start("127.0.0.1:0", model, serve_config()).expect("binding a loopback port")
}

pub fn snapshot_problems(snap: &ServeSnapshot) -> Vec<String> {
    let mut problems = Vec::new();
    if snap.shed_requests > 0 {
        problems.push(format!("server shed {} requests", snap.shed_requests));
    }
    if snap.dropped_requests > 0 {
        problems.push(format!("server dropped {} requests", snap.dropped_requests));
    }
    problems
}

/// `rpc_solo`: blocking round trips, one at a time. With a recorder each
/// round trip is split into `gen.send` and `gen.recv` spans.
pub fn run_solo(
    s: &Oracle,
    client: &mut NetClient,
    budget: Budget,
    block_ops: usize,
    epoch: Instant,
    mut rec: Option<&mut Recorder>,
) -> RunOut {
    let mut ops = Vec::new();
    while !budget.spent(epoch.elapsed(), ops.len(), block_ops) {
        let idx = ops.len();
        let input = &s.pool[idx % POOL];
        let start = epoch.elapsed().as_secs_f64();
        let reply = match rec.as_deref_mut() {
            None => client.infer(input).ok(),
            Some(rec) => {
                let req = Some(idx as u64);
                let sent = rec.span("gen.send", req, || client.send_request(input));
                let reply = rec.span("gen.recv", req, || client.read_reply());
                match (sent, reply) {
                    (Ok(id), Ok(reply)) if reply.id == id => reply.result.ok(),
                    _ => None,
                }
            }
        };
        let end = epoch.elapsed().as_secs_f64();
        let ok = reply.is_some_and(|out| s.reply_ok(idx, &out));
        if !ok {
            // A late reply to this request must not answer the next one.
            let _ = client.reconnect();
        }
        ops.push(Op { start, end, ok });
    }
    RunOut {
        ops,
        late_ms: Vec::new(),
        inflight_max: 1,
    }
}

/// `rpc_sat`: a closed loop that keeps `SAT_WINDOW` requests in flight on
/// one connection. Each request is timed from its send to its reply.
pub fn run_sat(
    s: &Oracle,
    client: &mut NetClient,
    budget: Budget,
    block_ops: usize,
    epoch: Instant,
    mut rec: Option<&mut Recorder>,
) -> RunOut {
    let mut starts: Vec<f64> = Vec::new();
    let mut done: Vec<Option<Op>> = Vec::new();
    let mut first_id = None;
    let mut inflight_max = 0;
    loop {
        while (client.inflight() as usize) < SAT_WINDOW
            && !budget.spent(epoch.elapsed(), starts.len(), block_ops)
        {
            let idx = starts.len();
            let input = &s.pool[idx % POOL];
            starts.push(epoch.elapsed().as_secs_f64());
            done.push(None);
            let sent = match rec.as_deref_mut() {
                None => client.send_request(input),
                Some(rec) => rec.span("gen.send", Some(idx as u64), || client.send_request(input)),
            };
            match sent {
                Ok(id) => {
                    first_id.get_or_insert(id - idx as u64);
                }
                Err(_) => {
                    let end = epoch.elapsed().as_secs_f64();
                    done[idx] = Some(Op {
                        start: starts[idx],
                        end,
                        ok: false,
                    });
                }
            }
            inflight_max = inflight_max.max(client.inflight() as usize);
        }
        if client.inflight() == 0 {
            break;
        }
        let span = rec.as_deref_mut().map(|r| r.begin("gen.recv", None));
        let reply = client.read_reply();
        if let (Some(r), Some(span)) = (rec.as_deref_mut(), span) {
            let req = reply
                .as_ref()
                .ok()
                .zip(first_id)
                .map(|(reply, first)| reply.id.wrapping_sub(first));
            r.end(span, req);
        }
        let end = epoch.elapsed().as_secs_f64();
        match (reply, first_id) {
            (Ok(reply), Some(first))
                if reply.id >= first && ((reply.id - first) as usize) < done.len() =>
            {
                let idx = (reply.id - first) as usize;
                let ok = reply.result.is_ok_and(|out| s.reply_ok(idx, &out));
                done[idx] = Some(Op {
                    start: starts[idx],
                    end,
                    ok,
                });
            }
            // A timeout or a reply nobody asked for: everything still
            // outstanding has failed, and the stream cannot be trusted.
            _ => {
                let _ = client.reconnect();
                break;
            }
        }
    }
    let end = epoch.elapsed().as_secs_f64();
    let ops = done
        .into_iter()
        .zip(&starts)
        .map(|(op, &start)| {
            op.unwrap_or(Op {
                start,
                end,
                ok: false,
            })
        })
        .collect();
    RunOut {
        ops,
        late_ms: Vec::new(),
        inflight_max,
    }
}

/// `rpc_open`: an open loop. A sender thread writes each request when it is
/// due, whatever came back so far; a receiver thread reads replies. Both
/// speak raw frames on one connection. A request is timed from when it was
/// *due*, so a stalled server is charged for every request it delayed.
pub fn run_open(
    s: &Oracle,
    addr: SocketAddr,
    budget: Budget,
    block_ops: usize,
    epoch: Instant,
    rec: Option<&mut Recorder>,
) -> RunOut {
    let blocks = match budget {
        Budget::Seconds(secs) => (secs * OPEN_RATE / block_ops as f64).ceil().max(1.0) as usize,
        Budget::Ops(n) => n.div_ceil(block_ops),
    };
    let n = blocks * block_ops;
    let t0 = epoch.elapsed().as_secs_f64();
    let due: Vec<f64> = poisson_schedule(
        &mut SplitMix64::stream(s.seed, "rpc.arrivals"),
        OPEN_RATE,
        blocks,
        block_ops,
    )
    .into_iter()
    .map(|t| t0 + t)
    .collect();

    let stream = TcpStream::connect(addr).expect("connecting the open-loop generator");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("SO_RCVTIMEO");
    let mut writer = BufWriter::new(stream.try_clone().expect("cloning the socket"));
    let mut reader = BufReader::new(stream);
    let received = AtomicUsize::new(0);
    let traced = rec.is_some();

    let (sender_out, receiver_out) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut rec = traced.then(|| Recorder::new(epoch, 1));
            let mut late_ms = Vec::with_capacity(n);
            let mut inflight_max = 0;
            let mut write_failed = false;
            for (k, &due_at) in due.iter().enumerate() {
                let frame = Frame::Request {
                    id: k as u64 + 1,
                    deadline_us: 0,
                    tensor: s.pool[k % POOL].clone(),
                };
                let now = epoch.elapsed().as_secs_f64();
                if due_at > now {
                    std::thread::sleep(Duration::from_secs_f64(due_at - now));
                }
                late_ms.push((epoch.elapsed().as_secs_f64() - due_at) * 1e3);
                let span = rec.as_mut().map(|r| r.begin("gen.send", Some(k as u64)));
                write_failed |= write_frame(&mut writer, &frame)
                    .and_then(|()| writer.flush())
                    .is_err();
                if let (Some(r), Some(span)) = (rec.as_mut(), span) {
                    r.end(span, None);
                }
                inflight_max = inflight_max.max(k + 1 - received.load(Ordering::Relaxed));
                if write_failed {
                    break;
                }
            }
            (late_ms, inflight_max, rec)
        });
        let receiver = scope.spawn(|| {
            let mut rec = traced.then(|| Recorder::new(epoch, 2));
            let mut done: Vec<Option<(f64, bool)>> = vec![None; n];
            for _ in 0..n {
                let span = rec.as_mut().map(|r| r.begin("gen.recv", None));
                let frame = read_frame(&mut reader);
                if let (Some(r), Some(span)) = (rec.as_mut(), span) {
                    r.end(span, frame.as_ref().ok().map(|f| f.id().wrapping_sub(1)));
                }
                let end = epoch.elapsed().as_secs_f64();
                received.fetch_add(1, Ordering::Relaxed);
                match frame {
                    Ok(Frame::Response { id, tensor }) if (1..=n as u64).contains(&id) => {
                        let idx = id as usize - 1;
                        done[idx] = Some((end, s.reply_ok(idx, &tensor)));
                    }
                    Ok(Frame::Error { id, .. }) if (1..=n as u64).contains(&id) => {
                        done[id as usize - 1] = Some((end, false));
                    }
                    // Timed out, closed or garbled: the rest never arrives.
                    _ => break,
                }
            }
            (done, rec)
        });
        (
            sender.join().expect("the open-loop sender panicked"),
            receiver.join().expect("the open-loop receiver panicked"),
        )
    });

    let (late_ms, inflight_max, sender_rec) = sender_out;
    let (done, receiver_rec) = receiver_out;
    if let Some(rec) = rec {
        rec.merge(sender_rec.expect("traced sender"));
        rec.merge(receiver_rec.expect("traced receiver"));
    }
    let gave_up = epoch.elapsed().as_secs_f64();
    let ops = done
        .into_iter()
        .zip(&due)
        .map(|(reply, &start)| match reply {
            Some((end, ok)) => Op { start, end, ok },
            None => Op {
                start,
                end: gave_up,
                ok: false,
            },
        })
        .collect();
    RunOut {
        ops,
        late_ms,
        inflight_max,
    }
}
