//! The TCP serving front-end: an acceptor thread plus a reader/writer
//! thread pair per connection, all feeding the one shared
//! [`ServeEngine`].
//!
//! Data path: a connection's **reader** parses request frames off the
//! socket and calls [`ServeHandle::submit_tagged`](dsx_serve::ServeHandle::submit_tagged),
//! which routes every engine outcome — served output, shape rejection,
//! deadline shed, batch failure — onto the connection's `done` channel
//! keyed by request id. The **writer** drains that channel and streams
//! response/error frames back, so replies leave in batch-completion order,
//! not submission order; the request id is what lets the client
//! reassemble. Requests from *all* connections meet in the engine's queue,
//! which is where cross-client batching (the whole point of the front-end)
//! happens.
//!
//! Both threads share the buffered write half behind a mutex: the writer
//! streams engine outcomes, the reader injects protocol-level error frames
//! (malformed frame, bad version) without interleaving bytes mid-frame.
//!
//! Failure containment mirrors the engine's: a malformed frame is answered
//! with an error frame and the connection lives on (the length prefix kept
//! the stream framed); an untrustworthy length prefix closes only that
//! connection; a client that disconnects mid-request just stops receiving
//! — its in-flight work completes and the delivery attempt fails silently,
//! touching neither the worker pool nor other connections.
//!
//! ## Connection hygiene ([`NetServerConfig`])
//!
//! * **Admission** — past `max_conns` live connections, a new accept is
//!   answered with one `ServerBusy` error frame and closed; the engine
//!   never sees it.
//! * **Idle reaping** — the acceptor's poll loop (not just its accept
//!   path) sweeps the registry: a connection with nothing in flight and no
//!   frame read or written for `idle_timeout` has its socket shut down,
//!   which unblocks and retires its thread pair. A connected-but-silent
//!   client can no longer pin a reader thread forever.
//! * **Per-connection in-flight cap** — past `max_inflight` unanswered
//!   requests, further requests on that connection are answered
//!   `ServerBusy` (the connection survives), so one hot pipeliner cannot
//!   monopolise the batcher's queue.
//! * **Write timeouts** — `SO_SNDTIMEO` on every connection socket: a
//!   client that stops reading while the server streams responses stalls
//!   only its own writer, which times out, closes that one socket and
//!   exits. Every other connection keeps flowing.

use crate::protocol::{self, ErrorCode, Frame, WireError};
use crossbeam::channel::{self, Receiver};
use dsx_nn::Layer;
use dsx_serve::{ServeConfig, ServeEngine, ServeError, ServeHandle, ServeSnapshot, TaggedResponse};
use dsx_tensor::Tensor;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the acceptor sleeps between polls of its non-blocking listener
/// (the price of interruptible `accept` on std-only sockets). The idle
/// sweep runs at the same cadence, so `idle_timeout` has ~10 ms
/// granularity.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Cached handles for the hygiene counters (exported in the DSXN `Stats`
/// frame alongside the serve-tier stats).
struct ServerCounters {
    accepted: &'static dsx_obs::Counter,
    rejected_busy: &'static dsx_obs::Counter,
    reaped_idle: &'static dsx_obs::Counter,
    rejected_inflight: &'static dsx_obs::Counter,
    write_timeouts: &'static dsx_obs::Counter,
}

fn counters() -> &'static ServerCounters {
    static HANDLES: OnceLock<ServerCounters> = OnceLock::new();
    HANDLES.get_or_init(|| ServerCounters {
        accepted: dsx_obs::counter("net.conn.accepted"),
        rejected_busy: dsx_obs::counter("net.conn.rejected_busy"),
        reaped_idle: dsx_obs::counter("net.conn.reaped_idle"),
        rejected_inflight: dsx_obs::counter("net.req.rejected_inflight"),
        write_timeouts: dsx_obs::counter("net.write_timeouts"),
    })
}

/// Loads a fresh model when a client sends a reload frame. Returning `Err`
/// leaves the currently-served model untouched (the client gets an
/// `Internal` error frame with the message).
pub type ReloadFn = Arc<dyn Fn() -> Result<Arc<dyn Layer>, String> + Send + Sync>;

/// Connection-hygiene knobs layered on top of the engine's [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// The batching engine's own configuration.
    pub serve: ServeConfig,
    /// Hard cap on live connections; a connection past it is answered with
    /// one `ServerBusy` error frame and closed. `None` = unlimited.
    pub max_conns: Option<usize>,
    /// Reap a connection after this long with nothing in flight and no
    /// frame traffic (~10 ms granularity). `None` = never reap.
    pub idle_timeout: Option<Duration>,
    /// Per-connection cap on unanswered requests; requests past it are
    /// answered `ServerBusy` without closing the connection. `None` =
    /// unlimited.
    pub max_inflight: Option<usize>,
    /// `SO_SNDTIMEO` on every connection socket, so a stalled reader kills
    /// only its own connection. `None` = block forever (not recommended).
    pub write_timeout: Option<Duration>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            serve: ServeConfig::default(),
            max_conns: None,
            idle_timeout: None,
            max_inflight: None,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl From<ServeConfig> for NetServerConfig {
    fn from(serve: ServeConfig) -> Self {
        NetServerConfig {
            serve,
            ..NetServerConfig::default()
        }
    }
}

/// The hygiene knobs the acceptor and connection threads consult (the
/// engine half of [`NetServerConfig`] is consumed at start).
#[derive(Clone, Copy)]
struct Hygiene {
    max_conns: Option<usize>,
    idle_timeout: Option<Duration>,
    max_inflight: Option<usize>,
    write_timeout: Option<Duration>,
}

/// A live connection's handles, kept so shutdown can close the socket and
/// join both threads, and so the acceptor's sweep can reap idle ones.
struct Connection {
    stream: TcpStream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
    /// Milliseconds since the server's epoch of the last frame read from
    /// or written to this connection.
    last_activity: Arc<AtomicU64>,
    /// Requests submitted to the engine whose responses have not been
    /// written back yet; the idle sweep never reaps a connection with work
    /// in flight.
    inflight: Arc<AtomicUsize>,
    /// Whether the sweep already shut this connection's socket down (so
    /// the reap counter moves once, not once per poll).
    reaped: AtomicBool,
}

/// The running TCP front-end: owns the engine, the acceptor and every
/// connection thread.
pub struct NetServer {
    engine: ServeEngine,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    connections: Arc<Mutex<Vec<Connection>>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral test port), starts the
    /// batching engine over `model` with `config`, and begins accepting
    /// connections. Hygiene limits sit at [`NetServerConfig::default`]
    /// (write timeouts only); use [`NetServer::start_net`] to set them.
    pub fn start(addr: &str, model: Arc<dyn Layer>, config: ServeConfig) -> io::Result<NetServer> {
        Self::start_net(addr, model, config.into(), None)
    }

    /// Like [`NetServer::start`], but additionally wires a reload hook: a
    /// client's [`Frame::Reload`] runs `reload` and, on success, hot-swaps
    /// the returned model into the live engine —
    /// [`dsx_serve::ServeHandle::swap_model`] — without closing any
    /// connection or dropping any in-flight request.
    pub fn start_with_reload(
        addr: &str,
        model: Arc<dyn Layer>,
        config: ServeConfig,
        reload: Option<ReloadFn>,
    ) -> io::Result<NetServer> {
        Self::start_net(addr, model, config.into(), reload)
    }

    /// The full-control constructor: engine configuration plus connection
    /// hygiene ([`NetServerConfig`]) plus the optional reload hook.
    pub fn start_net(
        addr: &str,
        model: Arc<dyn Layer>,
        config: NetServerConfig,
        reload: Option<ReloadFn>,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let hygiene = Hygiene {
            max_conns: config.max_conns,
            idle_timeout: config.idle_timeout,
            max_inflight: config.max_inflight,
            write_timeout: config.write_timeout,
        };
        let engine = ServeEngine::start(model, config.serve);
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let handle = engine.handle();
            std::thread::Builder::new()
                .name("dsx-net-acceptor".to_string())
                .spawn(move || {
                    accept_loop(&listener, &handle, &stop, &connections, reload, hygiene)
                })?
        };
        Ok(NetServer {
            engine,
            local_addr,
            stop,
            acceptor,
            connections,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine's live serving counters.
    pub fn stats(&self) -> &dsx_serve::ServeStats {
        self.engine.stats()
    }

    /// A shared handle onto the live counters alone — safe for a background
    /// reader to hold across [`NetServer::shutdown`] (a full `ServeHandle`
    /// would keep the engine's queue open and stall the drain).
    pub fn stats_arc(&self) -> Arc<dsx_serve::ServeStats> {
        self.engine.stats_arc()
    }

    /// Stops accepting, closes every connection, drains the engine and
    /// returns the final serving report.
    pub fn shutdown(self) -> ServeSnapshot {
        // ORDER: plain stop flag — the acceptor polls it between accepts;
        // nothing else is published through the store.
        self.stop.store(true, Ordering::Relaxed);
        // A panicked acceptor must not abort shutdown: the connection
        // registry and the engine drain below still have to run so every
        // in-flight request is answered.
        if self.acceptor.join().is_err() {
            eprintln!("dsx-net: the acceptor panicked; continuing shutdown");
        }
        // Closing the sockets unblocks the per-connection readers; their
        // engine handles drop as they exit, which is what lets the engine
        // drain its queue and retire the workers.
        //
        // Poisoning is recoverable: the registry is only ever pushed to,
        // reaped with `retain`, or taken wholesale — all single-step
        // operations that cannot leave it torn.
        let connections = std::mem::take(
            &mut *self
                .connections
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for connection in &connections {
            let _ = connection.stream.shutdown(std::net::Shutdown::Both);
        }
        for connection in connections {
            let _ = connection.reader.join();
            let _ = connection.writer.join();
        }
        self.engine.shutdown()
    }
}

/// Reaps finished threads from the registry and shuts down idle sockets;
/// returns the live connection count. Runs every acceptor poll — not just
/// on accept — so a silent server (no new connections) still retires dead
/// and idle ones. A registry that only grew would leak one duplicated fd
/// (plus two JoinHandles) per closed connection until the fd limit killed
/// `accept` on a long-running server.
fn sweep_connections(
    connections: &Mutex<Vec<Connection>>,
    idle_timeout: Option<Duration>,
    epoch: Instant,
) -> usize {
    // Poison-recoverable for the same reason as in `shutdown`:
    // push/retain/take only.
    let mut connections = connections
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    connections.retain(|c| !c.reader.is_finished() || !c.writer.is_finished());
    if let Some(idle) = idle_timeout {
        let now_ms = epoch.elapsed().as_millis() as u64;
        let idle_ms = idle.as_millis() as u64;
        for connection in connections.iter() {
            // ORDER: both loads are racy-tolerant gauges — a stale read
            // only postpones the reap by one poll; nothing is guarded.
            if connection.inflight.load(Ordering::Relaxed) > 0 {
                continue;
            }
            let last = connection.last_activity.load(Ordering::Relaxed); // ORDER: see above
            if now_ms.saturating_sub(last) >= idle_ms {
                // Shutting the socket unblocks the reader, which exits and
                // closes the pair down; the next sweep's retain drops the
                // registry entry.
                // ORDER: the swap is just a once-guard for the counter; the
                // shutdown call itself is idempotent.
                if !connection.reaped.swap(true, Ordering::Relaxed) {
                    counters().reaped_idle.inc();
                    let _ = connection.stream.shutdown(std::net::Shutdown::Both);
                }
            }
        }
    }
    connections.len()
}

/// The acceptor: poll the non-blocking listener, sweep the registry, apply
/// the connection-limit admission gate, and spawn a reader/writer pair per
/// admitted connection.
fn accept_loop(
    listener: &TcpListener,
    handle: &ServeHandle,
    stop: &AtomicBool,
    connections: &Mutex<Vec<Connection>>,
    reload: Option<ReloadFn>,
    hygiene: Hygiene,
) {
    let epoch = Instant::now();
    let mut next_conn = 0usize;
    // ORDER: stop flag again — a late read costs one extra poll interval.
    while !stop.load(Ordering::Relaxed) {
        let live = sweep_connections(connections, hygiene.idle_timeout, epoch);
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Frames are small and latency-sensitive; Nagling them
                // would serialise the request/response ping-pong.
                let _ = stream.set_nodelay(true);
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_write_timeout(hygiene.write_timeout);
                if hygiene.max_conns.is_some_and(|cap| live >= cap) {
                    // Over the connection limit: one typed rejection, then
                    // close. The engine never sees this connection.
                    counters().rejected_busy.inc();
                    let mut out = BufWriter::new(stream);
                    let _ = protocol::write_frame(
                        &mut out,
                        &Frame::Error {
                            id: 0,
                            code: ErrorCode::ServerBusy,
                            message: format!("connection limit reached ({live} live connections)"),
                        },
                    );
                    let _ = out.flush();
                    continue;
                }
                match spawn_connection(
                    stream,
                    handle.clone(),
                    next_conn,
                    reload.clone(),
                    hygiene,
                    epoch,
                ) {
                    Ok(connection) => {
                        counters().accepted.inc();
                        connections
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(connection);
                    }
                    Err(e) => eprintln!("dsx-net: failed to serve a connection: {e}"),
                }
                next_conn += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) => {
                eprintln!("dsx-net: accept failed: {e}");
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

/// Writes one frame and flushes, under the shared write-half lock.
fn send_frame(out: &Mutex<BufWriter<TcpStream>>, frame: &Frame) -> io::Result<()> {
    let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
    protocol::write_frame(&mut *out, frame)?;
    out.flush()
}

/// Spawns the reader/writer pair for one accepted stream.
fn spawn_connection(
    stream: TcpStream,
    handle: ServeHandle,
    index: usize,
    reload: Option<ReloadFn>,
    hygiene: Hygiene,
    epoch: Instant,
) -> io::Result<Connection> {
    let registry_stream = stream.try_clone()?;
    let out = Arc::new(Mutex::new(BufWriter::new(stream.try_clone()?)));
    let (done_tx, done_rx) = channel::unbounded::<TaggedResponse>();
    let last_activity = Arc::new(AtomicU64::new(epoch.elapsed().as_millis() as u64));
    let inflight = Arc::new(AtomicUsize::new(0));
    let writer = {
        let out = Arc::clone(&out);
        let inflight = Arc::clone(&inflight);
        let last_activity = Arc::clone(&last_activity);
        std::thread::Builder::new()
            .name(format!("dsx-net-writer-{index}"))
            .spawn(move || writer_loop(&out, &done_rx, &inflight, &last_activity, epoch))?
    };
    let reader = {
        let last_activity = Arc::clone(&last_activity);
        let inflight = Arc::clone(&inflight);
        std::thread::Builder::new()
            .name(format!("dsx-net-reader-{index}"))
            .spawn(move || {
                reader_loop(ReaderCtx {
                    stream,
                    handle: &handle,
                    out: &out,
                    done: &done_tx,
                    reload: reload.as_ref(),
                    last_activity: &last_activity,
                    inflight: &inflight,
                    max_inflight: hygiene.max_inflight,
                    epoch,
                });
                // Reader gone: drop its `done` sender. Once the engine's
                // in-flight clones drain too, the writer's recv disconnects
                // and it exits — after the last pending response is
                // flushed.
                drop(done_tx);
            })?
    };
    Ok(Connection {
        stream: registry_stream,
        reader,
        writer,
        last_activity,
        inflight,
        reaped: AtomicBool::new(false),
    })
}

/// Stamps the connection's activity clock (ms since the server's epoch).
fn touch(last_activity: &AtomicU64, epoch: Instant) {
    // ORDER: a monotone-ish gauge read only by the idle sweep; staleness
    // or a torn update merely shifts the reap point by milliseconds.
    last_activity.store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
}

/// One connection's writer: stream engine outcomes back as frames until
/// every `done` sender is gone or the socket dies — then close the socket.
///
/// The close is correct in both exit cases: the channel only disconnects
/// once the reader exited *and* every in-flight engine response was
/// delivered (nothing more will ever flow), and a write error means the
/// client is gone (or — with `SO_SNDTIMEO` — stopped reading long enough
/// to time the write out); closing kicks a reader still blocked on that
/// socket so it stops submitting work nobody will read.
fn writer_loop(
    out: &Mutex<BufWriter<TcpStream>>,
    done_rx: &Receiver<TaggedResponse>,
    inflight: &AtomicUsize,
    last_activity: &AtomicU64,
    epoch: Instant,
) {
    drain_responses(out, done_rx, inflight, last_activity, epoch);
    let out = out.lock().unwrap_or_else(|e| e.into_inner());
    let _ = out.get_ref().shutdown(std::net::Shutdown::Both);
}

/// The writer's drain loop, split out so the socket close above runs on
/// every exit path.
fn drain_responses(
    out: &Mutex<BufWriter<TcpStream>>,
    done_rx: &Receiver<TaggedResponse>,
    inflight: &AtomicUsize,
    last_activity: &AtomicU64,
    epoch: Instant,
) {
    while let Ok(response) = done_rx.recv() {
        let frame = match response.result {
            Ok(tensor) => Frame::Response {
                id: response.id,
                tensor,
            },
            Err(err) => Frame::Error {
                id: response.id,
                code: match &err {
                    ServeError::InvalidRequest(_) => ErrorCode::BadRequest,
                    ServeError::Shutdown => ErrorCode::Shutdown,
                    ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
                },
                message: err.to_string(),
            },
        };
        // The request is answered (or undeliverable) either way: it no
        // longer counts against the connection's in-flight cap. Released
        // *before* the write, so a client that sends its next request the
        // moment it reads this answer is never refused for the request
        // this answer retires; the activity stamp moves first so the idle
        // sweep never sees "nothing in flight" next to a stale stamp.
        touch(last_activity, epoch);
        // ORDER: racy-tolerant gauge — the reader's admission check
        // tolerates off-by-one staleness.
        inflight.fetch_sub(1, Ordering::Relaxed);
        let sent = send_frame(out, &frame);
        match sent {
            Ok(()) => touch(last_activity, epoch),
            Err(e) => {
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) {
                    // A stalled reader, not a vanished one: the write-side
                    // timeout fired. Count it, then fall through to the
                    // same containment — close only this connection.
                    counters().write_timeouts.inc();
                }
                // The client vanished (or stalled past the timeout).
                // Dropping the receiver (by returning) makes the engine's
                // remaining sends for this connection fail silently —
                // cancelled responses, healthy workers.
                return;
            }
        }
    }
}

/// Everything one connection's reader needs (bundled so the spawn above
/// stays readable).
struct ReaderCtx<'a> {
    stream: TcpStream,
    handle: &'a ServeHandle,
    out: &'a Mutex<BufWriter<TcpStream>>,
    done: &'a channel::Sender<TaggedResponse>,
    reload: Option<&'a ReloadFn>,
    last_activity: &'a AtomicU64,
    inflight: &'a AtomicUsize,
    max_inflight: Option<usize>,
    epoch: Instant,
}

/// One connection's reader: parse frames, submit requests (under the
/// in-flight cap), answer protocol errors in place, and decide whether a
/// malformation is survivable.
fn reader_loop(ctx: ReaderCtx<'_>) {
    let ReaderCtx {
        stream,
        handle,
        out,
        done,
        reload,
        last_activity,
        inflight,
        max_inflight,
        epoch,
    } = ctx;
    let mut input = BufReader::new(stream);
    loop {
        match protocol::read_frame(&mut input) {
            Ok(Frame::Request {
                id,
                deadline_us,
                tensor,
            }) => {
                touch(last_activity, epoch);
                // The admission gate reads a racy-tolerant gauge — the
                // writer decrements concurrently, so the cap is accurate
                // to ±1; that slack is fine for a fairness limit.
                let over_cap =
                    max_inflight.is_some_and(|cap| inflight.load(Ordering::Relaxed) >= cap); // ORDER: racy-tolerant gauge (see above)
                if over_cap {
                    counters().rejected_inflight.inc();
                    if send_frame(
                        out,
                        &Frame::Error {
                            id,
                            code: ErrorCode::ServerBusy,
                            message: format!(
                                "in-flight request cap reached on this connection \
                                 (max {} unanswered)",
                                max_inflight.unwrap_or(0)
                            ),
                        },
                    )
                    .is_err()
                    {
                        return;
                    }
                    continue;
                }
                // Counted before submission; the writer decrements as it
                // answers. Validation rejects flow through `done` too, so
                // the pairing is exact.
                // ORDER: racy-tolerant gauge (see admission check above).
                inflight.fetch_add(1, Ordering::Relaxed);
                let deadline = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
                handle.submit_tagged(id, tensor, deadline, done);
            }
            Ok(Frame::Reload { id }) => {
                touch(last_activity, epoch);
                // Swap the model live; every outcome answers on this
                // connection without disturbing any other.
                let frame = match reload {
                    None => Frame::Error {
                        id,
                        code: ErrorCode::BadRequest,
                        message: "model reload is not enabled on this server".to_string(),
                    },
                    Some(load) => match load() {
                        Ok(model) => {
                            let generation = handle.swap_model(model);
                            Frame::Response {
                                id,
                                tensor: Tensor::from_vec(vec![generation as f32], &[1]),
                            }
                        }
                        // The old model keeps serving untouched.
                        Err(why) => Frame::Error {
                            id,
                            code: ErrorCode::Internal,
                            message: format!("model reload failed: {why}"),
                        },
                    },
                };
                if send_frame(out, &frame).is_err() {
                    return;
                }
            }
            Ok(Frame::Stats { id, .. }) => {
                touch(last_activity, epoch);
                // Answer with the process-wide metrics registry (pool, gemm,
                // net counters) merged with the serve tier's own stats.
                let mut snapshot = dsx_obs::snapshot();
                handle.stats().export_metrics(&mut snapshot);
                snapshot.sort();
                if send_frame(out, &Frame::Stats { id, snapshot }).is_err() {
                    return;
                }
            }
            Ok(unexpected) => {
                touch(last_activity, epoch);
                // Clients may only send requests; answer and keep going.
                let _ = send_frame(
                    out,
                    &Frame::Error {
                        id: unexpected.id(),
                        code: ErrorCode::Malformed,
                        message: "only request frames are accepted by the server".to_string(),
                    },
                );
            }
            Err(WireError::Closed) => return,
            Err(err @ (WireError::Malformed { .. } | WireError::BadVersion { .. })) => {
                touch(last_activity, epoch);
                // The length prefix held, so the stream is still framed:
                // answer with a typed protocol error — attributed to the
                // request id when the header yielded one (0 otherwise) —
                // and keep the connection.
                let code = match &err {
                    WireError::BadVersion { .. } => ErrorCode::UnsupportedVersion,
                    _ => ErrorCode::Malformed,
                };
                if send_frame(
                    out,
                    &Frame::Error {
                        id: err.frame_id(),
                        code,
                        message: err.to_string(),
                    },
                )
                .is_err()
                {
                    return;
                }
            }
            Err(err @ WireError::TooLarge(_)) => {
                // Framing can no longer be trusted: best-effort answer,
                // then close this connection (the server lives on).
                let _ = send_frame(
                    out,
                    &Frame::Error {
                        id: 0,
                        code: ErrorCode::FrameTooLarge,
                        message: err.to_string(),
                    },
                );
                return;
            }
            Err(WireError::Io(_)) => return, // the peer died mid-frame
        }
    }
}
