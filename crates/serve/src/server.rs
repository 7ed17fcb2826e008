//! The TCP serving loop: accept → per-connection threads → registry +
//! scheduler dispatch.
//!
//! The accept loop runs nonblocking with a short sleep so it can poll the
//! shutdown flag (set by a `shutdown` request or by SIGINT via
//! [`crate::signal`]). Connection handlers use read timeouts for the same
//! reason: a client idling on an open connection must not pin the server
//! alive past shutdown. Frames are strictly request/response per
//! connection; a `sim` request blocks its connection thread while its lane
//! rides a coalesced batch, which is what lets concurrent *connections*
//! batch together.
//!
//! ## Overload and shutdown contract
//!
//! Every `sim` acquires an admission permit before it touches the
//! scheduler; past the global budget the client gets a typed
//! `Overloaded { retry_after_ms }` reply instead of unbounded queueing.
//! Shutdown is a *drain*, not a cliff: the accept loop closes the listener
//! first (no new connections), admission refuses new work with
//! `ShuttingDown`, and each connection handler spends a bounded window
//! answering any frame already in flight with a typed `ShuttingDown`
//! before sending FIN — a client mid-request at SIGINT sees a typed reply
//! or a clean EOF, never an abrupt reset.

use crate::admission::AdmitError;
use crate::protocol::{
    decode_stim, planes_to_output_strings, write_wire_frame, FrameLimits, FrameReader, Request,
    Response, SimOutputs, StimPayload, WireFormat, PROTOCOL_VERSION,
};
use crate::registry::{Registry, RegistryConfig};
use crate::scheduler::{SimFailure, SimOutput};
use crate::signal;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which wire codecs a server accepts. Per-connection negotiation is by
/// first-byte sniff ([`WireFormat::sniff`]); the policy is what lets an
/// operator pin a deployment to the ubiquitous JSON wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WirePolicy {
    /// Accept both codecs, replying to each frame in the codec it arrived
    /// in (the default).
    #[default]
    Any,
    /// Accept only newline-delimited JSON; binary frames get one typed
    /// `Error` reply (in the binary codec, so the client can read it) and
    /// the connection is closed.
    JsonOnly,
}

impl WirePolicy {
    /// Does this policy admit frames in `wire`?
    pub fn allows(self, wire: WireFormat) -> bool {
        match self {
            WirePolicy::Any => true,
            WirePolicy::JsonOnly => wire == WireFormat::Json,
        }
    }

    /// The typed refusal sent when [`allows`](WirePolicy::allows) says no.
    pub fn rejection(self) -> Response {
        Response::Error {
            message: "binary wire format is disabled on this server (JSON-only policy); \
                      reconnect with the JSON codec"
                .to_string(),
        }
    }
}

impl std::str::FromStr for WirePolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<WirePolicy, String> {
        match s {
            "any" => Ok(WirePolicy::Any),
            "json" | "json-only" => Ok(WirePolicy::JsonOnly),
            other => Err(format!("unknown wire policy `{other}` (any|json)")),
        }
    }
}

/// Which I/O architecture serves connections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IoModel {
    /// [`IoModel::EventLoop`] where available (Linux), else
    /// [`IoModel::Threaded`].
    #[default]
    Auto,
    /// One thread per connection with blocking reads — simple, portable,
    /// tops out around a few hundred concurrent clients.
    Threaded,
    /// Single-threaded nonblocking epoll readiness loop
    /// ([`crate::event_loop`]); scales to thousands of connections.
    /// Linux only.
    EventLoop,
}

impl IoModel {
    /// Resolve [`IoModel::Auto`] for this platform.
    pub fn resolve(self) -> IoModel {
        match self {
            IoModel::Auto => {
                if cfg!(target_os = "linux") {
                    IoModel::EventLoop
                } else {
                    IoModel::Threaded
                }
            }
            other => other,
        }
    }
}

impl std::str::FromStr for IoModel {
    type Err = String;
    fn from_str(s: &str) -> Result<IoModel, String> {
        match s {
            "auto" => Ok(IoModel::Auto),
            "threads" | "threaded" => Ok(IoModel::Threaded),
            "epoll" | "event-loop" => Ok(IoModel::EventLoop),
            other => Err(format!("unknown io model `{other}` (auto|threads|epoll)")),
        }
    }
}

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `"127.0.0.1:0"` (port 0 picks a free port).
    pub addr: String,
    /// Registry budget, batching, and admission parameters.
    pub registry: RegistryConfig,
    /// Connection-serving architecture.
    pub io: IoModel,
    /// Frame-size bound and shutdown drain window, shared by both I/O
    /// models.
    pub limits: FrameLimits,
    /// Which wire codecs to accept.
    pub wire: WirePolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            registry: RegistryConfig::default(),
            io: IoModel::Auto,
            limits: FrameLimits::default(),
            wire: WirePolicy::default(),
        }
    }
}

/// A running server: the bound address, its registry, and the accept
/// thread. Call [`ServerHandle::join`] to block until shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model registry, for preloading models in-process.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Ask the server to stop accepting and drain.
    pub fn shutdown(&self) {
        self.registry.admission().begin_drain();
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Block until the accept loop and all connection handlers exit.
    pub fn join(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Bind and start serving in a background thread.
pub fn spawn_server(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let io_model = cfg.io.resolve();
    if io_model == IoModel::EventLoop && !cfg!(target_os = "linux") {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll event loop requires Linux (use --io threads)",
        ));
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let registry = Arc::new(Registry::new(cfg.registry));
    let shutdown = Arc::new(AtomicBool::new(false));
    let (limits, wire) = (cfg.limits, cfg.wire);
    let accept_thread = {
        let registry = Arc::clone(&registry);
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("c2nn-accept".to_string())
            .spawn(move || match io_model {
                #[cfg(target_os = "linux")]
                IoModel::EventLoop => {
                    crate::event_loop::run_event_loop(listener, registry, shutdown, limits, wire)
                }
                _ => accept_loop(listener, registry, shutdown, limits, wire),
            })?
    };
    Ok(ServerHandle {
        addr,
        registry,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(
    listener: TcpListener,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    limits: FrameLimits,
    wire: WirePolicy,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) && !signal::interrupted() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let registry = Arc::clone(&registry);
                let shutdown = Arc::clone(&shutdown);
                let h = std::thread::Builder::new()
                    .name("c2nn-conn".to_string())
                    .spawn(move || {
                        let io = Arc::clone(registry.gauges());
                        io.accepted_total.fetch_add(1, Ordering::Relaxed);
                        io.open_connections.fetch_add(1, Ordering::Relaxed);
                        handle_connection(stream, &registry, &shutdown, limits, wire);
                        io.open_connections.fetch_sub(1, Ordering::Relaxed);
                    })
                    .expect("spawn connection handler");
                handlers.push(h);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // transient accept failure (e.g. aborted connection) — the
                // listener itself stays usable
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        handlers.retain(|h| !h.is_finished());
    }
    // Drain order matters: stop accepting before refusing, refuse before
    // joining — otherwise a connection racing the flag could be accepted
    // and then reset without ever getting a typed reply.
    drop(listener);
    registry.admission().begin_drain();
    shutdown.store(true, Ordering::SeqCst); // handlers enter their drain window
    for h in handlers {
        let _ = h.join();
    }
}

/// Encode `resp` with `wire`'s codec, write it, and record the per-codec
/// metrics. Shared by the request path and every error reply.
fn send_response(
    writer: &mut TcpStream,
    registry: &Registry,
    wire: WireFormat,
    resp: &Response,
) -> io::Result<()> {
    let encoded = wire.codec().encode_response(resp);
    write_wire_frame(writer, &encoded)?;
    registry
        .gauges()
        .record_frame_written(wire, encoded.len() as u64);
    Ok(())
}

fn handle_connection(
    stream: TcpStream,
    registry: &Registry,
    shutdown: &AtomicBool,
    limits: FrameLimits,
    policy: WirePolicy,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = FrameReader::with_limits(stream, limits);
    // Codec of the most recent frame: framing-level failures (where no
    // frame could be popped) answer in whatever the connection last spoke.
    let mut last_wire = WireFormat::Json;
    loop {
        if shutdown.load(Ordering::SeqCst) || signal::interrupted() {
            registry.admission().begin_drain();
            drain_connection(&mut reader, &mut writer, registry, limits.drain_window);
            return;
        }
        let frame = match reader.read_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // client closed cleanly
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue; // poll tick; partial frame (if any) is preserved
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // over-long or corrupt framing: report and drop the
                // connection (byte-stream sync is no longer trustworthy)
                let resp = Response::Error {
                    message: e.to_string(),
                };
                let _ = send_response(&mut writer, registry, last_wire, &resp);
                return;
            }
            Err(_) => return,
        };
        last_wire = frame.wire;
        registry
            .gauges()
            .record_frame_read(frame.wire, frame.len() as u64);
        // An HTTP scrape on the framed port: the request line arrives as
        // one JSON "frame" (it ends in \n). Answer and close — same
        // contract as the event loop's sniffer.
        if frame.wire == WireFormat::Json {
            if let Some(path) = std::str::from_utf8(&frame.bytes)
                .ok()
                .and_then(|t| t.strip_prefix("GET "))
                .map(|r| r.split(' ').next().unwrap_or(""))
            {
                let body = if path == "/metrics" || path.starts_with("/metrics?") {
                    registry
                        .gauges()
                        .http_scrapes_total
                        .fetch_add(1, Ordering::Relaxed);
                    crate::metrics::http_ok(&crate::metrics::render_for(registry))
                } else {
                    crate::metrics::http_not_found()
                };
                let _ = writer.write_all(&body);
                let _ = writer.shutdown(std::net::Shutdown::Write);
                return;
            }
        }
        if !policy.allows(frame.wire) {
            // typed refusal in the client's own codec, then close: a
            // binary client against a JSON-only server must fail fast and
            // legibly, never hang
            let _ = send_response(&mut writer, registry, frame.wire, &policy.rejection());
            return;
        }
        let request = match frame.decode_request() {
            Ok(r) => r,
            Err(e) => {
                let resp = Response::Error {
                    message: e.to_string(),
                };
                if send_response(&mut writer, registry, frame.wire, &resp).is_err() {
                    return;
                }
                continue;
            }
        };
        let is_shutdown = matches!(request, Request::Shutdown);
        let response = dispatch(request, registry);
        if send_response(&mut writer, registry, frame.wire, &response).is_err() {
            return;
        }
        if is_shutdown {
            registry.admission().begin_drain();
            shutdown.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Give a connection caught by shutdown a graceful exit: keep reading for
/// up to [`FrameLimits::drain_window`], answer every complete frame that
/// arrives with a typed `ShuttingDown` (in the frame's own codec), then
/// half-close the write side so the client sees a clean EOF instead of a
/// connection reset.
fn drain_connection(
    reader: &mut FrameReader<TcpStream>,
    writer: &mut TcpStream,
    registry: &Registry,
    window: Duration,
) {
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        match reader.read_frame() {
            Ok(Some(frame)) => {
                // The frame may be garbage — it does not matter; whatever
                // the request was, the answer during drain is the same.
                if send_response(writer, registry, frame.wire, &Response::ShuttingDown).is_err() {
                    break;
                }
            }
            Ok(None) => break, // client closed: EOF both ways
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if reader.buffered() == 0 {
                    break; // line idle, nothing mid-send — close now
                }
                // partial frame buffered: the client is mid-send, give
                // them the rest of the window to finish it
            }
            Err(_) => break,
        }
    }
    let _ = writer.shutdown(std::net::Shutdown::Write); // FIN, not RST
}

fn dispatch(request: Request, registry: &Registry) -> Response {
    match request {
        Request::Ping => Response::Pong {
            version: PROTOCOL_VERSION,
        },
        Request::Load {
            name,
            model,
            deadline_ms,
        } => {
            match registry.admission().try_admit_load() {
                Ok(()) => {}
                Err(e) => return admit_error_response(e),
            }
            // a load that arrives already past its deadline is shed before
            // the expensive parse + validation
            if deadline_ms == Some(0) {
                return Response::DeadlineExceeded;
            }
            match registry.load(&name, &model) {
                Ok(model) => Response::Loaded {
                    name,
                    bytes: model.bytes as u64,
                },
                Err(message) => Response::Error { message },
            }
        }
        Request::Sim {
            model,
            stim,
            deadline_ms,
        } => run_sim(registry, &model, stim, deadline_ms),
        Request::Stats => Response::Stats {
            models: registry.stats(),
            server: registry.server_report(),
        },
        Request::Shutdown => Response::ShuttingDown,
    }
}

fn admit_error_response(e: AdmitError) -> Response {
    match e {
        AdmitError::Overloaded { retry_after_ms } => Response::Overloaded { retry_after_ms },
        AdmitError::ShuttingDown => Response::ShuttingDown,
    }
}

fn run_sim(
    registry: &Registry,
    model: &str,
    stim: StimPayload,
    deadline_ms: Option<u64>,
) -> Response {
    let received = Instant::now();
    // The permit spans admission → reply: it is what bounds end-to-end
    // in-flight work, not just queue depth.
    let _permit = match registry.admission().try_admit_sim() {
        Ok(p) => p,
        Err(e) => return admit_error_response(e),
    };
    let Some(served) = registry.get(model) else {
        return Response::Error {
            message: format!("unknown model '{model}' (load it first)"),
        };
    };
    if let Err(e) = registry
        .admission()
        .check_model_budget(served.stats.queue_depth.load(Ordering::Relaxed))
    {
        return admit_error_response(e);
    }
    let text = matches!(stim, StimPayload::Text(_));
    let planes = match decode_stim(stim, model, served.nn.num_primary_inputs) {
        Ok(planes) => planes,
        Err(message) => return Response::Error { message },
    };
    let deadline = deadline_ms.map(|ms| received + Duration::from_millis(ms));
    let rx = served.submit(planes, deadline);
    match rx.recv() {
        Ok(result) => sim_reply(result, text),
        // The batcher dropped the reply channel — only happens at teardown.
        Err(_) => Response::ShuttingDown,
    }
}

/// Map a scheduler result to its wire reply — shared by the threaded path
/// (after `rx.recv()`) and the event loop's completion hook. The reply
/// takes the shape of the request: MSB-first strings for a text
/// stimulus, the output planes as-is for a packed one.
pub(crate) fn sim_reply(result: Result<SimOutput, SimFailure>, text: bool) -> Response {
    match result {
        Ok(SimOutput { planes }) => Response::SimResult {
            cycles: planes.batch() as u64,
            outputs: if text {
                SimOutputs::Text(planes_to_output_strings(&planes))
            } else {
                SimOutputs::Packed(planes)
            },
        },
        Err(SimFailure::DeadlineExceeded) => Response::DeadlineExceeded,
        Err(SimFailure::ShuttingDown) => Response::ShuttingDown,
        Err(failure @ SimFailure::Failed(_)) => Response::Error {
            message: failure.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::scheduler::BatchConfig;
    use c2nn_circuits::generators::counter;
    use c2nn_core::{compile, CompileOptions};

    fn test_server(max_batch: usize, max_wait_ms: u64) -> ServerHandle {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            registry: RegistryConfig {
                byte_budget: usize::MAX,
                batch: BatchConfig {
                    max_batch,
                    max_wait: Duration::from_millis(max_wait_ms),
                    ..BatchConfig::default()
                },
                ..RegistryConfig::default()
            },
            ..ServerConfig::default()
        };
        spawn_server(cfg).unwrap()
    }

    #[test]
    fn ping_load_sim_stats_shutdown() {
        let server = test_server(8, 1);
        let addr = server.local_addr();
        let mut c = Client::connect(&addr.to_string()).unwrap();
        assert_eq!(c.ping().unwrap(), PROTOCOL_VERSION);

        let nn = compile(&counter(4), CompileOptions::with_l(4)).unwrap();
        let bytes = c.load("ctr", &nn.to_json_string()).unwrap();
        assert!(bytes > 0);

        let outputs = c.sim("ctr", "1 x4\n").unwrap();
        assert_eq!(outputs, vec!["0000", "0001", "0010", "0011"]);

        let stats = c.stats().unwrap();
        assert_eq!(stats.models.len(), 1);
        assert_eq!(stats.models[0].name, "ctr");
        assert_eq!(stats.models[0].requests, 1);
        assert!(
            !stats.models[0].backend.is_empty(),
            "stats carry the backend label"
        );
        assert!(
            stats.models[0].auto_selected,
            "default config selects by cost model"
        );
        assert_eq!(stats.server.pressure, "nominal");
        assert!(!stats.server.draining);
        assert_eq!(stats.server.backends.len(), 1);
        assert_eq!(stats.server.backends[0].backend, stats.models[0].backend);
        assert_eq!(stats.server.backends[0].models, 1);
        assert_eq!(stats.server.backends[0].requests, 1);

        c.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn errors_keep_the_connection_usable() {
        let server = test_server(8, 1);
        let addr = server.local_addr();
        let mut c = Client::connect(&addr.to_string()).unwrap();

        // unknown model
        let err = c.sim("ghost", "1\n").unwrap_err();
        assert!(err.to_string().contains("unknown model"), "{err}");

        // bad stimulus width
        let nn = compile(&counter(4), CompileOptions::with_l(4)).unwrap();
        c.load("ctr", &nn.to_json_string()).unwrap();
        let err = c.sim("ctr", "101\n").unwrap_err();
        assert!(err.to_string().contains("input bits"), "{err}");

        // malformed model JSON
        let err = c.load("bad", "{\"nope\":1}").unwrap_err();
        assert!(err.to_string().contains("rejected"), "{err}");

        // connection still works
        assert_eq!(c.sim("ctr", "1\n").unwrap(), vec!["0000"]);

        server.shutdown();
        server.join();
    }

    #[test]
    fn in_process_preload_is_visible_to_clients() {
        let server = test_server(8, 1);
        let nn = compile(&counter(4), CompileOptions::with_l(4)).unwrap();
        server.registry().install("pre", nn).unwrap();
        let mut c = Client::connect(&server.local_addr().to_string()).unwrap();
        assert_eq!(c.sim("pre", "1 x2\n").unwrap(), vec!["0000", "0001"]);
        server.shutdown();
        server.join();
    }

    #[test]
    fn binary_wire_end_to_end() {
        use c2nn_core::BitTensor;
        let server = test_server(8, 1);
        let addr = server.local_addr().to_string();
        let mut c = Client::connect_wire(&addr, WireFormat::Binary).unwrap();
        assert_eq!(c.wire(), WireFormat::Binary);
        assert_eq!(c.ping().unwrap(), PROTOCOL_VERSION);

        let nn = compile(&counter(4), CompileOptions::with_l(4)).unwrap();
        assert!(c.load("ctr", &nn.to_json_string()).unwrap() > 0);

        // text stimulus over the binary wire
        assert_eq!(
            c.sim("ctr", "1 x4\n").unwrap(),
            vec!["0000", "0001", "0010", "0011"]
        );

        // packed stimulus: clock high for 4 cycles on the single input
        let mut stim = BitTensor::zeros(1, 4);
        for cyc in 0..4 {
            stim.set_bit(0, cyc, true);
        }
        let out = c.sim_packed("ctr", &stim).unwrap();
        assert_eq!(out.features(), 4, "4 counter output bits");
        assert_eq!(out.batch(), 4, "one result per cycle");
        // cycle 3 counts to 0b0011: output bits 0 and 1 set
        assert!(out.get_bit(0, 3) && out.get_bit(1, 3));
        assert!(!out.get_bit(2, 3) && !out.get_bit(3, 3));

        // a same-server JSON client agrees bit-for-bit on the text path
        let mut j = Client::connect(&addr).unwrap();
        assert_eq!(
            j.sim("ctr", "1 x4\n").unwrap(),
            c.sim("ctr", "1 x4\n").unwrap()
        );

        // per-codec traffic shows up in the stats report
        let stats = c.stats().unwrap();
        assert!(stats.server.wire_binary_frames > 0, "{stats:?}");
        assert!(stats.server.wire_json_frames > 0, "{stats:?}");

        c.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn json_only_policy_rejects_binary_with_typed_error() {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            wire: WirePolicy::JsonOnly,
            ..ServerConfig::default()
        };
        let server = spawn_server(cfg).unwrap();
        let addr = server.local_addr().to_string();

        // the rejection is delivered in the client's own codec, decodable
        let mut b = Client::connect_wire(&addr, WireFormat::Binary).unwrap();
        let err = b.ping().unwrap_err();
        assert!(
            err.to_string().contains("JSON-only"),
            "typed rejection names the policy: {err}"
        );

        // JSON clients are untouched
        let mut j = Client::connect(&addr).unwrap();
        assert_eq!(j.ping().unwrap(), PROTOCOL_VERSION);

        server.shutdown();
        server.join();
    }

    #[test]
    fn wire_policy_parses() {
        assert_eq!("any".parse::<WirePolicy>().unwrap(), WirePolicy::Any);
        assert_eq!("json".parse::<WirePolicy>().unwrap(), WirePolicy::JsonOnly);
        assert_eq!(
            "json-only".parse::<WirePolicy>().unwrap(),
            WirePolicy::JsonOnly
        );
        assert!("carrier-pigeon".parse::<WirePolicy>().is_err());
    }
}
