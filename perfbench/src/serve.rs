//! The `serve` workload: a server with `c2nn serve` defaults (epoll, auto
//! backend from the committed calibration, max_batch 64, 2 ms coalescing
//! window), UART loaded over the wire with `Client::load`, and an open
//! loop of seeded testbenches at a fixed rate over two connections, one
//! JSON and one binary, each driven by its own client thread. Latency is
//! timed from each request's scheduled send time.

use crate::prom::{self, Scrape};
use crate::report::Outcome;
use crate::rng::{name_id, Rng};
use crate::setup::{self, Compiled, RoundTimes};
use crate::stats;
use crate::trace::{self, SpanId, Tracer};
use c2nn_core::{format_stim, Stimulus};
use c2nn_hal::{BackendRegistry, DeviceCalibration, Plan};
use c2nn_refsim::CycleSim;
use c2nn_serve::protocol::{stim_to_planes, write_wire_frame};
use c2nn_serve::{
    spawn_server, BatchConfig, Client, FrameReader, RegistryConfig, Request, Response,
    ServerConfig, ServerHandle, StimPayload, WireFormat,
};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Arrivals per second across both connections. A request takes the
/// batcher about 14 ms on a 2-core host, so at 20 req/s it is busy about a
/// quarter of the time and a slow stretch of a shared host barely queues.
/// At 40 req/s (busy over half the time) some runs built a backlog and
/// p90 rose sevenfold; a closed loop would phase-lock the two clients.
const RATE: f64 = 20.0;
/// One connection per codec, each on its own client thread: the load
/// stays within the host's two cores.
const WIRES: [WireFormat; 2] = [WireFormat::Json, WireFormat::Binary];
const MIN_LEN: usize = 16;
const MAX_LEN: usize = 256;
/// Registry name of the served model (`c2nn serve` uses the file stem).
const MODEL: &str = "uart";
/// `c2nn serve` defaults.
const MAX_BATCH: usize = 64;
const MAX_WAIT: Duration = Duration::from_millis(2);
/// Set-up is short here, so it is repeated more to steady its median.
const SETUPS: usize = 25;
/// Time for the client threads to start and connect before the first
/// scheduled send.
const LEAD: Duration = Duration::from_millis(50);

/// A request the generator itself sent later than this after it could
/// have missed its schedule window: the gap between two sends on one
/// connection, by which time the connection's next request is due.
fn window() -> Duration {
    Duration::from_secs_f64(WIRES.len() as f64 / RATE)
}

/// The schedule is split into this many windows of equal length, and a
/// latency percentile is the median of the windows' own percentiles: a
/// slow stretch of a shared host that spans fewer than half of them does
/// not move it. At 20 s each window holds 100 requests, 10 beyond p90.
const WINDOWS: usize = 4;

/// The network-free layer probes replay every this many requests of the
/// schedule, which keeps a traced run well inside its time limit.
const PROBE_EVERY: usize = 4;

/// One scheduled request and its expected reply.
struct Job {
    conn: usize,
    due: Duration,
    stim: Stimulus,
    request: Request,
    /// Per cycle, MSB-first output bits from the reference simulator.
    expected: Vec<String>,
}

/// What the generator saw for one request.
struct Reply {
    job: usize,
    outcome: Result<Response, String>,
    latency_ms: f64,
    late_ms: f64,
    encode_us: f64,
    decode_us: f64,
    done: Instant,
    /// A `SimResult` that matched the reference outputs; only these count
    /// as latency samples.
    ok: bool,
}

fn config(cal: &DeviceCalibration) -> ServerConfig {
    ServerConfig {
        registry: RegistryConfig {
            batch: BatchConfig {
                max_batch: MAX_BATCH,
                max_wait: MAX_WAIT,
                backend: c2nn_hal::Choice::Auto,
            },
            calibration: Arc::new(cal.clone()),
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Circuit source to a server with the model loaded over the wire.
fn set_up(
    cal: &DeviceCalibration,
    round: u64,
    tracer: &Tracer,
) -> Result<(ServerHandle, Compiled, RoundTimes), String> {
    let mut times = RoundTimes::default();
    let t0 = Instant::now();
    let root = tracer.open("setup", round, 0, None);
    let bench = c2nn_circuits::table1_suite()
        .into_iter()
        .find(|b| b.name == "UART")
        .expect("UART is a Table I circuit");
    let c = setup::build_and_compile(&bench, round, tracer, root, &mut times)?;
    let json = setup::timed("core.serialize", round, tracer, root, &mut times, || {
        c.nn.to_json_string()
    });
    let (server, mut client) =
        setup::timed("serve.start", round, tracer, root, &mut times, || {
            let server =
                spawn_server(config(cal)).map_err(|e| format!("cannot start server: {e}"))?;
            let client = Client::connect(&server.local_addr().to_string())
                .map_err(|e| format!("cannot connect: {e}"))?;
            Ok::<_, String>((server, client))
        })?;
    setup::timed("serve.load", round, tracer, root, &mut times, || {
        client.load(MODEL, &json)
    })
    .map_err(|e| format!("load failed: {e}"))?;
    drop(client);
    tracer.close(root);
    times.total_s = t0.elapsed().as_secs_f64();
    Ok((server, c, times))
}

fn stop(server: ServerHandle) {
    server.shutdown();
    server.join();
}

fn bits_msb_first(bits: &[bool]) -> String {
    bits.iter()
        .rev()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

/// The seeded request schedule, with refsim's expected outputs.
fn jobs(c: &Compiled, seed: u64, seconds: u64) -> Result<Vec<Job>, String> {
    let mut refsim = CycleSim::new(&c.nl).map_err(|e| format!("reference simulator: {e}"))?;
    let n = (RATE * seconds as f64).round() as usize;
    let mut rng = Rng::derive(seed, &[name_id("serve")]);
    // each window covers MIN_LEN..=MAX_LEN evenly: latency grows with
    // length, so a window's percentiles must not depend on which lengths
    // the seed put in it
    let lengths: Vec<usize> = (0..WINDOWS)
        .flat_map(|w| {
            let size = (w + 1) * n / WINDOWS - w * n / WINDOWS;
            rng.lengths(size, MIN_LEN, MAX_LEN)
        })
        .collect();
    lengths
        .into_iter()
        .enumerate()
        .map(|(i, len)| {
            let stim = rng.stimulus(c.nn.num_primary_inputs, len);
            refsim.reset();
            let expected = refsim
                .run(&stim.cycles)
                .iter()
                .map(|o| bits_msb_first(o))
                .collect();
            let conn = i % WIRES.len();
            let payload = match WIRES[conn] {
                WireFormat::Json => StimPayload::Text(format_stim(&stim)),
                WireFormat::Binary => StimPayload::Packed(stim_to_planes(&stim)),
            };
            Ok(Job {
                conn,
                due: Duration::from_secs_f64(i as f64 / RATE),
                request: Request::Sim {
                    model: MODEL.to_string(),
                    stim: payload,
                    deadline_ms: None,
                },
                stim,
                expected,
            })
        })
        .collect()
}

fn connect(addr: &str) -> std::io::Result<(TcpStream, FrameReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok((stream.try_clone()?, FrameReader::new(stream)))
}

fn round_trip(
    writer: &mut TcpStream,
    reader: &mut FrameReader<TcpStream>,
    frame: &[u8],
) -> Result<c2nn_serve::Frame, String> {
    write_wire_frame(writer, frame).map_err(|e| format!("write: {e}"))?;
    loop {
        match reader.read_frame() {
            Ok(Some(f)) => return Ok(f),
            Ok(None) => return Err("server closed the connection".to_string()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

/// One client thread: send this connection's share of the schedule.
fn client_loop(
    addr: &str,
    conn: usize,
    jobs: &[Job],
    start: Instant,
    tracer: &Tracer,
    phase: Option<SpanId>,
) -> Vec<Reply> {
    let thread = conn as u32 + 1;
    let codec = WIRES[conn].codec();
    let mut link = connect(addr).map_err(|e| format!("connect: {e}"));
    let mut free_at = start;
    let mut replies = Vec::new();
    for (i, job) in jobs.iter().enumerate().filter(|(_, j)| j.conn == conn) {
        let due = start + job.due;
        let idle = Instant::now();
        if due > idle {
            std::thread::sleep(due - idle);
        }
        tracer.record(
            "loadgen.idle",
            i as u64,
            thread,
            phase,
            idle,
            Instant::now(),
        );
        // the earliest this thread could have sent: on schedule, or when
        // the previous reply freed it
        let ready = due.max(free_at);
        let t0 = Instant::now();
        let frame = codec.encode_request(&job.request);
        let t1 = Instant::now();
        let sent = match &mut link {
            Ok((w, r)) => round_trip(w, r, &frame),
            Err(e) => Err(e.clone()),
        };
        let t2 = Instant::now();
        let outcome = sent.and_then(|f| {
            f.wire
                .codec()
                .decode_response(&f.bytes)
                .map_err(|e| e.to_string())
        });
        let t3 = Instant::now();
        if outcome.is_err() && link.is_ok() {
            // the transport is suspect: reconnect for the next request
            link = connect(addr).map_err(|e| format!("reconnect: {e}"));
        }
        if let Some(req) = tracer.record("serve.request", i as u64, thread, phase, t0, t3) {
            tracer.record("protocol.encode", i as u64, thread, Some(req), t0, t1);
            tracer.record("net.round_trip", i as u64, thread, Some(req), t1, t2);
            tracer.record("protocol.decode", i as u64, thread, Some(req), t2, t3);
        }
        free_at = t3;
        replies.push(Reply {
            job: i,
            outcome,
            latency_ms: (t3 - due).as_secs_f64() * 1e3,
            late_ms: t1.saturating_duration_since(ready).as_secs_f64() * 1e3,
            encode_us: (t1 - t0).as_secs_f64() * 1e6,
            decode_us: (t3 - t2).as_secs_f64() * 1e6,
            done: t3,
            ok: false,
        });
    }
    replies
}

/// What one open-loop phase measured.
struct Phase {
    replies: Vec<Reply>,
    wall_s: f64,
    gate_cycles: f64,
    failed: u64,
    mismatched: u64,
    /// Time spent comparing replies with the reference outputs.
    check_s: f64,
    before: Scrape,
    after: Scrape,
    span: Option<SpanId>,
}

impl Phase {
    /// Latency percentile `q` over [`WINDOWS`] windows of the schedule, on
    /// one connection or on all.
    fn latency(&self, q: f64, conn: Option<usize>, jobs: &[Job]) -> f64 {
        let samples: Vec<(usize, f64)> = self
            .replies
            .iter()
            .filter(|r| r.ok && conn.is_none_or(|c| jobs[r.job].conn == c))
            .map(|r| (r.job, r.latency_ms))
            .collect();
        let per_window = samples.len() / WINDOWS;
        if !stats::supports(per_window, q) {
            eprintln!(
                "warning: {per_window} latency samples per window do not support p{}",
                q * 100.0
            );
        }
        stats::windowed_percentile(&samples, jobs.len(), WINDOWS, q)
    }

    fn sim_gcps(&self) -> f64 {
        self.gate_cycles / self.wall_s
    }
}

fn run_phase(addr: &str, jobs: &[Job], gates: f64, tracer: &Tracer) -> Result<Phase, String> {
    let before = Scrape::fetch(addr)?;
    let span = tracer.open("phase", 0, 0, None);
    let start = Instant::now() + LEAD;
    let mut replies: Vec<Reply> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WIRES.len())
            .map(|conn| s.spawn(move || client_loop(addr, conn, jobs, start, tracer, span)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    tracer.close(span);
    let after = Scrape::fetch(addr)?;
    // the two client connections plus the closing scrape's own
    let accepted = after.delta(&before, "c2nn_connections_accepted_total", &[]);
    if accepted != (WIRES.len() + 1) as f64 {
        return Err(format!(
            "the open loop must use {} connections; the server accepted {}",
            WIRES.len(),
            accepted - 1.0
        ));
    }
    replies.sort_by_key(|r| r.job);
    let end = replies.iter().map(|r| r.done).max().unwrap_or(start);
    let (mut failed, mut mismatched, mut gate_cycles) = (0u64, 0u64, 0.0);
    let t_check = Instant::now();
    for r in &mut replies {
        let job = &jobs[r.job];
        r.ok = match &r.outcome {
            Ok(Response::SimResult { outputs, .. }) => {
                if outputs.to_strings() == job.expected {
                    gate_cycles += gates * job.stim.cycles.len() as f64;
                    true
                } else {
                    eprintln!(
                        "MISMATCH: serve request {} ({}) differs from refsim",
                        r.job, WIRES[job.conn]
                    );
                    mismatched += 1;
                    false
                }
            }
            Ok(other) => {
                eprintln!("serve request {} rejected: {other:?}", r.job);
                false
            }
            Err(e) => {
                eprintln!("serve request {} failed: {e}", r.job);
                false
            }
        };
        let late = r.late_ms > window().as_secs_f64() * 1e3;
        if late {
            eprintln!(
                "serve request {} sent {:.1} ms late by the generator",
                r.job, r.late_ms
            );
        }
        if !r.ok || late {
            failed += 1;
        }
    }
    failed += (jobs.len() - replies.len()) as u64;
    tracer.record("refsim.check", 0, 0, None, t_check, Instant::now());
    Ok(Phase {
        check_s: t_check.elapsed().as_secs_f64(),
        wall_s: end.saturating_duration_since(start).as_secs_f64(),
        replies,
        gate_cycles,
        failed,
        mismatched,
        before,
        after,
        span,
    })
}

/// Network-free layer probes over the same testbenches: the scheduler
/// alone (`ServedModel::submit` to reply), and the admitted plan alone
/// (`execute_batch`, then a step-by-step replay).
fn probe_layers(
    out: &mut Outcome,
    server: &ServerHandle,
    plan: &dyn Plan,
    jobs: &[Job],
    tracer: &Tracer,
) -> Result<u64, String> {
    let model = server
        .registry()
        .get(MODEL)
        .ok_or("the loaded model is missing from the registry")?;
    let mut mismatched = 0;
    let (mut submit_ms, mut wait_ms) = (Vec::new(), Vec::new());
    let (mut gate_cycles, mut layer_steps) = (0.0, 0.0);
    let gates = plan.nn().gate_count as f64;
    for (i, job) in jobs.iter().enumerate().step_by(PROBE_EVERY) {
        let t0 = Instant::now();
        let reply = model
            .submit(job.stim.clone(), None)
            .recv()
            .map_err(|_| "scheduler dropped a request")?;
        let t1 = Instant::now();
        tracer.record("scheduler.submit", i as u64, 0, None, t0, t1);
        let t2 = Instant::now();
        let result = plan.execute_batch(std::slice::from_ref(&job.stim));
        let t3 = Instant::now();
        tracer.record("hal.execute", i as u64, 0, None, t2, t3);
        submit_ms.push((t1 - t0).as_secs_f64() * 1e3);
        wait_ms.push(((t1 - t0).as_secs_f64() - (t3 - t2).as_secs_f64()) * 1e3);
        gate_cycles += gates * job.stim.cycles.len() as f64;
        let want = &job.expected;
        let got_sched = reply.map(|o| {
            o.lanes()
                .iter()
                .map(|c| bits_msb_first(c))
                .collect::<Vec<_>>()
        });
        let got_exec = result.map(|r| {
            r[0].cycles
                .iter()
                .map(|c| bits_msb_first(c))
                .collect::<Vec<_>>()
        });
        let again = crate::offline::replay(
            plan,
            std::slice::from_ref(&job.stim),
            tracer,
            i as u64,
            None,
        )
        .map(|r| {
            r[0].cycles
                .iter()
                .map(|c| bits_msb_first(c))
                .collect::<Vec<_>>()
        });
        layer_steps += (job.stim.cycles.len() as u64 * plan.manifest().layers) as f64;
        for (what, ok) in [
            ("scheduler", got_sched.as_ref().ok() == Some(want)),
            ("execute_batch", got_exec.as_ref().ok() == Some(want)),
            ("replay", again.as_ref().ok() == Some(want)),
        ] {
            if !ok {
                eprintln!("MISMATCH: serve probe {what} on request {i} differs from refsim");
                mismatched += 1;
            }
        }
    }
    let layers = trace::reduce(&tracer.spans());
    let total = |name: &str| layers.get(name).map_or(0.0, |t| t.total_s);
    let (execute, step) = (total("hal.execute"), total("hal.step"));
    out.set("hal.execute_s", execute);
    out.set("hal.step_s", step);
    out.set("hal.marshal_s", execute - step);
    out.set("hal.step_us_per_layer", step / layer_steps * 1e6);
    out.set("hal.gcps.uart", gate_cycles / execute);
    out.set("scheduler.submit_ms", stats::median(&submit_ms));
    out.set("scheduler.wait_ms", stats::median(&wait_ms));
    Ok(mismatched)
}

/// Per-layer numbers of a traced open-loop phase: client-side codec costs,
/// generator lateness, and the server's own counters from `/metrics`.
fn phase_layers(out: &mut Outcome, phase: &Phase, jobs: &[Job]) {
    for (conn, wire) in WIRES.iter().enumerate() {
        let w = wire.name();
        out.set(
            format!("serve.req_p50_ms.{w}"),
            phase.latency(0.5, Some(conn), jobs),
        );
        let of = |f: fn(&Reply) -> f64| -> Vec<f64> {
            phase
                .replies
                .iter()
                .filter(|r| jobs[r.job].conn == conn)
                .map(f)
                .collect()
        };
        out.set(
            format!("protocol.encode_us.{w}"),
            stats::median(&of(|r| r.encode_us)),
        );
        out.set(
            format!("protocol.decode_us.{w}"),
            stats::median(&of(|r| r.decode_us)),
        );
        for dir in ["in", "out"] {
            out.set(
                format!("serve.wire_bytes.{w}.{dir}"),
                phase.after.delta(
                    &phase.before,
                    "c2nn_serve_wire_bytes_total",
                    &[("codec", w), ("direction", dir)],
                ),
            );
        }
    }
    let late: Vec<f64> = phase.replies.iter().map(|r| r.late_ms).collect();
    out.set("loadgen.late_ms.p50", stats::median(&late));
    out.set(
        "loadgen.late_ms.max",
        late.iter().copied().fold(0.0, f64::max),
    );

    let (b, a) = (&phase.before, &phase.after);
    let model = [("model", MODEL)];
    if let Some(mean_s) = prom::histogram_mean(b, a, "c2nn_request_latency_seconds", &model) {
        out.set("serve.server_latency_ms", mean_s * 1e3);
    }
    let batches = a.delta(b, "c2nn_batches_total", &model);
    out.set("serve.batches", batches);
    if batches > 0.0 {
        out.set(
            "serve.lanes_per_batch",
            a.delta(b, "c2nn_lanes_total", &model) / batches,
        );
    }
    out.set("serve.rejected", a.delta(b, "c2nn_rejected_total", &[]));
    let requests = a.delta(b, "c2nn_requests_total", &model);
    if requests > 0.0 {
        out.set(
            "serve.wakeups_per_req",
            a.delta(b, "c2nn_readiness_wakeups_total", &[]) / requests,
        );
    }
}

/// Run the `serve` workload.
pub fn run(seed: u64, seconds: u64, trace_run: bool) -> Result<Outcome, String> {
    let cal = setup::load_calibration()?;
    let tracer = if trace_run {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let t_run = Instant::now();
    let mut rounds = Vec::new();
    let mut server: Option<(ServerHandle, Compiled)> = None;
    for round in 0..SETUPS {
        if let Some((s, _)) = server.take() {
            stop(s);
        }
        let (s, c, times) = set_up(&cal, round as u64, &tracer)?;
        server = Some((s, c));
        rounds.push(times);
    }
    let (server, compiled) = server.expect("at least one set-up ran");
    let totals: Vec<f64> = rounds.iter().map(|r| r.total_s).collect();
    let addr = server.local_addr().to_string();
    let gates = compiled.nn.gate_count as f64;
    let jobs = jobs(&compiled, seed, seconds)?;

    let result = (|| {
        let mut out = Outcome::default();
        let phase = run_phase(&addr, &jobs, gates, &Tracer::off())?;
        out.set("setup_s", stats::median(&totals));
        out.set("sim_gcps", phase.sim_gcps());
        out.set("req_p50_ms", phase.latency(0.50, None, &jobs));
        out.set("req_p90_ms", phase.latency(0.90, None, &jobs));
        let (mut attempted, mut failed, mut mismatched) =
            (jobs.len() as u64, phase.failed, phase.mismatched);
        if trace_run {
            rounds[stats::median_index(&totals)].report(&mut out);
            let t0 = Instant::now();
            let sel = BackendRegistry::global()
                .select(&compiled.nn, &c2nn_hal::Choice::Auto, &cal, MAX_BATCH)
                .map_err(|e| format!("backend selection failed: {e}"))?;
            out.set("hal.select_s", t0.elapsed().as_secs_f64());
            setup::count(&mut out, &compiled, sel.plan.as_ref())?;

            let traced = run_phase(&addr, &jobs, gates, &tracer)?;
            attempted += jobs.len() as u64;
            failed += traced.failed;
            mismatched += traced.mismatched;
            phase_layers(&mut out, &traced, &jobs);
            let span = traced.span.expect("a traced phase has a span").index();
            let spans = tracer.spans();
            let covered = trace::covered(&spans, span);
            let capacity = spans[span].dur() * WIRES.len() as f64;
            out.set("trace.coverage", covered / capacity);
            out.set("trace.untraced_s", capacity - covered);
            out.set(
                "trace.overhead.sim_gcps",
                traced.sim_gcps() - phase.sim_gcps(),
            );
            out.set(
                "trace.overhead.req_p50_ms",
                traced.latency(0.5, None, &jobs) - phase.latency(0.5, None, &jobs),
            );
            mismatched += probe_layers(&mut out, &server, sel.plan.as_ref(), &jobs, &tracer)?;
            out.set("refsim.check_s", traced.check_s);
            out.set("trace.wall_s", t_run.elapsed().as_secs_f64());
            crate::write_trace("serve", seed, &tracer.spans());
        }
        out.correct = mismatched == 0 && failed == 0;
        out.attempted = attempted;
        out.failed = failed;
        out.set("peak_rss_mb", crate::report::peak_rss_mb());
        Ok(out)
    })();
    stop(server);
    result
}
