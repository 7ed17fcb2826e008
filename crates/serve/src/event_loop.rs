//! Nonblocking epoll event loop: one thread, thousands of connections.
//!
//! The threaded server spends a thread (stack, scheduler slot, context
//! switches) per connection; past a few hundred clients the host is
//! switching, not serving. This module replaces accept-and-spawn with a
//! single readiness loop over raw `epoll` syscalls (declared `extern "C"`
//! like [`crate::signal`]'s `signal(2)` hook — std already links libc, so
//! no new dependency):
//!
//! * **Level-triggered readiness** over nonblocking sockets. Interest is
//!   the state machine: `EPOLLIN` is dropped while a request is pending or
//!   the write buffer is over its high watermark, so the loop never spins
//!   on data it cannot use — backpressure is expressed to the kernel, and
//!   through TCP flow control, to the client.
//! * **Per-connection state machines** ([`Conn`]) feeding the same
//!   [`FrameBuffer`] framing, registry dispatch, admission control, and
//!   coalescing scheduler as the threaded path. One request is in flight
//!   per connection (the protocol is request/response), so ordering needs
//!   no bookkeeping.
//! * **Completion queue + self-pipe**: a `sim` is submitted with
//!   [`crate::scheduler::ServedModel::submit_with`]; the batcher's hook
//!   pushes the finished [`Response`] onto a mutex'd queue and writes one
//!   byte to a `UnixStream` pair the loop polls — the loop never blocks on
//!   a reply. Tokens carry a generation tag so a completion for a closed,
//!   recycled slot is discarded instead of answering a stranger.
//! * **Bounded write buffers**: replies queue in a per-connection buffer;
//!   past [`WRITE_HIGH_WATERMARK`] reads pause until the client drains it
//!   below [`WRITE_LOW_WATERMARK`]. A client that never reads stalls
//!   itself, not the server.
//! * **HTTP sniffing**: a connection whose first four bytes are `GET ` is
//!   answered as an HTTP/1.1 scrape (`/metrics` → Prometheus exposition,
//!   anything else → 404) and closed; anything else is protocol frames,
//!   codec-sniffed per frame. A frame can never start with `GET ` (JSON
//!   frames open with `{`, binary frames with the `0xC2` magic), so the
//!   sniff cannot misfire.
//! * **Drain, not cliff**: shutdown closes the listener, flips admission
//!   to draining, answers frames arriving within the configured
//!   [`FrameLimits::drain_window`] with a typed `ShuttingDown`, waits for
//!   every pending sim's completion (the batcher always replies), flushes,
//!   and half-closes — FIN, never RST.

use crate::admission::AdmitError;
use crate::metrics::{self, IoGauges};
use crate::protocol::{
    decode_stim, Frame, FrameBuffer, FrameLimits, Request, Response, StimPayload, WireFormat,
    PROTOCOL_VERSION,
};
use crate::registry::Registry;
use crate::server::{sim_reply, WirePolicy};
use crate::signal;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pause reads once this many reply bytes are queued unread by the client.
pub const WRITE_HIGH_WATERMARK: usize = 256 << 10;
/// Resume reads once the queued reply bytes drop below this.
pub const WRITE_LOW_WATERMARK: usize = 64 << 10;
/// Hard cap on post-drain flushing toward clients that stopped reading.
const DRAIN_FLUSH_CAP: Duration = Duration::from_secs(5);
/// epoll_wait timeout: the poll tick for the shutdown/SIGINT flags.
const TICK_MS: i32 = 50;
/// Per-readiness-event read cap so one firehose client cannot starve the
/// rest of the loop (level-triggered epoll re-arms what is left).
const READ_BUDGET: usize = 256 << 10;
/// An HTTP request-head larger than this is hostile; close.
const MAX_HTTP_HEAD: usize = 16 << 10;

// --- raw epoll ------------------------------------------------------------

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// The kernel's `struct epoll_event`. On x86_64 the kernel ABI packs it
/// (no padding between `events` and `data`); elsewhere it is naturally
/// aligned.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Owned epoll instance; closed on drop.
struct Epoll {
    fd: i32,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers passed.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn del(&self, fd: i32) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wait for readiness; returns `(events, data)` pairs (copied out of
    /// the packed kernel structs).
    fn wait(&self, buf: &mut Vec<(u32, u64)>, timeout_ms: i32) -> io::Result<()> {
        buf.clear();
        let mut events = [EpollEvent::default(); 256];
        // SAFETY: the buffer is valid for `maxevents` entries for the call.
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // signal tick; the caller re-polls its flags
            }
            return Err(e);
        }
        for ev in &events[..n as usize] {
            // copy out of the (possibly packed) struct — no references taken
            let (mask, data) = (ev.events, ev.data);
            buf.push((mask, data));
        }
        Ok(())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this instance and closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

// --- connection state machine ---------------------------------------------

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// First bytes not seen yet: HTTP or framed protocol?
    Sniff,
    /// Codec-sniffed protocol frames (JSON lines or binary).
    Framed,
    /// An HTTP scrape: answer one request, then close.
    Http,
}

struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    wbuf: Vec<u8>,
    wpos: usize,
    mode: Mode,
    /// Codec of the most recent popped frame: replies (including drain
    /// and framing-error replies) answer in it.
    wire: WireFormat,
    /// A sim/load is in flight; reads pause and further frames wait.
    pending: bool,
    /// Flush `wbuf`, then close (protocol violation, HTTP done, shutdown).
    closing: bool,
    /// Reads paused because `wbuf` crossed the high watermark.
    throttled: bool,
    /// The client half-closed; serve what is buffered, then close.
    eof: bool,
    /// Interest mask currently registered with epoll.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream, limits: FrameLimits) -> Conn {
        Conn {
            stream,
            frames: FrameBuffer::with_limits(limits),
            wbuf: Vec::new(),
            wpos: 0,
            mode: Mode::Sniff,
            wire: WireFormat::Json,
            pending: false,
            closing: false,
            throttled: false,
            eof: false,
            interest: 0,
        }
    }

    /// Reply bytes queued but not yet accepted by the kernel.
    fn outstanding(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn desired_interest(&self) -> u32 {
        let mut ev = EPOLLRDHUP;
        if !self.pending && !self.closing && !self.throttled && !self.eof {
            ev |= EPOLLIN;
        }
        if self.outstanding() > 0 {
            ev |= EPOLLOUT;
        }
        ev
    }
}

/// Generation-tagged connection slab. A token is `(gen << 32) | slot`;
/// removing a connection bumps the slot's generation, so completions
/// addressed to a closed connection miss instead of hitting its successor.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

impl Slab {
    fn insert(&mut self, conn: Conn) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(conn);
                slot
            }
            None => {
                self.slots.push(Some(conn));
                self.gens.push(0);
                self.slots.len() - 1
            }
        }
    }

    fn token(&self, slot: usize) -> u64 {
        ((self.gens[slot] as u64) << 32) | slot as u64
    }

    fn slot_of(&self, token: u64) -> Option<usize> {
        let slot = (token & u32::MAX as u64) as usize;
        let gen = (token >> 32) as u32;
        (slot < self.slots.len() && self.gens[slot] == gen && self.slots[slot].is_some())
            .then_some(slot)
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut Conn> {
        self.slots.get_mut(slot).and_then(Option::as_mut)
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(slot).and_then(Option::take)?;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        Some(conn)
    }

    fn any(&self, f: impl Fn(&Conn) -> bool) -> bool {
        self.slots.iter().flatten().any(f)
    }

    fn live_slots(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect()
    }
}

// --- completion queue ------------------------------------------------------

struct Completion {
    token: u64,
    response: Response,
}

/// Batcher → event loop handoff: results queue here and one byte on the
/// self-pipe wakes `epoll_wait`. Push never blocks beyond the mutex.
struct Completions {
    queue: Mutex<Vec<Completion>>,
    wake: UnixStream,
    io: Arc<IoGauges>,
}

impl Completions {
    fn push(&self, token: u64, response: Response) {
        self.queue
            .lock()
            .unwrap()
            .push(Completion { token, response });
        self.io
            .completion_queue_depth
            .fetch_add(1, Ordering::Relaxed);
        // A full pipe is fine: the loop is already overdue for a wake and
        // drains the queue on every iteration regardless.
        let _ = (&self.wake).write(&[1u8]);
    }

    fn drain(&self) -> Vec<Completion> {
        let drained = std::mem::take(&mut *self.queue.lock().unwrap());
        self.io
            .completion_queue_depth
            .fetch_sub(drained.len() as u64, Ordering::Relaxed);
        drained
    }
}

/// Shared dispatch context (everything per-frame handling needs besides
/// the connection itself).
struct Ctx {
    registry: Arc<Registry>,
    io: Arc<IoGauges>,
    completions: Arc<Completions>,
    shutdown: Arc<AtomicBool>,
    limits: FrameLimits,
    wire: WirePolicy,
}

// --- the loop --------------------------------------------------------------

/// Run the event loop until shutdown (flag, SIGINT, or a `shutdown`
/// frame), then drain. Mirrors the threaded `accept_loop`'s contract;
/// called on the server's accept thread.
pub fn run_event_loop(
    listener: TcpListener,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    limits: FrameLimits,
    wire: WirePolicy,
) {
    if let Err(e) = run_inner(listener, registry, shutdown, limits, wire) {
        eprintln!("c2nn-serve event loop failed: {e}");
    }
}

fn run_inner(
    listener: TcpListener,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    limits: FrameLimits,
    wire: WirePolicy,
) -> io::Result<()> {
    let ep = Epoll::new()?;
    ep.ctl(EPOLL_CTL_ADD, listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    ep.ctl(EPOLL_CTL_ADD, wake_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKE)?;

    let io = Arc::clone(registry.gauges());
    let completions = Arc::new(Completions {
        queue: Mutex::new(Vec::new()),
        wake: wake_tx,
        io: Arc::clone(&io),
    });
    let ctx = Ctx {
        registry: Arc::clone(&registry),
        io: Arc::clone(&io),
        completions: Arc::clone(&completions),
        shutdown: Arc::clone(&shutdown),
        limits,
        wire,
    };
    let mut slab = Slab::default();
    let mut events: Vec<(u32, u64)> = Vec::new();

    while !shutdown.load(Ordering::SeqCst) && !signal::interrupted() {
        ep.wait(&mut events, TICK_MS)?;
        io.readiness_wakeups_total.fetch_add(1, Ordering::Relaxed);
        for &(mask, token) in &events {
            match token {
                TOKEN_LISTENER => accept_ready(&listener, &ep, &mut slab, &io, limits),
                TOKEN_WAKE => drain_wake_pipe(&wake_rx),
                token => {
                    if let Some(slot) = slab.slot_of(token) {
                        on_conn_event(&ep, &mut slab, slot, mask, &ctx);
                    }
                }
            }
        }
        for c in completions.drain() {
            deliver_completion(&ep, &mut slab, c, &ctx);
        }
    }

    // --- drain: stop accepting, refuse new work typed, settle in-flight ---
    ep.del(listener.as_raw_fd());
    drop(listener);
    registry.admission().begin_drain();
    shutdown.store(true, Ordering::SeqCst);
    drain_phase(&ep, &mut slab, &wake_rx, &completions, &ctx)?;
    Ok(())
}

fn accept_ready(
    listener: &TcpListener,
    ep: &Epoll,
    slab: &mut Slab,
    io: &IoGauges,
    limits: FrameLimits,
) {
    // bounded batch per wake so a connect storm cannot starve live conns
    for _ in 0..64 {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let fd = stream.as_raw_fd();
                let slot = slab.insert(Conn::new(stream, limits));
                let token = slab.token(slot);
                let conn = slab.get_mut(slot).expect("just inserted");
                conn.interest = conn.desired_interest();
                if ep.ctl(EPOLL_CTL_ADD, fd, conn.interest, token).is_err() {
                    slab.remove(slot);
                    continue;
                }
                io.accepted_total.fetch_add(1, Ordering::Relaxed);
                io.open_connections.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break, // transient (e.g. aborted connection)
        }
    }
}

fn drain_wake_pipe(mut wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!(wake_rx.read(&mut buf), Ok(n) if n > 0) {}
}

fn on_conn_event(ep: &Epoll, slab: &mut Slab, slot: usize, mask: u32, ctx: &Ctx) {
    let token = slab.token(slot);
    let close_now = {
        let conn = match slab.get_mut(slot) {
            Some(c) => c,
            None => return,
        };
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            true
        } else {
            let mut dead = false;
            if mask & EPOLLOUT != 0 {
                dead = flush(conn, ctx).is_err();
            }
            if !dead && mask & (EPOLLIN | EPOLLRDHUP) != 0 && conn.interest & EPOLLIN != 0 {
                match read_some(conn) {
                    Ok(eof) => {
                        conn.eof |= eof;
                        process_conn(conn, token, ctx);
                        dead = flush(conn, ctx).is_err();
                    }
                    Err(_) => dead = true,
                }
            }
            dead || should_close(conn)
        }
    };
    if close_now {
        remove_conn(ep, slab, slot, ctx);
    } else {
        sync_interest(ep, slab, slot);
    }
}

fn deliver_completion(ep: &Epoll, slab: &mut Slab, c: Completion, ctx: &Ctx) {
    let Some(slot) = slab.slot_of(c.token) else {
        return; // connection closed while the sim ran; reply evaporates
    };
    let token = c.token;
    let close_now = {
        let conn = slab.get_mut(slot).expect("slot_of checked");
        conn.pending = false;
        enqueue_response(conn, &c.response, ctx);
        let mut dead = flush(conn, ctx).is_err();
        if !dead {
            // a pipelining client may have the next frame already buffered
            process_conn(conn, token, ctx);
            dead = flush(conn, ctx).is_err();
        }
        dead || should_close(conn)
    };
    if close_now {
        remove_conn(ep, slab, slot, ctx);
    } else {
        sync_interest(ep, slab, slot);
    }
}

fn remove_conn(ep: &Epoll, slab: &mut Slab, slot: usize, ctx: &Ctx) {
    if let Some(conn) = slab.remove(slot) {
        ep.del(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Write); // FIN, not RST
        ctx.io.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

fn sync_interest(ep: &Epoll, slab: &mut Slab, slot: usize) {
    let token = slab.token(slot);
    if let Some(conn) = slab.get_mut(slot) {
        let want = conn.desired_interest();
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            conn.interest = want;
            let _ = ep.ctl(EPOLL_CTL_MOD, fd, want, token);
        }
    }
}

/// Read until `WouldBlock`, EOF, or the per-event budget. `Ok(true)` = EOF.
fn read_some(conn: &mut Conn) -> io::Result<bool> {
    let mut chunk = [0u8; 16384];
    let mut total = 0usize;
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                conn.frames.push(&chunk[..n]);
                total += n;
                if total >= READ_BUDGET {
                    return Ok(false); // level-triggered epoll re-arms
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Write queued reply bytes until `WouldBlock` or empty; manages the
/// backpressure watermark state.
fn flush(conn: &mut Conn, ctx: &Ctx) -> io::Result<()> {
    while conn.wpos < conn.wbuf.len() {
        match (&conn.stream).write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > (64 << 10) {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    if conn.throttled && conn.outstanding() < WRITE_LOW_WATERMARK {
        conn.throttled = false;
    }
    let _ = ctx; // watermark counters are charged at enqueue time
    Ok(())
}

fn should_close(conn: &mut Conn) -> bool {
    if conn.outstanding() > 0 {
        return false; // flush first; epoll drives the rest out
    }
    if conn.closing {
        return true;
    }
    if conn.eof {
        if conn.pending {
            return false; // half-closed client still gets its reply
        }
        // complete frames still buffered keep the connection; a bare
        // partial frame at EOF is the threaded path's mid-frame close
        // (framing defects also count as actionable — the drain loop must
        // still pop them to answer with a typed error before FIN)
        return !conn.frames.has_complete_frame();
    }
    false
}

/// Encode `resp` in the connection's current codec and queue it.
fn enqueue_response(conn: &mut Conn, resp: &Response, ctx: &Ctx) {
    let encoded = conn.wire.codec().encode_response(resp);
    ctx.io.record_frame_written(conn.wire, encoded.len() as u64);
    conn.wbuf.extend_from_slice(&encoded);
    if !conn.throttled && conn.outstanding() > WRITE_HIGH_WATERMARK {
        conn.throttled = true;
        ctx.io
            .write_backpressure_total
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Advance one connection's state machine as far as buffered bytes allow.
fn process_conn(conn: &mut Conn, token: u64, ctx: &Ctx) {
    loop {
        if conn.closing {
            return;
        }
        match conn.mode {
            Mode::Sniff => {
                let head = conn.frames.peek();
                if head.is_empty() {
                    return;
                }
                let n = head.len().min(4);
                if head[..n] == b"GET "[..n] {
                    if n < 4 {
                        return; // prefix still ambiguous; wait for bytes
                    }
                    conn.mode = Mode::Http;
                } else {
                    conn.mode = Mode::Framed;
                }
            }
            Mode::Http => {
                try_http(conn, ctx);
                return;
            }
            Mode::Framed => {
                if conn.pending {
                    return; // strict request/response: next frame waits
                }
                match conn.frames.next_frame() {
                    Ok(Some(frame)) => {
                        conn.wire = frame.wire;
                        if !ctx.wire.allows(frame.wire) {
                            // typed refusal in the client's codec, then
                            // close — never a hang
                            ctx.io.record_frame_read(frame.wire, frame.len() as u64);
                            enqueue_response(conn, &ctx.wire.rejection(), ctx);
                            conn.closing = true;
                            return;
                        }
                        handle_frame(conn, token, frame, ctx)
                    }
                    Ok(None) => return,
                    Err(e) => {
                        // over-long or corrupt framing: the byte stream is
                        // no longer trustworthy
                        enqueue_response(
                            conn,
                            &Response::Error {
                                message: e.to_string(),
                            },
                            ctx,
                        );
                        conn.closing = true;
                        return;
                    }
                }
            }
        }
    }
}

fn headers_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

/// Answer one HTTP request (the scrape path) and mark the connection for
/// close — `Connection: close` semantics, the scraper reads to EOF.
fn try_http(conn: &mut Conn, ctx: &Ctx) {
    let head = conn.frames.peek();
    let Some(end) = headers_end(head) else {
        if head.len() > MAX_HTTP_HEAD {
            conn.closing = true; // hostile header stream; nothing to say
        }
        return;
    };
    let request_line = String::from_utf8_lossy(&head[..end]);
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let body = if path == "/metrics" || path.starts_with("/metrics?") {
        ctx.io.http_scrapes_total.fetch_add(1, Ordering::Relaxed);
        metrics::http_ok(&metrics::render_for(&ctx.registry))
    } else {
        metrics::http_not_found()
    };
    conn.frames.clear();
    conn.wbuf.extend_from_slice(&body);
    conn.closing = true;
}

fn admit_error_response(e: AdmitError) -> Response {
    match e {
        AdmitError::Overloaded { retry_after_ms } => Response::Overloaded { retry_after_ms },
        AdmitError::ShuttingDown => Response::ShuttingDown,
    }
}

/// Dispatch one decoded frame. Cheap requests answer inline; `sim` hands
/// its lane to the scheduler with a completion hook; `load` runs on a
/// short-lived thread (rare, admission-gated, but parse+validate is too
/// heavy to stall the loop).
fn handle_frame(conn: &mut Conn, token: u64, frame: Frame, ctx: &Ctx) {
    ctx.io.record_frame_read(frame.wire, frame.len() as u64);
    let request = match frame.decode_request() {
        Ok(r) => r,
        Err(e) => {
            enqueue_response(
                conn,
                &Response::Error {
                    message: e.to_string(),
                },
                ctx,
            );
            return;
        }
    };
    match request {
        Request::Ping => enqueue_response(
            conn,
            &Response::Pong {
                version: PROTOCOL_VERSION,
            },
            ctx,
        ),
        Request::Stats => enqueue_response(
            conn,
            &Response::Stats {
                models: ctx.registry.stats(),
                server: ctx.registry.server_report(),
            },
            ctx,
        ),
        Request::Shutdown => {
            enqueue_response(conn, &Response::ShuttingDown, ctx);
            conn.closing = true;
            ctx.registry.admission().begin_drain();
            ctx.shutdown.store(true, Ordering::SeqCst);
        }
        Request::Load {
            name,
            model,
            deadline_ms,
        } => start_load(conn, token, name, model, deadline_ms, ctx),
        Request::Sim {
            model,
            stim,
            deadline_ms,
        } => start_sim(conn, token, &model, stim, deadline_ms, ctx),
    }
}

fn start_load(
    conn: &mut Conn,
    token: u64,
    name: String,
    model: Vec<u8>,
    deadline_ms: Option<u64>,
    ctx: &Ctx,
) {
    if let Err(e) = ctx.registry.admission().try_admit_load() {
        enqueue_response(conn, &admit_error_response(e), ctx);
        return;
    }
    if deadline_ms == Some(0) {
        enqueue_response(conn, &Response::DeadlineExceeded, ctx);
        return;
    }
    conn.pending = true;
    let registry = Arc::clone(&ctx.registry);
    let completions = Arc::clone(&ctx.completions);
    let spawned = std::thread::Builder::new()
        .name("c2nn-load".to_string())
        .spawn(move || {
            let response = match registry.load(&name, &model) {
                Ok(model) => Response::Loaded {
                    name,
                    bytes: model.bytes as u64,
                },
                Err(message) => Response::Error { message },
            };
            completions.push(token, response);
        });
    if spawned.is_err() {
        conn.pending = false;
        enqueue_response(
            conn,
            &Response::Error {
                message: "server cannot spawn load worker".into(),
            },
            ctx,
        );
    }
}

fn start_sim(
    conn: &mut Conn,
    token: u64,
    model: &str,
    stim: StimPayload,
    deadline_ms: Option<u64>,
    ctx: &Ctx,
) {
    let received = Instant::now();
    let permit = match ctx.registry.admission().try_admit_sim() {
        Ok(p) => p,
        Err(e) => {
            enqueue_response(conn, &admit_error_response(e), ctx);
            return;
        }
    };
    let Some(served) = ctx.registry.get(model) else {
        enqueue_response(
            conn,
            &Response::Error {
                message: format!("unknown model '{model}' (load it first)"),
            },
            ctx,
        );
        return;
    };
    if let Err(e) = ctx
        .registry
        .admission()
        .check_model_budget(served.stats.queue_depth.load(Ordering::Relaxed))
    {
        enqueue_response(conn, &admit_error_response(e), ctx);
        return;
    }
    let text = matches!(stim, StimPayload::Text(_));
    let planes = match decode_stim(stim, model, served.nn.num_primary_inputs) {
        Ok(planes) => planes,
        Err(message) => {
            enqueue_response(conn, &Response::Error { message }, ctx);
            return;
        }
    };
    let deadline = deadline_ms.map(|ms| received + Duration::from_millis(ms));
    conn.pending = true;
    let completions = Arc::clone(&ctx.completions);
    served.submit_with(
        planes,
        deadline,
        Box::new(move |result| {
            // runs on the batcher thread: format, enqueue, wake — no blocking
            completions.push(token, sim_reply(result, text));
            drop(permit); // budget released only once the reply is queued
        }),
    );
}

// --- drain -----------------------------------------------------------------

/// Mirror of the threaded path's `drain_connection`, loop-wide: answer
/// frames with `ShuttingDown` for [`FrameLimits::drain_window`], wait out
/// pending sims (their completions always arrive), flush, half-close
/// everything.
fn drain_phase(
    ep: &Epoll,
    slab: &mut Slab,
    wake_rx: &UnixStream,
    completions: &Arc<Completions>,
    ctx: &Ctx,
) -> io::Result<()> {
    // idle lines close immediately; mid-send or mid-sim lines get the window
    for slot in slab.live_slots() {
        let done = slab
            .get_mut(slot)
            .is_some_and(|c| !c.pending && c.outstanding() == 0 && c.frames.is_empty());
        if done {
            remove_conn(ep, slab, slot, ctx);
        }
    }
    let window_end = Instant::now() + ctx.limits.drain_window;
    let hard_end = window_end + DRAIN_FLUSH_CAP;
    let mut events: Vec<(u32, u64)> = Vec::new();
    loop {
        let pending = slab.any(|c| c.pending);
        let unflushed = slab.any(|c| c.outstanding() > 0);
        let now = Instant::now();
        if now >= hard_end || (now >= window_end && !pending && !unflushed) {
            break;
        }
        ep.wait(&mut events, 20)?;
        for &(mask, token) in &events {
            if token == TOKEN_WAKE {
                drain_wake_pipe(wake_rx);
                continue;
            }
            let Some(slot) = slab.slot_of(token) else {
                continue;
            };
            let close_now = {
                let conn = slab.get_mut(slot).expect("slot_of checked");
                let mut dead = mask & (EPOLLERR | EPOLLHUP) != 0;
                if !dead && mask & EPOLLOUT != 0 {
                    dead = flush(conn, ctx).is_err();
                }
                if !dead && mask & (EPOLLIN | EPOLLRDHUP) != 0 && conn.interest & EPOLLIN != 0 {
                    match read_some(conn) {
                        Ok(eof) => {
                            conn.eof |= eof;
                            // whatever the request was, the drain answer is
                            // the same typed reply, in the frame's codec
                            while let Ok(Some(frame)) = conn.frames.next_frame() {
                                conn.wire = frame.wire;
                                enqueue_response(conn, &Response::ShuttingDown, ctx);
                            }
                            dead = flush(conn, ctx).is_err();
                        }
                        Err(_) => dead = true,
                    }
                }
                dead || (conn.outstanding() == 0 && conn.eof && !conn.pending)
            };
            if close_now {
                remove_conn(ep, slab, slot, ctx);
            } else {
                sync_interest(ep, slab, slot);
            }
        }
        for c in completions.drain() {
            let Some(slot) = slab.slot_of(c.token) else {
                continue;
            };
            let close_now = {
                let conn = slab.get_mut(slot).expect("slot_of checked");
                conn.pending = false;
                enqueue_response(conn, &c.response, ctx);
                flush(conn, ctx).is_err()
            };
            if close_now {
                remove_conn(ep, slab, slot, ctx);
            } else {
                sync_interest(ep, slab, slot);
            }
        }
    }
    // final sweep: one last flush attempt, then FIN everywhere
    for slot in slab.live_slots() {
        if let Some(conn) = slab.get_mut(slot) {
            let _ = flush(conn, ctx);
        }
        remove_conn(ep, slab, slot, ctx);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_tokens_are_generation_tagged() {
        let mut slab = Slab::default();
        let pair = UnixStream::pair().unwrap();
        drop(pair);
        // Conn needs a TcpStream; fabricate one via a loopback listener.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let c1 = TcpStream::connect(addr).unwrap();
        let (s1, _) = listener.accept().unwrap();
        let slot = slab.insert(Conn::new(s1, FrameLimits::default()));
        let tok = slab.token(slot);
        assert_eq!(slab.slot_of(tok), Some(slot));
        slab.remove(slot);
        assert_eq!(slab.slot_of(tok), None, "stale token must miss");
        let c2 = TcpStream::connect(addr).unwrap();
        let (s2, _) = listener.accept().unwrap();
        let slot2 = slab.insert(Conn::new(s2, FrameLimits::default()));
        assert_eq!(slot2, slot, "slot is recycled");
        assert_ne!(slab.token(slot2), tok, "with a fresh generation");
        drop((c1, c2));
    }

    #[test]
    fn sniff_discriminates_http_from_frames() {
        // complete-frame-first can't collide: frames are JSON objects
        assert_eq!(&b"GET "[..2], b"GE");
        for (bytes, is_http) in [
            (&b"GET /metrics HTTP/1.1\r\n\r\n"[..], true),
            (&b"{\"op\":\"ping\"}\n"[..], false),
            (&b"GETX"[..], false),
            (&b"GET\n"[..], false),
        ] {
            let n = bytes.len().min(4);
            let sniffed_http = bytes[..n] == b"GET "[..n] && n >= 4;
            assert_eq!(sniffed_http, is_http, "{bytes:?}");
        }
    }

    #[test]
    fn headers_end_finds_both_separators() {
        assert_eq!(
            headers_end(b"GET / HTTP/1.1\r\nHost: x\r\n\r\nbody"),
            Some(27)
        );
        assert_eq!(headers_end(b"GET / HTTP/1.0\n\n"), Some(16));
        assert_eq!(headers_end(b"GET / HTTP/1.1\r\nHost"), None);
    }
}
