//! Wire protocol: a codec layer with two interchangeable frame formats.
//!
//! Every connection speaks one of two codecs, negotiated by sniffing the
//! first byte of the first frame (see [`WireFormat::sniff`]):
//!
//! * **JSON** — newline-delimited JSON documents, one frame per line,
//!   bit-for-bit compatible with every protocol revision since v1. A JSON
//!   frame's first byte is `{` (or anything that is not the binary magic),
//!   so legacy clients keep working unmodified.
//! * **Binary** — length-prefixed frames whose stimulus/result payloads
//!   are the *same feature-major u64 bit-plane words* that
//!   [`BitTensor`](c2nn_core::BitTensor) uses, so a `sim` request can flow
//!   from the socket buffer into the backend with no per-lane text
//!   parsing and no intermediate `Vec<bool>` allocation. Frame layout:
//!
//!   ```text
//!   +------+------+------+-------+----------------+=============+
//!   | 0xC2 | ver  | kind | flags | payload_len u32 LE | payload |
//!   +------+------+------+-------+----------------+=============+
//!    magic  (=1)                  (bounded by FrameLimits)
//!   ```
//!
//! Frames are untrusted input: decoding never panics, every defect is a
//! typed [`ProtocolError`], and frame length is bounded by
//! [`FrameLimits::max_frame`] so a hostile peer cannot balloon server
//! memory. Framing-level corruption (bad magic version, oversize length)
//! poisons the stream and surfaces as `io::ErrorKind::InvalidData`;
//! content-level defects (unknown kind, ragged-tail garbage, truncated
//! payload fields) leave framing sound and yield a typed error reply on a
//! connection that stays usable.
//!
//! The protocol is deliberately request/response over one connection (no
//! multiplexing): clients that want concurrency open more connections,
//! which is also how the micro-batching scheduler receives coalescable
//! load.

use c2nn_core::{parse_stim, BitTensor, Stimulus};
use c2nn_json::{Json, ToJson};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Protocol revision spoken by this build. v2 added optional request
/// deadlines and the typed overload replies (`overloaded`,
/// `deadline_exceeded`) plus the server-level stats block. v3 added
/// execution-backend labels: `backend`/`auto_selected` on every model
/// stats report and the per-backend `backends` rollup in the server
/// block. v4 added the length-prefixed binary wire (magic `0xC2`),
/// per-connection codec sniffing, packed bit-plane stimulus/result
/// payloads on both codecs, the once-framed `model` document in JSON
/// `load` frames, and the per-codec frame counters in the server stats
/// block.
pub const PROTOCOL_VERSION: u32 = 4;

/// Hard upper bound on one frame's length in bytes (models ship inline in
/// `load` frames, so this is generous). This is the default for
/// [`FrameLimits::max_frame`].
pub const MAX_FRAME: usize = 64 << 20;

/// First byte of every binary frame. Deliberately not valid leading UTF-8
/// for a JSON document and not `G` (the HTTP metrics sniff), so one byte
/// settles the codec.
pub const BINARY_MAGIC: u8 = 0xC2;

/// Binary frame-format revision carried in every binary frame header.
pub const BINARY_WIRE_VERSION: u8 = 1;

/// Binary frame header length: magic, version, kind, flags, payload_len.
const HEADER_LEN: usize = 8;

/// Framing limits shared by every read path (the threaded
/// [`FrameReader`] and the epoll event loop), so the bounds are enforced
/// in exactly one place instead of two separately hard-coded constants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameLimits {
    /// Hard upper bound on one frame's length in bytes.
    pub max_frame: usize,
    /// How long a drain waits for a connection's partial frame to
    /// complete before closing the line anyway.
    pub drain_window: Duration,
}

impl Default for FrameLimits {
    fn default() -> Self {
        FrameLimits {
            max_frame: MAX_FRAME,
            drain_window: Duration::from_millis(250),
        }
    }
}

/// Which codec a frame (or connection) speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// Newline-delimited JSON documents (protocol v1+).
    Json,
    /// Length-prefixed binary frames with bit-plane payloads (v4+).
    Binary,
}

impl WireFormat {
    /// Classify a frame by its first byte: [`BINARY_MAGIC`] means binary,
    /// anything else is JSON (whose frames start with `{`).
    pub fn sniff(first_byte: u8) -> WireFormat {
        if first_byte == BINARY_MAGIC {
            WireFormat::Binary
        } else {
            WireFormat::Json
        }
    }

    /// Stable lower-case label (`"json"` / `"binary"`) used by stats and
    /// the Prometheus `codec` label.
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Json => "json",
            WireFormat::Binary => "binary",
        }
    }

    /// The codec implementation for this wire format.
    pub fn codec(self) -> &'static dyn Codec {
        match self {
            WireFormat::Json => &JsonCodec,
            WireFormat::Binary => &BinaryCodec,
        }
    }
}

impl fmt::Display for WireFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Default for WireFormat {
    /// JSON: what every pre-v4 peer speaks.
    fn default() -> Self {
        WireFormat::Json
    }
}

impl std::str::FromStr for WireFormat {
    type Err = String;

    /// Parse a `--wire` flag value: `json` or `binary`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "json" => Ok(WireFormat::Json),
            "binary" | "bin" => Ok(WireFormat::Binary),
            other => Err(format!("unknown wire format `{other}` (json|binary)")),
        }
    }
}

/// A `sim` request's stimulus, in either wire shape.
#[derive(Clone, Debug, PartialEq)]
pub enum StimPayload {
    /// `.stim` text (one MSB-first input line per cycle, `xN` repeats,
    /// `#` comments) — the only shape pre-v4 clients can send.
    Text(String),
    /// Pre-packed bit planes: feature `f` of cycle `c` is bit `c % 64` of
    /// word `f * W + c / 64` (`features` = primary inputs, `batch` =
    /// cycles). Ragged tail bits must be zero — both codecs mask them on
    /// encode and reject nonzero tails on decode, so the wire form is
    /// canonical and round-trips are identity.
    Packed(BitTensor),
}

impl From<&str> for StimPayload {
    fn from(text: &str) -> Self {
        StimPayload::Text(text.to_owned())
    }
}

impl From<String> for StimPayload {
    fn from(text: String) -> Self {
        StimPayload::Text(text)
    }
}

impl From<BitTensor> for StimPayload {
    fn from(planes: BitTensor) -> Self {
        StimPayload::Packed(planes)
    }
}

impl StimPayload {
    /// Number of stimulus cycles this payload describes, if that is
    /// knowable without parsing (packed payloads carry it explicitly).
    pub fn packed_cycles(&self) -> Option<usize> {
        match self {
            StimPayload::Text(_) => None,
            StimPayload::Packed(bt) => Some(bt.batch()),
        }
    }
}

/// A `sim` response's per-cycle primary outputs, in either wire shape.
#[derive(Clone, Debug, PartialEq)]
pub enum SimOutputs {
    /// One MSB-first output bit string per cycle (the pre-v4 shape).
    Text(Vec<String>),
    /// Packed bit planes, same layout rules as [`StimPayload::Packed`]
    /// (`features` = primary outputs, `batch` = cycles).
    Packed(BitTensor),
}

impl SimOutputs {
    /// Number of simulated cycles these outputs cover.
    pub fn cycles(&self) -> usize {
        match self {
            SimOutputs::Text(v) => v.len(),
            SimOutputs::Packed(bt) => bt.batch(),
        }
    }

    /// Per-cycle MSB-first output strings, converting packed planes if
    /// necessary (this is the client-side presentation path; servers never
    /// call it).
    pub fn to_strings(&self) -> Vec<String> {
        match self {
            SimOutputs::Text(v) => v.clone(),
            SimOutputs::Packed(bt) => planes_to_output_strings(bt),
        }
    }
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Load a compiled model document into the registry under `name`.
    Load {
        /// registry key for subsequent `sim` requests
        name: String,
        /// the full `c2nn-model` document as opaque bytes (UTF-8 JSON in
        /// practice; the binary codec carries it verbatim, the JSON codec
        /// frames it once as a raw subtree instead of re-escaping it as a
        /// string when the bytes are canonical single-line JSON)
        model: Vec<u8>,
        /// optional deadline, milliseconds from server receipt; past it the
        /// server replies `DeadlineExceeded` instead of doing the work
        deadline_ms: Option<u64>,
    },
    /// Run one testbench against model `model`.
    Sim {
        /// registry key of a previously loaded model
        model: String,
        /// the testbench, as `.stim` text or pre-packed bit planes
        stim: StimPayload,
        /// optional deadline, milliseconds from server receipt; lanes whose
        /// deadline passes before batch dispatch are shed with a typed
        /// `DeadlineExceeded` reply
        deadline_ms: Option<u64>,
    },
    /// Fetch per-model serving counters.
    Stats,
    /// Stop accepting connections and shut the server down.
    Shutdown,
}

/// Per-model serving counters reported by [`Response::Stats`].
#[derive(Clone, Debug, PartialEq)]
pub struct ModelStatsReport {
    /// registry key
    pub name: String,
    /// execution backend serving this model's batches (registry name,
    /// e.g. `pooled-csr`, `bitplane`)
    pub backend: String,
    /// whether the calibrated cost model picked the backend
    /// (`--backend auto`) rather than the operator naming it
    pub auto_selected: bool,
    /// model size in bytes (registry accounting)
    pub bytes: u64,
    /// total `sim` requests accepted for this model
    pub requests: u64,
    /// batched simulator runs executed
    pub batches: u64,
    /// total lanes across all batches (== requests that reached a batch)
    pub lanes: u64,
    /// `lanes / batches` — the coalescing win; 1.0 means no coalescing
    pub mean_occupancy: f64,
    /// requests currently queued or in flight
    pub queue_depth: u64,
    /// p50 request latency (enqueue → reply), microseconds (bucket upper
    /// bound)
    pub p50_us: u64,
    /// p99 request latency, microseconds (bucket upper bound)
    pub p99_us: u64,
    /// lanes shed with `DeadlineExceeded` before batch dispatch
    pub deadline_exceeded: u64,
}

c2nn_json::json_struct!(ModelStatsReport {
    name,
    backend,
    auto_selected,
    bytes,
    requests,
    batches,
    lanes,
    mean_occupancy,
    queue_depth,
    p50_us,
    p99_us,
    deadline_exceeded,
});

/// Per-backend selection rollup inside [`ServerStatsReport`]: how many
/// models each execution backend is serving, how many of those the cost
/// model chose, and the request volume they carried.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct BackendSelectionReport {
    /// backend registry name
    pub backend: String,
    /// models currently served on this backend
    pub models: u64,
    /// of those, models the cost model selected (`--backend auto`)
    pub auto_selected: u64,
    /// total `sim` requests accepted across those models
    pub requests: u64,
}

c2nn_json::json_struct!(BackendSelectionReport {
    backend,
    models,
    auto_selected,
    requests,
});

/// Server-wide overload/health counters reported by [`Response::Stats`]
/// beside the per-model reports.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ServerStatsReport {
    /// `sim` requests currently between admission and reply.
    pub inflight: u64,
    /// configured global in-flight budget
    pub max_inflight: u64,
    /// current pressure level: `"nominal"`, `"elevated"`, or `"saturated"`
    pub pressure: String,
    /// is the server draining (refusing all new work)?
    pub draining: bool,
    /// `sim` requests refused with `Overloaded`
    pub rejected_sims: u64,
    /// `load` requests refused with `Overloaded`
    pub rejected_loads: u64,
    /// requests refused with `ShuttingDown` during drain
    pub rejected_draining: u64,
    /// worker-pool epochs that lost a participant to a panic
    pub pool_poisoned_epochs: u64,
    /// chaos injections performed (0 unless `--chaos` armed a schedule)
    pub chaos_injected: u64,
    /// frames carried over the JSON wire (both directions) since start
    pub wire_json_frames: u64,
    /// frames carried over the binary wire (both directions) since start
    pub wire_binary_frames: u64,
    /// per-backend selection rollup over the currently served models
    pub backends: Vec<BackendSelectionReport>,
}

c2nn_json::json_struct!(ServerStatsReport {
    inflight,
    max_inflight,
    pressure,
    draining,
    rejected_sims,
    rejected_loads,
    rejected_draining,
    pool_poisoned_epochs,
    chaos_injected,
    wire_json_frames,
    wire_binary_frames,
    backends,
});

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`]; carries the protocol revision.
    Pong {
        /// [`PROTOCOL_VERSION`] of the server
        version: u32,
    },
    /// Model admitted to the registry.
    Loaded {
        /// registry key
        name: String,
        /// model size counted against the registry byte budget
        bytes: u64,
    },
    /// Testbench results, per-cycle primary outputs.
    SimResult {
        /// per-cycle primary outputs, as MSB-first strings or packed bit
        /// planes (servers answer in the shape the request arrived in)
        outputs: SimOutputs,
        /// cycles simulated (== `outputs.cycles()`)
        cycles: u64,
    },
    /// Reply to [`Request::Stats`].
    Stats {
        /// one report per registered model
        models: Vec<ModelStatsReport>,
        /// server-wide overload/health counters
        server: ServerStatsReport,
    },
    /// Server acknowledges [`Request::Shutdown`], or refuses a new request
    /// because it is draining. Either way: no new work, in-flight work
    /// completes, the connection closes cleanly.
    ShuttingDown,
    /// Admission control refused the request: the in-flight budget is
    /// exhausted (or, for `load`s, pressure is elevated). Retry after the
    /// hinted delay; the connection stays usable.
    Overloaded {
        /// suggested client backoff in milliseconds (always `1..=1000`)
        retry_after_ms: u64,
    },
    /// The request's `deadline_ms` passed before the server could do the
    /// work; the lane was shed without simulating. The connection stays
    /// usable.
    DeadlineExceeded,
    /// The request failed; the connection stays usable.
    Error {
        /// human-readable diagnostic
        message: String,
    },
}

/// Why a frame could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// What went wrong.
    pub message: String,
}

impl ProtocolError {
    fn new(message: impl Into<String>) -> Self {
        ProtocolError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

fn str_field(v: &Json, name: &str) -> Result<String, ProtocolError> {
    c2nn_json::field::<String>(v, name).map_err(|e| ProtocolError::new(e.to_string()))
}

// ---------------------------------------------------------------------------
// Bit-plane conversions
// ---------------------------------------------------------------------------

/// Pack `.stim` text into wire bit planes (`features` = primary inputs,
/// `batch` = cycles), inferring the input width from the first data line.
/// This is the client-side packing path for `--wire binary`.
pub fn stim_text_to_planes(text: &str) -> Result<BitTensor, ProtocolError> {
    let width = text
        .lines()
        .filter_map(|raw| {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                None
            } else {
                line.split_whitespace().next().map(str::len)
            }
        })
        .next()
        .ok_or_else(|| ProtocolError::new("stimulus has no data lines"))?;
    let stim = parse_stim(text, width).map_err(|e| ProtocolError::new(e.to_string()))?;
    Ok(stim_to_planes(&stim))
}

/// Pack a parsed stimulus into wire bit planes: feature `f` of cycle `c`
/// is `stim.cycles[c][f]` (input 0 is the LSB of each `.stim` line).
pub fn stim_to_planes(stim: &Stimulus) -> BitTensor {
    BitTensor::from_lanes(&stim.cycles)
}

/// Decode a `sim` stimulus for model `model` with `width` primary inputs
/// into `width × cycles` input planes — the one place the server turns
/// wire stimuli into what the scheduler runs. Text is parsed at `width`
/// (a comment-only text is zero cycles, still `width` wide); packed
/// planes must carry exactly `width` input bits. The error is the wire
/// message.
pub fn decode_stim(stim: StimPayload, model: &str, width: usize) -> Result<BitTensor, String> {
    match stim {
        StimPayload::Text(text) => parse_stim(&text, width)
            .map_err(|e| e.to_string())
            .and_then(|s| {
                BitTensor::from_lanes_checked(width, &s.cycles).map_err(|e| e.to_string())
            }),
        StimPayload::Packed(planes) if planes.features() != width => Err(format!(
            "stimulus planes carry {} input bits; model '{model}' expects {width}",
            planes.features()
        )),
        StimPayload::Packed(planes) => Ok(planes),
    }
}

/// Render packed output planes as per-cycle MSB-first bit strings — the
/// same reading order as the `.stim` input format (output 0, the LSB,
/// is the last character).
pub fn planes_to_output_strings(planes: &BitTensor) -> Vec<String> {
    (0..planes.batch())
        .map(|c| {
            (0..planes.features())
                .rev()
                .map(|f| if planes.get_bit(f, c) { '1' } else { '0' })
                .collect()
        })
        .collect()
}

/// Validate decoded planes: word count must match the declared shape and
/// ragged tail bits must be zero (the canonical wire form, so
/// encode/decode round-trips are identity).
fn planes_from_words(
    features: usize,
    cycles: usize,
    data: Vec<u64>,
) -> Result<BitTensor, ProtocolError> {
    let bt = BitTensor::from_words(features, cycles, data).ok_or_else(|| {
        ProtocolError::new("bit-plane word count does not match features x ceil(cycles/64)")
    })?;
    let w = bt.words_per_feature();
    let tail = bt.tail_mask();
    if w > 0 && tail != !0 {
        for f in 0..bt.features() {
            if bt.feature_words(f)[w - 1] & !tail != 0 {
                return Err(ProtocolError::new("nonzero bits in ragged bit-plane tail"));
            }
        }
    }
    Ok(bt)
}

/// Iterate a tensor's words in wire order with the ragged tail of each
/// plane masked to zero (encoders call this so the wire form is always
/// canonical).
fn wire_words(bt: &BitTensor) -> impl Iterator<Item = u64> + '_ {
    let w = bt.words_per_feature();
    let tail = bt.tail_mask();
    bt.data().iter().enumerate().map(move |(i, &word)| {
        if w > 0 && (i + 1) % w == 0 {
            word & tail
        } else {
            word
        }
    })
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

/// Packed planes as a JSON object: `{"features":F,"cycles":C,"words":[hex]}`
/// (words are lower-case hex strings because JSON numbers are f64-lossy
/// above 2^53).
fn planes_to_json(bt: &BitTensor) -> Json {
    Json::Obj(vec![
        ("features".into(), (bt.features() as u64).to_json()),
        ("cycles".into(), (bt.batch() as u64).to_json()),
        (
            "words".into(),
            Json::Arr(
                wire_words(bt)
                    .map(|w| Json::Str(format!("{w:x}")))
                    .collect(),
            ),
        ),
    ])
}

fn planes_from_json(v: &Json) -> Result<BitTensor, ProtocolError> {
    let field_err = |e: c2nn_json::DecodeError| ProtocolError::new(e.to_string());
    let features: u64 = c2nn_json::field(v, "features").map_err(field_err)?;
    let cycles: u64 = c2nn_json::field(v, "cycles").map_err(field_err)?;
    let words: Vec<String> = c2nn_json::field(v, "words").map_err(field_err)?;
    let data = words
        .iter()
        .map(|s| {
            u64::from_str_radix(s, 16)
                .map_err(|_| ProtocolError::new(format!("bad bit-plane word `{s}`")))
        })
        .collect::<Result<Vec<u64>, _>>()?;
    planes_from_words(features as usize, cycles as usize, data)
}

/// If `model` is canonical single-line JSON (compact re-serialization is
/// byte-identical), return the parsed document so the `load` frame can
/// embed it as a raw subtree instead of re-escaping it as a string.
fn canonical_model_doc(model: &[u8]) -> Option<Json> {
    let text = std::str::from_utf8(model).ok()?;
    let doc = c2nn_json::parse(text).ok()?;
    if doc.to_string_compact() == text {
        Some(doc)
    } else {
        None
    }
}

impl Request {
    /// Serialize to a single-line JSON frame body (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Request::Ping => Json::Obj(vec![("op".into(), "ping".to_json())]),
            Request::Load {
                name,
                model,
                deadline_ms,
            } => {
                let mut fields = vec![
                    ("op".into(), "load".to_json()),
                    ("name".into(), name.to_json()),
                ];
                // frame the model document once (raw subtree) when we can;
                // fall back to the pre-v4 escaped-string field otherwise
                match canonical_model_doc(model) {
                    Some(doc) => fields.push(("model".into(), doc)),
                    None => fields.push((
                        "model_json".into(),
                        String::from_utf8_lossy(model).into_owned().to_json(),
                    )),
                }
                if let Some(d) = deadline_ms {
                    fields.push(("deadline_ms".into(), d.to_json()));
                }
                Json::Obj(fields)
            }
            Request::Sim {
                model,
                stim,
                deadline_ms,
            } => {
                let mut fields = vec![
                    ("op".into(), "sim".to_json()),
                    ("model".into(), model.to_json()),
                ];
                match stim {
                    StimPayload::Text(t) => fields.push(("stim".into(), t.to_json())),
                    StimPayload::Packed(bt) => {
                        fields.push(("stim_packed".into(), planes_to_json(bt)))
                    }
                }
                if let Some(d) = deadline_ms {
                    fields.push(("deadline_ms".into(), d.to_json()));
                }
                Json::Obj(fields)
            }
            Request::Stats => Json::Obj(vec![("op".into(), "stats".to_json())]),
            Request::Shutdown => Json::Obj(vec![("op".into(), "shutdown".to_json())]),
        };
        v.to_string_compact()
    }

    /// Decode a JSON frame body. Never panics.
    pub fn decode(text: &str) -> Result<Request, ProtocolError> {
        let v = c2nn_json::parse(text).map_err(|e| ProtocolError::new(e.to_string()))?;
        let field_err = |e: c2nn_json::DecodeError| ProtocolError::new(e.to_string());
        let op = str_field(&v, "op")?;
        match op.as_str() {
            "ping" => Ok(Request::Ping),
            "load" => {
                let model = match v.get("model") {
                    // v4 once-framed document: re-serialize the subtree
                    Some(doc) => doc.to_string_compact().into_bytes(),
                    None => str_field(&v, "model_json")?.into_bytes(),
                };
                Ok(Request::Load {
                    name: str_field(&v, "name")?,
                    model,
                    deadline_ms: c2nn_json::opt_field(&v, "deadline_ms").map_err(field_err)?,
                })
            }
            "sim" => {
                let stim = match v.get("stim_packed") {
                    Some(p) => StimPayload::Packed(planes_from_json(p)?),
                    None => StimPayload::Text(str_field(&v, "stim")?),
                };
                Ok(Request::Sim {
                    model: str_field(&v, "model")?,
                    stim,
                    deadline_ms: c2nn_json::opt_field(&v, "deadline_ms").map_err(field_err)?,
                })
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::new(format!("unknown op `{other}`"))),
        }
    }
}

impl Response {
    /// Serialize to a single-line JSON frame body (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Response::Pong { version } => Json::Obj(vec![
                ("ok".into(), true.to_json()),
                ("op".into(), "pong".to_json()),
                ("version".into(), version.to_json()),
            ]),
            Response::Loaded { name, bytes } => Json::Obj(vec![
                ("ok".into(), true.to_json()),
                ("op".into(), "loaded".to_json()),
                ("name".into(), name.to_json()),
                ("bytes".into(), bytes.to_json()),
            ]),
            Response::SimResult { outputs, cycles } => {
                let mut fields = vec![
                    ("ok".into(), true.to_json()),
                    ("op".into(), "sim".to_json()),
                ];
                match outputs {
                    SimOutputs::Text(v) => fields.push(("outputs".into(), v.to_json())),
                    SimOutputs::Packed(bt) => {
                        fields.push(("outputs_packed".into(), planes_to_json(bt)))
                    }
                }
                fields.push(("cycles".into(), cycles.to_json()));
                Json::Obj(fields)
            }
            Response::Stats { models, server } => Json::Obj(vec![
                ("ok".into(), true.to_json()),
                ("op".into(), "stats".to_json()),
                ("models".into(), models.to_json()),
                ("server".into(), server.to_json()),
            ]),
            Response::ShuttingDown => Json::Obj(vec![
                ("ok".into(), true.to_json()),
                ("op".into(), "shutdown".to_json()),
            ]),
            Response::Overloaded { retry_after_ms } => Json::Obj(vec![
                ("ok".into(), false.to_json()),
                ("kind".into(), "overloaded".to_json()),
                ("retry_after_ms".into(), retry_after_ms.to_json()),
            ]),
            Response::DeadlineExceeded => Json::Obj(vec![
                ("ok".into(), false.to_json()),
                ("kind".into(), "deadline_exceeded".to_json()),
            ]),
            Response::Error { message } => Json::Obj(vec![
                ("ok".into(), false.to_json()),
                ("error".into(), message.to_json()),
            ]),
        };
        v.to_string_compact()
    }

    /// Decode a JSON frame body. Never panics.
    pub fn decode(text: &str) -> Result<Response, ProtocolError> {
        let v = c2nn_json::parse(text).map_err(|e| ProtocolError::new(e.to_string()))?;
        let ok = v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| ProtocolError::new("missing `ok` field"))?;
        let field_err = |e: c2nn_json::DecodeError| ProtocolError::new(e.to_string());
        if !ok {
            // typed rejections carry a `kind`; untyped failures an `error`
            return match c2nn_json::opt_field::<String>(&v, "kind")
                .map_err(field_err)?
                .as_deref()
            {
                Some("overloaded") => Ok(Response::Overloaded {
                    retry_after_ms: c2nn_json::field(&v, "retry_after_ms").map_err(field_err)?,
                }),
                Some("deadline_exceeded") => Ok(Response::DeadlineExceeded),
                Some(other) => Err(ProtocolError::new(format!(
                    "unknown failure kind `{other}`"
                ))),
                None => Ok(Response::Error {
                    message: str_field(&v, "error")?,
                }),
            };
        }
        let op = str_field(&v, "op")?;
        match op.as_str() {
            "pong" => Ok(Response::Pong {
                version: c2nn_json::field(&v, "version").map_err(field_err)?,
            }),
            "loaded" => Ok(Response::Loaded {
                name: str_field(&v, "name")?,
                bytes: c2nn_json::field(&v, "bytes").map_err(field_err)?,
            }),
            "sim" => {
                let outputs = match v.get("outputs_packed") {
                    Some(p) => SimOutputs::Packed(planes_from_json(p)?),
                    None => SimOutputs::Text(c2nn_json::field(&v, "outputs").map_err(field_err)?),
                };
                Ok(Response::SimResult {
                    outputs,
                    cycles: c2nn_json::field(&v, "cycles").map_err(field_err)?,
                })
            }
            "stats" => Ok(Response::Stats {
                models: c2nn_json::field(&v, "models").map_err(field_err)?,
                // absent from pre-v2 servers → defaults, so old captures decode
                server: c2nn_json::opt_field(&v, "server")
                    .map_err(field_err)?
                    .unwrap_or_default(),
            }),
            "shutdown" => Ok(Response::ShuttingDown),
            other => Err(ProtocolError::new(format!("unknown response op `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------------

// Request kinds (high bit clear) and response kinds (high bit set).
const K_PING: u8 = 0x01;
const K_LOAD: u8 = 0x02;
const K_SIM: u8 = 0x03;
const K_STATS: u8 = 0x04;
const K_SHUTDOWN: u8 = 0x05;
const K_PONG: u8 = 0x81;
const K_LOADED: u8 = 0x82;
const K_SIM_RESULT: u8 = 0x83;
const K_STATS_REPLY: u8 = 0x84;
const K_SHUTTING_DOWN: u8 = 0x85;
const K_OVERLOADED: u8 = 0x86;
const K_DEADLINE_EXCEEDED: u8 = 0x87;
const K_ERROR: u8 = 0x88;

// Stimulus/result payload forms inside K_SIM / K_SIM_RESULT.
const FORM_TEXT: u8 = 0;
const FORM_PACKED: u8 = 1;

/// Assemble a complete binary frame: header + payload.
fn binary_frame(kind: u8, payload: Vec<u8>) -> Vec<u8> {
    debug_assert!(payload.len() <= u32::MAX as usize, "payload too large");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.push(BINARY_MAGIC);
    out.push(BINARY_WIRE_VERSION);
    out.push(kind);
    out.push(0); // flags, reserved
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    push_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn push_deadline(out: &mut Vec<u8>, d: &Option<u64>) {
    match d {
        Some(ms) => {
            out.push(1);
            push_u64(out, *ms);
        }
        None => {
            out.push(0);
            push_u64(out, 0);
        }
    }
}

fn push_planes(out: &mut Vec<u8>, bt: &BitTensor) {
    push_u32(out, bt.features() as u32);
    push_u32(out, bt.batch() as u32);
    out.reserve(bt.data().len() * 8);
    for w in wire_words(bt) {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Bounds-checked cursor over an untrusted binary payload. Every read
/// checks the remaining length before touching the slice, so a hostile
/// length field can never cause a panic or an oversized allocation.
struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::new("truncated binary payload"));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<&'a [u8], ProtocolError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_owned)
            .map_err(|_| ProtocolError::new("binary payload string is not valid UTF-8"))
    }

    fn utf8_rest(&mut self) -> Result<&'a str, ProtocolError> {
        let rest = self.take(self.remaining())?;
        std::str::from_utf8(rest)
            .map_err(|_| ProtocolError::new("binary payload string is not valid UTF-8"))
    }

    fn deadline(&mut self) -> Result<Option<u64>, ProtocolError> {
        let present = self.u8()?;
        let ms = self.u64()?;
        match present {
            0 => Ok(None),
            1 => Ok(Some(ms)),
            _ => Err(ProtocolError::new("bad deadline presence flag")),
        }
    }

    fn planes(&mut self) -> Result<BitTensor, ProtocolError> {
        let features = self.u32()? as usize;
        let cycles = self.u32()? as usize;
        let words = features * cycles.div_ceil(64);
        let needed = words
            .checked_mul(8)
            .ok_or_else(|| ProtocolError::new("bit-plane shape overflows"))?;
        if self.remaining() != needed {
            return Err(ProtocolError::new(
                "bit-plane payload length does not match declared shape",
            ));
        }
        let raw = self.take(needed)?;
        let data = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        planes_from_words(features, cycles, data)
    }

    fn done(&self) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(ProtocolError::new("trailing garbage in binary payload"));
        }
        Ok(())
    }
}

/// Validate a binary frame's header and return `(kind, payload)`. The
/// framing layer already checked magic/version/length, but decode is also
/// reachable with raw frame bytes (tests, captures), so re-validate.
fn split_binary_frame(frame: &[u8]) -> Result<(u8, &[u8]), ProtocolError> {
    if frame.len() < HEADER_LEN {
        return Err(ProtocolError::new("binary frame shorter than its header"));
    }
    if frame[0] != BINARY_MAGIC {
        return Err(ProtocolError::new("bad binary frame magic"));
    }
    if frame[1] != BINARY_WIRE_VERSION {
        return Err(ProtocolError::new(format!(
            "unsupported binary wire version {}",
            frame[1]
        )));
    }
    if frame[3] != 0 {
        return Err(ProtocolError::new("nonzero reserved flags in binary frame"));
    }
    let len = u32::from_le_bytes(frame[4..8].try_into().unwrap()) as usize;
    if frame.len() != HEADER_LEN + len {
        return Err(ProtocolError::new(
            "binary frame length does not match its header",
        ));
    }
    Ok((frame[2], &frame[HEADER_LEN..]))
}

fn encode_request_binary(req: &Request) -> Vec<u8> {
    match req {
        Request::Ping => binary_frame(K_PING, Vec::new()),
        Request::Load {
            name,
            model,
            deadline_ms,
        } => {
            let mut p = Vec::with_capacity(name.len() + model.len() + 16);
            push_bytes(&mut p, name.as_bytes());
            push_deadline(&mut p, deadline_ms);
            p.extend_from_slice(model);
            binary_frame(K_LOAD, p)
        }
        Request::Sim {
            model,
            stim,
            deadline_ms,
        } => {
            let mut p = Vec::new();
            push_bytes(&mut p, model.as_bytes());
            push_deadline(&mut p, deadline_ms);
            match stim {
                StimPayload::Text(t) => {
                    p.push(FORM_TEXT);
                    p.extend_from_slice(t.as_bytes());
                }
                StimPayload::Packed(bt) => {
                    p.push(FORM_PACKED);
                    push_planes(&mut p, bt);
                }
            }
            binary_frame(K_SIM, p)
        }
        Request::Stats => binary_frame(K_STATS, Vec::new()),
        Request::Shutdown => binary_frame(K_SHUTDOWN, Vec::new()),
    }
}

fn decode_request_binary(frame: &[u8]) -> Result<Request, ProtocolError> {
    let (kind, payload) = split_binary_frame(frame)?;
    let mut c = Cur::new(payload);
    match kind {
        K_PING => {
            c.done()?;
            Ok(Request::Ping)
        }
        K_LOAD => {
            let name = c.string()?;
            let deadline_ms = c.deadline()?;
            let model = c.take(c.remaining())?.to_vec();
            Ok(Request::Load {
                name,
                model,
                deadline_ms,
            })
        }
        K_SIM => {
            let model = c.string()?;
            let deadline_ms = c.deadline()?;
            let stim = match c.u8()? {
                FORM_TEXT => StimPayload::Text(c.utf8_rest()?.to_owned()),
                FORM_PACKED => StimPayload::Packed(c.planes()?),
                other => return Err(ProtocolError::new(format!("unknown stimulus form {other}"))),
            };
            Ok(Request::Sim {
                model,
                stim,
                deadline_ms,
            })
        }
        K_STATS => {
            c.done()?;
            Ok(Request::Stats)
        }
        K_SHUTDOWN => {
            c.done()?;
            Ok(Request::Shutdown)
        }
        other => Err(ProtocolError::new(format!(
            "unknown binary request kind 0x{other:02x}"
        ))),
    }
}

fn encode_response_binary(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Pong { version } => {
            let mut p = Vec::with_capacity(4);
            push_u32(&mut p, *version);
            binary_frame(K_PONG, p)
        }
        Response::Loaded { name, bytes } => {
            let mut p = Vec::with_capacity(name.len() + 12);
            push_bytes(&mut p, name.as_bytes());
            push_u64(&mut p, *bytes);
            binary_frame(K_LOADED, p)
        }
        Response::SimResult { outputs, cycles } => {
            let mut p = Vec::new();
            push_u64(&mut p, *cycles);
            match outputs {
                SimOutputs::Text(strings) => {
                    p.push(FORM_TEXT);
                    push_u32(&mut p, strings.len() as u32);
                    for s in strings {
                        push_bytes(&mut p, s.as_bytes());
                    }
                }
                SimOutputs::Packed(bt) => {
                    p.push(FORM_PACKED);
                    push_planes(&mut p, bt);
                }
            }
            binary_frame(K_SIM_RESULT, p)
        }
        Response::Stats { models, server } => {
            // stats are a cold diagnostic path: the payload is the JSON
            // stats object, so the report schema lives in one place
            let doc = Json::Obj(vec![
                ("models".into(), models.to_json()),
                ("server".into(), server.to_json()),
            ]);
            binary_frame(K_STATS_REPLY, doc.to_string_compact().into_bytes())
        }
        Response::ShuttingDown => binary_frame(K_SHUTTING_DOWN, Vec::new()),
        Response::Overloaded { retry_after_ms } => {
            let mut p = Vec::with_capacity(8);
            push_u64(&mut p, *retry_after_ms);
            binary_frame(K_OVERLOADED, p)
        }
        Response::DeadlineExceeded => binary_frame(K_DEADLINE_EXCEEDED, Vec::new()),
        Response::Error { message } => binary_frame(K_ERROR, message.as_bytes().to_vec()),
    }
}

fn decode_response_binary(frame: &[u8]) -> Result<Response, ProtocolError> {
    let (kind, payload) = split_binary_frame(frame)?;
    let mut c = Cur::new(payload);
    let field_err = |e: c2nn_json::DecodeError| ProtocolError::new(e.to_string());
    match kind {
        K_PONG => {
            let version = c.u32()?;
            c.done()?;
            Ok(Response::Pong { version })
        }
        K_LOADED => {
            let name = c.string()?;
            let bytes = c.u64()?;
            c.done()?;
            Ok(Response::Loaded { name, bytes })
        }
        K_SIM_RESULT => {
            let cycles = c.u64()?;
            let outputs = match c.u8()? {
                FORM_TEXT => {
                    let count = c.u32()? as usize;
                    let mut strings = Vec::new();
                    for _ in 0..count {
                        strings.push(c.string()?);
                    }
                    c.done()?;
                    SimOutputs::Text(strings)
                }
                FORM_PACKED => SimOutputs::Packed(c.planes()?),
                other => return Err(ProtocolError::new(format!("unknown output form {other}"))),
            };
            Ok(Response::SimResult { outputs, cycles })
        }
        K_STATS_REPLY => {
            let text = c.utf8_rest()?;
            let v = c2nn_json::parse(text).map_err(|e| ProtocolError::new(e.to_string()))?;
            Ok(Response::Stats {
                models: c2nn_json::field(&v, "models").map_err(field_err)?,
                server: c2nn_json::opt_field(&v, "server")
                    .map_err(field_err)?
                    .unwrap_or_default(),
            })
        }
        K_SHUTTING_DOWN => {
            c.done()?;
            Ok(Response::ShuttingDown)
        }
        K_OVERLOADED => {
            let retry_after_ms = c.u64()?;
            c.done()?;
            Ok(Response::Overloaded { retry_after_ms })
        }
        K_DEADLINE_EXCEEDED => {
            c.done()?;
            Ok(Response::DeadlineExceeded)
        }
        K_ERROR => Ok(Response::Error {
            message: c.utf8_rest()?.to_owned(),
        }),
        other => Err(ProtocolError::new(format!(
            "unknown binary response kind 0x{other:02x}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// The codec layer
// ---------------------------------------------------------------------------

/// One wire format: encodes messages into complete frames (terminator /
/// header included) and decodes the frame bytes [`FrameBuffer`] pops.
/// Implementations are stateless unit structs; get one from
/// [`WireFormat::codec`].
pub trait Codec: Send + Sync {
    /// Stable label (`"json"` / `"binary"`), used by stats and metrics.
    fn name(&self) -> &'static str;
    /// The wire format this codec speaks.
    fn wire(&self) -> WireFormat;
    /// Encode a request into one complete frame, ready to write.
    fn encode_request(&self, req: &Request) -> Vec<u8>;
    /// Encode a response into one complete frame, ready to write.
    fn encode_response(&self, resp: &Response) -> Vec<u8>;
    /// Decode a popped frame as a request. Never panics.
    fn decode_request(&self, frame: &[u8]) -> Result<Request, ProtocolError>;
    /// Decode a popped frame as a response. Never panics.
    fn decode_response(&self, frame: &[u8]) -> Result<Response, ProtocolError>;
}

/// The newline-delimited JSON codec (protocol v1+).
pub struct JsonCodec;

fn frame_utf8(frame: &[u8]) -> Result<&str, ProtocolError> {
    std::str::from_utf8(frame).map_err(|_| ProtocolError::new("frame is not valid UTF-8"))
}

impl Codec for JsonCodec {
    fn name(&self) -> &'static str {
        WireFormat::Json.name()
    }

    fn wire(&self) -> WireFormat {
        WireFormat::Json
    }

    fn encode_request(&self, req: &Request) -> Vec<u8> {
        let mut out = req.encode().into_bytes();
        out.push(b'\n');
        out
    }

    fn encode_response(&self, resp: &Response) -> Vec<u8> {
        let mut out = resp.encode().into_bytes();
        out.push(b'\n');
        out
    }

    fn decode_request(&self, frame: &[u8]) -> Result<Request, ProtocolError> {
        Request::decode(frame_utf8(frame)?)
    }

    fn decode_response(&self, frame: &[u8]) -> Result<Response, ProtocolError> {
        Response::decode(frame_utf8(frame)?)
    }
}

/// The length-prefixed binary codec (protocol v4+).
pub struct BinaryCodec;

impl Codec for BinaryCodec {
    fn name(&self) -> &'static str {
        WireFormat::Binary.name()
    }

    fn wire(&self) -> WireFormat {
        WireFormat::Binary
    }

    fn encode_request(&self, req: &Request) -> Vec<u8> {
        encode_request_binary(req)
    }

    fn encode_response(&self, resp: &Response) -> Vec<u8> {
        encode_response_binary(resp)
    }

    fn decode_request(&self, frame: &[u8]) -> Result<Request, ProtocolError> {
        decode_request_binary(frame)
    }

    fn decode_response(&self, frame: &[u8]) -> Result<Response, ProtocolError> {
        decode_response_binary(frame)
    }
}

/// One complete frame popped off a stream: the sniffed wire format plus
/// the frame bytes (for JSON, the line body without its newline; for
/// binary, the whole frame including the 8-byte header).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Codec this frame arrived in (by first-byte sniff).
    pub wire: WireFormat,
    /// The frame bytes (see type-level docs for what they include).
    pub bytes: Vec<u8>,
}

impl Frame {
    /// Decode as a client-to-server message with this frame's codec.
    pub fn decode_request(&self) -> Result<Request, ProtocolError> {
        self.wire.codec().decode_request(&self.bytes)
    }

    /// Decode as a server-to-client message with this frame's codec.
    pub fn decode_response(&self) -> Result<Response, ProtocolError> {
        self.wire.codec().decode_response(&self.bytes)
    }

    /// Frame length in bytes as popped (wire bytes minus the JSON
    /// newline terminator).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Is the frame empty? (Only possible for a bare JSON newline.)
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one JSON frame (body + `\n`) and flush.
pub fn write_frame<W: Write>(w: &mut W, body: &str) -> io::Result<()> {
    debug_assert!(!body.contains('\n'), "frame body must be a single line");
    w.write_all(body.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Write one pre-encoded frame (as produced by a [`Codec`]) and flush.
pub fn write_wire_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Push-based incremental frame splitter: the event loop's per-connection
/// read buffer. Bytes go in via [`push`](FrameBuffer::push) as the socket
/// yields them; complete frames come out via
/// [`next_frame`](FrameBuffer::next_frame), codec-sniffed per frame from
/// the first buffered byte. [`FrameReader`] wraps the same buffer behind a
/// pull-style `Read` source, so the framing rules (length bound, newline
/// scan, binary header parse) live in exactly one place.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    // bytes before this offset are known newline-free, so each push only
    // costs a scan of fresh bytes (a 64 MiB frame arriving in 8 KiB reads
    // must not cost a quadratic re-scan); only meaningful on the JSON path
    scanned: usize,
    limits: FrameLimits,
}

impl FrameBuffer {
    /// An empty buffer with default [`FrameLimits`].
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// An empty buffer enforcing the given limits.
    pub fn with_limits(limits: FrameLimits) -> Self {
        FrameBuffer {
            limits,
            ..FrameBuffer::default()
        }
    }

    /// Append bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (complete frames not yet popped plus any
    /// partial frame). The server's drain path uses this to tell "client
    /// mid-send, wait for their frame" from "line is idle, close now".
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Is nothing buffered at all?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// First buffered bytes without consuming them (the event loop sniffs
    /// `GET ` here to tell an HTTP metrics scrape from a protocol frame).
    pub fn peek(&self) -> &[u8] {
        &self.buf
    }

    /// Wire format of the frame at the head of the buffer, if any byte is
    /// buffered.
    pub fn sniff_wire(&self) -> Option<WireFormat> {
        self.buf.first().map(|&b| WireFormat::sniff(b))
    }

    /// Is a complete frame (or an unrecoverable framing defect, which is
    /// equally actionable) buffered? Unlike
    /// [`next_frame`](FrameBuffer::next_frame) this never consumes; the
    /// drain path uses it to decide whether a closing connection still has
    /// a request to answer.
    pub fn has_complete_frame(&self) -> bool {
        match self.buf.first() {
            None => false,
            Some(&BINARY_MAGIC) => {
                if self.buf.len() < HEADER_LEN {
                    return false;
                }
                if self.buf[1] != BINARY_WIRE_VERSION {
                    return true; // framing defect: next_frame will error
                }
                let len = u32::from_le_bytes(self.buf[4..8].try_into().unwrap()) as usize;
                len > self.limits.max_frame || self.buf.len() >= HEADER_LEN + len
            }
            Some(_) => self.buf.contains(&b'\n'),
        }
    }

    /// Pop the next complete frame.
    ///
    /// * `Ok(Some(frame))` — one complete frame, wire-sniffed;
    /// * `Ok(None)` — no complete frame buffered yet;
    /// * `Err(InvalidData)` — the partial frame already exceeds
    ///   [`FrameLimits::max_frame`], or a binary header declares an
    ///   unsupported version or an oversize length; the buffer is cleared
    ///   because framing is no longer trustworthy.
    pub fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        if self.buf.first() == Some(&BINARY_MAGIC) {
            return self.next_binary_frame();
        }
        if let Some(off) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let pos = self.scanned + off;
            let mut frame: Vec<u8> = self.buf.drain(..=pos).collect();
            frame.pop(); // the newline
            self.scanned = 0;
            return Ok(Some(Frame {
                wire: WireFormat::Json,
                bytes: frame,
            }));
        }
        self.scanned = self.buf.len();
        if self.buf.len() > self.limits.max_frame {
            self.poison();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame exceeds {} bytes", self.limits.max_frame),
            ));
        }
        Ok(None)
    }

    fn next_binary_frame(&mut self) -> io::Result<Option<Frame>> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        if self.buf[1] != BINARY_WIRE_VERSION {
            let got = self.buf[1];
            self.poison();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported binary wire version {got}"),
            ));
        }
        let len = u32::from_le_bytes(self.buf[4..8].try_into().unwrap()) as usize;
        if len > self.limits.max_frame {
            self.poison();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "binary frame of {len} bytes exceeds {} bytes",
                    self.limits.max_frame
                ),
            ));
        }
        if self.buf.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let bytes: Vec<u8> = self.buf.drain(..HEADER_LEN + len).collect();
        self.scanned = 0;
        Ok(Some(Frame {
            wire: WireFormat::Binary,
            bytes,
        }))
    }

    fn poison(&mut self) {
        self.buf.clear();
        self.scanned = 0;
    }

    /// Drop everything buffered.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.scanned = 0;
    }
}

/// Incremental frame reader over any byte stream.
///
/// Unlike `BufRead::read_line`, a read timeout (`WouldBlock` /`TimedOut`)
/// surfaces as an error *without losing buffered partial data* — the server
/// uses short read timeouts to poll its shutdown flag, then resumes reading
/// the same frame.
pub struct FrameReader<R> {
    inner: R,
    frames: FrameBuffer,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a byte stream with default [`FrameLimits`].
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            frames: FrameBuffer::new(),
        }
    }

    /// Wrap a byte stream enforcing the given limits.
    pub fn with_limits(inner: R, limits: FrameLimits) -> Self {
        FrameReader {
            inner,
            frames: FrameBuffer::with_limits(limits),
        }
    }

    /// The underlying stream.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Bytes of an incomplete frame currently buffered. The server's drain
    /// path uses this to tell "client mid-send, wait for their frame" from
    /// "line is idle, close now".
    pub fn buffered(&self) -> usize {
        self.frames.buffered()
    }

    /// Read the next complete frame.
    ///
    /// * `Ok(Some(frame))` — one complete frame, wire-sniffed;
    /// * `Ok(None)` — clean end of stream (no partial frame pending);
    /// * `Err(e)` with `WouldBlock`/`TimedOut` — no complete frame *yet*;
    ///   call again, buffered bytes are kept;
    /// * other `Err` — stream error, over-long frame
    ///   ([`FrameLimits::max_frame`]), or a stream that ended mid-frame.
    pub fn read_frame(&mut self) -> io::Result<Option<Frame>> {
        loop {
            if let Some(frame) = self.frames.next_frame()? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 8192];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    if self.frames.is_empty() {
                        return Ok(None);
                    }
                    self.frames.clear();
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream ended mid-frame",
                    ));
                }
                Ok(n) => self.frames.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_split_across_reads() {
        /// Yields one byte per read call.
        struct Trickle(Cursor<Vec<u8>>);
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let take = 1.min(buf.len());
                self.0.read(&mut buf[..take])
            }
        }
        let mut r = FrameReader::new(Trickle(Cursor::new(b"abc\ndef\n".to_vec())));
        assert_eq!(r.read_frame().unwrap().unwrap().bytes, b"abc".to_vec());
        assert_eq!(r.read_frame().unwrap().unwrap().bytes, b"def".to_vec());
        assert!(r.read_frame().unwrap().is_none());
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut r = FrameReader::new(Cursor::new(b"partial".to_vec()));
        assert!(r.read_frame().is_err());
    }

    #[test]
    fn encoded_frames_are_single_lines() {
        let req = Request::Sim {
            model: "with\nnewline".into(),
            stim: StimPayload::Text("10\n01 x3\n# comment\n".into()),
            deadline_ms: Some(250),
        };
        let body = req.encode();
        assert!(!body.contains('\n'), "{body}");
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    #[test]
    fn deadline_field_is_optional_on_the_wire() {
        // a pre-v2 client frame without deadline_ms still decodes
        let body = r#"{"op":"sim","model":"m","stim":"1\n"}"#;
        assert_eq!(
            Request::decode(body).unwrap(),
            Request::Sim {
                model: "m".into(),
                stim: StimPayload::Text("1\n".into()),
                deadline_ms: None
            }
        );
    }

    #[test]
    fn typed_rejections_roundtrip() {
        for resp in [
            Response::Overloaded { retry_after_ms: 7 },
            Response::DeadlineExceeded,
            Response::ShuttingDown,
        ] {
            let body = resp.encode();
            assert!(!body.contains('\n'));
            assert_eq!(Response::decode(&body).unwrap(), resp);
            // and identically under the binary codec
            let frame = BinaryCodec.encode_response(&resp);
            assert_eq!(BinaryCodec.decode_response(&frame).unwrap(), resp);
        }
        // unknown failure kinds are a protocol error, not a silent Error{}
        assert!(Response::decode(r#"{"ok":false,"kind":"meteor_strike"}"#).is_err());
    }

    #[test]
    fn pre_v2_stats_without_server_block_decodes() {
        let body = r#"{"ok":true,"op":"stats","models":[]}"#;
        match Response::decode(body).unwrap() {
            Response::Stats { models, server } => {
                assert!(models.is_empty());
                assert_eq!(server, ServerStatsReport::default());
            }
            other => panic!("wanted stats, got {other:?}"),
        }
    }

    #[test]
    fn pre_v4_load_with_escaped_model_string_decodes() {
        let body = r#"{"op":"load","name":"m","model_json":"{\"a\":1}"}"#;
        assert_eq!(
            Request::decode(body).unwrap(),
            Request::Load {
                name: "m".into(),
                model: br#"{"a":1}"#.to_vec(),
                deadline_ms: None,
            }
        );
    }

    #[test]
    fn canonical_model_is_framed_once_not_re_escaped() {
        let model = br#"{"format":"c2nn-model","layers":[1,2,3]}"#.to_vec();
        let req = Request::Load {
            name: "m".into(),
            model: model.clone(),
            deadline_ms: None,
        };
        let body = req.encode();
        // the document rides as a raw subtree: no escaped quotes
        assert!(body.contains(r#""model":{"format":"c2nn-model""#), "{body}");
        assert!(!body.contains(r#"\""#), "{body}");
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    #[test]
    fn binary_frames_roundtrip_every_request_variant() {
        let packed = BitTensor::from_lanes(&[
            vec![true, false, true],
            vec![false, false, true],
            vec![true, true, false],
        ]);
        let reqs = [
            Request::Ping,
            Request::Load {
                name: "m".into(),
                model: vec![0, 159, 146, 150, 255], // non-UTF-8 bytes survive
                deadline_ms: Some(9),
            },
            Request::Sim {
                model: "m".into(),
                stim: StimPayload::Text("101\n010 x2\n".into()),
                deadline_ms: None,
            },
            Request::Sim {
                model: "m".into(),
                stim: StimPayload::Packed(packed),
                deadline_ms: Some(u64::MAX),
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let frame = BinaryCodec.encode_request(&req);
            assert_eq!(frame[0], BINARY_MAGIC);
            assert_eq!(BinaryCodec.decode_request(&frame).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn binary_frames_roundtrip_every_response_variant() {
        let packed = BitTensor::from_lanes(&[vec![true, false], vec![true, true]]);
        let resps = [
            Response::Pong { version: 4 },
            Response::Loaded {
                name: "m".into(),
                bytes: 123,
            },
            Response::SimResult {
                outputs: SimOutputs::Text(vec!["10".into(), "01".into()]),
                cycles: 2,
            },
            Response::SimResult {
                outputs: SimOutputs::Packed(packed),
                cycles: 2,
            },
            Response::Stats {
                models: vec![],
                server: ServerStatsReport::default(),
            },
            Response::ShuttingDown,
            Response::Overloaded { retry_after_ms: 5 },
            Response::DeadlineExceeded,
            Response::Error {
                message: "boom".into(),
            },
        ];
        for resp in resps {
            let frame = BinaryCodec.encode_response(&resp);
            assert_eq!(
                BinaryCodec.decode_response(&frame).unwrap(),
                resp,
                "{resp:?}"
            );
        }
    }

    #[test]
    fn packed_payloads_roundtrip_identically_on_the_json_wire() {
        let mut bt = BitTensor::zeros(3, 130); // ragged tail: 130 % 64 != 0
        bt.set_bit(0, 0, true);
        bt.set_bit(2, 129, true);
        bt.set_bit(1, 64, true);
        let req = Request::Sim {
            model: "m".into(),
            stim: StimPayload::Packed(bt.clone()),
            deadline_ms: None,
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        let resp = Response::SimResult {
            outputs: SimOutputs::Packed(bt),
            cycles: 130,
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn nonzero_ragged_tail_is_rejected_by_both_codecs() {
        // 2 features × 3 cycles → 1 word per plane, tail bits 3..64 invalid
        let words = vec![0b111u64, 1 << 40];
        let frame = {
            let mut p = Vec::new();
            push_bytes(&mut p, b"m");
            push_deadline(&mut p, &None);
            p.push(FORM_PACKED);
            push_u32(&mut p, 2);
            push_u32(&mut p, 3);
            for w in &words {
                p.extend_from_slice(&w.to_le_bytes());
            }
            binary_frame(K_SIM, p)
        };
        let err = BinaryCodec.decode_request(&frame).unwrap_err();
        assert!(err.message.contains("ragged"), "{err}");
        let body = format!(
            r#"{{"op":"sim","model":"m","stim_packed":{{"features":2,"cycles":3,"words":["7","{:x}"]}}}}"#,
            1u64 << 40
        );
        let err = Request::decode(&body).unwrap_err();
        assert!(err.message.contains("ragged"), "{err}");
    }

    #[test]
    fn encoders_mask_ragged_tails_to_the_canonical_wire_form() {
        let mut bt = BitTensor::zeros(1, 3);
        bt.set_bit(0, 1, true);
        bt.data_mut()[0] |= 1 << 50; // tail garbage a kernel may leave
        let req = Request::Sim {
            model: "m".into(),
            stim: StimPayload::Packed(bt),
            deadline_ms: None,
        };
        for frame in [
            BinaryCodec.encode_request(&req),
            JsonCodec.encode_request(&req),
        ] {
            let wire = WireFormat::sniff(frame[0]);
            let decoded = match wire
                .codec()
                .decode_request(&frame[..frame.len() - usize::from(wire == WireFormat::Json)])
            {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
            match decoded {
                Request::Sim {
                    stim: StimPayload::Packed(out),
                    ..
                } => {
                    assert!(out.get_bit(0, 1));
                    assert_eq!(out.data()[0], 0b010, "tails masked on {} wire", wire);
                }
                other => panic!("wanted packed sim, got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_buffer_sniffs_codecs_per_frame() {
        let mut fb = FrameBuffer::new();
        fb.push(b"{\"op\":\"ping\"}\n");
        fb.push(&BinaryCodec.encode_request(&Request::Stats));
        let f1 = fb.next_frame().unwrap().unwrap();
        assert_eq!(f1.wire, WireFormat::Json);
        assert_eq!(f1.decode_request().unwrap(), Request::Ping);
        let f2 = fb.next_frame().unwrap().unwrap();
        assert_eq!(f2.wire, WireFormat::Binary);
        assert_eq!(f2.decode_request().unwrap(), Request::Stats);
        assert!(fb.next_frame().unwrap().is_none());
    }

    #[test]
    fn partial_binary_frames_wait_for_more_bytes() {
        let frame = BinaryCodec.encode_request(&Request::Sim {
            model: "m".into(),
            stim: StimPayload::Text("1\n".into()),
            deadline_ms: None,
        });
        let mut fb = FrameBuffer::new();
        for (i, b) in frame.iter().enumerate() {
            assert!(
                fb.next_frame().unwrap().is_none(),
                "complete after {i} bytes?"
            );
            assert!(!fb.has_complete_frame());
            fb.push(&[*b]);
        }
        assert!(fb.has_complete_frame());
        assert_eq!(fb.next_frame().unwrap().unwrap().bytes, frame);
    }

    #[test]
    fn oversized_binary_length_poisons_the_stream() {
        let mut fb = FrameBuffer::with_limits(FrameLimits {
            max_frame: 1024,
            ..FrameLimits::default()
        });
        let mut hdr = vec![BINARY_MAGIC, BINARY_WIRE_VERSION, K_PING, 0];
        hdr.extend_from_slice(&(u32::MAX).to_le_bytes());
        fb.push(&hdr);
        assert!(fb.has_complete_frame(), "defect is actionable");
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1024"), "{err}");
        assert!(fb.is_empty(), "poisoned buffer is cleared");
    }

    #[test]
    fn unsupported_binary_version_poisons_the_stream() {
        let mut fb = FrameBuffer::new();
        fb.push(&[BINARY_MAGIC, 99, K_PING, 0, 0, 0, 0, 0]);
        assert!(fb.has_complete_frame(), "defect is actionable");
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn shared_limits_bound_the_json_path_too() {
        let mut fb = FrameBuffer::with_limits(FrameLimits {
            max_frame: 8,
            ..FrameLimits::default()
        });
        fb.push(b"aaaaaaaaaaaaaaaa");
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("8 bytes"), "{err}");
    }

    #[test]
    fn stim_text_and_planes_convert_faithfully() {
        let text = "10\n01 x2\n# note\n11\n";
        let planes = stim_text_to_planes(text).unwrap();
        assert_eq!(planes.features(), 2);
        assert_eq!(planes.batch(), 4);
        let stim = parse_stim(text, 2).unwrap();
        assert_eq!(planes.to_lanes(), stim.cycles);
        // MSB-first rendering matches the input reading order
        assert_eq!(
            planes_to_output_strings(&planes),
            vec!["10", "01", "01", "11"]
        );
    }
}
