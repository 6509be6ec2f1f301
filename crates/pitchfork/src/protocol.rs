//! The daemon wire protocol: line-delimited JSON, hand-rolled.
//!
//! One request or response per line; every line is a single JSON
//! object whose `"req"` / `"resp"` field names the variant. The codec
//! is written from scratch (the workspace vendors every dependency;
//! there is no serde) and hardened for untrusted input: parsing
//! truncated, oversized, deeply nested, or garbage bytes returns a
//! [`ProtocolError`] — it never panics — and the server answers such
//! lines with [`Response::Error`].
//!
//! Serialization of the analysis vocabulary is **stable**:
//! [`Verdict`], [`ExploreStats`], [`OwnedEvent`], [`ServiceStats`],
//! [`JobStatus`], and the rendered violation ([`WireViolation`],
//! carrying `sct-core`/`sct-symx` display forms) keep their field and
//! kind names fixed so daemon and client can skew by a version.
//!
//! ```
//! use pitchfork::protocol::Request;
//!
//! let line = Request::Stats.to_line();
//! assert_eq!(Request::parse(&line).unwrap(), Request::Stats);
//! assert!(Request::parse("{ garbage").is_err());
//! ```

use crate::observe::OwnedEvent;
use crate::report::{ExploreStats, Verdict, Violation};
use crate::service::{JobBaseline, JobSpec, JobStatus, ServiceStats};
use crate::strategy::StrategyKind;
use sct_core::Reg;
use sct_telemetry::{MetricKind, MetricSnapshot};
use std::fmt;

/// The longest line either side accepts (1 MiB — a corpus source is a
/// few KiB; anything bigger is garbage or abuse).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Nesting depth cap for the JSON parser (the protocol itself nests
/// three levels; the cap only exists so crafted input cannot recurse
/// the stack away).
const MAX_DEPTH: usize = 32;

// ----- JSON values --------------------------------------------------------

/// A parsed JSON value. The protocol uses integers only; fractions and
/// exponents are rejected (there is nothing they could mean here).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (the only number form the protocol uses).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in written order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn str_field(&self, key: &str) -> Result<&str, ProtocolError> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(ProtocolError::field(key, "string")),
        }
    }

    pub(crate) fn u64_field(&self, key: &str) -> Result<u64, ProtocolError> {
        match self.get(key) {
            Some(Json::Int(n)) if *n >= 0 && *n <= u64::MAX as i128 => Ok(*n as u64),
            _ => Err(ProtocolError::field(key, "unsigned integer")),
        }
    }

    pub(crate) fn opt_u64_field(&self, key: &str) -> Result<Option<u64>, ProtocolError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(Json::Int(n)) if *n >= 0 && *n <= u64::MAX as i128 => Ok(Some(*n as u64)),
            _ => Err(ProtocolError::field(key, "unsigned integer or null")),
        }
    }

    pub(crate) fn bool_field(&self, key: &str) -> Result<bool, ProtocolError> {
        match self.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(ProtocolError::field(key, "boolean")),
        }
    }

    pub(crate) fn arr_field<'a>(&'a self, key: &str) -> Result<&'a [Json], ProtocolError> {
        match self.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(ProtocolError::field(key, "array")),
        }
    }

    pub(crate) fn opt_str_field(&self, key: &str) -> Result<Option<&str>, ProtocolError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s)),
            _ => Err(ProtocolError::field(key, "string or null")),
        }
    }

    pub(crate) fn str_items(&self, key: &str) -> Result<Vec<String>, ProtocolError> {
        let mut out = Vec::new();
        for item in self.arr_field(key)? {
            match item {
                Json::Str(s) => out.push(s.clone()),
                _ => return Err(ProtocolError::field(key, "array of strings")),
            }
        }
        Ok(out)
    }

    /// Render compactly on one line (no newlines ever appear inside:
    /// strings escape control characters).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// [`Json::write`] into a fresh string.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parse one JSON value from `text` (must consume the whole input
    /// apart from surrounding whitespace).
    pub fn parse(text: &str) -> Result<Json, ProtocolError> {
        if text.len() > MAX_LINE_BYTES {
            return Err(ProtocolError::new("line exceeds size limit"));
        }
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ProtocolError::new("trailing bytes after JSON value"));
        }
        Ok(value)
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), ProtocolError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(ProtocolError::new(format!(
            "expected `{}` at byte {}",
            b as char, *pos
        )))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ProtocolError> {
    if depth > MAX_DEPTH {
        return Err(ProtocolError::new("nesting too deep"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ProtocolError::new("unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(ProtocolError::new("expected `,` or `}` in object")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(ProtocolError::new("expected `,` or `]` in array")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_int(bytes, pos),
        Some(&b) => Err(ProtocolError::new(format!(
            "unexpected byte {:#04x} at {}",
            b, *pos
        ))),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Json,
) -> Result<Json, ProtocolError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ProtocolError::new(format!("bad literal at byte {}", *pos)))
    }
}

fn parse_int(bytes: &[u8], pos: &mut usize) -> Result<Json, ProtocolError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(ProtocolError::new("number without digits"));
    }
    if matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E')) {
        return Err(ProtocolError::new(
            "fractional or exponent numbers are not part of the protocol",
        ));
    }
    // At most 39 digits fit i128; longer is certainly overflow.
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ProtocolError::new("invalid number bytes"))?;
    text.parse::<i128>()
        .map(Json::Int)
        .map_err(|_| ProtocolError::new("integer out of range"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ProtocolError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ProtocolError::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| ProtocolError::new("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| ProtocolError::new("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| ProtocolError::new("invalid \\u escape"))?;
                        // Surrogates are rejected rather than paired: the
                        // writer never emits them (it escapes only
                        // control characters, which are in the BMP).
                        let c = char::from_u32(code)
                            .ok_or_else(|| ProtocolError::new("\\u escape is not a scalar"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(ProtocolError::new("invalid escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(ProtocolError::new("raw control byte in string"))
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so the
                // boundary math cannot fail).
                let rest = &bytes[*pos..];
                let s = std::str::from_utf8(rest)
                    .map_err(|_| ProtocolError::new("invalid UTF-8"))?;
                let c = s.chars().next().ok_or_else(|| {
                    ProtocolError::new("unterminated string")
                })?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

// ----- framing ------------------------------------------------------------

/// The outcome of one framed-line read under [`MAX_LINE_BYTES`].
#[derive(Debug)]
pub enum CappedLine {
    /// Clean EOF before any byte of a new line.
    Eof,
    /// A complete line (delimiter stripped; an unterminated final line
    /// before EOF counts too) within the size cap.
    Line(Vec<u8>),
    /// The line overflowed the cap. The stream is mid-line, so the
    /// connection cannot be resynchronized — the caller must close (or
    /// poison) it.
    Overflow,
}

/// Read one newline-delimited line without ever buffering more than
/// [`MAX_LINE_BYTES`] + 1 bytes — the single framing routine both the
/// server and the client use, so the two sides cannot drift on
/// overflow semantics.
pub fn read_line_capped(reader: &mut impl std::io::BufRead) -> std::io::Result<CappedLine> {
    use std::io::{BufRead as _, Read as _};
    let mut line = Vec::new();
    let n = reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(CappedLine::Eof);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Ok(CappedLine::Line(line))
    } else if line.len() > MAX_LINE_BYTES {
        Ok(CappedLine::Overflow)
    } else {
        Ok(CappedLine::Line(line))
    }
}

// ----- seed-chunk hex -----------------------------------------------------

/// Encode bytes as lowercase hex — seed snapshot chunks travel inside
/// JSON string fields, which cannot carry raw bytes. Doubling the size
/// is fine: chunking keeps each line far under [`MAX_LINE_BYTES`].
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        out.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    out
}

/// Decode a hex string produced by [`hex_encode`] (either case
/// accepted). Odd length or a non-hex digit is an error, never a
/// silent truncation.
pub fn hex_decode(text: &str) -> Result<Vec<u8>, ProtocolError> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(ProtocolError::new("odd-length hex payload"));
    }
    let digit = |b: u8| -> Result<u8, ProtocolError> {
        (b as char)
            .to_digit(16)
            .map(|d| d as u8)
            .ok_or_else(|| ProtocolError::new(format!("invalid hex digit {:?}", b as char)))
    };
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((digit(pair[0])? << 4) | digit(pair[1])?);
    }
    Ok(out)
}

// ----- errors -------------------------------------------------------------

/// Why a line failed to parse or decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    message: String,
}

impl ProtocolError {
    pub(crate) fn new(message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            message: message.into(),
        }
    }

    fn field(key: &str, wanted: &str) -> ProtocolError {
        ProtocolError::new(format!("field `{key}`: expected {wanted}"))
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

// ----- requests -----------------------------------------------------------

/// A client → daemon message. One per line; the `"req"` field names
/// the variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Authenticate the connection (fleet mode). A daemon started with
    /// `--token` rejects every other request until a `Hello` with the
    /// matching token arrives; a daemon without a token accepts the
    /// handshake as a no-op, so clients can always send it first.
    Hello {
        /// The shared secret (empty when the client has none).
        token: String,
    },
    /// Submit `.sasm` source for analysis.
    Submit {
        /// Display name for the job.
        name: String,
        /// The assembly source text.
        source: String,
        /// Analysis options.
        spec: JobSpec,
    },
    /// Submit `.sasm` source together with a baseline record from a
    /// previous run (the incremental CI-gate path): when the daemon's
    /// recomputed fingerprint matches, it replays the baseline verdict
    /// without exploring.
    ///
    /// On the wire this is a `submit` line with an extra `baseline`
    /// object — pre-v6 daemons parse it tolerantly, ignore the unknown
    /// field, and simply run the job in full.
    SubmitDiff {
        /// Display name for the job.
        name: String,
        /// The assembly source text.
        source: String,
        /// Analysis options.
        spec: JobSpec,
        /// The prior run's fingerprint + verdict + exploration stats.
        baseline: JobBaseline,
    },
    /// Cancel a job: a queued job is retired unrun; a running job's
    /// explorer observes the cooperative flag at its next state pop and
    /// stops. Either way the job ends as [`JobStatus::Cancelled`].
    Cancel {
        /// The job.
        id: u64,
    },
    /// One chunk of an `sct-cache` snapshot (hex-encoded), shipped by
    /// the fleet coordinator to warm-start a fresh worker. Chunks
    /// accumulate per connection; the `last` chunk triggers decode +
    /// hydrate into the process-wide arena and verdict memo.
    Seed {
        /// Hex-encoded snapshot bytes (chunked under the line cap).
        chunk: String,
        /// `true` on the final chunk.
        last: bool,
    },
    /// Ask for a job's status and (when done) its verdicts.
    Status {
        /// The job.
        id: u64,
    },
    /// Subscribe to a job's event stream from cursor `since`; the
    /// server sends [`Response::EventBatch`] lines until the job is
    /// done and drained.
    Events {
        /// The job.
        id: u64,
        /// Resume cursor (0 = from the beginning).
        since: u64,
    },
    /// Liveness probe: answered immediately with [`Response::Pong`]
    /// without touching the job queue. Coordinators use it to tell a
    /// hung worker (accepts connections, never answers) from a merely
    /// busy one — the reply happens on the connection thread, so a
    /// daemon whose workers are wedged still answers.
    Ping,
    /// Ask for service statistics.
    Stats,
    /// Ask for the full telemetry snapshot: service statistics plus
    /// every registered counter, gauge, and latency histogram (the
    /// payload behind `pitchfork metrics`).
    Metrics,
    /// Retire the session's arena epoch now (snapshot save →
    /// warm-start) and report the resulting statistics.
    Retire,
    /// Stop accepting connections and exit once the queue drains.
    Shutdown,
}

impl Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Hello { token } => Json::Obj(vec![
                ("req".into(), Json::Str("hello".into())),
                ("token".into(), Json::Str(token.clone())),
            ]),
            Request::Cancel { id } => Json::Obj(vec![
                ("req".into(), Json::Str("cancel".into())),
                ("id".into(), Json::Int(*id as i128)),
            ]),
            Request::Seed { chunk, last } => Json::Obj(vec![
                ("req".into(), Json::Str("seed".into())),
                ("chunk".into(), Json::Str(chunk.clone())),
                ("last".into(), Json::Bool(*last)),
            ]),
            Request::Submit { name, source, spec } => {
                Json::Obj(submit_fields(name, source, spec))
            }
            Request::SubmitDiff {
                name,
                source,
                spec,
                baseline,
            } => {
                let mut fields = submit_fields(name, source, spec);
                fields.push(("baseline".into(), baseline_to_json(baseline)));
                Json::Obj(fields)
            }
            Request::Status { id } => Json::Obj(vec![
                ("req".into(), Json::Str("status".into())),
                ("id".into(), Json::Int(*id as i128)),
            ]),
            Request::Events { id, since } => Json::Obj(vec![
                ("req".into(), Json::Str("events".into())),
                ("id".into(), Json::Int(*id as i128)),
                ("since".into(), Json::Int(*since as i128)),
            ]),
            Request::Ping => Json::Obj(vec![("req".into(), Json::Str("ping".into()))]),
            Request::Stats => Json::Obj(vec![("req".into(), Json::Str("stats".into()))]),
            Request::Metrics => Json::Obj(vec![("req".into(), Json::Str("metrics".into()))]),
            Request::Retire => Json::Obj(vec![("req".into(), Json::Str("retire".into()))]),
            Request::Shutdown => {
                Json::Obj(vec![("req".into(), Json::Str("shutdown".into()))])
            }
        }
    }

    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_line()
    }

    /// Decode a wire line. Never panics: truncated, oversized, or
    /// garbage input yields a [`ProtocolError`].
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let json = Json::parse(line)?;
        let kind = json.str_field("req")?;
        match kind {
            "hello" => Ok(Request::Hello {
                token: json.str_field("token")?.to_string(),
            }),
            "cancel" => Ok(Request::Cancel {
                id: json.u64_field("id")?,
            }),
            "seed" => Ok(Request::Seed {
                chunk: json.str_field("chunk")?.to_string(),
                last: json.bool_field("last")?,
            }),
            "submit" => {
                let mode = JobSpec::parse_mode(json.str_field("mode")?)?;
                let strategy = match json.opt_str_field("strategy")? {
                    None => None,
                    Some(s) => Some(
                        StrategyKind::parse(s)
                            .ok_or_else(|| ProtocolError::field("strategy", "a known strategy"))?,
                    ),
                };
                let mut symbolic = Vec::new();
                if json.get("symbolic").is_some() {
                    for name in json.str_items("symbolic")? {
                        symbolic.push(Reg::parse(&name).ok_or_else(|| {
                            ProtocolError::field("symbolic", "known register names")
                        })?);
                    }
                }
                let name = json.str_field("name")?.to_string();
                let source = json.str_field("source")?.to_string();
                let spec = JobSpec {
                    mode,
                    bound: json.opt_u64_field("bound")?.map(|b| b as usize),
                    strategy,
                    // Absent (pre-v5 clients) inherits the daemon's
                    // state budget.
                    max_states: json.opt_u64_field("max_states")?.map(|n| n as usize),
                    // Absent (pre-deadline clients) means no cut-off.
                    deadline_ms: json.opt_u64_field("deadline_ms")?,
                    symbolic,
                };
                match json.get("baseline") {
                    Some(b) => Ok(Request::SubmitDiff {
                        name,
                        source,
                        spec,
                        baseline: baseline_from_json(b)?,
                    }),
                    None => Ok(Request::Submit { name, source, spec }),
                }
            }
            "status" => Ok(Request::Status {
                id: json.u64_field("id")?,
            }),
            "events" => Ok(Request::Events {
                id: json.u64_field("id")?,
                since: json.u64_field("since")?,
            }),
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "retire" => Ok(Request::Retire),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::new(format!("unknown request `{other}`"))),
        }
    }
}

fn submit_fields(name: &str, source: &str, spec: &JobSpec) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("req".into(), Json::Str("submit".into())),
        ("name".into(), Json::Str(name.to_string())),
        ("source".into(), Json::Str(source.to_string())),
        ("mode".into(), Json::Str(spec.mode.name().into())),
    ];
    if let Some(b) = spec.bound {
        fields.push(("bound".into(), Json::Int(b as i128)));
    }
    if let Some(s) = spec.strategy {
        fields.push(("strategy".into(), Json::Str(s.name().into())));
    }
    if let Some(ms) = spec.max_states {
        fields.push(("max_states".into(), Json::Int(ms as i128)));
    }
    if let Some(ms) = spec.deadline_ms {
        fields.push(("deadline_ms".into(), Json::Int(ms as i128)));
    }
    if !spec.symbolic.is_empty() {
        fields.push((
            "symbolic".into(),
            Json::Arr(spec.symbolic.iter().map(|r| Json::Str(r.name())).collect()),
        ));
    }
    fields
}

fn baseline_to_json(b: &JobBaseline) -> Json {
    Json::Obj(vec![
        ("fp".into(), Json::Int(b.fingerprint as i128)),
        ("verdict".into(), verdict_to_json(&b.verdict)),
        ("states".into(), Json::Int(b.states as i128)),
        ("schedules".into(), Json::Int(b.schedules as i128)),
        ("strategy".into(), Json::Str(b.strategy.clone())),
        ("truncated".into(), Json::Bool(b.truncated)),
    ])
}

// The baseline object itself parses strictly: a submit carrying a
// malformed baseline is rejected rather than silently run in full, so
// client-side encoding bugs surface immediately.
fn baseline_from_json(json: &Json) -> Result<JobBaseline, ProtocolError> {
    let verdict = json
        .get("verdict")
        .ok_or_else(|| ProtocolError::field("baseline.verdict", "a verdict object"))?;
    Ok(JobBaseline {
        fingerprint: json.u64_field("fp")?,
        verdict: verdict_from_json(verdict)?,
        states: json.u64_field("states")? as usize,
        schedules: json.u64_field("schedules")? as usize,
        strategy: json.str_field("strategy")?.to_string(),
        truncated: json.bool_field("truncated")?,
    })
}

impl JobSpec {
    fn parse_mode(name: &str) -> Result<crate::service::JobMode, ProtocolError> {
        crate::service::JobMode::parse(name)
            .ok_or_else(|| ProtocolError::field("mode", "one of v1, v4, alias, v2"))
    }
}

// ----- responses ----------------------------------------------------------

/// A violation in wire form: the witness path rendered to the stable
/// display strings of `sct-core` (observation, schedule, trace) and
/// `sct-symx` (path constraints).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireViolation {
    /// Program point of the leak.
    pub pc: u64,
    /// The secret-labeled observation, rendered.
    pub observation: String,
    /// The worst-case schedule prefix, rendered.
    pub schedule: String,
    /// The observation trace, rendered per entry.
    pub trace: Vec<String>,
    /// Path constraints active at the leak, rendered.
    pub constraints: Vec<String>,
}

impl From<&Violation> for WireViolation {
    fn from(v: &Violation) -> WireViolation {
        WireViolation {
            pc: v.pc,
            observation: v.observation.to_string(),
            schedule: v.schedule.to_string(),
            trace: v.trace.iter().map(|o| o.to_string()).collect(),
            constraints: v.constraints.clone(),
        }
    }
}

/// A daemon → client message. One per line; the `"resp"` field names
/// the variant.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A submission was accepted (or immediately failed — query its
    /// status) under this job id.
    Accepted {
        /// The assigned job id.
        id: u64,
    },
    /// A job's status, and its verdicts once done.
    Verdicts {
        /// The job.
        id: u64,
        /// Lifecycle state.
        status: JobStatus,
        /// The typed verdict (`None` until done).
        verdict: Option<Verdict>,
        /// Exploration statistics (`None` until done).
        stats: Option<ExploreStats>,
        /// The witnesses, rendered (empty until done or when secure).
        violations: Vec<WireViolation>,
        /// The failure message for [`JobStatus::Failed`] jobs.
        error: Option<String>,
        /// Wall-clock milliseconds the job has been (or was) running
        /// (`None` while queued, from older daemons, or for
        /// failed-at-submission jobs).
        elapsed_ms: Option<u64>,
        /// When the submitted per-job state budget exceeded the
        /// daemon's cap, the budget actually applied (`None` when no
        /// clamp happened or from older daemons).
        clamped_states: Option<u64>,
    },
    /// A slice of a job's event stream.
    EventBatch {
        /// The job.
        id: u64,
        /// Events from the requested cursor on.
        events: Vec<OwnedEvent>,
        /// Cursor to resume from.
        next: u64,
        /// `true` when the job is terminal and the log is drained —
        /// the last batch of the subscription.
        done: bool,
        /// Events this job has lost to the daemon's retention cap so
        /// far (0 normally; absent on older daemons).
        dropped: u64,
    },
    /// Service statistics.
    Stats {
        /// The counters.
        stats: ServiceStats,
    },
    /// The full telemetry snapshot: service statistics plus every
    /// registered metric.
    Metrics {
        /// The service counters (same payload as [`Response::Stats`]).
        stats: ServiceStats,
        /// Every registered counter, gauge, and histogram.
        metrics: Vec<MetricSnapshot>,
    },
    /// A snapshot seed was hydrated into the worker's arena and memo
    /// (the answer to the final [`Request::Seed`] chunk; intermediate
    /// chunks answer with `nodes == 0 && verdicts == 0`).
    Seeded {
        /// Arena nodes added by the hydration.
        nodes: u64,
        /// Solver verdicts imported into the memo.
        verdicts: u64,
    },
    /// The daemon is alive (the answer to [`Request::Ping`]), with a
    /// coarse load signal.
    Pong {
        /// Jobs currently executing.
        in_flight: u64,
        /// Jobs waiting in the queue.
        queued: u64,
    },
    /// The request could not be served (parse failure, unknown job,
    /// internal error). The connection stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
}

fn verdict_to_json(v: &Verdict) -> Json {
    match v {
        Verdict::Secure => Json::Obj(vec![("kind".into(), Json::Str("secure".into()))]),
        Verdict::Insecure { witnesses } => Json::Obj(vec![
            ("kind".into(), Json::Str("insecure".into())),
            ("witnesses".into(), Json::Int(*witnesses as i128)),
        ]),
        Verdict::Unknown { explored } => Json::Obj(vec![
            ("kind".into(), Json::Str("unknown".into())),
            ("explored".into(), Json::Int(*explored as i128)),
        ]),
    }
}

fn verdict_from_json(json: &Json) -> Result<Verdict, ProtocolError> {
    match json.str_field("kind")? {
        "secure" => Ok(Verdict::Secure),
        "insecure" => Ok(Verdict::Insecure {
            witnesses: json.u64_field("witnesses")? as usize,
        }),
        "unknown" => Ok(Verdict::Unknown {
            explored: json.u64_field("explored")? as usize,
        }),
        other => Err(ProtocolError::new(format!("unknown verdict `{other}`"))),
    }
}

fn opt_usize_json(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::Int(n as i128),
        None => Json::Null,
    }
}

fn explore_stats_to_json(s: &ExploreStats) -> Json {
    Json::Obj(vec![
        ("strategy".into(), Json::Str(s.strategy.into())),
        (
            "first_witness_states".into(),
            opt_usize_json(s.first_witness_states),
        ),
        (
            "first_witness_depth".into(),
            opt_usize_json(s.first_witness_depth),
        ),
        ("states".into(), Json::Int(s.states as i128)),
        ("deduped".into(), Json::Int(s.deduped as i128)),
        ("frontier_peak".into(), Json::Int(s.frontier_peak as i128)),
        ("schedules".into(), Json::Int(s.schedules as i128)),
        ("steps".into(), Json::Int(s.steps as i128)),
        ("solver_queries".into(), Json::Int(s.solver_queries as i128)),
        (
            "solver_memo_hits".into(),
            Json::Int(s.solver_memo_hits as i128),
        ),
        (
            "solver_memo_misses".into(),
            Json::Int(s.solver_memo_misses as i128),
        ),
        (
            "solver_memo_evicted".into(),
            Json::Int(s.solver_memo_evicted as i128),
        ),
        (
            "arena_lock_waits".into(),
            Json::Int(s.arena_lock_waits as i128),
        ),
        (
            "memo_lock_waits".into(),
            Json::Int(s.memo_lock_waits as i128),
        ),
        (
            "local_cache_hits".into(),
            Json::Int(s.local_cache_hits as i128),
        ),
        ("truncated".into(), Json::Bool(s.truncated)),
        ("deadline_exceeded".into(), Json::Bool(s.deadline_exceeded)),
    ])
}

fn explore_stats_from_json(json: &Json) -> Result<ExploreStats, ProtocolError> {
    // The strategy string must map back to a `&'static str`; unknown
    // names (a newer daemon) degrade to the default rather than erroring
    // a whole verdict line away.
    let strategy = StrategyKind::parse(json.str_field("strategy")?)
        .map(StrategyKind::name)
        .unwrap_or("lifo");
    Ok(ExploreStats {
        strategy,
        first_witness_states: json
            .opt_u64_field("first_witness_states")?
            .map(|n| n as usize),
        first_witness_depth: json
            .opt_u64_field("first_witness_depth")?
            .map(|n| n as usize),
        states: json.u64_field("states")? as usize,
        deduped: json.u64_field("deduped")? as usize,
        frontier_peak: json.u64_field("frontier_peak")? as usize,
        schedules: json.u64_field("schedules")? as usize,
        steps: json.u64_field("steps")? as usize,
        solver_queries: json.u64_field("solver_queries")? as usize,
        solver_memo_hits: json.u64_field("solver_memo_hits")? as usize,
        solver_memo_misses: json.u64_field("solver_memo_misses")? as usize,
        solver_memo_evicted: json.u64_field("solver_memo_evicted")? as usize,
        // Added after the v1 wire format: tolerate their absence (an
        // older daemon).
        arena_lock_waits: json.opt_u64_field("arena_lock_waits")?.unwrap_or(0) as usize,
        memo_lock_waits: json.opt_u64_field("memo_lock_waits")?.unwrap_or(0) as usize,
        local_cache_hits: json.opt_u64_field("local_cache_hits")?.unwrap_or(0) as usize,
        truncated: json.bool_field("truncated")?,
        // Post-deadline wire format: absent from older daemons.
        deadline_exceeded: matches!(json.get("deadline_exceeded"), Some(Json::Bool(true))),
    })
}

fn event_to_json(e: &OwnedEvent) -> Json {
    match e {
        OwnedEvent::StateExpanded {
            states,
            frontier,
            rob_depth,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("state-expanded".into())),
            ("states".into(), Json::Int(*states as i128)),
            ("frontier".into(), Json::Int(*frontier as i128)),
            ("rob_depth".into(), Json::Int(*rob_depth as i128)),
        ]),
        OwnedEvent::ViolationFound {
            states,
            pc,
            observation,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("violation-found".into())),
            ("states".into(), Json::Int(*states as i128)),
            ("pc".into(), Json::Int(*pc as i128)),
            ("observation".into(), Json::Str(observation.clone())),
        ]),
        OwnedEvent::ItemFinished {
            name,
            flagged,
            states,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("item-finished".into())),
            ("name".into(), Json::Str(name.clone())),
            ("flagged".into(), Json::Bool(*flagged)),
            ("states".into(), Json::Int(*states as i128)),
        ]),
        OwnedEvent::EpochRetired { epoch, rehydrated } => Json::Obj(vec![
            ("kind".into(), Json::Str("epoch-retired".into())),
            ("epoch".into(), Json::Int(*epoch as i128)),
            ("rehydrated".into(), Json::Int(*rehydrated as i128)),
        ]),
    }
}

fn event_from_json(json: &Json) -> Result<OwnedEvent, ProtocolError> {
    match json.str_field("kind")? {
        "state-expanded" => Ok(OwnedEvent::StateExpanded {
            states: json.u64_field("states")? as usize,
            frontier: json.u64_field("frontier")? as usize,
            rob_depth: json.u64_field("rob_depth")? as usize,
        }),
        "violation-found" => Ok(OwnedEvent::ViolationFound {
            states: json.u64_field("states")? as usize,
            pc: json.u64_field("pc")?,
            observation: json.str_field("observation")?.to_string(),
        }),
        "item-finished" => Ok(OwnedEvent::ItemFinished {
            name: json.str_field("name")?.to_string(),
            flagged: json.bool_field("flagged")?,
            states: json.u64_field("states")? as usize,
        }),
        "epoch-retired" => Ok(OwnedEvent::EpochRetired {
            epoch: json.u64_field("epoch")?,
            rehydrated: json.u64_field("rehydrated")? as usize,
        }),
        other => Err(ProtocolError::new(format!("unknown event `{other}`"))),
    }
}

fn violation_to_json(v: &WireViolation) -> Json {
    Json::Obj(vec![
        ("pc".into(), Json::Int(v.pc as i128)),
        ("observation".into(), Json::Str(v.observation.clone())),
        ("schedule".into(), Json::Str(v.schedule.clone())),
        (
            "trace".into(),
            Json::Arr(v.trace.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "constraints".into(),
            Json::Arr(v.constraints.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

fn violation_from_json(json: &Json) -> Result<WireViolation, ProtocolError> {
    Ok(WireViolation {
        pc: json.u64_field("pc")?,
        observation: json.str_field("observation")?.to_string(),
        schedule: json.str_field("schedule")?.to_string(),
        trace: json.str_items("trace")?,
        constraints: json.str_items("constraints")?,
    })
}

/// The original (v1) `ServiceStats` wire fields, in stable order.
/// Required on parse; fields added later are listed in
/// `SERVICE_STAT_FIELDS_V2` and tolerated when absent, so a new client
/// can read an old daemon's stats line.
const SERVICE_STAT_FIELDS: [&str; 16] = [
    "jobs_submitted",
    "jobs_done",
    "jobs_failed",
    "queued",
    "epochs_retired",
    "jobs_since_retire",
    "arena_nodes",
    "arena_epoch",
    "memo_entries",
    "memo_capacity",
    "memo_hits",
    "memo_misses",
    "memo_evicted",
    "memo_stale_dropped",
    "last_reload_nodes",
    "last_reload_verdicts",
];

/// Fields added with concurrent job execution (parse defaults to 0).
const SERVICE_STAT_FIELDS_V2: [&str; 3] = ["in_flight", "arena_lock_waits", "memo_lock_waits"];

/// Fields added with the thread-local caches — the per-job-exact L1
/// hit roll-up (parse defaults to 0, same tolerance as the v2 set).
const SERVICE_STAT_FIELDS_V3: [&str; 1] = ["local_cache_hits"];

/// Fields added with telemetry — job-latency roll-ups and the event
/// retention-drop counter (parse defaults to 0, same tolerance as the
/// v2/v3 sets).
const SERVICE_STAT_FIELDS_V4: [&str; 4] = [
    "queue_wait_ms_total",
    "run_ms_total",
    "jobs_timed",
    "events_dropped",
];

/// Fields added with fleet mode — cancellation, budget clamping, and
/// snapshot seeding counters (parse defaults to 0, same tolerance as
/// the v2–v4 sets).
const SERVICE_STAT_FIELDS_V5: [&str; 4] = [
    "jobs_cancelled",
    "budget_clamped_jobs",
    "seed_nodes_added",
    "seed_verdicts_imported",
];

/// Fields added with the robustness work — per-job deadlines and the
/// daemon's write-ahead job journal (parse defaults to 0, same
/// tolerance as the v2–v5 sets).
const SERVICE_STAT_FIELDS_V6: [&str; 2] = ["jobs_timed_out", "jobs_replayed"];

fn service_stats_values(s: &ServiceStats) -> [u64; 16] {
    [
        s.jobs_submitted,
        s.jobs_done,
        s.jobs_failed,
        s.queued,
        s.epochs_retired,
        s.jobs_since_retire,
        s.arena_nodes,
        s.arena_epoch,
        s.memo_entries,
        s.memo_capacity,
        s.memo_hits,
        s.memo_misses,
        s.memo_evicted,
        s.memo_stale_dropped,
        s.last_reload_nodes,
        s.last_reload_verdicts,
    ]
}

fn service_stats_to_json(s: &ServiceStats) -> Json {
    let mut fields: Vec<(String, Json)> = SERVICE_STAT_FIELDS
        .iter()
        .zip(service_stats_values(s))
        .map(|(k, v)| ((*k).to_string(), Json::Int(v as i128)))
        .collect();
    for (k, v) in SERVICE_STAT_FIELDS_V2
        .iter()
        .zip([s.in_flight, s.arena_lock_waits, s.memo_lock_waits])
    {
        fields.push(((*k).to_string(), Json::Int(v as i128)));
    }
    for (k, v) in SERVICE_STAT_FIELDS_V3
        .iter()
        .zip([s.local_cache_hits])
    {
        fields.push(((*k).to_string(), Json::Int(v as i128)));
    }
    for (k, v) in SERVICE_STAT_FIELDS_V4.iter().zip([
        s.queue_wait_ms_total,
        s.run_ms_total,
        s.jobs_timed,
        s.events_dropped,
    ]) {
        fields.push(((*k).to_string(), Json::Int(v as i128)));
    }
    for (k, v) in SERVICE_STAT_FIELDS_V5.iter().zip([
        s.jobs_cancelled,
        s.budget_clamped_jobs,
        s.seed_nodes_added,
        s.seed_verdicts_imported,
    ]) {
        fields.push(((*k).to_string(), Json::Int(v as i128)));
    }
    for (k, v) in SERVICE_STAT_FIELDS_V6
        .iter()
        .zip([s.jobs_timed_out, s.jobs_replayed])
    {
        fields.push(((*k).to_string(), Json::Int(v as i128)));
    }
    Json::Obj(fields)
}

fn service_stats_from_json(json: &Json) -> Result<ServiceStats, ProtocolError> {
    let mut v = [0u64; 16];
    for (slot, key) in v.iter_mut().zip(SERVICE_STAT_FIELDS) {
        *slot = json.u64_field(key)?;
    }
    let mut v2 = [0u64; 3];
    for (slot, key) in v2.iter_mut().zip(SERVICE_STAT_FIELDS_V2) {
        *slot = json.opt_u64_field(key)?.unwrap_or(0);
    }
    let mut v3 = [0u64; 1];
    for (slot, key) in v3.iter_mut().zip(SERVICE_STAT_FIELDS_V3) {
        *slot = json.opt_u64_field(key)?.unwrap_or(0);
    }
    let mut v4 = [0u64; 4];
    for (slot, key) in v4.iter_mut().zip(SERVICE_STAT_FIELDS_V4) {
        *slot = json.opt_u64_field(key)?.unwrap_or(0);
    }
    let mut v5 = [0u64; 4];
    for (slot, key) in v5.iter_mut().zip(SERVICE_STAT_FIELDS_V5) {
        *slot = json.opt_u64_field(key)?.unwrap_or(0);
    }
    let mut v6 = [0u64; 2];
    for (slot, key) in v6.iter_mut().zip(SERVICE_STAT_FIELDS_V6) {
        *slot = json.opt_u64_field(key)?.unwrap_or(0);
    }
    Ok(ServiceStats {
        jobs_submitted: v[0],
        jobs_done: v[1],
        jobs_failed: v[2],
        queued: v[3],
        epochs_retired: v[4],
        jobs_since_retire: v[5],
        arena_nodes: v[6],
        arena_epoch: v[7],
        memo_entries: v[8],
        memo_capacity: v[9],
        memo_hits: v[10],
        memo_misses: v[11],
        memo_evicted: v[12],
        memo_stale_dropped: v[13],
        last_reload_nodes: v[14],
        last_reload_verdicts: v[15],
        in_flight: v2[0],
        arena_lock_waits: v2[1],
        memo_lock_waits: v2[2],
        local_cache_hits: v3[0],
        queue_wait_ms_total: v4[0],
        run_ms_total: v4[1],
        jobs_timed: v4[2],
        events_dropped: v4[3],
        jobs_cancelled: v5[0],
        budget_clamped_jobs: v5[1],
        seed_nodes_added: v5[2],
        seed_verdicts_imported: v5[3],
        jobs_timed_out: v6[0],
        jobs_replayed: v6[1],
    })
}

/// One metric in wire form: flat scalar fields plus the bucket array
/// for histograms. Tolerant on parse — `sum_ns` / `max_ns` / `buckets`
/// default to empty (counters and gauges never carry them, and a
/// shorter bucket array from an older build still decodes).
fn metric_to_json(m: &MetricSnapshot) -> Json {
    let mut fields = vec![
        ("name".into(), Json::Str(m.name.clone())),
        ("kind".into(), Json::Str(m.kind.name().into())),
        ("value".into(), Json::Int(m.value as i128)),
    ];
    if m.kind == MetricKind::Histogram {
        fields.push(("sum_ns".into(), Json::Int(m.sum_ns as i128)));
        fields.push(("max_ns".into(), Json::Int(m.max_ns as i128)));
        if m.max_job != 0 {
            fields.push(("max_job".into(), Json::Int(m.max_job as i128)));
        }
        fields.push((
            "buckets".into(),
            Json::Arr(m.buckets.iter().map(|&n| Json::Int(n as i128)).collect()),
        ));
    }
    Json::Obj(fields)
}

fn metric_from_json(json: &Json) -> Result<MetricSnapshot, ProtocolError> {
    let kind = MetricKind::parse(json.str_field("kind")?)
        .ok_or_else(|| ProtocolError::field("kind", "counter, gauge, or histogram"))?;
    let mut buckets = Vec::new();
    match json.get("buckets") {
        None | Some(Json::Null) => {}
        Some(Json::Arr(items)) => {
            for item in items {
                match item {
                    Json::Int(n) if *n >= 0 && *n <= u64::MAX as i128 => {
                        buckets.push(*n as u64)
                    }
                    _ => {
                        return Err(ProtocolError::field(
                            "buckets",
                            "array of unsigned integers",
                        ))
                    }
                }
            }
        }
        Some(_) => return Err(ProtocolError::field("buckets", "array or null")),
    }
    Ok(MetricSnapshot {
        name: json.str_field("name")?.to_string(),
        kind,
        value: json.u64_field("value")?,
        sum_ns: json.opt_u64_field("sum_ns")?.unwrap_or(0),
        max_ns: json.opt_u64_field("max_ns")?.unwrap_or(0),
        // Exemplar job id; absent on pre-fleet daemons.
        max_job: json.opt_u64_field("max_job")?.unwrap_or(0),
        buckets,
    })
}

impl Response {
    fn to_json(&self) -> Json {
        match self {
            Response::Accepted { id } => Json::Obj(vec![
                ("resp".into(), Json::Str("accepted".into())),
                ("id".into(), Json::Int(*id as i128)),
            ]),
            Response::Verdicts {
                id,
                status,
                verdict,
                stats,
                violations,
                error,
                elapsed_ms,
                clamped_states,
            } => {
                let mut fields = vec![
                    ("resp".into(), Json::Str("verdicts".into())),
                    ("id".into(), Json::Int(*id as i128)),
                    ("status".into(), Json::Str(status.name().into())),
                ];
                if let Some(v) = verdict {
                    fields.push(("verdict".into(), verdict_to_json(v)));
                }
                if let Some(s) = stats {
                    fields.push(("stats".into(), explore_stats_to_json(s)));
                }
                if !violations.is_empty() {
                    fields.push((
                        "violations".into(),
                        Json::Arr(violations.iter().map(violation_to_json).collect()),
                    ));
                }
                if let Some(e) = error {
                    fields.push(("error".into(), Json::Str(e.clone())));
                }
                if let Some(ms) = elapsed_ms {
                    fields.push(("elapsed_ms".into(), Json::Int(*ms as i128)));
                }
                if let Some(cs) = clamped_states {
                    fields.push(("clamped_states".into(), Json::Int(*cs as i128)));
                }
                Json::Obj(fields)
            }
            Response::EventBatch {
                id,
                events,
                next,
                done,
                dropped,
            } => Json::Obj(vec![
                ("resp".into(), Json::Str("events".into())),
                ("id".into(), Json::Int(*id as i128)),
                (
                    "events".into(),
                    Json::Arr(events.iter().map(event_to_json).collect()),
                ),
                ("next".into(), Json::Int(*next as i128)),
                ("done".into(), Json::Bool(*done)),
                ("dropped".into(), Json::Int(*dropped as i128)),
            ]),
            Response::Stats { stats } => Json::Obj(vec![
                ("resp".into(), Json::Str("stats".into())),
                ("stats".into(), service_stats_to_json(stats)),
            ]),
            Response::Metrics { stats, metrics } => Json::Obj(vec![
                ("resp".into(), Json::Str("metrics".into())),
                ("stats".into(), service_stats_to_json(stats)),
                (
                    "metrics".into(),
                    Json::Arr(metrics.iter().map(metric_to_json).collect()),
                ),
            ]),
            Response::Seeded { nodes, verdicts } => Json::Obj(vec![
                ("resp".into(), Json::Str("seeded".into())),
                ("nodes".into(), Json::Int(*nodes as i128)),
                ("verdicts".into(), Json::Int(*verdicts as i128)),
            ]),
            Response::Pong { in_flight, queued } => Json::Obj(vec![
                ("resp".into(), Json::Str("pong".into())),
                ("in_flight".into(), Json::Int(*in_flight as i128)),
                ("queued".into(), Json::Int(*queued as i128)),
            ]),
            Response::Error { message } => Json::Obj(vec![
                ("resp".into(), Json::Str("error".into())),
                ("message".into(), Json::Str(message.clone())),
            ]),
        }
    }

    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_line()
    }

    /// Decode a wire line. Never panics; garbage yields a
    /// [`ProtocolError`].
    pub fn parse(line: &str) -> Result<Response, ProtocolError> {
        let json = Json::parse(line)?;
        match json.str_field("resp")? {
            "accepted" => Ok(Response::Accepted {
                id: json.u64_field("id")?,
            }),
            "verdicts" => {
                let status = JobStatus::parse(json.str_field("status")?)
                    .ok_or_else(|| ProtocolError::field("status", "a job status"))?;
                let verdict = match json.get("verdict") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(verdict_from_json(v)?),
                };
                let stats = match json.get("stats") {
                    None | Some(Json::Null) => None,
                    Some(s) => Some(explore_stats_from_json(s)?),
                };
                let violations = match json.get("violations") {
                    None => Vec::new(),
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(violation_from_json)
                        .collect::<Result<_, _>>()?,
                    Some(_) => return Err(ProtocolError::field("violations", "array")),
                };
                Ok(Response::Verdicts {
                    id: json.u64_field("id")?,
                    status,
                    verdict,
                    stats,
                    violations,
                    error: json.opt_str_field("error")?.map(String::from),
                    // Tolerant: absent on daemons predating telemetry.
                    elapsed_ms: json.opt_u64_field("elapsed_ms")?,
                    // Tolerant: absent on daemons predating fleet mode.
                    clamped_states: json.opt_u64_field("clamped_states")?,
                })
            }
            "events" => {
                let events = json
                    .arr_field("events")?
                    .iter()
                    .map(event_from_json)
                    .collect::<Result<_, _>>()?;
                Ok(Response::EventBatch {
                    id: json.u64_field("id")?,
                    events,
                    next: json.u64_field("next")?,
                    done: json.bool_field("done")?,
                    // Tolerant: absent on daemons predating retention.
                    dropped: json.opt_u64_field("dropped")?.unwrap_or(0),
                })
            }
            "stats" => Ok(Response::Stats {
                stats: service_stats_from_json(
                    json.get("stats")
                        .ok_or_else(|| ProtocolError::field("stats", "object"))?,
                )?,
            }),
            "metrics" => {
                let metrics = json
                    .arr_field("metrics")?
                    .iter()
                    .map(metric_from_json)
                    .collect::<Result<_, _>>()?;
                Ok(Response::Metrics {
                    stats: service_stats_from_json(
                        json.get("stats")
                            .ok_or_else(|| ProtocolError::field("stats", "object"))?,
                    )?,
                    metrics,
                })
            }
            "seeded" => Ok(Response::Seeded {
                nodes: json.u64_field("nodes")?,
                verdicts: json.u64_field("verdicts")?,
            }),
            "pong" => Ok(Response::Pong {
                in_flight: json.u64_field("in_flight")?,
                queued: json.u64_field("queued")?,
            }),
            "error" => Ok(Response::Error {
                message: json.str_field("message")?.to_string(),
            }),
            other => Err(ProtocolError::new(format!("unknown response `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::JobMode;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Hello {
                token: "s3cret\"token".into(),
            },
            Request::Submit {
                name: "fig1".into(),
                source: ".entry L1\nL1:\n    ra = add rb, 0x4\n".into(),
                spec: JobSpec {
                    mode: JobMode::V4,
                    bound: Some(20),
                    strategy: Some(StrategyKind::DeepestRob),
                    max_states: Some(10_000),
                    deadline_ms: Some(2_500),
                    symbolic: vec![sct_core::reg::names::RA],
                },
            },
            Request::Cancel { id: 7 },
            Request::Ping,
            Request::Seed {
                chunk: "53435443".into(),
                last: true,
            },
            Request::Status { id: 7 },
            Request::Events { id: 7, since: 42 },
            Request::Stats,
            Request::Metrics,
            Request::Retire,
            Request::Shutdown,
            Request::SubmitDiff {
                name: "fig1".into(),
                source: ".entry L1\nL1:\n    ra = add rb, 0x4\n".into(),
                spec: JobSpec {
                    mode: JobMode::V1,
                    bound: Some(16),
                    strategy: Some(StrategyKind::Fifo),
                    max_states: Some(50_000),
                    deadline_ms: None,
                    symbolic: vec![sct_core::reg::names::RA],
                },
                baseline: JobBaseline {
                    fingerprint: u64::MAX - 5,
                    verdict: Verdict::Insecure { witnesses: 2 },
                    states: 412,
                    schedules: 31,
                    strategy: "bfs".into(),
                    truncated: false,
                },
            },
        ];
        for req in reqs {
            let line = req.to_line();
            assert!(!line.contains('\n'), "one line: {line}");
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn submit_diff_wire_form_is_a_submit_line() {
        // Pre-v6 compatibility: the diff submit is a plain `submit`
        // line plus a `baseline` object an old daemon ignores. Strip
        // the extra field and the line must parse as a plain submit.
        let req = Request::SubmitDiff {
            name: "gate".into(),
            source: ".entry L1\nL1:\n    ret\n".into(),
            spec: JobSpec {
                mode: JobMode::V1,
                bound: None,
                strategy: None,
                max_states: None,
                deadline_ms: None,
                symbolic: vec![],
            },
            baseline: JobBaseline {
                fingerprint: 99,
                verdict: Verdict::Secure,
                states: 10,
                schedules: 1,
                strategy: "bfs".into(),
                truncated: false,
            },
        };
        let line = req.to_line();
        assert!(line.contains("\"req\":\"submit\""), "{line}");
        match Request::parse(&line).unwrap() {
            Request::SubmitDiff { baseline, .. } => {
                assert_eq!(baseline.fingerprint, 99);
                assert_eq!(baseline.verdict, Verdict::Secure);
            }
            other => panic!("expected SubmitDiff, got {other:?}"),
        }
        // A malformed baseline object is rejected outright rather than
        // silently downgraded to a full run.
        let bad = line.replace("\"fp\":99", "\"fp\":\"nope\"");
        assert!(Request::parse(&bad).is_err());
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Accepted { id: 3 },
            Response::Verdicts {
                id: 3,
                status: JobStatus::Done,
                verdict: Some(Verdict::Insecure { witnesses: 2 }),
                stats: Some(ExploreStats {
                    first_witness_states: Some(5),
                    first_witness_depth: Some(9),
                    states: 40,
                    truncated: false,
                    ..ExploreStats::default()
                }),
                violations: vec![WireViolation {
                    pc: 3,
                    observation: "read 0x66sec".into(),
                    schedule: "fetch; exec 1".into(),
                    trace: vec!["read 0x40".into(), "read 0x66sec".into()],
                    constraints: vec!["(gt 0x4 idx)".into()],
                }],
                error: None,
                elapsed_ms: Some(125),
                clamped_states: None,
            },
            Response::Verdicts {
                id: 9,
                status: JobStatus::Cancelled,
                verdict: None,
                stats: None,
                violations: vec![],
                error: None,
                elapsed_ms: Some(12),
                clamped_states: Some(50_000),
            },
            Response::Verdicts {
                id: 11,
                status: JobStatus::TimedOut,
                verdict: Some(Verdict::Unknown { explored: 900 }),
                stats: Some(ExploreStats {
                    states: 900,
                    truncated: true,
                    deadline_exceeded: true,
                    ..ExploreStats::default()
                }),
                violations: vec![],
                error: None,
                elapsed_ms: Some(2_501),
                clamped_states: None,
            },
            Response::Seeded {
                nodes: 1_200,
                verdicts: 87,
            },
            Response::Pong {
                in_flight: 2,
                queued: 5,
            },
            Response::EventBatch {
                id: 3,
                events: vec![
                    OwnedEvent::StateExpanded {
                        states: 1,
                        frontier: 2,
                        rob_depth: 3,
                    },
                    OwnedEvent::ViolationFound {
                        states: 4,
                        pc: 3,
                        observation: "read 0x66sec".into(),
                    },
                    OwnedEvent::ItemFinished {
                        name: "fig1".into(),
                        flagged: true,
                        states: 40,
                    },
                    OwnedEvent::EpochRetired {
                        epoch: 1,
                        rehydrated: 100,
                    },
                ],
                next: 4,
                done: true,
                dropped: 17,
            },
            Response::Stats {
                stats: ServiceStats {
                    jobs_submitted: 5,
                    jobs_done: 4,
                    memo_capacity: 1 << 20,
                    queue_wait_ms_total: 12,
                    run_ms_total: 340,
                    jobs_timed: 4,
                    events_dropped: 9,
                    ..ServiceStats::default()
                },
            },
            Response::Metrics {
                stats: ServiceStats {
                    jobs_submitted: 2,
                    jobs_done: 2,
                    ..ServiceStats::default()
                },
                metrics: vec![
                    MetricSnapshot {
                        name: "job_events_dropped".into(),
                        kind: MetricKind::Counter,
                        value: 3,
                        sum_ns: 0,
                        max_ns: 0,
                        max_job: 0,
                        buckets: vec![],
                    },
                    MetricSnapshot {
                        name: "solver_check_hit_ns".into(),
                        kind: MetricKind::Histogram,
                        value: 6,
                        sum_ns: 4_096,
                        max_ns: 1_024,
                        max_job: 14,
                        buckets: vec![0, 1, 2, 3],
                    },
                ],
            },
            Response::Error {
                message: "protocol error: unexpected end of input".into(),
            },
        ];
        for resp in resps {
            let line = resp.to_line();
            assert!(!line.contains('\n'), "one line: {line}");
            assert_eq!(Response::parse(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn pre_v4_lines_still_parse() {
        // A stats object with only the v1 fields (an old daemon): the
        // v2/v3/v4 additions default to zero.
        let mut fields: Vec<(String, Json)> =
            vec![("resp".to_string(), Json::Str("stats".into()))];
        let inner: Vec<(String, Json)> = SERVICE_STAT_FIELDS
            .iter()
            .map(|k| ((*k).to_string(), Json::Int(7)))
            .collect();
        fields.push(("stats".to_string(), Json::Obj(inner)));
        let line = Json::Obj(fields).to_line();
        let Response::Stats { stats } = Response::parse(&line).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(stats.jobs_submitted, 7);
        assert_eq!(stats.queue_wait_ms_total, 0);
        assert_eq!(stats.jobs_timed, 0);
        assert_eq!(stats.events_dropped, 0);

        // An event batch without `dropped` and a verdicts line without
        // `elapsed_ms` (both pre-telemetry daemons).
        let batch = r#"{"resp":"events","id":1,"events":[],"next":0,"done":true}"#;
        let Response::EventBatch { dropped, .. } = Response::parse(batch).unwrap() else {
            panic!("expected events");
        };
        assert_eq!(dropped, 0);
        let verdicts = r#"{"resp":"verdicts","id":1,"status":"queued"}"#;
        let Response::Verdicts { elapsed_ms, .. } = Response::parse(verdicts).unwrap() else {
            panic!("expected verdicts");
        };
        assert_eq!(elapsed_ms, None);
    }

    #[test]
    fn pre_v5_lines_still_parse() {
        // A submit from a pre-fleet client carries no max_states; the
        // daemon must read it as "inherit the server default".
        let submit = r#"{"req":"submit","name":"fig1","source":"x","mode":"v1","threads":1}"#;
        let Request::Submit { spec, .. } = Request::parse(submit).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(spec.max_states, None);
        // Clients (and write-ahead journal lines) from before the serial
        // engine became the only one still send `threads`; the key is
        // ignored, so the line means exactly what it means without it.
        let without = r#"{"req":"submit","name":"fig1","source":"x","mode":"v1"}"#;
        let Request::Submit { spec: bare, .. } = Request::parse(without).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(spec, bare);

        // A verdicts line from a pre-fleet daemon has no clamped_states.
        let verdicts = r#"{"resp":"verdicts","id":1,"status":"done"}"#;
        let Response::Verdicts { clamped_states, .. } = Response::parse(verdicts).unwrap()
        else {
            panic!("expected verdicts");
        };
        assert_eq!(clamped_states, None);

        // A metric without max_job (pre-exemplar daemon) reads as
        // "no exemplar recorded".
        let stats: Vec<(String, Json)> = SERVICE_STAT_FIELDS
            .iter()
            .map(|k| ((*k).to_string(), Json::Int(0)))
            .collect();
        let metrics = Json::Obj(vec![
            ("resp".to_string(), Json::Str("metrics".into())),
            ("stats".to_string(), Json::Obj(stats.clone())),
            (
                "metrics".to_string(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".to_string(), Json::Str("job_run_ns".into())),
                    ("kind".to_string(), Json::Str("histogram".into())),
                    ("value".to_string(), Json::Int(2)),
                    ("sum_ns".to_string(), Json::Int(64)),
                    ("max_ns".to_string(), Json::Int(48)),
                ])]),
            ),
        ])
        .to_line();
        let Response::Metrics { metrics, .. } = Response::parse(&metrics).unwrap() else {
            panic!("expected metrics");
        };
        assert_eq!(metrics[0].max_job, 0);

        // Stats with only v1–v4 fields: the v5 additions default to 0.
        let mut fields: Vec<(String, Json)> =
            vec![("resp".to_string(), Json::Str("stats".into()))];
        let inner: Vec<(String, Json)> = SERVICE_STAT_FIELDS
            .iter()
            .chain(SERVICE_STAT_FIELDS_V2.iter())
            .chain(SERVICE_STAT_FIELDS_V3.iter())
            .chain(SERVICE_STAT_FIELDS_V4.iter())
            .map(|k| ((*k).to_string(), Json::Int(3)))
            .collect();
        fields.push(("stats".to_string(), Json::Obj(inner)));
        let Response::Stats { stats } = Response::parse(&Json::Obj(fields).to_line()).unwrap()
        else {
            panic!("expected stats");
        };
        assert_eq!(stats.jobs_cancelled, 0);
        assert_eq!(stats.budget_clamped_jobs, 0);
        assert_eq!(stats.seed_nodes_added, 0);
        assert_eq!(stats.seed_verdicts_imported, 0);
    }

    #[test]
    fn metric_snapshots_reject_garbage() {
        for garbage in [
            r#"{"resp":"metrics"}"#,
            r#"{"resp":"metrics","metrics":[]}"#,
            r#"{"resp":"metrics","stats":{},"metrics":[]}"#,
            r#"{"resp":"metrics","stats":null,"metrics":[{"name":"x","kind":"counter","value":1}]}"#,
        ] {
            assert!(Response::parse(garbage).is_err(), "{garbage:?}");
        }
        // Unknown metric kinds and negative buckets are errors, not
        // panics or silent misreads.
        let stats: Vec<(String, Json)> = SERVICE_STAT_FIELDS
            .iter()
            .map(|k| ((*k).to_string(), Json::Int(0)))
            .collect();
        let mk = |metric: Json| {
            Json::Obj(vec![
                ("resp".to_string(), Json::Str("metrics".into())),
                ("stats".to_string(), Json::Obj(stats.clone())),
                ("metrics".to_string(), Json::Arr(vec![metric])),
            ])
            .to_line()
        };
        let bad_kind = mk(Json::Obj(vec![
            ("name".to_string(), Json::Str("x".into())),
            ("kind".to_string(), Json::Str("speedometer".into())),
            ("value".to_string(), Json::Int(1)),
        ]));
        assert!(Response::parse(&bad_kind).is_err());
        let bad_bucket = mk(Json::Obj(vec![
            ("name".to_string(), Json::Str("x".into())),
            ("kind".to_string(), Json::Str("histogram".into())),
            ("value".to_string(), Json::Int(1)),
            ("buckets".to_string(), Json::Arr(vec![Json::Int(-3)])),
        ]));
        assert!(Response::parse(&bad_bucket).is_err());
    }

    #[test]
    fn strings_with_newlines_stay_on_one_line() {
        let req = Request::Submit {
            name: "quote\"back\\slash".into(),
            source: "line1\nline2\ttabbed\r\n".into(),
            spec: JobSpec::default(),
        };
        let line = req.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        for garbage in [
            "",
            "{",
            "}",
            "{}",
            "null",
            "[1,2,3]",
            "{\"req\":}",
            "{\"req\":\"submit\"}",
            "{\"req\":\"nope\"}",
            "{\"req\":\"status\",\"id\":-4}",
            "{\"req\":\"status\",\"id\":1.5}",
            "{\"req\":\"status\",\"id\":99999999999999999999999999999999999999999}",
            "{\"req\":\"events\",\"id\":1}",
            "\u{0}\u{1}\u{2}",
            "{\"req\":\"stats\"} trailing",
            "{\"req\":\"stats\",}",
            "{\"req\" \"stats\"}",
            "{\"req\":\"st\\qats\"}",
            "{\"req\":\"st\\u12\"}",
        ] {
            assert!(Request::parse(garbage).is_err(), "{garbage:?}");
            assert!(Response::parse(garbage).is_err(), "{garbage:?}");
        }
    }

    #[test]
    fn seed_hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        let hex = hex_encode(&bytes);
        assert_eq!(hex_decode(&hex).unwrap(), bytes);
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert_eq!(hex_decode("DEADbeef").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let mut line = String::from("{\"req\":");
        line.push_str(&"[".repeat(10_000));
        assert!(Request::parse(&line).is_err());
    }

    #[test]
    fn truncations_of_a_valid_line_never_parse_to_nonsense() {
        let line = Request::Submit {
            name: "fig1".into(),
            source: "start:\n    rb = load [0x40, ra]\n".into(),
            spec: JobSpec::default(),
        }
        .to_line();
        for cut in 0..line.len() {
            if !line.is_char_boundary(cut) {
                continue;
            }
            // Every strict prefix must fail (a JSON object only closes
            // at the final brace).
            assert!(
                Request::parse(&line[..cut]).is_err(),
                "prefix of length {cut} parsed"
            );
        }
    }
}
