//! The bench-document format: its writer, its parser and the perf gate.
//!
//! Every bench binary builds its measurements as [`Json`] rows and writes
//! them with [`write_bench`]: a few top-level fields, then a `results`
//! array with one row per line, so a fresh document diffs line by line
//! against its committed baseline.
//!
//! The nightly CI job regenerates the documents and compares every
//! **speedup** row of seven of them (`BENCH_batched`, `BENCH_batchcount`,
//! `BENCH_interned`, `BENCH_mc`, `BENCH_topology`, `BENCH_service` and
//! `BENCH_obs`; `BENCH_faults` is recorded only) against the committed
//! baselines: a speedup that degrades beyond a tolerance fails the job, and
//! so does a baseline *workload* that vanishes from the fresh document (a
//! renamed benchmark must not silently drop out of the gate). Speedups are
//! same-machine wall-clock *ratios* (one engine against another; for the
//! model checker, configurations verified per simulated interaction), so
//! the machine-speed factor of a shared runner cancels to first order,
//! which is what makes a cross-machine gate meaningful at all; the
//! tolerance absorbs the second-order noise.
//!
//! The container has no JSON dependency (and must not grow one), so this
//! module carries a [minimal recursive-descent parser](parse) for the strict
//! subset of JSON the bench binaries emit. It is a real parser — nesting,
//! strings with escapes, numbers in scientific notation, duplicate-key
//! rejection — not a line scraper, so reordering or reformatting the bench
//! output cannot silently disable the gate. The matching [serializer]
//! (`to_string`) emits a **canonical** compact form (sorted keys, no
//! whitespace), which is what each bench row is written in, and also what
//! the `ppsimd` daemon's line protocol and content-addressed result cache
//! are built on.
//!
//! [serializer]: to_string

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers the bench output).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is irrelevant to the gate, so a sorted map
    /// keeps lookups simple and `Debug` output stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The member map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object holding `members`.
    ///
    /// # Panics
    ///
    /// On a repeated key, which [`parse`] would reject.
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let mut object = Json::Obj(BTreeMap::new());
        for (key, value) in members {
            object.insert(key, value);
        }
        object
    }

    /// Adds the member `key` to an object.
    ///
    /// # Panics
    ///
    /// If this is not an object, or if it already holds `key`.
    pub fn insert(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(map) = self else { panic!("insert {key:?} into a non-object") };
        let previous = map.insert(key.to_owned(), value.into());
        assert!(previous.is_none(), "duplicate object key {key:?}");
    }
}

/// Numbers convert through `f64`; integer counts exactly below 2⁵³.
macro_rules! json_from_number {
    ($($number:ty),*) => {$(
        impl From<$number> for Json {
            fn from(x: $number) -> Json {
                Json::Num(x as f64)
            }
        }
    )*};
}
json_from_number!(f64, u32, u64, u128, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Clone, PartialEq, Debug)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

/// Serializes a [`Json`] value to its **canonical** compact text form:
/// no whitespace, object members in sorted key order (the [`BTreeMap`]
/// representation makes this automatic), strings with minimal escaping, and
/// numbers in Rust's shortest round-trip `f64` notation.
///
/// Canonical means `parse ∘ to_string` is the identity on values and
/// `to_string ∘ parse` collapses formatting: two documents that differ only
/// in whitespace or member order serialize identically, which is what the
/// `ppsimd` result cache keys on. Non-finite numbers have no JSON form and
/// serialize as `null`.
pub fn to_string(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

/// Writes a bench document to `path` and notes it on stderr: `fields` as
/// its leading top-level members, in the given order, then `rows` as its
/// `"results"` array, each row in the canonical compact form of
/// [`to_string`] on a line of its own.
///
/// # Panics
///
/// If the file cannot be written, or if `fields` repeats a key or holds
/// `"results"`.
pub fn write_bench(path: &str, fields: &[(&str, Json)], rows: &[Json]) {
    std::fs::write(path, bench_document(fields, rows))
        .unwrap_or_else(|err| panic!("write {path}: {err}"));
    eprintln!("wrote {path}");
}

/// The text [`write_bench`] writes.
fn bench_document(fields: &[(&str, Json)], rows: &[Json]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        assert!(
            *key != "results" && fields[..i].iter().all(|(k, _)| k != key),
            "duplicate top-level key {key:?}"
        );
        out.push_str("  ");
        write_string(&mut out, key);
        out.push_str(": ");
        write_value(&mut out, value);
        out.push_str(",\n");
    }
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    ");
        write_value(&mut out, row);
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn write_value(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(x) if x.is_finite() => {
            // `{}` on f64 is the shortest representation that round-trips,
            // and it never emits exponents, so `parse` reads it back exactly.
            let _ = std::fmt::Write::write_fmt(out, format_args!("{x}"));
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (key, member)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_value(out, member);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document (object, array, or scalar at top level).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing content after the document"));
    }
    Ok(value)
}

fn err(at: usize, message: impl Into<String>) -> ParseError {
    ParseError { at, message: message.into() }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected {:?}", byte as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(err(*pos, "expected a JSON value")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected {literal:?}")))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key_at = *pos;
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        // A duplicate key would silently drop one of the two values (and
        // which one depends on the parser), so a document carrying one is
        // ambiguous; reject it rather than guess.
        if map.insert(key.clone(), value).is_some() {
            return Err(err(key_at, format!("duplicate object key {key:?}")));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escaped = bytes.get(*pos).ok_or_else(|| err(*pos, "dangling escape"))?;
                match escaped {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "invalid \\u escape"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(err(*pos, format!("unknown escape \\{}", *other as char))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid UTF-8 input"));
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| err(start, "invalid number"))
}

/// One completed span destined for a Chrome trace-event document: a name,
/// a thread lane, and microsecond start/end timestamps relative to an
/// arbitrary (but shared) origin.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceSpan {
    /// Event name (shown on the slice in Perfetto).
    pub name: String,
    /// Thread lane the slice renders in.
    pub tid: u64,
    /// Start timestamp, microseconds from the trace origin.
    pub start_us: u64,
    /// End timestamp, microseconds from the trace origin.
    pub end_us: u64,
}

/// Serializes spans as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}` with `B`/`E` duration events), loadable by
/// Perfetto / `chrome://tracing`.
///
/// Events are emitted with non-decreasing timestamps, and each lane
/// (`tid`) keeps begin/end stack discipline even for zero-duration spans:
/// every lane's stream is generated by a span-stack walk (outer spans open
/// first, inner spans close first) and the lanes are merged on timestamps
/// alone, so [`validate_chrome_trace`] accepts every serialized document.
pub fn chrome_trace(spans: &[TraceSpan]) -> Json {
    // Build each lane's event stream with an explicit span stack so begin/
    // end events pair with stack discipline *by construction* — a plain
    // global sort cannot express that a zero-duration span's begin precedes
    // its own end at the same timestamp. Lanes are then merged on
    // timestamps only, which preserves each lane's internal order.
    let mut lanes: BTreeMap<u64, Vec<&TraceSpan>> = BTreeMap::new();
    for span in spans {
        lanes.entry(span.tid).or_default().push(span);
    }
    let mut streams: Vec<Vec<(u64, bool, &TraceSpan)>> = Vec::with_capacity(lanes.len());
    for lane in lanes.values_mut() {
        // Outer spans first at equal starts (longer duration wins), so the
        // stack below reconstructs the recorder's nesting.
        lane.sort_by_key(|s| (s.start_us, u64::MAX - s.end_us.saturating_sub(s.start_us)));
        let mut events: Vec<(u64, bool, &TraceSpan)> = Vec::with_capacity(lane.len() * 2);
        let mut open: Vec<&TraceSpan> = Vec::new();
        for &span in lane.iter() {
            while let Some(&top) = open.last() {
                if top.end_us <= span.start_us {
                    events.push((top.end_us, false, top));
                    open.pop();
                } else {
                    break;
                }
            }
            events.push((span.start_us, true, span));
            open.push(span);
        }
        while let Some(top) = open.pop() {
            events.push((top.end_us, false, top));
        }
        streams.push(events);
    }
    // K-way merge on timestamps (ties: lane order), lane streams untouched.
    let total = streams.iter().map(Vec::len).sum();
    let mut cursors = vec![0usize; streams.len()];
    let mut events: Vec<Json> = Vec::with_capacity(total);
    while events.len() < total {
        let next = (0..streams.len())
            .filter(|&lane| cursors[lane] < streams[lane].len())
            .min_by_key(|&lane| streams[lane][cursors[lane]].0)
            .expect("some stream still has events");
        let (ts, is_begin, span) = streams[next][cursors[next]];
        cursors[next] += 1;
        let mut map = BTreeMap::new();
        map.insert("name".to_owned(), Json::Str(span.name.clone()));
        map.insert("ph".to_owned(), Json::Str(if is_begin { "B" } else { "E" }.to_owned()));
        map.insert("ts".to_owned(), Json::Num(ts as f64));
        map.insert("pid".to_owned(), Json::Num(1.0));
        map.insert("tid".to_owned(), Json::Num(span.tid as f64));
        events.push(Json::Obj(map));
    }
    let mut doc = BTreeMap::new();
    doc.insert("traceEvents".to_owned(), Json::Arr(events));
    doc.insert("displayTimeUnit".to_owned(), Json::Str("ms".to_owned()));
    Json::Obj(doc)
}

/// Validates a Chrome trace-event document: `traceEvents` must be an array
/// of `B`/`E` events with string names, non-negative numeric timestamps in
/// non-decreasing order, and per-lane begin/end events that balance with
/// stack discipline (every `E` closes the innermost open `B` of the same
/// name). Returns the event count.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_chrome_trace(doc: &Json) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing \"traceEvents\" array".to_owned())?;
    let mut last_ts = f64::NEG_INFINITY;
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string \"name\""))?;
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string \"ph\""))?;
        let ts = event
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric \"ts\""))?;
        if !(ts.is_finite() && ts >= 0.0) {
            return Err(format!("event {i}: timestamp {ts} is not a non-negative finite number"));
        }
        if ts < last_ts {
            return Err(format!("event {i}: timestamp {ts} goes backwards (prev {last_ts})"));
        }
        last_ts = ts;
        let tid = event.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push(name.to_owned()),
            "E" => match stack.pop() {
                Some(open) if open == name => {}
                Some(open) => {
                    return Err(format!(
                        "event {i}: \"E\" for {name:?} closes open span {open:?} (not nested)"
                    ))
                }
                None => return Err(format!("event {i}: \"E\" for {name:?} with no open span")),
            },
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("lane {tid}: span {open:?} never ends"));
        }
    }
    Ok(events.len())
}

/// One speedup record extracted from a bench JSON: a stable key identifying
/// the measurement cell and the recorded exact-vs-batched speedup.
#[derive(Clone, PartialEq, Debug)]
pub struct SpeedupRecord {
    /// `"<workload> @ n=<n>"` (the workload falls back to the document's
    /// top-level `workload`/`protocol` fields for `bench_batched`'s schema).
    pub key: String,
    /// The recorded wall-clock speedup.
    pub speedup: f64,
}

/// Extracts every `"engine": "speedup"` row of a bench document.
///
/// Every gated document shares the row shape
/// `{"n": ..., "engine": "speedup", "speedup": ...}`. The workload is the
/// row's own `workload` member where it has one, as in all gated documents
/// but `BENCH_batched.json`; otherwise it is the document-level `workload`,
/// falling back to `protocol`.
pub fn speedup_records(doc: &Json) -> Vec<SpeedupRecord> {
    let doc_workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .or_else(|| doc.get("protocol").and_then(Json::as_str))
        .unwrap_or("unnamed");
    let Some(results) = doc.get("results").and_then(Json::as_array) else {
        return Vec::new();
    };
    results
        .iter()
        .filter(|row| row.get("engine").and_then(Json::as_str) == Some("speedup"))
        .filter_map(|row| {
            let speedup = row.get("speedup")?.as_f64()?;
            let n = row.get("n")?.as_f64()?;
            let workload = row.get("workload").and_then(Json::as_str).unwrap_or(doc_workload);
            Some(SpeedupRecord { key: format!("{workload} @ n={n}"), speedup })
        })
        .collect()
}

/// One speedup that degraded beyond the tolerance.
#[derive(Clone, PartialEq, Debug)]
pub struct Regression {
    /// The measurement-cell key.
    pub key: String,
    /// The committed baseline speedup.
    pub baseline: f64,
    /// The freshly measured speedup.
    pub fresh: f64,
}

impl Regression {
    /// `fresh / baseline` — below `1 − tolerance` for a reported regression.
    pub fn ratio(&self) -> f64 {
        self.fresh / self.baseline
    }
}

/// The outcome of comparing a fresh bench document against a baseline.
#[derive(Clone, PartialEq, Debug)]
pub struct GateReport {
    /// Cells compared (present in both documents).
    pub compared: usize,
    /// Baseline cells the fresh document did not measure (e.g. `--quick`
    /// sweeps fewer sizes); informational as long as the cell's *workload*
    /// is still measured at some size.
    pub skipped: Vec<String>,
    /// Baseline **workloads** with no fresh cell at any size. A quick sweep
    /// covers fewer sizes per workload but never zero, so a missing
    /// workload means a benchmark was renamed or dropped — previously that
    /// silently removed it from the gate; now it fails the gate.
    pub missing_workloads: Vec<String>,
    /// Cells whose speedup degraded beyond the tolerance.
    pub regressions: Vec<Regression>,
}

impl GateReport {
    /// Whether the gate passes: no regression and no baseline workload
    /// missing from the fresh document.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing_workloads.is_empty()
    }
}

/// The workload part of a `"<workload> @ n=<n>"` cell key.
fn workload_of(key: &str) -> &str {
    key.rsplit_once(" @ n=").map_or(key, |(w, _)| w)
}

/// Compares every baseline speedup cell against the fresh measurement:
/// a cell regresses when `fresh < baseline · (1 − tolerance)`.
///
/// Cells only in the baseline are skipped when their workload is still
/// measured at some other size (quick CI sweeps measure a size-subset of
/// the committed full sweep); a baseline workload with **no** fresh cell at
/// all is reported in [`GateReport::missing_workloads`] and fails the gate
/// — a renamed benchmark must not silently drop out of the regression gate.
/// Cells only in the fresh document are new coverage and pass by
/// construction.
pub fn compare_speedups(baseline: &Json, fresh: &Json, tolerance: f64) -> GateReport {
    let fresh_records = speedup_records(fresh);
    let mut compared = 0;
    let mut skipped = Vec::new();
    let mut missing_workloads = Vec::new();
    let mut regressions = Vec::new();
    for base in speedup_records(baseline) {
        match fresh_records.iter().find(|r| r.key == base.key) {
            None => {
                let workload = workload_of(&base.key);
                if fresh_records.iter().any(|r| workload_of(&r.key) == workload) {
                    skipped.push(base.key);
                } else if !missing_workloads.iter().any(|w| w == workload) {
                    missing_workloads.push(workload.to_owned());
                }
            }
            Some(fresh) => {
                compared += 1;
                if fresh.speedup < base.speedup * (1.0 - tolerance) {
                    regressions.push(Regression {
                        key: base.key,
                        baseline: base.speedup,
                        fresh: fresh.speedup,
                    });
                }
            }
        }
    }
    GateReport { compared, skipped, missing_workloads, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_nested_objects() {
        let doc = parse(r#"{"a": [1, -2.5, 3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .expect("valid document");
        assert_eq!(doc.get("a").unwrap().as_array().unwrap()[2], Json::Num(300.0));
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e").unwrap().as_str(), Some("x\ny"));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
        let unicode = parse(r#""café — ünïcode""#).unwrap();
        assert_eq!(unicode.as_str(), Some("café — ünïcode"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "123 456", "tru"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rejects_duplicate_object_keys() {
        let err = parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
        assert!(err.message.contains("\"a\""), "{err}");
        // Nested objects are checked too, and distinct keys still parse.
        assert!(parse(r#"{"outer": {"x": 1, "x": 2}}"#).is_err());
        assert!(parse(r#"{"a": 1, "b": {"a": 2}}"#).is_ok());
    }

    #[test]
    fn serializer_emits_canonical_compact_form() {
        let doc = parse(r#"{ "b" : [1, -2.5, 300],  "a": {"y": true, "x": null}, "s": "q\n\"" }"#)
            .unwrap();
        // Sorted keys, no whitespace, shortest numbers, escaped strings.
        assert_eq!(to_string(&doc), r#"{"a":{"x":null,"y":true},"b":[1,-2.5,300],"s":"q\n\""}"#);
        // Formatting and member order collapse to the same canonical text.
        let reordered = parse(r#"{"s":"q\n\"","a":{"x":null,"y":true},"b":[1,-2.5,3e2]}"#).unwrap();
        assert_eq!(to_string(&doc), to_string(&reordered));
        // Control characters take the \u form; non-finite numbers have no
        // JSON representation and degrade to null.
        assert_eq!(to_string(&Json::Str("\u{1}".into())), "\"\\u0001\"");
        assert_eq!(to_string(&Json::Num(f64::NAN)), "null");
        assert_eq!(to_string(&Json::Num(f64::INFINITY)), "null");
    }

    #[test]
    fn serialize_parse_round_trips() {
        for text in [
            r#"{"a":[1,-2.5,300],"b":{"c":true,"d":null},"e":"x\ny"}"#,
            "[]",
            "{}",
            "[[[1]],\"café — ünïcode\",-0.125,1e300]",
            "\"\\u0007tab\\there\"",
        ] {
            let value = parse(text).unwrap();
            let emitted = to_string(&value);
            assert_eq!(parse(&emitted).unwrap(), value, "{text}");
            // Canonical: a second round trip is a fixed point.
            assert_eq!(to_string(&parse(&emitted).unwrap()), emitted);
        }
    }

    #[test]
    fn parses_the_committed_baselines() {
        const GATED: [&str; 7] = [
            "BENCH_batched.json",
            "BENCH_batchcount.json",
            "BENCH_interned.json",
            "BENCH_mc.json",
            "BENCH_obs.json",
            "BENCH_service.json",
            "BENCH_topology.json",
        ];
        let mut seen = Vec::new();
        for entry in std::fs::read_dir("../..").expect("workspace root") {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(format!("../../{name}")).unwrap();
            let doc = parse(&text).unwrap_or_else(|err| panic!("{name}: {err}"));
            assert!(doc.get("schema").and_then(Json::as_str).is_some(), "{name} has a schema");
            let records = speedup_records(&doc);
            if GATED.contains(&name.as_str()) {
                assert!(!records.is_empty(), "{name} has speedup rows");
            }
            assert!(records.iter().all(|r| r.speedup > 0.0), "{name}");
            seen.push(name);
        }
        for name in GATED {
            assert!(seen.iter().any(|s| s == name), "{name} is committed");
        }
    }

    #[test]
    fn bench_documents_round_trip_one_row_per_line() {
        let rows = vec![
            Json::object([("n", 1000usize.into()), ("engine", "exact".into())]),
            Json::object([
                ("workload", "a \"quoted\" name".into()),
                ("n", 12u64.into()),
                ("engine", "speedup".into()),
                ("speedup", 3.25.into()),
                ("exact_extrapolated", false.into()),
            ]),
        ];
        let fields = [("schema", Json::from("test/v1")), ("quick", true.into())];
        let text = bench_document(&fields, &rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), fields.len() + rows.len() + 4);
        assert_eq!(lines[1], "  \"schema\": \"test/v1\",");
        for (line, row) in lines[4..].iter().zip(&rows) {
            assert_eq!(parse(line.trim().trim_end_matches(',')).unwrap(), *row);
        }
        let doc = parse(&text).unwrap();
        let mut expected = Json::object(fields.iter().cloned());
        expected.insert("results", Json::Arr(rows));
        assert_eq!(doc, expected);
        assert_eq!(speedup_records(&doc)[0].key, "a \"quoted\" name @ n=12");
    }

    #[test]
    #[should_panic(expected = "duplicate object key \"n\"")]
    fn objects_reject_repeated_keys() {
        Json::object([("n", 1u32.into()), ("n", 2u32.into())]);
    }

    fn bench_doc(speedups: &[(u64, f64)]) -> Json {
        let rows: Vec<String> = speedups
            .iter()
            .map(|(n, s)| format!("{{\"n\": {n}, \"engine\": \"speedup\", \"speedup\": {s}}}"))
            .collect();
        parse(&format!("{{\"workload\": \"w\", \"results\": [{}]}}", rows.join(", "))).unwrap()
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond_it() {
        let baseline = bench_doc(&[(100, 1000.0), (1000, 5000.0)]);
        // 25% degradation at n=100: inside a 30% tolerance.
        let ok = bench_doc(&[(100, 750.0), (1000, 5200.0)]);
        let report = compare_speedups(&baseline, &ok, 0.3);
        assert!(report.passed());
        assert_eq!(report.compared, 2);

        // 40% degradation at n=1000: a regression.
        let bad = bench_doc(&[(100, 990.0), (1000, 3000.0)]);
        let report = compare_speedups(&baseline, &bad, 0.3);
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].key, "w @ n=1000");
        assert!((report.regressions[0].ratio() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn quick_sweeps_skip_unmeasured_baseline_cells() {
        let baseline = bench_doc(&[(100, 1000.0), (1000, 5000.0), (10_000, 9000.0)]);
        let quick = bench_doc(&[(100, 1100.0)]);
        let report = compare_speedups(&baseline, &quick, 0.3);
        assert!(report.passed());
        assert_eq!(report.compared, 1);
        assert_eq!(report.skipped, vec!["w @ n=1000", "w @ n=10000"]);
        assert!(report.missing_workloads.is_empty());
    }

    #[test]
    fn renamed_workloads_fail_the_gate() {
        // A renamed benchmark's cells all vanish from the fresh document;
        // before the miss path existed they were silently "skipped" and the
        // gate still passed. Now the missing workload fails it.
        let baseline = parse(
            r#"{"results": [
                {"workload": "old-name", "n": 10, "engine": "speedup", "speedup": 2.0},
                {"workload": "old-name", "n": 100, "engine": "speedup", "speedup": 3.0},
                {"workload": "kept", "n": 10, "engine": "speedup", "speedup": 4.0}
            ]}"#,
        )
        .unwrap();
        let fresh = parse(
            r#"{"results": [
                {"workload": "new-name", "n": 10, "engine": "speedup", "speedup": 2.0},
                {"workload": "kept", "n": 10, "engine": "speedup", "speedup": 4.1}
            ]}"#,
        )
        .unwrap();
        let report = compare_speedups(&baseline, &fresh, 0.3);
        assert!(!report.passed(), "a fully missing workload must fail the gate");
        assert_eq!(report.missing_workloads, vec!["old-name"]);
        assert!(report.regressions.is_empty());
        assert_eq!(report.compared, 1);
        // The two old-name cells collapse into one missing-workload entry,
        // not two skipped cells.
        assert!(report.skipped.is_empty());
    }

    #[test]
    fn chrome_trace_round_trips_sorted_and_balanced() {
        let spans = vec![
            TraceSpan { name: "epoch.apply".into(), tid: 1, start_us: 12, end_us: 30 },
            TraceSpan { name: "epoch.draw".into(), tid: 1, start_us: 0, end_us: 10 },
            // Nested inside epoch.apply, sharing its end timestamp.
            TraceSpan { name: "silence.check".into(), tid: 1, start_us: 20, end_us: 30 },
            // A second lane, overlapping lane 1 freely.
            TraceSpan { name: "request.execute".into(), tid: 2, start_us: 5, end_us: 28 },
            // Zero-duration spans (sub-microsecond phases) — one nested at
            // its parent's end, one free-standing — must still pair B
            // before E inside their lane.
            TraceSpan { name: "epoch.draw".into(), tid: 1, start_us: 30, end_us: 30 },
            TraceSpan { name: "spill.order".into(), tid: 3, start_us: 7, end_us: 7 },
        ];
        let doc = chrome_trace(&spans);
        // Round-trip through the parser: the serialized text is valid JSON
        // and re-parses to the same document.
        let text = to_string(&doc);
        let parsed = parse(&text).expect("trace serializes to valid JSON");
        assert_eq!(parsed, doc);
        let events = validate_chrome_trace(&parsed).expect("trace validates");
        assert_eq!(events, spans.len() * 2);
        // Timestamps are sorted.
        let ts: Vec<f64> = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn trace_validation_rejects_malformed_documents() {
        assert!(validate_chrome_trace(&parse("{}").unwrap()).is_err());
        // Unbalanced: an E with no open B.
        let bad =
            parse(r#"{"traceEvents": [{"name": "x", "ph": "E", "ts": 1, "pid": 1, "tid": 1}]}"#)
                .unwrap();
        assert!(validate_chrome_trace(&bad).unwrap_err().contains("no open span"));
        // Backwards timestamps.
        let bad = parse(
            r#"{"traceEvents": [
                {"name": "x", "ph": "B", "ts": 5, "pid": 1, "tid": 1},
                {"name": "x", "ph": "E", "ts": 1, "pid": 1, "tid": 1}
            ]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&bad).unwrap_err().contains("backwards"));
        // A span left open.
        let bad =
            parse(r#"{"traceEvents": [{"name": "x", "ph": "B", "ts": 1, "pid": 1, "tid": 1}]}"#)
                .unwrap();
        assert!(validate_chrome_trace(&bad).unwrap_err().contains("never ends"));
    }

    #[test]
    fn workload_extraction_handles_keys_without_n() {
        assert_eq!(workload_of("w @ n=100"), "w");
        assert_eq!(workload_of("merged-collision @ n=1000"), "merged-collision");
        assert_eq!(workload_of("oddball"), "oddball");
    }

    #[test]
    fn per_row_workloads_key_the_interned_schema() {
        let doc = parse(
            r#"{"schema": "bench_interned/v1", "results": [
                {"workload": "a", "n": 10, "engine": "speedup", "speedup": 2.0},
                {"workload": "b", "n": 10, "engine": "speedup", "speedup": 3.0}
            ]}"#,
        )
        .unwrap();
        let records = speedup_records(&doc);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].key, "a @ n=10");
        assert_eq!(records[1].key, "b @ n=10");
    }
}
