//! Snapshot exporters: stamped JSON (with a round-trip parser) and
//! Prometheus text exposition format v0. The parser's reader is the
//! crate's only JSON reader; [`crate::viz::validate_jsonl_line`] uses
//! it too.
//!
//! The JSON is hand-rolled like the bench bins' result files — no
//! serde anywhere in the workspace — and is versioned so a
//! parser can reject foreign documents. Provenance stamping (git sha,
//! timestamp) is the *caller's* job: this crate never reads the clock
//! or the environment, so the same snapshot always renders the same
//! bytes. Pass `agr_bench::stamp::snapshot_meta()` in as meta pairs
//! when exporting from a bench bin.

use crate::hist::{bucket_bound, BUCKETS};
use crate::registry::{MetricKey, MetricValue, Snapshot};
use std::fmt::Write as _;

/// Document format tag emitted and required by the JSON round trip.
pub(crate) const SNAPSHOT_FORMAT: &str = "agr-telemetry-snapshot-v1";

/// Escapes and quotes `s` as a JSON string literal.
#[must_use]
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `snap` as a stamped JSON document. `meta` pairs (git sha,
/// timestamp, node id, ...) land verbatim under `"meta"`; histogram
/// buckets are stored sparsely as `[index, count]` pairs.
#[must_use]
pub fn snapshot_to_json(snap: &Snapshot, meta: &[(&str, &str)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"format\": {},", json_string(SNAPSHOT_FORMAT));
    let _ = writeln!(out, "  \"meta\": {{");
    for (i, (k, v)) in meta.iter().enumerate() {
        let comma = if i + 1 < meta.len() { "," } else { "" };
        let _ = writeln!(out, "    {}: {}{comma}", json_string(k), json_string(v));
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"metrics\": [");
    let n = snap.metrics.len();
    for (i, (key, value)) in snap.metrics.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        let mut line = String::new();
        let _ = write!(line, "    {{\"name\": {}", json_string(&key.name));
        if !key.labels.is_empty() {
            let _ = write!(line, ", \"labels\": {{");
            for (j, (k, v)) in key.labels.iter().enumerate() {
                let comma = if j + 1 < key.labels.len() { ", " } else { "" };
                let _ = write!(line, "{}: {}{comma}", json_string(k), json_string(v));
            }
            let _ = write!(line, "}}");
        }
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(line, ", \"kind\": \"counter\", \"value\": {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(line, ", \"kind\": \"gauge\", \"value\": {v}");
            }
            MetricValue::Histogram {
                buckets,
                sum,
                count,
            } => {
                let _ = write!(
                    line,
                    ", \"kind\": \"histogram\", \"count\": {count}, \"sum\": {sum}, \"buckets\": ["
                );
                let mut first = true;
                for (idx, n) in buckets.iter().enumerate().filter(|(_, n)| **n != 0) {
                    if !first {
                        let _ = write!(line, ", ");
                    }
                    first = false;
                    let _ = write!(line, "[{idx}, {n}]");
                }
                let _ = write!(line, "]");
            }
        }
        let _ = writeln!(out, "{line}}}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

// ---------------------------------------------------------------------
// Minimal JSON reader — just enough to read the exporter's own output
// and the viz stream's lines (and reject anything else), keeping the
// workspace serde-free.
// ---------------------------------------------------------------------

/// A parsed JSON value (subset: no exponents, no bools/null — neither
/// format emits them).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Str(String),
    /// Integers carry their sign separately so u64 counters above
    /// `i64::MAX` survive.
    Num {
        neg: bool,
        mag: u64,
    },
    /// A number with a fraction part (the viz stream's `x`/`y`).
    Frac(f64),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Parses one complete JSON document: a single value, with nothing but
/// whitespace after it.
pub(crate) fn parse_document(text: &str) -> Result<Json, String> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.skip_ws();
    if reader.pos < reader.bytes.len() {
        return Err(format!("trailing input at byte {}", reader.pos));
    }
    Ok(value)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Reader<'a> {
        Reader {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of document".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char, self.pos, got as char
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'"' => Ok(Json::Str(self.string()?)),
            b'{' => self.object(),
            b'[' => self.array(),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                b => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos = start + len;
                }
            }
        }
    }

    /// Advances past a run of ASCII digits, returning how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let sign = self.pos;
        let neg = self.bytes.get(self.pos) == Some(&b'-');
        if neg {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err("empty number".to_string());
        }
        let int_end = self.pos;
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err("empty fraction".to_string());
            }
        }
        let text = std::str::from_utf8(&self.bytes[sign..self.pos]).map_err(|e| e.to_string())?;
        if self.pos > int_end {
            let v: f64 = text.parse().map_err(|_| format!("bad number {text}"))?;
            return Ok(Json::Frac(v));
        }
        let mag: u64 = text[usize::from(neg)..]
            .parse()
            .map_err(|_| format!("bad number {text}"))?;
        Ok(Json::Num { neg, mag })
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] found {:?}", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} found {:?}", other as char)),
            }
        }
    }
}

fn obj_get<'j>(fields: &'j [(String, Json)], key: &str) -> Option<&'j Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub(crate) fn as_u64(v: &Json) -> Result<u64, String> {
    match v {
        Json::Num { neg: false, mag } => Ok(*mag),
        other => Err(format!("expected unsigned number, got {other:?}")),
    }
}

fn as_i64(v: &Json) -> Result<i64, String> {
    match v {
        Json::Num { neg: false, mag } => {
            i64::try_from(*mag).map_err(|_| "gauge overflows i64".to_string())
        }
        Json::Num { neg: true, mag } => {
            Ok(-(i64::try_from(*mag).map_err(|_| "gauge overflows i64".to_string())?))
        }
        other => Err(format!("expected number, got {other:?}")),
    }
}

/// Parses a document produced by [`snapshot_to_json`] back into a
/// `Snapshot`. Meta stamping is provenance, not state, so it is
/// checked for well-formedness but not returned.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn snapshot_from_json(text: &str) -> Result<Snapshot, String> {
    let Json::Obj(fields) = parse_document(text)? else {
        return Err("top level must be an object".to_string());
    };
    match obj_get(&fields, "format") {
        Some(Json::Str(f)) if f == SNAPSHOT_FORMAT => {}
        other => return Err(format!("bad format tag: {other:?}")),
    }
    let Some(Json::Arr(metrics)) = obj_get(&fields, "metrics") else {
        return Err("missing metrics array".to_string());
    };
    let mut snap = Snapshot::default();
    for m in metrics {
        let Json::Obj(m) = m else {
            return Err("metric entries must be objects".to_string());
        };
        let Some(Json::Str(name)) = obj_get(m, "name") else {
            return Err("metric missing name".to_string());
        };
        let mut labels = Vec::new();
        if let Some(Json::Obj(ls)) = obj_get(m, "labels") {
            for (k, v) in ls {
                let Json::Str(v) = v else {
                    return Err("label values must be strings".to_string());
                };
                labels.push((k.clone(), v.clone()));
            }
            labels.sort();
        }
        let key = MetricKey {
            name: name.clone(),
            labels,
        };
        let value = match obj_get(m, "kind") {
            Some(Json::Str(k)) if k == "counter" => {
                MetricValue::Counter(as_u64(obj_get(m, "value").ok_or("counter missing value")?)?)
            }
            Some(Json::Str(k)) if k == "gauge" => {
                MetricValue::Gauge(as_i64(obj_get(m, "value").ok_or("gauge missing value")?)?)
            }
            Some(Json::Str(k)) if k == "histogram" => {
                let count = as_u64(obj_get(m, "count").ok_or("histogram missing count")?)?;
                let sum = as_u64(obj_get(m, "sum").ok_or("histogram missing sum")?)?;
                let Some(Json::Arr(pairs)) = obj_get(m, "buckets") else {
                    return Err("histogram missing buckets".to_string());
                };
                let mut buckets = vec![0u64; BUCKETS];
                for pair in pairs {
                    let Json::Arr(pair) = pair else {
                        return Err("bucket entries must be [index, count]".to_string());
                    };
                    let [idx, n] = pair.as_slice() else {
                        return Err("bucket entries must be [index, count]".to_string());
                    };
                    let idx = usize::try_from(as_u64(idx)?).map_err(|e| e.to_string())?;
                    if idx >= BUCKETS {
                        return Err(format!("bucket index {idx} out of range"));
                    }
                    buckets[idx] = as_u64(n)?;
                }
                MetricValue::Histogram {
                    buckets,
                    sum,
                    count,
                }
            }
            other => return Err(format!("bad metric kind: {other:?}")),
        };
        snap.metrics.insert(key, value);
    }
    Ok(snap)
}

// ---------------------------------------------------------------------
// Prometheus text exposition format v0
// ---------------------------------------------------------------------

/// Maps a dotted metric name onto the Prometheus charset, prefixed with
/// the workspace namespace (`als.serve.hits` → `agr_als_serve_hits`).
#[must_use]
pub(crate) fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("agr_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prometheus_labels(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .chain(extra)
    {
        if !first {
            out.push(',');
        }
        first = false;
        let escaped = v
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        let _ = write!(out, "{k}=\"{escaped}\"");
    }
    out.push('}');
    out
}

/// Renders `snap` in Prometheus text exposition format v0: one `# TYPE`
/// header per family, cumulative `_bucket{le=...}` lines plus `_sum` /
/// `_count` for histograms.
#[must_use]
pub fn snapshot_to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<String> = None;
    for (key, value) in &snap.metrics {
        let family = prometheus_name(&key.name);
        let kind = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        };
        if last_family.as_deref() != Some(family.as_str()) {
            let _ = writeln!(out, "# TYPE {family} {kind}");
            last_family = Some(family.clone());
        }
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{family}{} {v}", prometheus_labels(&key.labels, None));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{family}{} {v}", prometheus_labels(&key.labels, None));
            }
            MetricValue::Histogram {
                buckets,
                sum,
                count,
            } => {
                let top = buckets.iter().rposition(|&n| n != 0).map_or(0, |i| i + 1);
                let mut cumulative = 0u64;
                for (i, n) in buckets.iter().enumerate().take(top) {
                    cumulative += n;
                    let le = if i >= 63 {
                        "+Inf".to_string()
                    } else {
                        bucket_bound(i).to_string()
                    };
                    let _ = writeln!(
                        out,
                        "{family}_bucket{} {cumulative}",
                        prometheus_labels(&key.labels, Some(("le", le)))
                    );
                }
                let _ = writeln!(
                    out,
                    "{family}_bucket{} {count}",
                    prometheus_labels(&key.labels, Some(("le", "+Inf".to_string())))
                );
                let _ = writeln!(
                    out,
                    "{family}_sum{} {sum}",
                    prometheus_labels(&key.labels, None)
                );
                let _ = writeln!(
                    out,
                    "{family}_count{} {count}",
                    prometheus_labels(&key.labels, None)
                );
            }
        }
    }
    out
}

/// Counts `# TYPE` headers in a Prometheus text document — the metric
/// family count the check.sh scrape smoke asserts on.
#[must_use]
pub fn prometheus_family_count(text: &str) -> usize {
    text.lines().filter(|l| l.starts_with("# TYPE ")).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.counter("als.serve.updates").add(42);
        reg.counter("als.serve.hits").add(7);
        reg.counter_with("cluster.rx", &[("node", "0")]).add(3);
        reg.counter_with("cluster.rx", &[("node", "1")]).add(9);
        reg.gauge("pipeline.depth").set(-2);
        let h = reg.histogram("serve.batch.frames");
        h.record(1);
        h.record_n(17, 3);
        h.record(64);
        reg.snapshot()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample_snapshot();
        let json = snapshot_to_json(&snap, &[("git_sha", "abc123"), ("generated_at", "t")]);
        let parsed = snapshot_from_json(&json).expect("own output parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn json_round_trip_survives_odd_strings() {
        let reg = Registry::new();
        reg.counter_with("odd.metric", &[("path", "a\\b \"q\"\nnl")])
            .add(1);
        let snap = reg.snapshot();
        let json = snapshot_to_json(&snap, &[]);
        assert_eq!(snapshot_from_json(&json).expect("parses"), snap);
    }

    #[test]
    fn json_rejects_foreign_documents() {
        assert!(snapshot_from_json("{\"format\": \"other\", \"metrics\": []}").is_err());
        assert!(snapshot_from_json("[1, 2]").is_err());
        assert!(snapshot_from_json("{").is_err());
        let json = snapshot_to_json(&sample_snapshot(), &[]);
        assert!(snapshot_from_json(&format!("{json} trailing garbage")).is_err());
        assert!(snapshot_from_json(&format!("{json}\n")).is_ok());
    }

    #[test]
    fn prometheus_renders_all_kinds() {
        let text = snapshot_to_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE agr_als_serve_updates counter"));
        assert!(text.contains("agr_als_serve_updates 42"));
        assert!(text.contains("# TYPE agr_pipeline_depth gauge"));
        assert!(text.contains("agr_pipeline_depth -2"));
        assert!(text.contains("agr_cluster_rx{node=\"0\"} 3"));
        assert!(text.contains("agr_cluster_rx{node=\"1\"} 9"));
        assert!(text.contains("# TYPE agr_serve_batch_frames histogram"));
        assert!(text.contains("agr_serve_batch_frames_bucket{le=\"1\"} 1"));
        assert!(text.contains("agr_serve_batch_frames_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("agr_serve_batch_frames_sum 116"));
        assert!(text.contains("agr_serve_batch_frames_count 5"));
    }

    #[test]
    fn prometheus_type_header_emitted_once_per_family() {
        let text = snapshot_to_prometheus(&sample_snapshot());
        let rx_headers = text
            .lines()
            .filter(|l| l.starts_with("# TYPE agr_cluster_rx "))
            .count();
        assert_eq!(rx_headers, 1, "labelled family shares one TYPE header");
        assert_eq!(prometheus_family_count(&text), 5);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(3); // bucket 2
        let text = snapshot_to_prometheus(&reg.snapshot());
        assert!(text.contains("agr_lat_bucket{le=\"0\"} 1"));
        assert!(text.contains("agr_lat_bucket{le=\"1\"} 2"));
        assert!(text.contains("agr_lat_bucket{le=\"3\"} 3"));
        assert!(text.contains("agr_lat_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let snap = Snapshot::default();
        assert_eq!(snapshot_to_prometheus(&snap), "");
        let json = snapshot_to_json(&snap, &[]);
        assert_eq!(snapshot_from_json(&json).expect("parses"), snap);
    }
}
