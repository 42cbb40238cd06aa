//! The `--viz-json` JSONL event-stream schema.
//!
//! One JSON object per line, consumed by the checked-in replay page
//! (`viz/replay.html`) and validated by the check.sh smoke. The schema
//! is deliberately flat and stable:
//!
//! ```json
//! {"t_ns":120000000,"kind":"tx","node":17,"x":431.5,"y":902.1,"info":"hello"}
//! ```
//!
//! * `t_ns` — sim time in nanoseconds (u64).
//! * `kind` — one of `tx`, `rx`, `drop`, `deliver`, `suspicion`,
//!   `pseudonym_change`.
//! * `node` — originating node id (u64; absent for world-level events).
//! * `x`, `y` — position in meters at event time (absent when unknown).
//! * `info` — free-form detail string (frame type, cause, ...).
//!
//! Producers build [`VizEvent`]s and render with
//! [`VizEvent::to_json_line`]; consumers (and the smoke) check lines
//! with [`validate_jsonl_line`].

use crate::export::json_string;
use std::fmt::Write as _;

/// Event categories the replay page understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VizEventKind {
    /// A frame left a radio.
    Tx,
    /// A frame arrived at a radio.
    Rx,
    /// A frame (or packet) was dropped.
    Drop,
    /// A data packet reached its destination.
    Deliver,
    /// An adversary (or trust layer) flagged a node.
    Suspicion,
    /// A node rotated its pseudonym.
    PseudonymChange,
}

impl VizEventKind {
    /// Wire spelling used in the JSONL stream.
    #[must_use]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            VizEventKind::Tx => "tx",
            VizEventKind::Rx => "rx",
            VizEventKind::Drop => "drop",
            VizEventKind::Deliver => "deliver",
            VizEventKind::Suspicion => "suspicion",
            VizEventKind::PseudonymChange => "pseudonym_change",
        }
    }

    /// Parses the wire spelling.
    #[must_use]
    pub(crate) fn parse(s: &str) -> Option<VizEventKind> {
        Some(match s {
            "tx" => VizEventKind::Tx,
            "rx" => VizEventKind::Rx,
            "drop" => VizEventKind::Drop,
            "deliver" => VizEventKind::Deliver,
            "suspicion" => VizEventKind::Suspicion,
            "pseudonym_change" => VizEventKind::PseudonymChange,
            _ => return None,
        })
    }
}

/// One replayable event.
#[derive(Debug, Clone, PartialEq)]
pub struct VizEvent {
    /// Sim time in nanoseconds.
    pub t_nanos: u64,
    /// Event category.
    pub kind: VizEventKind,
    /// Originating node, if any.
    pub node: Option<u64>,
    /// Position in meters at event time, if known.
    pub pos: Option<(f64, f64)>,
    /// Free-form detail (frame type, drop cause, ...).
    pub info: String,
}

impl VizEvent {
    /// Renders the event as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(
            out,
            "{{\"t_ns\":{},\"kind\":\"{}\"",
            self.t_nanos,
            self.kind.as_str()
        );
        if let Some(node) = self.node {
            let _ = write!(out, ",\"node\":{node}");
        }
        if let Some((x, y)) = self.pos {
            let _ = write!(out, ",\"x\":{x:.3},\"y\":{y:.3}");
        }
        if !self.info.is_empty() {
            let _ = write!(out, ",\"info\":{}", json_string(&self.info));
        }
        out.push('}');
        out
    }
}

/// Validates one JSONL line against the schema: must be a JSON object
/// with a `t_ns` unsigned integer, a known `kind`, and — when present —
/// numeric `node`/`x`/`y` and a string `info`.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_jsonl_line(line: &str) -> Result<VizEventKind, String> {
    let line = line.trim();
    let inner = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .ok_or("line is not a JSON object")?;
    let mut t_ns = None;
    let mut kind = None;
    let mut node_seen = false;
    let mut x_seen = false;
    let mut y_seen = false;
    for (key, value) in split_fields(inner)? {
        match key.as_str() {
            "t_ns" => {
                t_ns = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("t_ns not a u64: {value}"))?,
                );
            }
            "kind" => {
                let k = value
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or("kind must be a string")?;
                kind = Some(VizEventKind::parse(k).ok_or_else(|| format!("unknown kind {k:?}"))?);
            }
            "node" => {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("node not a u64: {value}"))?;
                node_seen = true;
            }
            "x" | "y" => {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("{key} not a number: {value}"))?;
                if key == "x" {
                    x_seen = true;
                } else {
                    y_seen = true;
                }
            }
            "info" => {
                if !value.starts_with('"') || !value.ends_with('"') || value.len() < 2 {
                    return Err("info must be a string".to_string());
                }
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    if t_ns.is_none() {
        return Err("missing t_ns".to_string());
    }
    if x_seen != y_seen {
        return Err("x and y must appear together".to_string());
    }
    let _ = node_seen;
    kind.ok_or_else(|| "missing kind".to_string())
}

/// Splits the inside of a flat JSON object into `(key, raw value)`
/// pairs, respecting string quoting/escapes (values are never nested
/// objects or arrays in this schema).
fn split_fields(inner: &str) -> Result<Vec<(String, String)>, String> {
    let mut fields = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let colon_key = rest.strip_prefix('"').ok_or("field keys must be quoted")?;
        let key_end = colon_key.find('"').ok_or("unterminated key")?;
        let key = &colon_key[..key_end];
        let after_key = colon_key[key_end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or("missing colon")?;
        let after_key = after_key.trim_start();
        // Find end of value: quoted string (honoring escapes) or a bare
        // token terminated by an unquoted comma.
        let (value, tail) = if let Some(s) = after_key.strip_prefix('"') {
            let mut escaped = false;
            let mut end = None;
            for (i, c) in s.char_indices() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    end = Some(i);
                    break;
                }
            }
            let end = end.ok_or("unterminated string value")?;
            (format!("\"{}\"", &s[..end]), s[end + 1..].trim_start())
        } else {
            match after_key.find(',') {
                Some(i) => (after_key[..i].trim().to_string(), &after_key[i..]),
                None => (after_key.trim().to_string(), ""),
            }
        };
        fields.push((key.to_string(), value));
        rest = tail.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("trailing garbage: {rest:?}"));
        }
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_validate_round_trip() {
        let e = VizEvent {
            t_nanos: 120_000_000,
            kind: VizEventKind::Tx,
            node: Some(17),
            pos: Some((431.5, 902.125)),
            info: "hello".to_string(),
        };
        let line = e.to_json_line();
        assert_eq!(validate_jsonl_line(&line), Ok(VizEventKind::Tx));
    }

    #[test]
    fn minimal_event_validates() {
        let e = VizEvent {
            t_nanos: 0,
            kind: VizEventKind::Deliver,
            node: None,
            pos: None,
            info: String::new(),
        };
        assert_eq!(
            validate_jsonl_line(&e.to_json_line()),
            Ok(VizEventKind::Deliver)
        );
    }

    #[test]
    fn every_kind_round_trips() {
        for kind in [
            VizEventKind::Tx,
            VizEventKind::Rx,
            VizEventKind::Drop,
            VizEventKind::Deliver,
            VizEventKind::Suspicion,
            VizEventKind::PseudonymChange,
        ] {
            assert_eq!(VizEventKind::parse(kind.as_str()), Some(kind));
        }
    }

    #[test]
    fn validator_rejects_bad_lines() {
        assert!(validate_jsonl_line("not json").is_err());
        assert!(
            validate_jsonl_line("{\"kind\":\"tx\"}").is_err(),
            "missing t_ns"
        );
        assert!(validate_jsonl_line("{\"t_ns\":1}").is_err(), "missing kind");
        assert!(validate_jsonl_line("{\"t_ns\":1,\"kind\":\"warp\"}").is_err());
        assert!(validate_jsonl_line("{\"t_ns\":1,\"kind\":\"tx\",\"x\":1.0}").is_err());
        assert!(validate_jsonl_line("{\"t_ns\":-4,\"kind\":\"tx\"}").is_err());
        assert!(validate_jsonl_line("{\"t_ns\":1,\"kind\":\"tx\",\"zzz\":3}").is_err());
    }

    #[test]
    fn info_with_quotes_and_commas_survives() {
        let e = VizEvent {
            t_nanos: 5,
            kind: VizEventKind::Drop,
            node: Some(3),
            pos: None,
            info: "cause=\"fault, burst\"".to_string(),
        };
        assert_eq!(
            validate_jsonl_line(&e.to_json_line()),
            Ok(VizEventKind::Drop)
        );
    }
}
