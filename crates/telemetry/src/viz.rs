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
//! * `kind` — one of `tx`, `rx`, `pseudonym_change` (the kinds an
//!   on-air observer emits).
//! * `node` — originating node id (u64; absent for world-level events).
//! * `x`, `y` — position in meters at event time (absent when unknown).
//! * `info` — free-form detail string (packet kind, new pseudonym).
//!
//! Producers build [`VizEvent`]s and render with
//! [`VizEvent::to_json_line`]; consumers (and the smoke) check lines
//! with [`validate_jsonl_line`].

use crate::export::{as_u64, json_string, parse_document, Json};
use std::fmt::Write as _;

/// Event categories the replay page understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VizEventKind {
    /// A frame left a radio.
    Tx,
    /// A frame arrived at a radio.
    Rx,
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
            VizEventKind::PseudonymChange => "pseudonym_change",
        }
    }

    /// Parses the wire spelling.
    #[must_use]
    pub(crate) fn parse(s: &str) -> Option<VizEventKind> {
        Some(match s {
            "tx" => VizEventKind::Tx,
            "rx" => VizEventKind::Rx,
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
    /// Free-form detail (packet kind, new pseudonym).
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

/// Validates one JSONL line against the schema: must be one JSON
/// object with a `t_ns` unsigned integer, a known `kind`, and — when
/// present — an unsigned integer `node`, numeric `x`/`y` (together) and
/// a string `info`; no other fields, and nothing after the object.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_jsonl_line(line: &str) -> Result<VizEventKind, String> {
    let Json::Obj(fields) = parse_document(line)? else {
        return Err("line is not a JSON object".to_string());
    };
    let (mut t_ns, mut kind, mut x, mut y) = (false, None, false, false);
    for (key, value) in &fields {
        match (key.as_str(), value) {
            ("t_ns" | "node", v) => {
                as_u64(v).map_err(|e| format!("{key}: {e}"))?;
                t_ns |= key == "t_ns";
            }
            ("kind", Json::Str(k)) => {
                kind = Some(VizEventKind::parse(k).ok_or_else(|| format!("unknown kind {k:?}"))?);
            }
            ("x", Json::Num { .. } | Json::Frac(_)) => x = true,
            ("y", Json::Num { .. } | Json::Frac(_)) => y = true,
            ("info", Json::Str(_)) => {}
            (key, value) => return Err(format!("bad field {key:?}: {value:?}")),
        }
    }
    if !t_ns {
        return Err("missing t_ns".to_string());
    }
    if x != y {
        return Err("x and y must appear together".to_string());
    }
    kind.ok_or_else(|| "missing kind".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KINDS: [VizEventKind; 3] = [
        VizEventKind::Tx,
        VizEventKind::Rx,
        VizEventKind::PseudonymChange,
    ];

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
            kind: VizEventKind::Rx,
            node: None,
            pos: None,
            info: String::new(),
        };
        assert_eq!(validate_jsonl_line(&e.to_json_line()), Ok(VizEventKind::Rx));
    }

    #[test]
    fn every_kind_round_trips() {
        for kind in KINDS {
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
        for retired in ["drop", "deliver", "suspicion"] {
            let line = format!("{{\"t_ns\":1,\"kind\":\"{retired}\"}}");
            assert!(validate_jsonl_line(&line).is_err(), "{retired}");
        }
        assert!(validate_jsonl_line("{\"t_ns\":1,\"kind\":\"tx\",\"x\":1.0}").is_err());
        assert!(validate_jsonl_line("{\"t_ns\":-4,\"kind\":\"tx\"}").is_err());
        assert!(validate_jsonl_line("{\"t_ns\":1.5,\"kind\":\"tx\"}").is_err());
        assert!(validate_jsonl_line("{\"t_ns\":1,\"kind\":\"tx\",\"node\":-1}").is_err());
        assert!(validate_jsonl_line("{\"t_ns\":1,\"kind\":\"tx\",\"node\":2.0}").is_err());
        assert!(validate_jsonl_line("{\"t_ns\":1,\"kind\":\"tx\",\"zzz\":3}").is_err());
        assert!(validate_jsonl_line("{\"t_ns\":1,\"kind\":\"tx\"} trailing").is_err());
    }

    #[test]
    fn info_with_quotes_and_commas_survives() {
        let e = VizEvent {
            t_nanos: 5,
            kind: VizEventKind::Tx,
            node: Some(3),
            pos: None,
            info: "cause=\"fault, burst\"".to_string(),
        };
        assert_eq!(validate_jsonl_line(&e.to_json_line()), Ok(VizEventKind::Tx));
    }

    /// Info strings mixing the characters a renderer must escape —
    /// quotes, backslashes, control characters — with commas and any
    /// other Unicode scalar value.
    fn info_string() -> impl Strategy<Value = String> {
        collection::vec((0u8..5, any::<u32>()), 0..24).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(class, bits)| match class {
                    0 => '"',
                    1 => '\\',
                    2 => ',',
                    3 => char::from((bits % 0x20) as u8),
                    _ => char::from_u32(bits % 0x11_0000).unwrap_or('\u{fffd}'),
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn any_event_renders_a_valid_line(
            t_nanos in any::<u64>(),
            kind in (0..KINDS.len()).prop_map(|i| KINDS[i]),
            node in (any::<bool>(), any::<u64>()).prop_map(|(some, n)| some.then_some(n)),
            pos in (0u8..3, any::<u64>(), any::<u64>(), -1.0e6..1.0e6f64, -1.0e6..1.0e6f64),
            info in info_string(),
        ) {
            // Whole-range bit patterns (huge, subnormal, negative zero)
            // and everyday coordinates.
            let pos = match pos {
                (0, ..) => None,
                (1, x, y, ..) => Some((f64::from_bits(x), f64::from_bits(y))),
                (_, _, _, x, y) => Some((x, y)),
            };
            prop_assume!(pos.is_none_or(|(x, y)| x.is_finite() && y.is_finite()));
            let line = VizEvent { t_nanos, kind, node, pos, info }.to_json_line();
            prop_assert_eq!(validate_jsonl_line(&line), Ok(kind), "{}", line);
        }
    }
}
