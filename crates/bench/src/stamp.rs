//! Provenance stamping for the telemetry snapshots bench binaries
//! write: the commit SHA and a UTC timestamp, so a `simulate
//! --metrics-json` snapshot is attributable to a code state.
//!
//! Hand-rolled: the workspace is offline and carries no date or serde
//! dependency.

/// The commit SHA of the working tree producing this record, or
/// `"unknown"` outside a git checkout (results are only comparable
/// against a known code state, so every record carries it).
#[must_use]
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The current UTC time as an ISO-8601 `YYYY-MM-DDTHH:MM:SSZ` string,
/// from [`std::time::SystemTime`] alone (the workspace carries no date
/// dependency).
#[must_use]
fn iso_timestamp() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    iso_from_unix(secs)
}

/// Civil-date conversion (days → y/m/d via the standard era/day-of-era
/// decomposition), separate from the clock so it tests against known
/// instants.
#[must_use]
fn iso_from_unix(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

/// Provenance metadata pairs (`bin`, `git_sha`, `generated_at`) for
/// telemetry snapshots written by bench binaries. Feed to
/// `agr_telemetry::export::snapshot_to_json` after borrowing the pairs.
#[must_use]
pub fn snapshot_meta(bin: &str) -> Vec<(String, String)> {
    vec![
        ("bin".to_string(), bin.to_string()),
        ("git_sha".to_string(), git_sha()),
        ("generated_at".to_string(), iso_timestamp()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_meta_carries_provenance() {
        let keys: Vec<String> = snapshot_meta("simulate")
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, ["bin", "git_sha", "generated_at"]);
    }

    #[test]
    fn iso_conversion_matches_known_instants() {
        assert_eq!(iso_from_unix(0), "1970-01-01T00:00:00Z");
        // 2005-04-15 12:00:00 UTC — mid-ICDCS 2005.
        assert_eq!(iso_from_unix(1_113_566_400), "2005-04-15T12:00:00Z");
        // Leap-year boundary.
        assert_eq!(iso_from_unix(951_782_399), "2000-02-28T23:59:59Z");
        assert_eq!(iso_from_unix(951_782_400), "2000-02-29T00:00:00Z");
    }
}
