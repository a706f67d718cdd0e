//! Dependency-free exporters for [`RegistrySnapshot`]: the
//! OpenMetrics/Prometheus text format, and a parser for it, so the
//! scrape pipeline is round-trip tested end to end.
//!
//! Histograms render in the standard cumulative-`le` form, with two
//! non-standard extra series (`<name>_min` / `<name>_max`) carrying the
//! exact observed extremes; only non-empty buckets are emitted, and the
//! `le` value is each bucket's *inclusive* upper bound, which maps back
//! to the bucket index losslessly (`bucket_index(le) == idx`), so
//! `parse_openmetrics(render(s)) == s` exactly.

use std::collections::BTreeMap;

use crate::hist::{bucket_high, bucket_index, HistSnapshot, N_BUCKETS};
use crate::registry::{Family, MetricKind, RegistrySnapshot, SampleValue, Series};

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut it = v.chars();
    while let Some(c) = it.next() {
        if c == '\\' {
            match it.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render a snapshot in OpenMetrics text format (`text/plain;
/// version=0.0.4` compatible), terminated with `# EOF`.
pub fn to_openmetrics(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for f in &snap.families {
        if !f.help.is_empty() {
            let help = f.help.replace('\\', "\\\\").replace('\n', "\\n");
            out.push_str(&format!("# HELP {} {help}\n", f.name));
        }
        out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.as_str()));
        for s in &f.series {
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        f.name,
                        render_labels(&s.labels, None)
                    ));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        f.name,
                        render_labels(&s.labels, None)
                    ));
                }
                SampleValue::Hist(h) => {
                    let mut cum = 0u64;
                    for (idx, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cum = cum.saturating_add(c);
                        let le = bucket_high(idx);
                        out.push_str(&format!(
                            "{}_bucket{} {cum}\n",
                            f.name,
                            render_labels(&s.labels, Some(("le", &le.to_string())))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {cum}\n",
                        f.name,
                        render_labels(&s.labels, Some(("le", "+Inf")))
                    ));
                    let plain = render_labels(&s.labels, None);
                    out.push_str(&format!("{}_sum{plain} {}\n", f.name, h.sum));
                    out.push_str(&format!("{}_count{plain} {cum}\n", f.name));
                    out.push_str(&format!("{}_min{plain} {}\n", f.name, h.min));
                    out.push_str(&format!("{}_max{plain} {}\n", f.name, h.max));
                }
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

/// Parse one `name{labels}` sample head into (name, sorted labels).
fn parse_head(head: &str) -> Result<(String, Vec<(String, String)>), String> {
    let Some(brace) = head.find('{') else {
        return Ok((head.to_string(), Vec::new()));
    };
    if !head.ends_with('}') {
        return Err(format!("unterminated label set in `{head}`"));
    }
    let name = head[..brace].to_string();
    let body = &head[brace + 1..head.len() - 1];
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("missing `=` in labels of `{head}`"))?;
        let key = rest[..eq].to_string();
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("unquoted label value in `{head}`"));
        }
        // Find the closing quote, honouring backslash escapes.
        let bytes = after.as_bytes();
        let mut i = 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => break,
                _ => i += 1,
            }
        }
        if i >= bytes.len() {
            return Err(format!("unterminated label value in `{head}`"));
        }
        let val = unescape_label(&after[1..i]);
        labels.push((key, val));
        rest = after[i + 1..].trim_start_matches(',');
    }
    labels.sort();
    Ok((name, labels))
}

/// Base-name + suffix classification for histogram sample lines.
enum HistPart {
    Bucket,
    Sum,
    Count,
    Min,
    Max,
}

fn hist_part(name: &str, kinds: &BTreeMap<String, MetricKind>) -> Option<(String, HistPart)> {
    for (suffix, part) in [
        ("_bucket", HistPart::Bucket),
        ("_sum", HistPart::Sum),
        ("_count", HistPart::Count),
        ("_min", HistPart::Min),
        ("_max", HistPart::Max),
    ] {
        if let Some(base) = name.strip_suffix(suffix) {
            if kinds.get(base) == Some(&MetricKind::Histogram) {
                return Some((base.to_string(), part));
            }
        }
    }
    None
}

#[derive(Default)]
struct HistBuild {
    cumulative: Vec<(usize, u64)>,
    inf: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Parse OpenMetrics text (as produced by [`to_openmetrics`]) back into
/// a [`RegistrySnapshot`]. The result is ordered identically to a live
/// snapshot, so `parse_openmetrics(to_openmetrics(s)) == Ok(s)`.
pub fn parse_openmetrics(text: &str) -> Result<RegistrySnapshot, String> {
    let mut kinds: BTreeMap<String, MetricKind> = BTreeMap::new();
    let mut helps: BTreeMap<String, String> = BTreeMap::new();
    let mut scalars: BTreeMap<(String, Vec<(String, String)>), SampleValue> = BTreeMap::new();
    let mut hists: BTreeMap<(String, Vec<(String, String)>), HistBuild> = BTreeMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line == "# EOF" {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or_default().to_string();
            let kind = match it.next() {
                Some("counter") => MetricKind::Counter,
                Some("gauge") => MetricKind::Gauge,
                Some("histogram") => MetricKind::Histogram,
                other => return Err(format!("line {}: bad TYPE `{other:?}`", lineno + 1)),
            };
            kinds.insert(name, kind);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or_default().to_string();
            let help = it
                .next()
                .unwrap_or_default()
                .replace("\\n", "\n")
                .replace("\\\\", "\\");
            helps.insert(name, help);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // `name{labels} value` — the label set may contain spaces, so
        // split at the last space.
        let split = line
            .rfind(' ')
            .ok_or_else(|| format!("line {}: no value", lineno + 1))?;
        let (head, value_s) = (line[..split].trim_end(), line[split + 1..].trim());
        let (name, mut labels) = parse_head(head)?;
        if let Some((base, part)) = hist_part(&name, &kinds) {
            let le = labels
                .iter()
                .position(|(k, _)| k == "le")
                .map(|i| labels.remove(i).1);
            let b = hists.entry((base, labels)).or_default();
            match part {
                HistPart::Bucket => {
                    let cum: u64 = value_s
                        .parse()
                        .map_err(|e| format!("line {}: bad bucket count: {e}", lineno + 1))?;
                    match le.as_deref() {
                        Some("+Inf") => b.inf = cum,
                        Some(le) => {
                            let bound: u64 = le
                                .parse()
                                .map_err(|e| format!("line {}: bad le: {e}", lineno + 1))?;
                            b.cumulative.push((bucket_index(bound), cum));
                        }
                        None => return Err(format!("line {}: bucket without le", lineno + 1)),
                    }
                }
                HistPart::Sum => {
                    b.sum = value_s
                        .parse()
                        .map_err(|e| format!("line {}: bad sum: {e}", lineno + 1))?;
                }
                HistPart::Count => {} // derived from buckets
                HistPart::Min => {
                    b.min = value_s
                        .parse()
                        .map_err(|e| format!("line {}: bad min: {e}", lineno + 1))?;
                }
                HistPart::Max => {
                    b.max = value_s
                        .parse()
                        .map_err(|e| format!("line {}: bad max: {e}", lineno + 1))?;
                }
            }
            continue;
        }
        let value = match kinds.get(&name) {
            Some(MetricKind::Counter) => SampleValue::Counter(
                value_s
                    .parse()
                    .map_err(|e| format!("line {}: bad counter value: {e}", lineno + 1))?,
            ),
            Some(MetricKind::Gauge) => SampleValue::Gauge(
                value_s
                    .parse()
                    .map_err(|e| format!("line {}: bad gauge value: {e}", lineno + 1))?,
            ),
            Some(MetricKind::Histogram) | None => {
                return Err(format!("line {}: sample `{name}` without TYPE", lineno + 1));
            }
        };
        scalars.insert((name, labels), value);
    }
    // Materialise histograms: cumulative → per-bucket.
    for ((name, labels), b) in hists {
        let mut snap = HistSnapshot::empty();
        let mut prev = 0u64;
        let mut rows = b.cumulative;
        rows.sort_by_key(|&(idx, _)| idx);
        for (idx, cum) in rows {
            if idx >= N_BUCKETS {
                return Err(format!("bucket bound out of range in `{name}`"));
            }
            snap.buckets[idx] = cum.saturating_sub(prev);
            prev = cum;
        }
        snap.sum = b.sum;
        snap.min = b.min;
        snap.max = b.max;
        scalars.insert((name, labels), SampleValue::Hist(snap));
    }
    let mut families: Vec<Family> = Vec::new();
    for ((name, labels), value) in scalars {
        let kind = *kinds
            .get(&name)
            .ok_or_else(|| format!("sample `{name}` without TYPE"))?;
        let series = Series { labels, value };
        match families.last_mut() {
            Some(f) if f.name == name => f.series.push(series),
            _ => families.push(Family {
                help: helps.get(&name).cloned().unwrap_or_default(),
                name,
                kind,
                series: vec![series],
            }),
        }
    }
    Ok(RegistrySnapshot { families })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use std::sync::Arc;

    fn demo_registry() -> Registry {
        let r = Registry::new();
        r.counter("udt_conn_pkts_sent", "data packets sent", &[("conn", "a1")])
            .unwrap()
            .inc(42);
        r.counter("udt_conn_pkts_sent", "data packets sent", &[("conn", "b2")])
            .unwrap()
            .inc(7);
        r.gauge("udt_cpu_thread_share", "CPU share", &[("thread", "udt-snd-1")])
            .unwrap()
            .set(0.375);
        let h = r
            .histogram("udt_conn_rtt_us", "smoothed RTT samples", &[("conn", "a1")])
            .unwrap();
        for v in [1u64, 1, 5, 100, 100, 100, 20_000, u64::MAX] {
            h.record(v);
        }
        let l = Arc::new(crate::counters::ListenerCounters::new());
        l.handshakes_accepted(3);
        l.rate_limited(9);
        r.register_family(&[("listener", "9000")], l).unwrap();
        r
    }

    #[test]
    fn openmetrics_round_trips_exactly() {
        let r = demo_registry();
        let snap = r.snapshot();
        let text = to_openmetrics(&snap);
        let parsed = parse_openmetrics(&text).expect("parse own output");
        assert_eq!(parsed, snap);
        // And the re-render is byte-identical (fixed ordering).
        assert_eq!(to_openmetrics(&parsed), text);
    }

    #[test]
    fn empty_registry_round_trips() {
        let snap = Registry::new().snapshot();
        let text = to_openmetrics(&snap);
        assert_eq!(parse_openmetrics(&text).unwrap(), snap);
    }

    #[test]
    fn empty_histogram_round_trips() {
        let r = Registry::new();
        r.histogram("udt_test_empty_us", "never recorded", &[]).unwrap();
        let snap = r.snapshot();
        assert_eq!(parse_openmetrics(&to_openmetrics(&snap)).unwrap(), snap);
    }

    #[test]
    fn label_escaping_round_trips() {
        let r = Registry::new();
        r.counter("udt_test_total", "t", &[("peer", "a\"b\\c\nd")])
            .unwrap()
            .inc(1);
        let snap = r.snapshot();
        assert_eq!(parse_openmetrics(&to_openmetrics(&snap)).unwrap(), snap);
    }

    #[test]
    fn rendered_text_looks_like_prometheus() {
        let text = to_openmetrics(&demo_registry().snapshot());
        assert!(text.contains("# TYPE udt_conn_pkts_sent counter"));
        assert!(text.contains("udt_conn_pkts_sent{conn=\"a1\"} 42"));
        assert!(text.contains("# TYPE udt_conn_rtt_us histogram"));
        assert!(text.contains("udt_conn_rtt_us_bucket{conn=\"a1\",le=\"+Inf\"} 8"));
        assert!(text.contains("udt_conn_rtt_us_count{conn=\"a1\"} 8"));
        assert!(text.contains("udt_listener_rate_limited{listener=\"9000\"} 9"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_openmetrics("udt_x 1\n").is_err()); // no TYPE
        assert!(parse_openmetrics("# TYPE udt_x counter\nudt_x notanum\n").is_err());
        assert!(parse_openmetrics("# TYPE udt_x wat\n").is_err());
    }
}
