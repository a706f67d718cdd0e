//! `udtstat` — one-shot scrape client for the udt-obs endpoint.
//!
//! Fetches `GET /metrics` from a running endpoint (see
//! `UdtConfig::metrics_listen`, or `udtperf --metrics`), parses the
//! OpenMetrics text through the same parser the round-trip tests use,
//! and prints a human table: counters and gauges as rows, histograms
//! condensed to count/mean/min/p50/p90/p99/p999/max.
//!
//! Usage:
//! ```text
//! udtstat <host:port>            scrape and print everything
//! udtstat --raw <host:port>      dump the raw OpenMetrics text
//! udtstat --family <prefix> <host:port>   only families matching prefix
//! ```

use udt_metrics::registry::{RegistrySnapshot, SampleValue};

fn usage() -> ! {
    eprintln!("usage: udtstat [--raw] [--family <prefix>] <host:port>");
    std::process::exit(2);
}

fn labels_str(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", parts.join(","))
}

fn render(snap: &RegistrySnapshot, family_prefix: Option<&str>) -> String {
    let mut out = String::new();
    for fam in &snap.families {
        if let Some(p) = family_prefix {
            if !fam.name.starts_with(p) {
                continue;
            }
        }
        for s in &fam.series {
            let series = format!("{}{}", fam.name, labels_str(&s.labels));
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("{series:<64} {v}\n"));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!("{series:<64} {v:.6}\n"));
                }
                SampleValue::Hist(h) => {
                    out.push_str(&format!(
                        "{series:<64} n={} mean={:.1} min={} p50={} p90={} p99={} p999={} max={}\n",
                        h.count(),
                        h.mean(),
                        h.min,
                        h.p50(),
                        h.p90(),
                        h.p99(),
                        h.p999(),
                        h.max,
                    ));
                }
            }
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut raw = false;
    let mut family: Option<String> = None;
    let mut target: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--raw" => raw = true,
            "--family" => match it.next() {
                Some(p) => family = Some(p.clone()),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ if target.is_none() => target = Some(a.clone()),
            _ => usage(),
        }
    }
    let Some(target) = target else { usage() };
    let addr: std::net::SocketAddr = match target.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("udtstat: bad address `{target}`: {e}");
            std::process::exit(2);
        }
    };
    if raw {
        match udt::obs::scrape_text(addr) {
            Ok(body) => print!("{body}"),
            Err(e) => {
                eprintln!("udtstat: {addr}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    match udt::obs::scrape_snapshot(addr) {
        Ok(snap) => print!("{}", render(&snap, family.as_deref())),
        Err(e) => {
            eprintln!("udtstat: {addr}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_metrics::registry::Registry;

    #[test]
    fn render_covers_every_kind() {
        let r = Registry::new();
        r.counter("udt_test_total", "t", &[("conn", "1")])
            .unwrap()
            .inc(5);
        r.gauge("udt_test_share", "t", &[]).unwrap().set(0.25);
        let h = r.histogram("udt_test_lat_us", "t", &[]).unwrap();
        for v in 1..=100 {
            h.record(v);
        }
        let out = render(&r.snapshot(), None);
        assert!(out.contains("udt_test_total{conn=1}"), "{out}");
        assert!(out.contains(" 5\n"), "{out}");
        assert!(out.contains("udt_test_share"), "{out}");
        assert!(out.contains("n=100"), "{out}");
        assert!(out.contains("p50=50"), "{out}");
        // Prefix filter narrows the output.
        let only = render(&r.snapshot(), Some("udt_test_share"));
        assert!(only.contains("udt_test_share") && !only.contains("udt_test_total"));
    }
}
