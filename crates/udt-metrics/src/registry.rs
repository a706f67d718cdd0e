//! Hierarchical metrics registry: one namespace for every counter
//! family, gauge and histogram in the transport.
//!
//! Metric names follow `udt_<subsystem>_<name>` (lower-case, digits,
//! underscores — enforced at registration, and by the `metrics-name`
//! lint at the call site). A *series* is a name plus a sorted label set
//! (`udt_conn_rtt_us{conn="7f3a"}`); registration is get-or-create, so
//! re-registering an existing series returns the same handle, while
//! registering the same name under two different metric kinds is an
//! error.
//!
//! Two kinds of sources feed a [`RegistrySnapshot`]:
//!
//! * owned metrics ([`Counter`], [`Gauge`], [`Histogram`]) created
//!   through the registry and bumped directly by the datapath;
//! * *collectors* — closures over pre-existing counter structs (the
//!   [`CounterFamily`] implementations: Listener / Session /
//!   Fault / Batch / Path / Auth) sampled lazily at snapshot time, so
//!   legacy counter families join the namespace without changing their
//!   hot paths.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::counters::CounterFamily;
use crate::hist::{HistSnapshot, Histogram};

/// Monotone counter handle (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Gauge handle: an `f64` stored as bits in an `AtomicU64`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Metric kind, fixed per name across the whole registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Log-linear distribution ([`Histogram`]).
    Histogram,
}

impl MetricKind {
    /// OpenMetrics type keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Registration failure. The transport wiring treats these as
/// "observability degraded", never as connection failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Name does not match `^udt_[a-z0-9_]+$`.
    BadName(String),
    /// A label name is empty or not `[a-z_][a-z0-9_]*`.
    BadLabel(String),
    /// Name already registered under a different kind.
    KindMismatch(String),
    /// Series already claimed by a collector (or vice versa).
    DuplicateSeries(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::BadName(n) => {
                write!(f, "metric name `{n}` must match ^udt_[a-z0-9_]+$")
            }
            RegistryError::BadLabel(l) => write!(f, "bad label name `{l}`"),
            RegistryError::KindMismatch(n) => {
                write!(f, "metric `{n}` already registered under a different kind")
            }
            RegistryError::DuplicateSeries(s) => write!(f, "series `{s}` already registered"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Does `name` match `^udt_[a-z0-9_]+$`? (Hand-rolled; no regex dep.)
pub fn valid_metric_name(name: &str) -> bool {
    let Some(rest) = name.strip_prefix("udt_") else {
        return false;
    };
    !rest.is_empty()
        && rest
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

fn valid_label_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    match bytes.next() {
        Some(b) if b.is_ascii_lowercase() || b == b'_' => {}
        _ => return false,
    }
    bytes.all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Canonical (sorted) label set.
fn canon_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect();
    v.sort();
    v
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn render(&self) -> String {
        if self.labels.is_empty() {
            self.name.clone()
        } else {
            let labels: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            format!("{}{{{}}}", self.name, labels.join(","))
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Hist(Arc<Histogram>),
}

/// One sample produced by a collector.
pub struct Sample {
    /// Full metric name (`udt_…`).
    pub name: String,
    /// Sorted label set.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: SampleValue,
}

/// A sampled value, by kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotone counter.
    Counter(u64),
    /// Instantaneous value.
    Gauge(f64),
    /// Distribution snapshot.
    Hist(HistSnapshot),
}

impl SampleValue {
    fn kind(&self) -> MetricKind {
        match self {
            SampleValue::Counter(_) => MetricKind::Counter,
            SampleValue::Gauge(_) => MetricKind::Gauge,
            SampleValue::Hist(_) => MetricKind::Histogram,
        }
    }
}

type CollectorFn = Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

struct Inner {
    kinds: BTreeMap<String, MetricKind>,
    helps: BTreeMap<String, String>,
    series: BTreeMap<SeriesKey, Metric>,
    /// Series keys claimed by collectors (duplicate protection).
    collector_keys: BTreeMap<SeriesKey, ()>,
    collectors: Vec<CollectorFn>,
}

/// The registry. Cheap to share (`Arc<Registry>`); registration takes a
/// short mutex, the returned handles are lock-free.
pub struct Registry {
    inner: Mutex<Inner>,
}

/// Poison-tolerant lock: a panic inside a registrant leaves at worst a
/// half-registered series; the registry must keep serving scrapes, so a
/// poisoned mutex is recovered rather than propagated.
fn lock_inner(m: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = lock_inner(&self.inner);
        f.debug_struct("Registry")
            .field("series", &g.series.len())
            .field("collectors", &g.collectors.len())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                kinds: BTreeMap::new(),
                helps: BTreeMap::new(),
                series: BTreeMap::new(),
                collector_keys: BTreeMap::new(),
                collectors: Vec::new(),
            }),
        }
    }

    fn check_and_key(
        inner: &mut Inner,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
    ) -> Result<SeriesKey, RegistryError> {
        if !valid_metric_name(name) {
            return Err(RegistryError::BadName(name.to_string()));
        }
        for (k, _) in labels {
            if !valid_label_name(k) {
                return Err(RegistryError::BadLabel((*k).to_string()));
            }
        }
        if let Some(&existing) = inner.kinds.get(name) {
            if existing != kind {
                return Err(RegistryError::KindMismatch(name.to_string()));
            }
        } else {
            inner.kinds.insert(name.to_string(), kind);
            inner.helps.insert(name.to_string(), help.to_string());
        }
        let key = SeriesKey {
            name: name.to_string(),
            labels: canon_labels(labels),
        };
        if inner.collector_keys.contains_key(&key) {
            return Err(RegistryError::DuplicateSeries(key.render()));
        }
        Ok(key)
    }

    /// Get-or-create a counter series.
    pub fn counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<Arc<Counter>, RegistryError> {
        let mut g = lock_inner(&self.inner);
        let key = Registry::check_and_key(&mut g, name, help, labels, MetricKind::Counter)?;
        match g.series.get(&key) {
            Some(Metric::Counter(c)) => Ok(Arc::clone(c)),
            Some(_) => Err(RegistryError::KindMismatch(name.to_string())),
            None => {
                let c = Arc::new(Counter::default());
                g.series.insert(key, Metric::Counter(Arc::clone(&c)));
                Ok(c)
            }
        }
    }

    /// Get-or-create a gauge series.
    pub fn gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<Arc<Gauge>, RegistryError> {
        let mut g = lock_inner(&self.inner);
        let key = Registry::check_and_key(&mut g, name, help, labels, MetricKind::Gauge)?;
        match g.series.get(&key) {
            Some(Metric::Gauge(m)) => Ok(Arc::clone(m)),
            Some(_) => Err(RegistryError::KindMismatch(name.to_string())),
            None => {
                let m = Arc::new(Gauge::default());
                g.series.insert(key, Metric::Gauge(Arc::clone(&m)));
                Ok(m)
            }
        }
    }

    /// Get-or-create a histogram series.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<Arc<Histogram>, RegistryError> {
        let mut g = lock_inner(&self.inner);
        let key = Registry::check_and_key(&mut g, name, help, labels, MetricKind::Histogram)?;
        match g.series.get(&key) {
            Some(Metric::Hist(h)) => Ok(Arc::clone(h)),
            Some(_) => Err(RegistryError::KindMismatch(name.to_string())),
            None => {
                let h = Arc::new(Histogram::new());
                g.series.insert(key, Metric::Hist(Arc::clone(&h)));
                Ok(h)
            }
        }
    }

    /// Register a legacy counter family ([`CounterFamily`]) under
    /// `udt_<subsystem>_<field>{labels}`. The family is sampled lazily
    /// at snapshot time; its hot path is untouched.
    pub fn register_family<F: CounterFamily>(
        &self,
        labels: &[(&str, &str)],
        fam: Arc<F>,
    ) -> Result<(), RegistryError> {
        let subsystem = fam.subsystem();
        let labels_owned = canon_labels(labels);
        let mut keys = Vec::new();
        for (field, _) in fam.samples() {
            keys.push((
                format!("udt_{subsystem}_{field}"),
                format!("{subsystem} family counter `{field}`"),
            ));
        }
        let names: Vec<String> = keys.iter().map(|(n, _)| n.clone()).collect();
        let collect_labels = labels_owned.clone();
        self.register_collector(
            &keys
                .iter()
                .map(|(n, h)| (n.as_str(), h.as_str(), MetricKind::Counter))
                .collect::<Vec<_>>(),
            &labels_owned,
            Box::new(move |out: &mut Vec<Sample>| {
                for (i, (_, v)) in fam.samples().into_iter().enumerate() {
                    out.push(Sample {
                        name: names[i].clone(),
                        labels: collect_labels.clone(),
                        value: SampleValue::Counter(v),
                    });
                }
            }),
        )
    }

    /// Register a collector closure. `decls` lists every (name, help,
    /// kind) the closure will emit, and `labels` the label set it will
    /// stamp on them — declared up front so duplicate registrations are
    /// caught here rather than corrupting snapshots later.
    pub fn register_collector(
        &self,
        decls: &[(&str, &str, MetricKind)],
        labels: &[(String, String)],
        f: CollectorFn,
    ) -> Result<(), RegistryError> {
        let mut g = lock_inner(&self.inner);
        let mut keys = Vec::new();
        for (name, help, kind) in decls {
            let borrowed: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let key = Registry::check_and_key(&mut g, name, help, &borrowed, *kind)?;
            if g.series.contains_key(&key) {
                return Err(RegistryError::DuplicateSeries(key.render()));
            }
            keys.push(key);
        }
        for key in keys {
            g.collector_keys.insert(key, ());
        }
        g.collectors.push(f);
        Ok(())
    }

    /// Point-in-time snapshot of every series (owned metrics read with
    /// relaxed loads, collectors invoked inline), grouped by family and
    /// sorted by name then labels.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let g = lock_inner(&self.inner);
        let mut rows: BTreeMap<SeriesKey, SampleValue> = BTreeMap::new();
        for (key, metric) in &g.series {
            let value = match metric {
                Metric::Counter(c) => SampleValue::Counter(c.get()),
                Metric::Gauge(m) => SampleValue::Gauge(m.get()),
                Metric::Hist(h) => SampleValue::Hist(h.snapshot()),
            };
            rows.insert(key.clone(), value);
        }
        let mut collected = Vec::new();
        for c in &g.collectors {
            c(&mut collected);
        }
        for s in collected {
            let mut labels = s.labels;
            labels.sort();
            rows.insert(
                SeriesKey {
                    name: s.name,
                    labels,
                },
                s.value,
            );
        }
        let mut families: Vec<Family> = Vec::new();
        for (key, value) in rows {
            let kind = g
                .kinds
                .get(&key.name)
                .copied()
                .unwrap_or_else(|| value.kind());
            let help = g.helps.get(&key.name).cloned().unwrap_or_default();
            match families.last_mut() {
                Some(f) if f.name == key.name => f.series.push(Series {
                    labels: key.labels,
                    value,
                }),
                _ => families.push(Family {
                    name: key.name,
                    help,
                    kind,
                    series: vec![Series {
                        labels: key.labels,
                        value,
                    }],
                }),
            }
        }
        RegistrySnapshot { families }
    }
}

/// One series in a snapshot: a label set and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Sampled value.
    pub value: SampleValue,
}

/// All series of one metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Metric name (`udt_…`).
    pub name: String,
    /// Help text (may be empty).
    pub help: String,
    /// Kind shared by every series of the family.
    pub kind: MetricKind,
    /// Series, sorted by labels.
    pub series: Vec<Series>,
}

/// Point-in-time copy of a whole [`Registry`], ordered deterministically
/// (families by name, series by labels) so two snapshots of identical
/// state compare equal — the contract the OpenMetrics round-trip test
/// relies on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Families sorted by name.
    pub families: Vec<Family>,
}

impl RegistrySnapshot {
    /// Find a family by name.
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Find a single series value by name + exact label set.
    pub fn series(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        let want = canon_labels(labels);
        self.family(name)?
            .series
            .iter()
            .find(|s| s.labels == want)
            .map(|s| &s.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::ListenerCounters;

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("udt_conn_rtt_us"));
        assert!(valid_metric_name("udt_x9_z"));
        assert!(!valid_metric_name("conn_rtt_us"));
        assert!(!valid_metric_name("udt_"));
        assert!(!valid_metric_name("udt_Conn"));
        assert!(!valid_metric_name("udt_conn-rtt"));
        assert!(!valid_metric_name("udtx_conn"));
    }

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("udt_test_total", "t", &[("conn", "1")]).unwrap();
        let b = r.counter("udt_test_total", "t", &[("conn", "1")]).unwrap();
        a.inc(3);
        assert_eq!(b.get(), 3);
        // Different labels → different series.
        let c = r.counter("udt_test_total", "t", &[("conn", "2")]).unwrap();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn kind_conflicts_are_rejected() {
        let r = Registry::new();
        r.counter("udt_test_x", "t", &[]).unwrap();
        assert_eq!(
            r.gauge("udt_test_x", "t", &[]).unwrap_err(),
            RegistryError::KindMismatch("udt_test_x".to_string())
        );
    }

    #[test]
    fn bad_names_are_rejected() {
        let r = Registry::new();
        assert!(matches!(
            r.counter("nope", "t", &[]),
            Err(RegistryError::BadName(_))
        ));
        assert!(matches!(
            r.counter("udt_ok", "t", &[("9bad", "v")]),
            Err(RegistryError::BadLabel(_))
        ));
    }

    #[test]
    fn family_collector_is_sampled_lazily() {
        let r = Registry::new();
        let l = Arc::new(ListenerCounters::new());
        r.register_family(&[("listener", "9000")], Arc::clone(&l))
            .unwrap();
        l.handshakes_accepted(2);
        let s = r.snapshot();
        assert_eq!(
            s.series("udt_listener_handshakes_accepted", &[("listener", "9000")]),
            Some(&SampleValue::Counter(2))
        );
        l.handshakes_accepted(1);
        let s = r.snapshot();
        assert_eq!(
            s.series("udt_listener_handshakes_accepted", &[("listener", "9000")]),
            Some(&SampleValue::Counter(3))
        );
    }

    #[test]
    fn duplicate_family_registration_is_rejected() {
        let r = Registry::new();
        let l = Arc::new(ListenerCounters::new());
        r.register_family(&[], Arc::clone(&l)).unwrap();
        assert!(matches!(
            r.register_family(&[], l),
            Err(RegistryError::DuplicateSeries(_))
        ));
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let r = Registry::new();
        r.counter("udt_b_total", "t", &[]).unwrap();
        r.counter("udt_a_total", "t", &[("z", "1")]).unwrap();
        r.counter("udt_a_total", "t", &[("a", "1")]).unwrap();
        let s = r.snapshot();
        let names: Vec<&str> = s.families.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["udt_a_total", "udt_b_total"]);
        assert_eq!(s.families[0].series[0].labels[0].0, "a");
        assert_eq!(s, s.clone());
    }
}
