//! Per-path state: the measurements a scheduler steers by.
//!
//! Each path in a bonded session is an independent UDT flow with its own
//! packet-pair bandwidth estimate, RTT/RTTVar, loss rate, and congestion
//! window — the same per-connection quantities `udt::conn` maintains,
//! lifted here into a table the scheduler can read side by side.

use udt_metrics::counters::PathCounters;
use udt_trace::{Emitter, EventKind, Tracer};

/// Identity of one path within a bonded session (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

impl PathId {
    /// Path id from a table index. Path counts are a handful of links;
    /// an (impossible) overflow saturates rather than truncates.
    pub fn from_index(i: usize) -> PathId {
        PathId(u32::try_from(i).unwrap_or(u32::MAX))
    }
}

impl std::fmt::Display for PathId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "path{}", self.0)
    }
}

/// Point-in-time estimate set for one path, in the units the underlying
/// connection machinery reports them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PathEstimate {
    /// Packet-pair link bandwidth estimate, packets/second.
    pub bw_pps: f64,
    /// Smoothed round-trip time, microseconds.
    pub rtt_us: f64,
    /// RTT variance, microseconds.
    pub rtt_var_us: f64,
    /// Loss rate over the path's lifetime, percent.
    pub loss_pct: f64,
    /// Congestion window, packets.
    pub cwnd_pkts: f64,
}

impl PathEstimate {
    /// This estimate as `path`'s periodic `path_rate` sample.
    pub fn rate_event(&self, path: PathId) -> EventKind {
        EventKind::PathRate {
            path: path.0,
            bw_pps: self.bw_pps,
            rtt_us: self.rtt_us,
            loss_pct: self.loss_pct,
        }
    }
}

/// Everything the session tracks about one path.
#[derive(Debug)]
pub struct PathState {
    /// Path identity.
    pub id: PathId,
    /// Liveness: schedulers only assign work to up paths.
    pub up: bool,
    /// Latest estimates from the underlying connection.
    pub est: PathEstimate,
    /// Where this path's `path_*` events go; its lock-free counters are
    /// their fold. Reader/writer threads hold clones.
    pub events: Emitter<PathCounters>,
}

/// The table of all paths in one bonded session. Index == `PathId.0`.
#[derive(Debug)]
pub struct PathTable {
    paths: Vec<PathState>,
}

impl PathTable {
    /// A table of `n` paths, all initially down with empty estimates,
    /// whose events go to `tracer` tagged `conn`.
    pub fn new(n: usize, tracer: &Tracer, conn: u32) -> PathTable {
        let paths = (0..n)
            .map(|i| PathState {
                id: PathId::from_index(i),
                up: false,
                est: PathEstimate::default(),
                events: Emitter::new(tracer.clone(), conn, 0),
            })
            .collect();
        PathTable { paths }
    }

    /// Number of paths (up or down).
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// `true` when the table bonds zero paths.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// State of one path.
    pub fn get(&self, id: PathId) -> &PathState {
        &self.paths[id.0 as usize]
    }

    /// Mutable state of one path.
    pub fn get_mut(&mut self, id: PathId) -> &mut PathState {
        &mut self.paths[id.0 as usize]
    }

    /// All paths, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &PathState> {
        self.paths.iter()
    }

    /// Ids of the paths currently up, in id order.
    pub fn up_paths(&self) -> Vec<PathId> {
        self.paths.iter().filter(|p| p.up).map(|p| p.id).collect()
    }

    /// Count of up paths.
    pub fn up_count(&self) -> usize {
        self.paths.iter().filter(|p| p.up).count()
    }

    /// Mark a path up. Returns `true` on a down→up transition.
    pub fn mark_up(&mut self, id: PathId) -> bool {
        let p = self.get_mut(id);
        let was = p.up;
        p.up = true;
        !was
    }

    /// Mark a path down. Returns `true` on an up→down transition.
    pub fn mark_down(&mut self, id: PathId) -> bool {
        let p = self.get_mut(id);
        let was = p.up;
        p.up = false;
        was
    }

    /// Replace a path's estimates with fresh measurements.
    pub fn update_estimate(&mut self, id: PathId, est: PathEstimate) {
        self.get_mut(id).est = est;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> PathTable {
        PathTable::new(n, &Tracer::disabled(), 0)
    }

    #[test]
    fn table_transitions_and_up_set() {
        let mut t = table(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.up_count(), 0);
        assert!(t.mark_up(PathId(1)));
        assert!(!t.mark_up(PathId(1)), "second mark_up is not a transition");
        assert!(t.mark_up(PathId(2)));
        assert_eq!(t.up_paths(), vec![PathId(1), PathId(2)]);
        assert!(t.mark_down(PathId(1)));
        assert!(!t.mark_down(PathId(1)));
        assert_eq!(t.up_paths(), vec![PathId(2)]);
    }

    #[test]
    fn estimates_update_in_place() {
        let mut t = table(1);
        let est = PathEstimate {
            bw_pps: 8000.0,
            rtt_us: 20_000.0,
            rtt_var_us: 1000.0,
            loss_pct: 0.5,
            cwnd_pkts: 64.0,
        };
        t.update_estimate(PathId(0), est);
        assert_eq!(t.get(PathId(0)).est, est);
    }

    #[test]
    fn counters_flow_through_shared_handle() {
        let t = table(1);
        let e = t.get(PathId(0)).events.clone();
        for seq in 0..3 {
            let (path, bytes) = (0, 100);
            e.emit(EventKind::PathSend { path, seq, bytes });
        }
        e.emit(EventKind::PathDown { path: 0 });
        let s = t.get(PathId(0)).events.counters().snapshot();
        assert_eq!((s.chunks_sent, s.bytes_sent), (3, 300));
        assert_eq!(s.path_downs, 1);
    }
}
