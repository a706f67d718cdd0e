//! Process and host counters read from `/proc` (Linux; elsewhere every
//! reading is zero and the metrics derived from them read zero).

use std::collections::HashMap;
use std::fs;

/// Which protocol role a thread plays, from the names the library gives
/// its threads (`udt-snd-<id>`, `udt-rcv-<id>`, `udt-mux`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    Snd,
    Rcv,
    Mux,
    /// The harness's two application threads.
    App,
    /// Link emulator, metrics thread, reaper: not part of the transport's cost.
    Other,
}

impl Role {
    fn of(name: &str) -> Role {
        if name.starts_with("udt-snd") {
            Role::Snd
        } else if name.starts_with("udt-rcv") {
            Role::Rcv
        } else if name.starts_with("udt-mux") {
            Role::Mux
        } else if name.starts_with("linkemu")
            || name.starts_with("udt-obs")
            || name.starts_with("bench-")
        {
            Role::Other
        } else {
            Role::App
        }
    }
}

/// CPU time and context switches of the live threads, keyed by thread id.
#[derive(Debug, Default, Clone)]
pub struct Threads(HashMap<u32, (Role, u64, u64)>);

impl Threads {
    pub fn sample() -> Threads {
        let mut rows = HashMap::new();
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return Threads(rows);
        };
        for entry in dir.flatten() {
            let p = entry.path();
            let Some(tid) = p
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.parse().ok())
            else {
                continue;
            };
            // A thread may exit between the listing and these reads.
            let Ok(name) = fs::read_to_string(p.join("comm")) else {
                continue;
            };
            let cpu_ns = cpu_ns(&p);
            let ctx = fs::read_to_string(p.join("status")).map_or(0, |s| {
                field(&s, "voluntary_ctxt_switches:") + field(&s, "nonvoluntary_ctxt_switches:")
            });
            rows.insert(tid, (Role::of(name.trim()), cpu_ns, ctx));
        }
        Threads(rows)
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// Add to `into` what each thread alive now used since `earlier`
    /// (threads born in between count from zero).
    pub fn add_delta_since(&self, earlier: &Threads, into: &mut Usage) {
        for (tid, (role, cpu, ctx)) in &self.0 {
            let (cpu0, ctx0) = earlier.0.get(tid).map_or((0, 0), |(_, c, x)| (*c, *x));
            *into.cpu_ns.entry(*role).or_default() += cpu.saturating_sub(cpu0);
            into.ctx_switches += ctx.saturating_sub(ctx0);
        }
    }
}

/// On-CPU nanoseconds of one thread: `schedstat` where the kernel keeps
/// it, else the 10 ms ticks of `stat`.
fn cpu_ns(task: &std::path::Path) -> u64 {
    if let Some(ns) = fs::read_to_string(task.join("schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
    {
        return ns;
    }
    fs::read_to_string(task.join("stat")).map_or(0, |s| {
        // Fields 14 and 15 (utime, stime), counted after the ") " that
        // ends the free-form command name.
        let rest = s.rsplit_once(") ").map_or("", |(_, r)| r);
        let f: Vec<u64> = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|x| x.parse().ok())
            .collect();
        f.iter().sum::<u64>() * 10_000_000
    })
}

fn field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU and context switches summed over ops.
#[derive(Debug, Default, Clone)]
pub struct Usage {
    pub cpu_ns: HashMap<Role, u64>,
    pub ctx_switches: u64,
}

impl Usage {
    pub fn cpu_ms(&self, role: Role) -> f64 {
        self.cpu_ns.get(&role).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn cpu_s_total(&self) -> f64 {
        self.cpu_ns.values().sum::<u64>() as f64 / 1e9
    }
}

/// Peak resident set of the process so far, MB.
pub fn rss_peak_mb() -> f64 {
    fs::read_to_string("/proc/self/status").map_or(0.0, |s| field(&s, "VmHWM:") as f64 / 1024.0)
}

/// `(steal, total)` jiffies since boot, of one CPU or of the whole host.
/// Steal is time the hypervisor ran something else while this guest had
/// work to do; it shows up here and nowhere else.
pub fn jiffies(cpu: Option<usize>) -> (u64, u64) {
    let Ok(s) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let label = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let v: Vec<u64> = s
        .lines()
        .find_map(|l| l.strip_prefix(label.as_str())?.strip_prefix(' '))
        .unwrap_or("")
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user).
    (v.get(7).copied().unwrap_or(0), v.iter().take(8).sum())
}

/// Steal as a share of all jiffies between two readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    to.0.saturating_sub(from.0) as f64 / to.1.saturating_sub(from.1).max(1) as f64
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn sees_a_named_thread_and_its_cpu() {
        let before = Threads::sample();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::Builder::new()
            .name("udt-snd-42".into())
            .spawn(move || {
                let t0 = std::time::Instant::now();
                while t0.elapsed() < std::time::Duration::from_millis(30) {
                    std::hint::spin_loop();
                }
                ready_tx.send(()).unwrap();
                rx.recv().ok();
            })
            .unwrap();
        ready_rx.recv().unwrap();
        let mut usage = Usage::default();
        Threads::sample().add_delta_since(&before, &mut usage);
        tx.send(()).unwrap();
        t.join().unwrap();
        assert!(usage.cpu_ms(Role::Snd) >= 10.0, "{usage:?}");
        assert!(rss_peak_mb() > 0.0);
        let (steal, total) = jiffies(None);
        assert!(total > 0 && steal <= total);
        let (steal0, total0) = jiffies(Some(0));
        assert!(total0 > 0 && total0 <= total && steal0 <= steal);
        assert_eq!(steal_share((1, 100), (3, 140)), 0.05);
    }
}
