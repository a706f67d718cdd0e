//! UDT — UDP-based Data Transport.
//!
//! A from-scratch Rust implementation of the application-level transport
//! protocol described in *"Experiences in Design and Implementation of a
//! High Performance Transport Protocol"* (Gu, Hong, Grossman; SC'04):
//! reliable, duplex, connection-oriented byte streams over UDP with
//!
//! * **AIMD rate control driven by bandwidth estimation** — the increase
//!   parameter follows Table 1 of the paper, derived from receiver-based
//!   packet-pair link-capacity probes (§3.3–§3.4);
//! * **dynamic flow-window control** — `W = AS·(SYN + RTT)` computed at the
//!   receiver from a median filter on packet arrival intervals (§3.2);
//! * **timer-based selective acknowledgement** (one ACK per 0.01 s SYN) and
//!   **explicit NAKs** with the compressed loss-list encoding (§3.1);
//! * **loss-event loss lists** — the appendix's static-array structure on
//!   both sides (§4.2);
//! * the implementation techniques of §4: dedicated sender and timer
//!   threads per entity with the receive path run to completion on the
//!   socket's demux thread (a measured deviation from the paper's receiver
//!   thread, see [`conn`]), a hybrid sleep+spin high-precision send timer (§4.5), direct placement
//!   of arriving packets at their final buffer position (§4.6 speculation,
//!   realized as sequence-addressed ring slots), rate-control protection by
//!   the measured per-packet send cost (§4.4), and per-category CPU
//!   accounting (§6, Table 3) in [`instrument`].
//!
//! # Quickstart
//!
//! ```no_run
//! use udt::{UdtConfig, UdtConnection, UdtListener};
//!
//! // Server
//! let listener = UdtListener::bind("127.0.0.1:9000".parse().unwrap(), UdtConfig::default()).unwrap();
//! std::thread::spawn(move || {
//!     let conn = listener.accept().unwrap();
//!     let mut buf = vec![0u8; 65536];
//!     loop {
//!         let n = conn.recv(&mut buf).unwrap();
//!         if n == 0 { break; }
//!         // ... use buf[..n]
//!     }
//! });
//!
//! // Client
//! let conn = UdtConnection::connect("127.0.0.1:9000".parse().unwrap(), UdtConfig::default()).unwrap();
//! conn.send(b"hello over UDT").unwrap();
//! conn.close().unwrap();
//! ```
//!
//! Architectural notes (deviations from the 2004 C++ code are listed in
//! DESIGN.md): every listener/connection endpoint owns one UDP socket
//! managed by a small demultiplexer that routes datagrams to connections by
//! the destination-id header field, so many connections can share a server
//! port.

#![warn(missing_docs)]

pub mod auth;
pub mod bonded;
pub mod buffer;
pub mod config;
pub mod conn;
pub mod datapath;
pub mod error;
pub mod file;
pub mod instrument;
pub(crate) mod mmsg;
pub(crate) mod mux;
pub mod obs;
pub mod perfmon;
pub(crate) mod pool;
pub mod resilience;
pub mod socket;
pub mod timing;

pub use auth::AuthPolicy;
pub use bonded::{bonded_accept, bonded_connect, bonded_path_cfg, UdtPathConnector, UdtPathStream};
pub use config::{CcChoice, RetryPolicy, UdtConfig};
pub use conn::UdtConnection;
pub use error::UdtError;
pub use instrument::{Category, Instrument};
pub use obs::MetricsHub;
pub use perfmon::{throughput_between, PerfSnapshot};
pub use resilience::{serve_download, ResilientSession, ResumableFileSink, SessionTable};
pub use socket::UdtListener;
pub use udt_metrics::counters::ConnStats;
// Re-export the tracing handle types so applications can enable tracing
// without naming udt-trace in their own dependency list.
pub use udt_trace::{Tracer, DEFAULT_RING_CAPACITY};
// Likewise the pre-shared key type, so `--auth-key`-style configuration
// does not need udt-proto as a direct dependency.
pub use udt_proto::PreSharedKey;
