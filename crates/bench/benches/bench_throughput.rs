//! End-to-end throughput of the real socket implementation over loopback
//! (small transfers, statistically sampled — the big blasts live in
//! `bench exp fig14`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use udt::{UdtConfig, UdtConnection, UdtListener};

const TRANSFER: usize = 8_000_000;

fn bench_loopback(c: &mut Criterion) {
    let mut g = c.benchmark_group("udt_loopback");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(TRANSFER as u64));
    g.bench_function("transfer_8mb", |b| {
        b.iter(|| {
            let listener =
                UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).unwrap();
            let addr = listener.local_addr();
            let server = std::thread::spawn(move || {
                let conn = listener.accept().unwrap();
                let mut buf = vec![0u8; 1 << 16];
                let mut total = 0usize;
                loop {
                    let n = conn.recv(&mut buf).unwrap();
                    if n == 0 {
                        break;
                    }
                    total += n;
                }
                total
            });
            let conn = UdtConnection::connect(addr, UdtConfig::default()).unwrap();
            let chunk = vec![0u8; 1 << 16];
            let mut sent = 0usize;
            while sent < TRANSFER {
                let n = (TRANSFER - sent).min(chunk.len());
                conn.send(&chunk[..n]).unwrap();
                sent += n;
            }
            conn.close().unwrap();
            assert_eq!(server.join().unwrap(), TRANSFER);
        });
    });
    g.finish();
}

fn bench_handshake(c: &mut Criterion) {
    let mut g = c.benchmark_group("udt_handshake");
    g.sample_size(20);
    g.bench_function("connect_close", |b| {
        let listener =
            UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).unwrap();
        let addr = listener.local_addr();
        let _drain = std::thread::spawn(move || {
            while let Ok(conn) = listener.accept() {
                drop(conn);
            }
        });
        b.iter(|| {
            let conn = UdtConnection::connect(addr, UdtConfig::default()).unwrap();
            conn.close().ok();
        });
    });
    g.finish();
}

criterion_group!(benches, bench_loopback, bench_handshake);
criterion_main!(benches);
