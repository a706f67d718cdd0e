//! Batched UDP socket I/O: `recvmmsg`/`sendmmsg` on Linux with a portable
//! single-datagram fallback behind one interface.
//!
//! [`BatchIo`] is the single seam between the datapath and the kernel.
//! On Linux it drains/flushes many datagrams per syscall; everywhere else
//! (and on Linux kernels that return `ENOSYS`) it degrades to the exact
//! `recv_from`/`send_to` sequence the pre-batching code used, so the
//! observable semantics — blocking behavior, socket timeouts, datagram
//! boundaries, error mapping — are identical and only the syscall count
//! changes.
//!
//! Receive buffers come from the [`BufPool`](crate::pool::BufPool): the
//! kernel writes straight into the pooled buffer's spare capacity and the
//! filled length is published with `set_len`, so the batched receive path
//! performs no copy and no allocation in steady state. Each datagram comes
//! with the kernel's receive time ([`Datagram`]): packets of one batch are
//! *read* at the same instant, and the receiver's estimators need the
//! spacing they *arrived* with.

// FFI layer: every cast is bounded by construction (batch counts capped
// at MAX_BATCH, syscall returns checked non-negative before widening).
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};

use bytes::BytesMut;

use crate::pool::BufPool;

/// Upper bound on datagrams moved per syscall, independent of config.
#[cfg_attr(miri, allow(dead_code))] // only the batched (non-Miri) path caps
pub(crate) const MAX_BATCH: usize = 64;

/// Batched socket front end. Cheap to construct; holds only the runtime
/// "are the batched syscalls usable" flag.
pub(crate) struct BatchIo {
    /// Cleared permanently the first time the kernel reports `ENOSYS`.
    mmsg: AtomicBool,
}

/// Best-effort `SO_SNDBUF`/`SO_RCVBUF` request (`0` = leave the OS
/// default). The kernel silently caps at `net.core.{w,r}mem_max`; on
/// non-Linux targets (no FFI here) this is a no-op. Large receive
/// buffers matter for the batched datapath: a kernel queue that absorbs
/// a burst turns into one big `recvmmsg` batch instead of drops.
pub(crate) fn set_socket_buffers(sock: &UdpSocket, sndbuf: u32, rcvbuf: u32) {
    #[cfg(all(target_os = "linux", not(miri)))]
    linux::set_socket_buffers(sock, sndbuf, rcvbuf);
    #[cfg(not(all(target_os = "linux", not(miri))))]
    let _ = (sock, sndbuf, rcvbuf);
}

/// One received datagram: filled buffer, source address, and arrival stamp
/// — nanoseconds on the realtime clock, taken by the kernel when the
/// datagram reached the socket (`SO_TIMESTAMPNS`) or, where it supplies
/// none, when the receive call returned. Only differences between stamps of
/// one socket are meaningful.
pub(crate) type Datagram = (BytesMut, SocketAddr, u64);

/// Ask the kernel to stamp every datagram queued on `sock` with its arrival
/// time, delivered with the data by the batched receive. Best-effort:
/// without it (non-Linux, Miri, or a refusing kernel) stamps are read times.
pub(crate) fn enable_arrival_stamps(sock: &UdpSocket) {
    #[cfg(all(target_os = "linux", not(miri)))]
    linux::enable_arrival_stamps(sock);
    #[cfg(not(all(target_os = "linux", not(miri))))]
    let _ = sock;
}

/// The realtime clock, read in user space: the stamp of last resort.
fn realtime_ns() -> u64 {
    let since_epoch = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    since_epoch.map_or(0, |d| d.as_nanos() as u64)
}

/// CPU time the calling thread has consumed so far, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Two readings around a blocking receive
/// give its CPU cost without the time spent blocked, which a wall-clock
/// bracket cannot. `0` where the FFI is unavailable (non-Linux, Miri):
/// differences are then zero and nothing is booked.
pub(crate) fn thread_cpu_ns() -> u64 {
    #[cfg(all(target_os = "linux", not(miri)))]
    return linux::thread_cpu_ns();
    #[cfg(not(all(target_os = "linux", not(miri))))]
    0
}

impl BatchIo {
    /// Detect platform support. Linux is assumed capable until the kernel
    /// says otherwise at runtime; everything else — including Miri, which
    /// cannot execute foreign functions — uses the fallback.
    pub(crate) fn detect() -> BatchIo {
        BatchIo {
            mmsg: AtomicBool::new(cfg!(all(target_os = "linux", not(miri)))),
        }
    }

    /// True while the multi-message syscalls are in use.
    pub(crate) fn is_batched(&self) -> bool {
        self.mmsg.load(Ordering::Relaxed)
    }

    /// Receive up to `max` datagrams into pooled buffers, appending one
    /// [`Datagram`] each to `out`.
    ///
    /// Blocks for the first datagram exactly like `recv_from` (honoring
    /// the socket read timeout); whatever else is already queued on the
    /// socket completes the batch without further blocking
    /// (`MSG_WAITFORONE`). The fallback delivers one datagram per call,
    /// which is the legacy per-packet semantics.
    pub(crate) fn recv_batch(
        &self,
        sock: &UdpSocket,
        pool: &BufPool,
        max: usize,
        scratch: &mut RecvScratch,
        out: &mut Vec<Datagram>,
    ) -> io::Result<usize> {
        #[cfg(all(target_os = "linux", not(miri)))]
        if self.is_batched() && max > 1 {
            match linux::recv_mmsg(sock, pool, max.min(MAX_BATCH), scratch, out) {
                Err(e) if linux::is_enosys(&e) => self.mmsg.store(false, Ordering::Relaxed),
                result => return result,
            }
        }
        let _ = (max, &scratch);
        let mut buf = pool.get();
        let stride = pool.stride();
        // `recv_from` needs an initialized slice; zero-fill the stride.
        // Only the fallback path pays this memset — the mmsg path reads
        // into uninitialized spare capacity instead.
        buf.resize(stride, 0);
        match sock.recv_from(&mut buf) {
            Ok((n, from)) => {
                buf.truncate(n);
                out.push((buf, from, realtime_ns()));
                Ok(1)
            }
            Err(e) => {
                pool.put(buf);
                Err(e)
            }
        }
    }

    /// Send every buffer in `bufs` to `to`, returning how many left the
    /// socket. Partial progress is reported as `Ok(sent)`; an error on
    /// the very first datagram is returned as `Err`, matching what a
    /// caller looping over `send_to` would observe.
    pub(crate) fn send_batch(
        &self,
        sock: &UdpSocket,
        bufs: &[BytesMut],
        to: SocketAddr,
    ) -> io::Result<usize> {
        if bufs.is_empty() {
            return Ok(0);
        }
        #[cfg(all(target_os = "linux", not(miri)))]
        if self.is_batched() && bufs.len() > 1 {
            match linux::send_mmsg(sock, bufs, to) {
                Err(e) if linux::is_enosys(&e) => self.mmsg.store(false, Ordering::Relaxed),
                result => return result,
            }
        }
        let mut sent = 0;
        for buf in bufs {
            match sock.send_to(buf, to) {
                Ok(_) => sent += 1,
                Err(e) if sent == 0 => return Err(e),
                Err(_) => break,
            }
        }
        Ok(sent)
    }
}

/// Reusable receive-side scratch (header/address arrays) so the batched
/// path allocates nothing per wakeup once warmed up. A plain marker on
/// non-Linux targets.
pub(crate) struct RecvScratch {
    #[cfg(all(target_os = "linux", not(miri)))]
    inner: linux::Scratch,
}

impl RecvScratch {
    pub(crate) fn new() -> RecvScratch {
        RecvScratch {
            #[cfg(all(target_os = "linux", not(miri)))]
            inner: linux::Scratch::default(),
        }
    }
}

#[cfg(all(target_os = "linux", not(miri)))]
mod linux {
    //! Hand-rolled FFI for `recvmmsg(2)`/`sendmmsg(2)`. The workspace
    //! vendors all dependencies, so there is no `libc` crate to lean on;
    //! the struct layouts below match the x86-64/aarch64 glibc ABI.

    use std::ffi::{c_int, c_void};
    use std::io;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV6, UdpSocket};
    use std::os::fd::AsRawFd;
    use std::ptr;

    use bytes::BytesMut;

    use crate::pool::BufPool;

    #[repr(C)]
    struct IoVec {
        iov_base: *mut c_void,
        iov_len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        msg_name: *mut c_void,
        msg_namelen: u32,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut c_void,
        msg_controllen: usize,
        msg_flags: c_int,
    }

    #[repr(C)]
    struct MMsgHdr {
        msg_hdr: MsgHdr,
        msg_len: u32,
    }

    /// Big enough for `sockaddr_in`/`sockaddr_in6`, aligned like the
    /// kernel's `sockaddr_storage`.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct AddrStorage {
        data: [u8; 128],
    }

    /// The `msg_namelen` handed to the kernel before each receive: the
    /// full storage size, derived from the type so the two can never
    /// drift apart.
    const ADDR_LEN: u32 = std::mem::size_of::<AddrStorage>() as u32;

    extern "C" {
        fn recvmmsg(
            fd: c_int,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        fn sendmmsg(fd: c_int, msgvec: *mut MMsgHdr, vlen: u32, flags: c_int) -> c_int;
        fn clock_gettime(clock_id: c_int, ts: *mut TimeSpec) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct TimeSpec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    impl TimeSpec {
        fn as_ns(self) -> u64 {
            (self.tv_sec as u64) * 1_000_000_000 + self.tv_nsec as u64
        }
    }

    /// Control-message space for exactly one `SCM_TIMESTAMPNS` record: the
    /// 64-bit `cmsghdr` followed by its `timespec` payload.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct StampCmsg {
        cmsg_len: usize,
        cmsg_level: c_int,
        cmsg_type: c_int,
        stamp: TimeSpec,
    }

    /// The `msg_controllen` handed to the kernel before each receive.
    const STAMP_LEN: usize = std::mem::size_of::<StampCmsg>();

    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    pub(super) fn thread_cpu_ns() -> u64 {
        let mut ts = TimeSpec::default();
        // SAFETY: `ts` is a live local matching the 64-bit `timespec`
        // layout; the kernel only writes through the pointer. On failure
        // it stays zeroed.
        let _ = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        ts.as_ns()
    }

    const SOL_SOCKET: c_int = 1;
    const SO_RCVBUF: c_int = 8;
    const SO_SNDBUF: c_int = 7;
    /// Also the `cmsg_type` of the record it produces (`SCM_TIMESTAMPNS`);
    /// the asm-generic value, as on x86-64/aarch64.
    const SO_TIMESTAMPNS: c_int = 35;

    /// Best-effort integer socket option at `SOL_SOCKET` level.
    fn set_int_opt(sock: &UdpSocket, opt: c_int, val: c_int) {
        // SAFETY: optval points at the live parameter `val` (a c_int) and
        // optlen is sizeof(c_int); the kernel only reads through it.
        // Failure is acceptable (the OS default stays in effect).
        let _ = unsafe {
            setsockopt(
                sock.as_raw_fd(),
                SOL_SOCKET,
                opt,
                (&val as *const c_int).cast(),
                std::mem::size_of::<c_int>() as u32,
            )
        };
    }

    pub(super) fn set_socket_buffers(sock: &UdpSocket, sndbuf: u32, rcvbuf: u32) {
        for (opt, bytes) in [(SO_SNDBUF, sndbuf), (SO_RCVBUF, rcvbuf)] {
            if bytes != 0 {
                set_int_opt(sock, opt, bytes.min(i32::MAX as u32) as c_int);
            }
        }
    }

    pub(super) fn enable_arrival_stamps(sock: &UdpSocket) {
        set_int_opt(sock, SO_TIMESTAMPNS, 1);
    }

    /// Return after the first blocking receive even if fewer than `vlen`
    /// datagrams arrived.
    const MSG_WAITFORONE: c_int = 0x10000;
    /// Datagram was larger than the supplied buffer and got cut short.
    const MSG_TRUNC: c_int = 0x20;
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;

    pub(super) fn is_enosys(e: &io::Error) -> bool {
        e.raw_os_error() == Some(38) // ENOSYS
    }

    /// Persistent per-thread receive state: buffers, iovecs, address
    /// storage, and message headers stay built between calls. A wakeup
    /// only refills the slots the previous wakeup consumed and resets the
    /// kernel-written header fields, so its cost is O(datagrams moved),
    /// not O(batch capacity) — crucial when wakeups net few datagrams.
    #[derive(Default)]
    pub(super) struct Scratch {
        addrs: Vec<AddrStorage>,
        iovecs: Vec<IoVec>,
        stamps: Vec<StampCmsg>,
        hdrs: Vec<MMsgHdr>,
        /// Slot buffers. An empty-capacity entry marks a consumed slot
        /// awaiting refill from the pool.
        bufs: Vec<BytesMut>,
        /// Capacity the arrays were built for; a different `max` rebuilds.
        cap: usize,
    }

    impl Default for AddrStorage {
        fn default() -> AddrStorage {
            AddrStorage { data: [0; 128] }
        }
    }

    pub(super) fn recv_mmsg(
        sock: &UdpSocket,
        pool: &BufPool,
        max: usize,
        scratch: &mut super::RecvScratch,
        out: &mut Vec<super::Datagram>,
    ) -> io::Result<usize> {
        let s = &mut scratch.inner;
        if s.cap != max {
            // First call (or a capacity change): build all five arrays to
            // `max` once. The header pointers reference `iovecs`/`addrs`/
            // `stamps` elements; the vectors are sized here and only
            // indexed afterwards, so those pointers stay valid across calls.
            for buf in s.bufs.drain(..) {
                if buf.capacity() > 0 {
                    pool.put(buf);
                }
            }
            s.addrs.clear();
            s.addrs.resize(max, AddrStorage::default());
            s.stamps.clear();
            s.stamps.resize(max, StampCmsg::default());
            s.iovecs.clear();
            s.hdrs.clear();
            for _ in 0..max {
                s.bufs.push(BytesMut::new());
                s.iovecs.push(IoVec {
                    iov_base: ptr::null_mut(),
                    iov_len: 0,
                });
            }
            for i in 0..max {
                s.hdrs.push(MMsgHdr {
                    msg_hdr: MsgHdr {
                        msg_name: (&mut s.addrs[i] as *mut AddrStorage).cast(),
                        msg_namelen: ADDR_LEN,
                        msg_iov: &mut s.iovecs[i],
                        msg_iovlen: 1,
                        msg_control: (&mut s.stamps[i] as *mut StampCmsg).cast(),
                        msg_controllen: STAMP_LEN,
                        msg_flags: 0,
                    },
                    msg_len: 0,
                });
            }
            s.cap = max;
        }
        // Per-wakeup maintenance: refill only the slots the previous call
        // consumed (capacity 0 marks them) and reset the fields the kernel
        // writes. The untouched tail of the batch keeps its buffers.
        for i in 0..max {
            if s.bufs[i].capacity() == 0 {
                s.bufs[i] = pool.get();
                s.iovecs[i].iov_base = s.bufs[i].as_mut_ptr().cast();
                s.iovecs[i].iov_len = s.bufs[i].capacity();
            }
            s.hdrs[i].msg_hdr.msg_namelen = ADDR_LEN;
            s.hdrs[i].msg_hdr.msg_controllen = STAMP_LEN;
            s.hdrs[i].msg_hdr.msg_flags = 0;
            s.hdrs[i].msg_len = 0;
        }
        // SAFETY: every pointer in `hdrs` targets scratch storage that
        // outlives the call; iov_len never exceeds the buffer capacity.
        let n = unsafe {
            recvmmsg(
                sock.as_raw_fd(),
                s.hdrs.as_mut_ptr(),
                max as u32,
                MSG_WAITFORONE,
                ptr::null_mut(),
            )
        };
        if n < 0 {
            // Timeout/interrupt: everything stays armed for the next call.
            return Err(io::Error::last_os_error());
        }
        let got = n as usize;
        let read_at = super::realtime_ns();
        let mut delivered = 0;
        for i in 0..got {
            // Take the filled buffer out; the empty replacement marks the
            // slot for refill on the next wakeup.
            let mut buf = std::mem::take(&mut s.bufs[i]);
            let hdr = &s.hdrs[i];
            let len = (hdr.msg_len as usize).min(buf.capacity());
            if hdr.msg_hdr.msg_flags & MSG_TRUNC != 0 {
                // Oversized datagram: could not have decoded anyway.
                pool.put(buf);
                continue;
            }
            let Some(from) = decode_addr(&s.addrs[i], hdr.msg_hdr.msg_namelen) else {
                pool.put(buf);
                continue;
            };
            // The kernel reports how much control data it wrote; anything
            // but one whole arrival-stamp record means it wrote none.
            let c = &s.stamps[i];
            let stamped = hdr.msg_hdr.msg_controllen >= STAMP_LEN
                && c.cmsg_level == SOL_SOCKET
                && c.cmsg_type == SO_TIMESTAMPNS;
            let arrival = if stamped { c.stamp.as_ns() } else { read_at };
            // SAFETY: the kernel initialized exactly `len` bytes, and
            // `len` is clamped to the buffer capacity above.
            unsafe { buf.set_len(len) };
            out.push((buf, from, arrival));
            delivered += 1;
        }
        Ok(delivered)
    }

    pub(super) fn send_mmsg(
        sock: &UdpSocket,
        bufs: &[BytesMut],
        to: SocketAddr,
    ) -> io::Result<usize> {
        let mut addr = AddrStorage::default();
        let addr_len = encode_addr(&to, &mut addr);
        let mut iovecs: Vec<IoVec> = Vec::with_capacity(bufs.len());
        let mut hdrs: Vec<MMsgHdr> = Vec::with_capacity(bufs.len());
        for buf in bufs {
            iovecs.push(IoVec {
                // The kernel never writes through a send iovec.
                iov_base: buf.as_ptr().cast_mut().cast(),
                iov_len: buf.len(),
            });
        }
        for iov in iovecs.iter_mut() {
            hdrs.push(MMsgHdr {
                msg_hdr: MsgHdr {
                    msg_name: (&mut addr as *mut AddrStorage).cast(),
                    msg_namelen: addr_len,
                    msg_iov: iov,
                    msg_iovlen: 1,
                    msg_control: ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            });
        }
        let mut sent = 0;
        while sent < hdrs.len() {
            // SAFETY: `hdrs[sent..]` and everything its headers point at
            // (`iovecs`, `addr`, the borrowed send buffers) are locals
            // that outlive the call; the kernel treats the iovecs as
            // read-only for sendmmsg.
            let n = unsafe {
                sendmmsg(
                    sock.as_raw_fd(),
                    hdrs[sent..].as_mut_ptr(),
                    (hdrs.len() - sent) as u32,
                    0,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if sent == 0 {
                    return Err(err);
                }
                break;
            }
            if n == 0 {
                break;
            }
            sent += n as usize;
        }
        Ok(sent)
    }

    fn decode_addr(raw: &AddrStorage, len: u32) -> Option<SocketAddr> {
        let b = &raw.data;
        let family = u16::from_ne_bytes([b[0], b[1]]);
        match family {
            AF_INET if len >= 16 => {
                let port = u16::from_be_bytes([b[2], b[3]]);
                let ip = Ipv4Addr::new(b[4], b[5], b[6], b[7]);
                Some(SocketAddr::new(IpAddr::V4(ip), port))
            }
            AF_INET6 if len >= 28 => {
                let port = u16::from_be_bytes([b[2], b[3]]);
                let mut octets = [0u8; 16];
                octets.copy_from_slice(&b[8..24]);
                let scope = u32::from_ne_bytes([b[24], b[25], b[26], b[27]]);
                Some(SocketAddr::V6(SocketAddrV6::new(
                    Ipv6Addr::from(octets),
                    port,
                    0,
                    scope,
                )))
            }
            _ => None,
        }
    }

    fn encode_addr(addr: &SocketAddr, raw: &mut AddrStorage) -> u32 {
        let b = &mut raw.data;
        match addr {
            SocketAddr::V4(v4) => {
                b[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                b[2..4].copy_from_slice(&v4.port().to_be_bytes());
                b[4..8].copy_from_slice(&v4.ip().octets());
                16
            }
            SocketAddr::V6(v6) => {
                b[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                b[2..4].copy_from_slice(&v6.port().to_be_bytes());
                b[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                b[8..24].copy_from_slice(&v6.ip().octets());
                b[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                28
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use udt_metrics::counters::BatchCounters;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr, SocketAddr) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let aa = a.local_addr().unwrap();
        let ba = b.local_addr().unwrap();
        (a, b, aa, ba)
    }

    fn test_pool() -> BufPool {
        BufPool::new(64, 2048, Arc::new(BatchCounters::new()))
    }

    #[test]
    fn batched_roundtrip_preserves_datagram_boundaries() {
        let (a, b, _aa, ba) = pair();
        b.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let io = BatchIo::detect();
        let payloads: Vec<BytesMut> = (0u8..5)
            .map(|i| {
                let mut m = BytesMut::with_capacity(64);
                m.extend_from_slice(&[i; 9]);
                m
            })
            .collect();
        let sent = io.send_batch(&a, &payloads, ba).unwrap();
        assert_eq!(sent, 5);
        let pool = test_pool();
        let mut scratch = RecvScratch::new();
        let mut got = Vec::new();
        while got.len() < 5 {
            io.recv_batch(&b, &pool, 16, &mut scratch, &mut got).unwrap();
        }
        assert_eq!(got.len(), 5, "no datagram merging or splitting");
        let mut seen: Vec<u8> = got.iter().map(|(m, _, _)| m[0]).collect();
        seen.sort_unstable();
        for (m, from, _) in &got {
            assert_eq!(m.len(), 9);
            assert!(m.iter().all(|&x| x == m[0]));
            assert_eq!(*from, a.local_addr().unwrap());
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn arrival_stamps_are_taken_at_the_socket_not_at_the_read() {
        let (a, b, _aa, ba) = pair();
        b.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        enable_arrival_stamps(&b);
        // Two datagrams 20 ms apart, both read long after the second one.
        a.send_to(b"one", ba).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        a.send_to(b"two", ba).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let io = BatchIo::detect();
        let pool = test_pool();
        let mut scratch = RecvScratch::new();
        let mut got = Vec::new();
        while got.len() < 2 {
            io.recv_batch(&b, &pool, 8, &mut scratch, &mut got).unwrap();
        }
        let gap_ms = got[1].2.saturating_sub(got[0].2) / 1_000_000;
        assert!((15..45).contains(&gap_ms), "stamp gap {gap_ms} ms");
        let read_lag_ms = realtime_ns().saturating_sub(got[1].2) / 1_000_000;
        assert!(read_lag_ms >= 45, "second stamp only {read_lag_ms} ms old");
    }

    #[test]
    fn recv_batch_honors_the_socket_timeout() {
        let (_a, b, _aa, _ba) = pair();
        b.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let io = BatchIo::detect();
        let pool = test_pool();
        let mut scratch = RecvScratch::new();
        let mut got = Vec::new();
        let err = io
            .recv_batch(&b, &pool, 8, &mut scratch, &mut got)
            .unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected error kind: {err:?}"
        );
        assert!(got.is_empty());
    }

    #[test]
    fn single_packet_send_uses_plain_send_to_semantics() {
        let (a, b, _aa, ba) = pair();
        b.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let io = BatchIo::detect();
        let mut one = BytesMut::with_capacity(16);
        one.extend_from_slice(b"solo");
        assert_eq!(io.send_batch(&a, std::slice::from_ref(&one), ba).unwrap(), 1);
        let mut buf = [0u8; 64];
        let (n, _) = b.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"solo");
    }

    #[test]
    fn sequential_wakeups_deliver_late_datagrams() {
        // A datagram that arrives while recv_batch is blocked must wake
        // it — this is the demux thread's steady-state pattern.
        let (a, b, _aa, ba) = pair();
        b.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        let io = BatchIo::detect();
        let pool = test_pool();
        let mut scratch = RecvScratch::new();
        let mut got = Vec::new();
        a.send_to(b"first", ba).unwrap();
        io.recv_batch(&b, &pool, 32, &mut scratch, &mut got).unwrap();
        assert_eq!(got.len(), 1);
        got.clear();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(250));
            a.send_to(b"second, longer datagram", ba).unwrap();
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while got.is_empty() && std::time::Instant::now() < deadline {
            match io.recv_batch(&b, &pool, 32, &mut scratch, &mut got) {
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => panic!("recv_batch failed: {e:?}"),
            }
        }
        t.join().unwrap();
        assert_eq!(got.len(), 1, "late datagram never delivered");
        assert_eq!(&got[0].0[..], b"second, longer datagram");
    }

    #[test]
    fn fallback_path_matches_batched_semantics() {
        // Force the portable path even on Linux and run the same
        // round-trip: identical observable behavior is the contract.
        let (a, b, _aa, ba) = pair();
        b.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let io = BatchIo::detect();
        io.mmsg.store(false, std::sync::atomic::Ordering::Relaxed);
        assert!(!io.is_batched());
        let payloads: Vec<BytesMut> = (0u8..3)
            .map(|i| {
                let mut m = BytesMut::with_capacity(16);
                m.extend_from_slice(&[i; 4]);
                m
            })
            .collect();
        assert_eq!(io.send_batch(&a, &payloads, ba).unwrap(), 3);
        let pool = test_pool();
        let mut scratch = RecvScratch::new();
        let mut got = Vec::new();
        while got.len() < 3 {
            io.recv_batch(&b, &pool, 8, &mut scratch, &mut got).unwrap();
        }
        assert_eq!(got.len(), 3);
        for (m, _, _) in &got {
            assert_eq!(m.len(), 4);
        }
    }
}
