//! Batched UDP socket I/O: packet trains over `sendmmsg`/`recvmmsg` on
//! Linux, with a portable single-datagram fallback behind one interface.
//!
//! [`BatchIo`] is the single seam between the datapath and the kernel. The
//! unit it hands the kernel is the **train**: a run of equal-length packets
//! sent as *one* message with a `UDP_SEGMENT` control record, so the whole
//! run walks the UDP/IP/device path once and the kernel cuts it back into
//! datagrams at the far end of that path. A flush is cut into trains by
//! these rules, in order:
//!
//! * a train continues while the next packet is as long as its first;
//! * a shorter packet may join as the last one (the kernel's rule: every
//!   segment but the last has the segment size);
//! * the caller's `cut_after` predicate ends a train after a given packet
//!   (the sender ends one after the first packet of a §3.4 probe pair, so
//!   the pair arrives as two units with two arrival stamps);
//! * at most 64 packets (the kernel's `UDP_MAX_SEGMENTS`) and 65 507 bytes
//!   (the largest UDP payload over IPv4).
//!
//! All trains of a flush leave in one `sendmmsg`. A train of one carries no
//! control record and is the plain datagram it always was; a single-packet
//! flush is a plain `send_to`. Trains of one are also all there is once the
//! kernel has refused a segmented send (`EINVAL`, `EIO`, `EOPNOTSUPP`,
//! `ENOPROTOOPT`: no `UDP_SEGMENT`, no checksum offload on the device, a
//! segment larger than the path MTU): the refused flush is resent as
//! singles and the flag stays down, the way `ENOSYS` takes the whole
//! multi-message layer down to the `recv_from`/`send_to` sequence
//! (non-Linux and Miri start there). The observable semantics — blocking
//! behavior, socket timeouts, datagram boundaries and order, error mapping
//! — are the same at every level.
//!
//! On receive, a socket with `UDP_GRO` set ([`enable_trains`]) gets a train
//! as one datagram with the segment size in a control record. The receive
//! call lands every message in a 64 KiB slot of thread-owned scratch and
//! splits it there, **copying** each packet into a buffer from the
//! [`BufPool`](crate::pool::BufPool): one hot ≤ 1.5 KB copy per packet
//! against the > 2 µs of kernel path the train saved it, and the only way a
//! packet parked in the receive buffer does not pin a 64 KiB slot. (Before
//! trains the kernel wrote straight into the pooled buffer; payload bytes
//! are now copied three times between the wire and the application instead
//! of two.) Steady state still allocates nothing. Each packet comes with
//! the kernel's receive time ([`Datagram`]); the packets of one train share
//! one stamp, which is how the connection recognises them.

// FFI layer: every cast is bounded by construction (batch counts capped
// at MAX_BATCH, syscall returns checked non-negative before widening).
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};

use bytes::BytesMut;

use crate::pool::BufPool;

/// Upper bound on messages moved per syscall, independent of config.
#[cfg_attr(miri, allow(dead_code))] // only the batched (non-Miri) path caps
pub(crate) const MAX_BATCH: usize = 64;

/// Batched socket front end. Cheap to construct; holds only what the kernel
/// has said about itself at runtime.
pub(crate) struct BatchIo {
    /// Cleared permanently the first time the kernel reports `ENOSYS`.
    mmsg: AtomicBool,
    /// Cleared permanently the first time the kernel refuses a segmented
    /// send; from then on every train is a train of one.
    trains: AtomicBool,
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

/// One received packet: filled buffer, source address, and arrival stamp
/// — nanoseconds on the realtime clock, taken by the kernel when the
/// datagram reached the socket (`SO_TIMESTAMPNS`) or, where it supplies
/// none, when the receive call returned. Only differences between stamps of
/// one socket are meaningful; equal stamps mean one train.
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

/// Ask the kernel to deliver trains to `sock` whole (`UDP_GRO`), for
/// [`BatchIo::recv_batch`] to split; `false` where it will not (non-Linux,
/// Miri, an older kernel), and the kernel then splits them itself. Only for
/// a socket read with `max > 1`: the single-datagram receive has no room
/// for a train.
pub(crate) fn enable_trains(sock: &UdpSocket) -> bool {
    #[cfg(all(target_os = "linux", not(miri)))]
    return linux::set_gro(sock, true);
    #[cfg(not(all(target_os = "linux", not(miri))))]
    {
        let _ = sock;
        false
    }
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
        let linux = cfg!(all(target_os = "linux", not(miri)));
        BatchIo {
            mmsg: AtomicBool::new(linux),
            trains: AtomicBool::new(linux),
        }
    }

    /// True while the multi-message syscalls are in use.
    pub(crate) fn is_batched(&self) -> bool {
        self.mmsg.load(Ordering::Relaxed)
    }

    /// True while flushes may go out as trains of more than one.
    #[cfg(test)]
    pub(crate) fn trains_enabled(&self) -> bool {
        self.is_batched() && self.trains.load(Ordering::Relaxed)
    }

    /// Receive up to `max` messages and append their packets, one
    /// [`Datagram`] each in arrival order, to `out`; returns how many.
    ///
    /// Blocks for the first message exactly like `recv_from` (honoring
    /// the socket read timeout); whatever else is already queued on the
    /// socket completes the batch without further blocking
    /// (`MSG_WAITFORONE`). A message is a datagram or, on a socket with
    /// [`enable_trains`], a train of up to 64 of them. The fallback (and
    /// `max == 1`) delivers one datagram per call, which is the legacy
    /// per-packet semantics.
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
            match linux::recv(sock, pool, max.min(MAX_BATCH), &mut scratch.inner, out) {
                Err(e) if linux::is_enosys(&e) => {
                    self.mmsg.store(false, Ordering::Relaxed);
                    // `recv_from` below cannot take a train apart.
                    linux::set_gro(sock, false);
                }
                result => return result,
            }
        }
        let _ = (max, &scratch);
        let mut buf = pool.get();
        let stride = pool.stride();
        // `recv_from` needs an initialized slice; zero-fill the stride.
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

    /// Send every buffer in `bufs` to `to` in order, as trains (module
    /// docs; `cut_after(i)` ends a train after `bufs[i]`), returning how
    /// many packets left the socket. Partial progress is reported as
    /// `Ok(sent)`; an error on the very first datagram is returned as
    /// `Err`, matching what a caller looping over `send_to` would observe.
    pub(crate) fn send_batch(
        &self,
        sock: &UdpSocket,
        bufs: &[BytesMut],
        to: SocketAddr,
        cut_after: impl Fn(usize) -> bool,
        scratch: &mut SendScratch,
    ) -> io::Result<usize> {
        let mut sent = 0;
        #[cfg(all(target_os = "linux", not(miri)))]
        while self.is_batched() && bufs.len() - sent > 1 {
            let trains = self.trains.load(Ordering::Relaxed);
            let cut = |i: usize| cut_after(sent + i);
            let (n, failed) = linux::send(sock, &bufs[sent..], to, trains, cut, &mut scratch.inner);
            sent += n;
            match failed {
                None => return Ok(sent),
                Some(f) if linux::is_enosys(&f.err) => self.mmsg.store(false, Ordering::Relaxed),
                // Resend what is left of the flush as singles, for good.
                Some(f) if f.segmented && linux::is_refusal(&f.err) => {
                    self.trains.store(false, Ordering::Relaxed);
                }
                Some(f) if sent == 0 => return Err(f.err),
                Some(_) => return Ok(sent),
            }
        }
        let _ = (&cut_after, &scratch);
        for buf in &bufs[sent..] {
            match sock.send_to(buf, to) {
                Ok(_) => sent += 1,
                Err(e) if sent == 0 => return Err(e),
                Err(_) => break,
            }
        }
        Ok(sent)
    }
}

/// Reusable receive-side scratch (landing slots, header/address arrays) so
/// the batched path allocates nothing per wakeup once warmed up. A plain
/// marker on non-Linux targets.
#[derive(Default)]
pub(crate) struct RecvScratch {
    #[cfg(all(target_os = "linux", not(miri)))]
    inner: linux::RecvState,
}

/// Reusable send-side scratch (iovec/header/control-record arrays): a
/// flush allocates nothing once its thread has sent a flush as long. A
/// plain marker on non-Linux targets.
#[derive(Default)]
pub(crate) struct SendScratch {
    #[cfg(all(target_os = "linux", not(miri)))]
    inner: linux::SendState,
}

#[cfg(all(test, target_os = "linux", not(miri)))]
impl SendScratch {
    /// Messages the last batched flush was cut into.
    fn last_msgs(&self) -> usize {
        self.inner.msgs()
    }
}

#[cfg(all(target_os = "linux", not(miri)))]
mod linux {
    //! Hand-rolled FFI for `recvmmsg(2)`/`sendmmsg(2)` and the UDP
    //! segmentation options. The workspace vendors all dependencies, so
    //! there is no `libc` crate to lean on; the struct layouts below match
    //! the x86-64/aarch64 glibc ABI.

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

    impl Default for AddrStorage {
        fn default() -> AddrStorage {
            AddrStorage { data: [0; 128] }
        }
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

    /// The 64-bit `cmsghdr`: every control record starts with one, and the
    /// next record starts at the following multiple of its alignment.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct CmsgHdr {
        cmsg_len: usize,
        cmsg_level: c_int,
        cmsg_type: c_int,
    }

    const CMSG_HDR_LEN: usize = std::mem::size_of::<CmsgHdr>();
    const CMSG_ALIGN: usize = std::mem::align_of::<CmsgHdr>();

    /// Control-message space of one received message: an `SCM_TIMESTAMPNS`
    /// record (header + `timespec`, 32 bytes) and a `UDP_GRO` one (header +
    /// `int`, padded to 24), with room to spare.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct RecvCtl {
        data: [u8; 64],
    }

    impl Default for RecvCtl {
        fn default() -> RecvCtl {
            RecvCtl { data: [0; 64] }
        }
    }

    /// The `msg_controllen` handed to the kernel before each receive.
    const RECV_CTL_LEN: usize = std::mem::size_of::<RecvCtl>();

    /// The one control record of a segmented send: `UDP_SEGMENT` with the
    /// segment size as a `u16`, padded to the record alignment.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SegCtl {
        hdr: CmsgHdr,
        seg_size: u16,
        pad: [u8; 6],
    }

    /// The `msg_controllen` of a segmented send, and the `cmsg_len` inside
    /// it (header + payload, without the padding).
    const SEG_CTL_LEN: usize = std::mem::size_of::<SegCtl>();
    const SEG_CMSG_LEN: usize = CMSG_HDR_LEN + std::mem::size_of::<u16>();

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
    /// `IPPROTO_UDP`, the level of the two segmentation options; each is
    /// also the `cmsg_type` of its control record.
    const SOL_UDP: c_int = 17;
    const UDP_SEGMENT: c_int = 103;
    const UDP_GRO: c_int = 104;

    /// Best-effort integer socket option; `true` if the kernel took it.
    fn set_int_opt(sock: &UdpSocket, level: c_int, opt: c_int, val: c_int) -> bool {
        // SAFETY: optval points at the live parameter `val` (a c_int) and
        // optlen is sizeof(c_int); the kernel only reads through it.
        // Failure is acceptable (the OS default stays in effect).
        let rc = unsafe {
            setsockopt(
                sock.as_raw_fd(),
                level,
                opt,
                (&val as *const c_int).cast(),
                std::mem::size_of::<c_int>() as u32,
            )
        };
        rc == 0
    }

    pub(super) fn set_socket_buffers(sock: &UdpSocket, sndbuf: u32, rcvbuf: u32) {
        for (opt, bytes) in [(SO_SNDBUF, sndbuf), (SO_RCVBUF, rcvbuf)] {
            if bytes != 0 {
                set_int_opt(sock, SOL_SOCKET, opt, bytes.min(i32::MAX as u32) as c_int);
            }
        }
    }

    pub(super) fn enable_arrival_stamps(sock: &UdpSocket) {
        set_int_opt(sock, SOL_SOCKET, SO_TIMESTAMPNS, 1);
    }

    pub(super) fn set_gro(sock: &UdpSocket, on: bool) -> bool {
        set_int_opt(sock, SOL_UDP, UDP_GRO, c_int::from(on))
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

    /// The kernel's ways of refusing a segmented send it would have taken
    /// as single datagrams: `EINVAL` (segment over the path MTU, too many
    /// segments), `EIO` (no checksum offload to segment with),
    /// `EOPNOTSUPP`, `ENOPROTOOPT` (no `UDP_SEGMENT` at all).
    pub(super) fn is_refusal(e: &io::Error) -> bool {
        matches!(e.raw_os_error(), Some(22 | 5 | 95 | 92))
    }

    /// Most packets one train may carry (the kernel's `UDP_MAX_SEGMENTS`).
    const MAX_TRAIN_SEGS: usize = 64;
    /// Most bytes one train may carry: the largest UDP payload over IPv4.
    const MAX_TRAIN_BYTES: usize = 65_507;
    /// Bytes of landing space per received message: no datagram, and so no
    /// train, is larger.
    const SLOT: usize = 1 << 16;

    /// Persistent per-thread receive state: landing slots, iovecs, address
    /// and control storage, and message headers stay built between calls.
    /// A wakeup resets only the header fields the kernel wrote in the
    /// previous one, so its cost is O(messages moved), not O(batch
    /// capacity) — crucial when wakeups net few datagrams.
    #[derive(Default)]
    pub(super) struct RecvState {
        addrs: Vec<AddrStorage>,
        iovecs: Vec<IoVec>,
        ctl: Vec<RecvCtl>,
        hdrs: Vec<MMsgHdr>,
        /// `cap` landing slots of `SLOT` bytes of capacity, always empty
        /// between calls: the kernel writes into the spare capacity, and
        /// memory it never writes to is never touched.
        land: Vec<BytesMut>,
        /// Capacity the arrays were built for; a different `max` rebuilds.
        cap: usize,
        /// Headers the kernel wrote in the previous call.
        dirty: usize,
    }

    /// What the kernel said about one message beside its bytes.
    struct RecvMeta {
        arrival: Option<u64>,
        seg_size: Option<usize>,
    }

    fn ne_u64(b: &[u8], at: usize) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&b[at..at + 8]);
        u64::from_ne_bytes(raw)
    }

    fn ne_i32(b: &[u8], at: usize) -> i32 {
        i32::from_ne_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
    }

    /// Walk the control records the kernel wrote into `ctl` (`CMSG_FIRSTHDR`
    /// / `CMSG_NXTHDR` over a byte slice, every read bounds-checked).
    fn read_ctl(ctl: &[u8]) -> RecvMeta {
        let mut meta = RecvMeta {
            arrival: None,
            seg_size: None,
        };
        let mut at = 0;
        while at + CMSG_HDR_LEN <= ctl.len() {
            // `CmsgHdr`: length (header included), level, type.
            let len = ne_u64(ctl, at) as usize;
            if len < CMSG_HDR_LEN || len > ctl.len() - at {
                break; // not a record the kernel could have written
            }
            let (level, kind) = (ne_i32(ctl, at + 8), ne_i32(ctl, at + 12));
            let data = &ctl[at + CMSG_HDR_LEN..at + len];
            if level == SOL_SOCKET && kind == SO_TIMESTAMPNS && data.len() >= 16 {
                let stamp = TimeSpec {
                    tv_sec: ne_u64(data, 0) as i64,
                    tv_nsec: ne_u64(data, 8) as i64,
                };
                meta.arrival = Some(stamp.as_ns());
            } else if level == SOL_UDP && kind == UDP_GRO && data.len() >= 4 {
                meta.seg_size = usize::try_from(ne_i32(data, 0)).ok().filter(|&s| s > 0);
            }
            at += len.next_multiple_of(CMSG_ALIGN);
        }
        meta
    }

    pub(super) fn recv(
        sock: &UdpSocket,
        pool: &BufPool,
        max: usize,
        s: &mut RecvState,
        out: &mut Vec<super::Datagram>,
    ) -> io::Result<usize> {
        if s.cap != max {
            // First call (or a capacity change): build all five arrays to
            // `max` once. The header pointers reference `iovecs`/`addrs`/
            // `ctl` elements and the iovecs the slots' allocations; the
            // vectors are sized here and only indexed afterwards, and a
            // slot is never grown, so those pointers stay valid across
            // calls.
            s.addrs.clear();
            s.addrs.resize(max, AddrStorage::default());
            s.ctl.clear();
            s.ctl.resize(max, RecvCtl::default());
            s.land.clear();
            s.land.resize_with(max, || BytesMut::with_capacity(SLOT));
            s.iovecs.clear();
            s.hdrs.clear();
            for slot in &mut s.land {
                s.iovecs.push(IoVec {
                    iov_base: slot.as_mut_ptr().cast(),
                    iov_len: SLOT,
                });
            }
            for i in 0..max {
                s.hdrs.push(MMsgHdr {
                    msg_hdr: MsgHdr {
                        msg_name: (&mut s.addrs[i] as *mut AddrStorage).cast(),
                        msg_namelen: ADDR_LEN,
                        msg_iov: &mut s.iovecs[i],
                        msg_iovlen: 1,
                        msg_control: (&mut s.ctl[i] as *mut RecvCtl).cast(),
                        msg_controllen: RECV_CTL_LEN,
                        msg_flags: 0,
                    },
                    msg_len: 0,
                });
            }
            s.cap = max;
            s.dirty = 0;
        }
        for hdr in &mut s.hdrs[..s.dirty] {
            hdr.msg_hdr.msg_namelen = ADDR_LEN;
            hdr.msg_hdr.msg_controllen = RECV_CTL_LEN;
            hdr.msg_hdr.msg_flags = 0;
            hdr.msg_len = 0;
        }
        s.dirty = 0;
        // SAFETY: every pointer in `hdrs` targets scratch storage (`addrs`,
        // `iovecs`, `ctl`, and through the iovecs the slots of `land`) that
        // outlives the call; each iov_len is its slot's capacity.
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
        s.dirty = got;
        let read_at = super::realtime_ns();
        let stride = pool.stride();
        let before = out.len();
        for (i, slot) in s.land.iter_mut().enumerate().take(got) {
            let hdr = &s.hdrs[i];
            if hdr.msg_hdr.msg_flags & MSG_TRUNC != 0 {
                continue; // cannot happen short of a jumbo the slot cannot hold
            }
            let Some(from) = decode_addr(&s.addrs[i], hdr.msg_hdr.msg_namelen) else {
                continue;
            };
            // The kernel reports how much control data it wrote.
            let meta = read_ctl(&s.ctl[i].data[..hdr.msg_hdr.msg_controllen.min(RECV_CTL_LEN)]);
            let arrival = meta.arrival.unwrap_or(read_at);
            // SAFETY: the kernel initialized exactly `msg_len` bytes of the
            // slot `land[i]`, clamped here to the capacity it was given.
            unsafe { slot.set_len((hdr.msg_len as usize).min(SLOT)) };
            // No segment size: a datagram of its own, a train of one.
            let seg_size = meta.seg_size.unwrap_or(SLOT);
            for pkt in slot.chunks(seg_size) {
                if pkt.len() > stride {
                    continue; // oversized: could not have decoded anyway
                }
                let mut buf = pool.get();
                buf.extend_from_slice(pkt);
                out.push((buf, from, arrival));
            }
            slot.clear();
        }
        Ok(out.len() - before)
    }

    /// Persistent per-thread send state, rebuilt for every flush: one iovec
    /// per packet, one header per train, one control record per header
    /// (used by the segmented ones).
    #[derive(Default)]
    pub(super) struct SendState {
        addr: AddrStorage,
        iovecs: Vec<IoVec>,
        ctl: Vec<SegCtl>,
        hdrs: Vec<MMsgHdr>,
    }

    impl SendState {
        #[cfg(test)]
        pub(super) fn msgs(&self) -> usize {
            self.hdrs.len()
        }
    }

    /// Why a flush stopped early.
    pub(super) struct SendFailure {
        pub(super) err: io::Error,
        /// The message the kernel turned down was a train of two or more.
        pub(super) segmented: bool,
    }

    /// How many of `bufs`, from the first, make the next train.
    fn train_len(bufs: &[BytesMut], cut_after: &impl Fn(usize) -> bool, base: usize) -> usize {
        let seg = bufs[0].len();
        if seg == 0 || seg > usize::from(u16::MAX) {
            return 1;
        }
        let (mut n, mut bytes) = (1, seg);
        while n < bufs.len().min(MAX_TRAIN_SEGS)
            && bufs[n - 1].len() == seg
            && !cut_after(base + n - 1)
            && (1..=seg).contains(&bufs[n].len())
            && bytes + bufs[n].len() <= MAX_TRAIN_BYTES
        {
            bytes += bufs[n].len();
            n += 1;
        }
        n
    }

    /// Cut `bufs` into trains (of one each unless `trains`) and send them
    /// all to `to` with one `sendmmsg`, more only after a partial send.
    /// Returns the packets sent and, if it stopped early, why.
    pub(super) fn send(
        sock: &UdpSocket,
        bufs: &[BytesMut],
        to: SocketAddr,
        trains: bool,
        cut_after: impl Fn(usize) -> bool,
        s: &mut SendState,
    ) -> (usize, Option<SendFailure>) {
        let addr_len = encode_addr(&to, &mut s.addr);
        s.iovecs.clear();
        s.hdrs.clear();
        for buf in bufs {
            s.iovecs.push(IoVec {
                // The kernel never writes through a send iovec.
                iov_base: buf.as_ptr().cast_mut().cast(),
                iov_len: buf.len(),
            });
        }
        // Sized before any header points into it: one record per train, and
        // never more trains than packets.
        let spare = SegCtl {
            hdr: CmsgHdr {
                cmsg_len: SEG_CMSG_LEN,
                cmsg_level: SOL_UDP,
                cmsg_type: UDP_SEGMENT,
            },
            seg_size: 0,
            pad: [0; 6],
        };
        s.ctl.clear();
        s.ctl.resize(bufs.len(), spare);
        let mut at = 0;
        while at < bufs.len() {
            let n = if trains {
                train_len(&bufs[at..], &cut_after, at)
            } else {
                1
            };
            // A train of one is a plain datagram: no control record.
            let (mut msg_control, mut msg_controllen) = (ptr::null_mut(), 0);
            if n > 1 {
                let ctl = &mut s.ctl[s.hdrs.len()];
                ctl.seg_size = bufs[at].len() as u16; // train_len checked the range
                (msg_control, msg_controllen) = ((ctl as *mut SegCtl).cast(), SEG_CTL_LEN);
            }
            s.hdrs.push(MMsgHdr {
                msg_hdr: MsgHdr {
                    msg_name: (&mut s.addr as *mut AddrStorage).cast(),
                    msg_namelen: addr_len,
                    msg_iov: &mut s.iovecs[at],
                    msg_iovlen: n,
                    msg_control,
                    msg_controllen,
                    msg_flags: 0,
                },
                msg_len: 0,
            });
            at += n;
        }
        let (mut done, mut pkts) = (0, 0);
        while done < s.hdrs.len() {
            // SAFETY: `hdrs[done..]` and everything its headers point at
            // (`iovecs`, `ctl` and `addr` in the scratch `s`, the borrowed
            // send buffers `bufs`) outlive the call and were not resized
            // since the pointers were taken; the kernel treats the iovecs
            // as read-only for sendmmsg.
            let n = unsafe {
                sendmmsg(
                    sock.as_raw_fd(),
                    s.hdrs[done..].as_mut_ptr(),
                    (s.hdrs.len() - done) as u32,
                    0,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                let segmented = s.hdrs[done].msg_hdr.msg_iovlen > 1;
                return (pkts, Some(SendFailure { err, segmented }));
            }
            if n == 0 {
                break;
            }
            let sent = &s.hdrs[done..done + n as usize];
            pkts += sent.iter().map(|h| h.msg_hdr.msg_iovlen).sum::<usize>();
            done += n as usize;
        }
        (pkts, None)
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
        b.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let aa = a.local_addr().unwrap();
        let ba = b.local_addr().unwrap();
        (a, b, aa, ba)
    }

    fn test_pool() -> BufPool {
        BufPool::new(64, 2048, Arc::new(BatchCounters::new()))
    }

    /// Packet `i` of a flush: `len` bytes, every one of them `i`.
    fn filled(i: usize, len: usize) -> BytesMut {
        let mut m = BytesMut::with_capacity(len);
        m.resize(len, i as u8);
        m
    }

    /// One flush with no forced cuts.
    fn flush(io: &BatchIo, sock: &UdpSocket, bufs: &[BytesMut], to: SocketAddr) -> usize {
        io.send_batch(sock, bufs, to, |_| false, &mut SendScratch::default())
            .unwrap()
    }

    /// Receive through `io` until `n` packets are in.
    fn drain(io: &BatchIo, sock: &UdpSocket, n: usize) -> Vec<Datagram> {
        let pool = test_pool();
        let mut scratch = RecvScratch::default();
        let mut got = Vec::new();
        while got.len() < n {
            io.recv_batch(sock, &pool, 16, &mut scratch, &mut got)
                .unwrap();
        }
        got
    }

    fn assert_same_bytes(got: &[Datagram], sent: &[BytesMut]) {
        let got: Vec<&[u8]> = got.iter().map(|(m, ..)| &m[..]).collect();
        let sent: Vec<&[u8]> = sent.iter().map(|m| &m[..]).collect();
        assert_eq!(got, sent, "boundaries, order and bytes intact");
    }

    #[test]
    fn batched_roundtrip_preserves_datagram_boundaries() {
        let (a, b, aa, ba) = pair();
        let io = BatchIo::detect();
        let payloads: Vec<BytesMut> = (0..5).map(|i| filled(i, 9)).collect();
        assert_eq!(flush(&io, &a, &payloads, ba), 5);
        let got = drain(&io, &b, 5);
        assert_same_bytes(&got, &payloads);
        assert!(got.iter().all(|(_, from, _)| *from == aa));
    }

    /// `[L, L, L, s, L, L]`: a short packet ends the first train.
    fn mixed_flush() -> Vec<BytesMut> {
        [1200, 1200, 1200, 77, 1200, 1200]
            .iter()
            .enumerate()
            .map(|(i, &len)| filled(i, len))
            .collect()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_flush_crosses_as_trains_and_arrives_as_its_packets() {
        let io = BatchIo::detect();
        let sent = mixed_flush();
        // Into a plain socket: the kernel cuts the trains apart.
        let (a, plain, _aa, pa) = pair();
        let mut scratch = SendScratch::default();
        let n = io
            .send_batch(&a, &sent, pa, |_| false, &mut scratch)
            .unwrap();
        assert_eq!(n, 6);
        if !io.trains_enabled() {
            println!("SKIP: the kernel refused UDP_SEGMENT; the flush went out as singles");
            return;
        }
        assert_eq!(scratch.last_msgs(), 2, "[L,L,L,s] and [L,L], one sendmmsg");
        let mut buf = [0u8; 2048];
        for want in &sent {
            let (n, _) = plain.recv_from(&mut buf).unwrap();
            assert_eq!(&buf[..n], &want[..]);
        }
        // Into a socket that takes trains whole: split in the receive call.
        let (a, gro, aa, ga) = pair();
        if !enable_trains(&gro) {
            println!("SKIP: the kernel refused UDP_GRO");
            return;
        }
        enable_arrival_stamps(&gro);
        assert_eq!(flush(&io, &a, &sent, ga), 6);
        let got = drain(&io, &gro, 6);
        assert_same_bytes(&got, &sent);
        assert!(got.iter().all(|(_, from, _)| *from == aa));
        let stamps: Vec<u64> = got.iter().map(|d| d.2).collect();
        assert!(
            stamps[..4].iter().all(|&t| t == stamps[0]),
            "one train, one stamp"
        );
        assert_eq!(stamps[4], stamps[5]);
        assert!(
            stamps[4] > stamps[0],
            "the second train arrived later: {stamps:?}"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_cut_gives_the_next_packet_its_own_arrival_stamp() {
        let (a, b, _aa, ba) = pair();
        enable_arrival_stamps(&b);
        let trains = enable_trains(&b);
        let io = BatchIo::detect();
        // What the mux asks for around the probe pair 16k, 16k + 1.
        let sent: Vec<BytesMut> = (0..6).map(|i| filled(i, 1000)).collect();
        let mut scratch = SendScratch::default();
        io.send_batch(&a, &sent, ba, |i| i == 2, &mut scratch)
            .unwrap();
        let got = drain(&io, &b, 6);
        assert_same_bytes(&got, &sent);
        if !(trains && io.trains_enabled()) {
            println!("SKIP: no trains on this kernel, every packet has its own stamp");
            return;
        }
        assert_eq!(scratch.last_msgs(), 2);
        assert_eq!(got[0].2, got[2].2, "the pair's first packet ends its train");
        assert!(got[3].2 > got[2].2, "the pair arrives with two stamps");
        assert_eq!(got[3].2, got[5].2);
    }

    #[test]
    fn refused_trains_go_out_as_the_same_datagrams() {
        let (a, b, _aa, ba) = pair();
        let io = BatchIo::detect();
        io.trains.store(false, Ordering::Relaxed);
        let sent = mixed_flush();
        let mut scratch = SendScratch::default();
        let n = io
            .send_batch(&a, &sent, ba, |_| false, &mut scratch)
            .unwrap();
        assert_eq!(n, 6);
        #[cfg(target_os = "linux")]
        assert_eq!(scratch.last_msgs(), 6, "singles, still one sendmmsg");
        let mut buf = [0u8; 2048];
        for want in &sent {
            let (n, _) = b.recv_from(&mut buf).unwrap();
            assert_eq!(
                &buf[..n],
                &want[..],
                "byte-identical to the trains' packets"
            );
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn arrival_stamps_are_taken_at_the_socket_not_at_the_read() {
        let (a, b, _aa, ba) = pair();
        enable_arrival_stamps(&b);
        // Two datagrams 20 ms apart, both read long after the second one.
        a.send_to(b"one", ba).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        a.send_to(b"two", ba).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let got = drain(&BatchIo::detect(), &b, 2);
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
        let mut scratch = RecvScratch::default();
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
        let io = BatchIo::detect();
        let mut one = BytesMut::with_capacity(16);
        one.extend_from_slice(b"solo");
        assert_eq!(flush(&io, &a, std::slice::from_ref(&one), ba), 1);
        let mut buf = [0u8; 64];
        let (n, _) = b.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"solo");
    }

    #[test]
    fn sequential_wakeups_deliver_late_datagrams() {
        // A datagram that arrives while recv_batch is blocked must wake
        // it — this is the demux thread's steady-state pattern.
        let (a, b, _aa, ba) = pair();
        b.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let io = BatchIo::detect();
        let pool = test_pool();
        let mut scratch = RecvScratch::default();
        let mut got = Vec::new();
        a.send_to(b"first", ba).unwrap();
        io.recv_batch(&b, &pool, 32, &mut scratch, &mut got)
            .unwrap();
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
        let io = BatchIo::detect();
        io.mmsg.store(false, Ordering::Relaxed);
        assert!(!io.is_batched());
        let payloads: Vec<BytesMut> = (0..3).map(|i| filled(i, 4)).collect();
        assert_eq!(flush(&io, &a, &payloads, ba), 3);
        let got = drain(&io, &b, 3);
        assert_same_bytes(&got, &payloads);
    }
}
