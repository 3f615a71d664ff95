//! Batched datagram syscalls: `sendmmsg`/`recvmmsg` on Linux, a portable
//! per-datagram fallback elsewhere.
//!
//! The UDP backend's hot loop moves bursts of small datagrams; issuing
//! one `sendto`/`recvfrom` syscall per datagram dominates its CPU time.
//! Linux batches both directions in a single syscall. `std` exposes
//! neither call and the build deliberately carries no FFI crate, so the
//! tiny slice of the kernel ABI needed — `iovec`, `sockaddr_in`,
//! `msghdr`, `mmsghdr` for 64-bit Linux — is declared here by hand and
//! compiled in only on that target.
//!
//! `recvmmsg` is invoked with `MSG_WAITFORONE`: it honors the socket's
//! `SO_RCVTIMEO` while waiting for the first datagram (returning
//! `WouldBlock` on expiry, exactly like `recv_from`), then drains
//! whatever else is already queued without blocking again — so the
//! protocol pump keeps its tick cadence while paying one syscall per
//! burst instead of one per packet.

use std::io;
use std::net::{SocketAddr, UdpSocket};

/// One datagram staged for transmission.
#[derive(Debug)]
pub(crate) struct OutDatagram {
    pub addr: SocketAddr,
    pub buf: Vec<u8>,
}

/// Largest number of datagrams per `sendmmsg`/`recvmmsg` invocation.
const MAX_SYSCALL_BATCH: usize = 64;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod linux {
    use std::io;
    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
    use std::os::unix::io::AsRawFd;

    use super::{OutDatagram, MAX_SYSCALL_BATCH};

    const AF_INET: u16 = 2;
    const MSG_WAITFORONE: i32 = 0x10000;
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn {
        family: u16,
        /// Network byte order.
        port: u16,
        /// Network byte order (first octet in the lowest-addressed byte).
        addr: [u8; 4],
        zero: [u8; 8],
    }

    /// 64-bit Linux `struct msghdr`; `repr(C)` inserts the same padding
    /// after `namelen` and `flags` the kernel ABI has (56 bytes total).
    #[repr(C)]
    struct MsgHdr {
        name: *mut SockAddrIn,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    extern "C" {
        fn sendmmsg(fd: i32, vec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(fd: i32, vec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const u8, len: u32) -> i32;
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 1;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// `poll(2)` for readability: unlike `SO_RCVTIMEO`, which the kernel
    /// rounds to whole scheduler ticks, its timeout runs on a
    /// high-resolution timer. Errors report readable, leaving the
    /// decision to the receive call.
    pub(super) fn wait_readable(socket: &UdpSocket, timeout: std::time::Duration) -> bool {
        let ms = i32::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(i32::MAX);
        let mut fd = PollFd {
            fd: socket.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        // SAFETY: one valid pollfd for the duration of the call.
        let n = unsafe { poll(&mut fd, 1, ms) };
        n != 0
    }

    fn sockaddr_of(addr: &SocketAddrV4) -> SockAddrIn {
        SockAddrIn {
            family: AF_INET,
            port: addr.port().to_be(),
            addr: addr.ip().octets(),
            zero: [0; 8],
        }
    }

    pub(super) fn send_burst(
        socket: &UdpSocket,
        grams: &[OutDatagram],
        note_batch: &mut dyn FnMut(usize),
    ) {
        if grams.len() < 2 || !grams.iter().all(|g| matches!(g.addr, SocketAddr::V4(_))) {
            super::send_burst_fallback(socket, grams, note_batch);
            return;
        }
        let fd = socket.as_raw_fd();
        let mut i = 0;
        while i < grams.len() {
            let chunk = &grams[i..(i + MAX_SYSCALL_BATCH).min(grams.len())];
            let mut addrs: Vec<SockAddrIn> = chunk
                .iter()
                .map(|g| match g.addr {
                    SocketAddr::V4(v4) => sockaddr_of(&v4),
                    SocketAddr::V6(_) => unreachable!("checked above"),
                })
                .collect();
            let mut iovs: Vec<IoVec> = chunk
                .iter()
                .map(|g| IoVec {
                    base: g.buf.as_ptr().cast_mut(),
                    len: g.buf.len(),
                })
                .collect();
            let mut hdrs: Vec<MMsgHdr> = (0..chunk.len())
                .map(|k| MMsgHdr {
                    hdr: MsgHdr {
                        name: &mut addrs[k],
                        namelen: std::mem::size_of::<SockAddrIn>() as u32,
                        iov: &mut iovs[k],
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                })
                .collect();
            let sent = unsafe { sendmmsg(fd, hdrs.as_mut_ptr(), chunk.len() as u32, 0) };
            if sent <= 0 {
                // Per-chunk degradation: emit these one by one and move on.
                super::send_burst_fallback(socket, chunk, note_batch);
                i += chunk.len();
            } else {
                note_batch(sent as usize);
                i += sent as usize;
            }
        }
    }

    pub(super) fn recv_burst(
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(usize, SocketAddr)>,
    ) -> io::Result<()> {
        if bufs.len() < 2 {
            return super::recv_burst_fallback(socket, bufs, out);
        }
        let fd = socket.as_raw_fd();
        let n = bufs.len().min(MAX_SYSCALL_BATCH);
        let mut addrs = vec![
            SockAddrIn {
                family: 0,
                port: 0,
                addr: [0; 4],
                zero: [0; 8],
            };
            n
        ];
        let mut iovs: Vec<IoVec> = bufs[..n]
            .iter_mut()
            .map(|b| IoVec {
                base: b.as_mut_ptr(),
                len: b.len(),
            })
            .collect();
        let mut hdrs: Vec<MMsgHdr> = (0..n)
            .map(|k| MMsgHdr {
                hdr: MsgHdr {
                    name: &mut addrs[k],
                    namelen: std::mem::size_of::<SockAddrIn>() as u32,
                    iov: &mut iovs[k],
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            })
            .collect();
        let got = unsafe {
            recvmmsg(
                fd,
                hdrs.as_mut_ptr(),
                n as u32,
                MSG_WAITFORONE,
                std::ptr::null_mut(),
            )
        };
        if got < 0 {
            return Err(io::Error::last_os_error());
        }
        for k in 0..got as usize {
            let from = if hdrs[k].hdr.namelen as usize >= std::mem::size_of::<SockAddrIn>()
                && addrs[k].family == AF_INET
            {
                SocketAddr::V4(SocketAddrV4::new(
                    Ipv4Addr::from(addrs[k].addr),
                    u16::from_be(addrs[k].port),
                ))
            } else {
                // Unrecognized source family: surface a zero-length
                // datagram so the protocol layer discards it.
                out.push((
                    0,
                    SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0)),
                ));
                continue;
            };
            out.push((hdrs[k].len as usize, from));
        }
        Ok(())
    }

    pub(super) fn enlarge_buffers(socket: &UdpSocket, bytes: usize) {
        let fd = socket.as_raw_fd();
        let val = i32::try_from(bytes).unwrap_or(i32::MAX);
        let ptr = (&val as *const i32).cast::<u8>();
        // Best effort: the kernel clamps to rmem_max/wmem_max silently,
        // and the protocol's in-flight budget is sized to survive the
        // default clamp anyway.
        unsafe {
            let _ = setsockopt(fd, SOL_SOCKET, SO_RCVBUF, ptr, 4);
            let _ = setsockopt(fd, SOL_SOCKET, SO_SNDBUF, ptr, 4);
        }
    }
}

/// Emits every datagram with one `send_to` syscall each.
fn send_burst_fallback(
    socket: &UdpSocket,
    grams: &[OutDatagram],
    note_batch: &mut dyn FnMut(usize),
) {
    for g in grams {
        let _ = socket.send_to(&g.buf, g.addr);
        note_batch(1);
    }
}

/// Receives at most one datagram, honoring the socket read timeout.
fn recv_burst_fallback(
    socket: &UdpSocket,
    bufs: &mut [Vec<u8>],
    out: &mut Vec<(usize, SocketAddr)>,
) -> io::Result<()> {
    let Some(buf) = bufs.first_mut() else {
        return Ok(());
    };
    let (n, from) = socket.recv_from(buf)?;
    out.push((n, from));
    Ok(())
}

/// Transmits a burst of datagrams, batching syscalls where the platform
/// allows. `note_batch` is invoked once per syscall with the number of
/// datagrams it carried (the transmit packing factor).
pub(crate) fn send_burst(
    socket: &UdpSocket,
    grams: &[OutDatagram],
    note_batch: &mut dyn FnMut(usize),
) {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        linux::send_burst(socket, grams, note_batch);
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        send_burst_fallback(socket, grams, note_batch);
    }
}

/// Receives a burst of datagrams into `bufs`, blocking only for the
/// first (subject to the socket's read timeout). On success, `out[k]` is
/// the length and source of the datagram in `bufs[k]`. Timeout surfaces
/// as the same `WouldBlock`/`TimedOut` errors `recv_from` produces.
pub(crate) fn recv_burst(
    socket: &UdpSocket,
    bufs: &mut [Vec<u8>],
    out: &mut Vec<(usize, SocketAddr)>,
) -> io::Result<()> {
    out.clear();
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        linux::recv_burst(socket, bufs, out)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        recv_burst_fallback(socket, bufs, out)
    }
}

/// Waits up to `timeout` (rounded up to whole milliseconds, never early)
/// for the socket to turn readable; `false` means the time ran out.
/// Where the platform offers no precise wait, reports readable at once
/// and leaves waiting to the socket read timeout.
pub(crate) fn wait_readable(socket: &UdpSocket, timeout: std::time::Duration) -> bool {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        linux::wait_readable(socket, timeout)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        let _ = (socket, timeout);
        true
    }
}

/// Best-effort enlargement of the socket's kernel send/receive buffers.
pub(crate) fn enlarge_buffers(socket: &UdpSocket, bytes: usize) {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        linux::enlarge_buffers(socket, bytes);
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        let _ = (socket, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn burst_round_trip_over_loopback() {
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let dst = rx.local_addr().unwrap();
        let grams: Vec<OutDatagram> = (0..5u8)
            .map(|i| OutDatagram {
                addr: dst,
                buf: vec![i; 64 + usize::from(i)],
            })
            .collect();
        let mut batches = Vec::new();
        send_burst(&tx, &grams, &mut |n| batches.push(n));
        assert_eq!(batches.iter().sum::<usize>(), 5, "all datagrams sent");

        let mut bufs: Vec<Vec<u8>> = (0..8).map(|_| vec![0u8; 256]).collect();
        let mut got: Vec<(usize, SocketAddr)> = Vec::new();
        let mut seen = 0;
        let from = tx.local_addr().unwrap();
        while seen < 5 {
            recv_burst(&rx, &mut bufs, &mut got).unwrap();
            assert!(!got.is_empty(), "timed out before all datagrams arrived");
            for (k, &(len, addr)) in got.iter().enumerate() {
                assert_eq!(addr, from);
                assert_eq!(len, 64 + bufs[k][0] as usize);
                assert!(bufs[k][..len].iter().all(|&b| b == bufs[k][0]));
                seen += 1;
            }
        }
    }

    #[test]
    fn recv_burst_times_out_like_recv_from() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        let mut bufs: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 64]).collect();
        let mut got = Vec::new();
        let err = recv_burst(&rx, &mut bufs, &mut got).unwrap_err();
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
    fn enlarge_buffers_is_harmless() {
        let s = UdpSocket::bind("127.0.0.1:0").unwrap();
        enlarge_buffers(&s, 1 << 20);
        // Socket still works afterwards.
        s.send_to(b"x", s.local_addr().unwrap()).unwrap();
    }
}
