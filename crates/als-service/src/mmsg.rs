//! `recvmmsg`/`sendmmsg` — many datagrams per syscall (Linux only).
//!
//! This is the one module in the crate allowed to use `unsafe`: a pair
//! of hand-declared `extern "C"` bindings to glibc's multi-message
//! syscall wrappers, plus the `repr(C)` structs they scatter through
//! (`iovec`, `msghdr`, `mmsghdr`, and just enough of the sockaddr
//! family to carry IPv4/IPv6 peers). Everything above this module —
//! the [`crate::transport`] batch methods — sees only safe slices and
//! [`std::net::SocketAddr`]s.
//!
//! Blocking model: the sockets these run on keep their `SO_RCVTIMEO`
//! read timeout (the serve loop's stop-poll cadence). A *blocking*
//! batch receive passes `MSG_WAITFORONE`, so the kernel honors that
//! timeout waiting for the first datagram and then drains whatever else
//! is already queued without waiting again; a *non-blocking* receive
//! passes `MSG_DONTWAIT` and reports `WouldBlock` immediately when the
//! queue is empty. Sends loop until every datagram is handed to the
//! kernel (a short `sendmmsg` return just continues from the cut).

use std::io;
use std::net::{SocketAddr, SocketAddrV4, SocketAddrV6, UdpSocket};
use std::os::fd::AsRawFd;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const MSG_DONTWAIT: i32 = 0x40;
const MSG_WAITFORONE: i32 = 0x0001_0000;

#[repr(C)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

#[repr(C)]
struct MsgHdr {
    name: *mut SockAddrStorage,
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

/// Big enough and aligned enough for any `sockaddr_*` the kernel writes
/// (mirrors `sockaddr_storage`: 128 bytes, 8-byte aligned).
#[repr(C, align(8))]
#[derive(Clone, Copy)]
struct SockAddrStorage {
    data: [u8; 128],
}

impl SockAddrStorage {
    const fn zeroed() -> SockAddrStorage {
        SockAddrStorage { data: [0; 128] }
    }

    /// Encodes `addr` as `sockaddr_in` / `sockaddr_in6`; returns the
    /// populated byte length for `msg_namelen`.
    fn encode(&mut self, addr: SocketAddr) -> u32 {
        self.data = [0; 128];
        match addr {
            SocketAddr::V4(v4) => {
                self.data[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                self.data[2..4].copy_from_slice(&v4.port().to_be_bytes());
                self.data[4..8].copy_from_slice(&v4.ip().octets());
                16
            }
            SocketAddr::V6(v6) => {
                self.data[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                self.data[2..4].copy_from_slice(&v6.port().to_be_bytes());
                self.data[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
                self.data[8..24].copy_from_slice(&v6.ip().octets());
                self.data[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                28
            }
        }
    }

    /// Decodes the peer the kernel wrote into this storage.
    fn decode(&self) -> io::Result<SocketAddr> {
        let family = u16::from_ne_bytes([self.data[0], self.data[1]]);
        match family {
            AF_INET => {
                let port = u16::from_be_bytes([self.data[2], self.data[3]]);
                let octets: [u8; 4] = self.data[4..8].try_into().expect("fixed slice");
                Ok(SocketAddr::V4(SocketAddrV4::new(octets.into(), port)))
            }
            AF_INET6 => {
                let port = u16::from_be_bytes([self.data[2], self.data[3]]);
                let flowinfo = u32::from_be_bytes(self.data[4..8].try_into().expect("fixed slice"));
                let octets: [u8; 16] = self.data[8..24].try_into().expect("fixed slice");
                let scope = u32::from_ne_bytes(self.data[24..28].try_into().expect("fixed slice"));
                Ok(SocketAddr::V6(SocketAddrV6::new(
                    octets.into(),
                    port,
                    flowinfo,
                    scope,
                )))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected peer address family {other}"),
            )),
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn recvmmsg(
        sockfd: i32,
        msgvec: *mut MMsgHdr,
        vlen: u32,
        flags: i32,
        timeout: *mut Timespec,
    ) -> i32;
    fn sendmmsg(sockfd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
}

/// Reusable header/address arrays for multi-message syscalls, owned by
/// one socket wrapper so batch calls allocate nothing in steady state.
pub(crate) struct BatchScratch {
    iovecs: Vec<IoVec>,
    hdrs: Vec<MMsgHdr>,
    addrs: Vec<SockAddrStorage>,
}

// The raw pointers inside the scratch arrays only ever point into
// buffers borrowed for the duration of one call; between calls they are
// dangling-but-unread. Sending the scratch to another thread is safe.
unsafe impl Send for BatchScratch {}

impl BatchScratch {
    pub(crate) fn new() -> BatchScratch {
        BatchScratch {
            iovecs: Vec::new(),
            hdrs: Vec::new(),
            addrs: Vec::new(),
        }
    }

    /// Points the scratch arrays at `bufs` (receive) and returns how
    /// many there are — `with_addrs` additionally wires a per-message
    /// address slot for `recvmmsg` to fill with the sender. The address
    /// slots are only grown, never cleared: the kernel writes every byte
    /// `decode` reads for the family it reports.
    fn arm_recv<'a>(
        &mut self,
        bufs: impl IntoIterator<Item = &'a mut [u8]>,
        with_addrs: bool,
    ) -> usize {
        self.iovecs.clear();
        self.hdrs.clear();
        for buf in bufs {
            self.iovecs.push(IoVec {
                base: buf.as_mut_ptr(),
                len: buf.len(),
            });
        }
        let n = self.iovecs.len();
        if with_addrs && self.addrs.len() < n {
            self.addrs.resize(n, SockAddrStorage::zeroed());
        }
        // Pointers are taken only after every push and resize above: the
        // arrays no longer reallocate, so the addresses stay valid
        // through the syscall.
        for i in 0..n {
            let (name, namelen) = if with_addrs {
                (
                    std::ptr::addr_of_mut!(self.addrs[i]),
                    u32::try_from(std::mem::size_of::<SockAddrStorage>()).expect("fits"),
                )
            } else {
                (std::ptr::null_mut(), 0)
            };
            self.hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    name,
                    namelen,
                    iov: std::ptr::addr_of_mut!(self.iovecs[i]),
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
        n
    }

    /// Receives up to one datagram into each buffer `bufs` yields, in
    /// order, and returns how many arrived; [`BatchScratch::received_len`]
    /// and (with `with_addrs`) [`BatchScratch::received_from`] then read
    /// back each one. `block` waits (up to the socket's read timeout) for
    /// the first datagram; otherwise an empty queue is an immediate
    /// `WouldBlock`.
    pub(crate) fn recv_batch<'a>(
        &mut self,
        socket: &UdpSocket,
        bufs: impl IntoIterator<Item = &'a mut [u8]>,
        block: bool,
        with_addrs: bool,
    ) -> io::Result<usize> {
        let n = self.arm_recv(bufs, with_addrs);
        if n == 0 {
            return Ok(0);
        }
        let flags = if block { MSG_WAITFORONE } else { MSG_DONTWAIT };
        // SAFETY: every header points at a buffer of the declared length
        // (or an address slot of this scratch), armed just above. The
        // buffers stay exclusively borrowed for `'a`, which outlives this
        // call, and vlen equals the header count.
        let got = unsafe {
            recvmmsg(
                socket.as_raw_fd(),
                self.hdrs.as_mut_ptr(),
                u32::try_from(n).expect("batch fits u32"),
                flags,
                std::ptr::null_mut(),
            )
        };
        if got < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(got.unsigned_abs() as usize)
    }

    /// Filled length of datagram `i` of the last receive.
    pub(crate) fn received_len(&self, i: usize) -> usize {
        self.hdrs[i].len as usize
    }

    /// Sender of datagram `i` of the last `with_addrs` receive.
    pub(crate) fn received_from(&self, i: usize) -> io::Result<SocketAddr> {
        self.addrs[i].decode()
    }

    /// Points the scratch arrays at `n` outbound frames; `frame(i)`
    /// yields each datagram's bytes and (for unconnected sockets) its
    /// destination.
    fn arm_send<'a>(
        &mut self,
        n: usize,
        mut frame: impl FnMut(usize) -> (&'a [u8], Option<SocketAddr>),
    ) {
        self.iovecs.clear();
        self.hdrs.clear();
        self.addrs.clear();
        self.addrs.resize(n, SockAddrStorage::zeroed());
        let mut namelens = Vec::with_capacity(n);
        for i in 0..n {
            let (bytes, dest) = frame(i);
            self.iovecs.push(IoVec {
                // Sends never write through the pointer; the cast only
                // satisfies the shared iovec struct.
                base: bytes.as_ptr().cast_mut(),
                len: bytes.len(),
            });
            namelens.push(dest.map_or(0, |addr| self.addrs[i].encode(addr)));
        }
        for (i, &namelen) in namelens.iter().enumerate() {
            let name = if namelen == 0 {
                std::ptr::null_mut()
            } else {
                std::ptr::addr_of_mut!(self.addrs[i])
            };
            self.hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    name,
                    namelen,
                    iov: std::ptr::addr_of_mut!(self.iovecs[i]),
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
    }

    /// Sends all `n` frames, looping over short `sendmmsg` returns until
    /// every datagram is queued (the sockets here are blocking, so a
    /// full send buffer stalls inside the syscall, not in a spin).
    /// Returns how many frames went out; an error is reported only when
    /// *nothing* was sent — a mid-batch failure surfaces as `Ok(sent)`
    /// with `sent < n`, letting the caller count the remainder.
    pub(crate) fn send_batch<'a>(
        &mut self,
        socket: &UdpSocket,
        n: usize,
        frame: impl FnMut(usize) -> (&'a [u8], Option<SocketAddr>),
    ) -> io::Result<usize> {
        if n == 0 {
            return Ok(0);
        }
        self.arm_send(n, frame);
        let mut sent = 0usize;
        while sent < n {
            // SAFETY: headers `sent..n` point at caller-borrowed frame
            // bytes and this scratch's address slots, all alive through
            // the call.
            let got = unsafe {
                sendmmsg(
                    socket.as_raw_fd(),
                    self.hdrs.as_mut_ptr().add(sent),
                    u32::try_from(n - sent).expect("batch fits u32"),
                    0,
                )
            };
            if got < 0 {
                let err = io::Error::last_os_error();
                return if sent == 0 { Err(err) } else { Ok(sent) };
            }
            if got == 0 {
                return if sent == 0 {
                    Err(io::ErrorKind::WriteZero.into())
                } else {
                    Ok(sent)
                };
            }
            sent += got.unsigned_abs() as usize;
        }
        Ok(sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn bound_pair() -> (UdpSocket, UdpSocket, SocketAddr, SocketAddr) {
        let a = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let b = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        a.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        b.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let aa = a.local_addr().unwrap();
        let ba = b.local_addr().unwrap();
        (a, b, aa, ba)
    }

    #[test]
    fn sockaddr_roundtrips_v4_and_v6() {
        let mut storage = SockAddrStorage::zeroed();
        for addr in [
            "127.0.0.1:8053".parse::<SocketAddr>().unwrap(),
            "[::1]:65001".parse::<SocketAddr>().unwrap(),
        ] {
            storage.encode(addr);
            assert_eq!(storage.decode().unwrap(), addr);
        }
    }

    #[test]
    fn batch_send_then_batch_recv_with_peers() {
        let (a, b, a_addr, b_addr) = bound_pair();
        let frames: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; (i as usize) + 1]).collect();
        let mut scratch = BatchScratch::new();
        scratch
            .send_batch(&a, frames.len(), |i| (frames[i].as_slice(), Some(b_addr)))
            .unwrap();

        let mut storage: Vec<Vec<u8>> = (0..8).map(|_| vec![0u8; 64]).collect();
        let mut received = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while received < frames.len() && std::time::Instant::now() < deadline {
            let bufs = storage[received..].iter_mut().map(Vec::as_mut_slice);
            match scratch.recv_batch(&b, bufs, true, true) {
                Ok(n) => {
                    for i in 0..n {
                        assert_eq!(scratch.received_from(i).unwrap(), a_addr);
                        let len = scratch.received_len(i);
                        assert_eq!(&storage[received + i][..len], frames[received + i]);
                    }
                    received += n;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => panic!("recv_batch: {e}"),
            }
        }
        assert_eq!(received, frames.len());
    }

    #[test]
    fn nonblocking_recv_on_empty_queue_is_wouldblock() {
        let (a, _b, _aa, _ba) = bound_pair();
        let mut scratch = BatchScratch::new();
        let mut buf = vec![0u8; 32];
        let err = scratch
            .recv_batch(&a, [buf.as_mut_slice()], false, true)
            .unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn connected_batch_roundtrip() {
        let (a, b, _aa, b_addr) = bound_pair();
        a.connect(b_addr).unwrap();
        let frames: Vec<&[u8]> = vec![b"alpha", b"be", b"c"];
        let mut scratch = BatchScratch::new();
        scratch
            .send_batch(&a, frames.len(), |i| (frames[i], None))
            .unwrap();
        let mut storage: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 16]).collect();
        let mut received = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while received < frames.len() && std::time::Instant::now() < deadline {
            let bufs = storage[received..].iter_mut().map(Vec::as_mut_slice);
            match scratch.recv_batch(&b, bufs, true, false) {
                Ok(n) => {
                    for i in 0..n {
                        let len = scratch.received_len(i);
                        assert_eq!(&storage[received + i][..len], frames[received + i]);
                    }
                    received += n;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => panic!("recv_batch: {e}"),
            }
        }
        assert_eq!(received, frames.len());
    }
}
