//! Datagram transports carrying wire-encoded service frames.
//!
//! The service speaks [`agr_core::wire`]-encoded [`agr_core::packet::AgfwPacket`]
//! frames over anything implementing the two small traits here: a
//! client-side [`Transport`] (send a frame, wait for a frame) and a
//! server-side [`ServerTransport`] (receive a frame with its return
//! address, answer it). Two implementations ship:
//!
//! * [`loopback_pair`] — in-process bounded queues, for tests and for
//!   the load generator's zero-syscall mode;
//! * [`UdpClient`] / [`UdpServer`] — std-only UDP, so a server and a
//!   client can be separate processes on a real network.
//!
//! Both traits carry **batch** variants alongside the per-frame calls.
//! The batch methods default to per-frame loops, so a transport (or a
//! decorator like `crate::chaos_net::ChaosTransport`) that never
//! overrides them behaves exactly as before; the implementations here
//! override them where a real win exists — the loopback drains its
//! queue under one lock, and on Linux the UDP paths go through
//! `recvmmsg`/`sendmmsg` so a whole batch costs one syscall. Receive
//! batches land in [`PooledFrame`] buffers from a caller-supplied
//! [`FramePool`], so a hot serve loop recycles buffers instead of
//! allocating per datagram; the UDP server keeps its receive frames
//! armed between calls and replaces only the ones it handed out.
//!
//! Receive paths time out (default `RECV_POLL`, configurable per
//! endpoint) instead of blocking forever so serve loops can poll their
//! stop flag; a timeout surfaces as [`std::io::ErrorKind::TimedOut`] /
//! `WouldBlock`, which callers treat as "nothing yet", not as failure.

use crate::pool::{FramePool, PooledFrame};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long receive calls wait before reporting `TimedOut`, so serve
/// loops can notice a stop request. The default; every endpoint
/// constructor has a `_with` variant taking an explicit poll.
pub(crate) const RECV_POLL: Duration = Duration::from_millis(50);

/// Largest frame any transport must carry. ALS pairs are small (sealed
/// indices and records, a few dozen bytes each); 64 KiB leaves room for
/// large batched updates while bounding receive buffers.
pub const MAX_FRAME: usize = 64 * 1024;

/// Client side of a request/response datagram flow.
pub trait Transport {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure; on the loopback, failure
    /// means the server side hung up.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Waits for the next frame, up to the receive-poll granularity.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] / `WouldBlock` when nothing arrived in
    /// time; other kinds are real failures.
    fn recv(&mut self) -> io::Result<Vec<u8>>;

    /// Sends many frames; returns how many were handed to the transport
    /// before the first failure. Defaults to a per-frame loop — batched
    /// implementations amortize the per-frame cost (one `sendmmsg` on
    /// Linux UDP, one lock on the loopback).
    ///
    /// # Errors
    ///
    /// Only when *no* frame went out; a partial send is `Ok(n)` with
    /// `n < frames.len()`.
    fn send_batch(&mut self, frames: &[&[u8]]) -> io::Result<usize> {
        for (i, frame) in frames.iter().enumerate() {
            if let Err(e) = self.send(frame) {
                return if i == 0 { Err(e) } else { Ok(i) };
            }
        }
        Ok(frames.len())
    }

    /// Waits for at least one frame (up to the receive-poll
    /// granularity), then hands up to `max` already-arrived frames to
    /// `on_frame` without waiting again. Defaults to one [`Transport::recv`],
    /// so un-overridden transports keep exact per-frame behavior.
    ///
    /// # Errors
    ///
    /// Same as [`Transport::recv`].
    fn recv_batch_with(
        &mut self,
        max: usize,
        on_frame: &mut dyn FnMut(&[u8]),
    ) -> io::Result<usize> {
        let _ = max;
        let frame = self.recv()?;
        on_frame(&frame);
        Ok(1)
    }
}

/// Server side: frames arrive with a peer handle to answer through.
pub trait ServerTransport {
    /// Return-address type (`()` on the loopback, [`SocketAddr`] on UDP).
    type Peer;

    /// Waits for the next request frame, up to the receive-poll
    /// granularity.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] / `WouldBlock` when nothing arrived in
    /// time; [`io::ErrorKind::UnexpectedEof`] when every client hung up
    /// (loopback only).
    fn recv_from(&mut self) -> io::Result<(Vec<u8>, Self::Peer)>;

    /// Sends a response frame back to `peer`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    fn send_to(&mut self, peer: &Self::Peer, frame: &[u8]) -> io::Result<()>;

    /// Receives up to `max` frames into buffers from `pool`, appending
    /// `(frame, peer)` pairs to `out` and returning how many arrived.
    /// With `block` set, waits for the first frame up to the
    /// receive-poll granularity and then takes whatever else already
    /// arrived without waiting again; without it, an empty queue is an
    /// immediate `WouldBlock`.
    ///
    /// A call returns every frame queued when it returns, up to `max`,
    /// so one that returns fewer than `max` left nothing behind: the
    /// serve loop calls again within a round only after a call that
    /// came back full. Over its life a transport takes from `pool` at
    /// most one buffer per frame it returns, plus the `max` it may keep
    /// armed.
    ///
    /// Defaults to one blocking [`ServerTransport::recv_from`] (and
    /// `WouldBlock` for every non-blocking call), which preserves exact
    /// per-frame behavior for transports that don't override it.
    ///
    /// # Errors
    ///
    /// Same as [`ServerTransport::recv_from`], plus `WouldBlock` on a
    /// non-blocking call with nothing queued.
    fn recv_batch_from(
        &mut self,
        pool: &Arc<FramePool>,
        max: usize,
        block: bool,
        out: &mut Vec<(PooledFrame, Self::Peer)>,
    ) -> io::Result<usize> {
        let _ = max;
        if !block {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let (bytes, peer) = self.recv_from()?;
        out.push((pool.adopt(bytes), peer));
        Ok(1)
    }

    /// Sends one response frame per entry, returning how many were
    /// handed to the transport (a failed frame is skipped, never fatal —
    /// the caller counts `frames.len() - sent` as send errors).
    /// Defaults to a per-frame loop.
    fn send_batch_to(&mut self, frames: &[(Self::Peer, PooledFrame)]) -> usize {
        let mut sent = 0;
        for (peer, frame) in frames {
            if self.send_to(peer, frame).is_ok() {
                sent += 1;
            }
        }
        sent
    }
}

// ---------------------------------------------------------------------
// Loopback
// ---------------------------------------------------------------------

/// One direction of the loopback: a bounded frame queue.
struct Channel {
    queue: Mutex<ChannelState>,
    ready: Condvar,
    space: Condvar,
    capacity: usize,
}

struct ChannelState {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
}

impl Channel {
    fn new(capacity: usize) -> Arc<Channel> {
        Arc::new(Channel {
            queue: Mutex::new(ChannelState {
                frames: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
        })
    }

    /// Blocks while the queue is full — the loopback's backpressure.
    fn push(&self, frame: Vec<u8>) -> io::Result<()> {
        let mut state = self.queue.lock().expect("loopback poisoned");
        while state.frames.len() >= self.capacity {
            if state.closed {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            state = self.space.wait(state).expect("loopback poisoned");
        }
        if state.closed {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        state.frames.push_back(frame);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Pushes every frame under (mostly) one lock, blocking for space as
    /// needed; returns how many landed before the channel closed.
    fn push_batch(&self, frames: impl Iterator<Item = Vec<u8>>) -> usize {
        let mut pushed = 0;
        let mut state = self.queue.lock().expect("loopback poisoned");
        for frame in frames {
            if state.frames.len() >= self.capacity {
                // Wake the reader before sleeping: it may be parked on
                // `ready` from before this batch filled the queue.
                self.ready.notify_all();
                while state.frames.len() >= self.capacity && !state.closed {
                    state = self.space.wait(state).expect("loopback poisoned");
                }
            }
            if state.closed {
                break;
            }
            state.frames.push_back(frame);
            pushed += 1;
        }
        drop(state);
        if pushed > 0 {
            self.ready.notify_all();
        }
        pushed
    }

    fn pop(&self, wait: Duration) -> io::Result<Vec<u8>> {
        let mut state = self.queue.lock().expect("loopback poisoned");
        loop {
            if let Some(frame) = state.frames.pop_front() {
                drop(state);
                self.space.notify_one();
                return Ok(frame);
            }
            if state.closed {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let (next, timeout) = self
                .ready
                .wait_timeout(state, wait)
                .expect("loopback poisoned");
            state = next;
            if timeout.timed_out() && state.frames.is_empty() {
                return Err(io::ErrorKind::TimedOut.into());
            }
        }
    }

    /// Drains up to `max` queued frames under one lock. `wait` bounds
    /// the wait for the *first* frame; `None` means don't wait at all
    /// (`WouldBlock` when empty).
    fn pop_batch(
        &self,
        wait: Option<Duration>,
        max: usize,
        out: &mut Vec<Vec<u8>>,
    ) -> io::Result<usize> {
        let mut state = self.queue.lock().expect("loopback poisoned");
        loop {
            if !state.frames.is_empty() {
                let n = max.max(1).min(state.frames.len());
                out.extend(state.frames.drain(..n));
                drop(state);
                self.space.notify_all();
                return Ok(n);
            }
            if state.closed {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let Some(wait) = wait else {
                return Err(io::ErrorKind::WouldBlock.into());
            };
            let (next, timeout) = self
                .ready
                .wait_timeout(state, wait)
                .expect("loopback poisoned");
            state = next;
            if timeout.timed_out() && state.frames.is_empty() {
                return Err(io::ErrorKind::TimedOut.into());
            }
        }
    }

    fn close(&self) {
        self.queue.lock().expect("loopback poisoned").closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// Client half of an in-process loopback (see [`loopback_pair`]).
pub struct LoopbackClient {
    to_server: Arc<Channel>,
    from_server: Arc<Channel>,
    poll: Duration,
    scratch: Vec<Vec<u8>>,
}

/// Server half of an in-process loopback (see [`loopback_pair`]).
pub struct LoopbackServer {
    from_client: Arc<Channel>,
    to_client: Arc<Channel>,
    poll: Duration,
    scratch: Vec<Vec<u8>>,
}

/// An in-process transport pair over two bounded queues of `depth`
/// frames each, polling at the default `RECV_POLL`. Sending into a
/// full queue blocks; dropping either half closes both directions,
/// waking the other half with an error.
#[must_use]
pub fn loopback_pair(depth: usize) -> (LoopbackClient, LoopbackServer) {
    loopback_pair_with(depth, RECV_POLL)
}

/// [`loopback_pair`] with an explicit receive-poll granularity — how
/// long each receive waits before reporting `TimedOut`.
#[must_use]
pub fn loopback_pair_with(depth: usize, poll: Duration) -> (LoopbackClient, LoopbackServer) {
    let c2s = Channel::new(depth);
    let s2c = Channel::new(depth);
    (
        LoopbackClient {
            to_server: c2s.clone(),
            from_server: s2c.clone(),
            poll,
            scratch: Vec::new(),
        },
        LoopbackServer {
            from_client: c2s,
            to_client: s2c,
            poll,
            scratch: Vec::new(),
        },
    )
}

impl Transport for LoopbackClient {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.to_server.push(frame.to_vec())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.from_server.pop(self.poll)
    }

    fn send_batch(&mut self, frames: &[&[u8]]) -> io::Result<usize> {
        if frames.is_empty() {
            return Ok(0);
        }
        let pushed = self.to_server.push_batch(frames.iter().map(|f| f.to_vec()));
        if pushed == 0 {
            Err(io::ErrorKind::BrokenPipe.into())
        } else {
            Ok(pushed)
        }
    }

    fn recv_batch_with(
        &mut self,
        max: usize,
        on_frame: &mut dyn FnMut(&[u8]),
    ) -> io::Result<usize> {
        self.scratch.clear();
        let got = self
            .from_server
            .pop_batch(Some(self.poll), max, &mut self.scratch)?;
        for frame in &self.scratch {
            on_frame(frame);
        }
        Ok(got)
    }
}

impl Drop for LoopbackClient {
    fn drop(&mut self) {
        self.to_server.close();
        self.from_server.close();
    }
}

impl ServerTransport for LoopbackServer {
    type Peer = ();

    fn recv_from(&mut self) -> io::Result<(Vec<u8>, ())> {
        Ok((self.from_client.pop(self.poll)?, ()))
    }

    fn send_to(&mut self, (): &(), frame: &[u8]) -> io::Result<()> {
        self.to_client.push(frame.to_vec())
    }

    fn recv_batch_from(
        &mut self,
        pool: &Arc<FramePool>,
        max: usize,
        block: bool,
        out: &mut Vec<(PooledFrame, ())>,
    ) -> io::Result<usize> {
        let wait = block.then_some(self.poll);
        self.scratch.clear();
        let got = self.from_client.pop_batch(wait, max, &mut self.scratch)?;
        out.extend(self.scratch.drain(..).map(|f| (pool.adopt(f), ())));
        Ok(got)
    }

    fn send_batch_to(&mut self, frames: &[((), PooledFrame)]) -> usize {
        self.to_client
            .push_batch(frames.iter().map(|((), f)| f.to_vec()))
    }
}

impl Drop for LoopbackServer {
    fn drop(&mut self) {
        self.from_client.close();
        self.to_client.close();
    }
}

// ---------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------

/// A connected UDP client socket.
pub struct UdpClient {
    socket: UdpSocket,
    buf: Vec<u8>,
    #[cfg(target_os = "linux")]
    scratch: crate::mmsg::BatchScratch,
    #[cfg(target_os = "linux")]
    batch_bufs: Vec<Vec<u8>>,
}

impl UdpClient {
    /// Binds an ephemeral local socket and connects it to `server` with
    /// the default `RECV_POLL` receive granularity.
    ///
    /// # Errors
    ///
    /// Bind/connect failures.
    pub fn connect<A: ToSocketAddrs>(server: A) -> io::Result<UdpClient> {
        UdpClient::connect_with(server, RECV_POLL)
    }

    /// Binds an ephemeral local socket connected to `server`, with an
    /// explicit receive-poll granularity — how long each [`Transport::recv`]
    /// waits before reporting `TimedOut`. The replicated client sets it
    /// shorter than the serve-loop default, so chaos reordering flushes
    /// held-back frames promptly.
    ///
    /// # Errors
    ///
    /// Bind/connect failures.
    pub fn connect_with<A: ToSocketAddrs>(server: A, poll: Duration) -> io::Result<UdpClient> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.connect(server)?;
        socket.set_read_timeout(Some(poll.max(Duration::from_micros(100))))?;
        Ok(UdpClient {
            socket,
            buf: vec![0; MAX_FRAME],
            #[cfg(target_os = "linux")]
            scratch: crate::mmsg::BatchScratch::new(),
            #[cfg(target_os = "linux")]
            batch_bufs: Vec::new(),
        })
    }
}

impl Transport for UdpClient {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.socket.send(frame).map(|_| ())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let n = self.socket.recv(&mut self.buf)?;
        Ok(self.buf[..n].to_vec())
    }

    #[cfg(target_os = "linux")]
    fn send_batch(&mut self, frames: &[&[u8]]) -> io::Result<usize> {
        self.scratch
            .send_batch(&self.socket, frames.len(), |i| (frames[i], None))
    }

    #[cfg(target_os = "linux")]
    fn recv_batch_with(
        &mut self,
        max: usize,
        on_frame: &mut dyn FnMut(&[u8]),
    ) -> io::Result<usize> {
        let max = max.max(1);
        while self.batch_bufs.len() < max {
            self.batch_bufs.push(vec![0; MAX_FRAME]);
        }
        let bufs = self.batch_bufs[..max].iter_mut().map(Vec::as_mut_slice);
        let got = self.scratch.recv_batch(&self.socket, bufs, true, false)?;
        for (i, buf) in self.batch_bufs[..got].iter().enumerate() {
            on_frame(&buf[..self.scratch.received_len(i)]);
        }
        Ok(got)
    }
}

/// A UDP server socket answering datagrams from any peer.
pub struct UdpServer {
    socket: UdpSocket,
    buf: Vec<u8>,
    #[cfg(target_os = "linux")]
    scratch: crate::mmsg::BatchScratch,
    /// Receive frames kept between batch calls; a call tops them up
    /// only for the frames the previous one handed out.
    #[cfg(target_os = "linux")]
    armed: Vec<PooledFrame>,
}

impl UdpServer {
    /// Binds `addr` (use port 0 for an OS-assigned port, then
    /// [`UdpServer::local_addr`]) with the default `RECV_POLL`
    /// stop-polling granularity.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<UdpServer> {
        UdpServer::bind_with(addr, RECV_POLL)
    }

    /// Binds `addr` with an explicit receive-poll granularity — the
    /// cadence at which an idle serve loop re-checks its stop flag.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn bind_with<A: ToSocketAddrs>(addr: A, poll: Duration) -> io::Result<UdpServer> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_read_timeout(Some(poll.max(Duration::from_micros(100))))?;
        Ok(UdpServer {
            socket,
            buf: vec![0; MAX_FRAME],
            #[cfg(target_os = "linux")]
            scratch: crate::mmsg::BatchScratch::new(),
            #[cfg(target_os = "linux")]
            armed: Vec::new(),
        })
    }

    /// The bound address — what clients connect to.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }
}

impl ServerTransport for UdpServer {
    type Peer = SocketAddr;

    fn recv_from(&mut self) -> io::Result<(Vec<u8>, SocketAddr)> {
        let (n, peer) = self.socket.recv_from(&mut self.buf)?;
        Ok((self.buf[..n].to_vec(), peer))
    }

    fn send_to(&mut self, peer: &SocketAddr, frame: &[u8]) -> io::Result<()> {
        self.socket.send_to(frame, peer).map(|_| ())
    }

    #[cfg(target_os = "linux")]
    fn recv_batch_from(
        &mut self,
        pool: &Arc<FramePool>,
        max: usize,
        block: bool,
        out: &mut Vec<(PooledFrame, SocketAddr)>,
    ) -> io::Result<usize> {
        let max = max.max(1);
        while self.armed.len() < max {
            self.armed.push(pool.get());
        }
        // `armed` is a stack, top first: the next datagram lands in the
        // frame most recently taken from the pool, i.e. the one the
        // previous round returned, so a quiet server keeps touching the
        // same few buffers instead of cycling through all of them.
        let top = self.armed.len() - max;
        let bufs = self.armed[top..]
            .iter_mut()
            .rev()
            .map(|f| f.recv_space(MAX_FRAME));
        let got = self.scratch.recv_batch(&self.socket, bufs, block, true)?;
        let rest = self.armed.len() - got;
        for (i, mut frame) in self.armed.drain(rest..).rev().enumerate() {
            frame.set_len(self.scratch.received_len(i));
            out.push((frame, self.scratch.received_from(i)?));
        }
        Ok(got)
    }

    #[cfg(target_os = "linux")]
    fn send_batch_to(&mut self, frames: &[(SocketAddr, PooledFrame)]) -> usize {
        self.scratch
            .send_batch(&self.socket, frames.len(), |i| {
                (frames[i].1.as_slice(), Some(frames[i].0))
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_roundtrips_frames_in_order() {
        let (mut client, mut server) = loopback_pair(8);
        client.send(b"one").unwrap();
        client.send(b"two").unwrap();
        let (a, ()) = server.recv_from().unwrap();
        let (b, ()) = server.recv_from().unwrap();
        assert_eq!((a.as_slice(), b.as_slice()), (&b"one"[..], &b"two"[..]));
        server.send_to(&(), b"ack").unwrap();
        assert_eq!(client.recv().unwrap(), b"ack");
    }

    #[test]
    fn loopback_recv_times_out_when_idle() {
        let (_client, mut server) = loopback_pair(8);
        let err = server.recv_from().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn dropping_the_client_wakes_the_server_with_eof() {
        let (client, mut server) = loopback_pair(8);
        drop(client);
        assert_eq!(
            server.recv_from().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn loopback_send_blocks_until_space_then_succeeds() {
        let (mut client, mut server) = loopback_pair(1);
        client.send(b"fill").unwrap();
        let t = std::thread::spawn(move || {
            client.send(b"blocked").unwrap();
            client
        });
        // Draining one frame must unblock the pending send.
        let (first, ()) = server.recv_from().unwrap();
        assert_eq!(first, b"fill");
        let _client = t.join().unwrap();
        let (second, ()) = server.recv_from().unwrap();
        assert_eq!(second, b"blocked");
    }

    #[test]
    fn loopback_batch_drains_queued_frames_in_one_call() {
        let (mut client, mut server) = loopback_pair(16);
        let frames: Vec<&[u8]> = vec![b"a", b"bb", b"ccc"];
        assert_eq!(client.send_batch(&frames).unwrap(), 3);
        let pool = FramePool::new(8);
        let mut got = Vec::new();
        let n = server.recv_batch_from(&pool, 8, true, &mut got).unwrap();
        assert_eq!(n, 3);
        let bytes: Vec<&[u8]> = got.iter().map(|(f, ())| f.as_slice()).collect();
        assert_eq!(bytes, frames);

        // Nothing left: a non-blocking drain must report WouldBlock
        // immediately instead of waiting out the poll.
        let err = server
            .recv_batch_from(&pool, 8, false, &mut Vec::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);

        // Batch replies come back in order through the client's batch
        // receive.
        let replies: Vec<((), PooledFrame)> = (0..3u8)
            .map(|i| {
                let mut f = pool.get();
                f.fill_with(|b| b.extend_from_slice(&[i + 10]));
                ((), f)
            })
            .collect();
        assert_eq!(server.send_batch_to(&replies), 3);
        let mut seen = Vec::new();
        let n = client
            .recv_batch_with(8, &mut |frame| seen.push(frame.to_vec()))
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(seen, vec![vec![10], vec![11], vec![12]]);
    }

    #[test]
    fn loopback_batch_push_larger_than_capacity_does_not_deadlock() {
        let (mut client, mut server) = loopback_pair(2);
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i]).collect();
        let t = std::thread::spawn(move || {
            let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
            client.send_batch(&refs).unwrap();
            client
        });
        let pool = FramePool::new(16);
        let mut got = Vec::new();
        while got.len() < 10 {
            match server.recv_batch_from(&pool, 16, true, &mut got) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => panic!("recv: {e}"),
            }
        }
        let _client = t.join().unwrap();
        for (i, (frame, ())) in got.iter().enumerate() {
            assert_eq!(frame.as_slice(), &[u8::try_from(i).unwrap()]);
        }
    }

    #[test]
    fn udp_roundtrip_on_localhost() {
        let mut server = UdpServer::bind(("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = UdpClient::connect(addr).unwrap();
        client.send(b"ping").unwrap();
        let (frame, peer) = loop {
            match server.recv_from() {
                Ok(got) => break got,
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("recv failed: {e}"),
            }
        };
        assert_eq!(frame, b"ping");
        server.send_to(&peer, b"pong").unwrap();
        let reply = loop {
            match client.recv() {
                Ok(got) => break got,
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("recv failed: {e}"),
            }
        };
        assert_eq!(reply, b"pong");
    }

    #[test]
    fn udp_batch_roundtrip_on_localhost() {
        let mut server = UdpServer::bind(("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = UdpClient::connect(addr).unwrap();
        let frames: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; (i as usize) + 1]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        assert_eq!(client.send_batch(&refs).unwrap(), frames.len());

        let pool = FramePool::with_frame_bytes(8, MAX_FRAME);
        let mut got = Vec::new();
        recv_until(&mut server, &pool, 8, frames.len(), &mut got);
        // UDP may reorder even on loopback in theory; match as a set of
        // payloads.
        let mut bytes: Vec<Vec<u8>> = got.iter().map(|(f, _)| f.to_vec()).collect();
        bytes.sort();
        let mut want = frames.clone();
        want.sort();
        assert_eq!(bytes, want);

        // Echo everything back in one batch send.
        let replies: Vec<(SocketAddr, PooledFrame)> = got
            .iter()
            .map(|(f, peer)| {
                let mut out = pool.get();
                let data = f.to_vec();
                out.fill_with(|b| b.extend_from_slice(&data));
                (*peer, out)
            })
            .collect();
        assert_eq!(server.send_batch_to(&replies), replies.len());
        let mut seen = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen < frames.len() {
            assert!(std::time::Instant::now() < deadline, "replies lost");
            match client.recv_batch_with(8, &mut |_frame| seen += 1) {
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("recv failed: {e}"),
            }
        }
    }

    /// Blocking batch receives into `out` until it holds `n` frames.
    fn recv_until(
        server: &mut UdpServer,
        pool: &Arc<FramePool>,
        max: usize,
        n: usize,
        out: &mut Vec<(PooledFrame, SocketAddr)>,
    ) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while out.len() < n {
            assert!(std::time::Instant::now() < deadline, "frames lost");
            match server.recv_batch_from(pool, max, true, out) {
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("recv failed: {e}"),
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn udp_batch_receive_takes_pool_frames_only_for_frames_it_returns() {
        let mut server = UdpServer::bind(("127.0.0.1", 0)).unwrap();
        let mut client = UdpClient::connect(server.local_addr().unwrap()).unwrap();
        let pool = FramePool::with_frame_bytes(64, MAX_FRAME);
        let max = 8;
        let taken = |stats: crate::pool::PoolStats| stats.hits + stats.misses;
        let empty_recv = |server: &mut UdpServer| {
            let err = server
                .recv_batch_from(&pool, max, false, &mut Vec::new())
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        };

        // The first call arms at most `max` frames; an empty receive
        // after that takes nothing.
        empty_recv(&mut server);
        assert!(taken(pool.stats()) <= max as u64);
        let armed = pool.stats();
        empty_recv(&mut server);
        assert_eq!(pool.stats(), armed, "an empty receive takes no frame");

        // A k-frame receive, topped up by the next call, takes at most k.
        let first_sent: Vec<&[u8]> = vec![b"one", b"two", b"three"];
        assert_eq!(client.send_batch(&first_sent).unwrap(), 3);
        let mut first = Vec::new();
        recv_until(&mut server, &pool, max, 3, &mut first);
        empty_recv(&mut server);
        assert!(taken(pool.stats()) - taken(armed) <= 3);

        // Frames still in use keep their bytes while later receives land
        // in the re-armed buffers: no buffer backs two live frames.
        let second_sent: Vec<&[u8]> = vec![b"four", b"five"];
        assert_eq!(client.send_batch(&second_sent).unwrap(), 2);
        let mut second = Vec::new();
        recv_until(&mut server, &pool, max, 2, &mut second);
        let bytes = |frames: &[(PooledFrame, SocketAddr)]| {
            let mut got: Vec<Vec<u8>> = frames.iter().map(|(f, _)| f.to_vec()).collect();
            got.sort();
            got
        };
        let sorted = |sent: &[&[u8]]| {
            let mut want: Vec<Vec<u8>> = sent.iter().map(|f| f.to_vec()).collect();
            want.sort();
            want
        };
        assert_eq!(bytes(&first), sorted(&first_sent));
        assert_eq!(bytes(&second), sorted(&second_sent));
        let mut bases: Vec<*const u8> = first
            .iter()
            .chain(&second)
            .map(|(f, _)| f.as_slice().as_ptr())
            .collect();
        bases.sort();
        bases.dedup();
        assert_eq!(bases.len(), 5, "two live frames share a buffer");
    }

    #[test]
    fn configured_poll_is_respected_by_loopback_timeouts() {
        let (_client, mut server) = loopback_pair_with(4, Duration::from_millis(5));
        let start = std::time::Instant::now();
        let err = server.recv_from().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            start.elapsed() < Duration::from_millis(45),
            "5ms poll should time out well before the 50ms default"
        );
    }
}
