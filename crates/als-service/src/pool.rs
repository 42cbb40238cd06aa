//! Reusable frame buffers for the batched data plane.
//!
//! Serving without a pool allocates one fresh `Vec<u8>` per frame in
//! each direction — one for the received datagram, one for the encoded
//! reply. At hundreds of thousands of frames per second that churn is
//! what the PR 6 counting allocator surfaces as the dominant steady-state
//! cost of the transport layer. A [`FramePool`] breaks the cycle: a
//! bounded free list of buffers, handed out as [`PooledFrame`] guards
//! that return their buffer to the pool on drop.
//!
//! Two usage patterns share the one type:
//!
//! * **Receive buffers** are sized up-front ([`FramePool::with_frame_bytes`])
//!   so `recvmmsg` can scatter straight into them; the buffer's `Vec`
//!   length stays pinned at the frame bound and only the logical
//!   `PooledFrame::len` changes per datagram — reuse never pays a
//!   `resize` memset.
//! * **Encode buffers** start empty (`FramePool::new`) and are filled
//!   through `PooledFrame::fill_with`, which exposes the inner `Vec`
//!   the wire encoder appends to; capacity sticks to the buffer across
//!   round-trips to the pool.
//!
//! The pool is a plain `Mutex<Vec<_>>`: a serve loop owns its pools, so
//! the lock is effectively uncontended, and a bounded free list means a
//! burst can overshoot (extra buffers are allocated and later dropped)
//! without the pool growing forever.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters of one [`FramePool`]'s lifetime — how often a buffer was
/// reused versus freshly allocated, the observable the batching work is
/// judged by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PoolStats {
    /// `get` calls served from the free list (no allocation).
    pub(crate) hits: u64,
    /// `get` calls that had to allocate a fresh buffer.
    pub(crate) misses: u64,
}

/// A bounded free list of frame buffers. Cheap to share (`Arc`); see the
/// module docs for the receive-vs-encode usage split.
pub struct FramePool {
    free: Mutex<Vec<Vec<u8>>>,
    max_pooled: usize,
    frame_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for FramePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramePool")
            .field("max_pooled", &self.max_pooled)
            .field("frame_bytes", &self.frame_bytes)
            .finish_non_exhaustive()
    }
}

impl FramePool {
    /// A pool of encode-style buffers: fresh buffers start empty and
    /// grow to whatever the encoder needs, keeping that capacity across
    /// reuse. At most `max_pooled` buffers are retained on the free
    /// list; returns beyond that are dropped.
    #[must_use]
    pub(crate) fn new(max_pooled: usize) -> Arc<FramePool> {
        FramePool::with_frame_bytes(max_pooled, 0)
    }

    /// A pool of receive-style buffers: fresh buffers come zero-filled
    /// at `frame_bytes` length, so `PooledFrame::recv_space` is a
    /// no-op slice borrow on every reuse.
    #[must_use]
    pub fn with_frame_bytes(max_pooled: usize, frame_bytes: usize) -> Arc<FramePool> {
        Arc::new(FramePool {
            free: Mutex::new(Vec::new()),
            max_pooled: max_pooled.max(1),
            frame_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Takes a buffer from the pool (or allocates one), wrapped in a
    /// guard that returns it on drop. The logical frame length starts
    /// at 0 regardless of the buffer's underlying size.
    #[must_use]
    pub fn get(self: &Arc<Self>) -> PooledFrame {
        let reused = self.free.lock().expect("frame pool poisoned").pop();
        let buf = match reused {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                vec![0; self.frame_bytes]
            }
        };
        PooledFrame {
            pool: self.clone(),
            buf: Some(buf),
            len: 0,
        }
    }

    /// Wraps an existing buffer so it joins the pool when dropped — the
    /// zero-copy path for transports that already produced a `Vec` (the
    /// portable `recv_from` fallback). Counts as neither hit nor miss.
    /// The frame's logical length is the buffer's full length.
    #[must_use]
    pub(crate) fn adopt(self: &Arc<Self>, buf: Vec<u8>) -> PooledFrame {
        let len = buf.len();
        PooledFrame {
            pool: self.clone(),
            buf: Some(buf),
            len,
        }
    }

    /// Lifetime reuse counters.
    #[must_use]
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Buffers currently resting on the free list.
    #[must_use]
    pub(crate) fn idle(&self) -> usize {
        self.free.lock().expect("frame pool poisoned").len()
    }

    fn put(&self, buf: Vec<u8>) {
        let mut free = self.free.lock().expect("frame pool poisoned");
        if free.len() < self.max_pooled {
            free.push(buf);
        }
    }
}

/// A frame buffer on loan from a [`FramePool`]. Dereferences to the
/// logical frame bytes (`buf[..len]`); the underlying buffer may be
/// larger (a receive buffer stays at the transport's frame bound). The
/// buffer returns to its pool when the guard drops.
pub struct PooledFrame {
    pool: Arc<FramePool>,
    buf: Option<Vec<u8>>,
    len: usize,
}

impl std::fmt::Debug for PooledFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledFrame")
            .field("len", &self.len)
            .finish()
    }
}

impl PooledFrame {
    fn buf(&self) -> &Vec<u8> {
        self.buf.as_ref().expect("buffer present until drop")
    }

    fn buf_mut(&mut self) -> &mut Vec<u8> {
        self.buf.as_mut().expect("buffer present until drop")
    }

    /// The logical frame bytes.
    #[must_use]
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf()[..self.len]
    }

    /// Logical frame length (bytes the producer declared meaningful).
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// A writable scratch slice of at least `bytes` bytes for a receive
    /// syscall to scatter into. Grows the buffer if a smaller (encode)
    /// buffer strayed into a receive path; on a receive-sized pool this
    /// never reallocates.
    pub(crate) fn recv_space(&mut self, bytes: usize) -> &mut [u8] {
        let buf = self.buf_mut();
        if buf.len() < bytes {
            buf.resize(bytes, 0);
        }
        &mut buf[..bytes]
    }

    /// Declares how many bytes of [`PooledFrame::recv_space`] a receive
    /// actually filled.
    ///
    /// # Panics
    ///
    /// If `len` exceeds the underlying buffer.
    pub(crate) fn set_len(&mut self, len: usize) {
        assert!(len <= self.buf().len(), "frame length beyond buffer");
        self.len = len;
    }

    /// Clears the buffer, lets `fill` append the frame bytes (the shape
    /// [`agr_core::wire::encode_packet_into`] expects), and adopts the
    /// resulting length as the logical frame.
    pub(crate) fn fill_with<R>(&mut self, fill: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let buf = self.buf_mut();
        buf.clear();
        let result = fill(buf);
        self.len = self.buf().len();
        result
    }
}

impl std::ops::Deref for PooledFrame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PooledFrame {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Drop for PooledFrame {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.put(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_get_misses_then_reuse_hits() {
        let pool = FramePool::new(4);
        {
            let mut frame = pool.get();
            frame.fill_with(|buf| buf.extend_from_slice(b"hello"));
            assert_eq!(&*frame, b"hello");
        }
        assert_eq!(pool.idle(), 1);
        {
            let frame = pool.get();
            assert_eq!(frame.len(), 0, "logical length resets on reuse");
        }
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = FramePool::new(2);
        let frames: Vec<_> = (0..5).map(|_| pool.get()).collect();
        drop(frames);
        assert_eq!(pool.idle(), 2, "returns beyond the bound are dropped");
        assert_eq!(pool.stats().misses, 5);
    }

    #[test]
    fn recv_sized_pool_never_reallocates_on_reuse() {
        let pool = FramePool::with_frame_bytes(2, 64);
        for round in 0..3u8 {
            let mut frame = pool.get();
            let space = frame.recv_space(64);
            assert_eq!(space.len(), 64);
            space[0] = round;
            frame.set_len(1);
            assert_eq!(&*frame, &[round]);
        }
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn adopt_returns_foreign_buffers_to_the_pool() {
        let pool = FramePool::new(4);
        {
            let frame = pool.adopt(vec![1, 2, 3]);
            assert_eq!(&*frame, &[1, 2, 3]);
        }
        assert_eq!(pool.idle(), 1);
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    #[should_panic(expected = "frame length beyond buffer")]
    fn set_len_beyond_buffer_panics() {
        let pool = FramePool::new(1);
        let mut frame = pool.get();
        frame.set_len(1);
    }
}
