//! [`BufferPool`] — a recycling arena for the per-frame allocations of
//! the encode→decode hot path.
//!
//! Every frame the scalar pipeline used to allocate a packed mask, a
//! payload vector, a row-offset table, and a decoded plane, then drop
//! them all. The pool closes that loop: the encoder draws its buffers
//! here, [`crate::FrameHistory`] dismantles evicted frames back into it
//! ([`crate::EncodedFrame::recycle`]), and the decoder recycles retired
//! output planes — after a short warmup the steady state performs zero
//! heap allocations per frame (asserted by the `alloc_discipline`
//! integration test, see TESTING.md).
//!
//! # Contents of recycled buffers
//!
//! Buffers come back from [`BufferPool::get_vec`] / `get_words` empty
//! (`len == 0`): stale contents are only reachable by deliberately
//! resizing without writing. [`BufferPool::get_scratch`] is the one
//! exception — it returns a buffer of the requested length with
//! **unspecified contents** for consumers that overwrite every element
//! (the decoder's output planes). The conformance suite runs the whole
//! differential corpus with a *poisoned* pool ([`BufferPool::poisoned`])
//! that fills buffers with a sentinel byte on every `put`, so any code
//! path that reads a recycled element before writing it diverges from
//! the reference decoders and fails the sweep.
//!
//! Handles are `Clone` + `Send` + `Sync`; clones share one store behind
//! a mutex. Lock hold times are a couple of `Vec` pointer moves — the
//! pool is not a contention point even with encoder and decoder on
//! different threads.

use parking_lot::Mutex;
use std::sync::Arc;

/// Per-kind cap on pooled buffers; beyond this, `put` drops the buffer
/// so a burst cannot pin memory forever.
const MAX_POOLED: usize = 64;

/// Counters describing pool effectiveness; see [`BufferPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out (all `get_*` calls).
    pub gets: u64,
    /// Gets that found the pool empty and had to heap-allocate.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub puts: u64,
    /// Returned buffers dropped because the pool was at capacity.
    pub dropped: u64,
}

#[derive(Debug)]
struct PoolInner {
    bytes: Vec<Vec<u8>>,
    words: Vec<Vec<u32>>,
    /// Uniquely-owned shared payload buffers: recycling the whole
    /// `Arc` keeps the ref-count block alive alongside the vector, so
    /// sealing a payload into [`bytes::Bytes`] allocates nothing.
    shared: Vec<Arc<Vec<u8>>>,
    poison: Option<u8>,
    stats: PoolStats,
}

impl Default for PoolInner {
    fn default() -> Self {
        // Slot vectors are reserved to the cap up front so the `put_*`
        // recycle path never grows them — `push` below MAX_POOLED is a
        // pointer move, keeping the steady state allocation-free
        // (enforced transitively by the RPR008 hot-path-alloc lint).
        PoolInner {
            bytes: Vec::with_capacity(MAX_POOLED),
            words: Vec::with_capacity(MAX_POOLED),
            shared: Vec::with_capacity(MAX_POOLED),
            poison: None,
            stats: PoolStats::default(),
        }
    }
}

/// A shared recycling pool of `Vec<u8>` and `Vec<u32>` buffers.
///
/// See the [module docs](self) for the reuse discipline and the
/// poisoning test mode.
#[derive(Debug, Clone, Default)]
pub struct BufferPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pool that overwrites every byte/word of a returned buffer with
    /// `sentinel` before storing it — the buffer-reuse adversary used
    /// by the conformance corpus to prove no kernel reads stale pool
    /// memory.
    pub fn poisoned(sentinel: u8) -> Self {
        let pool = Self::new();
        pool.inner.lock().poison = Some(sentinel);
        pool
    }

    /// The sentinel this pool poisons with, if any.
    pub fn poison_sentinel(&self) -> Option<u8> {
        self.inner.lock().poison
    }

    /// A recycled (or fresh) byte buffer with `len == 0`; capacity is
    /// whatever the recycled buffer had grown to.
    pub fn get_vec(&self) -> Vec<u8> {
        let mut st = self.inner.lock();
        st.stats.gets += 1;
        match st.bytes.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => {
                st.stats.misses += 1;
                // rpr-check: allow(hot-path-alloc): pool miss, counted in PoolStats::misses; the steady state pops a recycled buffer
                Vec::new()
            }
        }
    }

    /// A byte buffer of exactly `len` zero bytes.
    pub fn get_zeroed(&self, len: usize) -> Vec<u8> {
        let mut v = self.get_vec();
        // rpr-check: allow(hot-path-alloc): regrows only a recycled buffer that last served a smaller request; none per frame on a shared encoder/decoder pool (alloc_discipline, alloc_budget), and a private decoder pool trades its plane's one allocation for this one
        v.resize(len, 0);
        v
    }

    /// A byte buffer of exactly `len` bytes with **unspecified
    /// contents** (stale data, or the sentinel under a poisoned pool).
    /// Only for consumers that write every element before reading it.
    pub fn get_scratch(&self, len: usize) -> Vec<u8> {
        let (recycled, fill) = {
            let mut st = self.inner.lock();
            st.stats.gets += 1;
            let recycled = st.bytes.pop();
            if recycled.is_none() {
                st.stats.misses += 1;
            }
            (recycled, st.poison.unwrap_or(0))
        };
        let mut v = recycled.unwrap_or_default();
        // Deliberately no clear(): the stale prefix stays readable so a
        // missed write is observable (and poisoned in test mode).
        if v.len() > len {
            v.truncate(len);
        } else {
            // rpr-check: allow(hot-path-alloc): a pool miss, or a recycled buffer that last served a smaller request; none per frame on a shared encoder/decoder pool (alloc_discipline, alloc_budget)
            v.resize(len, fill);
        }
        v
    }

    /// Returns a byte buffer to the pool.
    pub fn put_vec(&self, mut v: Vec<u8>) {
        if v.capacity() == 0 {
            return;
        }
        let mut st = self.inner.lock();
        st.stats.puts += 1;
        if st.bytes.len() >= MAX_POOLED {
            st.stats.dropped += 1;
            return;
        }
        if let Some(p) = st.poison {
            // Poison the full capacity, not just the live prefix.
            v.clear();
            // rpr-check: allow(hot-path-alloc): resize to the buffer's own capacity never reallocates
            v.resize(v.capacity(), p);
        }
        // rpr-check: allow(hot-path-alloc): slot vector is pre-reserved to MAX_POOLED and push is guarded by the cap above
        st.bytes.push(v);
    }

    /// A recycled (or fresh) uniquely-owned shared byte buffer with
    /// `len == 0` — fill it through [`Arc::make_mut`] (free on a
    /// unique handle) and seal it with `bytes::Bytes::from_shared`.
    /// Unlike [`BufferPool::get_vec`], recycling one of these keeps
    /// the ref-count block too, so the payload path of
    /// [`crate::EncodedFrame`] is allocation-free at steady state.
    pub fn get_shared(&self) -> Arc<Vec<u8>> {
        let mut st = self.inner.lock();
        st.stats.gets += 1;
        match st.shared.pop() {
            Some(mut arc) => {
                if let Some(v) = Arc::get_mut(&mut arc) {
                    v.clear();
                }
                arc
            }
            None => {
                st.stats.misses += 1;
                // rpr-check: allow(hot-path-alloc): pool miss, counted in PoolStats::misses; the steady state pops a recycled buffer
                Arc::new(Vec::new())
            }
        }
    }

    /// Returns a shared byte buffer to the pool. Buffers with other
    /// live handles cannot be reused and are dropped (counted in
    /// [`PoolStats::dropped`]).
    pub fn put_shared(&self, mut arc: Arc<Vec<u8>>) {
        let mut st = self.inner.lock();
        st.stats.puts += 1;
        let Some(v) = Arc::get_mut(&mut arc) else {
            st.stats.dropped += 1;
            return;
        };
        if v.capacity() == 0 || st.shared.len() >= MAX_POOLED {
            st.stats.dropped += 1;
            return;
        }
        if let Some(p) = st.poison {
            v.clear();
            // rpr-check: allow(hot-path-alloc): resize to the buffer's own capacity never reallocates
            v.resize(v.capacity(), p);
        }
        // rpr-check: allow(hot-path-alloc): slot vector is pre-reserved to MAX_POOLED and push is guarded by the cap above
        st.shared.push(arc);
    }

    /// A recycled (or fresh) `u32` buffer with `len == 0`.
    pub fn get_words(&self) -> Vec<u32> {
        let mut st = self.inner.lock();
        st.stats.gets += 1;
        match st.words.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => {
                st.stats.misses += 1;
                // rpr-check: allow(hot-path-alloc): pool miss, counted in PoolStats::misses; the steady state pops a recycled buffer
                Vec::new()
            }
        }
    }

    /// Returns a `u32` buffer to the pool.
    pub fn put_words(&self, mut v: Vec<u32>) {
        if v.capacity() == 0 {
            return;
        }
        let mut st = self.inner.lock();
        st.stats.puts += 1;
        if st.words.len() >= MAX_POOLED {
            st.stats.dropped += 1;
            return;
        }
        if let Some(p) = st.poison {
            v.clear();
            // rpr-check: allow(hot-path-alloc): resize to the buffer's own capacity never reallocates
            v.resize(v.capacity(), u32::from_le_bytes([p, p, p, p]));
        }
        // rpr-check: allow(hot-path-alloc): slot vector is pre-reserved to MAX_POOLED and push is guarded by the cap above
        st.words.push(v);
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Buffers currently held, `(byte_buffers, word_buffers)`.
    pub fn pooled(&self) -> (usize, usize) {
        let st = self.inner.lock();
        (st.bytes.len(), st.words.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_roundtrip_reuses_capacity() {
        let pool = BufferPool::new();
        let mut v = pool.get_vec();
        v.extend_from_slice(&[1, 2, 3, 4]);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        pool.put_vec(v);
        let v2 = pool.get_vec();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), ptr, "buffer must be recycled, not reallocated");
        let s = pool.stats();
        assert_eq!((s.gets, s.misses, s.puts), (2, 1, 1));
    }

    #[test]
    fn zeroed_clears_recycled_contents() {
        let pool = BufferPool::new();
        pool.put_vec(vec![0xAB; 32]);
        let v = pool.get_zeroed(16);
        assert_eq!(v, vec![0u8; 16]);
    }

    #[test]
    fn scratch_preserves_stale_bytes_and_poison_marks_them() {
        let pool = BufferPool::poisoned(0xA5);
        pool.put_vec(vec![0u8; 8]);
        let v = pool.get_scratch(8);
        assert_eq!(v, vec![0xA5; 8], "poisoned pool must surface stale reads");
        pool.put_vec(v);
        // Growth past the recycled length is filled with the sentinel too.
        let v = pool.get_scratch(12);
        assert_eq!(v, vec![0xA5; 12]);
    }

    #[test]
    fn words_poisoned_roundtrip() {
        let pool = BufferPool::poisoned(0x5A);
        pool.put_words(vec![7u32; 4]);
        let w = pool.get_words();
        assert!(w.is_empty());
        assert!(w.capacity() >= 4);
    }

    #[test]
    fn capacity_cap_drops_excess() {
        let pool = BufferPool::new();
        for _ in 0..(MAX_POOLED + 5) {
            pool.put_vec(vec![0u8; 4]);
        }
        assert_eq!(pool.pooled().0, MAX_POOLED);
        assert_eq!(pool.stats().dropped, 5);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let pool = BufferPool::new();
        pool.put_vec(Vec::new());
        assert_eq!(pool.pooled().0, 0);
        assert_eq!(pool.stats().puts, 0);
    }

    #[test]
    fn slot_vectors_never_grow_past_their_initial_reservation() {
        // The recycle path must not allocate: the slot vectors are
        // reserved to MAX_POOLED at construction and the cap guard
        // keeps push below that, so capacity stays at its initial
        // value no matter how many buffers cycle through.
        let pool = BufferPool::new();
        let (bytes_cap, words_cap, shared_cap) = {
            let st = pool.inner.lock();
            (st.bytes.capacity(), st.words.capacity(), st.shared.capacity())
        };
        assert!(bytes_cap >= MAX_POOLED);
        assert!(words_cap >= MAX_POOLED);
        assert!(shared_cap >= MAX_POOLED);
        for _ in 0..(MAX_POOLED * 2) {
            pool.put_vec(vec![0u8; 4]);
            pool.put_words(vec![0u32; 4]);
            pool.put_shared(Arc::new(vec![0u8; 4]));
        }
        let st = pool.inner.lock();
        assert_eq!(st.bytes.capacity(), bytes_cap);
        assert_eq!(st.words.capacity(), words_cap);
        assert_eq!(st.shared.capacity(), shared_cap);
    }

    #[test]
    fn clones_share_the_store() {
        let a = BufferPool::new();
        let b = a.clone();
        a.put_vec(vec![1u8; 8]);
        assert_eq!(b.pooled().0, 1);
        let _ = b.get_vec();
        assert_eq!(a.pooled().0, 0);
    }
}
