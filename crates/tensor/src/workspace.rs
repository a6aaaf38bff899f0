//! Reusable scratch buffers for the training hot path.
//!
//! Layer-wise backprop over im2col-lowered convolutions needs several
//! large temporaries per forward/backward pass (patch matrices, matmul
//! panels, transposed activations). Allocating them with `vec![0.0; …]`
//! on every call dominated small-model step time; a [`Workspace`] instead
//! keeps the freed buffers and hands them back on the next request, so a
//! client's buffers are allocated once and reused across batches, epochs
//! and rounds.
//!
//! # Determinism
//!
//! [`Workspace::take`] always returns a buffer of exactly the requested
//! length **filled with zeros** — byte-identical to a fresh
//! `vec![0.0; len]`. [`Workspace::take_scratch`] skips that zero-fill and
//! may return stale contents, so it is reserved for buffers every caller
//! overwrites in full before reading (the matmul kernels all
//! `fill(0.0)` their output internally, and `im2col`/transpose/permute
//! loops assign every element). Under that contract reuse cannot change
//! any numeric result; the property tests assert bit-identity between
//! pooled and fresh runs.

/// A grow-only pool of `f32` scratch buffers.
///
/// Not thread-safe by design: each worker thread (one client at a time)
/// owns its workspace. Cross-thread pooling lives in `subfed-core` (the
/// client round loop).
#[derive(Debug, Default, Clone)]
pub struct Workspace {
    free: Vec<Vec<f32>>,
}

/// Buffers retained beyond this count are dropped on [`Workspace::put`];
/// a training step needs far fewer simultaneously-live temporaries.
const MAX_RETAINED: usize = 16;

impl Workspace {
    /// Creates an empty workspace; buffers are acquired lazily.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a zero-filled buffer of exactly `len` elements, reusing a
    /// retained allocation when one is large enough.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_scratch(len);
        buf.fill(0.0);
        buf
    }

    /// Returns a buffer of exactly `len` elements with **unspecified
    /// contents** — on reuse the prefix keeps whatever the previous owner
    /// left behind. Callers must overwrite every element before reading.
    ///
    /// This is the hot-path variant of [`take`](Self::take): skipping the
    /// zero-fill saves a full memset over multi-megabyte `im2col` patch
    /// buffers on every conv pass. All in-tree consumers qualify because
    /// the blocked/sparse matmul kernels zero their output internally and
    /// the lowering/transpose loops assign every element.
    pub fn take_scratch(&mut self, len: usize) -> Vec<f32> {
        // Smallest retained buffer whose capacity suffices.
        let mut best: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= len
                && best.is_none_or(|j| buf.capacity() < self.free[j].capacity())
            {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                let mut buf = self.free.swap_remove(i);
                buf.truncate(len);
                buf.resize(len, 0.0);
                buf
            }
            // lint: allow(hot-path-alloc) — the cold miss is the arena's one sanctioned growth point
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer to the pool for reuse. Its contents are
    /// irrelevant — [`take`](Self::take) zero-fills on the way out.
    pub fn put(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.free.len() >= MAX_RETAINED {
            // Drop the smallest buffer (including possibly `buf`) so the
            // pool keeps the allocations most worth reusing.
            if let Some(i) =
                self.free.iter().enumerate().min_by_key(|(_, b)| b.capacity()).map(|(i, _)| i)
            {
                if self.free[i].capacity() < buf.capacity() {
                    self.free[i] = buf;
                }
                return;
            }
        }
        self.free.push(buf);
    }

    /// Number of buffers currently retained (test/diagnostic aid).
    pub fn retained(&self) -> usize {
        self.free.len()
    }

    /// Total capacity in bytes across retained buffers.
    pub fn retained_bytes(&self) -> usize {
        self.free.iter().map(|b| b.capacity() * std::mem::size_of::<f32>()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_always_zero_filled() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(8);
        buf.iter_mut().for_each(|v| *v = 3.5);
        ws.put(buf);
        let again = ws.take(4);
        assert_eq!(again, vec![0.0; 4]);
        assert_eq!(again.len(), 4);
    }

    #[test]
    fn take_scratch_reuses_without_zeroing() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(8);
        buf.iter_mut().for_each(|v| *v = 3.5);
        ws.put(buf);
        // Shrinking reuse: the surviving prefix keeps its stale contents.
        let again = ws.take_scratch(4);
        assert_eq!(again, vec![3.5; 4]);
        ws.put(again);
        // Growing reuse: the tail beyond the stored length is zero-filled
        // (resize), the prefix stays stale.
        let grown = ws.take_scratch(6);
        assert_eq!(grown.len(), 6);
        assert_eq!(&grown[..4], &[3.5; 4]);
        assert_eq!(&grown[4..], &[0.0; 2]);
        // A fresh (non-reused) scratch buffer is all zeros.
        let mut empty_ws = Workspace::new();
        assert_eq!(empty_ws.take_scratch(3), vec![0.0; 3]);
    }

    #[test]
    fn reuses_the_smallest_adequate_buffer() {
        let mut ws = Workspace::new();
        let small = ws.take(4);
        let big = ws.take(1024);
        let small_cap = small.capacity();
        ws.put(small);
        ws.put(big);
        let got = ws.take(3);
        assert_eq!(got.capacity(), small_cap);
        assert_eq!(ws.retained(), 1);
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for i in 0..64 {
            ws.put(vec![0.0; i + 1]);
        }
        assert!(ws.retained() <= MAX_RETAINED);
        assert!(ws.retained_bytes() > 0);
    }

    #[test]
    fn zero_len_take_and_put_are_harmless() {
        let mut ws = Workspace::new();
        let empty = ws.take(0);
        assert!(empty.is_empty());
        ws.put(Vec::new());
        assert_eq!(ws.retained(), 0);
    }
}
