//! Thread-local recycling of column code buffers.
//!
//! Publish-style workloads build and drop whole tables in a tight loop
//! (every SPS run materializes a fresh `D*₂`). With a plain allocator the
//! column buffers — a few hundred KB per table — coalesce at the top of the
//! heap on every drop, get trimmed back to the kernel, and are re-faulted
//! page by page on the next build: on a 12K-row × 5-column table that is
//! ~70 minor faults (≈70 µs) per publication, dwarfing the actual emission
//! work. This module keeps a small per-thread stack of retired code
//! buffers; [`crate::table::TableBuilder`] draws from it and
//! [`crate::table::Column`] returns to it on drop, so steady-state
//! publication touches only warm memory.
//!
//! The pool is bounded (at most [`MAX_POOLED`] buffers, each capped at
//! [`MAX_CAPACITY`] codes) and purely an allocation cache: recycled buffers
//! are cleared before reuse, so observable behavior — including bit-level
//! output — is identical with or without it.

use std::cell::RefCell;

/// Buffers retained per thread.
const MAX_POOLED: usize = 8;
/// Buffers below this capacity (in codes) are not worth pooling.
const MIN_CAPACITY: usize = 1024;
/// Buffers above this capacity (in codes) are released to the allocator so
/// one giant table cannot pin memory forever.
const MAX_CAPACITY: usize = 1 << 22;
/// Upper bound on the pool's total retained capacity (in codes, 32 MB of
/// `u32`s): the steady-state footprint is bounded by this, not by the
/// largest table a long-lived thread ever built.
const MAX_TOTAL_CAPACITY: usize = 1 << 23;

thread_local! {
    static POOL: RefCell<Vec<Vec<u32>>> = const { RefCell::new(Vec::new()) };
}

/// A pooled buffer is only handed out for a request it does not exceed by
/// more than this factor — a tiny table must not pin a multi-MB recycled
/// buffer for its whole lifetime.
const MAX_OVERSIZE_FACTOR: usize = 8;

/// Takes a cleared buffer with at least `capacity` spare codes, reusing the
/// smallest fitting pooled one when it is not grossly oversized for the
/// request; otherwise allocates fresh (the pooled buffers stay for callers
/// they actually fit).
pub(crate) fn take(capacity: usize) -> Vec<u32> {
    // `try_with`: during thread-local destruction the pool may already be
    // gone (a consumer can hold tables in its own `thread_local!`); fall
    // back to a plain allocation instead of panicking.
    POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let mut best: Option<(usize, usize)> = None;
        for (i, v) in pool.iter().enumerate() {
            let c = v.capacity();
            if c >= capacity && best.is_none_or(|(_, b)| c < b) {
                best = Some((i, c));
            }
        }
        if let Some((i, c)) = best {
            if c <= capacity.max(MIN_CAPACITY) * MAX_OVERSIZE_FACTOR {
                let mut v = pool.swap_remove(i);
                v.clear();
                return v;
            }
        }
        Vec::with_capacity(capacity)
    })
    .unwrap_or_else(|_| Vec::with_capacity(capacity))
}

/// Returns a retired buffer to the pool. A full pool makes room by
/// dropping its smallest buffer if the retired one is larger, so a thread
/// moving on to larger tables pools their columns; otherwise, or if the
/// buffer is outside the pooling bounds, the retired buffer is dropped.
pub(crate) fn recycle(v: Vec<u32>) {
    if v.capacity() < MIN_CAPACITY || v.capacity() > MAX_CAPACITY {
        return;
    }
    // `try_with`, not `with`: this runs from `Column::drop`, and a panic
    // while the thread-local is being destroyed (TLS destructor order is
    // unspecified) would abort the process. If the pool is gone, the
    // buffer just frees normally.
    let _ = POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let mut retained: usize = pool.iter().map(Vec::capacity).sum();
        let mut evict = None;
        if pool.len() == MAX_POOLED {
            match pool.iter().enumerate().min_by_key(|(_, b)| b.capacity()) {
                Some((i, b)) if b.capacity() < v.capacity() => {
                    retained -= b.capacity();
                    evict = Some(i);
                }
                _ => return,
            }
        }
        if retained + v.capacity() <= MAX_TOTAL_CAPACITY {
            if let Some(i) = evict {
                pool.swap_remove(i);
            }
            pool.push(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains buffers earlier tests on this thread left behind — the pool
    /// is thread-local, and tests may share harness threads.
    fn drain_pool() {
        POOL.with(|p| p.borrow_mut().clear());
    }

    #[test]
    fn round_trip_reuses_capacity() {
        drain_pool();
        let mut v = take(MIN_CAPACITY);
        v.extend(0..MIN_CAPACITY as u32);
        let cap = v.capacity();
        recycle(v);
        let v2 = take(MIN_CAPACITY / 2);
        assert!(v2.is_empty(), "recycled buffers come back cleared");
        assert_eq!(v2.capacity(), cap, "the pooled buffer was reused");
    }

    #[test]
    fn tiny_and_giant_buffers_are_not_pooled() {
        drain_pool();
        recycle(Vec::with_capacity(8));
        let v = take(0);
        assert!(v.capacity() < MIN_CAPACITY, "tiny buffer was not pooled");
    }

    #[test]
    fn pool_is_bounded() {
        drain_pool();
        for _ in 0..4 * MAX_POOLED {
            recycle(Vec::with_capacity(MIN_CAPACITY));
        }
        POOL.with(|p| assert!(p.borrow().len() <= MAX_POOLED));
    }

    #[test]
    fn a_full_pool_trades_its_smallest_buffer_for_a_larger_one() {
        drain_pool();
        for _ in 0..MAX_POOLED {
            recycle(Vec::with_capacity(MIN_CAPACITY));
        }
        recycle(Vec::with_capacity(4 * MIN_CAPACITY));
        // A retired buffer no larger than the smallest pooled one is dropped.
        recycle(Vec::with_capacity(MIN_CAPACITY));
        POOL.with(|p| {
            let pool = p.borrow();
            assert_eq!(pool.len(), MAX_POOLED);
            let capacities: usize = pool.iter().map(Vec::capacity).sum();
            assert_eq!(capacities, (MAX_POOLED + 3) * MIN_CAPACITY);
        });
        assert_eq!(take(4 * MIN_CAPACITY).capacity(), 4 * MIN_CAPACITY);
        drain_pool();
    }

    #[test]
    fn small_requests_do_not_pin_giant_buffers() {
        drain_pool();
        recycle(Vec::with_capacity(MAX_CAPACITY));
        let v = take(MIN_CAPACITY);
        assert!(
            v.capacity() < MAX_CAPACITY,
            "a {}-code request must not be served a {}-code buffer",
            MIN_CAPACITY,
            MAX_CAPACITY
        );
        // The giant buffer stays pooled for a caller it actually fits.
        let big = take(MAX_CAPACITY / 2);
        assert_eq!(big.capacity(), MAX_CAPACITY);
        drain_pool();
    }

    #[test]
    fn total_retained_capacity_is_bounded() {
        drain_pool();
        for _ in 0..MAX_POOLED {
            recycle(Vec::with_capacity(MAX_CAPACITY));
        }
        POOL.with(|p| {
            let retained: usize = p.borrow().iter().map(Vec::capacity).sum();
            assert!(retained <= MAX_TOTAL_CAPACITY);
        });
        drain_pool();
    }
}
