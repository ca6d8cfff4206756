//! Node pool with contiguous first-fit allocation.
//!
//! Placement matters to the taxonomy because neighbouring jobs share
//! interconnect and I/O paths — the contention component ζ_l(t, j) in the
//! paper's Eq. 2 depends on who runs next to whom. A simple contiguous
//! first-fit keeps placements realistic (jobs occupy node ranges, fragments
//! appear under churn) while staying analyzable.

use std::collections::BTreeMap;

/// A contiguous range of allocated nodes `[first, first + count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeRange {
    /// First node index of the range.
    pub(crate) first: u32,
    /// Number of nodes in the range.
    pub(crate) count: u32,
}

impl NodeRange {
    /// One-past-the-last node index.
    pub(crate) fn end(&self) -> u32 {
        self.first + self.count
    }

    /// Whether two ranges share any node.
    #[cfg(test)]
    pub(crate) fn overlaps(&self, other: &NodeRange) -> bool {
        self.first < other.end() && other.first < self.end()
    }
}

/// A pool of `total` nodes supporting contiguous first-fit allocation.
///
/// Free space is tracked as a map from range start to range length, merged
/// on release, so allocation is O(#fragments).
#[derive(Debug, Clone)]
pub(crate) struct NodePool {
    total: u32,
    /// Free ranges: start → length, non-overlapping, non-adjacent.
    free: BTreeMap<u32, u32>,
    allocated: u32,
}

impl NodePool {
    /// A pool of `total` free nodes. Panics if `total == 0`.
    pub(crate) fn new(total: u32) -> Self {
        assert!(total > 0, "pool needs at least one node");
        let mut free = BTreeMap::new();
        free.insert(0, total);
        Self { total, free, allocated: 0 }
    }

    /// Number of currently free nodes.
    #[cfg(test)]
    pub(crate) fn free_nodes(&self) -> u32 {
        self.total - self.allocated
    }

    /// Number of currently allocated nodes.
    #[cfg(test)]
    pub(crate) fn allocated_nodes(&self) -> u32 {
        self.allocated
    }

    /// Largest contiguous free block.
    #[cfg(test)]
    pub(crate) fn largest_free_block(&self) -> u32 {
        self.free.values().copied().max().unwrap_or(0)
    }

    /// Allocate `count` contiguous nodes, first-fit. Returns `None` when no
    /// fragment is large enough (even if total free ≥ count — fragmentation
    /// is real on torus machines).
    pub(crate) fn allocate(&mut self, count: u32) -> Option<NodeRange> {
        if count == 0 {
            return None;
        }
        let (&start, &len) = self.free.iter().find(|&(_, &len)| len >= count)?;
        self.free.remove(&start);
        if len > count {
            self.free.insert(start + count, len - count);
        }
        self.allocated += count;
        Some(NodeRange { first: start, count })
    }

    /// Release a previously allocated range, merging with free neighbours.
    ///
    /// Panics if the range was not allocated (double free / overlap with a
    /// free range), which would indicate a scheduler bug.
    pub(crate) fn release(&mut self, range: NodeRange) {
        assert!(range.end() <= self.total, "release outside pool");
        // Check overlap with existing free ranges.
        if let Some((&s, &l)) = self.free.range(..=range.first).next_back() {
            assert!(s + l <= range.first, "double free: overlaps free range at {s}");
        }
        if let Some((&s, _)) = self.free.range(range.first..).next() {
            assert!(s >= range.end(), "double free: overlaps free range at {s}");
        }
        let mut start = range.first;
        let mut len = range.count;
        // Merge with the preceding free range if adjacent.
        if let Some((&s, &l)) = self.free.range(..start).next_back() {
            if s + l == start {
                self.free.remove(&s);
                start = s;
                len += l;
            }
        }
        // Merge with the following free range if adjacent.
        if let Some((&s, &l)) = self.free.range(start + len..).next() {
            if start + len == s {
                self.free.remove(&s);
                len += l;
            }
        }
        self.free.insert(start, len);
        self.allocated -= range.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_first_fit_and_tracks_counts() {
        let mut pool = NodePool::new(100);
        let a = pool.allocate(10).expect("fits");
        assert_eq!(a, NodeRange { first: 0, count: 10 });
        let b = pool.allocate(20).expect("fits");
        assert_eq!(b.first, 10);
        assert_eq!(pool.free_nodes(), 70);
        assert_eq!(pool.allocated_nodes(), 30);
    }

    #[test]
    fn refuses_oversized_requests() {
        let mut pool = NodePool::new(8);
        assert!(pool.allocate(9).is_none());
        assert!(pool.allocate(0).is_none());
        assert_eq!(pool.free_nodes(), 8);
    }

    #[test]
    fn fragmentation_blocks_contiguous_fit() {
        let mut pool = NodePool::new(10);
        let a = pool.allocate(4).expect("fits");
        let _b = pool.allocate(2).expect("fits");
        let _c = pool.allocate(4).expect("fits");
        pool.release(a); // free [0,4) but [4,6) busy
        pool.release(_c); // free [6,10)
        assert_eq!(pool.free_nodes(), 8);
        // 8 free nodes but max contiguous block is 4.
        assert_eq!(pool.largest_free_block(), 4);
        assert!(pool.allocate(5).is_none());
        assert!(pool.allocate(4).is_some());
    }

    #[test]
    fn release_merges_neighbours() {
        let mut pool = NodePool::new(10);
        let a = pool.allocate(3).expect("fits");
        let b = pool.allocate(3).expect("fits");
        let c = pool.allocate(4).expect("fits");
        pool.release(a);
        pool.release(c);
        pool.release(b); // should merge everything back into one block
        assert_eq!(pool.largest_free_block(), 10);
        assert_eq!(pool.free_nodes(), 10);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pool = NodePool::new(10);
        let a = pool.allocate(5).expect("fits");
        pool.release(a);
        pool.release(a);
    }

    #[test]
    fn ranges_overlap_predicate() {
        let a = NodeRange { first: 0, count: 5 };
        let b = NodeRange { first: 4, count: 2 };
        let c = NodeRange { first: 5, count: 2 };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn exhaustive_alloc_release_keeps_invariants() {
        let mut pool = NodePool::new(64);
        let mut live: Vec<NodeRange> = Vec::new();
        // Deterministic pseudo-random workload.
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for step in 0..2000 {
            if step % 3 != 2 || live.is_empty() {
                let want = next() % 16 + 1;
                if let Some(r) = pool.allocate(want) {
                    // No overlap with any live allocation.
                    for l in &live {
                        assert!(!r.overlaps(l), "overlap at step {step}");
                    }
                    live.push(r);
                }
            } else {
                let i = (next() as usize) % live.len();
                pool.release(live.swap_remove(i));
            }
            let live_total: u32 = live.iter().map(|r| r.count).sum();
            assert_eq!(pool.allocated_nodes(), live_total);
        }
    }
}
