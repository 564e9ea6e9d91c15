//! Per-op plans memoized by op shape.
//!
//! Planning an op and optimizing its XOR program costs tens of
//! microseconds — more than the XOR work of a small op. But an op's plan is
//! a pure function of its *shape* in layout coordinates (which data
//! ordinals it touches, which logical columns are failed), the layout
//! never changes within a volume, and a handful of shapes covers most
//! traffic. So [`crate::volume::RaidVolume`] plans each shape once, keeps
//! the result here, and clones it into later ops of the same shape.
//!
//! Every key names the failed columns it was planned for, so a disk
//! failure, a rebuild or a replaced disk only selects other keys: an
//! entry never goes stale and is never invalidated.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use raid_core::plan::write::{WriteCost, WriteMode, WritePlan};
use raid_core::{Cell, XorPlan};

/// Shapes one memo table holds. A full table is emptied before its next
/// insert, which bounds memory whatever the op mix; a cold shape costs
/// exactly the planning it always did plus one insert.
pub(crate) const MEMO_SHAPES: usize = 4096;

/// One bounded shape → plan table.
pub(crate) struct Shapes<K, V> {
    map: HashMap<K, Arc<V>>,
}

impl<K, V> Default for Shapes<K, V> {
    fn default() -> Self {
        Shapes { map: HashMap::new() }
    }
}

impl<K: Hash + Eq, V> Shapes<K, V> {
    /// The plan for `key`, made by `make(&key)` on first use. `make` sees
    /// only the key, so the plan cannot depend on anything the key does
    /// not name.
    pub(crate) fn get_or_make(&mut self, key: K, make: impl FnOnce(&K) -> V) -> Arc<V> {
        if let Some(v) = self.map.get(&key) {
            return Arc::clone(v);
        }
        if self.map.len() >= MEMO_SHAPES {
            self.map.clear();
        }
        let v = Arc::new(make(&key));
        self.map.insert(key, Arc::clone(&v));
        v
    }

    /// Shapes currently held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// A degraded read of one stripe segment: the surviving cells it fetches
/// and the program that repairs the lost requested cells.
pub(crate) struct ReadShape {
    pub(crate) fetched: Vec<Cell>,
    pub(crate) plan: XorPlan,
}

/// An uncached healthy write of one stripe segment: its write plan, the
/// reads of the cheaper mode, and the parity program over the
/// double-height scratch.
pub(crate) struct WriteShape {
    pub(crate) plan: WritePlan,
    pub(crate) reads: Vec<Cell>,
    pub(crate) xor: XorPlan,
}

/// The volume's memoized per-op plans, one table per lowering.
#[derive(Default)]
pub(crate) struct PlanMemo {
    /// `(failed logical cols, in-stripe start, len)` → degraded read.
    pub(crate) reads: Shapes<(Vec<usize>, usize, usize), ReadShape>,
    /// Failed logical cols → whole-stripe decode program (degraded
    /// writes and flushes, double-failure rebuild steps).
    pub(crate) decodes: Shapes<Vec<usize>, XorPlan>,
    /// `(in-stripe start, len)` → uncached healthy write.
    pub(crate) writes: Shapes<(usize, usize), WriteShape>,
    /// Dirty ordinal set → coalesced-flush plan and both modes' reads.
    pub(crate) flushes: Shapes<Vec<usize>, (WritePlan, WriteCost)>,
    /// `(dirty ordinal set, mode)` → optimized coalesced-flush program.
    pub(crate) flush_xors: Shapes<(Vec<usize>, WriteMode), XorPlan>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_table_starts_over_and_still_answers() {
        let mut t: Shapes<usize, usize> = Shapes::default();
        let mut made = 0;
        for k in 0..MEMO_SHAPES {
            let v = t.get_or_make(k, |&k| {
                made += 1;
                k * 2
            });
            assert_eq!(*v, k * 2);
        }
        assert_eq!(*t.get_or_make(7, |_| unreachable!("7 is memoized")), 14);
        assert_eq!((t.len(), made), (MEMO_SHAPES, MEMO_SHAPES));

        // One shape past the bound empties the table first.
        assert_eq!(*t.get_or_make(MEMO_SHAPES, |&k| k * 2), MEMO_SHAPES * 2);
        assert_eq!(t.len(), 1);
        assert_eq!(*t.get_or_make(7, |&k| k * 2), 14, "an evicted shape is re-made");
    }
}
