//! Write-back stripe cache: a dirty-stripe map between the volume and the
//! I/O pipeline.
//!
//! The cache absorbs element writes per stripe and defers the parity
//! update until flush time, when every dirty element of a stripe is
//! batched into **one** lowered operation (see
//! [`raid_core::plan::write::plan_batched_write`]). Co-located dirty
//! elements then share their parity reads and writes — the HV paper's
//! shared-parity structure turned into an I/O win — and the single
//! lowered op rides the pipeline's undo journal, so a coalesced flush is
//! atomic across crashes.
//!
//! The map itself is policy-free storage plus bookkeeping; the flush
//! policy (dirty high-water mark, LRU eviction under the memory budget,
//! explicit `flush()`/drop barrier) lives in
//! [`crate::volume::RaidVolume`], which owns the pipeline the flushes
//! must go through.

use std::collections::BTreeMap;

use raid_core::layout::Layout;
use raid_core::plan::write::{WriteMode, WritePlan};
use raid_core::Cell;

/// Write-back cache tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Memory budget: maximum stripes resident (dirty or clean). The
    /// least-recently-used entry is evicted beyond this.
    pub max_stripes: usize,
    /// Flush trigger: writing while more than this many stripes are dirty
    /// flushes the least-recently-used dirty stripes down to the mark.
    pub dirty_high_water: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { max_stripes: 64, dirty_high_water: 48 }
    }
}

/// Evicted entries [`StripeCache::remove`] keeps for reuse, so a miss
/// after an eviction — the steady state of a cache smaller than the
/// working set — recycles a stripe-sized buffer instead of allocating and
/// zeroing a new one.
const SPARE_ENTRIES: usize = 2;

/// One cached stripe: the data elements the cache has seen, with
/// per-element presence and dirtiness.
#[derive(Debug, Clone)]
pub(crate) struct StripeEntry {
    data: Vec<u8>,
    present: Vec<bool>,
    dirty: Vec<bool>,
    element_size: usize,
}

impl StripeEntry {
    fn new(per_stripe: usize, element_size: usize) -> Self {
        StripeEntry {
            data: vec![0; per_stripe * element_size],
            present: vec![false; per_stripe],
            dirty: vec![false; per_stripe],
            element_size,
        }
    }

    /// Forgets every element (none present, none dirty) so another
    /// stripe can reuse the entry. The bytes stay as they were: they are
    /// unreadable until an ordinal is written or filled again.
    fn reset(&mut self) {
        self.present.fill(false);
        self.dirty.fill(false);
    }

    /// The cached bytes of data ordinal `ord` (valid only when present:
    /// a recycled entry still holds another stripe's bytes elsewhere).
    pub(crate) fn element(&self, ord: usize) -> &[u8] {
        &self.data[ord * self.element_size..(ord + 1) * self.element_size]
    }

    /// True if the cache holds a copy of ordinal `ord` (dirty or clean).
    pub(crate) fn is_present(&self, ord: usize) -> bool {
        self.present[ord]
    }

    /// True if the cached copy of `ord` matches the disks (present and
    /// not dirty) — safe to substitute for a disk read.
    pub(crate) fn is_clean(&self, ord: usize) -> bool {
        self.present[ord] && !self.dirty[ord]
    }

    /// Stores new bytes for `ord`, marking it present **and dirty**.
    pub(crate) fn write(&mut self, ord: usize, bytes: &[u8]) {
        self.data[ord * self.element_size..(ord + 1) * self.element_size]
            .copy_from_slice(bytes);
        self.present[ord] = true;
        self.dirty[ord] = true;
    }

    /// Stores bytes read from disk for `ord` (present, clean). A dirty
    /// copy is never downgraded — the cache is authoritative for it.
    pub(crate) fn fill(&mut self, ord: usize, bytes: &[u8]) {
        if self.dirty[ord] {
            return;
        }
        self.data[ord * self.element_size..(ord + 1) * self.element_size]
            .copy_from_slice(bytes);
        self.present[ord] = true;
    }

    /// Drops a clean cached copy of `ord` (out-of-band tampering hook).
    pub(crate) fn invalidate_clean(&mut self, ord: usize) {
        if !self.dirty[ord] {
            self.present[ord] = false;
        }
    }

    /// The dirty data ordinals, ascending.
    pub(crate) fn dirty_ordinals(&self) -> Vec<usize> {
        (0..self.dirty.len()).filter(|&o| self.dirty[o]).collect()
    }

    /// True if any element is dirty.
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty.iter().any(|&d| d)
    }

    /// Marks every element clean (a successful flush: disks now match).
    pub(crate) fn mark_clean(&mut self) {
        self.dirty.fill(false);
    }
}

/// The dirty-stripe map: cached [`StripeEntry`]s keyed by stripe index,
/// with LRU order tracked for the eviction policy.
pub(crate) struct StripeCache {
    cfg: CacheConfig,
    per_stripe: usize,
    element_size: usize,
    entries: BTreeMap<usize, StripeEntry>,
    /// Stripe indices, least-recently-used first.
    lru: Vec<usize>,
    /// Evicted entries, emptied, awaiting reuse (at most
    /// [`SPARE_ENTRIES`]).
    spare: Vec<StripeEntry>,
}

impl StripeCache {
    pub(crate) fn new(cfg: CacheConfig, per_stripe: usize, element_size: usize) -> Self {
        assert!(cfg.max_stripes > 0, "cache needs room for at least one stripe");
        StripeCache {
            cfg,
            per_stripe,
            element_size,
            entries: BTreeMap::new(),
            lru: Vec::new(),
            spare: Vec::new(),
        }
    }

    pub(crate) fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Resident stripes (dirty or clean).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Resident stripes holding at least one dirty element.
    pub(crate) fn dirty_count(&self) -> usize {
        self.entries.values().filter(|e| e.is_dirty()).count()
    }

    pub(crate) fn get(&self, stripe: usize) -> Option<&StripeEntry> {
        self.entries.get(&stripe)
    }

    /// The entry for `stripe`, promoted to most-recently-used. An absent
    /// stripe gets an empty entry (nothing present, nothing dirty): an
    /// evicted one [`StripeCache::remove`] kept, its stale bytes left in
    /// place rather than zeroed, else a new one.
    pub(crate) fn ensure(&mut self, stripe: usize) -> &mut StripeEntry {
        self.promote(stripe);
        let (per, es) = (self.per_stripe, self.element_size);
        let spare = &mut self.spare;
        self.entries
            .entry(stripe)
            .or_insert_with(|| spare.pop().unwrap_or_else(|| StripeEntry::new(per, es)))
    }

    /// Moves `stripe` to the most-recently-used position.
    pub(crate) fn promote(&mut self, stripe: usize) {
        self.lru.retain(|&s| s != stripe);
        self.lru.push(stripe);
    }

    /// Removes and returns the entry (e.g. to flush it without holding a
    /// borrow on the cache).
    pub(crate) fn take(&mut self, stripe: usize) -> Option<StripeEntry> {
        self.entries.remove(&stripe)
    }

    /// Reinserts an entry taken with [`StripeCache::take`], keeping its
    /// LRU position.
    pub(crate) fn put_back(&mut self, stripe: usize, entry: StripeEntry) {
        self.entries.insert(stripe, entry);
        if !self.lru.contains(&stripe) {
            self.lru.push(stripe);
        }
    }

    /// Drops `stripe` entirely (eviction). Its entry is kept for reuse
    /// by the next [`StripeCache::ensure`] of an absent stripe while
    /// fewer than [`SPARE_ENTRIES`] are kept. The caller must flush a
    /// dirty entry first: its unflushed data is discarded.
    pub(crate) fn remove(&mut self, stripe: usize) {
        if let Some(mut entry) = self.entries.remove(&stripe) {
            if self.spare.len() < SPARE_ENTRIES {
                entry.reset();
                self.spare.push(entry);
            }
        }
        self.lru.retain(|&s| s != stripe);
    }

    /// The least-recently-used dirty stripe.
    pub(crate) fn oldest_dirty(&self) -> Option<usize> {
        self.lru
            .iter()
            .copied()
            .find(|s| self.entries.get(s).is_some_and(StripeEntry::is_dirty))
    }

    /// The least-recently-used fully-clean stripe (free to evict).
    pub(crate) fn oldest_clean(&self) -> Option<usize> {
        self.lru
            .iter()
            .copied()
            .find(|s| self.entries.get(s).is_some_and(|e| !e.is_dirty()))
    }

    /// The least-recently-used stripe of all.
    pub(crate) fn oldest(&self) -> Option<usize> {
        self.lru.iter().copied().find(|s| self.entries.contains_key(s))
    }

    /// Every stripe currently dirty, ascending.
    pub(crate) fn dirty_stripes(&self) -> Vec<usize> {
        self.entries
            .iter()
            .filter(|(_, e)| e.is_dirty())
            .map(|(&s, _)| s)
            .collect()
    }
}

/// Orders parity cells so that no parity is emitted before a pending
/// parity that appears among its chain members (parity-into-parity
/// cascades, e.g. RDP).
pub(crate) fn ordered_parities(layout: &Layout, parities: &[Cell]) -> Vec<Cell> {
    let mut pending: Vec<Cell> = parities.to_vec();
    let mut ordered = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let mut progressed = false;
        let mut next = Vec::new();
        for &p in &pending {
            let chain = layout.chain(layout.chain_of_parity(p).expect("parity owns chain"));
            if chain.members.iter().any(|m| pending.contains(m) && *m != p) {
                next.push(p);
            } else {
                ordered.push(p);
                progressed = true;
            }
        }
        assert!(progressed, "cyclic parity dependency during write");
        pending = next;
    }
    ordered
}

/// Builds the XOR steps that renew a [`WritePlan`]'s parities over a
/// double-height scratch: old values in the lower `rows` rows, new values
/// in the upper. This one lowering serves both the volume's direct
/// partial writes and the cache's coalesced flushes, and is what
/// `raid-verify` proves symbolically for arbitrary dirty sets.
///
/// * [`WriteMode::Rmw`] — new parity = old parity ⊕ (old ⊕ new) of every
///   touched member;
/// * [`WriteMode::Reconstruct`] / [`WriteMode::FullStripe`] — new parity
///   = XOR of members' new values, untouched members contributing their
///   (read or cache-filled) old value.
pub fn batched_write_steps(
    layout: &Layout,
    plan: &WritePlan,
    mode: WriteMode,
) -> Vec<(Cell, Vec<Cell>)> {
    let rows = layout.rows();
    let up = |c: Cell| Cell::new(c.row + rows, c.col);
    let touched = |m: &Cell| plan.data_writes.contains(m) || plan.parity_writes.contains(m);
    ordered_parities(layout, &plan.parity_writes)
        .into_iter()
        .map(|p| {
            let chain = layout.chain(layout.chain_of_parity(p).expect("parity owns chain"));
            let mut srcs = Vec::new();
            match mode {
                WriteMode::Rmw => {
                    srcs.push(p);
                    for m in &chain.members {
                        if touched(m) {
                            srcs.push(*m);
                            srcs.push(up(*m));
                        }
                    }
                }
                WriteMode::Reconstruct | WriteMode::FullStripe => {
                    for m in &chain.members {
                        srcs.push(if touched(m) { up(*m) } else { *m });
                    }
                }
            }
            (up(p), srcs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_tracks_presence_and_dirtiness() {
        let mut e = StripeEntry::new(4, 8);
        assert!(!e.is_present(0) && !e.is_dirty());
        e.write(1, &[7; 8]);
        assert!(e.is_present(1) && !e.is_clean(1) && e.is_dirty());
        assert_eq!(e.element(1), &[7; 8]);
        assert_eq!(e.dirty_ordinals(), vec![1]);

        // A read-through fill never downgrades a dirty copy.
        e.fill(1, &[9; 8]);
        assert_eq!(e.element(1), &[7; 8]);
        e.fill(2, &[3; 8]);
        assert!(e.is_clean(2));

        e.mark_clean();
        assert!(!e.is_dirty() && e.is_clean(1));
        e.invalidate_clean(1);
        assert!(!e.is_present(1));
    }

    #[test]
    fn lru_order_and_policy_queries() {
        let mut c = StripeCache::new(CacheConfig::default(), 2, 4);
        c.ensure(0).write(0, &[1; 4]);
        c.ensure(1).write(0, &[2; 4]);
        c.ensure(2).fill(0, &[3; 4]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dirty_count(), 2);
        assert_eq!(c.oldest(), Some(0));
        assert_eq!(c.oldest_dirty(), Some(0));
        assert_eq!(c.oldest_clean(), Some(2));

        // Touching stripe 0 makes stripe 1 the oldest dirty.
        c.promote(0);
        assert_eq!(c.oldest_dirty(), Some(1));
        assert_eq!(c.dirty_stripes(), vec![0, 1]);

        let mut taken = c.take(1).unwrap();
        taken.mark_clean();
        c.put_back(1, taken);
        assert_eq!(c.dirty_count(), 1);
        c.remove(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.oldest_clean(), Some(1));
    }

    #[test]
    fn a_recycled_entry_starts_empty_and_never_serves_old_bytes() {
        let mut c = StripeCache::new(CacheConfig { max_stripes: 1, dirty_high_water: 1 }, 3, 4);
        let a = c.ensure(0);
        a.write(0, &[0xA1; 4]);
        a.fill(1, &[0xA2; 4]);
        a.mark_clean();
        a.write(2, &[0xA3; 4]);
        c.remove(0);
        assert_eq!(c.spare.len(), 1, "the evicted entry is kept for reuse");

        let b = c.ensure(1);
        assert!((0..3).all(|o| !b.is_present(o) && !b.is_clean(o)));
        assert!(!b.is_dirty() && b.dirty_ordinals().is_empty());
        assert!(c.spare.is_empty(), "stripe 1 reused the evicted entry");

        // B's own elements read back as written; the ordinal it never
        // wrote stays absent rather than exposing A's bytes.
        let b = c.ensure(1);
        b.fill(0, &[0xB1; 4]);
        b.write(2, &[0xB3; 4]);
        assert_eq!((b.element(0), b.element(2)), (&[0xB1; 4][..], &[0xB3; 4][..]));
        assert!(!b.is_present(1));
        assert_eq!(b.dirty_ordinals(), vec![2]);
        assert_eq!(c.dirty_stripes(), vec![1]);
        assert!(c.get(0).is_none());
    }

    #[test]
    fn at_most_spare_entries_are_kept() {
        let mut c = StripeCache::new(CacheConfig::default(), 2, 4);
        for s in 0..5 {
            c.ensure(s);
        }
        for s in 0..5 {
            c.remove(s);
        }
        assert_eq!((c.len(), c.spare.len()), (0, SPARE_ENTRIES));
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn zero_budget_rejected() {
        StripeCache::new(
            CacheConfig { max_stripes: 0, dirty_high_water: 0 },
            2,
            4,
        );
    }
}
