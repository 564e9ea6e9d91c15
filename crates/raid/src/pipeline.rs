//! The single I/O pipeline every volume operation lowers into.
//!
//! A [`LoweredOp`] is the normal form of one volume operation against one
//! stripe: element **reads** (backend → scratch cells), a compiled
//! [`XorPlan`] over the scratch, and element **writes** (scratch cells →
//! backend, split data/parity). [`IoPipeline::execute`] runs that form
//! against the [`DiskBackend`], hands the very same [`RequestSet`] to the
//! attached [`DiskArray`] simulator (if any) for timing, and absorbs it
//! into the [`IoLedger`] — so execution, timing, and accounting can never
//! disagree about what was issued.

use disk_sim::{DiskArray, DiskError};
use raid_core::io::{IoLedger, LedgerShard, RequestSet};
use raid_core::{Cell, Stripe, XorPlan};

use crate::backend::{DiskBackend, DiskRequest, JournalEntry};
use crate::partition::{run_partitioned, PartitionMap};

/// A flat element address on the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskAddr {
    /// Physical disk.
    pub disk: usize,
    /// Element index on that disk (`stripe · rows + row`).
    pub index: usize,
}

/// One volume operation lowered to its pipeline normal form. Cells are
/// scratch-stripe coordinates (ops over a taller-than-layout scratch, e.g.
/// the RMW double-buffer, are fine — the plan is compiled for the scratch
/// shape).
#[derive(Debug, Clone, Default)]
pub struct LoweredOp {
    /// Elements fetched from the backend into scratch cells.
    pub reads: Vec<(Cell, DiskAddr)>,
    /// XOR program over the scratch after the reads land.
    pub plan: Option<XorPlan>,
    /// Data elements stored from scratch cells.
    pub data_writes: Vec<(Cell, DiskAddr)>,
    /// Parity elements stored from scratch cells.
    pub parity_writes: Vec<(Cell, DiskAddr)>,
}

impl LoweredOp {
    /// An op that only fetches the given cells.
    pub fn read_only(reads: Vec<(Cell, DiskAddr)>) -> Self {
        LoweredOp { reads, ..Default::default() }
    }

    /// True if the op issues no element requests at all.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.data_writes.is_empty() && self.parity_writes.is_empty()
    }
}

/// Executes [`LoweredOp`]s against a backend, mirrors each request set to
/// an optional timing simulator, and keeps the cumulative [`IoLedger`].
pub struct IoPipeline {
    backend: Box<dyn DiskBackend>,
    ledger: IoLedger,
    sim: Option<DiskArray>,
    /// Simulated latency accumulated by the current operation (reset via
    /// [`IoPipeline::begin_op`]).
    op_latency_ms: f64,
    /// Recycled pre-image buffers for the crash-journal write phase. Every
    /// op used to allocate one fresh `Vec<u8>` per write target; the pool
    /// caps steady-state allocation at the largest write set seen so far.
    pre_image_pool: Vec<Vec<u8>>,
}

impl std::fmt::Debug for IoPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoPipeline")
            .field("backend", &self.backend.kind())
            .field("disks", &self.backend.disks())
            .field("sim", &self.sim.is_some())
            .finish()
    }
}

impl IoPipeline {
    /// Wraps a backend; the ledger starts at zero, no simulator attached.
    pub fn new(backend: Box<dyn DiskBackend>) -> Self {
        let disks = backend.disks();
        IoPipeline {
            backend,
            ledger: IoLedger::new(disks),
            sim: None,
            op_latency_ms: 0.0,
            pre_image_pool: Vec::new(),
        }
    }

    /// The backend (volume-internal maintenance access: unaccounted
    /// verification reads, corruption injection).
    pub fn backend_mut(&mut self) -> &mut dyn DiskBackend {
        self.backend.as_mut()
    }

    /// Immutable backend access.
    pub fn backend(&self) -> &dyn DiskBackend {
        self.backend.as_ref()
    }

    /// The cumulative ledger.
    pub fn ledger(&self) -> &IoLedger {
        &self.ledger
    }

    /// Mutable ledger access (health/retry accounting notes).
    pub fn ledger_mut(&mut self) -> &mut IoLedger {
        &mut self.ledger
    }

    /// Zeroes the ledger (between experiments).
    pub fn reset_ledger(&mut self) {
        self.ledger = IoLedger::new(self.backend.disks());
    }

    /// Attaches a timing simulator; subsequent request sets are timed.
    pub fn attach_sim(&mut self, sim: DiskArray) {
        self.sim = Some(sim);
    }

    /// Detaches and returns the simulator.
    pub fn detach_sim(&mut self) -> Option<DiskArray> {
        self.sim.take()
    }

    /// The attached simulator, if any.
    pub fn sim(&self) -> Option<&DiskArray> {
        self.sim.as_ref()
    }

    /// Mutable simulator access (failure-state sync).
    pub fn sim_mut(&mut self) -> Option<&mut DiskArray> {
        self.sim.as_mut()
    }

    /// Marks the start of a volume-level operation: the per-op latency
    /// accumulator is reset.
    pub fn begin_op(&mut self) {
        self.op_latency_ms = 0.0;
    }

    /// Simulated latency of the operation since [`IoPipeline::begin_op`]
    /// (sum of its request-set makespans; 0 without a simulator).
    pub fn op_latency_ms(&self) -> f64 {
        self.op_latency_ms
    }

    /// Executes one lowered op: fetch reads into `scratch`, run the XOR
    /// plan, store the writes, then commit the request set to the
    /// simulator and ledger. Returns the committed set.
    ///
    /// The write phase is atomic with respect to surviving disks: if a
    /// write fails mid-op, already-stored elements are restored from their
    /// pre-images before the error is returned, so the caller can re-plan
    /// (e.g. degraded) against a consistent array. The pre-images are
    /// journaled through the backend before the first write, so even a
    /// crash mid-phase is rolled back when the volume is reopened.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`DiskError`]; nothing is committed to the
    /// simulator or ledger in that case.
    pub fn execute(&mut self, op: &LoweredOp, scratch: &mut Stripe) -> Result<RequestSet, DiskError> {
        // Debug builds statically audit every op before touching the
        // backend: structural defects in the IR (out-of-scratch cells,
        // duplicate reads/writes, plan/scratch shape skew) are lowering
        // bugs, and executing them would silently corrupt elements.
        #[cfg(debug_assertions)]
        if let Err(e) = crate::audit::audit_lowered(
            op,
            scratch.rows(),
            scratch.cols(),
            self.backend.disks(),
            None,
        ) {
            panic!("lowered op failed static audit: {e}");
        }

        let mut rs = RequestSet::new(self.backend.disks());

        for &(cell, addr) in &op.reads {
            self.backend.read(addr.disk, addr.index, scratch.element_mut(cell))?;
            rs.add_read(addr.disk);
        }

        if let Some(plan) = &op.plan {
            plan.execute(scratch);
        }

        // Write phase, crash-consistently: first gather every target's
        // pre-image (unaccounted internal reads), journal them durably,
        // then apply the writes. A mid-phase disk death is rolled back in
        // place from the pre-images; a crash leaves the journal behind for
        // reopen-time rollback, so the multi-element update is atomic even
        // across process death.
        let es = self.backend.element_size();
        let targets: Vec<(Cell, DiskAddr)> =
            op.data_writes.iter().chain(&op.parity_writes).copied().collect();
        let mut entries: Vec<JournalEntry> = Vec::with_capacity(targets.len());
        let write_result = (|| -> Result<(), DiskError> {
            for &(_, addr) in &targets {
                let mut pre = self.pre_image_pool.pop().unwrap_or_default();
                pre.resize(es, 0);
                match self.backend.read(addr.disk, addr.index, &mut pre) {
                    // A full-element read overwrites any recycled contents.
                    Ok(()) => {}
                    // An unreadable sector we are about to overwrite: the
                    // write remaps it, and zeros are as good an undo image
                    // as any for a sector that had no readable contents.
                    Err(DiskError::LatentSector { .. }) => pre.fill(0),
                    Err(e) => {
                        self.pre_image_pool.push(pre);
                        return Err(e);
                    }
                }
                entries.push(JournalEntry { disk: addr.disk, index: addr.index, data: pre });
            }
            if !targets.is_empty() {
                self.backend.journal_begin(&entries)?;
            }
            let mut failed: Option<(usize, DiskError)> = None;
            for (i, &(cell, addr)) in targets.iter().enumerate() {
                if let Err(e) = self.backend.write(addr.disk, addr.index, scratch.element(cell))
                {
                    failed = Some((i, e));
                    break;
                }
            }
            if let Some((written, e)) = failed {
                // Roll the completed writes back in place. A rollback write
                // to the disk that just died is fine to skip (its content
                // is invalid until rebuilt); any other rollback failure —
                // above all a crash — means the in-place undo is
                // incomplete, so the journal must survive for reopen-time
                // recovery.
                let mut undo_ok = true;
                for entry in entries[..written].iter().rev() {
                    match self.backend.write(entry.disk, entry.index, &entry.data) {
                        Ok(()) | Err(DiskError::DiskFailed { .. }) => {}
                        Err(_) => undo_ok = false,
                    }
                }
                if undo_ok && !targets.is_empty() {
                    let _ = self.backend.journal_commit();
                }
                return Err(e);
            }
            if !targets.is_empty() {
                // If the commit itself fails (crash between the last write
                // and here), the journal survives and reopen rolls the
                // whole op back — consistent with reporting the op as
                // failed.
                self.backend.journal_commit()?;
            }
            Ok(())
        })();
        // Return the pre-image buffers to the pool whatever happened:
        // `journal_begin` made its own durable copy, and the in-place undo
        // (if any) already ran above.
        self.pre_image_pool.extend(entries.into_iter().map(|e| e.data));
        write_result?;
        for &(_, addr) in &op.data_writes {
            rs.add_data_write(addr.disk);
        }
        for &(_, addr) in &op.parity_writes {
            rs.add_parity_write(addr.disk);
        }
        debug_assert_eq!(
            rs,
            crate::audit::predicted_request_set(op, self.backend.disks()),
            "committed request set diverged from the statically predicted one"
        );

        if let Some(sim) = &mut self.sim {
            self.op_latency_ms += sim.run_requests(&rs)?;
        }
        self.ledger.absorb(&rs);
        Ok(rs)
    }

    /// Executes one lowered op per stripe scratch under partitioned
    /// ownership: reads are batched through
    /// [`DiskBackend::submit_batch`], the XOR plans run on up to
    /// `threads` partitioned workers (work-stealing for skew), and the
    /// write phase commits under **one** undo journal covering the whole
    /// batch — all-or-nothing, strictly stronger than committing each op
    /// under its own journal. Accounting is shard-local: each worker
    /// absorbs its ops' request sets into a private [`LedgerShard`];
    /// on success the shards are merged (order-independently) into the
    /// cumulative ledger and returned alongside the per-op request sets,
    /// so callers can audit the merge against the receipts.
    ///
    /// Memory is proportional to the batch, so whole-array passes
    /// (`RaidVolume::encode_all`, `RaidVolume::rebuild_all`) submit one
    /// bounded window of stripes per call: the all-or-nothing unit is one
    /// window, and the rebuild's checkpoint advances between windows.
    ///
    /// Byte-identical to looping [`IoPipeline::execute`] over the ops:
    /// phases touch the backend in op order, and stripes are independent
    /// (no op reads what another writes).
    ///
    /// # Errors
    ///
    /// Returns the first [`DiskError`] any phase produced. A read-phase
    /// error commits nothing; a write-phase error rolls every stored
    /// element of the batch back to its pre-image (journal recovery
    /// covers a crash mid-phase); nothing reaches the simulator or
    /// ledger on any error.
    ///
    /// # Panics
    ///
    /// Panics if `ops`, `scratches`, and `map` disagree on length.
    pub fn execute_batch(
        &mut self,
        ops: &[LoweredOp],
        scratches: &mut [Stripe],
        map: &PartitionMap,
        threads: usize,
    ) -> Result<(Vec<RequestSet>, Vec<LedgerShard>), DiskError> {
        assert_eq!(ops.len(), scratches.len(), "one scratch per op");
        assert_eq!(map.stripes(), ops.len(), "partition map does not fit the batch");
        let disks = self.backend.disks();
        #[cfg(debug_assertions)]
        for (op, scratch) in ops.iter().zip(scratches.iter()) {
            if let Err(e) =
                crate::audit::audit_lowered(op, scratch.rows(), scratch.cols(), disks, None)
            {
                panic!("lowered op failed static audit: {e}");
            }
        }

        // Phase 1 — every op's reads, one batched submission in op order.
        let read_reqs: Vec<DiskRequest> = ops
            .iter()
            .flat_map(|op| {
                op.reads
                    .iter()
                    .map(|&(_, a)| DiskRequest::Read { disk: a.disk, index: a.index })
            })
            .collect();
        let mut completions = self.backend.submit_batch(&read_reqs).into_iter();
        for (op, scratch) in ops.iter().zip(scratches.iter_mut()) {
            for &(cell, _) in &op.reads {
                let bytes = completions
                    .next()
                    .expect("one completion per submitted read")?
                    .expect("read completions carry bytes");
                scratch.element_mut(cell).copy_from_slice(&bytes);
            }
        }

        // Phase 2 — partitioned compute with shard-local accounting: the
        // worker that runs an op's plan also absorbs its (statically
        // predicted, later re-derived) request set into its own shard.
        let (_, shards) =
            run_partitioned(map, disks, scratches, threads, |shard, i, scratch| {
                let op = &ops[i];
                if let Some(plan) = &op.plan {
                    plan.execute(scratch);
                }
                shard.absorb(&crate::audit::predicted_request_set(op, disks));
            });

        // Phase 3 — the batch's write phase under a single undo journal:
        // gather every target's pre-image (batched, unaccounted), journal
        // them durably as one record, then submit the writes. Any failed
        // entry rolls the whole batch back in place; a crash leaves the
        // journal for reopen-time rollback of everything.
        let targets: Vec<(Cell, DiskAddr)> = ops
            .iter()
            .flat_map(|op| op.data_writes.iter().chain(&op.parity_writes).copied())
            .collect();
        if !targets.is_empty() {
            let pre_reqs: Vec<DiskRequest> = targets
                .iter()
                .map(|&(_, a)| DiskRequest::Read { disk: a.disk, index: a.index })
                .collect();
            let mut entries: Vec<JournalEntry> = Vec::with_capacity(targets.len());
            for (completion, &(_, addr)) in
                self.backend.submit_batch(&pre_reqs).into_iter().zip(&targets)
            {
                let data = match completion {
                    Ok(bytes) => bytes.expect("read completions carry bytes"),
                    // An unreadable sector about to be overwritten: the
                    // write remaps it; zeros are as good an undo image as
                    // any for a sector with no readable contents.
                    Err(DiskError::LatentSector { .. }) => {
                        vec![0; self.backend.element_size()]
                    }
                    Err(e) => return Err(e),
                };
                entries.push(JournalEntry { disk: addr.disk, index: addr.index, data });
            }
            self.backend.journal_begin(&entries)?;

            let mut write_reqs: Vec<DiskRequest> = Vec::with_capacity(targets.len());
            for (op, scratch) in ops.iter().zip(scratches.iter()) {
                for &(cell, a) in op.data_writes.iter().chain(&op.parity_writes) {
                    write_reqs.push(DiskRequest::Write {
                        disk: a.disk,
                        index: a.index,
                        data: scratch.element(cell).to_vec(),
                    });
                }
            }
            let write_completions = self.backend.submit_batch(&write_reqs);
            if let Some(first_err) = write_completions
                .iter()
                .find_map(|c| c.as_ref().err())
                .cloned()
            {
                // Roll every *stored* element back in place, newest first.
                // A rollback write to a disk that just died is fine to
                // skip (its content is invalid until rebuilt); any other
                // rollback failure means the in-place undo is incomplete,
                // so the journal must survive for reopen-time recovery.
                let mut undo_ok = true;
                for (entry, completion) in
                    entries.iter().zip(&write_completions).rev()
                {
                    if completion.is_err() {
                        continue;
                    }
                    match self.backend.write(entry.disk, entry.index, &entry.data) {
                        Ok(()) | Err(DiskError::DiskFailed { .. }) => {}
                        Err(_) => undo_ok = false,
                    }
                }
                if undo_ok {
                    let _ = self.backend.journal_commit();
                }
                return Err(first_err);
            }
            self.backend.journal_commit()?;
        }

        // Phase 4 — commit accounting: per-op request sets to the
        // simulator in op order, the merged shards into the ledger once.
        let mut sets = Vec::with_capacity(ops.len());
        for op in ops {
            let rs = crate::audit::predicted_request_set(op, disks);
            if let Some(sim) = &mut self.sim {
                self.op_latency_ms += sim.run_requests(&rs)?;
            }
            sets.push(rs);
        }
        let merged = IoLedger::merge_shards(disks, shards.clone());
        debug_assert_eq!(
            merged.total(),
            sets.iter().map(RequestSet::total).sum::<u64>(),
            "merged shard totals diverged from the per-op receipts"
        );
        self.ledger.merge(&merged);
        Ok((sets, shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultPoint, FaultyBackend, MemBackend};
    use disk_sim::DiskProfile;

    fn addr(disk: usize, index: usize) -> DiskAddr {
        DiskAddr { disk, index }
    }

    #[test]
    fn execute_reads_plans_and_writes() {
        // 1 row × 3 cols: c2 = c0 XOR c1.
        let mut pipe = IoPipeline::new(Box::new(MemBackend::new(3, 1, 4)));
        pipe.backend_mut().write(0, 0, &[1, 2, 3, 4]).unwrap();
        pipe.backend_mut().write(1, 0, &[4, 4, 4, 4]).unwrap();

        let c = Cell::new;
        let plan = XorPlan::from_steps(1, 3, [(c(0, 2), [c(0, 0), c(0, 1)].as_slice())]);
        let op = LoweredOp {
            reads: vec![(c(0, 0), addr(0, 0)), (c(0, 1), addr(1, 0))],
            plan: Some(plan),
            data_writes: vec![],
            parity_writes: vec![(c(0, 2), addr(2, 0))],
        };
        let mut scratch = Stripe::zeroed(1, 3, 4);
        let rs = pipe.execute(&op, &mut scratch).unwrap();
        assert_eq!(rs.total_reads(), 2);
        assert_eq!(rs.parity_writes(), 1);
        let mut out = [0u8; 4];
        pipe.backend_mut().read(2, 0, &mut out).unwrap();
        assert_eq!(out, [5, 6, 7, 0]);
        assert_eq!(pipe.ledger().total(), 3);
    }

    #[test]
    fn sim_times_exactly_what_the_ledger_absorbs() {
        let mut pipe = IoPipeline::new(Box::new(MemBackend::new(2, 1, 4)));
        pipe.attach_sim(DiskArray::new(2, DiskProfile::savvio_10k()));
        let c = Cell::new;
        let op = LoweredOp {
            reads: vec![(c(0, 0), addr(0, 0))],
            plan: None,
            data_writes: vec![(c(0, 1), addr(1, 0))],
            parity_writes: vec![],
        };
        let mut scratch = Stripe::zeroed(1, 2, 4);
        pipe.begin_op();
        pipe.execute(&op, &mut scratch).unwrap();
        assert!(pipe.op_latency_ms() > 0.0);
        assert_eq!(pipe.sim().unwrap().served(), pipe.ledger().per_disk_totals());
    }

    #[test]
    fn execute_batch_matches_serial_execute() {
        // Two independent 1×3 stripes (indices 0 and 1 per disk), each
        // computing c2 = c0 XOR c1.
        let c = Cell::new;
        let make_op = |index: usize| LoweredOp {
            reads: vec![(c(0, 0), addr(0, index)), (c(0, 1), addr(1, index))],
            plan: Some(XorPlan::from_steps(1, 3, [(c(0, 2), [c(0, 0), c(0, 1)].as_slice())])),
            data_writes: vec![],
            parity_writes: vec![(c(0, 2), addr(2, index))],
        };
        let seed = |pipe: &mut IoPipeline| {
            pipe.backend_mut().write(0, 0, &[1, 2, 3, 4]).unwrap();
            pipe.backend_mut().write(1, 0, &[4, 4, 4, 4]).unwrap();
            pipe.backend_mut().write(0, 1, &[8, 8, 8, 8]).unwrap();
            pipe.backend_mut().write(1, 1, &[1, 0, 1, 0]).unwrap();
        };

        let mut serial = IoPipeline::new(Box::new(MemBackend::new(3, 2, 4)));
        seed(&mut serial);
        let mut serial_sets = Vec::new();
        for index in 0..2 {
            let mut scratch = Stripe::zeroed(1, 3, 4);
            serial_sets.push(serial.execute(&make_op(index), &mut scratch).unwrap());
        }

        let mut batched = IoPipeline::new(Box::new(MemBackend::new(3, 2, 4)));
        seed(&mut batched);
        let ops: Vec<LoweredOp> = (0..2).map(make_op).collect();
        let mut scratches = vec![Stripe::zeroed(1, 3, 4); 2];
        let map = crate::partition::PartitionMap::build(2, 2);
        let (sets, shards) = batched.execute_batch(&ops, &mut scratches, &map, 2).unwrap();

        assert_eq!(sets, serial_sets);
        assert_eq!(batched.ledger(), serial.ledger());
        let merged = IoLedger::merge_shards(3, shards);
        assert_eq!(merged.total(), batched.ledger().total());
        // The backends hold identical bytes.
        for index in 0..2 {
            let (mut a, mut b) = ([0u8; 4], [0u8; 4]);
            serial.backend_mut().read(2, index, &mut a).unwrap();
            batched.backend_mut().read(2, index, &mut b).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn execute_batch_failed_write_rolls_back_whole_batch() {
        // The batch performs 4 reads (phase 1) + 2 pre-image reads, then
        // journals and writes; the fault fires on the second write
        // (backend op 8 after the 1 setup write), so the first write must
        // be rolled back to its pre-image and nothing committed.
        let c = Cell::new;
        let inner = MemBackend::new(2, 2, 4);
        let mut faulty =
            FaultyBackend::new(Box::new(inner), vec![FaultPoint { at_op: 8, disk: 1 }]);
        faulty.write(0, 0, &[9, 9, 9, 9]).unwrap(); // op 1 — pre-existing value
        let mut pipe = IoPipeline::new(Box::new(faulty));
        let op_for = |index: usize, disk: usize| LoweredOp {
            reads: vec![(c(0, 0), addr(0, index)), (c(0, 1), addr(1, index))],
            plan: None,
            data_writes: vec![(c(0, disk), addr(disk, index))],
            parity_writes: vec![],
        };
        let ops = vec![op_for(0, 0), op_for(1, 1)];
        let mut scratches = vec![Stripe::zeroed(1, 2, 4); 2];
        scratches[0].set_element(c(0, 0), &[1, 1, 1, 1]);
        scratches[1].set_element(c(0, 1), &[2, 2, 2, 2]);
        let map = crate::partition::PartitionMap::build(2, 1);
        let err = pipe.execute_batch(&ops, &mut scratches, &map, 1).unwrap_err();
        assert_eq!(err, DiskError::DiskFailed { disk: 1 });
        // Disk 0's committed write was rolled back to its pre-image.
        let mut out = [0u8; 4];
        pipe.backend_mut().read(0, 0, &mut out).unwrap();
        assert_eq!(out, [9, 9, 9, 9]);
        assert_eq!(pipe.ledger().total(), 0);
    }

    #[test]
    fn failed_write_rolls_back_previous_writes() {
        // Fault fires on the 4th backend op. The op below performs:
        // read (1, after the setup write) + pre-image read on disk 0 (3) +
        // pre-image read on disk 1 (4 → FAULT): the write phase aborts
        // while gathering pre-images, before anything is stored.
        let inner = MemBackend::new(2, 1, 4);
        let mut faulty = FaultyBackend::new(
            Box::new(inner),
            vec![FaultPoint { at_op: 4, disk: 1 }],
        );
        faulty.write(0, 0, &[9, 9, 9, 9]).unwrap(); // op 1 — pre-existing value
        let mut pipe = IoPipeline::new(Box::new(faulty));

        let c = Cell::new;
        let mut scratch = Stripe::zeroed(1, 2, 4);
        scratch.set_element(c(0, 0), &[1, 1, 1, 1]);
        scratch.set_element(c(0, 1), &[2, 2, 2, 2]);
        let op = LoweredOp {
            reads: vec![(c(0, 1), addr(1, 0))], // op 2
            plan: None,
            data_writes: vec![(c(0, 0), addr(0, 0)), (c(0, 1), addr(1, 0))],
            parity_writes: vec![],
        };
        scratch.set_element(c(0, 0), &[1, 1, 1, 1]);
        let err = pipe.execute(&op, &mut scratch).unwrap_err();
        assert_eq!(err, DiskError::DiskFailed { disk: 1 });
        // Disk 0's write was rolled back to its pre-image.
        let mut out = [0u8; 4];
        pipe.backend_mut().read(0, 0, &mut out).unwrap();
        assert_eq!(out, [9, 9, 9, 9]);
        // Nothing reached the ledger.
        assert_eq!(pipe.ledger().total(), 0);
    }
}
