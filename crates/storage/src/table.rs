//! Versioned relational tables.
//!
//! Rows live in slots identified by a [`RowId`]. Each slot is a [`RowCell`]:
//! a committed version chain of `Option<Row>` (where `None` records a
//! deletion, or a not-yet-committed birth) plus at most one dirty slot.
//! Inserting creates a fresh slot with a dirty birth — visible to READ
//! UNCOMMITTED scans before commit, exactly the phantom/dirty behavior the
//! paper reasons about.

use crate::error::StorageError;
use crate::schema::Schema;
use crate::value::Value;
use crate::wal::Lsn;
use crate::{Ts, TxnId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A tuple: values in schema column order.
pub type Row = Vec<Value>;

/// Stable identifier of a row slot within its table.
pub type RowId = u64;

/// Which state of each row slot a read sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum View {
    /// Newest state including any dirty write (READ UNCOMMITTED).
    Latest,
    /// Newest committed state.
    Committed,
    /// A locking-level transaction's own dirty writes over the newest
    /// committed state; other transactions' dirty writes are invisible.
    Own(TxnId),
    /// Newest committed state at or before a snapshot timestamp.
    At(Ts),
}

/// A versioned row slot.
#[derive(Clone, Debug, Default)]
pub struct RowCell {
    /// Committed versions in increasing timestamp order. `None` = absent.
    committed: Vec<(Ts, Option<Row>)>,
    /// Uncommitted in-place change, if any. `None` payload = dirty delete.
    dirty: Option<(TxnId, Option<Row>)>,
    /// LSN of the newest WAL record touching this slot (0 = never logged).
    lsn: Lsn,
}

impl RowCell {
    /// LSN of the newest WAL record that touched this slot.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// Newest state including dirty (READ UNCOMMITTED view).
    pub fn read_latest(&self) -> Option<&Row> {
        match &self.dirty {
            Some((_, v)) => v.as_ref(),
            None => self.read_committed(),
        }
    }

    /// Newest committed state.
    pub fn read_committed(&self) -> Option<&Row> {
        self.committed.last().and_then(|(_, v)| v.as_ref())
    }

    /// Newest committed state at or before `ts`.
    pub fn read_at(&self, ts: Ts) -> Option<&Row> {
        self.committed.iter().rev().find(|(t, _)| *t <= ts).and_then(|(_, v)| v.as_ref())
    }

    /// The state `view` sees.
    pub fn read(&self, view: View) -> Option<&Row> {
        match view {
            View::Latest => self.read_latest(),
            View::Committed => self.read_committed(),
            View::Own(txn) if self.dirty_writer() == Some(txn) => self.read_latest(),
            View::Own(_) => self.read_committed(),
            View::At(ts) => self.read_at(ts),
        }
    }

    /// The uncommitted writer, if any.
    pub fn dirty_writer(&self) -> Option<TxnId> {
        self.dirty.as_ref().map(|(t, _)| *t)
    }

    /// Latest commit timestamp, if any version is committed.
    pub fn latest_commit_ts(&self) -> Option<Ts> {
        self.committed.last().map(|(t, _)| *t)
    }

    fn write_dirty(&mut self, txn: TxnId, v: Option<Row>) -> Result<(), StorageError> {
        match &self.dirty {
            Some((holder, _)) if *holder != txn => {
                Err(StorageError::DirtyConflict { holder: *holder, writer: txn })
            }
            _ => {
                self.dirty = Some((txn, v));
                Ok(())
            }
        }
    }

    fn promote(&mut self, txn: TxnId, ts: Ts, watermark: Ts) {
        if let Some((holder, v)) = self.dirty.take() {
            if holder == txn {
                self.push(ts, v, watermark);
            } else {
                self.dirty = Some((holder, v));
            }
        }
    }

    /// Append a committed version and drop the versions no reader at or
    /// after `watermark` can see. A slot's first version gets a chain of
    /// capacity one: most rows are written once.
    fn push(&mut self, ts: Ts, v: Option<Row>, watermark: Ts) {
        if self.committed.is_empty() {
            self.committed.reserve_exact(1);
        }
        self.committed.push((ts, v));
        self.gc(watermark);
    }

    fn discard(&mut self, txn: TxnId) {
        if matches!(&self.dirty, Some((holder, _)) if *holder == txn) {
            self.dirty = None;
        }
    }

    /// Whether the slot is garbage (no committed presence, no dirty).
    fn is_garbage(&self, watermark: Ts) -> bool {
        self.dirty.is_none()
            && self
                .committed
                .iter()
                .rev()
                .find(|(t, _)| *t <= watermark)
                .map(|(_, v)| v.is_none())
                .unwrap_or(true)
            && self.committed.iter().all(|(t, v)| *t <= watermark || v.is_none())
    }

    fn gc(&mut self, watermark: Ts) {
        let keep_from = self.committed.iter().rposition(|(t, _)| *t <= watermark).unwrap_or(0);
        if keep_from > 0 {
            self.committed.drain(..keep_from);
        }
    }
}

/// A relational table.
///
/// The row map is split into stripes keyed by `row-id mod stripes` (ids
/// are allocated sequentially, so consecutive inserts round-robin across
/// stripes). Each slot-addressed operation locks only its stripe; scans
/// visit stripes in order and re-sort by id, preserving the id-ascending
/// result order of the historical single-map layout.
#[derive(Debug)]
pub struct Table {
    /// The table's schema.
    pub schema: Schema,
    stripes: Vec<Mutex<BTreeMap<RowId, RowCell>>>,
    next_row: AtomicU64,
}

impl Table {
    /// An empty table with the given schema and a single stripe (the
    /// historical layout).
    pub fn new(schema: Schema) -> Self {
        Table::with_stripes(schema, 1)
    }

    /// An empty table whose row map is split into `n` stripes (clamped to
    /// ≥ 1).
    pub fn with_stripes(schema: Schema, n: usize) -> Self {
        let n = n.max(1);
        Table {
            schema,
            stripes: (0..n).map(|_| Mutex::new(BTreeMap::new())).collect(),
            next_row: AtomicU64::new(1),
        }
    }

    fn rows(&self, id: RowId) -> &Mutex<BTreeMap<RowId, RowCell>> {
        &self.stripes[(id % self.stripes.len() as u64) as usize]
    }

    /// Collect `(id, f(cell))` across every stripe, sorted by id — the
    /// scan order the single-map layout produced for free. Only the kept
    /// entries are sorted.
    fn collect_cells<T>(&self, mut f: impl FnMut(RowId, &RowCell) -> Option<T>) -> Vec<(RowId, T)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            out.extend(
                stripe.lock().iter().filter_map(|(id, cell)| f(*id, cell).map(|v| (*id, v))),
            );
        }
        if self.stripes.len() > 1 {
            out.sort_unstable_by_key(|(id, _)| *id);
        }
        out
    }

    /// Scan the rows `view` sees, in id order. `f` gets each visible row
    /// borrowed, under its stripe's lock, and returns what to keep —
    /// typically `None` when the row fails a predicate, and a clone of the
    /// row when it matches — so a scan copies only what it returns.
    pub fn scan<T>(
        &self,
        view: View,
        mut f: impl FnMut(RowId, &Row) -> Option<T>,
    ) -> Vec<(RowId, T)> {
        self.collect_cells(|id, cell| f(id, cell.read(view)?))
    }

    /// Every row `view` sees, cloned, in id order.
    pub fn scan_all(&self, view: View) -> Vec<(RowId, Row)> {
        self.scan(view, |_, row| Some(row.clone()))
    }

    fn check_arity(&self, row: &Row) -> Result<(), StorageError> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        Ok(())
    }

    /// Insert a committed row directly at timestamp `ts` (bulk loading).
    pub fn load_row(&self, ts: Ts, row: Row) -> Result<RowId, StorageError> {
        let id = self.next_row.fetch_add(1, Ordering::Relaxed);
        self.load_row_at(id, ts, row)?;
        Ok(id)
    }

    /// Bulk-load a committed row into a *specific* slot (recovery replay
    /// of a logged `LoadRow`). Bumps the allocator past `id`.
    pub fn load_row_at(&self, id: RowId, ts: Ts, row: Row) -> Result<(), StorageError> {
        self.check_arity(&row)?;
        self.next_row.fetch_max(id + 1, Ordering::Relaxed);
        let cell = RowCell { committed: vec![(ts, Some(row))], dirty: None, lsn: 0 };
        self.rows(id).lock().insert(id, cell);
        Ok(())
    }

    /// Insert an uncommitted row (dirty birth) for `txn`.
    pub fn insert_dirty(&self, txn: TxnId, row: Row) -> Result<RowId, StorageError> {
        let id = self.next_row.fetch_add(1, Ordering::Relaxed);
        self.insert_dirty_at(txn, id, row)?;
        Ok(id)
    }

    /// Insert an uncommitted row into a *specific* slot (recovery replay
    /// of a logged `RowInsert`). Bumps the allocator past `id`.
    pub fn insert_dirty_at(&self, txn: TxnId, id: RowId, row: Row) -> Result<(), StorageError> {
        self.check_arity(&row)?;
        self.next_row.fetch_max(id + 1, Ordering::Relaxed);
        let cell = RowCell { committed: Vec::new(), dirty: Some((txn, Some(row))), lsn: 0 };
        self.rows(id).lock().insert(id, cell);
        Ok(())
    }

    /// Stamp slot `id` with the LSN of the WAL record describing the
    /// mutation just performed. No-op on a missing slot.
    pub fn stamp_row_lsn(&self, id: RowId, lsn: Lsn) {
        if let Some(cell) = self.rows(id).lock().get_mut(&id) {
            cell.lsn = cell.lsn.max(lsn);
        }
    }

    /// LSN stamped on slot `id`, if the slot exists.
    pub fn row_lsn(&self, id: RowId) -> Option<Lsn> {
        self.rows(id).lock().get(&id).map(|c| c.lsn)
    }

    /// Replace the row in slot `id` with a dirty version for `txn`.
    pub fn update_dirty(&self, txn: TxnId, id: RowId, row: Row) -> Result<(), StorageError> {
        self.check_arity(&row)?;
        let mut rows = self.rows(id).lock();
        let cell = rows.get_mut(&id).ok_or(StorageError::NoVisibleVersion)?;
        cell.write_dirty(txn, Some(row))
    }

    /// Mark slot `id` dirty-deleted for `txn`.
    pub fn delete_dirty(&self, txn: TxnId, id: RowId) -> Result<(), StorageError> {
        let mut rows = self.rows(id).lock();
        let cell = rows.get_mut(&id).ok_or(StorageError::NoVisibleVersion)?;
        cell.write_dirty(txn, None)
    }

    /// Install a committed version of slot `id` directly (SNAPSHOT commit).
    /// `None` commits a delete. A missing slot is created (snapshot insert).
    /// Versions no reader at or after `watermark` can see are dropped, and
    /// so is the slot once it is dead to all of them. A `watermark` of 0
    /// prunes no version; it drops only a slot that never held a row.
    pub fn install(
        &self,
        ts: Ts,
        id: RowId,
        row: Option<Row>,
        watermark: Ts,
    ) -> Result<(), StorageError> {
        if let Some(r) = &row {
            self.check_arity(r)?;
        }
        let mut rows = self.rows(id).lock();
        let cell = rows.entry(id).or_default();
        cell.push(ts, row, watermark);
        if cell.is_garbage(watermark) {
            rows.remove(&id);
        }
        Ok(())
    }

    /// Allocate a fresh slot id without inserting (SNAPSHOT insert buffering).
    pub fn reserve_row_id(&self) -> RowId {
        self.next_row.fetch_add(1, Ordering::Relaxed)
    }

    /// Promote `txn`'s dirty changes on `id` (commit), pruning against
    /// `watermark` as [`Table::install`] does.
    pub fn promote_row(&self, txn: TxnId, id: RowId, ts: Ts, watermark: Ts) {
        let mut rows = self.rows(id).lock();
        if let Some(cell) = rows.get_mut(&id) {
            cell.promote(txn, ts, watermark);
            if cell.is_garbage(watermark) {
                rows.remove(&id);
            }
        }
    }

    /// Discard `txn`'s dirty changes on `id` (abort).
    pub fn discard_row(&self, txn: TxnId, id: RowId) {
        let mut rows = self.rows(id).lock();
        if let Some(cell) = rows.get_mut(&id) {
            cell.discard(txn);
            // A slot that never committed anything can be dropped eagerly.
            if cell.dirty.is_none() && cell.committed.is_empty() {
                rows.remove(&id);
            }
        }
    }

    /// Read one slot under `view`, borrowed by `f`.
    pub fn read_row_with<T>(&self, view: View, id: RowId, f: impl FnOnce(&Row) -> T) -> Option<T> {
        self.rows(id).lock().get(&id).and_then(|c| c.read(view)).map(f)
    }

    /// Read one slot under `view`.
    pub fn read_row(&self, view: View, id: RowId) -> Option<Row> {
        self.read_row_with(view, id, Row::clone)
    }

    /// Latest commit timestamp of a slot (None if never committed).
    pub fn row_commit_ts(&self, id: RowId) -> Option<Ts> {
        self.rows(id).lock().get(&id).and_then(|c| c.latest_commit_ts())
    }

    /// The uncommitted writer of a slot, if any.
    pub fn row_dirty_writer(&self, id: RowId) -> Option<TxnId> {
        self.rows(id).lock().get(&id).and_then(|c| c.dirty_writer())
    }

    /// Every row slot with an uncommitted version, with its writer
    /// (post-abort auditing: an aborted writer must own none).
    pub fn dirty_rows(&self) -> Vec<(RowId, TxnId)> {
        self.collect_cells(|_, c| c.dirty_writer())
    }

    /// Garbage-collect versions below the watermark and drop dead slots.
    pub fn gc(&self, watermark: Ts) {
        for stripe in &self.stripes {
            stripe.lock().retain(|_, cell| {
                if cell.is_garbage(watermark) {
                    return false;
                }
                cell.gc(watermark);
                true
            });
        }
    }

    /// Number of live (committed-visible) rows — for tests and metrics.
    pub fn committed_len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().values().filter(|c| c.read_committed().is_some()).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders() -> Table {
        Table::new(Schema::new("orders", &["order_info", "cust", "date", "done"], &["order_info"]))
    }

    fn row(info: i64, cust: &str, date: i64, done: bool) -> Row {
        vec![Value::Int(info), Value::str(cust), Value::Int(date), Value::bool(done)]
    }

    #[test]
    fn dirty_insert_visible_only_to_latest() {
        let t = orders();
        t.insert_dirty(1, row(1, "a", 10, false)).expect("insert");
        assert_eq!(t.scan_all(View::Latest).len(), 1);
        assert_eq!(t.scan_all(View::Committed).len(), 0);
        assert_eq!(t.scan_all(View::At(100)).len(), 0);
    }

    #[test]
    fn promote_makes_row_committed() {
        let t = orders();
        let id = t.insert_dirty(1, row(1, "a", 10, false)).expect("insert");
        t.promote_row(1, id, 5, 0);
        assert_eq!(t.scan_all(View::Committed).len(), 1);
        assert_eq!(t.scan_all(View::At(4)).len(), 0);
        assert_eq!(t.scan_all(View::At(5)).len(), 1);
    }

    #[test]
    fn abort_insert_removes_slot() {
        let t = orders();
        let id = t.insert_dirty(1, row(1, "a", 10, false)).expect("insert");
        t.discard_row(1, id);
        assert_eq!(t.scan_all(View::Latest).len(), 0);
        assert_eq!(t.committed_len(), 0);
    }

    #[test]
    fn dirty_update_and_delete_rollback() {
        let t = orders();
        let id = t.load_row(1, row(1, "a", 10, false)).expect("load");
        t.update_dirty(2, id, row(1, "a", 10, true)).expect("update");
        assert!(t.read_row(View::Latest, id).expect("present")[3].is_truthy());
        assert!(!t.read_row(View::Committed, id).expect("present")[3].is_truthy());
        t.discard_row(2, id);
        assert!(!t.read_row(View::Latest, id).expect("present")[3].is_truthy());

        t.delete_dirty(3, id).expect("delete");
        assert!(t.read_row(View::Latest, id).is_none());
        t.discard_row(3, id);
        assert!(t.read_row(View::Latest, id).is_some());
    }

    #[test]
    fn committed_delete_hides_row() {
        let t = orders();
        let id = t.load_row(1, row(1, "a", 10, false)).expect("load");
        t.delete_dirty(2, id).expect("delete");
        t.promote_row(2, id, 7, 0);
        assert_eq!(t.scan_all(View::Committed).len(), 0);
        assert_eq!(t.scan_all(View::At(6)).len(), 1, "old snapshot still sees the row");
    }

    #[test]
    fn arity_enforced() {
        let t = orders();
        assert!(matches!(
            t.insert_dirty(1, vec![Value::Int(1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn second_dirty_writer_rejected() {
        let t = orders();
        let id = t.load_row(1, row(1, "a", 10, false)).expect("load");
        t.update_dirty(2, id, row(1, "a", 10, true)).expect("update");
        assert!(matches!(
            t.delete_dirty(3, id),
            Err(StorageError::DirtyConflict { holder: 2, writer: 3 })
        ));
    }

    #[test]
    fn snapshot_install_insert_and_delete() {
        let t = orders();
        let id = t.reserve_row_id();
        t.install(9, id, Some(row(2, "b", 11, false)), 0).expect("install");
        assert_eq!(t.scan_all(View::At(9)).len(), 1);
        assert_eq!(t.scan_all(View::At(8)).len(), 0);
        t.install(12, id, None, 0).expect("install delete");
        assert_eq!(t.scan_all(View::Committed).len(), 0);
    }

    #[test]
    fn at_slot_inserts_bump_allocator_and_stamp_lsns() {
        let t = orders();
        t.load_row_at(7, 1, row(1, "a", 10, false)).expect("load at");
        t.insert_dirty_at(2, 9, row(2, "b", 11, false)).expect("insert at");
        t.stamp_row_lsn(9, 42);
        t.stamp_row_lsn(9, 5); // older stamp must not regress
        assert_eq!(t.row_lsn(9), Some(42));
        assert_eq!(t.row_lsn(7), Some(0));
        // fresh allocation must not collide with the replayed ids
        let id = t.insert_dirty(3, row(3, "c", 12, false)).expect("insert");
        assert_eq!(id, 10);
    }

    #[test]
    fn striped_table_scans_stay_id_ordered() {
        let t = Table::with_stripes(
            Schema::new("orders", &["order_info", "cust", "date", "done"], &["order_info"]),
            4,
        );
        for i in 0..16 {
            t.load_row(1, row(i, "c", i, false)).expect("load");
        }
        let ids: Vec<RowId> = t.scan_all(View::Committed).iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, (1..=16).collect::<Vec<_>>(), "merge across stripes is id-ascending");
        assert_eq!(t.committed_len(), 16);
        t.update_dirty(9, 3, row(3, "c", 3, true)).expect("update");
        assert_eq!(t.dirty_rows(), vec![(3, 9)]);
        t.discard_row(9, 3);
        t.gc(10);
        assert_eq!(t.committed_len(), 16, "live rows survive gc");
    }

    #[test]
    fn gc_drops_dead_slots_and_old_versions() {
        let t = orders();
        let id = t.load_row(1, row(1, "a", 10, false)).expect("load");
        t.update_dirty(2, id, row(1, "a", 10, true)).expect("update");
        t.promote_row(2, id, 5, 0);
        t.delete_dirty(3, id).expect("delete");
        t.promote_row(3, id, 8, 0);
        t.gc(10);
        assert_eq!(t.scan_all(View::Latest).len(), 0);
        // fully dead slot dropped
        assert!(t.read_row(View::At(5), id).is_none());
    }

    #[test]
    fn commits_prune_against_the_watermark() {
        let t = orders();
        let id = t.insert_dirty(1, row(1, "a", 10, false)).expect("insert");
        t.promote_row(1, id, 1, 1);
        {
            let rows = t.rows(id).lock();
            assert_eq!(rows[&id].committed.capacity(), 1, "a new slot holds one version");
        }
        // A reader pinned at 1 keeps version 1 alive across later pushes.
        for ts in 2..5 {
            t.update_dirty(ts, id, row(1, "a", 10 + ts as i64, false)).expect("update");
            t.promote_row(ts, id, ts, 1);
        }
        assert_eq!(t.read_row(View::At(1), id).expect("pinned")[2], Value::Int(10));
        assert_eq!(t.rows(id).lock()[&id].committed.len(), 4);
        // Once the pin is gone, the next push keeps only what `At(5)` sees.
        t.install(5, id, Some(row(1, "a", 99, false)), 5).expect("install");
        assert_eq!(t.rows(id).lock()[&id].committed.len(), 1);
        assert_eq!(t.read_row(View::Committed, id).expect("live")[2], Value::Int(99));
    }

    #[test]
    fn a_delete_no_reader_can_see_past_drops_the_slot() {
        let t = orders();
        let kept = t.load_row(0, row(1, "a", 10, false)).expect("load");
        let dropped = t.load_row(0, row(2, "b", 11, false)).expect("load");
        // Pinned at 0: the old row stays readable, so the slot stays.
        t.delete_dirty(1, kept).expect("delete");
        t.promote_row(1, kept, 1, 0);
        assert!(t.read_row(View::At(0), kept).is_some());
        // Unpinned: the deleted slot goes at once.
        t.install(2, dropped, None, 2).expect("install delete");
        assert!(t.rows(dropped).lock().get(&dropped).is_none());
        // The sweep reclaims the first slot once its reader is gone.
        t.gc(2);
        assert!(t.rows(kept).lock().get(&kept).is_none());
    }
}
