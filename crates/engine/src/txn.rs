//! Transaction handles: the per-level read/write/commit disciplines.

use crate::engine::{Engine, GC_EVERY};
use crate::error::EngineError;
use crate::history::{Op, ReadSrc};
use crate::level::IsolationLevel;
use semcc_lock::{Mode, Target};
use semcc_logic::row::RowPred;
use semcc_mvcc::{CommitConflict, Key, SsiConflict, SsiKey};
use semcc_storage::eval::{empty_env, row_matches};
use semcc_storage::wal::WalRecord;
use semcc_storage::{Row, RowId, Schema, StorageError, Table, Ts, TxnId, Value, View};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxnState {
    Active,
    Committed,
    Aborted,
}

/// A transaction handle.
///
/// Obtained from [`Engine::begin`]; single-threaded (one transaction per
/// thread, many threads per engine). All relational predicates passed to
/// transaction operations must be *concrete* — `RowExpr::Outer` terms are
/// evaluated with an empty environment and therefore never match; callers
/// (the `semcc-txn` interpreter) bind parameters before calling.
///
/// Dropping an active transaction aborts it.
pub struct Txn {
    engine: Arc<Engine>,
    id: TxnId,
    level: IsolationLevel,
    state: TxnState,
    snapshot_ts: Option<Ts>,
    /// Items with our dirty in-place writes (locking levels).
    dirty_items: Vec<String>,
    /// Row slots with our dirty in-place writes (locking levels).
    dirty_rows: Vec<(String, RowId)>,
    /// Private item write buffer (SNAPSHOT).
    buf_items: HashMap<String, Value>,
    /// Private row write buffer (SNAPSHOT): final state per touched slot.
    buf_rows: HashMap<String, BTreeMap<RowId, Option<Row>>>,
    /// Keys written (first-committer-wins bookkeeping; deduplicated).
    write_set: Vec<Key>,
    /// First-read timestamps per key (RC-FCW validation).
    read_ts: HashMap<Key, Ts>,
}

impl Txn {
    pub(crate) fn begin(engine: Arc<Engine>, level: IsolationLevel) -> Txn {
        let id = engine.oracle.next_txn_id();
        // Every level that validates first-committer-wins pins the GC
        // watermark: snapshots read at their timestamp, and RC+FCW's commit
        // check needs the commit-log entries written after it began.
        let pin = if level.fcw() { Some(engine.oracle.begin_snapshot(id)) } else { None };
        let snapshot_ts = pin.filter(|_| level.is_snapshot());
        if level.siread_locks() {
            engine.oracle.ssi_begin(id, snapshot_ts.expect("ssi txn has ts"));
        }
        engine.history.record(id, level, Op::Begin);
        if let Some(wal) = &engine.wal {
            wal.append(WalRecord::Begin { txn: id });
        }
        Txn {
            engine,
            id,
            level,
            state: TxnState::Active,
            snapshot_ts,
            dirty_items: Vec::new(),
            dirty_rows: Vec::new(),
            buf_items: HashMap::new(),
            buf_rows: HashMap::new(),
            write_set: Vec::new(),
            read_ts: HashMap::new(),
        }
    }

    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The engine this transaction belongs to.
    pub fn engine_ref(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// This transaction's isolation level.
    pub fn level(&self) -> IsolationLevel {
        self.level
    }

    /// The snapshot timestamp, for SNAPSHOT transactions.
    pub fn snapshot_ts(&self) -> Option<Ts> {
        self.snapshot_ts
    }

    fn check_active(&self) -> Result<(), EngineError> {
        if self.state == TxnState::Active {
            Ok(())
        } else {
            Err(EngineError::TxnFinished)
        }
    }

    fn note_write(&mut self, key: Key) {
        if !self.write_set.contains(&key) {
            self.write_set.push(key);
        }
    }

    /// Surface an SSI dangerous-structure conflict: record the pivot in the
    /// history (so anomaly trails can name it) and convert to an engine
    /// error. The caller's abort path then releases the SSI record.
    fn ssi_fail(&self, e: SsiConflict) -> EngineError {
        self.engine.history.record(
            self.id,
            self.level,
            Op::SsiAbort { pivot: e.pivot, key: e.key.clone() },
        );
        EngineError::Ssi(e)
    }

    /// Register SIREAD locks for `keys` and run rw-antidependency marking.
    /// No-op below SSI.
    fn ssi_read(&self, keys: &[SsiKey]) -> Result<(), EngineError> {
        if self.level.siread_locks() {
            self.engine.oracle.ssi_on_read(self.id, keys).map_err(|e| self.ssi_fail(e))?;
        }
        Ok(())
    }

    /// Register SSI write intent for `keys` and run rw-antidependency
    /// marking against concurrent SIREAD holders. No-op below SSI.
    fn ssi_write(&self, keys: &[SsiKey]) -> Result<(), EngineError> {
        if self.level.siread_locks() {
            self.engine.oracle.ssi_on_write(self.id, keys).map_err(|e| self.ssi_fail(e))?;
        }
        Ok(())
    }

    /// Record the version timestamp observed by a read (RC-FCW). Using the
    /// *version's* commit timestamp — not `oracle.current_ts()` — is what
    /// makes validation race-free: a concurrent committer may already have
    /// taken a timestamp while its versions are still being installed, and
    /// a read that missed those versions must conflict with it.
    fn note_read_ts(&mut self, key: Key, version_ts: Ts) {
        if self.level == IsolationLevel::ReadCommittedFcw {
            self.read_ts.entry(key).or_insert(version_ts);
        }
    }

    // ------------------------------------------------------------------
    // Conventional items
    // ------------------------------------------------------------------

    /// Read an item under this transaction's isolation discipline.
    pub fn read(&mut self, name: &str) -> Result<Value, EngineError> {
        self.check_active()?;
        let cell = self.engine.store.item(name)?;
        let (value, src) = match self.level {
            IsolationLevel::ReadUncommitted => {
                let c = cell.lock();
                let src = match c.dirty_writer() {
                    Some(w) => ReadSrc::Dirty(w),
                    None => ReadSrc::Committed(c.latest_commit_ts()),
                };
                (c.read_latest().clone(), src)
            }
            IsolationLevel::ReadCommitted | IsolationLevel::ReadCommittedFcw => {
                let target = Target::item(name);
                self.engine.locks.acquire(self.id, target.clone(), Mode::S)?;
                let (v, src, ver_ts) = {
                    let c = cell.lock();
                    let ver_ts = c.latest_commit_ts();
                    match c.dirty_writer() {
                        Some(w) if w == self.id => {
                            (c.read_latest().clone(), ReadSrc::Dirty(self.id), ver_ts)
                        }
                        _ => (c.read_committed().clone(), ReadSrc::Committed(ver_ts), ver_ts),
                    }
                };
                self.engine.locks.release(self.id, &target); // short lock
                self.note_read_ts(Key::item(name), ver_ts);
                (v, src)
            }
            IsolationLevel::RepeatableRead | IsolationLevel::Serializable => {
                self.engine.locks.acquire(self.id, Target::item(name), Mode::S)?;
                let c = cell.lock();
                match c.dirty_writer() {
                    Some(w) if w == self.id => (c.read_latest().clone(), ReadSrc::Dirty(self.id)),
                    _ => (c.read_committed().clone(), ReadSrc::Committed(c.latest_commit_ts())),
                }
            }
            IsolationLevel::Snapshot | IsolationLevel::Ssi => {
                let ts = self.snapshot_ts.expect("snapshot txn has ts");
                let v = match self.buf_items.get(name) {
                    Some(v) => v.clone(),
                    None => {
                        let c = cell.lock();
                        c.read_at(ts)?.clone()
                    }
                };
                self.ssi_read(&[SsiKey::Point(Key::item(name))])?;
                (v, ReadSrc::Snapshot(ts))
            }
        };
        self.engine.history.record(
            self.id,
            self.level,
            Op::Read { key: Key::item(name), value: value.clone(), src },
        );
        Ok(value)
    }

    /// Write an item. All locking levels take a long X lock; SNAPSHOT
    /// buffers privately.
    pub fn write(&mut self, name: &str, value: impl Into<Value>) -> Result<(), EngineError> {
        self.check_active()?;
        let value = value.into();
        if self.level.is_snapshot() {
            if !self.engine.store.has_item(name) {
                return Err(StorageError::NoSuchItem(name.to_string()).into());
            }
            self.ssi_write(&[SsiKey::Point(Key::item(name))])?;
            self.buf_items.insert(name.to_string(), value.clone());
        } else {
            let cell = self.engine.store.item(name)?;
            self.engine.locks.acquire(self.id, Target::item(name), Mode::X)?;
            {
                let mut c = cell.lock();
                let before = match c.dirty_writer() {
                    Some(w) if w == self.id => c.read_latest().clone(),
                    _ => c.read_committed().clone(),
                };
                c.write_dirty(self.id, value.clone())?;
                if let Some(wal) = &self.engine.wal {
                    let lsn = wal.append(WalRecord::ItemWrite {
                        txn: self.id,
                        name: name.to_string(),
                        before,
                        after: value.clone(),
                    });
                    c.stamp_lsn(lsn);
                }
            }
            if !self.dirty_items.iter().any(|n| n == name) {
                self.dirty_items.push(name.to_string());
            }
        }
        self.note_write(Key::item(name));
        self.engine.history.record(
            self.id,
            self.level,
            Op::Write { key: Key::item(name), value: Some(value) },
        );
        Ok(())
    }

    /// Monotone write: store `max(current, floor)` as one atomic
    /// read-modify-write. Locking levels hold the long X lock across the
    /// implicit re-read and the store, so no other transaction's write can
    /// interleave between them — the item analogue of the in-place
    /// `UPDATE ... SET c = c + 1` discipline. SNAPSHOT maxes against the
    /// transaction's own view (buffer, else snapshot); first-committer-wins
    /// validation handles concurrent committers there.
    ///
    /// A non-integer current value is treated as absent (the floor wins).
    /// Only the write is recorded in history: the re-read happens under the
    /// X lock and is not an interference-exposed read.
    pub fn write_max(&mut self, name: &str, floor: i64) -> Result<i64, EngineError> {
        self.check_active()?;
        let stored;
        if self.level.is_snapshot() {
            if !self.engine.store.has_item(name) {
                return Err(StorageError::NoSuchItem(name.to_string()).into());
            }
            let current = match self.buf_items.get(name) {
                Some(v) => v.as_int(),
                None => {
                    let ts = self.snapshot_ts.expect("snapshot txn has ts");
                    let cell = self.engine.store.item(name)?;
                    let c = cell.lock();
                    c.read_at(ts)?.as_int()
                }
            };
            stored = current.map_or(floor, |c| c.max(floor));
            // The implicit re-read is interference-exposed at SSI (it maxes
            // against the snapshot, not the committed state), so register
            // both sides of the read-modify-write.
            self.ssi_read(&[SsiKey::Point(Key::item(name))])?;
            self.ssi_write(&[SsiKey::Point(Key::item(name))])?;
            self.buf_items.insert(name.to_string(), Value::Int(stored));
        } else {
            let cell = self.engine.store.item(name)?;
            self.engine.locks.acquire(self.id, Target::item(name), Mode::X)?;
            {
                let mut c = cell.lock();
                let before = match c.dirty_writer() {
                    Some(w) if w == self.id => c.read_latest().clone(),
                    _ => c.read_committed().clone(),
                };
                stored = before.as_int().map_or(floor, |c| c.max(floor));
                c.write_dirty(self.id, Value::Int(stored))?;
                if let Some(wal) = &self.engine.wal {
                    let lsn = wal.append(WalRecord::ItemWrite {
                        txn: self.id,
                        name: name.to_string(),
                        before,
                        after: Value::Int(stored),
                    });
                    c.stamp_lsn(lsn);
                }
            }
            if !self.dirty_items.iter().any(|n| n == name) {
                self.dirty_items.push(name.to_string());
            }
        }
        self.note_write(Key::item(name));
        self.engine.history.record(
            self.id,
            self.level,
            Op::Write { key: Key::item(name), value: Some(Value::Int(stored)) },
        );
        Ok(stored)
    }

    // ------------------------------------------------------------------
    // Relational operations
    // ------------------------------------------------------------------

    /// SELECT: rows matching `pred`, under the level's read discipline.
    pub fn select(
        &mut self,
        table: &str,
        pred: &RowPred,
    ) -> Result<Vec<(RowId, Row)>, EngineError> {
        self.scan_pred(table, pred, Row::clone)
    }

    /// SELECT COUNT(*): number of rows matching `pred`. Takes the same
    /// locks and records the same history as [`Txn::select`], but copies
    /// no row.
    pub fn count(&mut self, table: &str, pred: &RowPred) -> Result<i64, EngineError> {
        Ok(self.scan_pred(table, pred, |_| ())?.len() as i64)
    }

    /// The read half of SELECT and COUNT: every row matching `pred` under
    /// the level's read discipline, paired with `take` of the row. `take`
    /// runs on the borrowed row, so only what it returns is copied.
    fn scan_pred<T>(
        &mut self,
        table: &str,
        pred: &RowPred,
        take: impl Fn(&Row) -> T,
    ) -> Result<Vec<(RowId, T)>, EngineError> {
        self.check_active()?;
        let t = self.engine.store.table(table)?;
        let matches = |row: &Row| row_matches(&t.schema, row, pred, &empty_env);

        // SERIALIZABLE: long S predicate lock first — phantels are blocked
        // before we even look.
        if self.level.read_predicate_locks() {
            self.engine.locks.acquire(self.id, Target::pred(table, pred.clone()), Mode::S)?;
        }

        let out = match self.level {
            IsolationLevel::ReadUncommitted | IsolationLevel::Snapshot | IsolationLevel::Ssi => {
                let out = self.overlay_scan(&t, table, |row| matches(row).then(|| take(row)));
                // Table-granular SIREAD: covers the predicate, so a
                // concurrent writer of *any* row in this table (including
                // phantoms) raises an rw-antidependency.
                self.ssi_read(&[SsiKey::Table(table.to_string())])?;
                out
            }
            IsolationLevel::ReadCommitted | IsolationLevel::ReadCommittedFcw => {
                let mut out = Vec::new();
                for (id, ()) in self.overlay_scan(&t, table, |row| matches(row).then_some(())) {
                    let target = Target::row(table, id);
                    self.engine.locks.acquire(self.id, target.clone(), Mode::S)?;
                    // Re-read: the row may have changed while we waited.
                    let current =
                        t.read_row_with(self.view(), id, |row| matches(row).then(|| take(row)));
                    self.engine.locks.release(self.id, &target); // short lock
                    if let Some(Some(v)) = current {
                        let ver_ts = t.row_commit_ts(id).unwrap_or(0);
                        self.note_read_ts(Key::row(table, id), ver_ts);
                        out.push((id, v));
                    }
                }
                out
            }
            IsolationLevel::RepeatableRead | IsolationLevel::Serializable => {
                let mut out = Vec::new();
                for (id, ()) in self.overlay_scan(&t, table, |row| matches(row).then_some(())) {
                    self.engine.locks.acquire(self.id, Target::row(table, id), Mode::S)?;
                    let current =
                        t.read_row_with(self.view(), id, |row| matches(row).then(|| take(row)));
                    if let Some(Some(v)) = current {
                        out.push((id, v));
                    }
                }
                out
            }
        };
        if self.engine.history.is_enabled() {
            // Row-granular read provenance: which version each matched row
            // came from, mirroring the per-level disciplines above.
            let src_of = |id: RowId| match self.level {
                IsolationLevel::Snapshot | IsolationLevel::Ssi => {
                    ReadSrc::Snapshot(self.snapshot_ts.expect("snapshot txn has ts"))
                }
                IsolationLevel::ReadUncommitted => match t.row_dirty_writer(id) {
                    Some(w) => ReadSrc::Dirty(w),
                    None => ReadSrc::Committed(t.row_commit_ts(id).unwrap_or(0)),
                },
                _ => match t.row_dirty_writer(id) {
                    Some(w) if w == self.id => ReadSrc::Dirty(self.id),
                    _ => ReadSrc::Committed(t.row_commit_ts(id).unwrap_or(0)),
                },
            };
            for (id, _) in &out {
                self.engine.history.record(
                    self.id,
                    self.level,
                    Op::RowRead { table: table.to_string(), id: *id, src: src_of(*id) },
                );
            }
        }
        self.engine.history.record(
            self.id,
            self.level,
            Op::PredRead {
                table: table.to_string(),
                pred: pred.clone(),
                matched: out.iter().map(|(id, _)| *id).collect(),
            },
        );
        Ok(out)
    }

    /// Which state of each row slot this transaction's reads see.
    fn view(&self) -> View {
        match (self.level, self.snapshot_ts) {
            (IsolationLevel::ReadUncommitted, _) => View::Latest,
            (_, Some(ts)) => View::At(ts),
            _ => View::Own(self.id),
        }
    }

    /// This transaction's view of `table`, filtered and mapped by `f` on
    /// borrowed rows, in id order. A snapshot transaction's private buffer
    /// is overlaid: a buffered update or delete hides the committed row it
    /// changed, and buffered rows (updates and inserts) are tested in its
    /// place. Locking levels buffer nothing, so this is their plain view.
    fn overlay_scan<T>(
        &self,
        t: &Table,
        table: &str,
        mut f: impl FnMut(&Row) -> Option<T>,
    ) -> Vec<(RowId, T)> {
        let Some(buf) = self.buf_rows.get(table).filter(|b| !b.is_empty()) else {
            return t.scan(self.view(), |_, row| f(row));
        };
        let mut out =
            t.scan(self.view(), |id, row| if buf.contains_key(&id) { None } else { f(row) });
        out.extend(buf.iter().filter_map(|(id, state)| Some((*id, f(state.as_ref()?)?))));
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// INSERT a row. Writers at locking levels take a long X predicate lock
    /// on the inserted point (colliding with SERIALIZABLE readers' predicate
    /// locks) plus a long X lock on the new slot.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId, EngineError> {
        self.check_active()?;
        let t = self.engine.store.table(table)?;
        if row.len() != t.schema.arity() {
            return Err(StorageError::ArityMismatch {
                table: table.to_string(),
                expected: t.schema.arity(),
                got: row.len(),
            }
            .into());
        }
        let id = if self.level.is_snapshot() {
            let id = t.reserve_row_id();
            // Point + table write intent: table-granular intent is what
            // collides with SIREAD holders whose predicate the new row
            // would have matched (phantom prevention at SSI).
            self.ssi_write(&[
                SsiKey::Point(Key::row(table, id)),
                SsiKey::Table(table.to_string()),
            ])?;
            self.buf_rows.entry(table.to_string()).or_default().insert(id, Some(row.clone()));
            id
        } else {
            let point = point_pred(&t.schema, &row);
            self.engine.locks.acquire(self.id, Target::pred(table, point), Mode::X)?;
            let id = t.insert_dirty(self.id, row.clone())?;
            if let Some(wal) = &self.engine.wal {
                let lsn = wal.append(WalRecord::RowInsert {
                    txn: self.id,
                    table: table.to_string(),
                    id,
                    row: row.clone(),
                });
                t.stamp_row_lsn(id, lsn);
            }
            // Undo entry first: if the row-lock acquisition fails (an
            // injected timeout — a fresh slot never conflicts naturally),
            // the abort path must still discard the dirty version.
            self.dirty_rows.push((table.to_string(), id));
            self.engine.locks.acquire(self.id, Target::row(table, id), Mode::X)?;
            id
        };
        self.note_write(Key::row(table, id));
        self.engine.history.record(
            self.id,
            self.level,
            Op::RowInsert { table: table.to_string(), id, row },
        );
        Ok(id)
    }

    /// UPDATE ... WHERE: apply `f` to every matching row. Returns the number
    /// of rows updated. Takes a long X predicate lock on `pred` plus long X
    /// row locks on the updated rows.
    pub fn update_where(
        &mut self,
        table: &str,
        pred: &RowPred,
        f: &dyn Fn(&Row) -> Row,
    ) -> Result<usize, EngineError> {
        self.check_active()?;
        let t = self.engine.store.table(table)?;
        let matches = |row: &Row| row_matches(&t.schema, row, pred, &empty_env);
        let mut n = 0;
        if self.level.is_snapshot() {
            let targets = self.overlay_scan(&t, table, |row| matches(row).then(|| row.clone()));
            // The WHERE scan is a predicate read; the matched slots plus the
            // table itself are the write footprint.
            self.ssi_read(&[SsiKey::Table(table.to_string())])?;
            if !targets.is_empty() {
                let mut wkeys: Vec<SsiKey> =
                    targets.iter().map(|(id, _)| SsiKey::Point(Key::row(table, *id))).collect();
                wkeys.push(SsiKey::Table(table.to_string()));
                self.ssi_write(&wkeys)?;
            }
            for (id, row) in targets {
                let new = f(&row);
                self.buf_rows.entry(table.to_string()).or_default().insert(id, Some(new.clone()));
                self.note_write(Key::row(table, id));
                self.engine.history.record(
                    self.id,
                    self.level,
                    Op::RowUpdate { table: table.to_string(), id, row: new },
                );
                n += 1;
            }
        } else {
            self.engine.locks.acquire(self.id, Target::pred(table, pred.clone()), Mode::X)?;
            let candidates = self.overlay_scan(&t, table, |row| matches(row).then_some(()));
            for (id, ()) in candidates {
                self.engine.locks.acquire(self.id, Target::row(table, id), Mode::X)?;
                // Re-read after the (possibly waited-for) lock.
                let Some(row) = t.read_row(self.view(), id) else { continue };
                if !matches(&row) {
                    continue;
                }
                let new = f(&row);
                t.update_dirty(self.id, id, new.clone())?;
                if let Some(wal) = &self.engine.wal {
                    let lsn = wal.append(WalRecord::RowUpdate {
                        txn: self.id,
                        table: table.to_string(),
                        id,
                        before: Some(row.clone()),
                        after: new.clone(),
                    });
                    t.stamp_row_lsn(id, lsn);
                }
                if !self.dirty_rows.contains(&(table.to_string(), id)) {
                    self.dirty_rows.push((table.to_string(), id));
                }
                self.note_write(Key::row(table, id));
                self.engine.history.record(
                    self.id,
                    self.level,
                    Op::RowUpdate { table: table.to_string(), id, row: new },
                );
                n += 1;
            }
        }
        Ok(n)
    }

    /// DELETE ... WHERE. Returns the number of rows deleted. Locking as for
    /// [`Txn::update_where`].
    pub fn delete_where(&mut self, table: &str, pred: &RowPred) -> Result<usize, EngineError> {
        self.check_active()?;
        let t = self.engine.store.table(table)?;
        let matches = |row: &Row| row_matches(&t.schema, row, pred, &empty_env);
        let mut n = 0;
        if self.level.is_snapshot() {
            let targets: Vec<RowId> = self
                .overlay_scan(&t, table, |row| matches(row).then_some(()))
                .into_iter()
                .map(|(id, ())| id)
                .collect();
            // Same SSI footprint as update_where: predicate read plus
            // point + table write intent.
            self.ssi_read(&[SsiKey::Table(table.to_string())])?;
            if !targets.is_empty() {
                let mut wkeys: Vec<SsiKey> =
                    targets.iter().map(|id| SsiKey::Point(Key::row(table, *id))).collect();
                wkeys.push(SsiKey::Table(table.to_string()));
                self.ssi_write(&wkeys)?;
            }
            for id in targets {
                self.buf_rows.entry(table.to_string()).or_default().insert(id, None);
                self.note_write(Key::row(table, id));
                self.engine.history.record(
                    self.id,
                    self.level,
                    Op::RowDelete { table: table.to_string(), id },
                );
                n += 1;
            }
        } else {
            self.engine.locks.acquire(self.id, Target::pred(table, pred.clone()), Mode::X)?;
            let candidates = self.overlay_scan(&t, table, |row| matches(row).then_some(()));
            for (id, ()) in candidates {
                self.engine.locks.acquire(self.id, Target::row(table, id), Mode::X)?;
                let Some(row) = t.read_row(self.view(), id) else { continue };
                if !matches(&row) {
                    continue;
                }
                t.delete_dirty(self.id, id)?;
                if let Some(wal) = &self.engine.wal {
                    let lsn = wal.append(WalRecord::RowDelete {
                        txn: self.id,
                        table: table.to_string(),
                        id,
                        before: Some(row.clone()),
                    });
                    t.stamp_row_lsn(id, lsn);
                }
                if !self.dirty_rows.contains(&(table.to_string(), id)) {
                    self.dirty_rows.push((table.to_string(), id));
                }
                self.note_write(Key::row(table, id));
                self.engine.history.record(
                    self.id,
                    self.level,
                    Op::RowDelete { table: table.to_string(), id },
                );
                n += 1;
            }
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Monitor views (lock-free, unrecorded)
    // ------------------------------------------------------------------

    /// The value this transaction *would* read for `name` right now, with
    /// no locking, no history recording, and no FCW bookkeeping — used by
    /// the runtime assertion monitor to evaluate annotations without
    /// perturbing the schedule.
    pub fn monitor_item(&self, name: &str) -> Option<Value> {
        let cell = self.engine.store.item(name).ok()?;
        match self.level {
            IsolationLevel::ReadUncommitted => Some(cell.lock().read_latest().clone()),
            IsolationLevel::Snapshot | IsolationLevel::Ssi => {
                if let Some(v) = self.buf_items.get(name) {
                    return Some(v.clone());
                }
                let ts = self.snapshot_ts?;
                cell.lock().read_at(ts).ok().cloned()
            }
            _ => {
                let c = cell.lock();
                match c.dirty_writer() {
                    Some(w) if w == self.id => Some(c.read_latest().clone()),
                    _ => Some(c.read_committed().clone()),
                }
            }
        }
    }

    /// The rows this transaction would see in `table` right now (monitor
    /// view; see [`Txn::monitor_item`]).
    pub fn monitor_table(&self, table: &str) -> Option<Vec<(RowId, Row)>> {
        let t = self.engine.store.table(table).ok()?;
        Some(self.overlay_scan(&t, table, |row| Some(row.clone())))
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commit. Consumes the handle; on a first-committer-wins conflict the
    /// transaction is rolled back and the error returned.
    pub fn commit(mut self) -> Result<Ts, EngineError> {
        self.check_active()?;
        let result = self.do_commit();
        match &result {
            Ok(ts) => {
                self.state = TxnState::Committed;
                if ts % GC_EVERY == 0 {
                    self.engine.gc();
                }
            }
            Err(_) => self.finish_abort(),
        }
        result
    }

    fn do_commit(&mut self) -> Result<Ts, EngineError> {
        let engine = self.engine.clone();
        // Fault injection: an artificial first-committer-wins loss at
        // validation, raised before any buffer/dirty state is consumed so
        // the caller's abort path performs the full rollback.
        if let Some(inj) = &engine.faults {
            if inj.on_commit_validate(self.id) {
                return Err(EngineError::Injected(semcc_faults::FaultKind::FcwConflict));
            }
        }
        if self.level.is_snapshot() {
            let snap = self.snapshot_ts.expect("snapshot txn has ts");
            let checks: Vec<(Key, Ts)> = self.write_set.iter().map(|k| (k.clone(), snap)).collect();
            let buf_items = std::mem::take(&mut self.buf_items);
            let buf_rows = std::mem::take(&mut self.buf_rows);
            let id = self.id;
            // WAL ordering: the install records and the Commit record are
            // appended inside the oracle's commit critical section, so no
            // other transaction's records can interleave between them —
            // recovery replays the install group atomically at the Commit.
            // `wm` is the GC watermark (see `Oracle::validate_and_commit_with`).
            let install = |ts: Ts, wm: Ts| {
                for (name, v) in &buf_items {
                    if let Ok(cell) = engine.store.item(name) {
                        let mut c = cell.lock();
                        c.install(ts, v.clone());
                        c.gc(wm);
                        if let Some(wal) = &engine.wal {
                            let lsn = wal.append(WalRecord::ItemInstall {
                                txn: id,
                                name: name.clone(),
                                value: v.clone(),
                            });
                            c.stamp_lsn(lsn);
                        }
                    }
                }
                for (table, rows) in &buf_rows {
                    if let Ok(t) = engine.store.table(table) {
                        for (rid, state) in rows {
                            let _ = t.install(ts, *rid, state.clone(), wm);
                            if let Some(wal) = &engine.wal {
                                let lsn = wal.append(WalRecord::RowInstall {
                                    txn: id,
                                    table: table.clone(),
                                    id: *rid,
                                    row: state.clone(),
                                });
                                t.stamp_row_lsn(*rid, lsn);
                            }
                        }
                    }
                }
                if let Some(wal) = &engine.wal {
                    wal.append_commit(id, ts);
                }
            };
            let ts = if self.level.siread_locks() {
                // SSI: the dangerous-structure precommit check runs inside
                // the oracle's commit critical section, atomically with FCW
                // validation and timestamp assignment.
                engine
                    .oracle
                    .ssi_validate_and_commit_with(self.id, &checks, &self.write_set, install)
                    .map_err(|e| match e {
                        CommitConflict::Fcw(f) => EngineError::Fcw(f),
                        CommitConflict::Ssi(s) => self.ssi_fail(s),
                    })?
            } else {
                engine.oracle.validate_and_commit_with(&checks, &self.write_set, install)?
            };
            engine.oracle.end_snapshot(self.id);
            engine.history.record(self.id, self.level, Op::Commit { ts });
            Ok(ts)
        } else {
            let checks: Vec<(Key, Ts)> = if self.level.fcw() {
                self.write_set
                    .iter()
                    .filter_map(|k| self.read_ts.get(k).map(|ts| (k.clone(), *ts)))
                    .collect()
            } else {
                Vec::new()
            };
            let dirty_items = std::mem::take(&mut self.dirty_items);
            let dirty_rows = std::mem::take(&mut self.dirty_rows);
            let id = self.id;
            let res = engine.oracle.validate_and_commit_with(&checks, &self.write_set, |ts, wm| {
                // Commit record first, inside the critical section and with
                // this transaction's X locks still held: every ItemWrite/Row*
                // record of the transaction already precedes it, and no
                // competing writer can slip a record in between.
                let commit_lsn =
                    engine.wal.as_ref().map(|wal| wal.append_commit(id, ts)).unwrap_or(0);
                for name in &dirty_items {
                    if let Ok(cell) = engine.store.item(name) {
                        let mut c = cell.lock();
                        c.promote(id, ts);
                        c.gc(wm);
                        c.stamp_lsn(commit_lsn);
                    }
                }
                for (table, rid) in &dirty_rows {
                    if let Ok(t) = engine.store.table(table) {
                        t.promote_row(id, *rid, ts, wm);
                        t.stamp_row_lsn(*rid, commit_lsn);
                    }
                }
            });
            match res {
                Ok(ts) => {
                    engine.locks.release_all(self.id);
                    if self.level.fcw() {
                        engine.oracle.end_snapshot(self.id);
                    }
                    engine.history.record(self.id, self.level, Op::Commit { ts });
                    Ok(ts)
                }
                Err(e) => {
                    // Validation failed: restore the undo lists so
                    // finish_abort can roll the dirty writes back.
                    self.dirty_items = dirty_items;
                    self.dirty_rows = dirty_rows;
                    Err(e.into())
                }
            }
        }
    }

    /// Abort (rollback). Consumes the handle.
    pub fn abort(mut self) {
        if self.state == TxnState::Active {
            self.finish_abort();
        }
    }

    fn finish_abort(&mut self) {
        let engine = self.engine.clone();
        // Abort record before releasing any lock: until release_all below,
        // no competing writer can append a record for the items/rows this
        // transaction dirtied, so recovery sees the rollback at the same
        // log position the live engine performed it.
        let abort_lsn =
            engine.wal.as_ref().map(|wal| wal.append(WalRecord::Abort { txn: self.id }));
        for name in std::mem::take(&mut self.dirty_items) {
            if let Ok(cell) = engine.store.item(&name) {
                let mut c = cell.lock();
                c.discard(self.id);
                if let Some(lsn) = abort_lsn {
                    c.stamp_lsn(lsn);
                }
            }
        }
        for (table, id) in std::mem::take(&mut self.dirty_rows) {
            if let Ok(t) = engine.store.table(&table) {
                t.discard_row(self.id, id);
                if let Some(lsn) = abort_lsn {
                    t.stamp_row_lsn(id, lsn);
                }
            }
        }
        self.buf_items.clear();
        self.buf_rows.clear();
        engine.locks.release_all(self.id);
        if self.level.fcw() {
            engine.oracle.end_snapshot(self.id);
        }
        if self.level.siread_locks() {
            // Aborted transactions surrender their SIREAD locks and conflict
            // flags — only *committed* readers keep them.
            engine.oracle.ssi_abort(self.id);
        }
        engine.history.record(self.id, self.level, Op::Abort);
        self.state = TxnState::Aborted;
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if self.state == TxnState::Active {
            self.finish_abort();
        }
    }
}

/// The point predicate of an inserted row: the conjunction of equalities
/// pinning every column to the inserted value. An insert taking an X lock
/// on this predicate collides exactly with readers whose predicate the new
/// row satisfies — literal phantom prevention.
pub fn point_pred(schema: &Schema, row: &Row) -> RowPred {
    RowPred::and(schema.columns.iter().zip(row.iter()).map(|(col, v)| match v {
        Value::Int(i) => RowPred::field_eq_int(col.clone(), *i),
        Value::Str(s) => RowPred::field_eq_str(col.clone(), s.clone()),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, EngineTuning};
    use crate::level::IsolationLevel::*;
    use semcc_logic::row::RowExpr;
    use semcc_logic::CmpOp;
    use std::time::Duration;

    fn row(a: i64, b: i64, c: &str) -> Row {
        vec![Value::Int(a), Value::Int(b), Value::str(c)]
    }

    fn lt(col: &str, v: i64) -> RowPred {
        RowPred::cmp(CmpOp::Lt, RowExpr::field(col), RowExpr::Int(v))
    }

    fn set_row(new: Row) -> impl Fn(&Row) -> Row {
        move |_| new.clone()
    }

    /// The historical scan: copy every row the level sees, overlay the
    /// private buffer through a map, then filter.
    fn scan_then_filter(txn: &Txn, table: &str, pred: &RowPred) -> Vec<(RowId, Row)> {
        let t = txn.engine.store.table(table).expect("table");
        let all = match txn.level {
            ReadUncommitted => t.scan_all(View::Latest),
            Snapshot | Ssi => t.scan_all(View::At(txn.snapshot_ts.expect("snapshot ts"))),
            _ => t.scan_all(View::Own(txn.id)),
        };
        let mut rows: BTreeMap<RowId, Row> = all.into_iter().collect();
        for (id, state) in txn.buf_rows.get(table).into_iter().flatten() {
            match state {
                Some(row) => {
                    rows.insert(*id, row.clone());
                }
                None => {
                    rows.remove(id);
                }
            }
        }
        rows.into_iter().filter(|(_, row)| row_matches(&t.schema, row, pred, &empty_env)).collect()
    }

    /// Filtered scans return exactly what scan-then-filter returned, in the
    /// same id order, at every level and stripe count — over committed
    /// changes made after the reader began, another transaction's dirty
    /// update, insert and delete, and the reader's own writes (dirty in
    /// place, or buffered at SNAPSHOT/SSI).
    #[test]
    fn filtered_scans_match_scan_then_filter() {
        for stripes in [1, 32] {
            for level in IsolationLevel::ALL {
                let e = Arc::new(Engine::with_tuning(
                    EngineConfig { lock_timeout: Duration::from_millis(500), ..Default::default() },
                    EngineTuning {
                        lock_shards: stripes,
                        store_stripes: stripes,
                        history_cap: None,
                    },
                ));
                e.create_table(Schema::new("t", &["a", "b", "c"], &["a"])).expect("table");
                for a in (0..40).chain(60..70).chain(80..84) {
                    let c = if a % 2 == 1 { "odd" } else { "even" };
                    e.load_row("t", row(a, a % 3, c)).expect("load");
                }

                let mut own = e.begin(level);
                // An update that stops matching `a < 50`, a delete, an
                // insert, and an update that starts matching.
                own.update_where("t", &RowPred::field_eq_int("a", 3), &set_row(row(60, 0, "odd")))
                    .expect("own update");
                own.delete_where("t", &RowPred::field_eq_int("a", 5)).expect("own delete");
                own.insert("t", row(7, 1, "odd")).expect("own insert");
                own.update_where("t", &RowPred::field_eq_int("a", 65), &set_row(row(12, 1, "odd")))
                    .expect("own update into range");

                // Committed after `own` began: visible to locking levels,
                // not to snapshots.
                let mut committer = e.begin(ReadCommitted);
                committer
                    .update_where("t", &RowPred::field_eq_int("a", 20), &set_row(row(20, 1, "odd")))
                    .expect("committed update");
                committer.insert("t", row(25, 1, "odd")).expect("committed insert");
                committer.commit().expect("commit");

                // Dirty and uncommitted: only READ UNCOMMITTED sees these.
                let mut other = e.begin(ReadCommitted);
                other
                    .update_where("t", &RowPred::field_eq_int("a", 80), &set_row(row(-1, 1, "odd")))
                    .expect("dirty update");
                other.insert("t", row(85, 1, "odd")).expect("dirty insert");
                other.delete_where("t", &RowPred::field_eq_int("a", 81)).expect("dirty delete");

                // Locking readers must not touch the other writer's rows
                // or predicates, so their predicates stay below 50.
                let mut preds = vec![
                    lt("a", 50),
                    RowPred::and([lt("a", 50), RowPred::field_eq_str("c", "odd")]),
                    RowPred::and([lt("a", 50), RowPred::field_eq_int("b", 1)]),
                    RowPred::and([lt("a", 50), RowPred::not(RowPred::field_eq_str("c", "even"))]),
                ];
                if !level.read_locks() {
                    preds.push(RowPred::True);
                    preds.push(RowPred::not(lt("a", 80)));
                    preds.push(RowPred::field_eq_str("c", "odd"));
                }
                for pred in &preds {
                    let want = scan_then_filter(&own, "t", pred);
                    let got = own.select("t", pred).expect("select");
                    assert_eq!(got, want, "{level} stripes={stripes} {pred:?}");
                    let n = own.count("t", pred).expect("count");
                    assert_eq!(n, want.len() as i64, "{level} stripes={stripes} count {pred:?}");
                }
                let all = own.monitor_table("t").expect("monitor");
                assert_eq!(all, scan_then_filter(&own, "t", &RowPred::True), "{level} monitor");
                let ids =
                    |rows: &[(RowId, Row)]| rows.iter().map(|(id, _)| *id).collect::<Vec<_>>();
                let in_range = own.select("t", &lt("a", 50)).expect("select");
                assert!(ids(&in_range).windows(2).all(|w| w[0] < w[1]), "{level} id order");
                let sees = |a: i64| in_range.iter().any(|(_, r)| r[0] == Value::Int(a));
                assert!(!sees(3) && !sees(5) && sees(7) && sees(12), "{level}: own writes");
                assert_eq!(sees(-1), level == ReadUncommitted, "{level}: dirty update");

                own.abort();
                other.abort();
                assert!(crate::audit::audit_quiescent(&e).clean(), "{level} quiescent");
            }
        }
    }
}
