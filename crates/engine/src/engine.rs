//! The shared engine: storage + lock manager + oracle + history.

use crate::history::History;
use crate::level::IsolationLevel;
use crate::txn::Txn;
use semcc_faults::FaultInjector;
use semcc_lock::manager::LockConfig;
use semcc_lock::LockManager;
use semcc_mvcc::Oracle;
use semcc_storage::wal::{Wal, WalRecord};
use semcc_storage::{Schema, StorageError, Store, Ts, Value, View};
use std::sync::Arc;
use std::time::Duration;

/// Every this many commit timestamps, the committing transaction sweeps
/// the whole engine with [`Engine::gc`]. Commits already prune each version
/// chain they push to; the sweep drops the commit-log entries and row slots
/// that no later push reaches.
pub const GC_EVERY: Ts = 1024;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Lock-wait timeout (waits longer than this abort the waiter).
    pub lock_timeout: Duration,
    /// Whether to record operation histories.
    pub record_history: bool,
    /// Optional deterministic fault injector, consulted at lock
    /// acquisitions and commit validation (and, via [`Engine::faults`], by
    /// client-side harnesses at statement and commit boundaries).
    pub faults: Option<Arc<FaultInjector>>,
    /// Optional write-ahead log. When present, every setup action, dirty
    /// write, commit, and abort appends a record, and crash snapshots
    /// captured by the fault harness can be replayed through
    /// [`crate::recover::recover`].
    pub wal: Option<Arc<Wal>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            lock_timeout: Duration::from_secs(5),
            record_history: true,
            faults: None,
            wal: None,
        }
    }
}

/// Concurrency-layout tuning, separate from [`EngineConfig`] so the many
/// existing single-threaded harnesses keep their exact legacy layout (one
/// lock-table shard, one store stripe, unbounded history) while servers
/// opt into sharding via [`Engine::with_tuning`].
#[derive(Clone, Copy, Debug)]
pub struct EngineTuning {
    /// Lock-table shards (see [`semcc_lock::manager::LockConfig::shards`]).
    pub lock_shards: usize,
    /// Store map / table row-map stripes.
    pub store_stripes: usize,
    /// When recording history, retain at most this many events
    /// (ring-buffer mode with a drop counter); `None` = unbounded.
    pub history_cap: Option<usize>,
}

impl Default for EngineTuning {
    fn default() -> Self {
        EngineTuning { lock_shards: 1, store_stripes: 1, history_cap: None }
    }
}

impl EngineTuning {
    /// The layout `semcc serve` uses: enough shards/stripes that worker
    /// threads on disjoint keys never contend on one global lock.
    pub fn server() -> Self {
        EngineTuning { lock_shards: 32, store_stripes: 32, history_cap: None }
    }
}

/// The transaction engine. Cheaply clonable via `Arc`; one instance serves
/// all threads.
///
/// ```
/// use semcc_engine::{Engine, EngineConfig, IsolationLevel, Value};
/// use std::sync::Arc;
///
/// let engine = Arc::new(Engine::new(EngineConfig::default()));
/// engine.create_item("balance", 100).unwrap();
///
/// let mut txn = engine.begin(IsolationLevel::Serializable);
/// let v = txn.read("balance").unwrap().as_int().unwrap();
/// txn.write("balance", v + 25).unwrap();
/// txn.commit().unwrap();
///
/// assert_eq!(engine.peek_item("balance").unwrap(), Value::Int(125));
/// ```
pub struct Engine {
    pub(crate) store: Arc<Store>,
    pub(crate) locks: Arc<LockManager>,
    pub(crate) oracle: Arc<Oracle>,
    pub(crate) history: Arc<History>,
    pub(crate) faults: Option<Arc<FaultInjector>>,
    pub(crate) wal: Option<Arc<Wal>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Build an engine with the legacy single-shard layout.
    pub fn new(config: EngineConfig) -> Self {
        Engine::with_tuning(config, EngineTuning::default())
    }

    /// Build an engine with an explicit concurrency layout (lock-table
    /// shards, store stripes, bounded history) — the server constructor.
    pub fn with_tuning(config: EngineConfig, tuning: EngineTuning) -> Self {
        let history = match (config.record_history, tuning.history_cap) {
            (false, _) => History::disabled(),
            (true, Some(cap)) => History::bounded(cap),
            (true, None) => History::new(),
        };
        Engine {
            store: Arc::new(Store::with_stripes(tuning.store_stripes)),
            locks: Arc::new(LockManager::new(LockConfig {
                wait_timeout: config.lock_timeout,
                injector: config.faults.clone(),
                shards: tuning.lock_shards,
            })),
            oracle: Arc::new(Oracle::new()),
            history: Arc::new(history),
            faults: config.faults,
            wal: config.wal,
        }
    }

    /// The shared lock manager (server metrics: shard count, contention
    /// counters).
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The shared oracle (server metrics: commit/FCW counters, watermark).
    pub fn oracle(&self) -> &Arc<Oracle> {
        &self.oracle
    }

    /// Create a conventional item with an initial value (timestamp 0).
    pub fn create_item(
        &self,
        name: impl Into<String>,
        v: impl Into<Value>,
    ) -> Result<(), StorageError> {
        let name = name.into();
        let v = v.into();
        self.store.create_item(name.clone(), v.clone())?;
        if let Some(wal) = &self.wal {
            let lsn = wal.append(WalRecord::CreateItem { name: name.clone(), initial: v });
            if let Ok(cell) = self.store.item(&name) {
                cell.lock().stamp_lsn(lsn);
            }
        }
        Ok(())
    }

    /// Create a table.
    pub fn create_table(&self, schema: Schema) -> Result<(), StorageError> {
        self.store.create_table(schema.clone())?;
        if let Some(wal) = &self.wal {
            wal.append(WalRecord::CreateTable { schema });
        }
        Ok(())
    }

    /// Bulk-load a committed row (timestamp 0 — initial state).
    pub fn load_row(&self, table: &str, row: Vec<Value>) -> Result<u64, StorageError> {
        let t = self.store.table(table)?;
        let id = t.load_row(0, row.clone())?;
        if let Some(wal) = &self.wal {
            let lsn = wal.append(WalRecord::LoadRow { table: table.to_string(), id, row });
            t.stamp_row_lsn(id, lsn);
        }
        Ok(id)
    }

    /// Begin a transaction at the given isolation level.
    pub fn begin(self: &Arc<Self>, level: IsolationLevel) -> Txn {
        Txn::begin(self.clone(), level)
    }

    /// Administrative peek at an item's latest committed value.
    pub fn peek_item(&self, name: &str) -> Result<Value, StorageError> {
        self.store.peek_committed(name)
    }

    /// Administrative scan of a table's committed rows.
    pub fn peek_table(&self, table: &str) -> Result<Vec<(u64, Vec<Value>)>, StorageError> {
        Ok(self.store.table(table)?.scan_all(View::Committed))
    }

    /// The shared history.
    pub fn history(&self) -> &Arc<History> {
        &self.history
    }

    /// The shared store (for checkers and auditors).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The configured fault injector, if any. Client-side harnesses
    /// (Stepper, workload drivers) consult it at statement and commit
    /// boundaries; the engine itself wires it into the lock manager and
    /// commit validation.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// The configured write-ahead log, if any. Harnesses use it to flush
    /// at barriers, capture crash snapshots, and feed recovery audits.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Deterministic state reset: drop all data, locks, history, and
    /// oracle state, returning the engine to the state of a freshly built
    /// one. After a reset, re-seeding the same initial state and running
    /// the same schedule reproduces identical txn ids, timestamps, and
    /// histories — the property the schedule-space explorer
    /// (`semcc-explore`) relies on to replay thousands of interleavings on
    /// one engine. Only sound when no transaction is in flight.
    pub fn reset(&self) {
        self.locks.clear();
        self.store.clear();
        self.oracle.reset();
        self.history.clear();
    }

    /// Garbage-collect versions nobody can read anymore.
    pub fn gc(&self) {
        let watermark = self.oracle.watermark();
        self.store.gc(watermark);
        self.oracle.gc_log(watermark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_and_peek() {
        let e = Arc::new(Engine::default());
        e.create_item("bal", 100).expect("item");
        assert_eq!(e.peek_item("bal").expect("peek"), Value::Int(100));
        e.create_table(Schema::new("t", &["a", "b"], &["a"])).expect("table");
        e.load_row("t", vec![Value::Int(1), Value::Int(2)]).expect("row");
        assert_eq!(e.peek_table("t").expect("scan").len(), 1);
    }

    #[test]
    fn reset_reproduces_ids_timestamps_and_history() {
        let run = |e: &Arc<Engine>| {
            e.create_item("x", 1).expect("item");
            let mut t = e.begin(IsolationLevel::Serializable);
            let v = t.read("x").expect("read").as_int().expect("int");
            t.write("x", v + 1).expect("write");
            let ts = t.commit().expect("commit");
            (ts, e.history().events())
        };
        let e = Arc::new(Engine::default());
        let first = run(&e);
        e.reset();
        assert!(e.peek_item("x").is_err(), "reset drops all items");
        assert!(e.history().is_empty(), "reset drops the history");
        let second = run(&e);
        assert_eq!(first.0, second.0, "commit timestamps replay identically");
        assert_eq!(
            format!("{:?}", first.1),
            format!("{:?}", second.1),
            "histories replay identically"
        );
    }
}
