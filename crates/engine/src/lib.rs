//! The multi-level transaction engine.
//!
//! Implements, per transaction, the locking/MVCC disciplines of Berenson et
//! al. (SIGMOD '95) that the paper's theorems assume — with **different
//! transactions allowed to run at different isolation levels in the same
//! system**, exactly the mixed-mode setting of the paper's Section 5:
//!
//! | level | reads | writes | commit |
//! |-------|-------|--------|--------|
//! | READ UNCOMMITTED  | no locks, sees dirty data | long X locks, in place | promote dirty |
//! | READ COMMITTED    | short S locks, committed  | long X locks, in place | promote dirty |
//! | RC + FCW          | as RC, read times recorded | as RC | first-committer-wins validation on read-then-written items |
//! | REPEATABLE READ   | long S locks (tuples only — phantoms possible) | as RC | promote dirty |
//! | SERIALIZABLE      | RR + long S *predicate* locks on SELECTs | + X predicate locks | promote dirty |
//! | SNAPSHOT          | snapshot at start ts, no locks | buffered privately | FCW validation, versions installed atomically |
//!
//! Writers at **every** level take long X locks on the data they write and
//! long X predicate locks on the predicates of their UPDATE/DELETE/INSERT
//! statements (the paper quotes Berenson et al.: "write locks on data items and
//! predicates are long duration").
//!
//! Every operation can be recorded into a [`history::History`] for offline
//! checking by `semcc-checker`.

pub mod anomaly;
pub mod audit;
pub mod engine;
pub mod error;
pub mod history;
pub mod level;
pub mod recover;
pub mod txn;

pub use anomaly::AnomalyKind;
pub use audit::{
    audit_committed_replay, audit_post_abort, audit_quiescent, audit_recovery, committed_digest,
    AuditReport, RecoveryAudit,
};
pub use engine::{Engine, EngineConfig, EngineTuning, GC_EVERY};
pub use error::EngineError;
pub use history::{Event, History, Op, ReadSrc};
pub use level::IsolationLevel;
pub use recover::{recover, Recovered, RecoveryStats};
pub use txn::Txn;

pub use semcc_faults::{FaultEvent, FaultInjector, FaultKind, FaultMix, FaultPlan};
pub use semcc_storage::wal::{CrashSnapshot, Lsn, Wal, WalPolicy, WalRecord};
pub use semcc_storage::{Row, RowId, Ts, TxnId, Value};
