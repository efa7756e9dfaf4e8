//! Version GC under load: long-lived SNAPSHOT and SSI readers run while
//! writers commit thousands of transactions, so the commit-cadence sweep
//! (every `GC_EVERY` commits), prune-on-push and explicit `Engine::gc`
//! calls all fire during their lifetimes. Every read must return the
//! value committed as of the reader's snapshot, and the engine must be
//! quiescent and fully reclaimable at the end.

use semcc_engine::audit::audit_quiescent;
use semcc_engine::{
    Engine, EngineConfig, EngineError, EngineTuning, IsolationLevel, Ts, Value, GC_EVERY,
};
use semcc_logic::row::RowPred;
use semcc_storage::Schema;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const KEYS: i64 = 8;
const WRITERS: i64 = 2;
const TXNS_PER_WRITER: i64 = 1600;

/// Key → value.
type Values = BTreeMap<i64, i64>;

/// What one reader saw: its snapshot, the items and rows, and whether it
/// lived across a cadence sweep.
type Seen = (Ts, Values, Values, bool);

fn item(k: i64) -> String {
    format!("k{k}")
}

fn read_all(t: &mut semcc_engine::Txn) -> Result<(Values, Values), EngineError> {
    let mut items = BTreeMap::new();
    for k in 0..KEYS {
        items.insert(k, t.read(&item(k))?.as_int().expect("int"));
    }
    let rows = t
        .select("t", &RowPred::True)?
        .into_iter()
        .map(|(_, r)| (r[0].as_int().expect("key"), r[1].as_int().expect("val")))
        .collect();
    Ok((items, rows))
}

/// One writer transaction: item `k` and row `k` both become `v`. Every
/// seventh rewrites the row as delete + insert, leaving a dead slot.
fn write(
    e: &Arc<Engine>,
    level: IsolationLevel,
    k: i64,
    v: i64,
    churn: bool,
) -> Result<Ts, EngineError> {
    let mut t = e.begin(level);
    t.write(&item(k), v)?;
    let key = RowPred::field_eq_int("k", k);
    if churn {
        t.delete_where("t", &key)?;
        t.insert("t", vec![Value::Int(k), Value::Int(v)])?;
    } else {
        t.update_where("t", &key, &|r| vec![r[0].clone(), Value::Int(v)])?;
    }
    t.commit()
}

#[test]
fn long_readers_see_their_snapshot_while_gc_runs() {
    let e = Arc::new(Engine::with_tuning(
        EngineConfig { record_history: false, ..EngineConfig::default() },
        EngineTuning::server(),
    ));
    e.create_table(Schema::new("t", &["k", "v"], &["k"])).expect("table");
    for k in 0..KEYS {
        e.create_item(item(k), 0).expect("item");
        e.load_row("t", vec![Value::Int(k), Value::Int(0)]).expect("row");
    }
    // (commit ts, key, value) of every committed write.
    let log: Arc<Mutex<Vec<(Ts, i64, i64)>>> = Arc::default();
    let done = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (e, log) = (e.clone(), log.clone());
            std::thread::spawn(move || {
                let levels = [
                    IsolationLevel::ReadCommitted,
                    IsolationLevel::ReadCommittedFcw,
                    IsolationLevel::Serializable,
                ];
                for i in 0..TXNS_PER_WRITER {
                    let (k, v) = ((i * 5 + w) % KEYS, w * 1_000_000 + i + 1);
                    let level = levels[(i % 3) as usize];
                    // Lock timeouts and FCW losses retry the same write.
                    let ts = loop {
                        if let Ok(ts) = write(&e, level, k, v, i % 7 == 0) {
                            break ts;
                        }
                    };
                    log.lock().expect("log").push((ts, k, v));
                }
            })
        })
        .collect();

    let readers: Vec<_> = [IsolationLevel::Snapshot, IsolationLevel::Ssi]
        .into_iter()
        .map(|level| {
            let (e, done) = (e.clone(), done.clone());
            std::thread::spawn(move || {
                let mut seen: Vec<Seen> = Vec::new();
                while !done.load(Ordering::Acquire) {
                    let mut t = e.begin(level);
                    let snap = t.snapshot_ts().expect("snapshot ts");
                    let first = read_all(&mut t).expect("first read");
                    // Live across a cadence sweep, forcing extra ones.
                    while e.oracle().current_ts() < snap + GC_EVERY + 64
                        && !done.load(Ordering::Acquire)
                    {
                        e.gc();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let spanned = e.oracle().current_ts() / GC_EVERY > snap / GC_EVERY;
                    let again = read_all(&mut t).expect("second read");
                    assert_eq!(first, again, "{level} at {snap}: reads moved under GC");
                    // A read-only transaction is never an SSI pivot.
                    t.commit().expect("read-only commit");
                    seen.push((snap, first.0, first.1, spanned));
                }
                seen
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer");
    }
    done.store(true, Ordering::Release);
    let seen: Vec<Seen> = readers.into_iter().flat_map(|r| r.join().expect("reader")).collect();

    let log = log.lock().expect("log");
    let at = |snap: Ts, k: i64| {
        log.iter().filter(|(ts, key, _)| *key == k && *ts <= snap).max().map_or(0, |(_, _, v)| *v)
    };
    assert!(seen.iter().any(|s| s.3), "some reader lived across a cadence sweep");
    for (snap, items, rows, _) in &seen {
        for k in 0..KEYS {
            assert_eq!(items[&k], at(*snap, k), "item k{k} at snapshot {snap}");
            assert_eq!(rows[&k], at(*snap, k), "row {k} at snapshot {snap}");
        }
    }
    assert!(e.oracle().current_ts() > 2 * GC_EVERY, "the cadence sweep ran");

    let audit = audit_quiescent(&e);
    assert!(audit.clean(), "{:?}", audit.violations);
    e.gc();
    assert_eq!(e.oracle().log_len(), 0, "with nothing in flight the commit log empties");
    for k in 0..KEYS {
        let cell = e.store().item(&item(k)).expect("item");
        assert_eq!(cell.lock().version_count(), 1, "k{k} keeps only its newest version");
    }
}
