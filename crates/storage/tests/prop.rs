//! Model-based randomized tests for the versioned storage layer: an
//! [`ItemCell`]/[`Table`] driven by a random operation sequence must agree
//! with a trivial reference model at every step, and garbage collection
//! must never change what a live snapshot can read.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_storage::{ItemCell, Schema, Table, Value, View};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum ItemOp {
    WriteDirty { txn: u8, v: i64 },
    Promote { txn: u8 },
    Discard { txn: u8 },
    Install { v: i64 },
    Gc { watermark_idx: u8 },
}

fn gen_item_op(rng: &mut StdRng) -> ItemOp {
    match rng.gen_range(0..5) {
        0 => ItemOp::WriteDirty { txn: rng.gen_range(0..3), v: rng.gen_range(-100..100) },
        1 => ItemOp::Promote { txn: rng.gen_range(0..3) },
        2 => ItemOp::Discard { txn: rng.gen_range(0..3) },
        3 => ItemOp::Install { v: rng.gen_range(-100..100) },
        _ => ItemOp::Gc { watermark_idx: rng.gen_range(0..8) },
    }
}

#[test]
fn item_cell_agrees_with_model() {
    let mut rng = StdRng::seed_from_u64(0x5701);
    for case in 0..512 {
        let n_ops = rng.gen_range(1..40);
        let ops: Vec<ItemOp> = (0..n_ops).map(|_| gen_item_op(&mut rng)).collect();

        let mut cell = ItemCell::new(Value::Int(0));
        // model: committed versions (ts, value); dirty slot
        let mut committed: Vec<(u64, i64)> = vec![(0, 0)];
        let mut dirty: Option<(u8, i64)> = None;
        let mut next_ts = 1u64;
        let mut min_live_snapshot = 0u64; // GC watermark floor we have used

        for op in ops {
            match op {
                ItemOp::WriteDirty { txn, v } => {
                    let r = cell.write_dirty(txn as u64, Value::Int(v));
                    match &dirty {
                        Some((holder, _)) if *holder != txn => {
                            assert!(r.is_err(), "case {case}")
                        }
                        _ => {
                            assert!(r.is_ok(), "case {case}");
                            dirty = Some((txn, v));
                        }
                    }
                }
                ItemOp::Promote { txn } => {
                    cell.promote(txn as u64, next_ts);
                    if let Some((holder, v)) = dirty {
                        if holder == txn {
                            committed.push((next_ts, v));
                            dirty = None;
                            next_ts += 1;
                        }
                    }
                }
                ItemOp::Discard { txn } => {
                    cell.discard(txn as u64);
                    if matches!(dirty, Some((holder, _)) if holder == txn) {
                        dirty = None;
                    }
                }
                ItemOp::Install { v } => {
                    cell.install(next_ts, Value::Int(v));
                    committed.push((next_ts, v));
                    next_ts += 1;
                }
                ItemOp::Gc { watermark_idx } => {
                    // GC at (or after) the newest committed version ≤ some
                    // point we still consider live.
                    let idx = (watermark_idx as usize).min(committed.len() - 1);
                    let watermark = committed[idx].0.max(min_live_snapshot);
                    min_live_snapshot = watermark;
                    cell.gc(watermark);
                    // model: drop versions strictly older than the newest ≤ watermark
                    let keep_from =
                        committed.iter().rposition(|(ts, _)| *ts <= watermark).unwrap_or(0);
                    committed.drain(..keep_from);
                }
            }
            // Invariants after every step:
            let model_latest_committed = committed.last().expect("never empty").1;
            assert_eq!(cell.read_committed(), &Value::Int(model_latest_committed), "case {case}");
            let model_latest = dirty.map(|(_, v)| v).unwrap_or(model_latest_committed);
            assert_eq!(cell.read_latest(), &Value::Int(model_latest), "case {case}");
            // Snapshot reads at every surviving version boundary agree.
            for (ts, v) in &committed {
                assert_eq!(cell.read_at(*ts).expect("visible"), &Value::Int(*v), "case {case}");
            }
            assert_eq!(cell.version_count(), committed.len(), "case {case}");
        }
    }
}

#[derive(Clone, Debug)]
enum TableOp {
    InsertDirty { txn: u8, v: i64 },
    UpdateDirtyAll { txn: u8, v: i64 },
    PromoteAll { txn: u8 },
    DiscardAll { txn: u8 },
}

fn gen_table_op(rng: &mut StdRng) -> TableOp {
    match rng.gen_range(0..4) {
        0 => TableOp::InsertDirty { txn: rng.gen_range(0..3), v: rng.gen_range(0..100) },
        1 => TableOp::UpdateDirtyAll { txn: rng.gen_range(0..3), v: rng.gen_range(0..100) },
        2 => TableOp::PromoteAll { txn: rng.gen_range(0..3) },
        _ => TableOp::DiscardAll { txn: rng.gen_range(0..3) },
    }
}

#[test]
fn table_agrees_with_model() {
    let mut rng = StdRng::seed_from_u64(0x5702);
    for case in 0..256 {
        let n_ops = rng.gen_range(1..30);
        let ops: Vec<TableOp> = (0..n_ops).map(|_| gen_table_op(&mut rng)).collect();

        let table = Table::new(Schema::new("t", &["v"], &["v"]));
        // model: slot -> (committed value?, dirty (txn, value)?)
        type Slot = (Option<i64>, Option<(u8, i64)>);
        let mut slots: BTreeMap<u64, Slot> = BTreeMap::new();
        let mut next_ts = 1u64;

        for op in ops {
            match op {
                TableOp::InsertDirty { txn, v } => {
                    let id = table.insert_dirty(txn as u64, vec![Value::Int(v)]).expect("insert");
                    slots.insert(id, (None, Some((txn, v))));
                }
                TableOp::UpdateDirtyAll { txn, v } => {
                    // update every slot this txn may touch (committed or own-dirty)
                    for (id, (committed, dirty)) in slots.iter_mut() {
                        let can = match dirty {
                            Some((holder, _)) => *holder == txn,
                            None => committed.is_some(),
                        };
                        let r = table.update_dirty(txn as u64, *id, vec![Value::Int(v)]);
                        if can {
                            assert!(r.is_ok(), "case {case}");
                            *dirty = Some((txn, v));
                        } else if dirty.is_some() {
                            assert!(r.is_err(), "case {case}: foreign dirty slot must reject");
                        }
                    }
                }
                TableOp::PromoteAll { txn } => {
                    for (id, (committed, dirty)) in slots.iter_mut() {
                        // Watermark = the commit ts: nothing reads older versions here,
                        // so every promote also prunes its chain.
                        table.promote_row(txn as u64, *id, next_ts, next_ts);
                        if let Some((holder, v)) = dirty {
                            if *holder == txn {
                                *committed = Some(*v);
                                *dirty = None;
                            }
                        }
                    }
                    next_ts += 1;
                }
                TableOp::DiscardAll { txn } => {
                    for (id, (_, dirty)) in slots.iter_mut() {
                        table.discard_row(txn as u64, *id);
                        if matches!(dirty, Some((holder, _)) if *holder == txn) {
                            *dirty = None;
                        }
                    }
                    // slots that never committed and lost their dirty are gone
                }
            }
            // committed view must match the model
            let expected: Vec<i64> = slots.values().filter_map(|(c, _)| *c).collect();
            let mut actual: Vec<i64> = table
                .scan_all(View::Committed)
                .into_iter()
                .map(|(_, row)| row[0].as_int().expect("int"))
                .collect();
            let mut expected_sorted = expected.clone();
            expected_sorted.sort_unstable();
            actual.sort_unstable();
            assert_eq!(actual, expected_sorted, "case {case}");
        }
    }
}
