//! Model-based property tests: the relational store (with WAL, recovery
//! and indices) must behave exactly like a plain `BTreeMap` under any
//! sequence of upserts and deletes — including after a crash-and-recover,
//! and after a crash that tore the last WAL append.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use ceems_relstore::{Column, ColumnType, Db, Filter, Query, Schema, Value};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Upsert { key: u8, payload: i64, user: u8 },
    Delete { key: u8 },
    Snapshot,
    Reopen,
    /// Crash mid-append: drop the store, leave a strict prefix (`cut`
    /// picks its length) of a valid record at the end of the newest WAL
    /// segment, and reopen. The torn record was never acknowledged, so the
    /// model does not change.
    TornReopen { cut: u16 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), any::<i64>(), 0u8..4).prop_map(|(key, payload, user)| Op::Upsert {
            key,
            payload,
            user
        }),
        2 => any::<u8>().prop_map(|key| Op::Delete { key }),
        1 => Just(Op::Snapshot),
        1 => Just(Op::Reopen),
        1 => any::<u16>().prop_map(|cut| Op::TornReopen { cut }),
    ]
}

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::required("key", ColumnType::Int),
            Column::required("payload", ColumnType::Int),
            Column::required("user", ColumnType::Text),
        ],
        "key",
        &["user"],
    )
    .unwrap()
}

fn newest_segment(wal_dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(wal_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    segs.pop().expect("a WAL segment")
}

/// The on-disk bytes of one WAL record, taken from a scratch store: an
/// upsert of a key outside the model's `u8` range, so applying any part of
/// it would show up as an extra row.
fn record_bytes(scratch: &Path) -> Vec<u8> {
    let mut db = Db::open(scratch).unwrap();
    db.create_table("t", schema()).unwrap();
    db.upsert("t", vec![Value::Int(1_000), Value::Int(0), "torn".into()])
        .unwrap();
    drop(db);
    let bytes = std::fs::read(newest_segment(&scratch.join("wal"))).unwrap();
    std::fs::remove_dir_all(scratch).ok();
    bytes
}

fn tmpdir(seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ceems-relprop-{}-{}-{}",
        std::process::id(),
        seed,
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn store_matches_model(ops in proptest::collection::vec(arb_op(), 1..60), seed in any::<u64>()) {
        let dir = tmpdir(seed);
        let mut db = Db::open(&dir).unwrap();
        db.create_table("t", schema()).unwrap();
        let mut model: BTreeMap<i64, (i64, String)> = BTreeMap::new();
        let record = record_bytes(&dir.with_extension("record"));

        for op in &ops {
            match op {
                Op::Upsert { key, payload, user } => {
                    let user = format!("user{user}");
                    db.upsert(
                        "t",
                        vec![
                            Value::Int(*key as i64),
                            Value::Int(*payload),
                            user.clone().into(),
                        ],
                    )
                    .unwrap();
                    model.insert(*key as i64, (*payload, user));
                }
                Op::Delete { key } => {
                    let existed_db = db.delete("t", &Value::Int(*key as i64)).unwrap();
                    let existed_model = model.remove(&(*key as i64)).is_some();
                    prop_assert_eq!(existed_db, existed_model);
                }
                Op::Snapshot => db.snapshot().unwrap(),
                Op::Reopen => {
                    drop(db);
                    db = Db::open(&dir).unwrap();
                }
                Op::TornReopen { cut } => {
                    drop(db);
                    let keep = 1 + *cut as usize % (record.len() - 1);
                    std::fs::OpenOptions::new()
                        .append(true)
                        .open(newest_segment(&dir.join("wal")))
                        .unwrap()
                        .write_all(&record[..keep])
                        .unwrap();
                    db = Db::open(&dir).unwrap();
                }
            }

            // Full-state equivalence after every op.
            let rows = db.query("t", &Query::all()).unwrap();
            prop_assert_eq!(rows.len(), model.len());
            for row in &rows {
                let k = row[0].as_int().unwrap();
                let (payload, user) = model.get(&k).expect("row not in model");
                prop_assert_eq!(row[1].as_int().unwrap(), *payload);
                prop_assert_eq!(row[2].as_text().unwrap(), user.as_str());
            }
        }

        // Secondary-index queries agree with a model scan.
        for user_id in 0u8..4 {
            let user = format!("user{user_id}");
            let via_index = db
                .query(
                    "t",
                    &Query::all().filter(Filter::Eq("user".into(), user.as_str().into())),
                )
                .unwrap();
            let via_model = model.values().filter(|(_, u)| *u == user).count();
            prop_assert_eq!(via_index.len(), via_model, "user {}", user);
        }

        // Final recovery check: everything survives a reopen.
        drop(db);
        let db = Db::open(&dir).unwrap();
        prop_assert_eq!(db.table("t").unwrap().len(), model.len());

        std::fs::remove_dir_all(dir).ok();
    }
}
