//! Property suite for the per-source series cache.
//!
//! Random per-target body sequences are ingested twice: through one
//! [`SeriesCache`] per target into WAL-backed databases, and through the
//! uncached reference (`exposition_to_batch` + `append_batch`) into twin
//! databases. Series appear and vanish between passes; label values carry
//! escaped `"`, `\`, newlines, `}` and `#`; lines carry exemplars, explicit
//! timestamps (some out of order), NaN/±Inf, duplicates, and malformed
//! lines anywhere in the body. Deletes, retention, resyncs and a switch to
//! a second database are interleaved with the passes. Both sides must
//! agree on every pass's outcome and sample count, on the full series
//! dump after every step, on the WAL bytes (same series ids, create
//! records and sample records), and on what `Tsdb::open` recovers.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::LabelMatcher;
use ceems_tsdb::scrape::exposition_to_batch;
use ceems_tsdb::wal::{FsyncMode, WalOptions};
use ceems_tsdb::{SeriesCache, Tsdb, TsdbConfig};
use proptest::prelude::*;

static DIR_ID: AtomicU64 = AtomicU64::new(0);

const PASS_MS: i64 = 15_000;
const TARGETS: usize = 2;

/// Series templates: `(name, rendered label block)`. Every template renders
/// one way, and no two templates stamp to the same series, so the distinct
/// templates in a body are its distinct series.
const TEMPLATES: &[(&str, &str)] = &[
    ("plain", ""),
    ("power_watts", r#"{socket="0"}"#),
    ("power_watts", r#"{socket="1"}"#),
    ("quoted", r#"{v="say \"hi\""}"#),
    ("braces", r#"{v="a}b{c",w="x"}"#),
    ("hashes", r##"{v="#1 # {not=\"exemplar\"} 2"}"##),
    ("escapes", r#"{v="back\\slash\nnewline"}"#),
    ("spaced", r#"{ a="1" , b="x y" }"#),
    ("empty_block", "{}"),
    ("dup_label", r#"{a="1",a="2"}"#),
    ("own_instance", r#"{instance="exporter-says",k="v"}"#),
    ("unicode", r#"{v="énergie ⚡"}"#),
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ceems-series-cache-{tag}-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config() -> TsdbConfig {
    TsdbConfig {
        shards: 4,
        retention_ms: 60_000,
        query_threads: 1,
        posting_cache_size: 16,
    }
}

fn wal_opts() -> WalOptions {
    WalOptions {
        segment_bytes: 4096,
        fsync: FsyncMode::Never,
    }
}

#[derive(Clone, Debug)]
enum LineSpec {
    /// A well-formed sample line of template `tmpl`.
    Good {
        tmpl: usize,
        value: u8,
        ts: u8,
        exemplar: bool,
    },
    /// A malformed line; some keep a cached series text and break the tail.
    Bad { kind: u8, tmpl: usize },
}

#[derive(Clone, Debug)]
enum Step {
    Pass { target: usize, lines: Vec<LineSpec> },
    Delete { tmpl: usize },
    Retention,
    Resync,
    SwitchDb,
}

fn line_strategy() -> impl Strategy<Value = LineSpec> {
    prop_oneof![
        14 => (0..TEMPLATES.len(), 0..6u8, 0..6u8, 0..4u8).prop_map(|(tmpl, value, ts, ex)| {
            LineSpec::Good { tmpl, value, ts, exemplar: ex == 0 }
        }),
        1 => (0..7u8, 0..TEMPLATES.len()).prop_map(|(kind, tmpl)| LineSpec::Bad { kind, tmpl }),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        10 => (0..TARGETS, proptest::collection::vec(line_strategy(), 0..14))
            .prop_map(|(target, lines)| Step::Pass { target, lines }),
        1 => (0..TEMPLATES.len()).prop_map(|tmpl| Step::Delete { tmpl }),
        1 => Just(Step::Retention),
        1 => Just(Step::Resync),
        1 => Just(Step::SwitchDb),
    ]
}

fn render_line(spec: &LineSpec, now_ms: i64, out: &mut String) {
    match spec {
        LineSpec::Good {
            tmpl,
            value,
            ts,
            exemplar,
        } => {
            let (name, block) = TEMPLATES[*tmpl];
            let v = match value {
                0 => "NaN".to_string(),
                1 => "+Inf".to_string(),
                2 => "-Inf".to_string(),
                n => format!("{}", f64::from(*n) * 1.25 + now_ms as f64 / 1000.0),
            };
            out.push_str(&format!("{name}{block} {v}"));
            match ts {
                // Explicit timestamps: current, older (out of order once
                // the series moved past it), and ahead of the pass.
                0 => out.push_str(&format!(" {now_ms}")),
                1 => out.push_str(&format!(" {}", now_ms - 40_000)),
                2 => out.push_str(&format!(" {}", now_ms + 1_000)),
                _ => {}
            }
            if *exemplar {
                out.push_str(r#" # {trace_id="0af7651916cd43dd"} 0.5"#);
            }
        }
        LineSpec::Bad { kind, tmpl } => {
            let (name, block) = TEMPLATES[*tmpl];
            let line = match kind {
                0 => "{oops} 1".to_string(),
                1 => format!("{name}{{a=}} 1"),
                2 => format!("{name}{block} notanumber"),
                3 => format!("{name}{block} 1 2 3"),
                4 => format!("{name}{block}"),
                5 => format!("{name}{block} 1 # nolabels 2"),
                _ => format!("{name}{{v=\"unterminated}} 1"),
            };
            out.push_str(&line);
        }
    }
    out.push('\n');
}

fn render_body(lines: &[LineSpec], now_ms: i64) -> String {
    let mut body = String::from("# HELP plain A plain gauge.\n# TYPE plain gauge\n\n");
    for spec in lines {
        render_line(spec, now_ms, &mut body);
    }
    body
}

fn target_labels(target: usize) -> (String, String, Vec<(String, String)>) {
    (
        format!("node-{target}:9100"),
        "ceems".to_string(),
        vec![("nodegroup".to_string(), format!("group-{}", target % 2))],
    )
}

/// Series dump with values compared by bit pattern (NaN-safe).
fn dump(db: &Tsdb) -> Vec<(LabelSet, Vec<(i64, u64)>)> {
    db.select(&[], i64::MIN, i64::MAX)
        .into_iter()
        .map(|s| {
            let samples = s.samples.iter().map(|x| (x.t_ms, x.v.to_bits())).collect();
            ((*s.labels).clone(), samples)
        })
        .collect()
}

fn counters(db: &Tsdb) -> (usize, u64, u64) {
    (
        db.series_count(),
        db.samples_appended(),
        db.out_of_order_dropped(),
    )
}

/// Every file of a WAL directory, by name.
fn wal_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

/// One side of the comparison: two databases (the second is what a
/// failover re-points the writer at) and which one is current.
struct Side {
    dirs: [PathBuf; 2],
    dbs: [Tsdb; 2],
    current: usize,
}

impl Side {
    fn new(tag: &str) -> Side {
        let dirs = [temp_dir(&format!("{tag}-0")), temp_dir(&format!("{tag}-1"))];
        let dbs = [
            Tsdb::open(&dirs[0], wal_opts(), config()).unwrap(),
            Tsdb::open(&dirs[1], wal_opts(), config()).unwrap(),
        ];
        Side {
            dirs,
            dbs,
            current: 0,
        }
    }

    fn db(&self) -> &Tsdb {
        &self.dbs[self.current]
    }

    fn event(&mut self, step: &Step, now_ms: i64) {
        match step {
            Step::Delete { tmpl } => {
                self.db()
                    .delete_series(&[LabelMatcher::eq("__name__", TEMPLATES[*tmpl].0)]);
            }
            Step::Retention => {
                self.db().enforce_retention(now_ms);
            }
            Step::Resync => {
                self.db().clear_for_resync();
            }
            Step::SwitchDb => self.current = 1 - self.current,
            Step::Pass { .. } => unreachable!(),
        }
    }
}

fn check_script(steps: Vec<Step>) {
    let mut cached = Side::new("cached");
    let mut oracle = Side::new("oracle");
    let mut caches: Vec<SeriesCache> = (0..TARGETS)
        .map(|t| {
            let (instance, job, extra) = target_labels(t);
            SeriesCache::for_target(&instance, &job, &extra)
        })
        .collect();

    for (i, step) in steps.iter().enumerate() {
        let now_ms = (i as i64 + 1) * PASS_MS;
        match step {
            Step::Pass { target, lines } => {
                let body = render_body(lines, now_ms);
                let (instance, job, extra) = target_labels(*target);
                let got = caches[*target].ingest(cached.db(), &body, now_ms);
                let want = exposition_to_batch(&body, &instance, &job, &extra, now_ms);
                if let Ok(batch) = &want {
                    oracle.db().append_batch(batch);
                    // The arrived names the push sink reports.
                    let names: std::collections::BTreeSet<&str> = batch
                        .iter()
                        .filter_map(|(ls, _, _)| ls.metric_name())
                        .collect();
                    assert!(
                        caches[*target].metric_names().iter().eq(names.iter()),
                        "step {i}: metric names"
                    );
                }
                let want = want.map(|batch| batch.len() as u64);
                assert_eq!(got, want, "step {i}: pass outcome\n{body}");
                if got.is_ok() {
                    let distinct: std::collections::BTreeSet<usize> = lines
                        .iter()
                        .map(|l| match l {
                            LineSpec::Good { tmpl, .. } => *tmpl,
                            LineSpec::Bad { .. } => unreachable!("a malformed line fails the pass"),
                        })
                        .collect();
                    assert_eq!(
                        caches[*target].len(),
                        distinct.len(),
                        "step {i}: cache size"
                    );
                }
            }
            event => {
                cached.event(event, now_ms);
                oracle.event(event, now_ms);
            }
        }
        assert_eq!(dump(cached.db()), dump(oracle.db()), "step {i}: {step:?}");
        assert_eq!(
            counters(cached.db()),
            counters(oracle.db()),
            "step {i}: counters"
        );
    }

    for k in 0..2 {
        assert_eq!(
            wal_files(&cached.dirs[k]),
            wal_files(&oracle.dirs[k]),
            "database {k}: WAL bytes differ"
        );
    }
    let live: Vec<_> = (0..2).map(|k| dump(&cached.dbs[k])).collect();
    let Side {
        dirs: cdirs,
        dbs: cdbs,
        ..
    } = cached;
    let Side {
        dirs: odirs,
        dbs: odbs,
        ..
    } = oracle;
    drop(cdbs);
    drop(odbs);
    for k in 0..2 {
        let rc = Tsdb::open(&cdirs[k], wal_opts(), config()).unwrap();
        let ro = Tsdb::open(&odirs[k], wal_opts(), config()).unwrap();
        assert_eq!(
            dump(&rc),
            dump(&ro),
            "database {k}: recovered state differs"
        );
        assert_eq!(dump(&rc), live[k], "database {k}: recovery lost state");
        assert_eq!(
            counters(&rc),
            counters(&ro),
            "database {k}: recovered counters"
        );
    }
    for dir in cdirs.iter().chain(odirs.iter()) {
        let _ = fs::remove_dir_all(dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_ingest_matches_uncached_reference(
        steps in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        check_script(steps);
    }
}

/// A body seen again is served from the cache: no re-parse, the same ids,
/// and hit/miss counters that say so.
#[test]
fn second_pass_hits_and_counts() {
    let db = Tsdb::new(config());
    let mut cache = SeriesCache::for_target("n1:9100", "ceems", &[]);
    let body = "a{x=\"1\"} 1\na{x=\"2\"} 2\nb 3\n";
    assert_eq!(cache.ingest(&db, body, 15_000), Ok(3));
    assert_eq!(db.series_cache_stats(), (0, 3));
    assert_eq!(cache.metric_names(), ["a".to_string(), "b".to_string()]);
    assert_eq!(cache.ingest(&db, body, 30_000), Ok(3));
    assert_eq!(db.series_cache_stats(), (3, 3));
    assert_eq!(db.series_count(), 3);
    assert_eq!(db.samples_appended(), 6);

    // A vanished series leaves the cache at the end of the pass.
    assert_eq!(cache.ingest(&db, "b 4\n", 45_000), Ok(1));
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.metric_names(), ["b".to_string()]);

    // An invalidated cache followed by an empty body names nothing.
    db.delete_series(&[LabelMatcher::eq("__name__", "a")]);
    assert_eq!(cache.ingest(&db, "", 60_000), Ok(0));
    assert!(cache.is_empty());
    assert!(cache.metric_names().is_empty());
}

/// A malformed line anywhere fails the whole body: nothing is created or
/// appended, and the cache keeps serving the next good pass.
#[test]
fn malformed_body_ingests_nothing() {
    let db = Tsdb::new(config());
    let mut cache = SeriesCache::for_target("n1:9100", "ceems", &[]);
    cache.ingest(&db, "a 1\n", 15_000).unwrap();
    let err = cache
        .ingest(&db, "a 2\nfresh 1\na notanumber\n", 30_000)
        .unwrap_err();
    assert!(err.contains("line 3"), "{err}");
    assert_eq!(db.series_count(), 1);
    assert_eq!(db.samples_appended(), 1);
    assert_eq!(cache.ingest(&db, "a 3\n", 45_000), Ok(1));
    assert_eq!(db.series_cache_stats(), (1, 1));
}

/// A deletion invalidates cached ids: the next pass re-creates the series
/// instead of appending to the dead id.
#[test]
fn deletion_invalidates_cached_ids() {
    let db = Tsdb::new(config());
    let mut cache = SeriesCache::for_target("n1:9100", "ceems", &[]);
    cache.ingest(&db, "a 1\nb 1\n", 15_000).unwrap();
    db.delete_series(&[LabelMatcher::eq("__name__", "a")]);
    cache.ingest(&db, "a 2\nb 2\n", 30_000).unwrap();
    let a = db.select(&[LabelMatcher::eq("__name__", "a")], 0, i64::MAX);
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].samples.len(), 1, "only the post-delete sample");
    assert_eq!(db.series_cache_stats(), (0, 4));
}

/// Switching databases (a failover re-point) never carries ids across.
#[test]
fn another_database_starts_cold() {
    let (one, two) = (Tsdb::new(config()), Tsdb::new(config()));
    two.append_batch(&[(
        ceems_metrics::labels! {"__name__" => "other", "instance" => "x"},
        0,
        1.0,
    )]);
    let mut cache = SeriesCache::for_target("n1:9100", "ceems", &[]);
    cache.ingest(&one, "a 1\n", 15_000).unwrap();
    cache.ingest(&two, "a 2\n", 30_000).unwrap();
    assert_eq!(two.series_cache_stats(), (0, 1));
    let a = two.select(&[LabelMatcher::eq("__name__", "a")], 0, i64::MAX);
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].labels.get("instance"), Some("n1:9100"));
}
