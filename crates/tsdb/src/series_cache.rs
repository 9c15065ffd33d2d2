//! The per-source series cache: the one ingest path for exposition text.
//!
//! A scrape target, a push publisher or a meta target sends nearly the
//! same series every pass. Each such source owns one [`SeriesCache`]. It
//! maps the raw series text of a line — the metric name through the
//! closing `}` of its label block, exactly the prefix the line parser
//! consumed when the entry was inserted — to the series id it resolved to.
//! A line whose series text is cached skips label parsing, label stamping,
//! `LabelSet` construction, fingerprinting and the index lookup: only its
//! value, timestamp and exemplar are parsed. A miss parses the line in
//! full and stamps it, exactly as [`crate::scrape::exposition_to_batch`]
//! does.
//!
//! Lookups are by [`series_text_len`], a scan that does not parse. The key
//! rule is sound because the scan ends a metric name where the parser does
//! and the parser never looks past the byte it stops at: a line whose
//! scanned series text equals a cached key parses to the key's series.
//!
//! **Validity.** Resolved ids are valid against one database while it
//! removes no series. A cache remembers the database's instance token and
//! removal count (its index stamp) and clears itself when
//! either differs: after a delete, retention pass or resync, or when a
//! failover re-points the writer at another database, every line resolves
//! again and nothing is appended to a dead or foreign id.
//!
//! **Bounds.** Entries not seen in a successful pass are dropped at its
//! end, so a cache holds exactly the live series of its source.

use std::collections::{BTreeSet, HashMap};

use ceems_metrics::labels::{LabelSet, LabelSetBuilder, METRIC_NAME_LABEL};
use ceems_metrics::parse::{
    metric_name_len, parse_sample_tail, parse_series, sample_lines, series_text_len,
};

use crate::storage::{IndexStamp, Tsdb};
use crate::types::SeriesId;

/// Stamps a source's labels onto a parsed series: `__name__` first, then
/// `stamp` in order (a later label replaces an earlier one of the same
/// name, the exporter's own included).
pub(crate) fn stamp_series<'a>(
    name: &str,
    labels: LabelSet,
    stamp: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> LabelSet {
    let mut b = LabelSetBuilder::from(labels).label(METRIC_NAME_LABEL, name);
    for (k, v) in stamp {
        b = b.label(k, v);
    }
    b.build()
}

struct Entry {
    id: SeriesId,
    /// The metric name is the key's first `name_len` bytes.
    name_len: usize,
    /// The last pass that saw this series text.
    seen: u64,
}

/// One sample of a pass after the scan.
struct Line<'a> {
    /// The series text (the cache key).
    key: &'a str,
    t_ms: i64,
    v: f64,
    series: Series,
}

enum Series {
    /// Cached id; valid if the cache still is when the pass commits.
    Cached(SeriesId),
    /// Not cached: the stamped labels to resolve.
    New(LabelSet),
}

/// The series cache of one ingest source. See the module docs.
pub struct SeriesCache {
    stamp: Vec<(String, String)>,
    entries: HashMap<Box<str>, Entry>,
    valid_for: Option<IndexStamp>,
    pass: u64,
    /// Distinct metric names of the entries, sorted.
    names: Vec<String>,
    /// The entry set changed since `names` was built.
    names_stale: bool,
}

impl SeriesCache {
    /// A cache stamping `stamp` onto every series, in order, after
    /// `__name__`.
    pub fn new(stamp: Vec<(String, String)>) -> SeriesCache {
        SeriesCache {
            stamp,
            entries: HashMap::new(),
            valid_for: None,
            pass: 0,
            names: Vec::new(),
            names_stale: false,
        }
    }

    /// The cache of a scrape target or push publisher: `instance`, `job`,
    /// then the target-group labels — the stamping of
    /// [`crate::scrape::exposition_to_batch`].
    pub fn for_target(instance: &str, job: &str, extra_labels: &[(String, String)]) -> SeriesCache {
        let mut stamp = vec![
            ("instance".to_string(), instance.to_string()),
            ("job".to_string(), job.to_string()),
        ];
        stamp.extend(extra_labels.iter().cloned());
        SeriesCache::new(stamp)
    }

    /// Cached series texts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct metric names of the last successful pass, sorted, as the
    /// exposition lines spell them.
    pub fn metric_names(&self) -> &[String] {
        &self.names
    }

    /// Ingests one exposition body as one group commit. Timestamp-less
    /// samples get `now_ms`. A parse error anywhere fails the whole body
    /// before any series is created or sample appended. Returns the number
    /// of samples ingested.
    pub fn ingest(&mut self, db: &Tsdb, body: &str, now_ms: i64) -> Result<u64, String> {
        self.ingest_with(db, body, now_ms, &[])
    }

    /// [`Self::ingest`] plus `trailer`: samples appended after the body in
    /// the same group commit, each stamped like a label-less exposition
    /// line `name value` (a scrape's `up`, meta's health series). The
    /// count returned excludes them.
    pub fn ingest_with(
        &mut self,
        db: &Tsdb,
        body: &str,
        now_ms: i64,
        trailer: &[(&str, f64)],
    ) -> Result<u64, String> {
        self.run(db, None, body, now_ms, trailer)
    }

    /// [`Self::ingest`] behind the epoch fence (the failover write router).
    pub(crate) fn ingest_fenced(
        &mut self,
        db: &Tsdb,
        epoch: u64,
        body: &str,
        now_ms: i64,
    ) -> Result<u64, String> {
        self.run(db, Some(epoch), body, now_ms, &[])
    }

    fn run(
        &mut self,
        db: &Tsdb,
        epoch: Option<u64>,
        body: &str,
        now_ms: i64,
        trailer: &[(&str, f64)],
    ) -> Result<u64, String> {
        let lines = self.scan(body, now_ms, trailer)?;
        let samples = (lines.len() - trailer.len()) as u64;
        let resolve = |db: &Tsdb| self.resolve(db, lines);
        match epoch {
            None => db.append_resolved(resolve),
            Some(epoch) => db
                .append_resolved_fenced(epoch, resolve)
                .map_err(|e| e.to_string())?,
        }
        self.sweep();
        Ok(samples)
    }

    /// Phase 1: every line is looked up by its series text, and parsed in
    /// full only on a miss. Touches no database.
    fn scan<'a>(
        &mut self,
        body: &'a str,
        now_ms: i64,
        trailer: &[(&'a str, f64)],
    ) -> Result<Vec<Line<'a>>, String> {
        self.pass += 1;
        let mut lines = Vec::with_capacity(self.entries.len() + trailer.len());
        for (lineno, line) in sample_lines(body) {
            let cached = &line[..series_text_len(line)];
            let (key, series) = match self.entries.get_mut(cached) {
                Some(e) => {
                    e.seen = self.pass;
                    (cached, Series::Cached(e.id))
                }
                None => {
                    let (name, labels, len) =
                        parse_series(line, lineno).map_err(|e| e.to_string())?;
                    (&line[..len], Series::New(self.stamped(&name, labels)))
                }
            };
            let tail = parse_sample_tail(&line[key.len()..], lineno).map_err(|e| e.to_string())?;
            lines.push(Line {
                key,
                t_ms: tail.timestamp_ms.unwrap_or(now_ms),
                v: tail.value,
                series,
            });
        }
        for &(name, v) in trailer {
            let series = match self.entries.get_mut(name) {
                Some(e) => {
                    e.seen = self.pass;
                    Series::Cached(e.id)
                }
                None => Series::New(self.stamped(name, LabelSet::empty())),
            };
            lines.push(Line {
                key: name,
                t_ms: now_ms,
                v,
                series,
            });
        }
        Ok(lines)
    }

    /// Phase 2, under the database's WAL gate: validate the cache, then
    /// resolve misses in document order, so ids and `SeriesCreate` records
    /// come out as `append_batch` of the same body writes them.
    fn resolve(&mut self, db: &Tsdb, mut lines: Vec<Line<'_>>) -> Vec<(SeriesId, i64, f64)> {
        let stamp = db.index_stamp();
        if self.valid_for != Some(stamp) {
            self.entries.clear();
            self.names_stale = true;
            self.valid_for = Some(stamp);
            for line in &mut lines {
                if let Series::Cached(_) = line.series {
                    let (name, labels, _) = parse_series(line.key, 0)
                        .expect("a cached key is text the parser consumed whole");
                    line.series = Series::New(self.stamped(&name, labels));
                }
            }
        }
        let mut misses = 0u64;
        let samples: Vec<(SeriesId, i64, f64)> = lines
            .into_iter()
            .map(|line| {
                let id = match line.series {
                    Series::Cached(id) => id,
                    Series::New(labels) => {
                        misses += 1;
                        let id = db.resolve_or_create_id(&labels);
                        self.entries.insert(
                            line.key.into(),
                            Entry {
                                id,
                                name_len: metric_name_len(line.key),
                                seen: self.pass,
                            },
                        );
                        id
                    }
                };
                (id, line.t_ms, line.v)
            })
            .collect();
        db.count_series_cache(samples.len() as u64 - misses, misses);
        self.names_stale |= misses > 0;
        samples
    }

    /// End of a successful pass: drop what it did not see; refresh the
    /// metric names when the entry set changed.
    fn sweep(&mut self) {
        let before = self.entries.len();
        let pass = self.pass;
        self.entries.retain(|_, e| e.seen == pass);
        if self.names_stale || self.entries.len() != before {
            let names: BTreeSet<&str> = self
                .entries
                .iter()
                .map(|(key, e)| &key[..e.name_len])
                .collect();
            self.names = names.into_iter().map(str::to_string).collect();
            self.names_stale = false;
        }
    }

    fn stamped(&self, name: &str, labels: LabelSet) -> LabelSet {
        stamp_series(
            name,
            labels,
            self.stamp.iter().map(|(k, v)| (k.as_str(), v.as_str())),
        )
    }
}
