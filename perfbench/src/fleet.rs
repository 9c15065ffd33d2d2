//! The write path: a Jean-Zay-shaped fleet driven through the stack's
//! monitoring cycle, either by `CeemsStack::advance` (untraced) or by the
//! same phases composed here from public entry points with a span around
//! each call (traced).

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ceems::alertsrv::AlertState;
use ceems::apiserver::schema::{unit_cols, UNITS_TABLE};
use ceems::core::attribution::all_rule_groups;
use ceems::core::meta::{MetaMonitor, MetaTarget};
use ceems::metrics::matcher::LabelMatcher;
use ceems::prelude::*;
use ceems::relstore::Query;
use ceems::stream::{PublishOutcome, SampleFrame};
use ceems::tsdb::rules::RuleEngine;
use ceems::tsdb::scrape::{ScrapeManager, ScrapeTarget, TargetSource};

use crate::gen::{self, Arrival, JobMix, PartitionShape};
use crate::trace::Tracer;

/// Simulated seconds per `advance`; a cycle is one simulated minute.
pub const STEP_S: f64 = 15.0;
pub const STEPS_PER_CYCLE: usize = 4;
/// Cycles run during set-up, before anything is measured.
pub const WARMUP_CYCLES: usize = 2;

/// How a fleet is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ingest {
    /// Pull scrapes every 15 s, full rule ticks every 30 s.
    Pull,
    /// Exporters push over the stream bus, rules re-evaluate
    /// incrementally, alerting and meta self-scrape on.
    PushAlerts,
}

#[derive(Clone, Debug)]
pub struct FleetSpec {
    pub cluster: ClusterSpec,
    pub ingest: Ingest,
    pub mix: JobMix,
    pub cycles: usize,
}

impl FleetSpec {
    pub fn partitions(&self) -> Vec<PartitionShape> {
        let c = &self.cluster;
        [
            ("cpu-intel", c.intel_nodes, 40, 0),
            ("cpu-amd", c.amd_nodes, 128, 0),
            ("gpu-v100", c.v100_nodes, 40, 4),
            ("gpu-a100", c.a100_nodes, 40, 8),
            ("gpu-h100", c.h100_nodes, 40, 4),
        ]
        .into_iter()
        .filter(|p| p.1 > 0)
        .map(|(name, nodes, cores, gpus)| PartitionShape {
            name,
            nodes,
            cores,
            gpus,
        })
        .collect()
    }

    fn horizon_ms(&self) -> i64 {
        ((WARMUP_CYCLES + self.cycles) * STEPS_PER_CYCLE) as i64 * (STEP_S * 1000.0) as i64
    }

    pub fn config(&self, seed: u64, dir: &Path) -> CeemsConfig {
        let mut cfg = CeemsConfig {
            cluster: self.cluster.clone(),
            seed,
            // One thread each: on a 2-vCPU VM the cross-thread wake-ups of
            // the parallel scrape/rule/query paths swing cycle times by
            // ±30 % from run to run; single-threaded they hold within ±10 %.
            threads: 1,
            query_threads: 1,
            churn: None,
            wal_dir: Some(dir.join("wal").to_string_lossy().into_owned()),
            wal_fsync: "batch".into(),
            wal_checkpoint_interval_s: 300.0,
            ..CeemsConfig::default()
        };
        // Split panels into 15-minute extents. With about an hour of data
        // and the 10-minute recent window, hour-long extents would never
        // settle, so neither splitting nor the results cache would run.
        cfg.qfe.split_interval_s = 900.0;
        if self.ingest == Ingest::PushAlerts {
            cfg.stream.enabled = true;
            cfg.alerting.enabled = true;
            // Units above 150 W for 2 min and nodes above 500 W fire. On
            // this fleet that was 29-42 % of the running units and 22-36 %
            // of the nodes over thirty seeds, 65-88 active alerts (the
            // report's `alerts` gives each run's counts and shares).
            cfg.alerting.energy_budget_watts = 150.0;
            cfg.alerting.node_power_max_watts = 500.0;
            cfg.meta.enabled = true;
        }
        cfg
    }
}

/// Counts every operation the write path attempted and every failure,
/// for `error_rate`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Per-layer counters of the traced composition.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    pub render_calls: u64,
    pub render_bytes: u64,
    pub scrape_passes: u64,
    pub samples_scraped: u64,
    pub scrape_failures: u64,
    pub rule_ticks: u64,
    pub rule_series: u64,
    pub publishes: u64,
    pub samples_pushed: u64,
    pub stream_failures: u64,
    pub updater_polls: u64,
    pub units_upserted: u64,
    pub notifications: u64,
    pub meta_passes: u64,
    pub meta_failures: u64,
}

/// Push-mode identity of one exporter, as `CeemsStack::build` sets it up:
/// its samples get the same target labels a scrape would stamp.
struct PushSource {
    publisher: String,
    instance: String,
    labels: Vec<(String, String)>,
    next_seq: u64,
}

/// The pieces of `advance` the traced run drives itself.
struct Composed {
    tracer: Arc<Tracer>,
    /// Span id and cycle the scrape workers' render spans attach to.
    parent: Arc<AtomicU64>,
    cycle: Arc<AtomicU64>,
    render_calls: Arc<AtomicU64>,
    render_bytes: Arc<AtomicU64>,
    scrape_mgr: ScrapeManager,
    rule_engine: RuleEngine,
    meta: Option<MetaMonitor>,
    push: Vec<PushSource>,
    last: [i64; 6],
    counts: LayerCounts,
}

const SCRAPE: usize = 0;
const RULE: usize = 1;
const UPDATE: usize = 2;
const CHECKPOINT: usize = 3;
const META: usize = 4;
const ALERT: usize = 5;

pub struct Fleet {
    pub stack: CeemsStack,
    pub dir: PathBuf,
    arrivals: Vec<Arrival>,
    next_arrival: usize,
    pub submits: u64,
    pub submit_failures: u64,
    composed: Option<Composed>,
    cycle_no: u64,
}

impl Fleet {
    /// Builds the stack and submits the prefilled jobs.
    pub fn build(
        spec: &FleetSpec,
        seed: u64,
        dir: &Path,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Fleet, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let stack = CeemsStack::build(spec.config(seed, dir), &dir.join("db"))?;
        let arrivals = gen::job_stream(seed, &spec.partitions(), &spec.mix, spec.horizon_ms());
        let composed = tracer.map(|t| compose(&stack, t));
        let mut fleet = Fleet {
            stack,
            dir: dir.to_path_buf(),
            arrivals,
            next_arrival: 0,
            submits: 0,
            submit_failures: 0,
            composed,
            cycle_no: 0,
        };
        fleet.submit_due();
        Ok(fleet)
    }

    fn submit_due(&mut self) {
        let now = self.stack.clock.now_ms();
        while let Some(a) = self.arrivals.get(self.next_arrival) {
            if a.at_ms > now {
                break;
            }
            let req = a.req.clone();
            let ok = match &self.composed {
                Some(c) => c
                    .tracer
                    .span("slurm.submit", 0, self.cycle_no, || self.stack.submit(req)),
                None => self.stack.submit(req),
            }
            .is_ok();
            self.submits += 1;
            self.submit_failures += u64::from(!ok);
            self.next_arrival += 1;
        }
    }

    /// One simulated minute. Returns its wall time.
    pub fn cycle(&mut self) -> std::time::Duration {
        self.cycle_no += 1;
        let t0 = Instant::now();
        match self.composed.as_ref().map(|c| c.tracer.clone()) {
            None => {
                for _ in 0..STEPS_PER_CYCLE {
                    self.submit_due();
                    self.stack.advance(STEP_S);
                }
            }
            Some(tracer) => {
                let span = tracer.begin("cycle", 0, self.cycle_no);
                for _ in 0..STEPS_PER_CYCLE {
                    self.submit_due();
                    self.composed_step(span.id());
                }
                tracer.end(span);
            }
        }
        t0.elapsed()
    }

    /// `CeemsStack::advance` phase by phase, in its order and through the
    /// same public calls, with a span around each.
    fn composed_step(&mut self, parent: u64) {
        let stack = &self.stack;
        let c = self.composed.as_mut().expect("traced fleet");
        let cfg = stack.config();
        let (t, id) = (c.tracer.clone(), self.cycle_no);
        t.span("simnode.step_all", parent, id, || {
            stack.cluster.step_all(STEP_S, cfg.threads)
        });
        let now = stack.clock.now_ms();
        t.span("slurm.tick", parent, id, || {
            stack.scheduler.lock().tick(now)
        });

        let due = |last: i64, every_s: f64| now - last >= (every_s * 1000.0) as i64;
        if due(c.last[SCRAPE], cfg.scrape_interval_s) {
            c.last[SCRAPE] = now;
            match stack.stream_bus() {
                Some(bus) => {
                    let mut arrived: HashSet<String> = HashSet::new();
                    for (i, exporter) in stack.exporters.iter().enumerate() {
                        let src = &mut c.push[i];
                        let body = t.span("exporter.render_for_push", parent, id, || {
                            exporter.render_for_push()
                        });
                        c.counts.render_calls += 1;
                        c.counts.render_bytes += body.len() as u64;
                        let frame = SampleFrame {
                            topic: cfg.stream.topic.clone(),
                            publisher: src.publisher.clone(),
                            seq: src.next_seq,
                            instance: src.instance.clone(),
                            job: "ceems".to_string(),
                            extra_labels: src.labels.clone(),
                            body,
                            produced_ms: now,
                        };
                        c.counts.publishes += 1;
                        match t.span("stream.publish", parent, id, || {
                            bus.publish("anonymous", frame, now)
                        }) {
                            Ok(PublishOutcome::Ingested { receipt, .. }) => {
                                src.next_seq += 1;
                                c.counts.samples_pushed += receipt.samples;
                                arrived.extend(receipt.names);
                            }
                            Ok(PublishOutcome::Duplicate { .. }) => src.next_seq += 1,
                            Err(_) => c.counts.stream_failures += 1,
                        }
                    }
                    if !arrived.is_empty() {
                        let rules = &mut c.rule_engine;
                        c.counts.rule_series +=
                            t.span("tsdb.rules_incremental", parent, id, || {
                                rules.tick_incremental(&stack.tsdb, now, &arrived)
                            });
                        c.counts.rule_ticks += 1;
                    }
                }
                None => {
                    let scrape = t.begin("tsdb.scrape", parent, id);
                    c.parent.store(scrape.id(), Ordering::SeqCst);
                    c.cycle.store(id, Ordering::SeqCst);
                    let s = c.scrape_mgr.scrape_once(&stack.tsdb, now, cfg.threads);
                    t.end(scrape);
                    c.counts.scrape_passes += 1;
                    c.counts.samples_scraped += s.samples;
                    c.counts.scrape_failures += s.failed;
                }
            }
        }
        if stack.stream_bus().is_none() && due(c.last[RULE], cfg.rule_interval_s) {
            c.last[RULE] = now;
            let rules = &mut c.rule_engine;
            c.counts.rule_series +=
                t.span("tsdb.rules", parent, id, || rules.tick(&stack.tsdb, now));
            c.counts.rule_ticks += 1;
        }
        if due(c.last[UPDATE], cfg.updater_interval_s) {
            c.last[UPDATE] = now;
            let mut upd = stack.updater.lock();
            let before = upd.stats().units_upserted;
            if t.span("apiserver.poll", parent, id, || upd.poll(now))
                .is_ok()
            {
                c.counts.updater_polls += 1;
            }
            c.counts.units_upserted += upd.stats().units_upserted - before;
        }
        if stack.tsdb.wal_enabled()
            && now - c.last[CHECKPOINT] >= (cfg.wal_checkpoint_interval_s * 1000.0) as i64
        {
            c.last[CHECKPOINT] = now;
            let _ = t.span("tsdb.checkpoint", parent, id, || stack.tsdb.checkpoint());
        }
        if let Some(meta) = &mut c.meta {
            if due(c.last[META], cfg.meta.scrape_interval_s) {
                c.last[META] = now;
                let s = t.span("meta.scrape", parent, id, || {
                    meta.scrape_once(&stack.tsdb, now)
                });
                c.counts.meta_passes += 1;
                c.counts.meta_failures += s.failed;
            }
        }
        if let Some(svc) = &stack.alertsrv {
            if due(c.last[ALERT], cfg.alerting.eval_interval_s) {
                c.last[ALERT] = now;
                let s = t.span("alertsrv.tick", parent, id, || svc.tick(now));
                c.counts.notifications += s.notifications_sent as u64;
            }
        }
        let store = stack.trace_store();
        t.span("obs.trace_gc", parent, id, || store.gc(now));
    }

    pub fn counts(&self) -> Option<LayerCounts> {
        self.composed.as_ref().map(|c| {
            let mut n = c.counts.clone();
            n.render_calls += c.render_calls.load(Ordering::SeqCst);
            n.render_bytes += c.render_bytes.load(Ordering::SeqCst);
            n
        })
    }

    /// Samples landed by scrape or push so far.
    pub fn ingested(&self) -> u64 {
        match self.counts() {
            Some(c) => c.samples_scraped + c.samples_pushed,
            None => {
                let s = self.stack.stats();
                s.samples_scraped + s.samples_pushed
            }
        }
    }

    /// Scrape/push/meta/submit operations and their failures so far.
    pub fn ingest_ops(&self) -> Ops {
        let nodes = self.stack.cluster.len() as u64;
        let mut ops = Ops::default();
        ops.add(self.submits, self.submit_failures);
        match self.counts() {
            Some(c) => {
                ops.add(
                    c.scrape_passes * nodes + c.publishes,
                    c.scrape_failures + c.stream_failures,
                );
                ops.add(c.meta_passes, c.meta_failures);
            }
            None => {
                let s = self.stack.stats();
                ops.add(
                    s.scrape_passes * nodes + s.stream_pushes * nodes,
                    s.scrape_failures + s.stream_failures,
                );
                ops.add(s.meta_passes, s.meta_failures);
            }
        }
        ops
    }

    /// End-state digest: identical for every run of one seed, traced or not.
    pub fn digest(&self) -> String {
        let rule_series = match self.counts() {
            Some(c) => c.rule_series,
            None => self.stack.stats().rule_series_written,
        };
        let units = self.units();
        let alerts = self.stack.alertsrv.as_ref().map_or(0, |a| a.alerts().len());
        format!(
            "series={} samples={} ingested={} rule_series={rule_series} units={units} alerts={alerts} submits={}",
            self.stack.tsdb.series_count(),
            self.stack.tsdb.samples_appended(),
            self.ingested(),
            self.submits,
        )
    }

    /// Output checks on the final state. Returns the checks made, the
    /// reasons of those that failed, and how many (node, rule tick) pairs
    /// exceeded the node's power only because of a unit in its first rule
    /// window.
    ///
    /// - Eq. (1) conservation: at every rule evaluation since `from_ms`, on
    ///   every node, the power attributed to its settled units stays within
    ///   the node's power. A unit is settled once its first rate window
    ///   (rule window + two rule intervals) has passed: until then `rate()`
    ///   extrapolates its fresh counters over the whole window and its share
    ///   overshoots. Each unit counts only inside its lifetime; afterwards its
    ///   GPU flags and rate windows stay visible for a while and belong to no
    ///   one.
    /// - For every unit the API server finished with at least 20 minutes of
    ///   attributed power, its energy matches the integral of that power
    ///   over the unit's lifetime within 15 %.
    ///
    /// Both use the tolerances `tests/energy_accounting.rs` applies (10 %
    /// against ground truth, 15 % between the API and the integral).
    pub fn check(&self, from_ms: i64) -> (Ops, Vec<String>, u64) {
        let db = &self.stack.tsdb;
        let cfg = self.stack.config();
        let now = self.stack.clock.now_ms();
        // The configs here keep the default 2m rule window.
        let settle_ms = 120_000 + 2 * (cfg.rule_interval_s * 1000.0) as i64;
        let mut ops = Ops::default();
        let mut why = Vec::new();
        let lifetimes: HashMap<String, (i64, i64)> = {
            let sched = self.stack.scheduler.lock();
            sched
                .dbd()
                .all()
                .filter_map(|r| Some((r.uuid.clone(), (r.started_ms?, r.ended_ms.unwrap_or(now)))))
                .collect()
        };
        let all = |name: &str| db.select(&[LabelMatcher::eq("__name__", name)], 0, i64::MAX);
        // node -> tick -> [node W, settled units W, all units W]
        let mut ticks: HashMap<String, std::collections::BTreeMap<i64, [f64; 3]>> = HashMap::new();
        for s in all("instance:ceems_total:watts") {
            let Some(i) = s.labels.get("instance") else {
                continue;
            };
            let node = ticks.entry(i.to_string()).or_default();
            for x in s.samples.iter().filter(|x| x.t_ms >= from_ms) {
                node.entry(x.t_ms).or_default()[0] += x.v;
            }
        }
        let mut unit_life_j: HashMap<String, (f64, i64)> = HashMap::new();
        for s in all("uuid:ceems_power:watts") {
            let (Some(uuid), Some(inst)) = (s.labels.get("uuid"), s.labels.get("instance")) else {
                continue;
            };
            let Some(&(start, end)) = lifetimes.get(uuid) else {
                continue;
            };
            if let Some(node) = ticks.get_mut(inst) {
                for x in s
                    .samples
                    .iter()
                    .filter(|x| x.t_ms >= from_ms.max(start) && x.t_ms < end)
                {
                    if let Some(t) = node.get_mut(&x.t_ms) {
                        t[2] += x.v;
                        if x.t_ms >= start + settle_ms {
                            t[1] += x.v;
                        }
                    }
                }
            }
            let e = unit_life_j.entry(uuid.to_string()).or_default();
            e.0 += joules(&s.samples, start, end);
            e.1 = end - start;
        }
        let mut overshoot = 0u64;
        let mut nodes: Vec<_> = ticks.into_iter().collect();
        nodes.sort_by(|a, b| a.0.cmp(&b.0));
        for (inst, series) in nodes {
            ops.attempted += 1;
            let over = |units: f64, node: f64| units > node * 1.1 + 1.0;
            overshoot += series
                .values()
                .filter(|t| over(t[2], t[0]) && !over(t[1], t[0]))
                .count() as u64;
            if let Some((t, w)) = series.iter().find(|(_, w)| over(w[1], w[0])) {
                ops.failed += 1;
                why.push(format!(
                    "{inst} at t={t}: settled units {:.1} W > node {:.1} W",
                    w[1], w[0]
                ));
            }
        }

        let rows = self
            .stack
            .updater
            .lock()
            .db()
            .query(UNITS_TABLE, &Query::all())
            .unwrap_or_default();
        for r in rows {
            let (Some(uuid), Some(kwh), Some(_)) = (
                r[unit_cols::UUID].as_text(),
                r[unit_cols::ENERGY_KWH].as_real(),
                r[unit_cols::ENDED_AT].as_int(),
            ) else {
                continue;
            };
            let Some(&(j, life_ms)) = unit_life_j.get(uuid) else {
                continue;
            };
            if life_ms < 20 * 60_000 || j <= 0.0 {
                continue;
            }
            ops.attempted += 1;
            let ratio = kwh / (j / 3.6e6);
            if !(0.85..1.15).contains(&ratio) {
                ops.failed += 1;
                why.push(format!("{uuid}: api energy / power integral = {ratio:.3}"));
            }
        }
        (ops, why, overshoot)
    }

    /// Bytes on disk under the WAL (segments + checkpoint) and under the
    /// relational store.
    pub fn disk_bytes(&self) -> (u64, u64) {
        let db = self.dir.join("db");
        let rel = crate::stats::dir_bytes(&db)
            - crate::stats::dir_bytes(&db.join("traces"))
            - crate::stats::dir_bytes(&db.join("alertsrv"));
        (crate::stats::dir_bytes(&self.dir.join("wal")), rel)
    }

    pub fn units(&self) -> u64 {
        self.stack
            .updater
            .lock()
            .db()
            .table(UNITS_TABLE)
            .map(|t| t.len() as u64)
            .unwrap_or(0)
    }

    /// Pending and firing alerts now, and which running units and nodes
    /// they cover.
    pub fn alert_summary(&self) -> AlertSummary {
        let mut s = AlertSummary {
            nodes: self.stack.cluster.len() as u64,
            running_units: self
                .stack
                .scheduler
                .lock()
                .dbd()
                .all()
                .filter(|r| r.started_ms.is_some() && r.ended_ms.is_none())
                .count() as u64,
            ..AlertSummary::default()
        };
        let Some(svc) = &self.stack.alertsrv else {
            return s;
        };
        let (mut units, mut nodes) = (HashSet::new(), HashSet::new());
        for a in svc.alerts() {
            if a.state == AlertState::Resolved {
                continue;
            }
            s.active += 1;
            let label = |k: &str| a.labels.get(k).map(str::to_string);
            match a.labels.get("alertname") {
                Some("ProjectEnergyBudgetExceeded") => units.extend(label("uuid")),
                Some("NodePowerAnomaly") => nodes.extend(label("instance")),
                _ => {}
            }
        }
        (s.units_firing, s.nodes_firing) = (units.len() as u64, nodes.len() as u64);
        s
    }
}

/// What the alerting packs see at the end of the write phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlertSummary {
    /// Pending or firing alerts, of every rule.
    pub active: u64,
    pub units_firing: u64,
    pub running_units: u64,
    pub nodes_firing: u64,
    pub nodes: u64,
}

fn compose(stack: &CeemsStack, tracer: Arc<Tracer>) -> Composed {
    let cfg = stack.config();
    let parent = Arc::new(AtomicU64::new(0));
    let cycle = Arc::new(AtomicU64::new(0));
    let render_calls = Arc::new(AtomicU64::new(0));
    let render_bytes = Arc::new(AtomicU64::new(0));
    let mut targets = Vec::new();
    let mut push = Vec::new();
    for (node, exporter) in stack.cluster.nodes().iter().zip(&stack.exporters) {
        let (hostname, group) = {
            let n = node.lock();
            (
                n.hostname().to_string(),
                NodeGroup::for_profile(&n.spec().profile),
            )
        };
        let instance = format!("{hostname}:9100");
        let labels = vec![("nodegroup".to_string(), group.label().to_string())];
        let (exp, t, p, cy, calls, bytes) = (
            exporter.clone(),
            tracer.clone(),
            parent.clone(),
            cycle.clone(),
            render_calls.clone(),
            render_bytes.clone(),
        );
        targets.push(ScrapeTarget {
            instance: instance.clone(),
            job: "ceems".to_string(),
            extra_labels: labels.clone(),
            source: TargetSource::InProcess(Arc::new(move || {
                let body = t.span(
                    "exporter.render",
                    p.load(Ordering::SeqCst),
                    cy.load(Ordering::SeqCst),
                    || exp.render(),
                );
                calls.fetch_add(1, Ordering::Relaxed);
                bytes.fetch_add(body.len() as u64, Ordering::Relaxed);
                body
            })),
        });
        push.push(PushSource {
            publisher: hostname,
            instance,
            labels,
            next_seq: 1,
        });
    }
    let meta = cfg.meta.enabled.then(|| {
        let reg = ceems::tsdb::selfmon::default_registry(stack.tsdb.clone());
        ceems::obs::register_build_info(&reg, "tsdb");
        stack.trace_store().register_metrics(&reg);
        let render =
            |reg: ceems::metrics::registry::Registry| -> Arc<dyn Fn() -> String + Send + Sync> {
                Arc::new(move || ceems::metrics::encode_families(&reg.gather()))
            };
        let mut targets = vec![MetaTarget::in_process("tsdb", "tsdb:0", render(reg))];
        if let Some(svc) = &stack.alertsrv {
            targets.push(MetaTarget::in_process(
                "alertsrv",
                "alertsrv:0",
                render(svc.registry()),
            ));
        }
        if let Some(exporter) = stack.exporters.first() {
            targets.push(MetaTarget::in_process(
                "exporter",
                "exporter:0",
                exporter.render_fn(),
            ));
        }
        if let Some(bus) = stack.stream_bus() {
            let reg = ceems::metrics::registry::Registry::new();
            bus.register_metrics(&reg);
            ceems::obs::register_build_info(&reg, "stream");
            targets.push(MetaTarget::in_process("stream", "stream:0", render(reg)));
        }
        MetaMonitor::new(targets)
    });
    Composed {
        tracer,
        parent,
        cycle,
        render_calls,
        render_bytes,
        scrape_mgr: ScrapeManager::new(targets),
        rule_engine: RuleEngine::new(all_rule_groups(
            &cfg.rule_window,
            (cfg.rule_interval_s * 1000.0) as i64,
        ))
        .with_eval_threads(cfg.query_threads),
        meta,
        push,
        last: [
            i64::MIN / 2,
            i64::MIN / 2,
            i64::MIN / 2,
            0,
            i64::MIN / 2,
            i64::MIN / 2,
        ],
        counts: LayerCounts::default(),
    }
}

/// Energy (J) of a power series over `[from, to)`: each sample holds until
/// the next one.
fn joules(samples: &[ceems::tsdb::Sample], from_ms: i64, to_ms: i64) -> f64 {
    samples
        .windows(2)
        .filter(|w| w[0].t_ms >= from_ms && w[0].t_ms < to_ms)
        .map(|w| w[0].v * (w[1].t_ms.min(to_ms) - w[0].t_ms) as f64 / 1000.0)
        .sum()
}
