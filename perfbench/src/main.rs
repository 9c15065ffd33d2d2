//! CEEMS end-to-end benchmark.
//!
//! ```sh
//! ceems-perfbench --workload fleet_pull --seed 1 --seconds 40 --trace 0
//! ```
//!
//! A run sets a stack up from the seed (three times, keeping the last),
//! drives its write path for a fixed number of simulated minutes, serves
//! the resulting store behind the LB/qfe/replica read topology and loads
//! Fig. 2 dashboards, first in a closed loop that saturates the stack,
//! then in an open loop at a fixed offered rate for a fixed share of
//! `--seconds`. The last stdout line is the JSON result;
//! `perfbench/README.md` documents the workloads, metrics and checks.

mod dash;
mod fleet;
mod gen;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ceems::prelude::*;

use dash::{LoadResult, Pacing, RateRun, Tier, Topology};
use fleet::{AlertSummary, Fleet, FleetSpec, Ingest, LayerCounts, Ops};
use gen::{DashMix, JobMix, LoadClass};
use stats::{median, quantile, tail};
use trace::Tracer;

/// Offered loads/s of the open loop, where the latency metrics are read.
const OPEN_RATE: f64 = 20.0;
/// Loads the closed loop runs per second of `--seconds`, in blocks; its
/// throughput is the median over the blocks, so a short stall of the
/// machine costs one block, not the figure.
const CLOSED_LOADS_PER_S: f64 = 10.0;
const CLOSED_BLOCKS: u64 = 5;

/// Running units whose owners keep refreshing their dashboard.
const REFRESH_POOL: usize = 32;
/// Load class mix: refresh, foreign, and ad-hoc for the rest.
const REFRESH_SHARE: f64 = 0.45;
const FOREIGN_SHARE: f64 = 0.1;
/// Share of each class's loads on multi-node units: the job mix's share of
/// multi-node jobs.
const MULTI_NODE_SHARE: f64 = 0.05;
/// The open loop keeps up when its p90 load latency stays within this.
const LIMIT_MS: f64 = 250.0;
/// Keep every n-th load's bodies for the output checks.
const KEEP_EVERY: usize = 4;

/// The speed probe's time (ms) on the machine `BENCHMARK.json`'s bounds were
/// set on. This VM's speed drifts by ±20 % over minutes with its host's
/// load, and cycle times drift with it; the probe, timed in a child process
/// before every cycle, drifts alike. The cycle metrics are therefore
/// reported scaled to this probe time: `raw × PROBE_REF_MS / probe_ms`
/// (rates divided), which halves their run-to-run spread under drift. The
/// report keeps the raw values and the probe.
const PROBE_REF_MS: f64 = 10.0;

/// Share of `--seconds` each traced replay of the open loop lasts; three
/// replays run, so they get less than the untraced window.
const TRACED_WINDOW_SHARE: f64 = 0.12;

/// Trailing window of a refresh load's panels.
const REFRESH_SPAN_S: i64 = 1800;
/// Window of an ad-hoc load's panels.
const ADHOC_SPAN_S: i64 = 1200;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Workload {
    fleet: FleetSpec,
    /// The open loop lasts this share of `--seconds`.
    window_share: f64,
}

/// Jean-Zay's node mix (512 Intel, 200 AMD, 396 V100, 208 A100, 84 H100)
/// divided by `div`.
fn jean_zay_over(div: usize) -> ClusterSpec {
    let jz = ClusterSpec::jean_zay();
    let d = |n: usize| (n + div / 2) / div;
    ClusterSpec {
        intel_nodes: d(jz.intel_nodes),
        amd_nodes: d(jz.amd_nodes),
        v100_nodes: d(jz.v100_nodes),
        a100_nodes: d(jz.a100_nodes),
        h100_nodes: d(jz.h100_nodes),
    }
}

fn workload(name: &str) -> Option<Workload> {
    let mix = |prefill: usize, per_hour: f64| JobMix {
        users: 120,
        projects: 30,
        prefill,
        arrivals_per_hour: per_hour,
        gpu_fraction: 0.6,
    };
    // Fleets keep the job density of a quarter-scale Jean-Zay at 20k
    // jobs/day on its whole fleet: 830 jobs/h and ~200 running units per
    // 350 nodes.
    let fleet = |ingest| FleetSpec {
        cluster: jean_zay_over(16),
        ingest,
        mix: mix(50, 208.0),
        cycles: 40,
    };
    Some(match name {
        "fleet_pull" => Workload {
            fleet: fleet(Ingest::Pull),
            window_share: 0.45,
        },
        "fleet_push_alerts" => Workload {
            fleet: fleet(Ingest::PushAlerts),
            window_share: 0.45,
        },
        "dashboards" => Workload {
            fleet: FleetSpec {
                cluster: jean_zay_over(32),
                ingest: Ingest::Pull,
                mix: mix(25, 104.0),
                cycles: 60,
            },
            window_share: 0.5,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40.0,
        trace: false,
        work_dir: PathBuf::from(".bench_run"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        match k.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = v == "1",
            "--work-dir" => a.work_dir = PathBuf::from(v),
            _ => return Err(format!("unknown argument {k}")),
        }
    }
    Ok(a)
}

/// Everything one episode measured.
#[derive(Default)]
struct Episode {
    setup_s: f64,
    cycle_ms: Vec<f64>,
    stepping_s: f64,
    ingested_in_cycles: u64,
    disk_per_sample: f64,
    digest: String,
    /// (node, rule tick) pairs over the node's power only because of a
    /// unit in its first rate window (reported, not failed).
    start_overshoot: u64,
    /// The closed loop's blocks, then the open loop.
    closed: Vec<RateRun>,
    open: RateRun,
    alerts: AlertSummary,
    ops: Ops,
    check_failures: Vec<String>,
    /// Speed probes taken before the measured cycles (untraced runs).
    probe_ns: Vec<f64>,
    /// End-state digest after each set-up's warm-up.
    setup_digests: Vec<String>,
    /// Length of the open-loop window of the read phase.
    window_s: f64,
    /// Traced runs only.
    spans: Option<Arc<Tracer>>,
    counts: Option<LayerCounts>,
    layer: BTreeMap<&'static str, f64>,
}

/// How one episode is run.
struct Plan {
    /// Set-ups made (the last is kept); `setup_s` is their median.
    setups: usize,
    /// Whether the read phase runs.
    read: bool,
}

fn episode(
    w: &Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    tracer: Option<Arc<Tracer>>,
    plan: Plan,
) -> Result<Episode, String> {
    let mut ep = Episode::default();
    // The child builds its pointer chain before answering the first probe,
    // so that work is done before anything is timed.
    let mut probe = match tracer {
        None => {
            let mut p = stats::Probe::start().map_err(|e| format!("probe: {e}"))?;
            p.time_ns()?;
            Some(p)
        }
        Some(_) => None,
    };
    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..plan.setups.max(1) {
        drop(fleet.take());
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        let mut f = Fleet::build(&w.fleet, seed, dir, tracer.clone())?;
        for _ in 0..fleet::WARMUP_CYCLES {
            f.cycle();
        }
        setups.push(t.elapsed().as_secs_f64());
        ep.setup_digests.push(f.digest());
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("at least one set-up");
    let measured_from_ms = fleet.stack.clock.now_ms();
    let before = fleet.ingested();
    for _ in 0..w.fleet.cycles {
        if let Some(p) = probe.as_mut() {
            ep.probe_ns.push(p.time_ns()?);
        }
        let d = fleet.cycle();
        ep.stepping_s += d.as_secs_f64();
        ep.cycle_ms.push(d.as_secs_f64() * 1e3);
    }
    drop(probe);
    ep.ingested_in_cycles = fleet.ingested() - before;
    ep.alerts = fleet.alert_summary();
    let (wal, rel) = fleet.disk_bytes();
    let ingested = fleet.ingested().max(1);
    ep.disk_per_sample = (wal + rel) as f64 / ingested as f64;
    ep.digest = fleet.digest();
    let (ops, why, overshoot) = fleet.check(measured_from_ms);
    ep.start_overshoot = overshoot;
    ep.ops.add(ops.attempted, ops.failed);
    ep.check_failures.extend(why);
    let ing = fleet.ingest_ops();
    ep.ops.add(ing.attempted, ing.failed);
    if ing.failed > 0 {
        ep.check_failures
            .push(format!("{} scrape/push/submit failures", ing.failed));
    }
    ep.counts = fleet.counts();
    if let Some(c) = &ep.counts {
        ep.layer
            .insert("tsdb.wal_bytes_per_sample", wal as f64 / ingested as f64);
        ep.layer.insert(
            "relstore.bytes_per_unit",
            rel as f64 / fleet.units().max(1) as f64,
        );
        ep.layer.insert(
            "stream.frame_bytes_per_sample",
            if c.samples_pushed > 0 {
                c.render_bytes as f64 / c.samples_pushed as f64
            } else {
                0.0
            },
        );
        ep.layer
            .insert("alertsrv.active_alerts", ep.alerts.active as f64);
    }

    if plan.read {
        let t_read = Instant::now();
        let mut topo = Topology::start(&fleet.stack)?;
        let units = dash::unit_list(&fleet.stack);
        ep.setup_s = median(&setups) + t_read.elapsed().as_secs_f64();
        ep.window_s = w.window_share * seconds;
        let now_ms = topo.now_ms;
        // Window 1 is the open loop's, 2.. the closed loop's blocks (their
        // due times are ignored).
        let schedule = |k: u64, loads_per_s: f64, window_s: f64| {
            gen::dash_schedule(
                seed,
                k,
                &units,
                now_ms,
                &DashMix {
                    loads_per_s,
                    window_s,
                    refresh_share: REFRESH_SHARE,
                    foreign_share: FOREIGN_SHARE,
                    refresh_span_s: REFRESH_SPAN_S,
                    adhoc_span_s: ADHOC_SPAN_S,
                    refresh_pool: REFRESH_POOL,
                    multi_node_share: MULTI_NODE_SHARE,
                },
            )
        };
        let urls = (topo.lb_url.clone(), topo.api_url.clone());
        if let Some(t) = &tracer {
            // The traced run reports layers only: replays, no closed loop.
            traced_reads(
                &fleet.stack,
                &mut topo,
                &schedule(1, OPEN_RATE, TRACED_WINDOW_SHARE * seconds),
                t,
                &mut ep,
            )?;
        } else {
            // The closed loop runs first: it also loads every watched unit,
            // so the open loop's refresh loads find the qfe cache warm.
            let block = CLOSED_LOADS_PER_S / CLOSED_BLOCKS as f64;
            let runs = (2..2 + CLOSED_BLOCKS)
                .map(|k| (schedule(k, block, seconds), Pacing::Closed))
                .chain([(schedule(1, OPEN_RATE, ep.window_s), Pacing::Open)]);
            for (sched, pacing) in runs {
                let run = dash::drive(
                    &sched,
                    pacing,
                    Tier::Lb,
                    (&urls.0, &urls.1),
                    KEEP_EVERY,
                    None,
                );
                record_reads(&fleet.stack, &topo, &sched, &run, &mut ep);
                match pacing {
                    Pacing::Closed => ep.closed.push(run),
                    Pacing::Open => ep.open = run,
                }
            }
        }
        topo.shutdown();
    }
    drop(fleet);
    let _ = std::fs::remove_dir_all(dir);
    ep.spans = tracer;
    Ok(ep)
}

/// Runs the read-path output checks on one load run and counts its
/// requests and failures.
fn record_reads(
    stack: &CeemsStack,
    topo: &Topology,
    sched: &[gen::Load],
    run: &RateRun,
    ep: &mut Episode,
) {
    let (made, failed, why) = dash::check(stack, topo, sched, run);
    ep.ops.add(made, failed);
    ep.check_failures.extend(why);
    let load_fail: u64 = run.loads.iter().map(|l| l.failures).sum();
    ep.ops
        .add(run.loads.len() as u64 * dash::LOAD_REQUESTS, load_fail);
}

/// The traced read path: the open-loop schedule replayed straight to a
/// TSDB API, to a fresh qfe and through the LB to a fresh qfe, plus the
/// same panels evaluated in process and one ownership check per load.
fn traced_reads(
    stack: &CeemsStack,
    topo: &mut Topology,
    sched: &[gen::Load],
    t: &Tracer,
    ep: &mut Episode,
) -> Result<(), String> {
    let owned: Vec<gen::Load> = sched
        .iter()
        .filter(|l| l.class != LoadClass::Foreign)
        .cloned()
        .collect();
    let api = topo.api_url.clone();
    // Owned loads only: the LB answers a foreign load's panels with a fast
    // 403 and the other tiers never see one.
    let panels = |run: &RateRun| -> Vec<f64> {
        run.loads
            .iter()
            .filter(|l| l.class != LoadClass::Foreign)
            .flat_map(|l| l.panel_ms.clone())
            .collect()
    };
    let direct = dash::drive(
        &owned,
        Pacing::Open,
        Tier::Tsdb,
        (&topo.leader_url, &api),
        0,
        Some(t),
    );
    let (fe, qfe_url) = topo.fresh_qfe(stack)?;
    let via_qfe = dash::drive(
        &owned,
        Pacing::Open,
        Tier::Qfe,
        (&qfe_url, &api),
        0,
        Some(t),
    );
    // A second LB over its own fresh qfe, so neither replay warms the other.
    let (_, qfe2_url) = topo.fresh_qfe(stack)?;
    let lb = Arc::new(ceems::lb::CeemsLb::new(
        ceems::lb::BackendPool::new(
            vec![ceems::lb::Backend::new("leader", topo.leader_url.clone())],
            ceems::lb::Strategy::round_robin(),
        ),
        ceems::lb::acl::Authorizer::api(api.clone()),
        ceems::lb::LbConfig {
            admin_users: stack.config().admin_users.clone(),
            query_frontend: Some(qfe2_url),
            trace_sink: Some(stack.trace_sink()),
        },
    ));
    let lb_srv = lb.serve().map_err(|e| e.to_string())?;
    let via_lb = dash::drive(
        sched,
        Pacing::Open,
        Tier::Lb,
        (&lb_srv.base_url(), &api),
        KEEP_EVERY,
        Some(t),
    );
    lb_srv.shutdown();
    record_reads(stack, topo, sched, &via_lb, ep);

    let (d, q, l) = (
        median(&panels(&direct)),
        median(&panels(&via_qfe)),
        median(&panels(&via_lb)),
    );
    ep.layer.insert("tsdb.query_ms", d);
    ep.layer.insert("qfe.self_ms", q - d);
    ep.layer.insert("lb.self_ms", l - q);
    ep.layer.insert(
        "lb.denied",
        via_lb.loads.iter().map(|x| x.forbidden).sum::<u64>() as f64,
    );
    let ratio = |pred: &dyn Fn(&LoadResult) -> bool| {
        let (c, f) = via_qfe
            .loads
            .iter()
            .filter(|x| pred(x))
            .fold((0u64, 0u64), |a, x| {
                (a.0 + x.cached_steps, a.1 + x.fetched_steps)
            });
        if c + f == 0 {
            0.0
        } else {
            c as f64 / (c + f) as f64
        }
    };
    ep.layer.insert("qfe.cached_step_ratio", ratio(&|_| true));
    ep.layer.insert(
        "qfe.cached_step_ratio_refresh",
        ratio(&|x| x.class == LoadClass::Refresh),
    );
    ep.layer.insert(
        "qfe.cached_step_ratio_adhoc",
        ratio(&|x| x.class == LoadClass::Adhoc),
    );
    let text = ceems::metrics::encode_families(&fe.registry().gather());
    let field = |name: &str| {
        text.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let requests = (owned.len() * 5) as f64;
    ep.layer.insert(
        "qfe.subqueries_per_request",
        field("ceems_qfe_split_subqueries_sum") / requests.max(1.0),
    );
    let all: Vec<&LoadResult> = direct
        .loads
        .iter()
        .chain(&via_qfe.loads)
        .chain(&via_lb.loads)
        .collect();
    ep.layer.insert(
        "apiserver.usage_ms",
        median(&all.iter().map(|x| x.usage_ms).collect::<Vec<_>>()),
    );
    ep.layer.insert(
        "apiserver.units_ms",
        median(&all.iter().map(|x| x.units_ms).collect::<Vec<_>>()),
    );

    // In-process evaluation of the same panels on the leader's Tsdb.
    let mut eval_ms = Vec::new();
    for (i, ld) in owned.iter().enumerate() {
        for q in dash::panel_queries(&ld.uuid) {
            let expr = ceems::tsdb::promql::parse_expr(&q).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let res = t.span("tsdb.eval", 0, trace::READ_REQ + i as u64, || {
                ceems::tsdb::promql::range_query(
                    stack.tsdb.as_ref(),
                    &expr,
                    ld.start_s * 1000,
                    ld.end_s * 1000,
                    ld.step_s * 1000,
                )
            });
            eval_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            ep.ops.add(1, u64::from(res.is_err()));
        }
    }
    ep.layer.insert("tsdb.eval_ms", median(&eval_ms));
    let client = ceems::http::Client::new();
    let mut verify_ms = Vec::new();
    for (i, ld) in sched.iter().enumerate() {
        let c = client
            .clone()
            .with_header("X-Grafana-User", ld.user.as_str());
        let t0 = Instant::now();
        let resp = t.span("apiserver.verify", 0, trace::READ_REQ + i as u64, || {
            c.get(&format!("{api}/api/v1/verify?uuid={}", ld.uuid))
        });
        verify_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let want = if ld.class == LoadClass::Foreign {
            403
        } else {
            200
        };
        ep.ops
            .add(1, u64::from(resp.map_or(true, |r| r.status.0 != want)));
    }
    ep.layer.insert("apiserver.verify_ms", median(&verify_ms));
    ep.layer
        .insert("tsdb.replica_lag_records", topo.replica_lag_records as f64);
    Ok(())
}

/// The open loop's generator hygiene, for the report. It keeps up when its
/// owned loads' p90 stays within the limit, the generator's lateness over
/// the last quarter of the window stays within half of it (no growing
/// backlog), nothing failed and the generator never gave up.
fn open_loop_report(offered_per_s: f64, run: &RateRun) -> serde_json::Value {
    let lat: Vec<f64> = run
        .loads
        .iter()
        .filter(|l| l.class != LoadClass::Foreign)
        .map(|l| l.latency_ms)
        .collect();
    let n = run.loads.len();
    let late: Vec<f64> = run.loads[n - n / 4..]
        .iter()
        .map(|l| l.lateness_ms)
        .collect();
    let p90 = quantile(&lat, 0.9);
    let late_p90 = quantile(&late, 0.9);
    let failures: u64 = run.loads.iter().map(|l| l.failures).sum();
    serde_json::json!({
        "offered_per_s": offered_per_s, "loads": n, "wall_s": run.wall_s,
        "completed_per_s": n as f64 / run.wall_s.max(1e-9), "p90_ms": p90,
        "lateness_p90_last_quarter_ms": late_p90, "backlog": run.backlog, "failures": failures,
        "kept_up": p90 <= LIMIT_MS && late_p90 <= LIMIT_MS / 2.0 && failures == 0 && !run.gave_up,
    })
}

fn metric(m: &mut serde_json::Map<String, serde_json::Value>, name: &str, value: f64, unit: &str) {
    m.insert(
        name.to_string(),
        serde_json::json!({"value": value, "unit": unit}),
    );
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--probe-child") {
        stats::probe_child();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (fleet_pull, fleet_push_alerts, dashboards)",
            args.workload
        );
        std::process::exit(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: work dir: {e}");
        std::process::exit(1);
    }
    let dir = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    match run(&w, &args, &dir) {
        Ok(()) => {}
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(w: &Workload, args: &Args, dir: &Path) -> Result<(), String> {
    let eps: Vec<Episode> = if args.trace {
        // The same seed untraced (parity digest, overhead baseline), then
        // traced.
        vec![
            episode(
                w,
                args.seed,
                args.seconds,
                dir,
                None,
                Plan {
                    setups: 1,
                    read: false,
                },
            )?,
            episode(
                w,
                args.seed,
                args.seconds,
                dir,
                Some(Arc::new(Tracer::new())),
                Plan {
                    setups: 1,
                    read: true,
                },
            )?,
        ]
    } else {
        vec![episode(
            w,
            args.seed,
            args.seconds,
            dir,
            None,
            Plan {
                setups: SETUPS,
                read: true,
            },
        )?]
    };
    let mut ops = Ops::default();
    let mut problems: Vec<String> = Vec::new();
    for ep in &eps {
        ops.add(ep.ops.attempted, ep.ops.failed);
        problems.extend(ep.check_failures.iter().cloned());
    }
    // Same seed, same state: every set-up of a run reaches one digest.
    ops.add(1, 0);
    let setup_digests: Vec<&String> = eps.iter().flat_map(|e| &e.setup_digests).collect();
    if setup_digests.iter().any(|d| *d != setup_digests[0]) {
        ops.failed += 1;
        problems.push(format!(
            "same-seed set-ups reached different states: {setup_digests:?}"
        ));
    }

    let mut out = serde_json::Map::new();
    let mut report = serde_json::Map::new();
    report.insert("workload".into(), args.workload.clone().into());
    report.insert("seed".into(), args.seed.into());
    report.insert(
        "window_s".into(),
        eps.last().map_or(0.0, |e| e.window_s).into(),
    );
    report.insert(
        "nproc".into(),
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .into(),
    );
    report.insert("digest".into(), eps[0].digest.clone().into());
    report.insert(
        "eq1_start_overshoot_ticks".into(),
        eps.iter()
            .map(|e| e.start_overshoot)
            .collect::<Vec<_>>()
            .into(),
    );
    report.insert(
        "error_rate".into(),
        serde_json::json!({
            "failed": ops.failed, "attempted": ops.attempted,
            "ratio": ops.failed as f64 / ops.attempted.max(1) as f64,
        }),
    );
    // Only the last episode reads.
    let ep = eps.last().expect("at least one episode");
    let a = &eps[0].alerts;
    let share = |n: u64, of: u64| n as f64 / of.max(1) as f64;
    report.insert(
        "alerts".into(),
        serde_json::json!({
            "active": a.active, "units_firing": a.units_firing, "running_units": a.running_units,
            "unit_share": share(a.units_firing, a.running_units), "nodes_firing": a.nodes_firing,
            "nodes": a.nodes, "node_share": share(a.nodes_firing, a.nodes),
        }),
    );

    if !args.trace {
        let per_s = |r: &RateRun| r.loads.len() as f64 / r.wall_s.max(1e-9);
        let blocks_per_s: Vec<f64> = ep.closed.iter().map(per_s).collect();
        report.insert(
            "closed_loop".into(),
            serde_json::json!({
                "loads": ep.closed.iter().map(|r| r.loads.len()).sum::<usize>(),
                "blocks_per_s": blocks_per_s,
            }),
        );
        report.insert("open_loop".into(), open_loop_report(OPEN_RATE, &ep.open));
        let (cyc_pct, cyc_tail) = tail(&ep.cycle_ms);
        report.insert("cycles".into(), ep.cycle_ms.len().into());
        report.insert("cycle_tail_pct".into(), cyc_pct.into());
        let class_lat = |c: LoadClass| -> Vec<f64> {
            ep.open
                .loads
                .iter()
                .filter(|l| l.class == c)
                .map(|l| l.latency_ms)
                .collect()
        };
        let (refresh, adhoc) = (class_lat(LoadClass::Refresh), class_lat(LoadClass::Adhoc));
        report.insert("refresh_loads".into(), refresh.len().into());
        report.insert("adhoc_loads".into(), adhoc.len().into());
        metric(&mut out, "setup_s", ep.setup_s, "s");
        metric(&mut out, "refresh_p50_ms", median(&refresh), "ms");
        metric(&mut out, "refresh_tail_ms", quantile(&refresh, 0.9), "ms");
        metric(&mut out, "adhoc_p50_ms", median(&adhoc), "ms");
        metric(&mut out, "adhoc_tail_ms", quantile(&adhoc, 0.9), "ms");
        metric(
            &mut out,
            "dash_max_loads_per_s",
            median(&blocks_per_s),
            "loads/s",
        );
        // The cycle timings are reported at the reference machine speed
        // (see PROBE_REF_MS); the raw values go to the report.
        let probe_ms = median(&ep.probe_ns) / 1e6;
        let speed = PROBE_REF_MS / probe_ms;
        report.insert("probe_ms".into(), probe_ms.into());
        let timings = [
            ("cycle_p50_ms", median(&ep.cycle_ms), "ms"),
            ("cycle_tail_ms", cyc_tail, "ms"),
            (
                "ingest_samples_per_s",
                ep.ingested_in_cycles as f64 / ep.stepping_s.max(1e-9),
                "samples/s",
            ),
        ];
        let mut raw = serde_json::Map::new();
        for (name, value, unit) in timings {
            raw.insert(name.into(), value.into());
            let scaled = if unit == "samples/s" {
                value / speed
            } else {
                value * speed
            };
            metric(&mut out, name, scaled, unit);
        }
        report.insert("raw".into(), raw.into());
        metric(&mut out, "disk_bytes_per_sample", ep.disk_per_sample, "B");
        metric(&mut out, "peak_rss_mib", stats::peak_rss_mib(), "MiB");
    } else {
        traced_metrics(args, &eps, &mut out, &mut report, &mut ops, &mut problems)?;
    }
    report.insert(
        "problems".into(),
        problems.iter().take(20).cloned().collect::<Vec<_>>().into(),
    );
    println!("# report {}", serde_json::Value::Object(report));
    println!(
        "{}",
        serde_json::json!({
            "correct": problems.is_empty(),
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": serde_json::Value::Object(out),
        })
    );
    Ok(())
}

fn traced_metrics(
    args: &Args,
    eps: &[Episode],
    out: &mut serde_json::Map<String, serde_json::Value>,
    report: &mut serde_json::Map<String, serde_json::Value>,
    ops: &mut Ops,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let (plain, traced) = (&eps[0], &eps[1]);
    let tracer = traced.spans.as_ref().expect("traced episode");
    let c = traced.counts.clone().unwrap_or_default();
    let spans = tracer.spans();
    let per_call = |name: &str, scale: f64| -> f64 {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / scale)
            .collect();
        median(&d)
    };
    let ms = |name| per_call(name, 1e6);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    // Parity: the composed cycle must reach the untraced end state.
    ops.add(1, 0);
    report.insert("parity".into(), (plain.digest == traced.digest).into());

    // Layer self time within the measured cycles.
    let measured: Vec<_> = spans
        .iter()
        .filter(|s| s.req > fleet::WARMUP_CYCLES as u64 && s.req < trace::READ_REQ)
        .cloned()
        .collect();
    let self_ns = trace::self_time_ns(&measured);
    let cycle_wall: u64 = measured
        .iter()
        .filter(|s| s.name == "cycle")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let layers_ns: u64 = self_ns
        .iter()
        .filter(|(k, _)| **k != "cycle")
        .map(|(_, v)| v)
        .sum();
    report.insert(
        "cycle_self_ms".into(),
        self_ns
            .iter()
            .map(|(k, v)| ((*k).to_string(), serde_json::json!(*v as f64 / 1e6)))
            .collect::<serde_json::Map<_, _>>()
            .into(),
    );
    ops.add(1, 0);
    if layers_ns > cycle_wall {
        ops.failed += 1;
        problems.push(format!(
            "summed layer self time {layers_ns} ns exceeds cycle wall {cycle_wall} ns"
        ));
    }
    let p50 = |e: &Episode| median(&e.cycle_ms);
    metric(
        out,
        "trace.overhead_ratio",
        p50(traced) / p50(plain).max(1e-9) - 1.0,
        "ratio",
    );
    metric(
        out,
        "trace.layer_self_share",
        ratio(layers_ns, cycle_wall),
        "ratio",
    );
    metric(out, "simnode.step_ms", ms("simnode.step_all"), "ms");
    metric(out, "slurm.tick_ms", ms("slurm.tick"), "ms");
    metric(out, "slurm.submit_us", per_call("slurm.submit", 1e3), "us");
    let render = if c.samples_pushed > 0 {
        "exporter.render_for_push"
    } else {
        "exporter.render"
    };
    metric(out, "exporter.render_us", per_call(render, 1e3), "us");
    metric(
        out,
        "exporter.bytes_per_render",
        ratio(c.render_bytes, c.render_calls),
        "B",
    );
    metric(out, "tsdb.scrape_ms", ms("tsdb.scrape"), "ms");
    metric(
        out,
        "tsdb.samples_per_pass",
        ratio(c.samples_scraped, c.scrape_passes),
        "count",
    );
    metric(
        out,
        "tsdb.scrape_failures",
        c.scrape_failures as f64,
        "count",
    );
    metric(out, "tsdb.rules_ms", ms("tsdb.rules"), "ms");
    metric(
        out,
        "tsdb.rule_series_per_tick",
        ratio(c.rule_series, c.rule_ticks),
        "count",
    );
    metric(
        out,
        "tsdb.rules_incremental_ms",
        ms("tsdb.rules_incremental"),
        "ms",
    );
    metric(out, "tsdb.checkpoint_ms", ms("tsdb.checkpoint"), "ms");
    metric(out, "apiserver.poll_ms", ms("apiserver.poll"), "ms");
    metric(
        out,
        "apiserver.units_per_poll",
        ratio(c.units_upserted, c.updater_polls),
        "count",
    );
    metric(out, "stream.publish_ms", ms("stream.publish"), "ms");
    metric(out, "stream.failures", c.stream_failures as f64, "count");
    metric(out, "alertsrv.tick_ms", ms("alertsrv.tick"), "ms");
    metric(
        out,
        "alertsrv.notifications",
        c.notifications as f64,
        "count",
    );
    metric(out, "meta.scrape_ms", ms("meta.scrape"), "ms");
    metric(out, "obs.trace_gc_us", per_call("obs.trace_gc", 1e3), "us");
    let units = |k: &str| match k {
        "tsdb.wal_bytes_per_sample"
        | "stream.frame_bytes_per_sample"
        | "relstore.bytes_per_unit" => "B",
        k if k.ends_with("_ms") => "ms",
        k if k.contains("ratio") || k.contains("share") => "ratio",
        _ => "count",
    };
    for (k, v) in &traced.layer {
        metric(out, k, *v, units(k));
    }
    if plain.digest != traced.digest {
        ops.failed += 1;
        problems.push(format!(
            "traced composition diverged: {} vs {}",
            traced.digest, plain.digest
        ));
    }
    let path = args
        .work_dir
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write spans: {e}"))?;
    report.insert(
        "spans".into(),
        serde_json::json!({"count": spans.len(), "file": path.to_string_lossy().into_owned()}),
    );
    Ok(())
}
