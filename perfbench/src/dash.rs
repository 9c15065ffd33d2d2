//! The read path: the users' Fig. 2 view over real sockets. A frozen,
//! populated stack is served as LB (ownership ACL) → qfe → TSDB leader +
//! one WAL-following replica, with the API server answering 2a/2b. Client
//! threads load dashboards, either as a closed loop that saturates the
//! stack or as an open loop of independent users at a fixed offered rate.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceems::apiserver::schema::{unit_cols, usage_cols, UNITS_TABLE, USAGE_TABLE};
use ceems::apiserver::ApiServer;
use ceems::http::{Client, HttpServer, ServerConfig};
use ceems::lb::acl::Authorizer;
use ceems::lb::{Backend, BackendPool, CeemsLb, LbConfig, Strategy};
use ceems::prelude::*;
use ceems::qfe::{HttpDownstream, QueryFrontend};
use ceems::relstore::{Filter, Query};
use ceems::tsdb::httpapi::api_router;
use ceems::tsdb::replica::WalFollower;

use crate::gen::{Load, LoadClass, UnitInfo};
use crate::trace::Tracer;

/// Client threads that run a load schedule; each holds one keep-alive
/// connection per server it talks to.
pub const WORKERS: usize = 2;

/// HTTP requests in one load: 2a, 2b and five panels.
pub const LOAD_REQUESTS: u64 = 7;

/// The five Fig. 2c panels of one unit.
pub fn panel_queries(uuid: &str) -> [String; 5] {
    [
        format!("sum(uuid:ceems_cpu_time:rate{{uuid=\"{uuid}\"}})"),
        format!("sum(ceems_compute_unit_memory_used_bytes{{uuid=\"{uuid}\"}}) / 1073741824"),
        format!("sum(uuid:ceems_power:watts{{uuid=\"{uuid}\"}})"),
        format!("sum(rate(ceems_compute_unit_perf_flops_total{{uuid=\"{uuid}\"}}[2m])) / 1e9"),
        format!("sum(rate(ceems_compute_unit_net_rx_bytes_total{{uuid=\"{uuid}\"}}[2m])) / 1e6"),
    ]
}

fn range_path(query: &str, l: &Load) -> String {
    format!(
        "/api/v1/query_range?query={}&start={}&end={}&step={}",
        ceems::http::url::encode_component(query),
        l.start_s,
        l.end_s,
        l.step_s
    )
}

/// The served read topology over a frozen stack.
pub struct Topology {
    servers: Vec<HttpServer>,
    pub leader_url: String,
    pub replica_url: String,
    pub api_url: String,
    pub lb_url: String,
    pub replica_lag_records: u64,
    pub now_ms: i64,
}

impl Topology {
    pub fn start(stack: &CeemsStack) -> Result<Topology, String> {
        let now_ms = stack.clock.now_ms();
        let now: ceems::tsdb::httpapi::NowFn = Arc::new(move || now_ms);
        let serve = |router| {
            HttpServer::serve(ServerConfig::ephemeral(), router).map_err(|e| e.to_string())
        };
        let leader = serve(api_router(stack.tsdb.clone(), now.clone()))?;
        let leader_url = leader.base_url();

        let replica_db = Arc::new(Tsdb::new(TsdbConfig {
            query_threads: stack.config().query_threads,
            ..TsdbConfig::default()
        }));
        let mut follower = WalFollower::new(replica_db.clone(), leader_url.clone());
        follower.bootstrap().map_err(|e| e.to_string())?;
        follower.catch_up(3).map_err(|e| e.to_string())?;
        let leader_records = stack.tsdb.wal_position().map_or(0, |p| p.records);
        let replica_lag_records = leader_records.saturating_sub(follower.position().records);
        let replica = serve(api_router(replica_db, now.clone()))?;
        let replica_url = replica.base_url();

        let api = Arc::new(ApiServer::new(
            stack.updater.clone(),
            stack.config().admin_users.clone(),
        ))
        .serve()
        .map_err(|e| e.to_string())?;
        let api_url = api.base_url();

        let mut topo = Topology {
            servers: vec![leader, replica, api],
            leader_url,
            replica_url,
            api_url,
            lb_url: String::new(),
            replica_lag_records,
            now_ms,
        };
        let qfe_url = topo.fresh_qfe(stack)?.1;
        let lb = Arc::new(CeemsLb::new(
            BackendPool::new(
                vec![
                    Backend::new("leader", topo.leader_url.clone()),
                    Backend::new("replica", topo.replica_url.clone()),
                ],
                Strategy::round_robin(),
            ),
            Authorizer::api(topo.api_url.clone()),
            LbConfig {
                admin_users: stack.config().admin_users.clone(),
                query_frontend: Some(qfe_url),
                trace_sink: Some(stack.trace_sink()),
            },
        ));
        let lb_srv = lb.serve().map_err(|e| e.to_string())?;
        topo.lb_url = lb_srv.base_url();
        topo.servers.push(lb_srv);
        Ok(topo)
    }

    /// Serves a new query frontend (empty cache) over leader + replica.
    pub fn fresh_qfe(
        &mut self,
        stack: &CeemsStack,
    ) -> Result<(Arc<QueryFrontend>, String), String> {
        let now_ms = self.now_ms;
        let fe = QueryFrontend::new(
            Arc::new(HttpDownstream::new(vec![
                self.leader_url.clone(),
                self.replica_url.clone(),
            ])),
            stack.qfe_config(Arc::new(move || now_ms)),
        );
        let srv = fe.serve().map_err(|e| e.to_string())?;
        let url = srv.base_url();
        self.servers.push(srv);
        Ok((fe, url))
    }

    pub fn shutdown(self) {
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// Units the API server knows, for the dashboard schedule.
pub fn unit_list(stack: &CeemsStack) -> Vec<UnitInfo> {
    let rows = stack
        .updater
        .lock()
        .db()
        .query(UNITS_TABLE, &Query::all())
        .unwrap_or_default();
    let mut units: Vec<UnitInfo> = rows
        .iter()
        .filter_map(|r| {
            Some(UnitInfo {
                uuid: r[unit_cols::UUID].as_text()?.to_string(),
                user: r[unit_cols::USER].as_text()?.to_string(),
                start_ms: r[unit_cols::STARTED_AT].as_int()?,
                end_ms: r[unit_cols::ENDED_AT].as_int(),
                nodes: r[unit_cols::NNODES].as_int().unwrap_or(1),
            })
        })
        .collect();
    units.sort_by(|a, b| a.uuid.cmp(&b.uuid));
    units
}

/// Where the five panels of a load go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Lb,
    Qfe,
    Tsdb,
}

#[derive(Clone, Debug)]
pub struct LoadResult {
    /// Index of the load in its schedule.
    pub idx: usize,
    pub class: LoadClass,
    /// From due time to the last panel's response.
    pub latency_ms: f64,
    /// How late the generator started the load.
    pub lateness_ms: f64,
    pub panel_ms: Vec<f64>,
    pub usage_ms: f64,
    pub units_ms: f64,
    pub failures: u64,
    pub forbidden: u64,
    pub cached_steps: u64,
    pub fetched_steps: u64,
    /// Panel (path, body) pairs kept for the byte-identity check.
    pub bodies: Vec<(String, Vec<u8>)>,
    /// The 2a and 2b bodies, kept for the relstore check.
    pub usage_body: Vec<u8>,
    pub units_body: Vec<u8>,
}

fn run_load(
    client: &Client,
    urls: (&str, &str),
    tier: Tier,
    l: &Load,
    keep: bool,
    tracer: Option<(&Tracer, u64)>,
) -> LoadResult {
    let (panel_base, api_base) = urls;
    let user_client = client
        .clone()
        .with_header("X-Grafana-User", l.user.as_str());
    let mut r = LoadResult {
        idx: 0,
        class: l.class,
        latency_ms: 0.0,
        lateness_ms: 0.0,
        panel_ms: Vec::with_capacity(5),
        usage_ms: 0.0,
        units_ms: 0.0,
        failures: 0,
        forbidden: 0,
        cached_steps: 0,
        fetched_steps: 0,
        bodies: Vec::new(),
        usage_body: Vec::new(),
        units_body: Vec::new(),
    };
    let get = |name: &'static str, url: String| -> (f64, Option<ceems::http::Response>) {
        let t0 = Instant::now();
        let open = tracer.map(|(t, req)| (t, t.begin(name, 0, req)));
        let resp = user_client.get(&url).ok();
        if let Some((t, o)) = open {
            t.end(o);
        }
        (t0.elapsed().as_secs_f64() * 1e3, resp)
    };
    let (ms, resp) = get(
        "apiserver.usage",
        format!("{api_base}/api/v1/usage/current"),
    );
    let usage = resp.filter(|x| x.status.0 == 200);
    let usage_ok = usage.is_some();
    let usage_body = usage.map(|x| x.body).unwrap_or_default();
    r.usage_ms = ms;
    let (ms, resp) = get("apiserver.units", format!("{api_base}/api/v1/units"));
    let units = resp.filter(|x| x.status.0 == 200);
    let units_ok = units.is_some();
    let units_body = units.map(|x| x.body).unwrap_or_default();
    r.units_ms = ms;
    let panel_span = match tier {
        Tier::Lb => "lb.panel",
        Tier::Qfe => "qfe.panel",
        Tier::Tsdb => "tsdb.query",
    };
    let mut panel_fail = 0;
    let mut forbidden = 0;
    let mut bodies = Vec::new();
    let mut steps = (0u64, 0u64);
    let expect_403 = l.class == LoadClass::Foreign && tier == Tier::Lb;
    for q in panel_queries(&l.uuid) {
        let path = range_path(&q, l);
        let (ms, resp) = get(panel_span, format!("{panel_base}{path}"));
        r.panel_ms.push(ms);
        match resp {
            Some(x) if expect_403 && x.status.0 == 403 => forbidden += 1,
            Some(x) if !expect_403 && x.status.0 == 200 => {
                let num = |h: &str| x.header(h).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
                steps.0 += num("x-ceems-qfe-cached-steps");
                steps.1 += num("x-ceems-qfe-fetched-steps");
                if keep {
                    bodies.push((path, x.body));
                }
            }
            _ => panel_fail += 1,
        }
    }
    r.failures = panel_fail + u64::from(!usage_ok) + u64::from(!units_ok);
    r.forbidden = forbidden;
    (r.cached_steps, r.fetched_steps) = steps;
    r.bodies = bodies;
    if keep {
        r.usage_body = usage_body;
        r.units_body = units_body;
    }
    r
}

/// One run of a load schedule.
#[derive(Clone, Debug, Default)]
pub struct RateRun {
    pub loads: Vec<LoadResult>,
    pub wall_s: f64,
    /// Loads due in the window but started after it ended, or never sent
    /// because the generator gave up.
    pub backlog: usize,
    /// The generator fell more than a second behind and stopped sending.
    pub gave_up: bool,
}

/// A rate whose generator falls this far behind has saturated; its
/// remaining loads are not sent.
const GIVE_UP_LATE: Duration = Duration::from_secs(1);

/// How the client threads pace a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// Each load starts at its due time (or as soon as a client thread is
    /// free) and is timed from its due time.
    Open,
    /// Due times are ignored: each client thread starts its next load as
    /// soon as its last one ends, so the threads keep the stack saturated.
    Closed,
}

/// Runs `schedule` on [`WORKERS`] client threads.
pub fn drive(
    schedule: &[Load],
    pacing: Pacing,
    tier: Tier,
    urls: (&str, &str),
    keep_every: usize,
    tracer: Option<&Tracer>,
) -> RateRun {
    let next = AtomicUsize::new(0);
    let gave_up = std::sync::atomic::AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(2);
    let window_end = match pacing {
        Pacing::Open => schedule.last().map_or(0, |l| l.due_us),
        Pacing::Closed => 0,
    };
    let started_late = AtomicUsize::new(0);
    let mut out: Vec<(usize, LoadResult)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let client = Client::new();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(l) = schedule.get(i) else { break };
                        let due = match pacing {
                            Pacing::Open => t0 + Duration::from_micros(l.due_us),
                            Pacing::Closed => Instant::now(),
                        };
                        // Yield rather than sleep until due: a sleeping thread
                        // on a small VM wakes late, which would show up as
                        // generator lateness, and a busy client keeps its vCPU
                        // from halting, so the servers' wake-ups stay fast.
                        while Instant::now() < due {
                            std::thread::yield_now();
                        }
                        let start = Instant::now();
                        if gave_up.load(Ordering::SeqCst)
                            || start.duration_since(due) > GIVE_UP_LATE
                        {
                            gave_up.store(true, Ordering::SeqCst);
                            break;
                        }
                        if start.duration_since(t0).as_micros() as u64 > window_end
                            && l.due_us < window_end
                        {
                            started_late.fetch_add(1, Ordering::SeqCst);
                        }
                        let keep = keep_every > 0 && i.is_multiple_of(keep_every);
                        let mut r = run_load(
                            &client,
                            urls,
                            tier,
                            l,
                            keep,
                            tracer.map(|t| (t, crate::trace::READ_REQ + i as u64)),
                        );
                        r.idx = i;
                        r.lateness_ms = start.duration_since(due).as_secs_f64() * 1e3;
                        r.latency_ms = Instant::now().duration_since(due).as_secs_f64() * 1e3;
                        mine.push((i, r));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    RateRun {
        wall_s: t0.elapsed().as_secs_f64(),
        gave_up: gave_up.load(Ordering::SeqCst),
        backlog: started_late.load(Ordering::SeqCst) + schedule.len() - out.len(),
        loads: out.into_iter().map(|(_, r)| r).collect(),
    }
}

/// Read-path output checks. Returns (checks made, failures, reasons).
///
/// - Every kept LB panel body equals the TSDB-direct answer to the same
///   query, byte for byte.
/// - Foreign loads got exactly five 403s each, owned loads none.
/// - 2a/2b payloads list exactly the relstore rows of the user.
pub fn check(
    stack: &CeemsStack,
    topo: &Topology,
    schedule: &[Load],
    run: &RateRun,
) -> (u64, u64, Vec<String>) {
    let (mut made, mut failed, mut why) = (0u64, 0u64, Vec::new());
    let client = Client::new();
    let mut seen_users: BTreeMap<&str, ()> = BTreeMap::new();
    for r in &run.loads {
        let l = &schedule[r.idx];
        made += 1;
        let want_403 = if l.class == LoadClass::Foreign { 5 } else { 0 };
        if r.forbidden != want_403 {
            failed += 1;
            why.push(format!(
                "{} as {}: {} 403s, want {want_403}",
                l.uuid, l.user, r.forbidden
            ));
        }
        for (path, body) in &r.bodies {
            made += 1;
            let direct = client
                .clone()
                .with_header("X-Grafana-User", l.user.as_str())
                .get(&format!("{}{path}", topo.leader_url));
            match direct {
                Ok(d) if d.status.0 == 200 && &d.body == body => {}
                Ok(d) => {
                    failed += 1;
                    why.push(format!(
                        "LB body differs from TSDB-direct for {path}: {} vs {} bytes",
                        body.len(),
                        d.body.len()
                    ));
                }
                Err(e) => {
                    failed += 1;
                    why.push(format!("TSDB-direct {path}: {e}"));
                }
            }
        }
        if r.units_body.is_empty() || seen_users.insert(l.user.as_str(), ()).is_some() {
            continue;
        }
        made += 2;
        let upd = stack.updater.lock();
        let user_q = |table| {
            upd.db()
                .query(
                    table,
                    &Query::all().filter(Filter::Eq("user".into(), l.user.as_str().into())),
                )
                .unwrap_or_default()
        };
        let mut want_units: Vec<String> = user_q(UNITS_TABLE)
            .iter()
            .filter_map(|r| r[unit_cols::UUID].as_text().map(str::to_string))
            .collect();
        let want_kwh: f64 = user_q(USAGE_TABLE)
            .iter()
            .filter_map(|r| r[usage_cols::ENERGY_KWH].as_real())
            .sum();
        drop(upd);
        let parse = |b: &[u8]| serde_json::from_slice::<serde_json::Value>(b).unwrap_or_default();
        let units = parse(&r.units_body);
        let mut got_units: Vec<String> = units["units"]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|u| u["uuid"].as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        got_units.sort();
        want_units.sort();
        if got_units != want_units {
            failed += 1;
            why.push(format!(
                "2b for {}: {} units, relstore has {}",
                l.user,
                got_units.len(),
                want_units.len()
            ));
        }
        let usage = parse(&r.usage_body);
        let got_kwh: f64 = usage["usage"]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|u| u["total_energy_kwh"].as_f64())
                    .sum()
            })
            .unwrap_or(0.0);
        if (got_kwh - want_kwh).abs() > 1e-9 * want_kwh.abs().max(1.0) {
            failed += 1;
            why.push(format!(
                "2a for {}: {got_kwh} kWh, relstore has {want_kwh}",
                l.user
            ));
        }
    }
    (made, failed, why)
}
