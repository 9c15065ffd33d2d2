//! Seeded input generation. Everything the stack receives (job
//! submissions, dashboard requests) is produced here from `--seed`; the
//! same seed always yields the same inputs.

use ceems::simnode::WorkloadProfile;
use ceems::slurm::JobRequest;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range_f(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range_u(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.range_u(0, i);
            v.swap(i, j);
        }
        v
    }
}

/// One partition as the job generator sees it.
#[derive(Clone, Debug)]
pub struct PartitionShape {
    pub name: &'static str,
    pub nodes: usize,
    pub cores: usize,
    pub gpus: usize,
}

/// Job-stream parameters: the churn mix of `ceems_slurm::churn` made
/// explicit so the benchmark, not the stack, owns the inputs.
#[derive(Clone, Debug)]
pub struct JobMix {
    pub users: usize,
    pub projects: usize,
    /// Jobs submitted at t=0.
    pub prefill: usize,
    /// Arrivals per simulated hour after t=0.
    pub arrivals_per_hour: f64,
    /// Share of jobs on GPU partitions that request GPUs.
    pub gpu_fraction: f64,
}

/// A job due at a simulated time (ms since the episode start).
#[derive(Clone, Debug)]
pub struct Arrival {
    pub at_ms: i64,
    pub req: JobRequest,
}

/// `n` class labels in shuffled order whose counts follow `weights` as
/// closely as whole numbers allow (largest remainder). Drawing attributes
/// from such decks rather than independently keeps the aggregate mix of
/// every seed the same, so seeds differ in which job gets what, not in
/// how much work there is.
fn deck(rng: &mut Rng, n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_rem: Vec<usize> = (0..weights.len()).collect();
    by_rem
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &i in by_rem.iter().take(n - counts.iter().sum::<usize>()) {
        counts[i] += 1;
    }
    let labels: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    rng.permutation(n).into_iter().map(|k| labels[k]).collect()
}

/// `n` stratified uniforms in `[0, 1)`, one per stratum, shuffled.
fn strata(rng: &mut Rng, n: usize) -> Vec<f64> {
    rng.permutation(n)
        .into_iter()
        .map(|k| (k as f64 + rng.unit()) / n as f64)
        .collect()
}

/// The job stream for `horizon_ms` of simulated time: `prefill` jobs at
/// t=0, then `arrivals_per_hour × horizon` arrivals at uniformly random
/// instants (a Poisson process conditioned on its count). Partitions get
/// jobs in proportion to their node count, sizes follow the 70/25/5
/// small/medium/large mix, walltimes are log-uniform in 10 min..20 h and
/// workloads follow the churn generator's 4/2/2/1/1 mix, each exactly per
/// batch (see [`deck`]). Every request fits its partition, so no
/// submission is rejected.
pub fn job_stream(
    seed: u64,
    parts: &[PartitionShape],
    mix: &JobMix,
    horizon_ms: i64,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0x10b5);
    let n_arrivals = (mix.arrivals_per_hour * horizon_ms as f64 / 3.6e6).round() as usize;
    let mut times: Vec<i64> = (0..n_arrivals)
        .map(|_| 1 + (rng.unit() * (horizon_ms - 1) as f64) as i64)
        .collect();
    times.sort_unstable();
    let mut out = Vec::with_capacity(mix.prefill + n_arrivals);
    for batch in [vec![0; mix.prefill], times] {
        let n = batch.len();
        let d = Decks {
            part: deck(
                &mut rng,
                n,
                &parts.iter().map(|p| p.nodes as f64).collect::<Vec<_>>(),
            ),
            shape: deck(&mut rng, n, &[0.70, 0.25, 0.05]),
            gpu: deck(&mut rng, n, &[mix.gpu_fraction, 1.0 - mix.gpu_fraction]),
            kind: deck(&mut rng, n, &[4.0, 2.0, 2.0, 1.0, 1.0]),
            walltime: strata(&mut rng, n),
        };
        for (k, at_ms) in batch.into_iter().enumerate() {
            out.push(Arrival {
                at_ms,
                req: draw_job(&mut rng, parts, mix, &d, k),
            });
        }
    }
    out
}

struct Decks {
    part: Vec<usize>,
    shape: Vec<usize>,
    gpu: Vec<usize>,
    kind: Vec<usize>,
    walltime: Vec<f64>,
}

fn draw_job(
    rng: &mut Rng,
    parts: &[PartitionShape],
    mix: &JobMix,
    d: &Decks,
    k: usize,
) -> JobRequest {
    let user_id = rng.range_u(0, mix.users - 1);
    let part = &parts[d.part[k]];
    let (nodes, cores, mem_gb) = match d.shape[k] {
        0 => (1, rng.range_u(1, 8), rng.range_u(2, 16)),
        1 => (1, rng.range_u(8, 32), rng.range_u(16, 64)),
        _ => (rng.range_u(2, 4), rng.range_u(16, 40), rng.range_u(32, 128)),
    };
    let gpus = if part.gpus > 0 && d.gpu[k] == 0 {
        rng.range_u(1, part.gpus.min(4))
    } else {
        0
    };
    let walltime_s = (600f64.ln() + d.walltime[k] * (72_000f64.ln() - 600f64.ln())).exp() as u64;
    let workload = match d.kind[k] {
        0 => WorkloadProfile::CpuBound {
            intensity: rng.range_f(0.7, 0.99),
        },
        1 => WorkloadProfile::MemoryBound {
            resident: rng.range_f(0.5, 0.95),
        },
        2 if gpus > 0 => WorkloadProfile::GpuTraining {
            intensity: rng.range_f(0.7, 0.98),
            period_s: rng.range_f(120.0, 1200.0),
        },
        2 | 3 => WorkloadProfile::Bursty {
            period_s: rng.range_f(30.0, 600.0),
            duty: rng.range_f(0.2, 0.8),
        },
        _ => WorkloadProfile::Idle,
    };
    JobRequest {
        user: format!("user{user_id:03}"),
        account: format!("proj{:02}", user_id % mix.projects),
        partition: part.name.to_string(),
        nodes: nodes.min(part.nodes),
        cores_per_node: cores.min(part.cores),
        memory_per_node: (mem_gb as u64) << 30,
        gpus_per_node: gpus,
        walltime_s,
        workload,
    }
}

/// A unit as the dashboard generator sees it (read from the populated
/// store, whose contents are themselves fixed by the seed).
#[derive(Clone, Debug, PartialEq)]
pub struct UnitInfo {
    pub uuid: String,
    pub user: String,
    pub start_ms: i64,
    pub end_ms: Option<i64>,
    /// Nodes the unit ran on.
    pub nodes: i64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadClass {
    /// Reload of the user's own running job over the trailing window.
    Refresh,
    /// A random owned unit over an unaligned window.
    Adhoc,
    /// A panel request for a unit the user does not own (must get 403).
    Foreign,
}

/// One dashboard load: 2a + 2b + the five Fig. 2c panels.
#[derive(Clone, Debug, PartialEq)]
pub struct Load {
    /// Due time relative to the start of its rate window.
    pub due_us: u64,
    pub class: LoadClass,
    pub user: String,
    pub uuid: String,
    pub start_s: i64,
    pub end_s: i64,
    pub step_s: i64,
}

/// Dashboard traffic parameters.
#[derive(Clone, Debug)]
pub struct DashMix {
    pub loads_per_s: f64,
    pub window_s: f64,
    pub refresh_share: f64,
    pub foreign_share: f64,
    /// Length of a refresh panel's trailing window.
    pub refresh_span_s: i64,
    /// Length of an ad-hoc panel's window.
    pub adhoc_span_s: i64,
    /// Running units whose owners are watching (refresh loads pick among them).
    pub refresh_pool: usize,
    /// Share of each class's loads that go to multi-node units.
    pub multi_node_share: f64,
}

/// Open-loop schedule for one rate window: jittered due times of
/// independent users, each load of a fixed class mix. Refresh loads pick a
/// watched running unit and always ask for the same trailing window ending
/// at `now_ms`; ad-hoc loads pick a unit and an unaligned window inside its
/// lifetime; foreign loads do the same as a user who owns nothing.
pub fn dash_schedule<'a>(
    seed: u64,
    window: u64,
    units: &'a [UnitInfo],
    now_ms: i64,
    mix: &DashMix,
) -> Vec<Load> {
    // The same users watch the same units in every rate window of a run.
    let mut pool_rng = Rng::new(seed ^ 0xda5b);
    let mut rng = Rng::new((seed ^ 0x10ad).wrapping_add(window.wrapping_mul(0x9e37_79b9)));
    let now_s = now_ms / 1000;
    let lived_ms = |u: &UnitInfo| u.end_ms.unwrap_or(now_ms) - u.start_ms;
    // Every panel of a class covers the same span of data, so a load's cost
    // does not hinge on which unit it drew: watched units have run for the
    // whole refresh window, ad-hoc units for at least the ad-hoc window
    // (falling back to any unit when too few have).
    let fallback =
        |v: Vec<&'a UnitInfo>, all: Vec<&'a UnitInfo>| if v.is_empty() { all } else { v };
    // A multi-node unit's panels sum several series and cost about half as
    // much again; candidates are kept apart by size (single, multi) so that
    // every seed sends the same share of loads to each.
    let by_size = |v: Vec<&'a UnitInfo>| -> [Vec<&'a UnitInfo>; 2] {
        let (multi, single) = v.into_iter().partition(|u| u.nodes > 1);
        [single, multi]
    };
    let [single, multi] = by_size(fallback(
        units
            .iter()
            .filter(|u| u.end_ms.is_none() && lived_ms(u) >= mix.refresh_span_s * 1000)
            .collect(),
        units.iter().filter(|u| u.end_ms.is_none()).collect(),
    ));
    let n_multi =
        ((mix.refresh_pool as f64 * mix.multi_node_share).ceil() as usize).min(multi.len());
    let mut pick = |mut v: Vec<&'a UnitInfo>, k: usize| {
        for i in 0..v.len().min(k) {
            let j = pool_rng.range_u(i, v.len() - 1);
            v.swap(i, j);
        }
        v.truncate(k);
        v
    };
    let watched = [
        pick(single, mix.refresh_pool.max(1).saturating_sub(n_multi)),
        pick(multi, n_multi),
    ];
    let long_lived = by_size(fallback(
        units
            .iter()
            .filter(|u| lived_ms(u) >= mix.adhoc_span_s * 1000)
            .collect(),
        units.iter().collect(),
    ));
    // Exactly rate × window loads, one at a random instant of each
    // 1/rate slot, so every seed offers the same load, in the exact class
    // mix. Unlike Poisson arrivals, the slots keep a seed from bunching
    // loads: the latency tail then measures the loads, not how the seed
    // happened to bunch them, and it holds steady from seed to seed.
    let n = (mix.loads_per_s * mix.window_s).round() as usize;
    let due: Vec<f64> = (0..n)
        .map(|i| (i as f64 + rng.unit()) / mix.loads_per_s)
        .collect();
    let classes = deck(
        &mut rng,
        n,
        &[
            mix.refresh_share,
            1.0 - mix.refresh_share - mix.foreign_share,
            mix.foreign_share,
        ],
    );
    // Within each class, exactly its share of loads goes to multi-node
    // units.
    let mut sizes: Vec<Vec<usize>> = (0..3)
        .map(|c| {
            let k = classes.iter().filter(|&&x| x == c).count();
            deck(
                &mut rng,
                k,
                &[1.0 - mix.multi_node_share, mix.multi_node_share],
            )
        })
        .collect();
    let mut out = Vec::with_capacity(n);
    for (t_s, c) in due.into_iter().zip(classes) {
        let class = [LoadClass::Refresh, LoadClass::Adhoc, LoadClass::Foreign][c];
        let size = sizes[c].pop().expect("one size per load");
        let pools = if class == LoadClass::Refresh && watched.iter().any(|p| !p.is_empty()) {
            &watched
        } else {
            &long_lived
        };
        // A fleet without units of this size falls back to the other size.
        let cands = if pools[size].is_empty() {
            &pools[1 - size]
        } else {
            &pools[size]
        };
        let unit = cands[rng.range_u(0, cands.len() - 1)];
        let (user, start_s, end_s) = match class {
            LoadClass::Refresh => (unit.user.clone(), now_s - mix.refresh_span_s, now_s),
            LoadClass::Adhoc | LoadClass::Foreign => {
                // A fixed-length window at an unaligned start inside the
                // unit's lifetime (clamped to the data there is).
                let lo = unit.start_ms / 1000;
                let hi = unit.end_ms.unwrap_or(now_ms) / 1000;
                let latest = (hi - mix.adhoc_span_s).max(lo);
                let a = lo + rng.range_u(0, (latest - lo) as usize) as i64;
                let user = if class == LoadClass::Foreign {
                    // Nobody owns anything under this name.
                    format!("{}x", unit.user)
                } else {
                    unit.user.clone()
                };
                (user, a, (a + mix.adhoc_span_s).min(now_s).max(a + 60))
            }
        };
        out.push(Load {
            due_us: (t_s * 1e6) as u64,
            class,
            user,
            uuid: unit.uuid.clone(),
            start_s,
            end_s,
            step_s: 15,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts() -> Vec<PartitionShape> {
        vec![
            PartitionShape {
                name: "cpu-intel",
                nodes: 16,
                cores: 40,
                gpus: 0,
            },
            PartitionShape {
                name: "gpu-a100",
                nodes: 6,
                cores: 40,
                gpus: 8,
            },
        ]
    }

    fn mix() -> JobMix {
        JobMix {
            users: 20,
            projects: 5,
            prefill: 30,
            arrivals_per_hour: 830.0,
            gpu_fraction: 0.6,
        }
    }

    fn units() -> Vec<UnitInfo> {
        (1..40)
            .map(|i| UnitInfo {
                uuid: format!("slurm-{i}"),
                user: format!("user{:03}", i % 7),
                start_ms: i * 30_000,
                end_ms: (i % 3 == 0).then_some(i * 30_000 + 900_000),
                nodes: if i % 5 == 0 { 2 } else { 1 },
            })
            .collect()
    }

    fn dmix() -> DashMix {
        DashMix {
            loads_per_s: 20.0,
            window_s: 5.0,
            refresh_share: 0.45,
            foreign_share: 0.1,
            refresh_span_s: 3600,
            adhoc_span_s: 600,
            refresh_pool: 4,
            multi_node_share: 0.05,
        }
    }

    fn fingerprint(a: &[Arrival]) -> Vec<String> {
        a.iter()
            .map(|x| format!("{} {:?}", x.at_ms, x.req))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        let a = job_stream(7, &parts(), &mix(), 3_600_000);
        let b = job_stream(7, &parts(), &mix(), 3_600_000);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let now = 3_600_000;
        assert_eq!(
            dash_schedule(7, 0, &units(), now, &dmix()),
            dash_schedule(7, 0, &units(), now, &dmix())
        );
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let a = job_stream(7, &parts(), &mix(), 3_600_000);
        let b = job_stream(8, &parts(), &mix(), 3_600_000);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let now = 3_600_000;
        assert_ne!(
            dash_schedule(7, 0, &units(), now, &dmix()),
            dash_schedule(8, 0, &units(), now, &dmix())
        );
    }

    #[test]
    fn job_stream_follows_the_stated_mix() {
        let jobs = job_stream(3, &parts(), &mix(), 10 * 3_600_000);
        let arrivals = jobs.len() - mix().prefill;
        assert_eq!(arrivals, 8_300);
        let multi = jobs.iter().filter(|j| j.req.nodes > 1).count() as f64 / jobs.len() as f64;
        assert!((multi - 0.05).abs() < 0.002, "multi-node share {multi}");
        assert!(jobs
            .iter()
            .all(|j| (600..72_000).contains(&j.req.walltime_s)));
        let gpu = jobs
            .iter()
            .filter(|j| j.req.partition == "gpu-a100")
            .count() as f64;
        assert!((gpu / jobs.len() as f64 - 6.0 / 22.0).abs() < 0.03);
    }

    #[test]
    fn rate_windows_share_the_watched_units() {
        let watched = |w| {
            let mut v: Vec<String> = dash_schedule(5, w, &units(), 3_600_000, &dmix())
                .into_iter()
                .filter(|l| l.class == LoadClass::Refresh)
                .map(|l| l.uuid)
                .collect();
            v.sort();
            v.dedup();
            v
        };
        let (a, b) = (watched(0), watched(1));
        assert!(a.len() <= 4 && b.len() <= 4);
        assert!(a.iter().all(|u| b.contains(u)) || b.iter().all(|u| a.contains(u)));
        assert_ne!(
            dash_schedule(5, 0, &units(), 3_600_000, &dmix()),
            dash_schedule(5, 1, &units(), 3_600_000, &dmix())
        );
    }

    #[test]
    fn schedule_has_the_class_mix_and_foreign_users() {
        let s = dash_schedule(
            1,
            0,
            &units(),
            3_600_000,
            &DashMix {
                window_s: 200.0,
                ..dmix()
            },
        );
        let count = |c| s.iter().filter(|l| l.class == c).count();
        assert_eq!(
            (
                count(LoadClass::Refresh),
                count(LoadClass::Adhoc),
                count(LoadClass::Foreign)
            ),
            (1800, 1800, 400)
        );
        let all = units();
        let owners: std::collections::HashMap<_, _> = all
            .iter()
            .map(|u| (u.uuid.clone(), u.user.clone()))
            .collect();
        for l in &s {
            assert_eq!(owners[&l.uuid] == l.user, l.class != LoadClass::Foreign);
            assert!(l.end_s > l.start_s);
        }
        let multi: std::collections::HashSet<_> = all
            .iter()
            .filter(|u| u.nodes > 1)
            .map(|u| u.uuid.clone())
            .collect();
        let count_multi = |c| {
            s.iter()
                .filter(|l| l.class == c && multi.contains(&l.uuid))
                .count()
        };
        assert_eq!(
            (
                count_multi(LoadClass::Refresh),
                count_multi(LoadClass::Adhoc),
                count_multi(LoadClass::Foreign)
            ),
            (90, 90, 20)
        );
        assert!(s.windows(2).all(|w| w[0].due_us <= w[1].due_us));
    }
}
