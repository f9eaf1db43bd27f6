//! The three campaign workloads: FullSim, analytic and checkpointed
//! analytic population campaigns through `mpwifi_crowd`.
//!
//! Untraced, each request is one call of the public entry point
//! (`run_campaign` / `run_campaign_resumable`). Traced, the harness runs
//! the same request through the crowd layers' public pieces itself (the
//! work-stealing shard queue, the radio draw, the per-user measurement,
//! the shard summary fold and the journal append) with a span around
//! each, and checks the folded result is byte-identical to the
//! untraced call's.

use crate::layers::{counted, Counts};
use crate::trace::{Recorder, Trace};
use crate::util::mix;
use mpwifi_crowd::measure::TRANSFER_BYTES;
use mpwifi_crowd::world::{combined_target_adjustment, paper_clusters};
use mpwifi_crowd::{
    measure_pair, merge_agreement, run_campaign, run_campaign_resumable, run_campaign_with,
    CampaignConfig, Checkpoint, RunMeasurement, RunMode, ShardSummary, StealQueue,
};
use mpwifi_measure::Mergeable;
use mpwifi_radio::WirelessWorld;
use mpwifi_sim::apps::measure_ping;
use mpwifi_sim::{LinkSpec, SimArena, WIFI_ADDR};
use mpwifi_simcore::{DetRng, Dur};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads per campaign: one per core of a 2-vCPU machine.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FullSim,
    Analytic,
    Checkpointed,
}

impl Kind {
    /// Users per request: FullSim requests are two 5-user shards,
    /// analytic requests span 196 default 512-user shards.
    pub fn users(self) -> u64 {
        match self {
            Kind::FullSim => 10,
            Kind::Analytic | Kind::Checkpointed => 100_000,
        }
    }

    /// Distinct requests per round. A run cycles through them until its
    /// time is up, so each is measured several times.
    pub fn distinct(self) -> u64 {
        match self {
            Kind::FullSim => 8,
            Kind::Analytic => 40,
            Kind::Checkpointed => 24,
        }
    }

    fn mode(self) -> RunMode {
        match self {
            Kind::FullSim => RunMode::FullSim,
            Kind::Analytic | Kind::Checkpointed => RunMode::Analytic,
        }
    }
}

/// Encoded summary bytes: the campaign's output as compared and digested.
pub fn encode(s: &ShardSummary) -> Vec<u8> {
    let mut out = Vec::new();
    s.encode_into(&mut out);
    out
}

pub struct Campaign {
    pub kind: Kind,
    seed: u64,
    work: PathBuf,
    world: World,
}

/// The calibrated per-cluster worlds and cumulative Table 1 weights
/// every user draw picks from (as `crowd::campaign` builds them).
struct World {
    worlds: Vec<WirelessWorld>,
    cum_runs: Vec<u64>,
    total_runs: u64,
}

impl World {
    fn build() -> World {
        let clusters = paper_clusters();
        let worlds = clusters
            .iter()
            .map(|p| {
                WirelessWorld::with_target(
                    p.wifi_median_bps,
                    combined_target_adjustment(p.lte_win_frac),
                )
            })
            .collect();
        let mut total_runs = 0u64;
        let cum_runs = clusters
            .iter()
            .map(|c| {
                total_runs += c.runs as u64;
                total_runs
            })
            .collect();
        World {
            worlds,
            cum_runs,
            total_runs,
        }
    }

    /// One user's cluster, link draw and measurement seed.
    fn draw(&self, campaign_seed: u64, user: u64) -> (usize, LinkSpec, LinkSpec, u64) {
        let mut rng = DetRng::seed_from_u64(mix(campaign_seed, user));
        let pick = rng.uniform_u64(0, self.total_runs);
        let idx = self.cum_runs.partition_point(|&c| c <= pick);
        let draw = self.worlds[idx].draw(&mut rng);
        (idx, draw.wifi, draw.lte, rng.next_u64())
    }
}

impl Campaign {
    /// Inputs only, no checks (the traced run's layer probes).
    pub fn new(kind: Kind, seed: u64, work: &Path) -> Campaign {
        Campaign {
            kind,
            seed,
            work: work.to_path_buf(),
            world: World::build(),
        }
    }

    /// Build the inputs and check the campaign's merge agreement on
    /// a small population: a sharded two-worker run against a
    /// monolithic one-worker run (and, for the checkpointed workload,
    /// a journaled run against a plain one).
    pub fn setup(kind: Kind, seed: u64, work: &Path) -> Result<Campaign, String> {
        let c = Campaign::new(kind, seed, work);
        let (users, shard) = match kind {
            Kind::FullSim => (4, 2),
            _ => (32_768, 512),
        };
        let mut sharded = CampaignConfig::new(users, mix(seed, u64::MAX), kind.mode());
        sharded.workers = WORKERS;
        sharded.shard_users = shard;
        let mut mono = sharded.clone();
        mono.workers = 1;
        mono.shard_users = users;
        let a = run_campaign(&sharded);
        merge_agreement(&a, &run_campaign(&mono))
            .map_err(|e| format!("merge agreement at setup: {e}"))?;
        if kind == Kind::Checkpointed {
            let path = c.journal(u64::MAX);
            let r = run_campaign_resumable(&sharded, &path);
            let _ = std::fs::remove_file(&path);
            let r = r.map_err(|e| format!("checkpointed setup run: {e}"))?;
            merge_agreement(&a, &r.summary)
                .map_err(|e| format!("checkpointed merge agreement at setup: {e}"))?;
        }
        Ok(c)
    }

    pub fn cfg(&self, i: u64) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(self.kind.users(), mix(self.seed, i), self.kind.mode());
        cfg.workers = WORKERS;
        if self.kind == Kind::FullSim {
            // One shard per worker. With the default 512-user shards one
            // worker idles and the other shares its core with whatever the
            // host runs there, which moved the CPU cost of identical work
            // by up to 1.75x between runs; two busy workers keep it steady.
            cfg.shard_users = self.kind.users() / WORKERS as u64;
        }
        cfg
    }

    fn journal(&self, i: u64) -> PathBuf {
        self.work
            .join(format!("journal-{}-{i}.bin", std::process::id()))
    }

    /// One untraced request. Returns the encoded summary, or why the
    /// request failed its checks.
    pub fn run(&self, i: u64) -> Result<Vec<u8>, String> {
        let cfg = self.cfg(i);
        let summary = match self.kind {
            Kind::FullSim | Kind::Analytic => run_campaign(&cfg),
            Kind::Checkpointed => {
                let path = self.journal(i);
                let _ = std::fs::remove_file(&path);
                let r = run_campaign_resumable(&cfg, &path);
                let _ = std::fs::remove_file(&path);
                let r = r.map_err(|e| format!("request {i}: {e}"))?;
                if r.recovered_shards != 0 || r.total_shards != cfg.num_shards() {
                    return Err(format!("request {i}: fresh journal recovered shards"));
                }
                r.summary
            }
        };
        if summary.users != cfg.users || summary.stats.users != cfg.users {
            return Err(format!("request {i}: summary lost users"));
        }
        Ok(encode(&summary.stats))
    }

    /// The plain campaign's summary for request `i` — what a
    /// checkpointed request must reproduce byte for byte.
    pub fn plain(&self, i: u64) -> Vec<u8> {
        encode(&run_campaign(&self.cfg(i)).stats)
    }

    /// Worker balance of request `i` from `run_campaign_with`'s own
    /// shard-completion callbacks: (busy share of the workers' time,
    /// ms the last worker ran after the first one ran dry).
    pub fn balance(&self, i: u64) -> (f64, f64) {
        let cfg = self.cfg(i);
        let done: Mutex<Vec<(std::thread::ThreadId, Instant)>> = Mutex::new(Vec::new());
        let t0 = Instant::now();
        run_campaign_with(&cfg, |_, _, _| {
            done.lock()
                .expect("balance log poisoned")
                .push((std::thread::current().id(), Instant::now()));
        });
        let wall = t0.elapsed().as_secs_f64();
        let mut last: Vec<(std::thread::ThreadId, f64)> = Vec::new();
        for (tid, t) in done.into_inner().expect("balance log poisoned") {
            let s = t.duration_since(t0).as_secs_f64();
            match last.iter_mut().find(|(id, _)| *id == tid) {
                Some(e) => e.1 = e.1.max(s),
                None => last.push((tid, s)),
            }
        }
        let mut finish: Vec<f64> = last.iter().map(|e| e.1).collect();
        finish.resize(WORKERS.max(finish.len()), 0.0);
        let busy: f64 = finish.iter().sum::<f64>() / (finish.len() as f64 * wall);
        let first_dry = finish.iter().cloned().fold(f64::INFINITY, f64::min);
        (busy, (wall - first_dry) * 1e3)
    }

    /// Campaign `cfg` (request `i`) through the layers' public
    /// functions, one span per call. Returns the encoded folded summary.
    pub fn traced(
        &self,
        cfg: &CampaignConfig,
        i: u64,
        trace: &Trace,
        counts: &Mutex<Counts>,
    ) -> Result<Vec<u8>, String> {
        let shards = cfg.num_shards();
        let workers = WORKERS.min(shards as usize).max(1);
        let queue = StealQueue::new(shards, workers);
        let slots: Mutex<Vec<Option<ShardSummary>>> = Mutex::new(vec![None; shards as usize]);
        let mut main_rec = trace.recorder(0);
        let ckpt = match self.kind {
            Kind::Checkpointed => {
                let path = self.journal(i);
                let _ = std::fs::remove_file(&path);
                let opened =
                    main_rec.span("crowd.journal_open", i, |_| Checkpoint::open(&path, cfg));
                let (ck, _) = opened.map_err(|e| format!("traced request {i}: {e}"))?;
                Some((Mutex::new(ck), path))
            }
            _ => None,
        };
        let failed: Mutex<Option<String>> = Mutex::new(None);
        std::thread::scope(|s| {
            for w in 0..workers {
                let (queue, slots, failed, ckpt) = (&queue, &slots, &failed, &ckpt);
                s.spawn(move || {
                    let mut rec = trace.recorder(w as u32 + 1);
                    let mut local = Counts::default();
                    let mut arena = SimArena::new();
                    while let Some(shard) = queue.pop(w) {
                        rec.begin("crowd.shard", i);
                        let summary = self.shard(cfg, shard, &mut rec, &mut arena, &mut local, i);
                        if let Some((ck, _)) = ckpt {
                            local.summary_bytes += encode(&summary).len() as u64;
                            local.journal_appends += 1;
                            let r = rec.span("crowd.journal_append", i, |_| {
                                ck.lock()
                                    .expect("journal poisoned")
                                    .append_slot(shard, &summary)
                            });
                            if let Err(e) = r {
                                failed
                                    .lock()
                                    .expect("poisoned")
                                    .get_or_insert(e.to_string());
                            }
                        }
                        rec.end();
                        slots.lock().expect("slots poisoned")[shard as usize] = Some(summary);
                    }
                    rec.finish();
                    counts.lock().expect("counts poisoned").add(&local);
                });
            }
        });
        if let Some((_, path)) = &ckpt {
            let _ = std::fs::remove_file(path);
        }
        if let Some(e) = failed.into_inner().expect("poisoned") {
            return Err(format!("traced request {i}: journal append: {e}"));
        }
        let slots = slots.into_inner().expect("slots poisoned");
        let stats = main_rec.span("measure.merge", i, |_| {
            let mut stats = ShardSummary::new();
            for slot in &slots {
                stats.merge(slot.as_ref().expect("every shard slot filled"));
            }
            stats
        });
        main_rec.finish();
        Ok(encode(&stats))
    }

    fn shard(
        &self,
        cfg: &CampaignConfig,
        shard: u64,
        rec: &mut Recorder<'_>,
        arena: &mut SimArena,
        counts: &mut Counts,
        req: u64,
    ) -> ShardSummary {
        let (lo, hi) = cfg.shard_bounds(shard);
        counts.crowd_users += hi - lo;
        let draws: Vec<_> = rec.span("radio.draw", req, |_| {
            (lo..hi).map(|u| self.world.draw(cfg.seed, u)).collect()
        });
        let ms: Vec<RunMeasurement> = match self.kind {
            Kind::FullSim => draws
                .iter()
                .map(|(_, wifi, lte, s)| fullsim_user(wifi, lte, *s, arena, rec, counts, req))
                .collect(),
            _ => rec.span("crowd.analytic", req, |_| {
                draws
                    .iter()
                    .map(|(_, wifi, lte, s)| measure_pair(wifi, lte, RunMode::Analytic, *s))
                    .collect()
            }),
        };
        rec.span("measure.record", req, |_| {
            let mut summary = ShardSummary::new();
            for ((idx, ..), m) in draws.iter().zip(&ms) {
                summary.record(*idx, m);
            }
            summary
        })
    }
}

/// One FullSim user as `crowd::campaign` measures it: a 1 MB download
/// and upload on each network through the arena, then 10 pings each.
fn fullsim_user(
    wifi: &LinkSpec,
    lte: &LinkSpec,
    seed: u64,
    arena: &mut SimArena,
    rec: &mut Recorder<'_>,
    counts: &mut Counts,
    req: u64,
) -> RunMeasurement {
    let deadline = Dur::from_secs(180);
    let idle = LinkSpec::symmetric(1_000_000, Dur::from_millis(50));
    let mut transfer = |link: &LinkSpec, up: bool, s: u64| {
        let (r, d) = rec.span("sim.transfer", req, |_| {
            counted(|| {
                if up {
                    arena.tcp_upload(link, &idle, WIFI_ADDR, TRANSFER_BYTES, deadline, s)
                } else {
                    arena.tcp_download(link, &idle, WIFI_ADDR, TRANSFER_BYTES, deadline, s)
                }
            })
        });
        counts.transfer(&d);
        r.avg_throughput_bps().unwrap_or(0.0)
    };
    let wifi_down_bps = transfer(wifi, false, seed);
    let wifi_up_bps = transfer(wifi, true, seed ^ 1);
    let lte_down_bps = transfer(lte, false, seed ^ 2);
    let lte_up_bps = transfer(lte, true, seed ^ 3);
    let wifi_ping = rec.span("sim.ping", req, |_| measure_ping(wifi, 10, seed ^ 4));
    let lte_ping = rec.span("sim.ping", req, |_| measure_ping(lte, 10, seed ^ 5));
    RunMeasurement {
        wifi_up_bps,
        wifi_down_bps,
        lte_up_bps,
        lte_down_bps,
        wifi_ping,
        lte_ping,
    }
}
