//! The serve workload: an in-process campaign server
//! (`serve::serve_with_stop` over `repro::ReproExecutor`, default
//! config: 2 workers) fed by one open-loop generator thread.
//!
//! Arrivals are a seeded Poisson process at a fixed rate: `n = rate ×
//! seconds` arrival times drawn uniformly over the window and sorted
//! (a Poisson process conditioned on its count, so every seed offers
//! the same load). The mix is a fixed multiset shuffled by the seed:
//! the quick registry experiments of `layers::MIX_IDS`, two small
//! analytic campaigns and one ping per 10 requests, all at seed 42.
//! Each request is timed from when it was due to its `done` line, so
//! a stall also charges the requests queued behind it.

use crate::layers::MIX_IDS;
use crate::trace::Trace;
use crate::util::{cpu_time, host_factor, quantile, reference_thread_ms, thread_cpu_time, Digest};
use mpwifi_repro::experiments::crowd_campaign::campaign_cli_report;
use mpwifi_repro::{run_experiment, ReproExecutor, Scale, SuperviseConfig};
use mpwifi_serve::proto::{Request, RequestStatus, Response, RunRequest};
use mpwifi_serve::{serve_with_stop, Executor, ServeConfig, ServeStats};
use mpwifi_simcore::{metrics, DetRng};
use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Seed of every served run (`repro`'s default): each run serves the
/// same work, and the workload seed sets when and in what order it
/// arrives. Each experiment costs a different amount at each seed, so a
/// seeded mix of run seeds would move the percentiles with the seed.
const RUN_SEED: u64 = 42;
/// Users in each campaign request of the mix (one serve worker, jobs 1).
const CAMPAIGN_USERS: u64 = 20_000;
/// Give up waiting for responses after this long past the last arrival.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(90);

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Job {
    Experiment { id: String, seed: u64 },
    Campaign { seed: u64 },
    Ping,
}

#[derive(Debug, Clone)]
pub struct Arrival {
    pub due_s: f64,
    pub job: Job,
    pub line: String,
}

/// The arrival schedule for `seed` at `rate` requests/s over `seconds`.
/// With `plant_failure`, one experiment request asks for an experiment
/// that always panics (the self-test's failing request).
pub fn schedule(seed: u64, rate: f64, seconds: f64, plant_failure: bool) -> Vec<Arrival> {
    // Whole copies of the mix, so every run has the same composition.
    let slots = MIX_IDS.len() + 3;
    let n = ((rate * seconds / slots as f64).round().max(1.0) as usize) * slots;
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5e12_7e00);
    let mut due: Vec<f64> = (0..n).map(|_| rng.uniform() * seconds).collect();
    due.sort_by(|a, b| a.total_cmp(b));
    let mut kinds: Vec<usize> = (0..n).map(|j| j % slots).collect();
    rng.shuffle(&mut kinds);
    due.into_iter()
        .zip(kinds)
        .enumerate()
        .map(|(j, (due_s, k))| {
            let job = match k {
                k if k < MIX_IDS.len() => Job::Experiment {
                    id: if plant_failure && j == n / 2 {
                        "planted-panic".into()
                    } else {
                        MIX_IDS[k].into()
                    },
                    seed: RUN_SEED,
                },
                k if k < MIX_IDS.len() + 2 => Job::Campaign { seed: RUN_SEED },
                _ => Job::Ping,
            };
            let line = match &job {
                Job::Experiment { id, seed } => format!(
                    "{{\"type\": \"run\", \"req\": \"r{j}\", \"id\": \"{id}\", \"seed\": {seed}}}"
                ),
                Job::Campaign { seed } => format!(
                    "{{\"type\": \"run\", \"req\": \"r{j}\", \"kind\": \"campaign\", \
                     \"users\": {CAMPAIGN_USERS}, \"jobs\": 1, \"seed\": {seed}}}"
                ),
                Job::Ping => "{\"type\": \"ping\"}".into(),
            };
            Arrival { due_s, job, line }
        })
        .collect()
}

/// `Read` over a channel of lines: the generator's pipe to the server.
struct ChanReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChanReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Server output, split into lines stamped when their newline arrives,
/// with running counts of terminal lines and pongs to wait on.
#[derive(Default)]
struct OutState {
    partial: Vec<u8>,
    lines: Vec<(Instant, String)>,
    terminal: usize,
    pongs: usize,
}

#[derive(Clone, Default)]
struct Lines(Arc<(Mutex<OutState>, Condvar)>);

impl Write for Lines {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        let mut g = self.0 .0.lock().expect("output poisoned");
        for &c in b {
            if c != b'\n' {
                g.partial.push(c);
                continue;
            }
            let line = String::from_utf8_lossy(&g.partial).into_owned();
            g.partial.clear();
            if ["\"done\"", "\"shed\"", "\"rejected\"", "\"malformed\""]
                .iter()
                .any(|t| line.starts_with(&format!("{{\"type\": {t}")))
            {
                g.terminal += 1;
            }
            if line.starts_with("{\"type\": \"pong\"") {
                g.pongs += 1;
            }
            g.lines.push((now, line));
            self.0 .1.notify_all();
        }
        Ok(b.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The repro engine with the serving worker's thread CPU time taken
/// around each attempt (the harness's span on the engine call), and the
/// reference kernel run on the same thread just before and just after
/// it. The host's speed moves within seconds, so each attempt is scaled
/// by its own readings; the server cannot be paused for a kernel on
/// both cores.
struct TimedExecutor {
    inner: ReproExecutor,
    attempts: Mutex<Vec<Attempt>>,
}

/// One engine call as the serving thread saw it.
struct Attempt {
    req: String,
    /// Reference kernel thread CPU ms before and after the call.
    ref_ms: [f64; 2],
    /// Wall ms of the two kernel passes.
    ref_wall_ms: [f64; 2],
    /// Thread CPU ms inside the engine.
    cpu_ms: f64,
}

impl Executor for TimedExecutor {
    fn execute(
        &self,
        req: &RunRequest,
        attempt: u32,
        emit: &(dyn Fn(Response) + Sync),
    ) -> RequestStatus {
        let reference = || {
            let t = Instant::now();
            (reference_thread_ms(), t.elapsed().as_secs_f64() * 1e3)
        };
        let before = reference();
        let c = thread_cpu_time();
        let status = self.inner.execute(req, attempt, emit);
        let cpu_ms = (thread_cpu_time() - c) * 1e3;
        let after = reference();
        self.attempts
            .lock()
            .expect("timing log poisoned")
            .push(Attempt {
                req: req.req.clone(),
                ref_ms: [before.0, after.0],
                ref_wall_ms: [before.1, after.1],
                cpu_ms,
            });
        status
    }

    fn validate(&self, req: &RunRequest) -> Result<(), String> {
        self.inner.validate(req)
    }
}

/// What one request saw, from its arrival to its terminal line.
#[derive(Debug, Clone)]
pub struct Seen {
    pub due: Instant,
    pub sent: Option<Instant>,
    pub accepted: Option<(Instant, usize)>,
    pub first_out: Option<Instant>,
    pub done: Option<(Instant, bool)>,
    pub sections: Vec<String>,
    /// Serving thread's CPU ms inside the engine, summed over attempts.
    pub service_cpu_ms: f64,
    /// The same, each attempt scaled by the mean of the reference
    /// kernel readings around it.
    pub scaled_cpu_ms: f64,
    /// Wall ms the reference kernel added to the request before and
    /// after the engine ran, which its latencies leave out.
    pub ref_wall_ms: [f64; 2],
}

impl Seen {
    /// Due → `done`, ms, less the reference kernel's wall time.
    fn latency_ms(&self, done: Instant) -> f64 {
        done.duration_since(self.due).as_secs_f64() * 1e3
            - self.ref_wall_ms[0]
            - self.ref_wall_ms[1]
    }
}

/// One open-loop pass against a fresh server.
pub struct Pass {
    pub plan: Vec<Arrival>,
    pub seen: Vec<Seen>,
    pub pongs: usize,
    pub stats: ServeStats,
    pub t0: Instant,
    pub end: Instant,
    /// Process CPU seconds from server start to drained: the engine,
    /// the request reader, admission, the pool, response rendering and
    /// the generator, less the reference kernel's.
    pub cpu_s: f64,
    /// Mean reference kernel CPU ms around each engine call.
    pub ref_ms: Vec<f64>,
    pub lines: Vec<String>,
}

fn tag_index(req: &str) -> Option<usize> {
    req.strip_prefix('r')?.parse().ok()
}

/// Drive `plan` through a fresh in-process server and collect every
/// response. Returns once the server has drained.
pub fn drive(plan: &[Arrival]) -> Pass {
    let cpu0 = cpu_time();
    let (tx, rx): (Sender<String>, Receiver<String>) = channel();
    let out = Lines::default();
    let exec = Arc::new(TimedExecutor {
        inner: ReproExecutor::new(SuperviseConfig::default()),
        attempts: Mutex::new(Vec::new()),
    });
    let server_exec: Arc<dyn Executor + Send + Sync> = exec.clone();
    let server_out = out.clone();
    let server = std::thread::spawn(move || {
        let input = BufReader::new(ChanReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        });
        serve_with_stop(
            &ServeConfig::default(),
            server_exec,
            input,
            Box::new(server_out),
            &AtomicBool::new(false),
        )
    });
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut seen: Vec<Seen> = plan
        .iter()
        .map(|a| Seen {
            due: t0 + Duration::from_secs_f64(a.due_s),
            sent: None,
            accepted: None,
            first_out: None,
            done: None,
            sections: Vec::new(),
            service_cpu_ms: 0.0,
            scaled_cpu_ms: 0.0,
            ref_wall_ms: [0.0; 2],
        })
        .collect();
    for (a, s) in plan.iter().zip(seen.iter_mut()) {
        let now = Instant::now();
        if s.due > now {
            std::thread::sleep(s.due - now);
        }
        s.sent = Some(Instant::now());
        let _ = tx.send(a.line.clone());
    }
    // Wait until every run request has a terminal line and every ping
    // its pong, then drain the server.
    let runs = plan.iter().filter(|a| a.job != Job::Ping).count();
    let pings = plan.len() - runs;
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    {
        let (lock, cv) = &*out.0;
        let mut g = lock.lock().expect("output poisoned");
        while (g.terminal < runs || g.pongs < pings) && Instant::now() < deadline {
            g = cv
                .wait_timeout(g, deadline.saturating_duration_since(Instant::now()))
                .expect("output poisoned")
                .0;
        }
    }
    let _ = tx.send("{\"type\": \"shutdown\"}".into());
    drop(tx);
    let stats = server.join().expect("server thread panicked");
    let end = Instant::now();
    let attempts = std::mem::take(&mut *exec.attempts.lock().expect("timing log poisoned"));
    let ref_ms: Vec<f64> = attempts.iter().map(|a| a.ref_ms[0] + a.ref_ms[1]).collect();
    let cpu_s = cpu_time() - cpu0 - ref_ms.iter().sum::<f64>() / 1e3;
    let ref_ms: Vec<f64> = ref_ms.iter().map(|ms| ms / 2.0).collect();
    let lines = std::mem::take(&mut out.0 .0.lock().expect("output poisoned").lines);
    for a in &attempts {
        if let Some(j) = tag_index(&a.req).filter(|&j| j < seen.len()) {
            seen[j].service_cpu_ms += a.cpu_ms;
            seen[j].scaled_cpu_ms += a.cpu_ms * host_factor((a.ref_ms[0] + a.ref_ms[1]) / 2.0);
            seen[j].ref_wall_ms[0] += a.ref_wall_ms[0];
            seen[j].ref_wall_ms[1] += a.ref_wall_ms[1];
        }
    }
    let mut pongs = 0;
    for (at, line) in &lines {
        let Ok(resp) = Response::parse(line) else {
            continue;
        };
        let slot = |req: &str| tag_index(req).filter(|&j| j < seen.len());
        match resp {
            Response::Pong => pongs += 1,
            Response::Accepted { req, depth } => {
                if let Some(j) = slot(&req) {
                    seen[j].accepted = Some((*at, depth));
                }
            }
            Response::Section { req, text } => {
                if let Some(j) = slot(&req) {
                    seen[j].first_out.get_or_insert(*at);
                    seen[j].sections.push(text);
                }
            }
            Response::Progress { req, .. } => {
                if let Some(j) = slot(&req) {
                    seen[j].first_out.get_or_insert(*at);
                }
            }
            Response::Done { req, status, .. } => {
                if let Some(j) = slot(&req) {
                    let ok = matches!(status, RequestStatus::Completed { .. });
                    seen[j].done = Some((*at, ok));
                }
            }
            Response::Shed { req, .. }
            | Response::Rejected { req }
            | Response::Malformed { req: Some(req), .. } => {
                if let Some(j) = slot(&req) {
                    seen[j].done = Some((*at, false));
                }
            }
            _ => {}
        }
    }
    Pass {
        plan: plan.to_vec(),
        seen,
        pongs,
        stats,
        t0,
        end,
        cpu_s,
        ref_ms,
        lines: lines.into_iter().map(|(_, l)| l).collect(),
    }
}

/// Server start-up as a client sees it: a fresh server answering one
/// ping and its first experiment, then draining.
pub fn cold_start() -> Result<(), String> {
    let seed = RUN_SEED;
    let plan = vec![
        Arrival {
            due_s: 0.0,
            job: Job::Ping,
            line: "{\"type\": \"ping\"}".into(),
        },
        Arrival {
            due_s: 0.0,
            job: Job::Experiment {
                id: "fig9".into(),
                seed,
            },
            line: format!(
                "{{\"type\": \"run\", \"req\": \"r1\", \"id\": \"fig9\", \"seed\": {seed}}}"
            ),
        },
    ];
    let p = drive(&plan);
    match (p.pongs, &p.seen[1].done) {
        (1, Some((_, true))) => Ok(()),
        _ => Err("server cold start did not answer ping and fig9".into()),
    }
}

/// Latency and outcome summary of a pass.
pub struct Outcome {
    /// Due → done, ms; a failed or refused request reads +inf.
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Pass {
    /// Scaled serving-thread CPU ms of each completed experiment request,
    /// as the mean over every request for the same (experiment, seed).
    /// The work is identical; what moves its CPU cost is whether the
    /// other worker was busy on the sibling core at the time. The mean
    /// averages over that; the median of nine repeats spread twice as
    /// much over ten seeds (p50 13.7% against 4.6%), and the least would
    /// pick one case.
    /// Campaign requests fan out to their own threads, so their CPU is
    /// not attributable and they are left out.
    pub fn service_cpu_ms(&self) -> Vec<f64> {
        let by_job = self.experiments();
        self.plan
            .iter()
            .zip(&self.seen)
            .filter_map(|(a, s)| by_job.get(&a.job).filter(|_| s.done.is_some_and(|d| d.1)))
            .map(|runs| runs.iter().map(|r| r.2).sum::<f64>() / runs.len() as f64)
            .collect()
    }

    /// Wall time an experiment request takes per CPU second of its run.
    /// For each (experiment, seed) the repeat with the least due-to-done
    /// ms per serving-thread CPU ms is kept (the one that met no queue);
    /// the kept repeats' latencies are summed and divided by their CPU
    /// ms. Time the serve path adds to a request (reading, admission,
    /// hand-off to a worker, rendering and writing responses) raises
    /// it; a host that is slower for a while slows both sides alike.
    pub fn wall_per_cpu(&self) -> f64 {
        let (mut wall, mut cpu) = (0.0, 0.0);
        for runs in self.experiments().values() {
            let best = runs
                .iter()
                .min_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)))
                .expect("every experiment in the map has a run");
            cpu += best.0;
            wall += best.1;
        }
        wall / cpu
    }

    /// (serving-thread CPU ms, due-to-done ms, scaled serving-thread CPU
    /// ms) of every completed experiment request, by (experiment, seed).
    fn experiments(&self) -> BTreeMap<&Job, Vec<(f64, f64, f64)>> {
        let mut by_job: BTreeMap<&Job, Vec<(f64, f64, f64)>> = BTreeMap::new();
        for (a, s) in self.plan.iter().zip(&self.seen) {
            if let (Job::Experiment { .. }, Some((done, true))) = (&a.job, s.done) {
                let ms = s.latency_ms(done);
                by_job
                    .entry(&a.job)
                    .or_default()
                    .push((s.service_cpu_ms, ms, s.scaled_cpu_ms));
            }
        }
        by_job
    }

    pub fn outcome(&self) -> Outcome {
        let mut lat_ms = Vec::new();
        let mut failed = 0u64;
        for (a, s) in self.plan.iter().zip(&self.seen) {
            if a.job == Job::Ping {
                continue;
            }
            match s.done {
                Some((at, true)) => lat_ms.push(s.latency_ms(at)),
                _ => {
                    failed += 1;
                    lat_ms.push(f64::INFINITY);
                }
            }
        }
        let pings = self.plan.iter().filter(|a| a.job == Job::Ping).count();
        failed += pings.saturating_sub(self.pongs) as u64;
        Outcome {
            lat_ms,
            attempted: self.plan.len() as u64,
            failed,
        }
    }

    /// Check every section against the same run rendered in-process,
    /// timing each in-process run as a `repro.run_experiment.<id>` span
    /// when a trace is given. Returns the digest of all sections and
    /// the in-process run time of each (experiment, seed), in ms.
    pub fn check(&self, trace: Option<&Trace>) -> (Result<(), String>, String, BTreeMap<Job, f64>) {
        let mut expected: BTreeMap<Job, (String, f64)> = BTreeMap::new();
        let mut rec = trace.map(|t| t.recorder(0));
        let mut result = Ok(());
        let mut digest = Digest::new();
        for (j, (a, s)) in self.plan.iter().zip(&self.seen).enumerate() {
            if a.job == Job::Ping
                || matches!(&a.job, Job::Experiment { id, .. } if id.starts_with("planted"))
            {
                continue;
            }
            let (want, _) = expected.entry(a.job.clone()).or_insert_with(|| {
                let t = Instant::now();
                if let Some(r) = rec.as_mut() {
                    let name = match &a.job {
                        Job::Experiment { id, .. } => format!("repro.run_experiment.{id}"),
                        _ => "repro.campaign".into(),
                    };
                    r.begin(&name, j as u64);
                }
                let text = match &a.job {
                    // Bracketed by the run counters, as the runner and
                    // the server attach them to a report.
                    Job::Experiment { id, seed } => {
                        metrics::reset();
                        run_experiment(id, Scale::Quick, *seed)
                            .map(|mut r| {
                                r.metrics = Some(metrics::snapshot());
                                r.render_text()
                            })
                            .unwrap_or_default()
                    }
                    Job::Campaign { seed } => {
                        campaign_cli_report(CAMPAIGN_USERS, 1, *seed, Scale::Quick).render_text()
                    }
                    Job::Ping => unreachable!("pings have no section"),
                };
                if let Some(r) = rec.as_mut() {
                    r.end();
                }
                (text, t.elapsed().as_secs_f64() * 1e3)
            });
            if s.done.is_some_and(|d| d.1) {
                match s.sections.as_slice() {
                    [got] if got == want => {
                        digest.bytes(a.line.as_bytes());
                        digest.bytes(got.as_bytes());
                    }
                    _ => {
                        result = Err(format!(
                            "request r{j} ({:?}): section differs from in-process run",
                            a.job
                        ))
                    }
                }
            }
        }
        if let Some(r) = rec {
            r.finish();
        }
        let run_ms = expected.into_iter().map(|(k, (_, ms))| (k, ms)).collect();
        (result, digest.hex(), run_ms)
    }

    /// Request lifecycle spans (due → done, split at send, accept, first
    /// output) and the serve layer metrics derived from them. The spans
    /// are built from the pass's response timestamps after it ends, so
    /// the pass itself runs untraced; returns the seconds spent
    /// recording them, which is all the tracing costs.
    pub fn trace_into(
        &self,
        trace: &Trace,
        run_ms: &BTreeMap<Job, f64>,
        extra: &mut BTreeMap<String, f64>,
    ) -> f64 {
        let recording = Instant::now();
        let mut rec = trace.recorder(0);
        let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
        let (mut admit, mut depth, mut wait, mut over, mut late) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (j, (a, s)) in self.plan.iter().zip(&self.seen).enumerate() {
            let Some(sent) = s.sent else { continue };
            late.push(ms(s.due, sent));
            let (Some((acc, d)), Some((done, true))) = (s.accepted, s.done) else {
                continue;
            };
            let req = j as u64;
            let root = rec.closed(
                "serve.request",
                req,
                trace.at_ns(s.due),
                trace.at_ns(done),
                None,
            );
            rec.closed(
                "bench.gen_late",
                req,
                trace.at_ns(s.due),
                trace.at_ns(sent),
                Some(root),
            );
            rec.closed(
                "serve.admit",
                req,
                trace.at_ns(sent),
                trace.at_ns(acc),
                Some(root),
            );
            let out = s.first_out.unwrap_or(done);
            rec.closed(
                "serve.wait_and_run",
                req,
                trace.at_ns(acc),
                trace.at_ns(out),
                Some(root),
            );
            rec.closed(
                "serve.tail",
                req,
                trace.at_ns(out),
                trace.at_ns(done),
                Some(root),
            );
            admit.push(ms(sent, acc));
            depth.push(d as f64);
            if let (Job::Experiment { .. }, Some(run)) = (&a.job, run_ms.get(&a.job)) {
                let start_wait = ms(acc, out) - s.ref_wall_ms[0] - run;
                wait.push(start_wait);
                over.push(s.latency_ms(done) - start_wait - run);
            }
        }
        rec.finish();
        let recording_s = recording.elapsed().as_secs_f64();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        for (name, v) in [
            ("serve.admit_ms", quantile(&admit, 0.5)),
            ("serve.queue_depth", mean(&depth)),
            ("serve.start_wait_ms", quantile(&wait, 0.5)),
            ("serve.overhead_ms", quantile(&over, 0.5)),
            ("serve.shed", self.stats.shed as f64),
            ("bench.gen_late_ms", quantile(&late, 0.99)),
        ] {
            extra.insert(name.into(), v);
        }

        // Wire codec cost on this pass's own lines: parse every request
        // line, render every response, 20 times over.
        let responses: Vec<Response> = self
            .lines
            .iter()
            .filter_map(|l| Response::parse(l).ok())
            .collect();
        let t = Instant::now();
        for _ in 0..20 {
            for a in &self.plan {
                let _ = std::hint::black_box(Request::parse(std::hint::black_box(&a.line), 0));
            }
            for r in &responses {
                std::hint::black_box(std::hint::black_box(r).render());
            }
        }
        let n = 20 * (self.plan.len() + responses.len());
        extra.insert(
            "serve.proto_us".into(),
            t.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64,
        );
        recording_s
    }
}
