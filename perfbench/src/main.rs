//! Same-box benchmark of the mpwifi workspace: one process per run,
//! inputs generated from `--seed`, outputs checked, one JSON result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--save FILE]
//! perfbench --compare BASE NEW     # A/B of two saved results (same machine only)
//! perfbench --self-test            # planted regressions must be flagged
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with no tracing;
//! CPU figures are scaled by a reference kernel timed in the same run
//! (`util::reference_cpu_ms`), to take out how fast the host ran.
//! `--trace 1` runs a campaign's requests twice — untraced, then through
//! the layers' public functions with a span around each call — and a
//! serve workload's requests once, building their spans from response
//! timestamps afterwards; it prints the per-layer metrics, span
//! coverage and tracing overhead.
//! See `perfbench/README.md` for the workloads and the metric table.

mod campaign;
mod layers;
mod replay;
mod serve;
mod trace;
mod util;

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

use campaign::{Campaign, Kind, WORKERS};
use layers::Counts;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;
use trace::Trace;
use util::{median, num, quantile, Digest, Machine};

/// Open-loop arrival rates, requests/s: `serve_mixed` is timed at the
/// high rate; its traced run also reports wall latency at the low one.
/// The high rate keeps the 2 serve workers about 30% busy, so a host
/// that runs at half speed for a while still never fills the 16-slot
/// queue (at 14 req/s it did, and shed requests count as failed).
const LO_RPS: f64 = 2.0;
const HI_RPS: f64 = 6.0;
/// Self-test: share of a request's CPU time added as a planted delay.
const PLANTED_DELAY: f64 = 0.4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The first requests of a campaign workload feed the output digest.
const DIGEST_REQS: u64 = 3;

/// End-to-end metrics: (name, unit, better, bound). Mirrors
/// BENCHMARK.json; `--compare` and the self-test gate on these bounds.
const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_cpu_s", "1/s", "higher", 0.25),
    ("p50_cpu_ms", "ms", "lower", 0.25),
    ("p90_cpu_ms", "ms", "lower", 0.25),
    ("peak_heap_mb", "MB", "lower", 0.25),
    ("wall_per_cpu", "s/s", "lower", 0.25),
];

const WORKLOADS: [&str; 4] = [
    "campaign_fullsim",
    "campaign_analytic",
    "campaign_ckpt",
    "serve_mixed",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    save: Option<PathBuf>,
    /// Self-test only: one serve request asks for a panicking experiment.
    plant_failure: bool,
}

/// One run's result.
#[derive(Debug, Default, Clone)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Informational lines printed with the result.
    notes_info: Vec<String>,
    /// name → (value, unit, human detail)
    metrics: BTreeMap<String, (f64, String, String)>,
    digest: String,
}

impl Report {
    fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(why.into());
    }

    fn set(&mut self, name: &str, v: f64, unit: &str, detail: impl Into<String>) {
        self.metrics
            .insert(name.into(), (v, unit.into(), detail.into()));
    }
}

fn work_dir() -> PathBuf {
    let d = PathBuf::from(".bench_work");
    let _ = std::fs::create_dir_all(&d);
    d
}

// ---------------------------------------------------------------------
// Campaign workloads
// ---------------------------------------------------------------------

fn campaign_kind(workload: &str) -> Kind {
    match workload {
        "campaign_fullsim" => Kind::FullSim,
        "campaign_analytic" => Kind::Analytic,
        _ => Kind::Checkpointed,
    }
}

/// Rounds over `k` distinct requests, run back to back until `seconds`
/// have passed (at least one round). The reference kernel runs just
/// before each request and scales that request's CPU time: the CPU
/// time of identical work moves by up to 2x within seconds on a shared
/// host, so each run is paired with its own reference rather than with
/// the run's median one. A request's cost is the median of its scaled
/// runs (`Window::cost_ms`).
struct Window {
    /// Scaled CPU ms of each run, per distinct request.
    scaled_ms: Vec<Vec<f64>>,
    /// Least CPU ms per distinct request (unscaled).
    best_ms: Vec<f64>,
    /// Least wall ms per distinct request.
    best_wall_ms: Vec<f64>,
    /// Reference kernel CPU ms, once before each request.
    ref_ms: Vec<f64>,
    /// Wall seconds of each complete round's requests (the traced
    /// round's baseline).
    round_s: Vec<f64>,
    /// First-round output per distinct request.
    outputs: Vec<Result<Vec<u8>, String>>,
    runs: u64,
    /// Executions that failed, and later rounds whose output differed
    /// from the first round's.
    errors: Vec<String>,
    wall_s: f64,
}

fn run_window(
    seconds: f64,
    k: u64,
    plant: f64,
    mut op: impl FnMut(u64) -> Result<Vec<u8>, String>,
) -> Window {
    let start = Instant::now();
    let mut w = Window {
        scaled_ms: vec![Vec::new(); k as usize],
        best_ms: vec![f64::INFINITY; k as usize],
        best_wall_ms: vec![f64::INFINITY; k as usize],
        ref_ms: Vec::new(),
        round_s: Vec::new(),
        outputs: Vec::new(),
        runs: 0,
        errors: Vec::new(),
        wall_s: 0.0,
    };
    let mut round_wall = 0.0;
    while w.runs < k || start.elapsed().as_secs_f64() < seconds {
        let i = w.runs % k;
        let ref_ms = util::reference_cpu_ms(WORKERS);
        w.ref_ms.push(ref_ms);
        let c = util::cpu_time();
        let t = Instant::now();
        let out = op(i);
        if plant > 0.0 {
            let until = util::cpu_time() * (1.0 + plant) - c * plant;
            while util::cpu_time() < until {
                std::hint::spin_loop();
            }
        }
        let ms = (util::cpu_time() - c) * 1e3;
        w.runs += 1;
        if let Err(e) = &out {
            w.errors.push(e.clone());
        }
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        round_wall += wall_ms / 1e3;
        if w.runs.is_multiple_of(k) {
            w.round_s.push(round_wall);
            round_wall = 0.0;
        }
        if w.runs <= k {
            w.outputs.push(out);
        } else if out != w.outputs[i as usize] {
            w.errors
                .push(format!("request {i}: output differs between rounds"));
        }
        w.scaled_ms[i as usize].push(ms * util::host_factor(ref_ms));
        let best = &mut w.best_ms[i as usize];
        *best = best.min(ms);
        let bw = &mut w.best_wall_ms[i as usize];
        *bw = bw.min(wall_ms);
    }
    w.wall_s = start.elapsed().as_secs_f64();
    w
}

impl Window {
    /// Scaled CPU ms per distinct request: the median over its runs.
    fn cost_ms(&self) -> Vec<f64> {
        self.scaled_ms.iter().map(|v| median(v)).collect()
    }
}

/// Run `f` `reps` times (stopping at the first error); returns the last
/// result and the process CPU seconds of each run, each scaled by the
/// reference kernel timed just before it.
fn timed_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> (Result<T, String>, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = Err("no set-up ran".to_string());
    for _ in 0..reps {
        let scale = util::host_factor(util::reference_cpu_ms(WORKERS));
        let c = util::cpu_time();
        last = f();
        times.push((util::cpu_time() - c) * scale);
        if last.is_err() {
            break;
        }
    }
    (last, times)
}

fn latency_metrics(r: &mut Report, ms: &[f64], what: &str) {
    let n = ms.len();
    r.set(
        "p50_cpu_ms",
        quantile(ms, 0.5),
        "ms",
        format!("median {what}, n={n}"),
    );
    r.set(
        "p90_cpu_ms",
        quantile(ms, 0.9),
        "ms",
        format!("p90 {what}, n={n}, {} beyond", n / 10),
    );
}

fn campaign_workload(args: &Args, r: &mut Report) {
    let kind = campaign_kind(&args.workload);
    let (state, setups) = timed_setup(SETUP_REPS, || Campaign::setup(kind, args.seed, &work_dir()));
    let b = match state {
        Ok(b) => b,
        Err(e) => return r.fail(e),
    };
    let k = b.kind.distinct();
    let w = run_window(args.seconds, k, 0.0, |i| b.run(i));
    r.notes_info.push(format!(
        "reference kernel: median {:.3} ms CPU over {} runs",
        median(&w.ref_ms),
        w.ref_ms.len()
    ));
    r.set(
        "setup_s",
        median(&setups),
        "s",
        format!("median scaled CPU s of {} set-ups", setups.len()),
    );
    r.attempted += w.runs;
    r.failed += w.errors.len() as u64;
    for e in &w.errors {
        r.fail(e.clone());
    }
    let mut digest = Digest::new();
    digest.bytes(args.workload.as_bytes());
    digest.u64(args.seed);
    for bytes in w.outputs.iter().take(DIGEST_REQS as usize).flatten() {
        digest.bytes(bytes);
    }
    // A journaled campaign must fold to exactly the plain campaign.
    if b.kind == Kind::Checkpointed {
        for i in 0..DIGEST_REQS {
            if w.outputs[i as usize].as_ref().ok() != Some(&b.plain(i)) {
                r.fail(format!(
                    "request {i}: checkpointed summary differs from plain run"
                ));
            }
        }
    }
    r.digest = digest.hex();
    let cost = w.cost_ms();
    r.set(
        "ops_per_cpu_s",
        k as f64 * b.kind.users() as f64 / (cost.iter().sum::<f64>() / 1e3),
        "1/s",
        format!(
            "users per scaled CPU-second: {k} requests of {} users, {} runs in {:.2} s",
            b.kind.users() as f64,
            w.runs,
            w.wall_s
        ),
    );
    latency_metrics(r, &cost, "scaled CPU ms per request, median over its runs");
    let cpu_s: f64 = w.best_ms.iter().sum::<f64>() / 1e3;
    let wall_s: f64 = w.best_wall_ms.iter().sum::<f64>() / 1e3;
    r.set(
        "wall_per_cpu",
        wall_s / cpu_s,
        "s/s",
        format!("least wall s over least CPU s, summed over the {k} requests"),
    );
}

fn campaign_traced(args: &Args, r: &mut Report) -> Option<Native> {
    let b = match Campaign::setup(campaign_kind(&args.workload), args.seed, &work_dir()) {
        Ok(b) => b,
        Err(e) => {
            r.fail(e);
            return None;
        }
    };
    let k = b.kind.distinct();
    let w = run_window(args.seconds, k, 0.0, |i| b.run(i));
    r.attempted += w.runs + k;
    r.failed += w.errors.len() as u64;
    for e in &w.errors {
        r.fail(e.clone());
    }
    let trace = Trace::new();
    let counts = Mutex::new(Counts::default());
    let t = Instant::now();
    let traced: Vec<_> = (0..k)
        .map(|i| b.traced(&b.cfg(i), i, &trace, &counts))
        .collect();
    let traced_s = t.elapsed().as_secs_f64();
    for (i, (u, t)) in w.outputs.iter().zip(&traced).enumerate() {
        match (u, t) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => r.fail(format!("request {i}: traced output differs from untraced")),
            (_, Err(e)) => {
                r.failed += 1;
                r.fail(e.clone());
            }
            (Err(_), _) => {}
        }
    }
    let bal: Vec<(f64, f64)> = (0..DIGEST_REQS).map(|i| b.balance(i)).collect();
    let busy: Vec<f64> = bal.iter().map(|x| x.0).collect();
    let straggler: Vec<f64> = bal.iter().map(|x| x.1).collect();
    let extra = BTreeMap::from([
        ("crowd.worker_busy_frac".to_string(), median(&busy)),
        ("crowd.straggler_ms".to_string(), median(&straggler)),
    ]);
    let untraced_s = median(&w.round_s);
    Some(Native {
        trace,
        counts: counts.into_inner().expect("counts poisoned"),
        extra,
        untraced_s,
        overhead_s: traced_s - untraced_s,
        width: WORKERS,
    })
}

// ---------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------

fn serve_workload(args: &Args, r: &mut Report) {
    let (started, setups) = timed_setup(SETUP_REPS, serve::cold_start);
    if let Err(e) = started {
        return r.fail(e);
    }
    let plan = serve::schedule(args.seed, HI_RPS, args.seconds, args.plant_failure);
    let pass = serve::drive(&plan);
    r.notes_info.push(format!(
        "reference kernel on the serving threads: median {:.3} ms CPU over {} requests",
        median(&pass.ref_ms),
        pass.ref_ms.len()
    ));
    r.set(
        "setup_s",
        median(&setups),
        "s",
        format!("median scaled CPU s of {} server starts", setups.len()),
    );
    let o = pass.outcome();
    r.attempted += o.attempted;
    r.failed += o.failed;
    let (checked, digest, _) = pass.check(None);
    if let Err(e) = checked {
        r.fail(e);
    }
    r.digest = digest;
    let served = o.attempted - o.failed;
    r.set(
        "ops_per_cpu_s",
        served as f64 / (pass.cpu_s * util::host_factor(median(&pass.ref_ms))),
        "1/s",
        format!(
            "requests served per scaled process CPU-second: {served} in {:.2} s at {HI_RPS} req/s",
            pass.cpu_s
        ),
    );
    latency_metrics(
        r,
        &pass.service_cpu_ms(),
        "scaled serving-thread CPU ms per experiment request",
    );
    r.set(
        "wall_per_cpu",
        pass.wall_per_cpu(),
        "s/s",
        "due-to-done ms over serving-thread CPU ms, least-ratio repeat of each experiment",
    );
    r.notes_info.push(format!(
        "due-to-done wall latency at {HI_RPS} req/s: p50 {:.1} ms, p99 {:.1} ms (n={})",
        quantile(&o.lat_ms, 0.5),
        quantile(&o.lat_ms, 0.99),
        o.lat_ms.len()
    ));
}

/// The serve layer metrics of one pass at the `lo` or `hi` rate; at
/// `hi` also its request spans, on `trace`'s clock (which must predate
/// the pass). Returns the seconds spent recording spans.
fn serve_layers(
    pass: &serve::Pass,
    tag: &str,
    trace: &Trace,
    extra: &mut BTreeMap<String, f64>,
    r: &mut Report,
) -> f64 {
    let runs = Trace::new();
    let (checked, _, run_ms) = pass.check(Some(&runs));
    if let Err(e) = checked {
        r.fail(e);
    }
    for (k, v) in layers::reduce(&runs.spans(), &Counts::default(), &BTreeMap::new()) {
        extra.entry(k).or_insert(v);
    }
    let o = pass.outcome();
    r.attempted += o.attempted;
    r.failed += o.failed;
    extra.insert(format!("serve.p50_ms_{tag}"), quantile(&o.lat_ms, 0.5));
    extra.insert(format!("serve.p99_ms_{tag}"), quantile(&o.lat_ms, 0.99));
    if tag == "hi" {
        pass.trace_into(trace, &run_ms, extra)
    } else {
        0.0
    }
}

/// One pass at each rate. The spans of the `hi` pass are built from its
/// response timestamps after it ends, so the pass runs untraced and the
/// tracing overhead is the time spent recording them.
fn serve_traced(args: &Args, r: &mut Report) -> Option<Native> {
    let trace = Trace::new();
    let pass = serve::drive(&serve::schedule(args.seed, HI_RPS, args.seconds, false));
    let mut extra = BTreeMap::new();
    let overhead_s = serve_layers(&pass, "hi", &trace, &mut extra, r);
    let lo = serve::drive(&serve::schedule(
        args.seed,
        LO_RPS,
        args.seconds / 2.0,
        false,
    ));
    serve_layers(&lo, "lo", &Trace::new(), &mut extra, r);
    Some(Native {
        trace,
        counts: Counts::default(),
        extra,
        untraced_s: pass.end.duration_since(pass.t0).as_secs_f64(),
        overhead_s,
        width: 1,
    })
}

// ---------------------------------------------------------------------
// Traced run: native spans, probes for layers the workload never calls
// ---------------------------------------------------------------------

/// A workload's own traced pass and the untraced pass it repeats.
struct Native {
    trace: Trace,
    counts: Counts,
    extra: BTreeMap<String, f64>,
    /// Wall seconds of the untraced requests the traced pass repeats.
    untraced_s: f64,
    /// Wall seconds tracing added to them.
    overhead_s: f64,
    /// Worker threads one request keeps busy.
    width: usize,
}

/// Fill the per-layer metrics the workload's own traced pass could not
/// give (it never calls that layer) from a small probe of the layer on
/// inputs from the same seed. Returns the probed metric names.
fn probe_missing(seed: u64, have: &mut BTreeMap<String, f64>, r: &mut Report) -> Vec<String> {
    let missing = |have: &BTreeMap<String, f64>, prefix: &[&str]| {
        layers::per_layer_names()
            .iter()
            .any(|(n, ..)| prefix.iter().any(|p| n.starts_with(p)) && !have.contains_key(n))
    };
    let before: Vec<String> = have.keys().cloned().collect();
    let trace = Trace::new();
    let counts = Mutex::new(Counts::default());
    let mut extra = BTreeMap::new();
    let work = work_dir();
    if missing(
        have,
        &[
            "sim.",
            "simcore.",
            "netem.",
            "tcp.segments",
            "tcp.retrans",
            "tcp.enc",
        ],
    ) {
        let c = Campaign::new(Kind::FullSim, seed, &work);
        let mut one = c.cfg(0);
        one.users = 1;
        if let Err(e) = c.traced(&one, 0, &trace, &counts) {
            r.fail(e);
        }
    }
    if missing(have, &["apps.", "mptcp.", "tcp.ns_per_event"]) {
        let mut local = Counts::default();
        if let Err(e) = replay::probe(seed, &trace, &mut local) {
            r.fail(e);
        }
        counts.lock().expect("counts poisoned").add(&local);
    }
    if missing(
        have,
        &[
            "radio.",
            "crowd.analytic",
            "measure.record",
            "measure.merge",
            "crowd.worker",
            "crowd.straggler",
        ],
    ) {
        let c = Campaign::new(Kind::Analytic, seed, &work);
        if let Err(e) = c.traced(&c.cfg(0), 0, &trace, &counts) {
            r.fail(e);
        }
        let (busy, straggler) = c.balance(0);
        extra.insert("crowd.worker_busy_frac".to_string(), busy);
        extra.insert("crowd.straggler_ms".to_string(), straggler);
    }
    if missing(have, &["crowd.journal", "measure.summary_bytes"]) {
        let c = Campaign::new(Kind::Checkpointed, seed, &work);
        if let Err(e) = c.traced(&c.cfg(0), 0, &trace, &counts) {
            r.fail(e);
        }
    }
    if missing(have, &["serve.", "bench.", "repro."]) {
        // Three seconds at each rate send every mix id at least once.
        for (tag, rate) in [("hi", HI_RPS), ("lo", LO_RPS)] {
            let pass = serve::drive(&serve::schedule(seed, rate, 3.0, false));
            serve_layers(&pass, tag, &trace, &mut extra, r);
        }
    }
    let probed = layers::reduce(
        &trace.spans(),
        &counts.into_inner().expect("counts poisoned"),
        &extra,
    );
    for (k, v) in probed {
        have.entry(k).or_insert(v);
    }
    write_spans(&format!("probe-{seed}"), &trace);
    have.keys()
        .filter(|k| !before.contains(k))
        .cloned()
        .collect()
}

fn write_spans(tag: &str, trace: &Trace) {
    let path = work_dir().join(format!("spans-{tag}.jsonl"));
    let _ = std::fs::write(path, trace::to_jsonl(&trace.spans()));
}

fn traced_run(args: &Args, r: &mut Report) {
    let native = if args.workload.starts_with("serve") {
        serve_traced(args, r)
    } else {
        campaign_traced(args, r)
    };
    let Some(Native {
        trace,
        counts,
        extra,
        untraced_s,
        overhead_s,
        width,
    }) = native
    else {
        return;
    };
    let spans = trace.spans();
    for (name, st) in trace::by_name(&spans) {
        r.notes_info.push(format!(
            "span {name:<28} n={:<6} total {:>10.3} ms  self {:>10.3} ms",
            st.count,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6
        ));
    }
    let mut have = layers::reduce(&spans, &counts, &extra);
    let covered = trace::covered_ns(&spans) as f64 / 1e9;
    have.insert(
        "trace.coverage".into(),
        covered / (untraced_s * width as f64),
    );
    have.insert("trace.overhead_ms".into(), overhead_s * 1e3);
    have.insert("trace.overhead_frac".into(), overhead_s / untraced_s);
    have.insert("trace.untraced_ms".into(), untraced_s * 1e3);
    write_spans(&format!("{}-{}", args.workload, args.seed), &trace);
    let probed = probe_missing(args.seed, &mut have, r);
    for (name, unit, _) in layers::per_layer_names() {
        match have.get(&name) {
            Some(&v) => {
                let how = if probed.contains(&name) {
                    "probe"
                } else {
                    "native"
                };
                r.set(&name, v, unit, how);
            }
            None => r.fail(format!("per-layer metric {name} has no samples")),
        }
    }
    r.digest = format!("trace-run ({} spans)", spans.len());
}

// ---------------------------------------------------------------------
// Digest ledger: same code + same seed must give the same digest
// ---------------------------------------------------------------------

fn exe_fingerprint() -> String {
    let mut d = Digest::new();
    if let Ok(bytes) = std::env::current_exe().and_then(std::fs::read) {
        d.bytes(&bytes);
    }
    d.hex()
}

fn check_digest_ledger(args: &Args, r: &mut Report) {
    let key = format!(
        "{}\t{}\t{}\t{}",
        exe_fingerprint(),
        args.workload,
        args.seed,
        args.seconds
    );
    let path = work_dir().join("digests.tsv");
    let ledger = std::fs::read_to_string(&path).unwrap_or_default();
    for line in ledger.lines() {
        if let Some((k, d)) = line.rsplit_once('\t') {
            if k == key && d != r.digest {
                r.fail(format!(
                    "output digest {} differs from an earlier run's {d}",
                    r.digest
                ));
                return;
            }
        }
    }
    if !ledger.lines().any(|l| l.starts_with(&key)) {
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = writeln!(f, "{key}\t{}", r.digest);
        }
    }
}

// ---------------------------------------------------------------------
// Running, printing, saving, comparing
// ---------------------------------------------------------------------

fn run(args: &Args) -> Report {
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    if args.trace {
        traced_run(args, &mut r);
    } else {
        if args.workload.starts_with("serve") {
            serve_workload(args, &mut r);
        } else {
            campaign_workload(args, &mut r);
        }
        r.set(
            "peak_heap_mb",
            util::peak_heap_mb(),
            "MB",
            format!("peak live heap; VmHWM {:.1} MB", util::peak_rss_mb()),
        );
        if !r.digest.is_empty() && !args.plant_failure {
            check_digest_ledger(args, &mut r);
        }
    }
    r
}

fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(k, (v, u, _))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct && r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

/// `key=value` lines of a saved result (what `--compare` reads).
fn saved_text(machine: &Machine, args: &Args, r: &Report) -> String {
    let mut s = machine.to_lines();
    s.push_str(&format!("workload={}\nseed={}\n", args.workload, args.seed));
    s.push_str(&format!("attempted={}\nfailed={}\n", r.attempted, r.failed));
    for (k, (v, _, _)) in &r.metrics {
        s.push_str(&format!("metric.{k}={}\n", num(*v)));
    }
    s
}

fn parse_saved(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Compare two saved results. `Err` when they cannot be compared
/// (different machines or workloads); otherwise the regressions found
/// against the end-to-end bounds and the failure share.
fn compare(base: &str, new: &str) -> Result<Vec<String>, String> {
    let (a, b) = (parse_saved(base), parse_saved(new));
    let machine = |m: &BTreeMap<String, String>| -> Vec<(String, String)> {
        m.iter()
            .filter(|(k, _)| k.starts_with("machine."))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    };
    if machine(&a).is_empty() || machine(&a) != machine(&b) {
        return Err(format!(
            "different machine — results are not comparable (base {:?}, new {:?}); \
             measure both sides on one box",
            machine(&a),
            machine(&b)
        ));
    }
    if a.get("workload") != b.get("workload") {
        return Err("results are for different workloads".into());
    }
    let f = |m: &BTreeMap<String, String>, k: &str| m.get(k).and_then(|v| v.parse::<f64>().ok());
    let mut regressions = Vec::new();
    for (name, _, better, bound) in END_TO_END {
        let key = format!("metric.{name}");
        let (Some(x), Some(y)) = (f(&a, &key), f(&b, &key)) else {
            continue;
        };
        let worse = if better == "lower" {
            y / x - 1.0
        } else {
            1.0 - y / x
        };
        if worse > bound {
            regressions.push(format!(
                "{name}: {x} -> {y} is {:.1}% worse (bound {:.0}%)",
                worse * 100.0,
                bound * 100.0
            ));
        }
    }
    let frac = |m: &BTreeMap<String, String>| {
        f(m, "failed").unwrap_or(0.0) / f(m, "attempted").unwrap_or(1.0).max(1.0)
    };
    if frac(&b) > frac(&a) {
        regressions.push(format!("failed_frac: {} -> {}", frac(&a), frac(&b)));
    }
    Ok(regressions)
}

fn print_report(machine: &Machine, args: &Args, r: &Report) {
    println!("machine {}", machine.to_json());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (k, (v, u, detail)) in &r.metrics {
        println!("  {k:<32} {:>14} {u:<6} {detail}", num(*v));
    }
    println!(
        "  failed_frac = {} ({} of {} operations failed)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    println!("  output digest {}", r.digest);
    for n in &r.notes_info {
        println!("  {n}");
    }
    for n in &r.notes {
        println!("  CHECK FAILED: {n}");
    }
    println!("{}", result_json(r));
}

fn self_test() -> ExitCode {
    let machine = Machine::detect();
    let mut ok = true;
    let mut expect = |cond: bool, what: &str| {
        println!("self-test {}: {what}", if cond { "ok" } else { "FAILED" });
        ok &= cond;
    };
    let base_args = |workload: &str| Args {
        workload: workload.into(),
        seed: 7,
        seconds: 2.0,
        trace: false,
        save: None,
        plant_failure: false,
    };

    // 1. Results from another box are refused, not compared.
    let a = base_args("campaign_analytic");
    let r = run(&a);
    let saved = saved_text(&machine, &a, &r);
    let other = Machine {
        cores: machine.cores + 1,
        ..machine.clone()
    };
    let foreign = saved_text(&other, &a, &r);
    expect(
        compare(&saved, &foreign).is_err(),
        "a different machine block is refused",
    );
    expect(
        compare(&saved, &saved).is_ok_and(|v| v.is_empty()),
        "a result compared with itself shows no regression",
    );

    // 2. A planted delay around the campaign call is flagged. Six
    //    one-second windows per side, interleaved so the host's drift
    //    hits both alike; the per-side medians are compared against the
    //    bounds. The delay is 40%: on a shared 2-vCPU VM, CPU time
    //    drifts by up to ~20% between runs, which is why the bounds are
    //    0.25, and a planted 30% read as low as +25.6% here.
    let mut ab = [r.clone(), r.clone()];
    match Campaign::setup(Kind::Analytic, 7, &work_dir()) {
        Ok(c) => {
            let mut samples: [Vec<(f64, f64)>; 2] = [Vec::new(), Vec::new()];
            for _ in 0..6 {
                for (side, plant) in [(0, 0.0), (1, PLANTED_DELAY)] {
                    let cost = run_window(1.0, 8, plant, |i| c.run(i)).cost_ms();
                    let ops =
                        8.0 * Kind::Analytic.users() as f64 / (cost.iter().sum::<f64>() / 1e3);
                    samples[side].push((ops, quantile(&cost, 0.5)));
                }
            }
            for (m, s) in ab.iter_mut().zip(&samples) {
                let ops: Vec<f64> = s.iter().map(|x| x.0).collect();
                let p50: Vec<f64> = s.iter().map(|x| x.1).collect();
                m.set("ops_per_cpu_s", median(&ops), "1/s", "");
                m.set("p50_cpu_ms", median(&p50), "ms", "");
            }
        }
        Err(e) => expect(false, &e),
    }
    let flagged = compare(
        &saved_text(&machine, &a, &ab[0]),
        &saved_text(&machine, &a, &ab[1]),
    )
    .unwrap_or_default();
    for name in ["ops_per_cpu_s", "p50_cpu_ms"] {
        println!(
            "  planted delay: {name} {} -> {}",
            ab[0].metrics[name].0, ab[1].metrics[name].0
        );
    }
    for f in &flagged {
        println!("  planted delay flags {f}");
    }
    expect(
        flagged.iter().any(|f| f.starts_with("p50_cpu_ms")),
        "a planted 40% delay is flagged against the p50_cpu_ms bound",
    );

    // 3. A planted failing request raises failed_frac and is flagged.
    let healthy = base_args("serve_mixed");
    let mut planted = base_args("serve_mixed");
    planted.plant_failure = true;
    let (h, p) = (run(&healthy), run(&planted));
    println!(
        "  planted failure: failed {} -> {} of {}",
        h.failed, p.failed, p.attempted
    );
    expect(
        h.failed == 0 && p.failed >= 1,
        "a planted failing request counts as failed",
    );
    let flagged = compare(
        &saved_text(&machine, &healthy, &h),
        &saved_text(&machine, &planted, &p),
    )
    .unwrap_or_default();
    expect(
        flagged.iter().any(|f| f.starts_with("failed_frac")),
        "the raised failed_frac is flagged",
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        save: None,
        plant_failure: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--save" => a.save = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--self-test") {
        return self_test();
    }
    if argv.get(1).map(String::as_str) == Some("--compare") && argv.len() == 4 {
        let read = |p: &str| std::fs::read_to_string(Path::new(p));
        return match (read(&argv[2]), read(&argv[3])) {
            (Ok(a), Ok(b)) => match compare(&a, &b) {
                Err(e) => {
                    eprintln!("refusing to compare: {e}");
                    ExitCode::from(2)
                }
                Ok(v) if v.is_empty() => {
                    println!("no end-to-end metric worse than its bound");
                    ExitCode::SUCCESS
                }
                Ok(v) => {
                    for line in v {
                        println!("REGRESSION {line}");
                    }
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("cannot read {} or {}", argv[2], argv[3]);
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::detect();
    let r = run(&args);
    if let Some(path) = &args.save {
        if let Err(e) = std::fs::write(path, saved_text(&machine, &args, &r)) {
            eprintln!("perfbench: cannot save {}: {e}", path.display());
        }
    }
    print_report(&machine, &args, &r);
    if r.correct && r.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json must declare exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_matches_metric_tables() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "missing end-to-end entry {entry}");
        }
        let per_layer = layers::per_layer_names();
        for (name, unit, better) in &per_layer {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "missing per-layer entry {entry}");
        }
        let declared = json.matches("{\"name\": ").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + per_layer.len()
        );
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "workload {w}"
            );
        }
    }

    fn saved(cores: usize, ops: f64, failed: u64) -> String {
        format!(
            "machine.cores={cores}\nmachine.cpu=x\nmachine.rustc=r\nmachine.kernel=k\n\
             workload=campaign_analytic\nseed=1\nattempted=10\nfailed={failed}\n\
             metric.ops_per_cpu_s={ops}\nmetric.p50_cpu_ms=10\n"
        )
    }

    #[test]
    fn compare_refuses_other_machines_and_applies_bounds() {
        assert!(compare(&saved(2, 100.0, 0), &saved(4, 100.0, 0)).is_err());
        assert!(compare(&saved(2, 100.0, 0), &saved(2, 90.0, 0))
            .expect("same box")
            .is_empty());
        let worse = compare(&saved(2, 100.0, 0), &saved(2, 70.0, 0)).expect("same box");
        assert!(worse[0].starts_with("ops_per_cpu_s"), "{worse:?}");
        let failing = compare(&saved(2, 100.0, 0), &saved(2, 100.0, 1)).expect("same box");
        assert!(failing[0].starts_with("failed_frac"), "{failing:?}");
    }
}
