//! Per-layer metrics of the traced run: the span names the workloads
//! record, the counter deltas taken at the same call boundaries, and
//! the reduction of both into the per-layer metrics of BENCHMARK.json.

use crate::trace::{by_name, Span};
use crate::util::quantile;
use mpwifi_simcore::metrics::{self, RunMetrics};
use std::collections::BTreeMap;

/// Experiment ids in the serve mix; each gets a `repro.run_ms.<id>`.
pub const MIX_IDS: [&str; 7] = ["table2", "fig3", "fig4", "fig9", "fig10", "fig11", "fig12"];

/// Every per-layer metric as (name, unit, better), in output order.
pub fn per_layer_names() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = [
        ("sim.transfer_ms_p50", "ms", "lower"),
        ("sim.transfer_ms_p99", "ms", "lower"),
        ("sim.ping_us", "us", "lower"),
        ("sim.ns_per_event", "ns", "lower"),
        ("simcore.events_per_transfer", "count", "lower"),
        ("netem.frames_per_transfer", "count", "lower"),
        ("tcp.segments_per_transfer", "count", "lower"),
        ("tcp.retransmits_per_transfer", "count", "lower"),
        ("tcp.enc_reuse_ratio", "ratio", "higher"),
        ("apps.replay_ms.tcp", "ms", "lower"),
        ("apps.replay_ms.mptcp", "ms", "lower"),
        ("tcp.ns_per_event", "ns", "lower"),
        ("mptcp.ns_per_event", "ns", "lower"),
        ("apps.events_per_replay", "count", "lower"),
        ("mptcp.sched_rejects_per_replay", "count", "lower"),
        ("mptcp.reinjections_per_replay", "count", "lower"),
        ("radio.draw_ns", "ns", "lower"),
        ("crowd.analytic_ns", "ns", "lower"),
        ("measure.record_ns", "ns", "lower"),
        ("measure.merge_us", "us", "lower"),
        ("crowd.journal_append_us", "us", "lower"),
        ("measure.summary_bytes", "bytes", "lower"),
        ("crowd.worker_busy_frac", "ratio", "higher"),
        ("crowd.straggler_ms", "ms", "lower"),
        ("serve.admit_ms", "ms", "lower"),
        ("serve.queue_depth", "count", "lower"),
        ("serve.start_wait_ms", "ms", "lower"),
        ("serve.shed", "count", "lower"),
        ("serve.proto_us", "us", "lower"),
        ("serve.overhead_ms", "ms", "lower"),
        ("serve.p50_ms_lo", "ms", "lower"),
        ("serve.p99_ms_lo", "ms", "lower"),
        ("serve.p50_ms_hi", "ms", "lower"),
        ("serve.p99_ms_hi", "ms", "lower"),
        ("bench.gen_late_ms", "ms", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_ms", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.untraced_ms", "ms", "lower"),
    ]
    .iter()
    .map(|&(n, u, b)| (n.to_string(), u, b))
    .collect();
    for id in MIX_IDS {
        v.push((format!("repro.run_ms.{id}"), "ms", "lower"));
    }
    v
}

/// Simulator work counted at the layer boundaries the harness calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub transfers: u64,
    pub transfer_events: u64,
    pub frames: u64,
    pub segments: u64,
    pub retransmits: u64,
    pub enc_reused: u64,
    pub tcp_replays: u64,
    pub tcp_replay_events: u64,
    pub mptcp_replays: u64,
    pub mptcp_replay_events: u64,
    pub sched_rejects: u64,
    pub reinjections: u64,
    /// Users pushed through each batched crowd span.
    pub crowd_users: u64,
    pub summary_bytes: u64,
    pub journal_appends: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.transfers += o.transfers;
        self.transfer_events += o.transfer_events;
        self.frames += o.frames;
        self.segments += o.segments;
        self.retransmits += o.retransmits;
        self.enc_reused += o.enc_reused;
        self.tcp_replays += o.tcp_replays;
        self.tcp_replay_events += o.tcp_replay_events;
        self.mptcp_replays += o.mptcp_replays;
        self.mptcp_replay_events += o.mptcp_replay_events;
        self.sched_rejects += o.sched_rejects;
        self.reinjections += o.reinjections;
        self.crowd_users += o.crowd_users;
        self.summary_bytes += o.summary_bytes;
        self.journal_appends += o.journal_appends;
    }

    /// Fold the counter delta of one transfer call.
    pub fn transfer(&mut self, d: &RunMetrics) {
        self.transfers += 1;
        self.transfer_events += d.events_popped;
        self.frames += d.frames_forwarded;
        self.segments += d.segments_encoded;
        self.retransmits += d.tcp_retransmits;
        self.enc_reused += d.enc_buffers_reused;
    }

    /// Fold the counter delta of one replay call.
    pub fn replay(&mut self, mptcp: bool, d: &RunMetrics) {
        if mptcp {
            self.mptcp_replays += 1;
            self.mptcp_replay_events += d.events_popped;
        } else {
            self.tcp_replays += 1;
            self.tcp_replay_events += d.events_popped;
        }
        self.sched_rejects += d.sched_picks_rejected;
        self.reinjections += d.reinjections;
    }
}

/// Run `f` and return its result with this thread's counter delta.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, RunMetrics) {
    let before = metrics::snapshot();
    let r = f();
    (r, metrics::snapshot().since(&before))
}

fn ratio(a: u64, b: u64) -> Option<f64> {
    (b > 0).then(|| a as f64 / b as f64)
}

/// Reduce spans and counts into per-layer metrics, plus the `extra`
/// values a workload measured directly. Only metrics the input has
/// samples for are returned.
pub fn reduce(spans: &[Span], c: &Counts, extra: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    let names: BTreeMap<String, crate::trace::NameStats> = by_name(spans).into_iter().collect();
    let mut m = BTreeMap::new();
    let durs = |n: &str| -> Vec<f64> {
        names
            .get(n)
            .map(|s| s.durs_ns.iter().map(|&d| d as f64).collect())
            .unwrap_or_default()
    };
    let total = |n: &str| names.get(n).map_or(0, |s| s.total_ns);

    let t = durs("sim.transfer");
    if !t.is_empty() {
        m.insert("sim.transfer_ms_p50".into(), quantile(&t, 0.5) / 1e6);
        m.insert("sim.transfer_ms_p99".into(), quantile(&t, 0.99) / 1e6);
    }
    let p = durs("sim.ping");
    if !p.is_empty() {
        m.insert("sim.ping_us".into(), quantile(&p, 0.5) / 1e3);
    }
    if let Some(v) = ratio(total("sim.transfer"), c.transfer_events) {
        m.insert("sim.ns_per_event".into(), v);
    }
    for (name, num) in [
        ("simcore.events_per_transfer", c.transfer_events),
        ("netem.frames_per_transfer", c.frames),
        ("tcp.segments_per_transfer", c.segments),
        ("tcp.retransmits_per_transfer", c.retransmits),
    ] {
        if let Some(v) = ratio(num, c.transfers) {
            m.insert(name.into(), v);
        }
    }
    if let Some(v) = ratio(c.enc_reused, c.segments) {
        m.insert("tcp.enc_reuse_ratio".into(), v);
    }

    for (kind, n, ev) in [
        ("tcp", c.tcp_replays, c.tcp_replay_events),
        ("mptcp", c.mptcp_replays, c.mptcp_replay_events),
    ] {
        let span = format!("apps.replay.{kind}");
        let d = durs(&span);
        if !d.is_empty() {
            m.insert(format!("apps.replay_ms.{kind}"), quantile(&d, 0.5) / 1e6);
        }
        if n > 0 {
            if let Some(v) = ratio(total(&span), ev) {
                m.insert(format!("{kind}.ns_per_event"), v);
            }
        }
    }
    let replays = c.tcp_replays + c.mptcp_replays;
    if replays > 0 {
        let r = replays as f64;
        m.insert(
            "apps.events_per_replay".into(),
            (c.tcp_replay_events + c.mptcp_replay_events) as f64 / r,
        );
        m.insert(
            "mptcp.sched_rejects_per_replay".into(),
            c.sched_rejects as f64 / r,
        );
        m.insert(
            "mptcp.reinjections_per_replay".into(),
            c.reinjections as f64 / r,
        );
    }

    // Crowd spans are batched over every user of a shard.
    for (span, name) in [
        ("radio.draw", "radio.draw_ns"),
        ("crowd.analytic", "crowd.analytic_ns"),
        ("measure.record", "measure.record_ns"),
    ] {
        let users = names.get(span).map_or(0, |_| c.crowd_users);
        if let Some(v) = ratio(total(span), users) {
            m.insert(name.into(), v);
        }
    }
    let merge = durs("measure.merge");
    if !merge.is_empty() {
        m.insert("measure.merge_us".into(), quantile(&merge, 0.5) / 1e3);
    }
    let app = durs("crowd.journal_append");
    if !app.is_empty() {
        m.insert("crowd.journal_append_us".into(), quantile(&app, 0.5) / 1e3);
    }
    if let Some(v) = ratio(c.summary_bytes, c.journal_appends) {
        m.insert("measure.summary_bytes".into(), v);
    }

    let run_ms: Vec<(String, f64)> = MIX_IDS
        .iter()
        .filter_map(|id| {
            let d = durs(&format!("repro.run_experiment.{id}"));
            (!d.is_empty()).then(|| (format!("repro.run_ms.{id}"), quantile(&d, 0.5) / 1e6))
        })
        .collect();
    m.extend(run_ms);
    m.extend(extra.iter().map(|(k, v)| (k.clone(), *v)));
    m
}
