//! The app-replay probe of the traced run: the `apps`, `mptcp` and
//! `core` layers, which no timed workload calls.
//!
//! One location of `radio::paper_locations(seed)`: a short-flow app
//! (`cnn_launch`) and a long-flow app (`dropbox_click`), six transports
//! each (12 replays, 8 of them MPTCP). The harness makes the
//! `apps::replay` calls `core::run_app_study` makes, with the same seeds,
//! a span and counter delta around each, and checks every response time
//! against `run_app_study` itself.

use crate::layers::{counted, Counts};
use crate::trace::Trace;
use mpwifi_apps::patterns::{cnn_launch, dropbox_click};
use mpwifi_apps::replay::{replay, Transport, ALL_TRANSPORTS};
use mpwifi_core::run_app_study;
use mpwifi_radio::paper_locations;
use mpwifi_simcore::Dur;

/// The deadline `repro` gives every app replay.
const DEADLINE: Dur = Dur::from_secs(300);

/// Replay both apps at the first location, traced; `Err` names the
/// replay that did not complete or disagreed with `run_app_study`.
pub fn probe(seed: u64, trace: &Trace, counts: &mut Counts) -> Result<(), String> {
    let loc = paper_locations(seed).swap_remove(0);
    let cond = (loc.id, loc.wifi, loc.lte);
    let (id, wifi, lte) = &cond;
    let mut rec = trace.recorder(0);
    for pattern in [cnn_launch(seed), dropbox_click(seed)] {
        let study = run_app_study(&pattern, std::slice::from_ref(&cond), DEADLINE, seed);
        for (k, &t) in ALL_TRANSPORTS.iter().enumerate() {
            let mptcp = matches!(t, Transport::Mptcp { .. });
            let name = if mptcp {
                "apps.replay.mptcp"
            } else {
                "apps.replay.tcp"
            };
            let s = seed ^ ((*id as u64) << 16) ^ k as u64;
            let (r, d) = rec.span(name, 0, |_| {
                counted(|| replay(&pattern, wifi, lte, t, DEADLINE, s))
            });
            counts.replay(mptcp, &d);
            if !r.completed || study.conditions[0].times[&t] != r.response_time {
                return Err(format!(
                    "{} over {}: replay incomplete or differs from run_app_study",
                    study.pattern,
                    t.label()
                ));
            }
        }
    }
    rec.finish();
    Ok(())
}
