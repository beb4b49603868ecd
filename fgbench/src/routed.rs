//! `routed-sessions`: a closed loop of two clients, each a caller that
//! waits for its summary, streaming pre-captured attacked traces as
//! ticketed sessions through an in-process router with two backends.

use crate::common::{
    fg_rungs, router_options, session_matches, session_rungs, since, Layers, Outcome, Rep,
    SessionRungs, Stream, NEXT_SESSION_ID,
};
use crate::spans::Spans;
use crate::stats::Tally;
use crate::Workload;
use fireguard_server::{route, run_routed_session, RoutedOptions};
use fireguard_soc::{ExperimentConfig, KernelId, RunResult};
use fireguard_trace::{AttackKind, AttackPlan};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Committed instructions per session: long enough that the simulated
/// slowdown geomean varies little from seed to seed (about 8% between
/// seeds at 50k instructions, 4–5% at 100k).
pub const INSTS: u64 = 100_000;

/// The streamed profiles.
pub const PROFILES: [&str; 2] = ["dedup", "ferret"];

/// Attacks scheduled per stream.
pub const ATTACKS: usize = 60;

/// Client threads (each one connection at a time).
pub const CLIENTS: usize = 2;

/// Sessions per repetition; the router stops accepting after exactly this
/// many, so its teardown is a join outside the timed region.
pub const SESSIONS: usize = 20;

pub struct Routed {
    streams: Vec<Stream>,
    /// Offline replays every session must equal.
    refs: Vec<RunResult>,
    /// Whether each replay flags every detectable attacked seq.
    detected: Vec<bool>,
    sessions: usize,
    /// Sessions that ended in an error, and BUSY refusals, over the run.
    pub sessions_failed: u64,
    pub busy_refusals: u64,
}

impl Routed {
    pub fn new(seed: u64, insts: u64, sessions: usize) -> Routed {
        let kinds = [AttackKind::RetHijack, AttackKind::BoundsViolation];
        let streams: Vec<Stream> = PROFILES
            .iter()
            .map(|w| {
                let plan =
                    AttackPlan::campaign(&kinds, ATTACKS, insts / 10, insts - insts / 10, seed);
                let cfg = ExperimentConfig::new(w)
                    .kernel(KernelId::PMC, 4)
                    .kernel(KernelId::SHADOW_STACK, 4)
                    .insts(insts)
                    .seed(seed)
                    .attacks(plan);
                Stream::capture(cfg)
            })
            .collect();
        let refs: Vec<RunResult> = streams.iter().map(Stream::offline).collect();
        let detected = streams
            .iter()
            .zip(&refs)
            .map(|(s, r)| s.all_detected(r))
            .collect();
        Routed {
            streams,
            refs,
            detected,
            sessions: sessions.max(CLIENTS),
            sessions_failed: 0,
            busy_refusals: 0,
        }
    }
}

/// One finished session: latency, events sent, and whether it matched.
type SessionRecord = (f64, u64, Result<bool, ()>);

impl Workload for Routed {
    fn rep(&mut self, tally: &mut Tally, sp: &mut Spans) -> Option<Rep> {
        let per_client = self.sessions / CLIENTS;
        let (router, setup_s) = sp.time("server.route", |_| {
            route(router_options((per_client * CLIENTS) as u64))
        });
        let Ok(router) = router else {
            for _ in 0..per_client * CLIENTS {
                tally.check(false);
            }
            return None;
        };
        let addr = router.local_addr().to_string();
        let t0 = Instant::now();
        let records: Vec<SessionRecord> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (addr, streams, refs, detected) =
                        (&addr, &self.streams, &self.refs, &self.detected);
                    scope.spawn(move || {
                        (0..per_client)
                            .map(|k| {
                                let i = (c + k) % streams.len();
                                let s = &streams[i];
                                let id = NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed);
                                let t = Instant::now();
                                let out = run_routed_session(
                                    addr,
                                    &s.session_config(),
                                    Arc::clone(&s.events),
                                    RoutedOptions::new(id),
                                );
                                let ms = since(t) * 1e3;
                                match out {
                                    Ok(o) => (
                                        ms,
                                        o.outcome.events_sent,
                                        Ok(session_matches(&o.outcome, &refs[i]) && detected[i]),
                                    ),
                                    Err(_) => (ms, 0, Err(())),
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = since(t0);
        self.busy_refusals += router.sessions_shed();
        router.join();
        let mut rep = Rep {
            setup_s,
            wall_s,
            ..Rep::default()
        };
        for (ms, events, ok) in records {
            self.sessions_failed += u64::from(ok.is_err());
            tally.check(ok == Ok(true));
            rep.op_ms.push(ms);
            rep.events += events;
        }
        Some(rep)
    }

    fn outcome(&self) -> Outcome {
        let mut o = Outcome::default();
        for (s, r) in self.streams.iter().zip(&self.refs) {
            o.add_run(s, r);
        }
        o
    }

    /// The full ladder per stream, then the session rungs of both streams
    /// on two threads at once, rung by rung, the way the closed loop's two
    /// clients overlap. Returns one repetition's worth of routed-session
    /// time: the mean routed rung times the sessions each client runs.
    fn ladder(&mut self, tally: &mut Tally, sp: &mut Spans, l: &mut Layers) -> f64 {
        for s in &self.streams {
            sp.next_op();
            fg_rungs(s, sp, l, tally);
        }
        sp.next_op();
        let sync = Barrier::new(self.streams.len());
        let forks: Vec<(Spans, Tally, SessionRungs)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .iter()
                .map(|s| {
                    let (mut fsp, sync) = (sp.fork(), &sync);
                    scope.spawn(move || {
                        let mut t = Tally::default();
                        let r = session_rungs(s, &mut fsp, &mut t, sync);
                        (fsp, t, r)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rung thread panicked"))
                .collect()
        });
        let mut routed = 0.0;
        for (fsp, t, r) in forks {
            sp.absorb(fsp);
            tally.add(t);
            l.add_sessions(&r);
            routed += r.routed_s;
        }
        l.sessions_failed += self.sessions_failed;
        l.busy_refusals += self.busy_refusals;
        routed / self.streams.len() as f64 * (self.sessions / CLIENTS) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_routed_sessions_pass_every_gate() {
        let mut r = Routed::new(5, 3_000, 2);
        let mut tally = Tally::default();
        let rep = r.rep(&mut tally, &mut Spans::off()).expect("rep runs");
        assert_eq!(rep.op_ms.len(), 2);
        assert_eq!(rep.events, 2 * (3_000 + fireguard_soc::REPLAY_MARGIN));
        let mut l = Layers::default();
        assert!(r.ladder(&mut tally, &mut Spans::default(), &mut l) > 0.0);
        assert_eq!(l.routed_ms.len(), 2);
        assert!(tally.attempted >= 2 && tally.failed == 0, "{tally:?}");
        assert_eq!(r.sessions_failed, 0);
    }
}
