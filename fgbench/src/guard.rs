//! `guard-attack`: every registered kernel, two µcores each, deployed in
//! one system at pipeline width 2, over six traces each of three profiles
//! of light to heavy analysis load, every trace under a 60-attack
//! campaign.

use crate::common::{fg_rungs, same_run, session_rungs, Layers, Outcome, Rep, Stream};
use crate::spans::Spans;
use crate::stats::Tally;
use crate::Workload;
use fireguard_soc::{build_system_auto, registry, ExperimentConfig, RunResult};
use fireguard_trace::{AttackKind, AttackPlan};
use std::sync::Barrier;

/// Committed instructions per trace: long enough that the
/// simulated slowdown varies little from seed to seed, short enough that
/// a 30 s run holds the hundred-plus operations a p90 needs.
pub const INSTS: u64 = 100_000;

/// Profiles with light, medium and heavy analysis load.
pub const PROFILES: [&str; 3] = ["blackscholes", "dedup", "x264"];

/// Traces per profile, each generated (with its own attack campaign)
/// from a seed drawn from the run's seed; repetitions take them in turn.
/// A run over several traces per profile depends less on any one seed.
pub const VARIANTS: u64 = 6;

/// Attacks scheduled per trace.
pub const ATTACKS: usize = 60;

/// Stage-pipeline width of the measured deployment.
pub const PIPELINE: u32 = 2;

pub struct Guard {
    streams: Vec<Stream>,
    /// The serial (width-1) results every width-2 run must equal.
    refs: Vec<RunResult>,
    /// Which trace of each profile the next repetition runs.
    variant: usize,
}

impl Guard {
    pub fn new(seed: u64, insts: u64) -> Guard {
        let kinds = [
            AttackKind::RetHijack,
            AttackKind::OutOfBounds,
            AttackKind::UseAfterFree,
            AttackKind::BoundsViolation,
        ];
        let streams: Vec<Stream> = PROFILES
            .iter()
            .flat_map(|w| {
                (0..VARIANTS).map(move |k| (w, seed.wrapping_mul(VARIANTS).wrapping_add(k)))
            })
            .map(|(w, seed)| {
                let plan =
                    AttackPlan::campaign(&kinds, ATTACKS, insts / 10, insts - insts / 10, seed);
                let cfg = ExperimentConfig::new(w)
                    .insts(insts)
                    .seed(seed)
                    .pipeline(PIPELINE)
                    .attacks(plan);
                let cfg = registry()
                    .iter()
                    .fold(cfg, |c, spec| c.kernel(spec.id(), 2));
                Stream::capture(cfg)
            })
            .collect();
        let refs = streams
            .iter()
            .map(|s| {
                let serial = s.cfg.clone().pipeline(1);
                build_system_auto(&serial).run_insts(serial.insts, s.baseline)
            })
            .collect();
        Guard {
            streams,
            refs,
            variant: 0,
        }
    }
}

impl Workload for Guard {
    /// Builds and runs one trace of each profile, one after another, as a
    /// user of the simulator would: each build is set-up, each run one
    /// timed operation.
    fn rep(&mut self, tally: &mut Tally, sp: &mut Spans) -> Option<Rep> {
        let mut rep = Rep::default();
        let k = self.variant;
        self.variant = (k + 1) % VARIANTS as usize;
        let traces = self.streams.iter().zip(&self.refs);
        for (s, want) in traces.skip(k).step_by(VARIANTS as usize) {
            sp.next_op();
            let (mut sys, build_s) = sp.time("soc.build", |_| build_system_auto(&s.cfg));
            let (run, dt) = sp.time("soc.run", |_| sys.run_insts(s.cfg.insts, s.baseline));
            drop(sys);
            rep.setup_s += build_s;
            rep.wall_s += dt;
            rep.op_ms.push(dt * 1e3);
            rep.events += run.committed;
            tally.check(same_run(&run, want) && s.all_detected(&run));
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

    /// The full ladder per trace; the session rungs on the first one.
    /// Returns the summed full-system run time over the repetitions it
    /// takes to run every trace once, divided by their count (one
    /// repetition's work).
    fn ladder(&mut self, tally: &mut Tally, sp: &mut Spans, l: &mut Layers) -> f64 {
        let mut sum = 0.0;
        for (s, want) in self.streams.iter().zip(&self.refs) {
            sp.next_op();
            let (run, run_s) = fg_rungs(s, sp, l, tally);
            tally.check(same_run(&run, want));
            sum += run_s;
        }
        sum /= VARIANTS as f64;
        sp.next_op();
        l.add_sessions(&session_rungs(
            &self.streams[0],
            sp,
            tally,
            &Barrier::new(1),
        ));
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_guard_attack_passes_every_gate() {
        let mut g = Guard::new(5, 5_000);
        let mut tally = Tally::default();
        let rep = g.rep(&mut tally, &mut Spans::off()).expect("rep runs");
        assert_eq!(rep.op_ms.len(), PROFILES.len());
        let mut l = Layers::default();
        assert!(g.ladder(&mut tally, &mut Spans::default(), &mut l) > 0.0);
        assert!(tally.attempted >= 3 && tally.failed == 0, "{tally:?}");
        let o = g.outcome();
        assert!(o.attacked > 0 && o.recall() == 1.0, "{o:?}");
    }
}
