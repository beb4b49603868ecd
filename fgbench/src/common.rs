//! Pieces every workload shares: the repetition record, the simulated
//! outcome, the oracles, and the rung ladder the traced run measures.

use crate::spans::Spans;
use crate::stats::Tally;
use fireguard_boom::{BoomConfig, Core, NullSink};
use fireguard_core::{Allocator, EventFilter, FilterConfig, Gid, SchedulingEngine};
use fireguard_kernels::Semantics;
use fireguard_server::{
    route, run_routed_session, run_session, serve, BackendMode, RoutedOptions, RouterOptions,
    ServeOptions, SessionConfig, SessionOutcome, DEFAULT_BATCH,
};
use fireguard_soc::{
    build_system_auto, run_fireguard_events, Detection, EngineConfig, EngineCounters,
    ExperimentConfig, KernelId, RunResult,
};
use fireguard_trace::{AttackKind, EventBatch, EventDecoder, EventEncoder, InstClass, TraceInst};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Ticketed session ids, unique for every session of the process.
pub static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);

/// What one timed repetition of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Set-up before the timed region (building systems, starting a fleet,
    /// starting a process).
    pub setup_s: f64,
    /// Wall time of the timed region.
    pub wall_s: f64,
    /// Events the timed region processed (the `events_per_s` numerator).
    pub events: u64,
    /// Latency of each operation a caller waits for, ms.
    pub op_ms: Vec<f64>,
    /// Resident-set high-water mark over the repetition, KiB.
    pub peak_rss_kb: u64,
    /// The repetition started from a fresh allocator: a new process, or
    /// the first repetition after the inputs were prepared. Later
    /// in-process repetitions inherit heap the allocator retains from
    /// earlier ones, so only fresh repetitions count toward `peak_rss_mb`.
    pub fresh: bool,
    /// Host speed around the repetition: the reference loop's nominal time
    /// over its measured time (below 1 when the host runs slow).
    pub host_speed: f64,
}

impl Rep {
    /// A host time of this repetition, scaled to reference host speed.
    pub fn at_ref_speed(&self, secs: f64) -> f64 {
        secs * self.host_speed
    }
}

/// A workload's simulated outcome: exact for a given seed.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every simulated slowdown the workload produced.
    pub slowdowns: Vec<f64>,
    /// Fig. 7(a) accuracy against the paper (fig7a-grid only).
    pub paper_err: Option<f64>,
    /// Attacked seqs committed in the streams.
    pub attacked: u64,
    /// Attacked seqs some kernel flagged.
    pub flagged: u64,
    /// Detection latency of every true detection, simulated ns.
    pub latencies_ns: Vec<f64>,
    /// Alarms raised on seqs that carry no attack.
    pub false_alarms: u64,
    /// Labelled attacks the stream does not carry out (see
    /// [`Stream::noop_hijacks`]).
    pub noop_attacks: u64,
}

impl Outcome {
    /// Folds one run's detections into the outcome.
    pub fn add_run(&mut self, stream: &Stream, run: &RunResult) {
        self.slowdowns.push(run.slowdown);
        let attacked = stream.attacked_seqs(run.committed, false);
        let flagged = flagged_seqs(&run.detections);
        self.attacked += attacked.len() as u64;
        self.flagged += attacked.intersection(&flagged).count() as u64;
        self.latencies_ns.extend(
            run.detections
                .iter()
                .filter(|d| d.attack)
                .map(|d| d.latency_ns),
        );
        self.false_alarms += run.detections.iter().filter(|d| !d.attack).count() as u64;
        self.noop_attacks += stream.noop_hijacks().range(..run.committed).count() as u64;
    }

    /// Share of attacked seqs flagged (1 when the streams carry none).
    pub fn recall(&self) -> f64 {
        if self.attacked == 0 {
            1.0
        } else {
            self.flagged as f64 / self.attacked as f64
        }
    }
}

/// One FireGuard deployment over one pre-captured commit stream.
#[derive(Debug, Clone)]
pub struct Stream {
    pub cfg: ExperimentConfig,
    /// `cfg.insts + REPLAY_MARGIN` events, attacks applied.
    pub events: Arc<Vec<TraceInst>>,
    /// Bare-core cycles for the stream (the slowdown denominator).
    pub baseline: u64,
}

impl Stream {
    /// Captures the stream `cfg` describes and its bare-core baseline.
    pub fn capture(cfg: ExperimentConfig) -> Stream {
        let events = Arc::new(fireguard_soc::capture_events(&cfg));
        let baseline = fireguard_soc::baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
        Stream {
            cfg,
            events,
            baseline,
        }
    }

    pub fn kernel_ids(&self) -> Vec<KernelId> {
        self.cfg.kernels.iter().map(|&(id, _)| id).collect()
    }

    /// Attacked seqs among the first `committed` events; with `detectable`
    /// only those whose kind a deployed kernel's `detects()` lists, less
    /// the labelled hijacks the stream does not carry out.
    pub fn attacked_seqs(&self, committed: u64, detectable: bool) -> BTreeSet<u64> {
        let kinds: BTreeSet<AttackKind> = self
            .kernel_ids()
            .iter()
            .flat_map(|id| id.spec().detects().iter().copied())
            .collect();
        let noop = if detectable {
            self.noop_hijacks()
        } else {
            BTreeSet::new()
        };
        self.events
            .iter()
            .filter(|e| e.seq < committed && !noop.contains(&e.seq))
            .filter_map(|e| e.attack.map(|k| (e.seq, k)))
            .filter(|(_, k)| !detectable || kinds.contains(k))
            .map(|(s, _)| s)
            .collect()
    }

    /// Returns labelled as hijacked whose target is the return address of
    /// their matching call (call pc + 4). The generator picks a hijack
    /// target without excluding the legitimate one, so now and then the
    /// label marks a return that goes where it should: no control flow is
    /// subverted and no kernel can observe it. These are counted in
    /// `trace.noop_attacks` and left out of the detection gate.
    pub fn noop_hijacks(&self) -> BTreeSet<u64> {
        let mut calls = Vec::new();
        let mut out = BTreeSet::new();
        for e in self.events.iter() {
            match e.class {
                InstClass::Call => calls.push(e.pc + 4),
                InstClass::Ret => {
                    let expected = calls.pop();
                    if e.attack == Some(AttackKind::RetHijack)
                        && expected.is_some()
                        && expected == e.control.map(|c| c.target)
                    {
                        out.insert(e.seq);
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// True when every detectable attacked seq of `run` was flagged.
    pub fn all_detected(&self, run: &RunResult) -> bool {
        self.attacked_seqs(run.committed, true)
            .is_subset(&flagged_seqs(&run.detections))
    }

    pub fn session_config(&self) -> SessionConfig {
        SessionConfig::from_experiment(&self.cfg, self.baseline)
    }

    /// The serial offline replay: the oracle sessions are checked against.
    pub fn offline(&self) -> RunResult {
        run_fireguard_events(&self.cfg, self.events.to_vec(), self.baseline)
    }
}

fn flagged_seqs(ds: &[Detection]) -> BTreeSet<u64> {
    ds.iter().filter(|d| d.attack).map(|d| d.seq).collect()
}

/// Sorted bit-exact detection keys (alarm arrival order is not part of
/// the contract; the set and every bit of each alarm is).
fn detection_keys(ds: &[Detection]) -> Vec<(u64, u64, usize, bool)> {
    let mut k: Vec<_> = ds
        .iter()
        .map(|d| (d.seq, d.latency_ns.to_bits(), d.kernel_slot, d.attack))
        .collect();
    k.sort_unstable();
    k
}

/// Two runs agree on every simulated bit.
pub fn same_run(a: &RunResult, b: &RunResult) -> bool {
    a.committed == b.committed
        && a.cycles == b.cycles
        && a.baseline_cycles == b.baseline_cycles
        && a.slowdown.to_bits() == b.slowdown.to_bits()
        && a.packets == b.packets
        && a.unclaimed_packets == b.unclaimed_packets
        && a.bottlenecks == b.bottlenecks
        && detection_keys(&a.detections) == detection_keys(&b.detections)
}

/// A served session's alarms and summary equal the offline replay.
pub fn session_matches(out: &SessionOutcome, offline: &RunResult) -> bool {
    let s = &out.summary;
    s.committed == offline.committed
        && s.cycles == offline.cycles
        && s.baseline_cycles == offline.baseline_cycles
        && s.slowdown.to_bits() == offline.slowdown.to_bits()
        && s.packets == offline.packets
        && s.unclaimed_packets == offline.unclaimed_packets
        && s.bottlenecks == offline.bottlenecks
        && s.detections == offline.detections.len() as u64
        && detection_keys(&out.alarms) == detection_keys(&offline.detections)
}

/// Router options for an in-process fleet of two spawned backends that
/// stops by itself after `sessions` accepted connections, so teardown is
/// a join and never waits out an idle timeout.
pub fn router_options(sessions: u64) -> RouterOptions {
    RouterOptions {
        backends: BackendMode::Spawn(2),
        // One worker per client, so two sessions that hash to the same
        // backend run side by side instead of queueing.
        backend_workers: crate::routed::CLIENTS,
        max_sessions: Some(sessions),
        ..RouterOptions::default()
    }
}

// ---- per-layer accumulation --------------------------------------------

/// Raw per-layer sums the traced run accumulates over every stream it
/// decomposes; [`Layers::metrics`] turns them into the reported figures.
#[derive(Debug, Default)]
pub struct Layers {
    pub gen_s: f64,
    pub gen_events: u64,
    pub enc_s: f64,
    pub dec_s: f64,
    pub wire_events: u64,
    pub core_s: f64,
    pub core_insts: u64,
    pub core_cycles: u64,
    pub software_insts: u64,
    pub counters: EngineCounters,
    pub alarms: BTreeMap<&'static str, u64>,
    pub mapper_stall: u64,
    pub cdc_stall: u64,
    pub ucore_stall: u64,
    pub filter_s: f64,
    pub filter_offers: u64,
    pub route_s: f64,
    pub routes: u64,
    pub judge_s: f64,
    pub judge_events: u64,
    pub noucore_s: f64,
    pub full_s: f64,
    pub full_cycles: u64,
    pub build_s: Vec<f64>,
    pub offline_ms: Vec<f64>,
    pub direct_ms: Vec<f64>,
    pub routed_ms: Vec<f64>,
    pub sessions_failed: u64,
    pub busy_refusals: u64,
}

impl Layers {
    /// Folds one stream's session rungs in.
    pub fn add_sessions(&mut self, r: &SessionRungs) {
        self.offline_ms.push(r.offline_s * 1e3);
        self.direct_ms.push(r.direct_s * 1e3);
        self.routed_ms.push(r.routed_s * 1e3);
        self.sessions_failed += r.failed;
        self.busy_refusals += r.shed;
    }

    /// Folds a full-system run's counters and stall attribution in.
    pub fn add_system(
        &mut self,
        counters: &EngineCounters,
        slots: &[(usize, KernelId)],
        run: &RunResult,
    ) {
        self.counters.merge(counters);
        for &(slot, id) in slots {
            *self.alarms.entry(id.name()).or_default() += counters.kernel_alarms[slot];
        }
        self.mapper_stall += run.bottlenecks.mapper;
        self.cdc_stall += run.bottlenecks.cdc;
        self.ucore_stall += run.bottlenecks.ucore;
    }
}

/// Times the rung ladder of one FireGuard stream: generation, wire codec,
/// bare core, filter and mapper replays, judging, the same deployment on
/// hardware accelerators (no µcores), and the full system. Returns the
/// full system's result and its run time (build excluded), seconds.
pub fn fg_rungs(s: &Stream, sp: &mut Spans, l: &mut Layers, tally: &mut Tally) -> (RunResult, f64) {
    let n = s.events.len();
    let (sum, dt) = sp.time("trace.gen", |_| {
        s.cfg
            .trace()
            .take(n)
            .fold(0u64, |a, t| a.wrapping_add(t.pc))
    });
    black_box(sum);
    l.gen_s += dt;
    l.gen_events += n as u64;

    let (payloads, dt) = sp.time("trace.wire_encode", |_| {
        let mut enc = EventEncoder::new();
        s.events
            .chunks(DEFAULT_BATCH)
            .map(|c| enc.encode_batch(c))
            .collect::<Vec<_>>()
    });
    l.enc_s += dt;
    let (decoded, dt) = sp.time("trace.wire_decode", |_| {
        let mut dec = EventDecoder::new();
        let mut out = Vec::with_capacity(n);
        for p in &payloads {
            match dec.decode_batch(p) {
                Ok(v) => out.extend(v),
                Err(_) => return None,
            }
        }
        Some(out)
    });
    l.dec_s += dt;
    l.wire_events += n as u64;
    tally.check(decoded.as_deref() == Some(s.events.as_slice()));

    let (stats, dt) = sp.time("boom.core", |_| {
        Core::new(BoomConfig::default(), s.cfg.trace()).run_insts(s.cfg.insts, &mut NullSink)
    });
    l.core_s += dt;
    l.core_insts += stats.committed;
    l.core_cycles += stats.cycles;

    let gids = filter_replay(s, sp, l);
    mapper_replay(s, &gids, sp, l);
    judge_replay(s, sp, l);

    let ha = ExperimentConfig {
        kernels: s
            .cfg
            .kernels
            .iter()
            .map(|&(id, _)| (id, EngineConfig::Ha))
            .collect(),
        ..s.cfg.clone()
    };
    let (_, dt) = sp.time("soc.no_ucore", |_| {
        let mut sys = build_system_auto(&ha);
        black_box(sys.run_insts(ha.insts, s.baseline))
    });
    l.noucore_s += dt;

    let (mut sys, dt) = sp.time("soc.build", |_| build_system_auto(&s.cfg));
    l.build_s.push(dt);
    let (run, run_s) = sp.time("soc.run", |_| sys.run_insts(s.cfg.insts, s.baseline));
    l.full_s += run_s;
    l.full_cycles += run.cycles;
    l.add_system(&sys.telemetry(), &sys.kernel_slots(), &run);
    (run, run_s)
}

/// Commit width the filter replay offers per cycle (BOOM's 4-wide commit).
const COMMIT_WIDTH: usize = 4;

/// Replays `EventFilter::offer` / `arbiter_pop` over the stream: up to
/// [`COMMIT_WIDTH`] offers a cycle, one packet drained a cycle, a refused
/// offer retried next cycle. Returns the popped packets' groups.
fn filter_replay(s: &Stream, sp: &mut Spans, l: &mut Layers) -> Vec<Gid> {
    let (out, dt) = sp.time("core.filter", |_| {
        let mut f = EventFilter::new(FilterConfig {
            width: s.cfg.filter_width,
            ..FilterConfig::default()
        });
        for id in s.kernel_ids() {
            for (class, gid, dp) in id.subscriptions() {
                f.subscribe(class, gid, dp);
            }
        }
        let mut gids = Vec::new();
        let (mut now, mut slot) = (0u64, 0usize);
        for ev in s.events.iter() {
            // A refused offer (or a used-up commit width) ends the cycle:
            // the arbiter drains one packet and the offer is retried.
            while slot == COMMIT_WIDTH || !f.offer(now, slot, ev) {
                if let Some(p) = f.arbiter_pop() {
                    gids.push(p.gid);
                }
                now += 1;
                slot = 0;
            }
            slot += 1;
        }
        while let Some(p) = f.arbiter_pop() {
            gids.push(p.gid);
        }
        (gids, f.stats().offers)
    });
    l.filter_s += dt;
    l.filter_offers += out.1;
    out.0
}

/// Routes every replayed packet group through an allocator provisioned
/// like the system's (one SE per kernel, its engines, its policy).
fn mapper_replay(s: &Stream, gids: &[Gid], sp: &mut Spans, l: &mut Layers) {
    let mut alloc = Allocator::new();
    let mut next_engine = 0usize;
    for &(id, prov) in &s.cfg.kernels {
        let (n, policy) = match prov {
            EngineConfig::Ucores(n) => (n, id.policy()),
            EngineConfig::Ha => (1, fireguard_core::Policy::Fixed),
        };
        let engines: Vec<usize> = (next_engine..next_engine + n).collect();
        next_engine += n;
        let se = alloc.add_se(SchedulingEngine::new(engines, policy));
        for gid in id.gids() {
            alloc.subscribe(gid, se);
        }
    }
    let (dest, dt) = sp.time("core.mapper", |_| {
        gids.iter().fold(0u64, |a, &g| {
            a + u64::from(alloc.route(g, &|_| true).count_ones())
        })
    });
    black_box(dest);
    l.route_s += dt;
    l.routes += gids.len() as u64;
}

/// Judges the stream through fresh kernel semantics in 256-event batches.
fn judge_replay(s: &Stream, sp: &mut Spans, l: &mut Layers) {
    let ids = s.kernel_ids();
    let (flags, dt) = sp.time("kernels.judge", |_| {
        let mut judges = fireguard_soc::pipeline::fresh_judges(&ids);
        let mut batch = EventBatch::with_capacity(fireguard_trace::BATCH_EVENTS);
        let mut src = s.events.iter().copied();
        let mut flagged = 0u64;
        let mut out = Vec::new();
        while batch.refill(&mut src, fireguard_trace::BATCH_EVENTS) > 0 {
            out.clear();
            out.resize(batch.len(), 0u8);
            for (vbit, sem) in judges.iter_mut() {
                Semantics::judge_batch(sem.as_mut(), &batch, *vbit, &mut out);
            }
            flagged += out.iter().filter(|&&v| v != 0).count() as u64;
        }
        flagged
    });
    black_box(flags);
    l.judge_s += dt;
    l.judge_events += s.events.len() as u64;
}

/// The session rungs of one stream, seconds, with their failures.
#[derive(Debug, Default, Clone, Copy)]
pub struct SessionRungs {
    pub offline_s: f64,
    pub direct_s: f64,
    pub routed_s: f64,
    pub failed: u64,
    pub shed: u64,
}

/// Times the session rungs of one stream: the offline replay, a direct
/// session against a bare `serve`, and a ticketed session through a
/// two-backend router. Each served outcome is checked against the replay.
/// Every rung starts at `sync`, so concurrent callers overlap rung by rung.
pub fn session_rungs(
    s: &Stream,
    sp: &mut Spans,
    tally: &mut Tally,
    sync: &Barrier,
) -> SessionRungs {
    let mut r = SessionRungs::default();
    sync.wait();
    let (offline, dt) = sp.time("server.offline_replay", |_| s.offline());
    r.offline_s = dt;
    let scfg = s.session_config();

    let server = serve(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_sessions: Some(1),
        ..ServeOptions::default()
    });
    sync.wait();
    match server {
        Ok(h) => {
            let addr = h.local_addr().to_string();
            let (out, dt) = sp.time("server.direct_session", |_| {
                run_session(&addr, &scfg, Arc::clone(&s.events), DEFAULT_BATCH)
            });
            h.join();
            r.direct_s = dt;
            r.failed += u64::from(out.is_err());
            tally.check(out.is_ok_and(|o| session_matches(&o, &offline)));
        }
        Err(_) => tally.check(false),
    }

    let router = route(router_options(1));
    sync.wait();
    match router {
        Ok(h) => {
            let addr = h.local_addr().to_string();
            let id = NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed);
            let (out, dt) = sp.time("server.routed_session", |_| {
                run_routed_session(&addr, &scfg, Arc::clone(&s.events), RoutedOptions::new(id))
            });
            r.shed += h.sessions_shed();
            h.join();
            r.routed_s = dt;
            r.failed += u64::from(out.is_err());
            tally.check(out.is_ok_and(|o| session_matches(&o.outcome, &offline)));
        }
        Err(_) => tally.check(false),
    }
    r
}

/// Seconds since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireguard_trace::AttackPlan;

    #[test]
    fn a_hijack_to_the_legitimate_return_address_is_a_noop() {
        let plan = AttackPlan::campaign(&[AttackKind::RetHijack], 20, 1_000, 20_000, 3);
        let cfg = ExperimentConfig::new("dedup")
            .insts(25_000)
            .seed(3)
            .kernel(KernelId::SHADOW_STACK, 4)
            .attacks(plan);
        let mut s = Stream::capture(cfg);
        assert!(s.noop_hijacks().is_empty());
        // Point the first hijacked return back at its call site + 4.
        let mut events = s.events.to_vec();
        let mut calls = Vec::new();
        let mut rewritten = None;
        for e in events.iter_mut() {
            match e.class {
                InstClass::Call => calls.push(e.pc + 4),
                InstClass::Ret => {
                    let expected = calls.pop();
                    if e.attack == Some(AttackKind::RetHijack) && rewritten.is_none() {
                        let c = e.control.as_mut().expect("returns carry control flow");
                        c.target = expected.expect("a hijacked return has a call");
                        rewritten = Some(e.seq);
                    }
                }
                _ => {}
            }
        }
        let seq = rewritten.expect("the campaign hijacks a return");
        s.events = Arc::new(events);
        assert_eq!(s.noop_hijacks().into_iter().collect::<Vec<_>>(), vec![seq]);
        assert!(!s.attacked_seqs(u64::MAX, true).contains(&seq));
        assert!(s.attacked_seqs(u64::MAX, false).contains(&seq));
    }
}
