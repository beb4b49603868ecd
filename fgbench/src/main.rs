//! The FireGuard benchmark: three workloads measured end to end, and a
//! separate traced run that decomposes each into per-layer rungs.
//!
//! ```text
//! fgbench --workload <fig7a-grid|guard-attack|routed-sessions>
//!         --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the run record (host, build, seed, sample counts, percentile rule).
//! See `README.md` in this directory for why each workload exists and
//! which end-to-end metric each per-layer metric should move.

mod common;
mod fig7a;
mod guard;
mod host;
mod routed;
mod spans;
mod stats;

use common::{Layers, Outcome, Rep};
use spans::Spans;
use stats::{percentile, sorted, tail_is_supported, Tally};
use std::path::PathBuf;
use std::time::Instant;

/// A benchmark workload: repeated timed repetitions, a simulated outcome
/// that is exact for the seed, and a rung ladder for the traced run.
pub trait Workload {
    /// One set-up plus timed repetition; `None` when it could not run (its
    /// operations are then already counted as failed in `tally`).
    fn rep(&mut self, tally: &mut Tally, sp: &mut Spans) -> Option<Rep>;
    /// The simulated outcome (identical in every repetition, by the gates).
    fn outcome(&self) -> Outcome;
    /// Measures the rungs into `l`; returns the rung sum comparable to one
    /// repetition's timed wall, seconds.
    fn ladder(&mut self, tally: &mut Tally, sp: &mut Spans, l: &mut Layers) -> f64;
}

/// Repetitions a run holds at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Operations a run holds at least, so p90 has ten samples beyond it.
const MIN_OPS: usize = 100;

/// Tolerance on |rung sum ÷ untraced wall − 1| the traced run reports
/// against; see README.md.
const CLOSURE_TOLERANCE: f64 = 0.25;

/// Share of `--seconds` the traced run spends re-measuring the untraced
/// figures its rungs are compared with.
const TRACED_UNTRACED_SHARE: f64 = 0.3;

pub const WORKLOADS: [&str; 3] = ["fig7a-grid", "guard-attack", "routed-sessions"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("fgbench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--out-dir" => a.out_dir = PathBuf::from(val()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Builds the workload's inputs from the seed (not timed).
pub fn prepare(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "fig7a-grid" => Box::new(fig7a::Fig7a::new(seed, fig7a::INSTS)),
        "guard-attack" => Box::new(guard::Guard::new(seed, guard::INSTS)),
        _ => Box::new(routed::Routed::new(seed, routed::INSTS, routed::SESSIONS)),
    }
}

/// Runs repetitions for `budget` seconds, and on until [`MIN_REPS`] and
/// `min_ops` are met (bounded at four budgets so a failing workload
/// still ends).
pub fn measure(w: &mut dyn Workload, budget: f64, min_ops: usize, tally: &mut Tally) -> Vec<Rep> {
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut sp = Spans::off();
    // The probe between two repetitions serves both of them.
    let mut before = host::reference_loop();
    loop {
        let ops: usize = reps.iter().map(|r| r.op_ms.len()).sum();
        let short = reps.len() < MIN_REPS || ops < min_ops;
        let elapsed = common::since(t0);
        if elapsed >= 4.0 * budget || (elapsed >= budget && !short) {
            return reps;
        }
        host::reset_peak_rss();
        let rep = w.rep(tally, &mut sp);
        let peak_rss_kb = host::peak_rss_kb();
        let after = host::reference_loop();
        let host_speed = 2.0 * host::REF_NOMINAL_S / (before + after);
        before = after;
        if let Some(mut r) = rep {
            if r.peak_rss_kb == 0 {
                r.peak_rss_kb = peak_rss_kb;
                r.fresh = reps.is_empty();
            }
            r.host_speed = host_speed;
            reps.push(r);
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced run. Host times are scaled to
/// reference host speed per repetition (see README.md).
fn end_to_end(reps: &[Rep], outcome: &Outcome) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let ops = sorted(
        &reps
            .iter()
            .flat_map(|r| r.op_ms.iter().map(|&ms| r.at_ref_speed(ms)))
            .collect::<Vec<_>>(),
    );
    vec![
        m("setup_s", med(&|r| r.at_ref_speed(r.setup_s)), "s"),
        m(
            "events_per_s",
            med(&|r| r.events as f64 / r.at_ref_speed(r.wall_s)),
            "events/s",
        ),
        m("session_ms_p50", percentile(&ops, 50.0), "ms"),
        m("session_ms_p90", percentile(&ops, 90.0), "ms"),
        m(
            "peak_rss_mb",
            stats::median(
                &reps
                    .iter()
                    .filter(|r| r.fresh)
                    .map(|r| r.peak_rss_kb as f64 / 1024.0)
                    .collect::<Vec<_>>(),
            ),
            "MB",
        ),
        m(
            "sim_slowdown_geomean",
            stats::geomean(&outcome.slowdowns),
            "x",
        ),
    ]
}

/// The per-layer metrics of a traced run.
fn per_layer(
    l: &Layers,
    outcome: &Outcome,
    tally: &Tally,
    traced_ops: &[f64],
    cpu_util: f64,
    rung_gap: f64,
    overhead: f64,
) -> Vec<Metric> {
    let c = &l.counters;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let rate = |hit: u64, miss: u64| per(hit as f64, hit + miss);
    let ops = sorted(traced_ops);
    let lat = sorted(&outcome.latencies_ns);
    let med = stats::median;
    let core_self = l.core_s - l.gen_s * per(l.core_insts as f64, l.gen_events);
    let mut v = vec![
        m(
            "trace.gen_ns_per_event",
            per(l.gen_s * 1e9, l.gen_events),
            "ns/event",
        ),
        m(
            "trace.wire_encode_ns_per_event",
            per(l.enc_s * 1e9, l.wire_events),
            "ns/event",
        ),
        m(
            "trace.wire_decode_ns_per_event",
            per(l.dec_s * 1e9, l.wire_events),
            "ns/event",
        ),
        m(
            "boom.ns_per_inst",
            per(core_self * 1e9, l.core_insts),
            "ns/inst",
        ),
        m("boom.software_insts", l.software_insts as f64, "count"),
        m(
            "boom.sim_ipc",
            per(l.core_insts as f64, l.core_cycles),
            "inst/cycle",
        ),
        m("core.filter_offers", c.offers as f64, "count"),
        m("core.filter_refusals", c.refusals as f64, "count"),
        m(
            "core.filter_accept_ratio",
            1.0 - per(c.refusals as f64, c.offers),
            "ratio",
        ),
        m(
            "core.filter_ns_per_offer",
            per(l.filter_s * 1e9, l.filter_offers),
            "ns/offer",
        ),
        m("core.filter_packets", c.packets as f64, "count"),
        m("core.filter_placeholders", c.placeholders as f64, "count"),
        m(
            "core.mapper_ns_per_route",
            per(l.route_s * 1e9, l.routes),
            "ns/route",
        ),
        m(
            "core.mapper_occupancy_mean",
            per(c.mapper_occupancy_sum as f64, c.slow_edges),
            "packets",
        ),
        m(
            "core.mapper_stall_cycles",
            l.mapper_stall as f64,
            "sim_cycles",
        ),
        m("core.cdc_stall_cycles", l.cdc_stall as f64, "sim_cycles"),
        m("core.cdc_hwm", c.cdc_hwm as f64, "count"),
        m("ucore.retired", c.ucore_retired as f64, "count"),
        m(
            "ucore.idle_cycles",
            c.ucore_idle_cycles as f64,
            "sim_cycles",
        ),
        m("ucore.parks", c.ucore_parks as f64, "count"),
        m("ucore.stall_cycles", l.ucore_stall as f64, "sim_cycles"),
        m(
            "ucore.ns_per_retired",
            per((l.full_s - l.noucore_s) * 1e9, c.ucore_retired),
            "ns/uinst",
        ),
        m(
            "mem.l1_hit_rate",
            rate(c.cache_hits, c.cache_misses),
            "ratio",
        ),
        m("mem.tlb_hit_rate", rate(c.tlb_hits, c.tlb_misses), "ratio"),
        m(
            "kernels.judge_ns_per_event",
            per(l.judge_s * 1e9, l.judge_events),
            "ns/event",
        ),
    ];
    for spec in fireguard_soc::registry() {
        let n = l.alarms.get(spec.name()).copied().unwrap_or(0);
        v.push(m(
            format!("kernels.alarms.{}", spec.cli_names()[0]),
            n as f64,
            "count",
        ));
    }
    v.extend([
        m(
            "soc.ns_per_sim_cycle",
            per(l.full_s * 1e9, l.full_cycles),
            "ns/cycle",
        ),
        m(
            "soc.build_ms",
            per(l.build_s.iter().sum::<f64>() * 1e3, l.build_s.len() as u64),
            "ms",
        ),
        m(
            "soc.pipeline_gen_stalls",
            c.pipeline_gen_stalls as f64,
            "count",
        ),
        m(
            "soc.pipeline_judge_stalls",
            c.pipeline_judge_stalls as f64,
            "count",
        ),
        m(
            "soc.pipeline_core_waits",
            c.pipeline_core_waits as f64,
            "count",
        ),
        m("soc.pipeline_batches", c.pipeline_batches as f64, "count"),
        m("soc.sweep_job_ms_p50", percentile(&ops, 50.0), "ms"),
        m(
            "soc.sweep_job_ms_max",
            ops.last().copied().unwrap_or(0.0),
            "ms",
        ),
        m("soc.cpu_util", cpu_util, "ratio"),
        m("server.offline_replay_ms", med(&l.offline_ms), "ms"),
        m("server.direct_session_ms", med(&l.direct_ms), "ms"),
        m(
            "server.router_hop_ms",
            med(&l.routed_ms) - med(&l.direct_ms),
            "ms",
        ),
        m("server.sessions_failed", l.sessions_failed as f64, "count"),
        m("server.busy_refusals", l.busy_refusals as f64, "count"),
        m("fig7a_paper_err", outcome.paper_err.unwrap_or(0.0), "ratio"),
        m("detect_recall", outcome.recall(), "ratio"),
        m("detect_latency_ns_p50", percentile(&lat, 50.0), "sim_ns"),
        m("detect_latency_ns_p90", percentile(&lat, 90.0), "sim_ns"),
        m("false_alarms", outcome.false_alarms as f64, "count"),
        m("trace.noop_attacks", outcome.noop_attacks as f64, "count"),
        m("failed_ratio", tally.failed_ratio(), "ratio"),
        m("bench.rung_gap", rung_gap, "ratio"),
        m("bench.trace_overhead", overhead, "ratio"),
    ]);
    v
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0 && metrics.iter().all(|x| x.value.is_finite()),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// `rustc --version` of the toolchain on the path, as the build used.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned())
}

/// The run record; `traced_ops` is the traced repetition's operation
/// count in a traced run.
fn record_line(a: &Args, reps: &[Rep], traced_ops: Option<usize>) -> String {
    let ops: usize = reps.iter().map(|r| r.op_ms.len()).sum();
    let fields = [
        ("workload", json_str(&a.workload)),
        ("seed", a.seed.to_string()),
        ("seconds", json_num(a.seconds)),
        ("traced", traced_ops.is_some().to_string()),
        ("nproc", host::nproc().to_string()),
        (
            "git_rev",
            json_str(&std::env::var("FGBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into())),
        ),
        ("rustc", json_str(&rustc_version())),
        ("repetitions", reps.len().to_string()),
        (
            "host_speed",
            json_num(stats::median(
                &reps.iter().map(|r| r.host_speed).collect::<Vec<_>>(),
            )),
        ),
        ("operations", ops.to_string()),
        (
            "percentile",
            json_str(&match traced_ops {
                Some(n) => format!("nearest-rank p50 and max over the {n} traced operations"),
                None => format!(
                    "nearest-rank p50/p90 over {ops} operations, {} beyond p90 (rule: >= {}){}",
                    stats::beyond(ops, 90.0),
                    stats::MIN_BEYOND,
                    if tail_is_supported(ops, 90.0) {
                        ""
                    } else {
                        " NOT MET"
                    }
                ),
            }),
        ),
        (
            "medians",
            json_str(
                "setup_s, events_per_s and peak_rss_mb are medians over repetitions; \
                 host times are scaled per repetition to reference host speed",
            ),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"record\": {{{}}}}}", body.join(", "))
}

/// Writes every repetition (set-up, wall, events, operation latencies)
/// as JSON lines next to the spans, so any statistic can be recomputed.
fn write_reps(a: &Args, reps: &[Rep]) {
    let path = a
        .out_dir
        .join(format!("reps-{}-{}.jsonl", a.workload, a.seed));
    let body: String = reps
        .iter()
        .map(|r| {
            let ops: Vec<String> = r.op_ms.iter().map(|x| json_num(*x)).collect();
            format!(
                "{{\"host_speed\":{},\"fresh\":{},\"setup_s\":{},\"wall_s\":{},\"events\":{},\"peak_rss_kb\":{},\"op_ms\":[{}]}}\n",
                json_num(r.host_speed),
                r.fresh,
                json_num(r.setup_s),
                json_num(r.wall_s),
                r.events,
                r.peak_rss_kb,
                ops.join(",")
            )
        })
        .collect();
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("fgbench: could not write {}: {e}", path.display());
    }
}

fn run(a: &Args) -> (Tally, Vec<Metric>, String) {
    let mut tally = Tally::default();
    let mut w = prepare(&a.workload, a.seed);
    if !a.trace {
        let reps = measure(w.as_mut(), a.seconds, MIN_OPS, &mut tally);
        write_reps(a, &reps);
        let metrics = end_to_end(&reps, &w.outcome());
        return (tally, metrics, record_line(a, &reps, None));
    }
    // Untraced figures first, then one traced repetition, then the rungs.
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let reps = measure(w.as_mut(), a.seconds * TRACED_UNTRACED_SHARE, 0, &mut tally);
    let cpu_util = (host::cpu_seconds() - cpu0) / common::since(t0);
    let untraced_wall = stats::median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());

    let mut sp = Spans::default();
    let traced = w.rep(&mut tally, &mut sp).unwrap_or_default();
    let overhead = traced.wall_s / untraced_wall - 1.0;

    let mut layers = Layers::default();
    let rung_sum = w.ladder(&mut tally, &mut sp, &mut layers);
    let rung_gap = (rung_sum / untraced_wall - 1.0).abs();
    if rung_gap > CLOSURE_TOLERANCE {
        eprintln!(
            "fgbench: rung sum {:.1} ms vs untraced {:.1} ms is outside the ±{:.0}% tolerance",
            rung_sum * 1e3,
            untraced_wall * 1e3,
            CLOSURE_TOLERANCE * 100.0
        );
    }
    let path = a
        .out_dir
        .join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
    let written = std::fs::File::create(&path)
        .map(std::io::BufWriter::new)
        .and_then(|f| sp.write_jsonl(f));
    if let Err(e) = written {
        eprintln!("fgbench: could not write {}: {e}", path.display());
    }
    let metrics = per_layer(
        &layers,
        &w.outcome(),
        &tally,
        &traced.op_ms,
        cpu_util,
        rung_gap,
        overhead,
    );
    (
        tally,
        metrics,
        record_line(a, &reps, Some(traced.op_ms.len())),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--fig7a-child") {
        let num = |flag: &str| -> u64 {
            argv.iter()
                .position(|x| x == flag)
                .and_then(|i| argv.get(i + 1))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("child needs {flag}"))
        };
        fig7a::child(num("--seed"), num("--insts"));
        return;
    }
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fgbench: {e}");
            std::process::exit(2);
        }
    };
    // Session journals spill to the temp dir; keep every file the run
    // writes inside the output directory.
    let tmp = a.out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("fgbench: cannot create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    std::env::set_var("TMPDIR", &tmp);
    let (tally, metrics, record) = run(&a);
    println!("{record}");
    println!("{}", result_line(&tally, &metrics));
}
