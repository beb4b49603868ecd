//! `fig7a-grid`: the paper's Fig. 7(a) grid as an offline batch run.
//!
//! Each repetition is a fresh child process, because the bare-core and
//! software-baseline memo caches are process-wide and every `fireguard
//! fig7a` invocation starts with them cold. The child runs the 90 jobs
//! with one sweep worker at pipeline width 1 and reports per-job times,
//! its resident-set high-water mark and the bit-exact slowdown table.
//! Repetitions take turns over [`VARIANTS`] grids, each from its own seed.

use crate::common::{fg_rungs, session_rungs, since, Layers, Outcome, Rep, Stream};
use crate::spans::Spans;
use crate::stats::{self, Tally};
use crate::Workload;
use fireguard_boom::{BoomConfig, Core, NullSink};
use fireguard_kernels::InstrumentedTrace;
use fireguard_soc::experiments::workloads;
use fireguard_soc::sweep::JobSpec;
use fireguard_soc::{ExperimentConfig, KernelId, SoftwareScheme};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::Barrier;
use std::time::Instant;

/// Instructions per job. At this budget one grid takes under a second on
/// a 2.1 GHz 2-CPU host, so a 30 s run holds thirty-odd cold repetitions
/// and their median rides out the host's second-to-second speed swings.
pub const INSTS: u64 = 10_000;

/// Grids per run, each over its own seed drawn from the run's seed;
/// repetitions take them in turn. A grid's host cost moves with its seed,
/// so a run over several depends less on any one.
pub const VARIANTS: u64 = 4;

/// Columns per workload row, in the fig7a driver's order.
const COLS: usize = 10;

/// The fig7a job list for `seed` (workload-major, [`COLS`] jobs a row).
pub fn grid(seed: u64, insts: u64) -> Vec<JobSpec> {
    let fg = |w: &str, k: KernelId, ha: bool| {
        let cfg = ExperimentConfig::new(w).insts(insts).seed(seed).pipeline(1);
        JobSpec::FireGuard(if ha {
            cfg.kernel_ha(k)
        } else {
            cfg.kernel(k, 4)
        })
    };
    let sw = |w: &str, scheme| JobSpec::Software {
        scheme,
        workload: w.to_owned(),
        seed,
        insts,
    };
    let mut jobs = Vec::new();
    for w in workloads() {
        jobs.extend([
            fg(w, KernelId::PMC, false),
            fg(w, KernelId::PMC, true),
            fg(w, KernelId::SHADOW_STACK, false),
            fg(w, KernelId::SHADOW_STACK, true),
            sw(w, SoftwareScheme::ShadowStackAArch64),
            fg(w, KernelId::ASAN, false),
            sw(w, SoftwareScheme::AsanAArch64),
            sw(w, SoftwareScheme::AsanX86),
            fg(w, KernelId::UAF, false),
            sw(w, SoftwareScheme::DangSanX86),
        ]);
    }
    jobs
}

/// Per-column geomeans of a row-major slowdown table.
pub fn column_geomeans(slowdowns: &[f64]) -> Vec<f64> {
    (0..COLS)
        .map(|c| {
            let col: Vec<f64> = slowdowns.iter().skip(c).step_by(COLS).copied().collect();
            stats::geomean(&col)
        })
        .collect()
}

/// Runs `jobs` in order in this process, as `run_jobs` does with one
/// worker: returns the grid's nanoseconds, each job's, and the slowdowns.
pub fn run_grid(jobs: &[JobSpec]) -> (u128, Vec<u128>, Vec<f64>) {
    let t0 = Instant::now();
    let mut job_ns = Vec::with_capacity(jobs.len());
    let mut slow = Vec::with_capacity(jobs.len());
    for j in jobs {
        let t = Instant::now();
        slow.push(j.run().slowdown());
        job_ns.push(t.elapsed().as_nanos());
    }
    (t0.elapsed().as_nanos(), job_ns, slow)
}

/// The child side: prints `ready` once the grid is built, runs it, then
/// prints `<grid_ns> <peak_rss_kb> <job_ns>... | <slowdown_bits>...`.
pub fn child(seed: u64, insts: u64) {
    let jobs = grid(seed, insts);
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .expect("stdout");
    let (grid_ns, job_ns, slow) = run_grid(&jobs);
    let job_ns: Vec<String> = job_ns.iter().map(u128::to_string).collect();
    let bits: Vec<String> = slow.iter().map(|s| format!("{:x}", s.to_bits())).collect();
    writeln!(
        out,
        "{grid_ns} {} {} | {}",
        crate::host::peak_rss_kb(),
        job_ns.join(" "),
        bits.join(" ")
    )
    .and_then(|()| out.flush())
    .expect("stdout");
}

/// What one child reported.
struct ChildRun {
    setup_s: f64,
    grid_s: f64,
    rss_kb: u64,
    job_ms: Vec<f64>,
    slowdowns: Vec<f64>,
}

fn spawn_child(seed: u64, insts: u64) -> Option<ChildRun> {
    let t0 = Instant::now();
    let exe = std::env::current_exe().ok()?;
    let mut child = Command::new(exe)
        .args([
            "--fig7a-child",
            "--seed",
            &seed.to_string(),
            "--insts",
            &insts.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .ok()?;
    let mut rd = BufReader::new(child.stdout.take()?);
    let mut line = String::new();
    let ready = rd.read_line(&mut line).is_ok() && line.trim() == "ready";
    let setup_s = since(t0);
    line.clear();
    let got = ready && rd.read_line(&mut line).is_ok();
    let status = child.wait().ok()?;
    if !got || !status.success() {
        return None;
    }
    let (times, bits) = line.trim().split_once(" | ")?;
    let nums: Vec<u64> = times
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let slowdowns: Vec<f64> = bits
        .split(' ')
        .map(|b| u64::from_str_radix(b, 16).map(f64::from_bits))
        .collect::<Result<_, _>>()
        .ok()?;
    (nums.len() >= 2 && nums.len() - 2 == slowdowns.len()).then(|| ChildRun {
        setup_s,
        grid_s: nums[0] as f64 * 1e-9,
        rss_kb: nums[1],
        job_ms: nums[2..].iter().map(|&ns| ns as f64 * 1e-6).collect(),
        slowdowns,
    })
}

pub struct Fig7a {
    /// The seed of each grid.
    seeds: Vec<u64>,
    insts: u64,
    jobs: usize,
    /// Each grid's first table; every later repetition of it must match.
    tables: Vec<Option<Vec<f64>>>,
    /// The grid the next repetition runs.
    next: usize,
}

impl Fig7a {
    pub fn new(seed: u64, insts: u64) -> Fig7a {
        let seeds: Vec<u64> = (0..VARIANTS)
            .map(|k| seed.wrapping_mul(VARIANTS).wrapping_add(k))
            .collect();
        Fig7a {
            jobs: grid(seeds[0], insts).len(),
            tables: vec![None; seeds.len()],
            seeds,
            insts,
            next: 0,
        }
    }
}

impl Workload for Fig7a {
    fn rep(&mut self, tally: &mut Tally, sp: &mut Spans) -> Option<Rep> {
        let k = self.next;
        self.next = (k + 1) % self.seeds.len();
        let (run, _) = sp.time("fig7a.child", |_| spawn_child(self.seeds[k], self.insts));
        let Some(run) = run.filter(|r| r.slowdowns.len() == self.jobs) else {
            for _ in 0..self.jobs {
                tally.check(false);
            }
            return None;
        };
        let first = self.tables[k].get_or_insert_with(|| run.slowdowns.clone());
        for (s, f) in run.slowdowns.iter().zip(first.iter()) {
            tally.check(s.is_finite() && *s > 0.0 && s.to_bits() == f.to_bits());
        }
        Some(Rep {
            setup_s: run.setup_s,
            wall_s: run.grid_s,
            events: self.jobs as u64 * self.insts,
            op_ms: run.job_ms,
            peak_rss_kb: run.rss_kb,
            fresh: true,
            ..Rep::default()
        })
    }

    /// The tables of every grid that ran, one after another (row-major
    /// still, so the column geomeans span every grid's rows).
    fn outcome(&self) -> Outcome {
        let slowdowns: Vec<f64> = self.tables.iter().flatten().flatten().copied().collect();
        let paper_err =
            (!slowdowns.is_empty()).then(|| stats::paper_err(&column_geomeans(&slowdowns)));
        Outcome {
            slowdowns,
            paper_err,
            ..Outcome::default()
        }
    }

    /// Every job of the first grid as rungs: the bare-core baseline once per workload
    /// (as the memo caches pay it), the FireGuard jobs through the full
    /// ladder, and the software jobs as instrumented bare-core runs. Each
    /// in-process result must equal the child's. Returns the sum of the
    /// rungs that make up the grid, seconds.
    fn ladder(&mut self, tally: &mut Tally, sp: &mut Spans, l: &mut Layers) -> f64 {
        let table = self.tables[0].clone().unwrap_or_default();
        let mut sum = 0.0;
        let mut first_stream = None;
        for (i, job) in grid(self.seeds[0], self.insts).iter().enumerate() {
            sp.next_op();
            let want = table.get(i).copied().unwrap_or(f64::NAN);
            match job {
                JobSpec::FireGuard(cfg) => {
                    let s = Stream::capture(cfg.clone());
                    let core_before = l.core_s;
                    let build_before = l.build_s.iter().sum::<f64>();
                    let (run, run_s) = fg_rungs(&s, sp, l, tally);
                    tally.check(run.slowdown.to_bits() == want.to_bits());
                    let build_s = l.build_s.iter().sum::<f64>() - build_before;
                    if i % COLS == 0 {
                        // The workload's baseline, paid once per row.
                        sum += l.core_s - core_before;
                    }
                    sum += build_s + run_s;
                    if first_stream.is_none() {
                        first_stream = Some(s);
                    }
                }
                JobSpec::Software {
                    scheme,
                    workload,
                    seed,
                    insts,
                } => {
                    let cfg = ExperimentConfig::new(workload).seed(*seed).insts(*insts);
                    let (stats, dt) = sp.time("boom.software", |_| {
                        let orig = cfg.trace().take(*insts as usize);
                        Core::new(BoomConfig::default(), InstrumentedTrace::new(orig, *scheme))
                            .run_insts(u64::MAX / 2, &mut NullSink)
                    });
                    l.software_insts += stats.committed;
                    sum += dt;
                    let base = fireguard_soc::baseline_cycles(workload, *seed, *insts);
                    let slowdown = stats.cycles as f64 / base as f64;
                    tally.check(slowdown.to_bits() == want.to_bits());
                }
                JobSpec::Baseline { .. } => {}
            }
        }
        if let Some(s) = first_stream {
            sp.next_op();
            l.add_sessions(&session_rungs(&s, sp, tally, &Barrier::new(1)));
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_nine_rows_of_ten() {
        let g = grid(1, 1_000);
        assert_eq!(g.len(), 90);
        assert!(matches!(g[4], JobSpec::Software { .. }));
        assert!(matches!(g[5], JobSpec::FireGuard(_)));
    }

    #[test]
    fn tiny_grid_repeats_and_its_ladder_passes_every_gate() {
        let mut f = Fig7a::new(3, 1_000);
        let jobs = grid(f.seeds[0], 1_000);
        let (_, _, a) = run_grid(&jobs);
        let (_, _, b) = run_grid(&jobs);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "table identical across repetitions");
        f.tables[0] = Some(a);
        let mut tally = Tally::default();
        let mut l = Layers::default();
        let sum = f.ladder(&mut tally, &mut Spans::default(), &mut l);
        assert!(sum > 0.0);
        assert!(tally.attempted > 90 && tally.failed == 0, "{tally:?}");
        assert!(f.outcome().paper_err.is_some_and(f64::is_finite));
    }

    #[test]
    fn column_geomeans_read_row_major_tables() {
        let mut t = vec![1.0; 2 * COLS];
        t[5] = 4.0; // row 0, SAN.4u
        let g = column_geomeans(&t);
        assert_eq!(g.len(), COLS);
        assert!((g[5] - 2.0).abs() < 1e-12);
        assert_eq!(g[0], 1.0);
    }
}
