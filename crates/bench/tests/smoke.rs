//! Smoke + invariance tests for every figure/table driver.
//!
//! Each figure's full experiment takes minutes; these run the *same code
//! paths* end-to-end at a tiny instruction budget so a plain `cargo test`
//! catches panics, bad table plumbing, and experiment wiring regressions
//! in every driver without the full workloads.
//!
//! Beyond not crashing, every driver's rendered output must be
//! **byte-identical** across worker counts and stage-pipeline widths: the
//! sweep engine re-orders results by job index and the pipeline commits in
//! sequence order, so neither may change a byte. Parity of the `fireguard`
//! CLI with these drivers is checked in the CLI crate's own tests.

use fireguard_bench::figures::{find, FigOpts};
use fireguard_bench::SEED;
use fireguard_soc::{render_to_string, Format};

const SMOKE_INSTS: u64 = 2000;

fn render(name: &str, workers: usize, pipeline: u32) -> String {
    let fig = find(name).unwrap_or_else(|| panic!("{name} not in the figure registry"));
    let opts = FigOpts {
        insts: SMOKE_INSTS,
        seed: SEED,
        workers,
        pipeline,
    };
    render_to_string(&(fig.run)(&opts), Format::Human)
}

fn smoke(name: &str) {
    let serial = render(name, 1, 1);
    assert!(
        serial.lines().count() >= 3,
        "{name} produced suspiciously little output:\n{serial}"
    );
    let parallel = render(name, 4, 2);
    assert_eq!(
        serial, parallel,
        "{name}: worker count or pipeline width changed the output"
    );
}

macro_rules! smoke_tests {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            smoke(stringify!($name).trim_end_matches("_smokes"));
        }
    )+};
}

smoke_tests! {
    fig7a_smokes,
    fig7b_smokes,
    fig8_smokes,
    fig9_smokes,
    fig10_smokes,
    fig11_smokes,
    table2_smokes,
    table3_smokes,
    area_smokes,
    isax_ablation_smokes,
    mapper_ablation_smokes,
}
