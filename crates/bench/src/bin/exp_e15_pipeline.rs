//! Prints experiment E15 (software pipelining + partial unrolling).
//! With `--json`, re-emits `baselines/opt3_cycles.json` instead.
use patmos_bench::baselines::{exp_e15_pipeline, family_main, OPT3};

fn main() {
    family_main(OPT3, exp_e15_pipeline);
}
