//! Prints experiment E13 (DAG scheduler vs the frozen run scheduler).
//! With `--json`, re-emits `baselines/sched_cycles.json` instead.
use patmos_bench::baselines::{exp_e13_sched, family_main, SCHED};

fn main() {
    family_main(SCHED, exp_e13_sched);
}
