//! Prints experiment E7 (WCET bound tightness, Patmos vs the
//! conventional comparator). With `--json`, re-emits
//! `baselines/baseline_machine.json` instead.
use patmos_bench::baselines::{exp_e7_wcet_bounds, family_main, BASELINE_MACHINE};

fn main() {
    family_main(BASELINE_MACHINE, exp_e7_wcet_bounds);
}
