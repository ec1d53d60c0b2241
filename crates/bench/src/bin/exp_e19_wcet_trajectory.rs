//! Prints experiment E19 (pipeline-aware WCET bounds vs record-blind ones).
//! With `--json`, re-emits `baselines/wcet_bounds.json` instead.
use patmos_bench::baselines::{exp_e19_wcet_trajectory, family_main, WCET};

fn main() {
    family_main(WCET, exp_e19_wcet_trajectory);
}
