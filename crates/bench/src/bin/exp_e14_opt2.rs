//! Prints experiment E14 (loop-aware mid-end vs scalar mid-end).
//! With `--json`, re-emits `baselines/opt2_cycles.json` instead.
use patmos_bench::baselines::{exp_e14_opt2, family_main, OPT2};

fn main() {
    family_main(OPT2, exp_e14_opt2);
}
