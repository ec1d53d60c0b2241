//! Prints experiment E18 (loop-aware allocation vs linear scan).
//! With `--json`, re-emits `baselines/regalloc2_cycles.json` instead.
use patmos_bench::baselines::{exp_e18_regalloc2, family_main, REGALLOC2};

fn main() {
    family_main(REGALLOC2, exp_e18_regalloc2);
}
