//! Prints experiment E11 (register allocation vs the seed codegen, frozen).
//! With `--json`, re-emits `baselines/regalloc_cycles.json` instead.
use patmos_bench::baselines::{exp_e11_regalloc, family_main, REGALLOC};

fn main() {
    family_main(REGALLOC, exp_e11_regalloc);
}
