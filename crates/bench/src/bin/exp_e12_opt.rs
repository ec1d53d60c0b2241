//! Prints experiment E12 (mid-end optimizer vs straight lowering, frozen).
//! With `--json`, re-emits `baselines/opt_cycles.json` instead.
use patmos_bench::baselines::{exp_e12_opt, family_main, OPT};

fn main() {
    family_main(OPT, exp_e12_opt);
}
