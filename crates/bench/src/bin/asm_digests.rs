//! Prints `baselines/asm_digests.json` as regenerated now: the FNV-1a 64
//! digest of every kernel's emitted assembly at each matrix config.
use patmos_bench::baselines::{view, ASM};

fn main() {
    print!("{}", view(ASM).render());
}
