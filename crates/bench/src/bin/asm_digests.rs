//! Prints `baselines/asm_digests.json` as regenerated now: the FNV-1a 64
//! digests of every kernel's emitted assembly, of its rendered
//! virtual-register LIR (the mid-end's output) and of its linked object
//! image at each matrix config.
use patmos_bench::baselines::{view, ASM};

fn main() {
    print!("{}", view(ASM).render());
}
