//! A conventional, average-case-optimised RISC — the comparator Patmos
//! argues against.
//!
//! The paper's motivation (Section 1) is that "current processors are
//! optimized for average case performance, often leading to a high
//! worst-case execution time", because history-dependent features
//! (dynamic branch prediction, unified caches shared by code and data,
//! blocking loads) are hard to model in WCET analysis. To reproduce that
//! argument quantitatively (experiment E7) this crate runs the *same
//! Patmos binaries* on the Patmos core and prices them under a
//! conventional timing model: [`BaselineSim`] steps a non-strict
//! `patmos_sim::Simulator` and feeds the `Retire` and `DataAccess`
//! events it emits to that model. Both machines compute the same results
//! by construction, because the op semantics exist once, in
//! `patmos-sim`. Only the timing differs:
//!
//! * single issue (a two-slot bundle costs two cycles);
//! * a unified, set-associative cache for **all** data areas — typed
//!   loads lose their meaning, stack/static/heap traffic interferes, and
//!   the scratchpad becomes cached memory at `0x0900_0000`;
//! * an instruction cache accessed on every fetch — misses can happen at
//!   *any* instruction, not only at call/return;
//! * a 2-bit dynamic branch predictor with a misprediction penalty —
//!   branch cost depends on execution history;
//! * blocking main-memory loads — `ldm`'s latency cannot be hidden, the
//!   split `wres` is free.
//!
//! Because these timing features depend on history that a static analysis
//! cannot reconstruct, the WCET analysis of this machine (in
//! `patmos-wcet`) has to assume the worst everywhere — which is exactly
//! the pessimism gap the experiment measures.
//!
//! The suite's counters on this machine are pinned in `patmos-bench`'s
//! `baseline_machine.json`, recorded when the comparator still executed
//! every op itself. That machine's architecture differed from the Patmos
//! core in three corners no compiled program reaches, so the pins carry
//! over: `mfs ss` read `st`, `ldm` wrote `sm` at issue rather than at
//! `wres`, and the scratchpad lived in main memory.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = patmos_asm::assemble(
//!     "        .func main\n        li r1 = 2\n        add r1 = r1, r1\n        halt\n",
//! )?;
//! let mut cpu = patmos_baseline::BaselineSim::new(&image, patmos_baseline::BaselineConfig::default());
//! let result = cpu.run()?;
//! assert_eq!(cpu.reg(patmos_isa::Reg::R1), 4);
//! assert!(result.stats.cycles > 0);
//! # Ok(())
//! # }
//! ```

mod predictor;
mod sim;

pub use predictor::BranchPredictor;
pub use sim::{BaselineConfig, BaselineResult, BaselineSim, BaselineStats};
