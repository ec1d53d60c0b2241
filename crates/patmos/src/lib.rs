//! Patmos: a time-predictable dual-issue microprocessor, reproduced in
//! Rust.
//!
//! This facade re-exports the whole toolchain of the reproduction of
//! Schoeberl et al., *Towards a Time-predictable Dual-Issue
//! Microprocessor: The Patmos Approach* (PPES 2011):
//!
//! * [`isa`] — the instruction set: registers, predicates, bundles,
//!   encoding, and the visible-delay contract;
//! * [`asm`] — assembler, disassembler, object images;
//! * [`mem`] — method cache, stack cache, split data caches, scratchpad,
//!   main memory and TDMA arbitration;
//! * [`sim`] — the cycle-accurate dual-issue core and the CMP system;
//! * [`trace`] — structured execution tracing: the [`trace::TraceSink`]
//!   event stream, the cycle-attribution profiler, and Chrome
//!   trace-event export;
//! * [`rf`] — the double-clocked TDM register file and the FPGA timing
//!   model behind the paper's Section 5 feasibility study;
//! * [`baseline`] — the conventional average-case-optimised comparator;
//! * [`wcet`] — static WCET analysis (CFG, cache analyses, IPET with a
//!   built-in simplex solver);
//! * [`compiler`] — the PatC compiler: virtual-register codegen,
//!   if-conversion, single-path transformation, VLIW scheduling;
//! * [`lir`] — the shared virtual-register LIR with CFG construction
//!   and liveness dataflow, consumed by the mid-end and the backend;
//! * [`opt`] — the mid-end optimizer: const-prop, strength reduction,
//!   CSE, copy-prop and DCE over the virtual LIR;
//! * [`regalloc`] — liveness-driven register allocation (linear scan
//!   or loop-aware) between the mid-end and scheduling;
//! * [`sched`] — the VLIW backend scheduler: per-block dependence
//!   DAGs, critical-path list scheduling, delay-slot filling, and
//!   iterative modulo scheduling (software pipelining) of innermost
//!   counted loops;
//! * [`workloads`] — the benchmark kernels used by the experiments.
//!
//! # Quickstart
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use patmos::compiler::{compile, CompileOptions};
//! use patmos::sim::{SimConfig, Simulator};
//!
//! let image = compile(
//!     "int main() { int i; int s = 0;
//!        for (i = 0; i < 10; i = i + 1) bound(10) { s = s + i; }
//!        return s; }",
//!     &CompileOptions::default(),
//! )?;
//! let mut core = Simulator::new(&image, SimConfig::default());
//! core.run()?;
//! assert_eq!(core.reg(patmos::isa::Reg::R1), 45);
//!
//! let report = patmos::wcet::analyze(
//!     &image,
//!     &patmos::wcet::Machine::Patmos(SimConfig::default()),
//! )?;
//! assert!(report.bound_cycles >= core.stats().cycles);
//! # Ok(())
//! # }
//! ```

pub use patmos_asm as asm;
pub use patmos_baseline as baseline;
pub use patmos_compiler as compiler;
pub use patmos_isa as isa;
pub use patmos_lir as lir;
pub use patmos_mem as mem;
pub use patmos_opt as opt;
pub use patmos_regalloc as regalloc;
pub use patmos_rf as rf;
pub use patmos_sched as sched;
pub use patmos_sim as sim;
pub use patmos_trace as trace;
pub use patmos_wcet as wcet;
pub use patmos_workloads as workloads;

// The register-allocation policy, re-exported at the top level: it
// travels from the CLI/compile options into the allocator and the
// mid-end's pressure checks.
pub use patmos_regalloc::Policy;
