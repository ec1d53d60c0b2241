//! Swappable allocation policies behind one trait.
//!
//! [`crate::regalloc`] drives whichever [`AllocPolicy`] the
//! [`Constraints`] select, one function at a time. Both shipped
//! policies share the interval machinery in [`crate::allocator`]; they
//! differ in how registers are picked and where spill traffic is
//! placed:
//!
//! * [`LinearScan`] — the historical allocator: lowest-numbered free
//!   register, furthest-ending spill victim, saves and reloads placed
//!   exactly where the value crosses a call or a use. Its output is
//!   bit-identical to the pre-policy allocator at every optimisation
//!   and scheduling level.
//! * [`LoopAware`] — consults the [`patmos_lir`] loop forest:
//!   intervals that start inside a loop draw registers round-robin
//!   from a FIFO free list (so successive iteration-local temporaries
//!   get *distinct* registers and the modulo scheduler finds no false
//!   anti-dependences left to rename), spill victims prefer values the
//!   loops never touch, caller-saves of loop-invariant values are
//!   hoisted to the preheader, and spilled loop-invariant values are
//!   reloaded once per loop into a free register instead of once per
//!   use through scratch.

use crate::allocator::{run_func, AllocError, FuncAlloc};
use crate::constraints::Constraints;
use crate::lir::Item;
use patmos_lir::cfg::FuncCode;
use patmos_lir::vlir::VItem;

/// One register-allocation strategy, applied function by function.
///
/// Implementations append the rewritten physical items for `func` to
/// `out` and report what they did. `items` is the whole module's item
/// list (functions index into it), `entry` the module entry point
/// (whose frame skips the link save).
pub trait AllocPolicy: std::fmt::Debug + Sync {
    /// Stable lowercase policy name, printed in reports.
    fn name(&self) -> &'static str;

    /// Allocates one function.
    ///
    /// # Errors
    ///
    /// Returns an [`AllocError`] when the frame exceeds the stack-cache
    /// offset range or a call/return carries a guard.
    fn allocate_func(
        &self,
        cx: &Constraints,
        func: &FuncCode<'_>,
        items: &[VItem],
        entry: &str,
        out: &mut Vec<Item>,
    ) -> Result<FuncAlloc, AllocError>;
}

/// The historical deterministic linear scan (bit-identical output to
/// the pre-policy allocator).
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearScan;

impl AllocPolicy for LinearScan {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn allocate_func(
        &self,
        cx: &Constraints,
        func: &FuncCode<'_>,
        items: &[VItem],
        entry: &str,
        out: &mut Vec<Item>,
    ) -> Result<FuncAlloc, AllocError> {
        run_func(cx, false, func, items, entry, out)
    }
}

/// Loop-aware allocation: round-robin assignment inside loops,
/// loop-quiet spill victims, preheader-hoisted saves and reloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopAware;

impl AllocPolicy for LoopAware {
    fn name(&self) -> &'static str {
        "loop"
    }

    fn allocate_func(
        &self,
        cx: &Constraints,
        func: &FuncCode<'_>,
        items: &[VItem],
        entry: &str,
        out: &mut Vec<Item>,
    ) -> Result<FuncAlloc, AllocError> {
        run_func(cx, true, func, items, entry, out)
    }
}
