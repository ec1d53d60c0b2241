//! Structured execution tracing and cycle attribution for Patmos.
//!
//! The simulator (`patmos-sim`) is cycle-exact under the paper's
//! visible-delay model: every cycle is either an *issue* cycle of some
//! bundle or a *stall* cycle attributed to an architecturally defined
//! memory event. This crate turns that accounting into a structured
//! event stream ([`TraceEvent`]) that downstream tools fold into
//! reports:
//!
//! * [`TraceSink`] — the hook the simulator drives. The monomorphized
//!   [`NullSink`] has `ENABLED = false`, so every event construction in
//!   the simulator sits behind an `if S::ENABLED` that the compiler
//!   removes: an untraced run pays nothing and is cycle-bit-identical
//!   to a traced one by construction.
//! * [`VecSink`] — records the full stream for offline analysis.
//! * [`EventTotals`] — exact reconciliation: summing a run's events
//!   reproduces every counter of the simulator's `Stats` (tested
//!   against the whole kernel suite in `patmos-bench`); [`cycles_by_pc`]
//!   folds the same cycles onto word addresses.
//! * [`Profile`] — the cycle-attribution profiler: folds issue and
//!   stall cycles onto functions and source-mapped loops of an
//!   [`ObjectImage`](patmos_asm::ObjectImage).
//! * [`chrome`] — Chrome `trace-event` JSON with one track per CMP
//!   core and instant markers at TDMA slot boundaries (open in
//!   `chrome://tracing` or Perfetto).
//!
//! # Event taxonomy
//!
//! | event | meaning |
//! |---|---|
//! | [`TraceEvent::Retire`] | one bundle issued: pc, issue cycles, per-slot outcome (executed / annulled / nop), second-slot use, branch outcome, stack-cache data ops |
//! | [`TraceEvent::Stall`] | an attributed stall: method-cache fill, data/static-cache line fill, stack-cache spill/fill, split-load wait, write-buffer drain |
//! | [`TraceEvent::TdmaWait`] | the share of a stall that was pure TDMA arbitration delay (CMP configurations) |
//! | [`TraceEvent::CacheAccess`] | one cache lookup (method, data, static or stack), hit/miss and words moved |
//! | [`TraceEvent::DataAccess`] | one executed load or store: effective address, memory area (`ldm`/`stm` as `main`), load or store |
//! | [`TraceEvent::Branch`] | a branch's redirect within a function, after its delay slots retire: the target |
//! | [`TraceEvent::Call`] / [`TraceEvent::Return`] | control transfers between functions, after their delay slots retire |
//! | [`TraceEvent::FaultInjected`] | a fault-injection upset fired (`patmos-sim`'s `faults` module): the state category hit, at its cycle |
//!
//! Multiply latency and the load-use gap are *not* stalls on Patmos:
//! they are ISA-visible delays the compiler must fill (the strict-mode
//! simulator errors out otherwise). Cycles spent in scheduler filler
//! show up as [`TraceEvent::Retire`] events with `nop_bundle = true`.
//!
//! # Example
//!
//! ```
//! use patmos_trace::{EventTotals, StallCause, TraceEvent, TraceSink, VecSink};
//! let mut sink = VecSink::new();
//! sink.event(TraceEvent::Stall {
//!     pc: 0,
//!     cycle: 8,
//!     cycles: 8,
//!     cause: StallCause::MethodCache,
//! });
//! let totals = EventTotals::from_events(&sink.events);
//! assert_eq!(totals.stall_method_cache, 8);
//! assert_eq!(totals.cycles, 8);
//! ```

pub mod chrome;
mod event;
mod profile;
mod sink;

pub use event::{cycles_by_pc, CacheKind, EventTotals, FaultKind, StallCause, TraceEvent};
pub use profile::{FuncProfile, LoopProfile, Profile};
pub use sink::{NullSink, TraceSink, VecSink};
