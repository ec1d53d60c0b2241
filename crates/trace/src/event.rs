//! The trace event vocabulary and exact reconciliation totals.

use std::fmt;

use patmos_isa::MemArea;

/// The architectural cause of an attributed stall.
///
/// These mirror the simulator's per-cause stall breakdown one to one;
/// multiply latency and the load-use gap are ISA-visible delays, not
/// stalls, and never appear here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Method-cache fill at a call, return or the cold start.
    MethodCache,
    /// Heap data-cache line fill.
    DataCache,
    /// Static/constant-cache line fill.
    StaticCache,
    /// Stack-cache spill (`sres`) or fill (`sens`) traffic.
    StackCache,
    /// Explicit wait for a split main-memory load (`wres`).
    SplitLoad,
    /// Waiting for the posted-write buffer to drain.
    WriteBuffer,
}

impl StallCause {
    /// All causes, in the breakdown's display order.
    pub const ALL: [StallCause; 6] = [
        StallCause::MethodCache,
        StallCause::DataCache,
        StallCause::StaticCache,
        StallCause::StackCache,
        StallCause::SplitLoad,
        StallCause::WriteBuffer,
    ];

    /// The cause's position in [`StallCause::ALL`] (stable array index
    /// for per-cause accumulators).
    pub fn index(self) -> usize {
        match self {
            StallCause::MethodCache => 0,
            StallCause::DataCache => 1,
            StallCause::StaticCache => 2,
            StallCause::StackCache => 3,
            StallCause::SplitLoad => 4,
            StallCause::WriteBuffer => 5,
        }
    }

    /// A short fixed name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::MethodCache => "method_cache",
            StallCause::DataCache => "data_cache",
            StallCause::StaticCache => "static_cache",
            StallCause::StackCache => "stack_cache",
            StallCause::SplitLoad => "split_load",
            StallCause::WriteBuffer => "write_buffer",
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which cache a [`TraceEvent::CacheAccess`] hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// The method cache.
    Method,
    /// The heap data cache.
    Data,
    /// The static/constant cache.
    Static,
    /// The stack cache (accesses are `sres`/`sens`/`sfree` control ops).
    Stack,
}

/// The architectural state category a [`TraceEvent::FaultInjected`]
/// upset hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A general-purpose register bit.
    Register,
    /// A predicate register.
    Predicate,
    /// A special register (`sl`/`sh`/`sm`).
    Special,
    /// A main-memory word bit.
    Memory,
    /// Cache tag state (lines invalidated).
    CacheTags,
}

/// One structured event of a traced simulation.
///
/// Events are small `Copy` values carrying word addresses and cycle
/// numbers only — no strings — so recording them is cheap and the
/// stream reconciles exactly with the simulator's counters
/// ([`EventTotals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// One bundle issued (retired) at `pc`.
    Retire {
        /// Word address of the bundle.
        pc: u32,
        /// Cycle *after* the bundle finished issuing.
        cycle: u64,
        /// Issue cycles this bundle consumed (1 dual-issue, else the
        /// slot count).
        issue_cycles: u64,
        /// Guard-true non-`nop` operations executed.
        executed: u8,
        /// Operations annulled by a false guard.
        annulled: u8,
        /// Encoded `nop` operations.
        nops: u8,
        /// The second slot executed a real operation.
        second_slot_used: bool,
        /// Every slot was an encoded `nop` (scheduler filler).
        nop_bundle: bool,
        /// Executed data accesses to the stack cache.
        stack_ops: u8,
        /// A control transfer was taken from this bundle.
        taken_branch: bool,
        /// Control transfers annulled by a false guard.
        untaken_branches: u8,
    },
    /// An attributed stall of `cycles` cycles ending at `cycle`.
    ///
    /// `pc` is the bundle that paid the stall; method-cache fills at a
    /// call/return attribute to the *entered* function's first word.
    Stall {
        /// Word address the stall is attributed to.
        pc: u32,
        /// Cycle at which the stall ended.
        cycle: u64,
        /// Stall cycles.
        cycles: u64,
        /// The architectural cause.
        cause: StallCause,
    },
    /// Pure TDMA arbitration delay (a share of an enclosing stall, not
    /// additional cycles).
    TdmaWait {
        /// Word address the enclosing transfer is attributed to.
        pc: u32,
        /// Cycle at which the slot was granted.
        cycle: u64,
        /// Cycles spent waiting for the slot.
        cycles: u64,
    },
    /// One cache lookup.
    CacheAccess {
        /// Word address the access is attributed to.
        pc: u32,
        /// Cycle of the lookup.
        cycle: u64,
        /// The cache.
        cache: CacheKind,
        /// Served without main-memory traffic.
        hit: bool,
        /// Words moved between the cache and main memory.
        transfer_words: u32,
    },
    /// One executed data access: a typed load or store, or a split
    /// main-memory `ldm`/`stm` (area [`MemArea::Main`]).
    DataAccess {
        /// Word address of the bundle.
        pc: u32,
        /// Cycle once the access was served (after any stall it caused).
        cycle: u64,
        /// Effective byte address: stack accesses include the stack top,
        /// scratchpad accesses are offsets into the scratchpad.
        addr: u32,
        /// The memory area.
        area: MemArea,
        /// A store (else a load).
        store: bool,
    },
    /// A branch redirected control to `pc` within a function.
    Branch {
        /// The branch target (word).
        pc: u32,
        /// Cycle of the redirect (delay slots already retired).
        cycle: u64,
    },
    /// A call redirected control to the function starting at `pc`.
    Call {
        /// First word of the callee.
        pc: u32,
        /// Cycle of the redirect (delay slots already retired).
        cycle: u64,
    },
    /// A return redirected control to `pc`.
    Return {
        /// The return address (word).
        pc: u32,
        /// Cycle of the redirect.
        cycle: u64,
    },
    /// A fault-injection upset fired (see `patmos_sim::faults`).
    FaultInjected {
        /// Word address of the next bundle at the time of the upset.
        pc: u32,
        /// Cycle of the upset.
        cycle: u64,
        /// The state category hit.
        kind: FaultKind,
    },
}

impl TraceEvent {
    /// The word address the event is attributed to.
    pub fn pc(&self) -> u32 {
        match *self {
            TraceEvent::Retire { pc, .. }
            | TraceEvent::Stall { pc, .. }
            | TraceEvent::TdmaWait { pc, .. }
            | TraceEvent::CacheAccess { pc, .. }
            | TraceEvent::DataAccess { pc, .. }
            | TraceEvent::Branch { pc, .. }
            | TraceEvent::Call { pc, .. }
            | TraceEvent::Return { pc, .. }
            | TraceEvent::FaultInjected { pc, .. } => pc,
        }
    }

    /// The cycle stamp of the event.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Retire { cycle, .. }
            | TraceEvent::Stall { cycle, .. }
            | TraceEvent::TdmaWait { cycle, .. }
            | TraceEvent::CacheAccess { cycle, .. }
            | TraceEvent::DataAccess { cycle, .. }
            | TraceEvent::Branch { cycle, .. }
            | TraceEvent::Call { cycle, .. }
            | TraceEvent::Return { cycle, .. }
            | TraceEvent::FaultInjected { cycle, .. } => cycle,
        }
    }
}

/// Event sums that reproduce every simulator counter exactly.
///
/// `cycles` is `issue_cycles` plus the attributed stalls — the "no
/// hidden state" invariant: every cycle of a run is either an issue
/// cycle of some retired bundle or a stall with a named architectural
/// cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror `patmos_sim::Stats` one to one
pub struct EventTotals {
    pub cycles: u64,
    pub issue_cycles: u64,
    pub bundles: u64,
    pub insts_executed: u64,
    pub insts_annulled: u64,
    pub nops: u64,
    pub second_slots_used: u64,
    pub nop_bundles: u64,
    pub taken_branches: u64,
    pub untaken_branches: u64,
    pub calls: u64,
    pub returns: u64,
    pub stack_ops: u64,
    pub stall_method_cache: u64,
    pub stall_data_cache: u64,
    pub stall_static_cache: u64,
    pub stall_stack_cache: u64,
    pub stall_split_load: u64,
    pub stall_write_buffer: u64,
    pub tdma_wait: u64,
    pub method_accesses: u64,
    pub method_hits: u64,
    pub method_misses: u64,
    pub method_transferred_words: u64,
    pub data_accesses: u64,
    pub data_hits: u64,
    pub data_misses: u64,
    pub data_transferred_words: u64,
    pub static_accesses: u64,
    pub static_hits: u64,
    pub static_misses: u64,
    pub static_transferred_words: u64,
    pub stack_accesses: u64,
    pub stack_hits: u64,
    pub stack_misses: u64,
    pub stack_transferred_words: u64,
    pub faults_injected: u64,
}

impl EventTotals {
    /// Sums an event stream.
    pub fn from_events(events: &[TraceEvent]) -> EventTotals {
        let mut t = EventTotals::default();
        for e in events {
            t.add(e);
        }
        t
    }

    /// Adds one event.
    pub fn add(&mut self, e: &TraceEvent) {
        match *e {
            TraceEvent::Retire {
                issue_cycles,
                executed,
                annulled,
                nops,
                second_slot_used,
                nop_bundle,
                stack_ops,
                taken_branch,
                untaken_branches,
                ..
            } => {
                self.cycles += issue_cycles;
                self.issue_cycles += issue_cycles;
                self.bundles += 1;
                self.insts_executed += executed as u64;
                self.insts_annulled += annulled as u64;
                self.nops += nops as u64;
                self.second_slots_used += second_slot_used as u64;
                self.nop_bundles += nop_bundle as u64;
                self.stack_ops += stack_ops as u64;
                self.taken_branches += taken_branch as u64;
                self.untaken_branches += untaken_branches as u64;
            }
            TraceEvent::Stall { cycles, cause, .. } => {
                self.cycles += cycles;
                match cause {
                    StallCause::MethodCache => self.stall_method_cache += cycles,
                    StallCause::DataCache => self.stall_data_cache += cycles,
                    StallCause::StaticCache => self.stall_static_cache += cycles,
                    StallCause::StackCache => self.stall_stack_cache += cycles,
                    StallCause::SplitLoad => self.stall_split_load += cycles,
                    StallCause::WriteBuffer => self.stall_write_buffer += cycles,
                }
            }
            TraceEvent::TdmaWait { cycles, .. } => self.tdma_wait += cycles,
            TraceEvent::CacheAccess {
                cache,
                hit,
                transfer_words,
                ..
            } => {
                let (a, h, m, w) = match cache {
                    CacheKind::Method => (
                        &mut self.method_accesses,
                        &mut self.method_hits,
                        &mut self.method_misses,
                        &mut self.method_transferred_words,
                    ),
                    CacheKind::Data => (
                        &mut self.data_accesses,
                        &mut self.data_hits,
                        &mut self.data_misses,
                        &mut self.data_transferred_words,
                    ),
                    CacheKind::Static => (
                        &mut self.static_accesses,
                        &mut self.static_hits,
                        &mut self.static_misses,
                        &mut self.static_transferred_words,
                    ),
                    CacheKind::Stack => (
                        &mut self.stack_accesses,
                        &mut self.stack_hits,
                        &mut self.stack_misses,
                        &mut self.stack_transferred_words,
                    ),
                };
                *a += 1;
                if hit {
                    *h += 1;
                } else {
                    *m += 1;
                }
                *w += transfer_words as u64;
            }
            // Each access's cache lookup is its own `CacheAccess`, and
            // each taken branch is counted by its bundle's `Retire`.
            TraceEvent::DataAccess { .. } | TraceEvent::Branch { .. } => {}
            TraceEvent::Call { .. } => self.calls += 1,
            TraceEvent::Return { .. } => self.returns += 1,
            TraceEvent::FaultInjected { .. } => self.faults_injected += 1,
        }
    }

    /// Total attributed stall cycles (the TDMA wait is a share of these,
    /// not additional).
    pub fn stall_total(&self) -> u64 {
        self.stall_method_cache
            + self.stall_data_cache
            + self.stall_static_cache
            + self.stall_stack_cache
            + self.stall_split_load
            + self.stall_write_buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_reconcile_a_tiny_stream() {
        let events = [
            TraceEvent::Retire {
                pc: 0,
                cycle: 1,
                issue_cycles: 1,
                executed: 2,
                annulled: 1,
                nops: 0,
                second_slot_used: true,
                nop_bundle: false,
                stack_ops: 1,
                taken_branch: true,
                untaken_branches: 0,
            },
            TraceEvent::Stall {
                pc: 0,
                cycle: 9,
                cycles: 8,
                cause: StallCause::DataCache,
            },
            TraceEvent::TdmaWait {
                pc: 0,
                cycle: 5,
                cycles: 3,
            },
            TraceEvent::CacheAccess {
                pc: 0,
                cycle: 1,
                cache: CacheKind::Data,
                hit: false,
                transfer_words: 8,
            },
            TraceEvent::Call { pc: 4, cycle: 3 },
            TraceEvent::Branch { pc: 6, cycle: 5 },
            TraceEvent::Return { pc: 2, cycle: 7 },
        ];
        let t = EventTotals::from_events(&events);
        assert_eq!(t.cycles, 9);
        assert_eq!(t.issue_cycles, 1);
        assert_eq!(t.stall_total(), 8);
        assert_eq!(t.stall_data_cache, 8);
        assert_eq!(t.tdma_wait, 3);
        assert_eq!(t.second_slots_used, 1);
        assert_eq!(t.taken_branches, 1);
        assert_eq!(t.calls, 1);
        assert_eq!(t.returns, 1);
        assert_eq!(t.data_misses, 1);
        assert_eq!(t.data_transferred_words, 8);
        assert_eq!(t.stack_ops, 1);
    }
}
