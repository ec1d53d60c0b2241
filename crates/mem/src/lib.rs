//! Memory hierarchy of the Patmos time-predictable processor.
//!
//! Patmos replaces the conventional unified cache hierarchy with caches
//! that are *specifically designed to support WCET analysis* (paper,
//! Section 3.3):
//!
//! * [`MethodCache`] — instructions are cached whole functions at a time;
//!   misses can only occur at call and return;
//! * [`StackCache`] — stack-allocated data, managed explicitly with
//!   `sres`/`sens`/`sfree`;
//! * [`SetAssocCache`] — constants and static data (moderately
//!   associative) and heap data (highly associative) get separate
//!   instances, so accesses to different areas never interfere;
//! * [`Scratchpad`] — compiler-managed on-chip memory with fixed latency;
//! * [`MainMemory`] — the shared backing store with a burst latency model;
//! * [`TdmaArbiter`] — time-division multiple access arbitration of main
//!   memory for the chip-multiprocessor configuration.
//!
//! Caches in this crate are *timing models*: architectural data always
//! lives in [`MainMemory`] (or in the [`Scratchpad`], which is a separate
//! address space), while the cache models decide how many cycles an access
//! costs and keep hit/miss statistics. This keeps multi-core data flow
//! trivially coherent while modelling time exactly — the property the
//! paper cares about.
//!
//! # Example
//!
//! ```
//! use patmos_mem::{MainMemory, MemConfig, SetAssocCache, ReplacementPolicy};
//!
//! let mut mem = MainMemory::new(MemConfig::default());
//! mem.write_word(0x100, 42);
//! assert_eq!(mem.read_word(0x100), 42);
//!
//! let mut dcache = SetAssocCache::new(4, 2, 8, ReplacementPolicy::Lru);
//! let first = dcache.access(0x100, false);
//! assert!(!first.hit);
//! let second = dcache.access(0x104, false);
//! assert!(second.hit, "same line");
//! ```

pub mod main_memory;
pub mod method_cache;
pub mod scratchpad;
pub mod set_assoc;
pub mod stack_cache;
pub mod stats;
pub mod tdma;

pub use main_memory::{MainMemory, MemConfig};
pub use method_cache::{MethodCache, MethodCacheAccess, MethodCacheConfig};
pub use scratchpad::Scratchpad;
pub use set_assoc::{AccessResult, ReplacementPolicy, SetAssocCache};
pub use stack_cache::{StackCache, StackEffect, StackOp};
pub use stats::CacheStats;
pub use tdma::TdmaArbiter;

/// Default top of the shadow stack (grows downwards); holds address-taken
/// locals that cannot live in the stack cache.
pub const SHADOW_STACK_TOP: u32 = 0x0800_0000;
/// Default initial stack-cache top-of-stack address (grows downwards).
pub const STACK_TOP: u32 = 0x0700_0000;
