//! Chip-multiprocessor configuration: N cores sharing main memory under
//! TDMA arbitration.
//!
//! "For multi-threaded code we plan to build a chip-multiprocessor system
//! with statically scheduled access to shared main memory" (paper,
//! Section 3). The decisive property of the static TDMA schedule is
//! *composability*: the cycles at which a core may use the memory are a
//! pure function of the core index and the global schedule, never of the
//! other cores' behaviour. Each core can therefore be simulated — and
//! analysed — in isolation with its TDMA-adjusted memory costs, which is
//! exactly what this module does, and exactly why per-core WCET analysis
//! stays tractable (experiment E8). The same composability makes the
//! host-side simulation embarrassingly parallel: cores run on a pool of
//! at most `available_parallelism` `std::thread` workers with
//! bit-identical per-core results.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

use patmos_asm::ObjectImage;
use patmos_mem::TdmaArbiter;
use patmos_trace::VecSink;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::machine::{RunResult, Simulator};

/// Result of one core's run within a CMP configuration.
#[derive(Debug, Clone, Copy)]
pub struct CmpResult {
    /// The core index.
    pub core: u32,
    /// That core's run result.
    pub result: RunResult,
}

/// A Patmos chip-multiprocessor: `cores` identical pipelines, private
/// caches and scratchpads, shared main memory behind a TDMA arbiter.
#[derive(Debug, Clone)]
pub struct CmpSystem {
    base_config: SimConfig,
    arbiter: TdmaArbiter,
}

impl CmpSystem {
    /// A CMP with `cores` cores and `slot_cycles`-cycle TDMA slots.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TdmaSlotTooShort`] if a cache line fill does
    /// not fit in one slot; configure longer slots.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `slot_cycles` is zero.
    pub fn new(
        base_config: SimConfig,
        cores: u32,
        slot_cycles: u32,
    ) -> Result<CmpSystem, SimError> {
        let system = CmpSystem {
            base_config,
            arbiter: TdmaArbiter::new(cores, slot_cycles),
        };
        system.core_config(0).check_tdma()?;
        Ok(system)
    }

    /// The arbiter (e.g. for computing analytical worst-case waits).
    pub fn arbiter(&self) -> TdmaArbiter {
        self.arbiter
    }

    /// The per-core configuration for `core`.
    pub fn core_config(&self, core: u32) -> SimConfig {
        let mut cfg = self.base_config.clone();
        cfg.tdma = Some((self.arbiter, core));
        cfg
    }

    /// Runs `f` for every core and collects the outcomes in core order.
    ///
    /// The cores run on at most `min(cores, available_parallelism)`
    /// scoped `std::thread` workers, each taking the next core index
    /// from a shared counter, so a system of many cores never asks the
    /// host for a thread per core. This is sound *because* of the TDMA
    /// schedule: the arbiter is a pure function of `(core, cycle)` with
    /// no shared mutable state, so each core's timing is independent of
    /// when — or on which host thread — the other cores are simulated.
    /// The merge is deterministic: results are joined in core index
    /// order, so the first failing core's error is returned exactly as
    /// it would be by a sequential loop. A core whose run *panics* (a
    /// host-side bug, never a guest error) is contained the same way:
    /// every other core still runs to completion, and the lowest
    /// panicked core surfaces as [`SimError::CoreWorkerPanicked`] in
    /// core order.
    fn run_cores<T, F>(&self, f: F) -> Result<Vec<T>, SimError>
    where
        T: Send,
        F: Fn(u32) -> Result<T, SimError> + Sync,
    {
        let cores = self.arbiter.cores();
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(cores as usize);
        let next = AtomicUsize::new(0);
        let run_core = |core: u32| {
            std::panic::catch_unwind(AssertUnwindSafe(|| f(core)))
                .unwrap_or(Err(SimError::CoreWorkerPanicked { core }))
        };
        let mut outcomes: Vec<Option<Result<T, SimError>>> = (0..cores).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            // Relaxed: the counter only hands out core
                            // indices; outcomes come back through `join`.
                            let core = next.fetch_add(1, Ordering::Relaxed);
                            if core >= cores as usize {
                                return done;
                            }
                            done.push((core, run_core(core as u32)));
                        }
                    })
                })
                .collect();
            for handle in handles {
                let done = handle.join().expect("core panics are caught per core");
                for (core, outcome) in done {
                    outcomes[core] = Some(outcome);
                }
            }
        });
        (outcomes.into_iter())
            .map(|outcome| outcome.expect("every core ran"))
            .collect()
    }

    /// Runs the same image on every core and collects per-core results.
    ///
    /// Thanks to the static TDMA schedule the cores are timing-composable
    /// and are executed on parallel host threads without losing cycle
    /// accuracy.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index failing core's [`SimError`], if any.
    pub fn run_all(&self, image: &ObjectImage) -> Result<Vec<CmpResult>, SimError> {
        self.run_cores(|core| {
            let mut sim = Simulator::new(image, self.core_config(core));
            Ok(CmpResult {
                core,
                result: sim.run()?,
            })
        })
    }

    /// Runs the same image on every core, recording each core's full
    /// event stream alongside its result. Cores run on parallel host
    /// threads; each stream is private to its core, so the merged output
    /// is identical to a sequential run.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index failing core's [`SimError`], if any.
    pub fn run_all_traced(
        &self,
        image: &ObjectImage,
    ) -> Result<Vec<(CmpResult, VecSink)>, SimError> {
        self.run_cores(|core| {
            let mut sim = Simulator::new(image, self.core_config(core));
            let mut sink = VecSink::new();
            let result = sim.run_traced(&mut sink)?;
            Ok((CmpResult { core, result }, sink))
        })
    }

    /// Runs a different image on each core, in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `images.len()` differs from the core count.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index failing core's [`SimError`], if any.
    pub fn run_each(&self, images: &[&ObjectImage]) -> Result<Vec<CmpResult>, SimError> {
        assert_eq!(
            images.len() as u32,
            self.arbiter.cores(),
            "one image per core"
        );
        self.run_cores(|core| {
            let mut sim = Simulator::new(images[core as usize], self.core_config(core));
            Ok(CmpResult {
                core,
                result: sim.run()?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_asm::assemble;

    fn memory_heavy_image() -> ObjectImage {
        // A loop of uncached split loads: every iteration pays the TDMA
        // round trip.
        assemble(
            "        .func main\n        lil r2 = 0x20000\n        li r3 = 8\nloop:\n        .loopbound 8 8\n        ldm [r2 + 0]\n        wres r1\n        subi r3 = r3, 1\n        cmpineq p1 = r3, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n",
        )
        .expect("assembles")
    }

    #[test]
    fn single_core_cmp_matches_alone_when_slot_aligned() {
        let image = memory_heavy_image();
        let cmp = CmpSystem::new(SimConfig::default(), 1, 64).expect("slots fit");
        let results = cmp.run_all(&image).expect("runs");
        assert_eq!(results.len(), 1);
        assert!(results[0].result.stats.cycles > 0);
    }

    #[test]
    fn more_cores_never_speed_up_a_memory_bound_core() {
        let image = memory_heavy_image();
        let mut last = 0u64;
        for cores in [1u32, 2, 4] {
            let cmp = CmpSystem::new(SimConfig::default(), cores, 64).expect("slots fit");
            let results = cmp.run_all(&image).expect("runs");
            let worst = results
                .iter()
                .map(|r| r.result.stats.cycles)
                .max()
                .expect("non-empty");
            assert!(
                worst >= last,
                "per-core time must not improve with more cores: {worst} < {last}"
            );
            last = worst;
        }
    }

    #[test]
    fn tdma_wait_is_attributed() {
        let image = memory_heavy_image();
        let cmp = CmpSystem::new(SimConfig::default(), 4, 64).expect("slots fit");
        let results = cmp.run_all(&image).expect("runs");
        assert!(results.iter().any(|r| r.result.stats.stalls.tdma_wait > 0));
    }

    #[test]
    fn undersized_slots_rejected() {
        assert_eq!(
            CmpSystem::new(SimConfig::default(), 2, 2).unwrap_err(),
            SimError::TdmaSlotTooShort {
                burst_cycles: 22,
                slot_cycles: 2
            }
        );
    }

    #[test]
    fn poisoned_core_errors_cleanly_and_other_cores_survive() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let cmp = CmpSystem::new(SimConfig::default(), 4, 64).expect("slots fit");
        let completed = AtomicU32::new(0);
        // Core 2's worker dies on the host; the panic must surface as a
        // clean error, not a process abort, and every other worker must
        // still run to completion.
        let result = cmp.run_cores(|core| {
            if core == 2 {
                panic!("deliberately poisoned worker");
            }
            completed.fetch_add(1, Ordering::SeqCst);
            Ok(core)
        });
        assert_eq!(result, Err(SimError::CoreWorkerPanicked { core: 2 }));
        assert_eq!(completed.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn cores_share_a_bounded_pool_of_host_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let cmp = CmpSystem::new(SimConfig::default(), 16, 64).expect("slots fit");
        let threads = Mutex::new(Vec::new());
        let result = cmp.run_cores(|core| {
            threads
                .lock()
                .expect("no core panics")
                .push(std::thread::current().id());
            Ok(core)
        });
        assert_eq!(
            result,
            Ok((0..16).collect::<Vec<u32>>()),
            "merged in core order"
        );
        let threads = threads.into_inner().expect("no core panics");
        assert_eq!(threads.len(), 16, "every core ran exactly once");
        let distinct: HashSet<_> = threads.into_iter().collect();
        let bound = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(16);
        assert!(
            distinct.len() <= bound,
            "{} host threads ran 16 cores; the bound is {bound}",
            distinct.len()
        );
    }

    #[test]
    fn guest_error_on_lower_core_wins_over_higher_panic() {
        let cmp = CmpSystem::new(SimConfig::default(), 4, 64).expect("slots fit");
        let result: Result<Vec<u32>, SimError> = cmp.run_cores(|core| match core {
            1 => Err(SimError::BadPc { pc: 0xbad }),
            3 => panic!("deliberately poisoned worker"),
            _ => Ok(core),
        });
        // Merge order is core order: core 1's guest error precedes core
        // 3's host panic.
        assert_eq!(result, Err(SimError::BadPc { pc: 0xbad }));
    }

    #[test]
    fn parallel_cores_match_sequential_per_core_runs() {
        let image = memory_heavy_image();
        let cmp = CmpSystem::new(SimConfig::default(), 4, 64).expect("slots fit");
        let parallel = cmp.run_all(&image).expect("runs");
        assert_eq!(parallel.len(), 4);
        for r in &parallel {
            // The reference: this core simulated alone, sequentially,
            // stepping every bundle.
            let mut alone = Simulator::new(
                &image,
                SimConfig {
                    fast_path: false,
                    ..cmp.core_config(r.core)
                },
            );
            let seq = alone.run().expect("runs");
            assert_eq!(r.result.stats, seq.stats, "core {}", r.core);
            assert_eq!(r.result.halt_pc, seq.halt_pc, "core {}", r.core);
        }
    }

    #[test]
    fn parallel_traced_streams_match_sequential_streams() {
        let image = memory_heavy_image();
        let cmp = CmpSystem::new(SimConfig::default(), 4, 64).expect("slots fit");
        let traced = cmp.run_all_traced(&image).expect("runs");
        let plain = cmp.run_all(&image).expect("runs");
        for ((r, sink), p) in traced.iter().zip(&plain) {
            assert_eq!(r.result.stats, p.result.stats, "core {}", r.core);
            let mut alone = Simulator::new(&image, cmp.core_config(r.core));
            let mut alone_sink = VecSink::new();
            let alone_result = alone.run_traced(&mut alone_sink).expect("runs");
            assert_eq!(r.result.stats, alone_result.stats, "core {}", r.core);
            assert_eq!(sink.events, alone_sink.events, "core {}", r.core);
        }
    }
}
