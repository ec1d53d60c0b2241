//! Set-up and output checks: the seed-permuted kernel suite compiled
//! once, the pinned guest numbers every kernel must reproduce, and the
//! tally of checks made.

use std::collections::HashMap;

use patmos::asm::ObjectImage;
use patmos::compiler::{compile, CompileOptions};
use patmos::workloads;

/// One kernel of the suite, with the image compiled in set-up and its
/// pinned guest numbers.
pub struct Kernel {
    /// Kernel name.
    pub name: &'static str,
    /// PatC source.
    pub source: String,
    /// `main()`'s expected result (r1).
    pub expected: u32,
    /// Cycles pinned by `opt3_cycles.json` at opt3/sched2.
    pub cycles: Option<u64>,
    /// WCET bound pinned by `wcet_bounds.json`.
    pub bound: Option<u64>,
    /// The image set-up compiled at `CompileOptions::default()`.
    pub image: ObjectImage,
}

/// The kernels in seed-permuted order.
pub struct Suite {
    /// Kernels that compiled in set-up.
    pub kernels: Vec<Kernel>,
}

impl Suite {
    /// Kernel names in suite order.
    pub fn names(&self) -> Vec<&'static str> {
        self.kernels.iter().map(|k| k.name).collect()
    }

    /// Total encoded code size of the set-up images.
    pub fn code_bytes(&self) -> u64 {
        self.kernels
            .iter()
            .map(|k| 4 * k.image.code().len() as u64)
            .sum()
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Builds the suite: every kernel of `patmos_workloads::all()` in an
/// order drawn from `seed`, compiled at the default options, with its
/// pinned cycles and bound. Kernels that fail to compile are left out
/// and returned as failure messages.
pub fn setup(seed: u64) -> (Suite, Vec<String>) {
    let cycles: HashMap<String, u64> = patmos_bench::opt3_baseline()
        .into_iter()
        .map(|b| (b.name, b.opt3_cycles))
        .collect();
    let bounds: HashMap<String, u64> = patmos_bench::wcet_bounds_baseline()
        .into_iter()
        .map(|b| (b.name, b.bound_cycles))
        .collect();
    let mut suite = workloads::all();
    let mut rng = SplitMix(seed);
    for i in (1..suite.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        suite.swap(i, j);
    }
    let options = CompileOptions::default();
    let mut failures = Vec::new();
    let mut kernels = Vec::new();
    for w in suite {
        match compile(&w.source, &options) {
            Ok(image) => kernels.push(Kernel {
                name: w.name,
                cycles: cycles.get(w.name).copied(),
                bound: bounds.get(w.name).copied(),
                source: w.source,
                expected: w.expected,
                image,
            }),
            Err(e) => failures.push(format!("{}: set-up compile failed: {e}", w.name)),
        }
    }
    (Suite { kernels }, failures)
}

/// Checks made and failed. A failed check is reported and counted,
/// never a panic.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

/// Failures reported in full; later ones are only counted.
const REPORTED_FAILURES: u64 = 20;

impl Tally {
    /// Counts one check, reporting it on stderr when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= REPORTED_FAILURES {
                eprintln!("check failed: {}", what());
            }
        }
    }
}
