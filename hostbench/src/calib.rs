//! Contention correction for a shared host.
//!
//! On the reference host (2 vCPUs of a 2.0 GHz Xeon, shared with other
//! tenants) their load slows a timed pass by up to 1.7x, switching
//! within a second and sometimes for a whole run, so raw median pass
//! times moved by 13-29% from run to run. The benchmark runs a fixed
//! loop of its own just before each timed pass and divides the pass's
//! wall time by the loop's. Both see the same host state, and the
//! loop's code never changes with the toolchain, so only the toolchain
//! moves the ratio: over ten seeds per workload the calibrated median
//! spread by 2-8%. Ratios are scaled back to milliseconds by [`REF_MS`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::suite::SplitMix;

/// The calibration loop's uncontended wall time on the reference host
/// (release build), in milliseconds. Calibrated times read as wall
/// times on that host.
pub const REF_MS: f64 = 3.6;

/// Runs the calibration loop and returns its wall time in
/// milliseconds. It has two halves of about equal time, because
/// contention slows compute and memory traffic by different factors
/// and the workloads mix both: sorting, tree indexing and branchy
/// lookups over a fixed 32 KiB array (like the compiler), then
/// allocating, touching and freeing 1.5 MiB in 64 KiB chunks twice
/// (like the simulator's set-up and teardown).
pub fn loop_ms() -> f64 {
    let began = Instant::now();
    let mut rng = SplitMix(0x00C0_FFEE);
    let mut v: Vec<u32> = (0..8192).map(|_| rng.next_u64() as u32).collect();
    v.sort_unstable();
    let index: BTreeMap<u32, usize> = v.iter().copied().zip(0..).step_by(4).collect();
    let mut acc = 0u64;
    for _ in 0..4 {
        for &x in &v {
            match index.get(&(x ^ 1)) {
                Some(&i) => acc += i as u64,
                None if x & 3 == 0 => acc = acc.rotate_left(3) ^ x as u64,
                None => {}
            }
        }
    }
    // 64 KiB chunks, like the simulator's memory pages: small enough
    // to come from the heap, so the loop leaves the allocator's mmap
    // threshold as the toolchain left it.
    const CHUNK: usize = 1 << 16;
    for _ in 0..2 {
        let chunks: Vec<Vec<u8>> = (0..24)
            .map(|c| {
                let mut chunk = vec![0u8; CHUNK];
                for i in (0..CHUNK).step_by(64) {
                    chunk[i] = (i ^ c) as u8;
                }
                chunk
            })
            .collect();
        for _ in 0..20_000 {
            let r = rng.next_u64() as usize;
            acc += chunks[r % 24][(r >> 8) & (CHUNK - 1)] as u64;
        }
        black_box(&chunks);
    }
    black_box(acc);
    began.elapsed().as_secs_f64() * 1e3
}

/// `wall_ms` in reference-host milliseconds, given the calibration
/// loop's time `loop_ms` measured just before it.
pub fn calibrated(wall_ms: f64, loop_ms: f64) -> f64 {
    wall_ms / loop_ms * REF_MS
}
