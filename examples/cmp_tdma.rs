//! Chip-multiprocessor scaling under TDMA memory arbitration: per-core
//! time degrades predictably with the core count, and the analytical
//! worst-case TDMA wait bounds every observed wait (paper, Sections 1
//! and 3).
//!
//! Run with: `cargo run -p patmos --example cmp_tdma`

use patmos::compiler::{compile, CompileOptions};
use patmos::sim::{CmpSystem, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel = patmos::workloads::dotprod();
    let image = compile(&kernel.source, &CompileOptions::default())?;
    let slot_cycles = 64;

    println!(
        "kernel: {} on 1, 2, 4, 8 cores (TDMA slot {slot_cycles} cycles)\n",
        kernel.name
    );
    println!(
        "{:>5} {:>12} {:>14} {:>16}",
        "cores", "worst core", "tdma wait", "wcw per burst"
    );
    for cores in [1u32, 2, 4, 8] {
        let system = CmpSystem::new(SimConfig::default(), cores, slot_cycles)?;
        let results = system.run_all(&image)?;
        let worst = results
            .iter()
            .map(|r| r.result.stats.cycles)
            .max()
            .expect("non-empty");
        let wait = results
            .iter()
            .map(|r| r.result.stats.stalls.tdma_wait)
            .max()
            .expect("non-empty");
        let burst = SimConfig::default().mem.burst_cycles(8);
        println!(
            "{:>5} {:>12} {:>14} {:>16}",
            cores,
            worst,
            wait,
            system.arbiter().worst_case_wait(burst)
        );
        for r in &results {
            assert!(r.result.stats.cycles > 0);
        }
    }
    println!("\nWith a static TDMA schedule, a core's timing never depends on");
    println!("what the other cores do — each core is analysed in isolation.");
    Ok(())
}
