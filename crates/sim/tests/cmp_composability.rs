//! The composability property of the TDMA CMP: a core's timing depends
//! only on its own program and its slot position — never on what the
//! other cores execute. This is the architectural property that makes
//! per-core WCET analysis possible (paper, Sections 1 and 3).

use patmos_asm::assemble;
use patmos_sim::{CmpSystem, SimConfig, Simulator};
use patmos_workloads::micro;

fn memory_bound_image() -> patmos_asm::ObjectImage {
    assemble(&micro::split_load_chain(16, 0)).expect("assembles")
}

fn compute_bound_image() -> patmos_asm::ObjectImage {
    assemble(
        "        .func main\n        .entry main\n        li r2 = 100\nl:\n        .loopbound 100 100\n        subi r2 = r2, 1\n        cmpineq p1 = r2, 0\n        (p1) br l\n        nop\n        nop\n        halt\n",
    )
    .expect("assembles")
}

#[test]
fn a_cores_time_is_independent_of_its_neighbours() {
    let mem_img = memory_bound_image();
    let cpu_img = compute_bound_image();
    let system = CmpSystem::new(SimConfig::default(), 4, 64).expect("slots fit");

    // Same image on all cores...
    let homogeneous = system.run_all(&mem_img).expect("runs");
    // ...and a mixed assignment with core 0 unchanged.
    let mixed = system
        .run_each(&[&mem_img, &cpu_img, &cpu_img, &cpu_img])
        .expect("runs");

    assert_eq!(
        homogeneous[0].result.stats.cycles, mixed[0].result.stats.cycles,
        "core 0's cycle count must not depend on what cores 1-3 run"
    );
}

#[test]
fn slot_position_fully_determines_core_timing() {
    let img = memory_bound_image();
    let system = CmpSystem::new(SimConfig::default(), 3, 64).expect("slots fit");
    let a = system.run_all(&img).expect("runs");
    let b = system.run_all(&img).expect("runs");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.result.stats.cycles, y.result.stats.cycles,
            "determinism per core"
        );
    }
}

#[test]
fn single_core_with_tdma_slot_is_never_faster_than_dedicated_port() {
    let img = memory_bound_image();
    let mut alone = Simulator::new(&img, SimConfig::default());
    let dedicated = alone.run().expect("runs").stats.cycles;
    for cores in [1u32, 2, 4] {
        let system = CmpSystem::new(SimConfig::default(), cores, 64).expect("slots fit");
        let results = system.run_all(&img).expect("runs");
        for r in results {
            assert!(
                r.result.stats.cycles >= dedicated,
                "TDMA core {} beat the dedicated port: {} < {}",
                r.core,
                r.result.stats.cycles,
                dedicated
            );
        }
    }
}

#[test]
fn compute_bound_code_barely_notices_tdma() {
    let img = compute_bound_image();
    let mut alone = Simulator::new(&img, SimConfig::default());
    let dedicated = alone.run().expect("runs").stats.cycles;
    let system = CmpSystem::new(SimConfig::default(), 8, 64).expect("slots fit");
    let results = system.run_all(&img).expect("runs");
    for r in results {
        // Only the cold method-cache fill goes through the arbiter.
        assert!(
            r.result.stats.cycles < dedicated + system.arbiter().period() * 2,
            "compute-bound core paid more than the fill alignment: {} vs {}",
            r.result.stats.cycles,
            dedicated
        );
    }
}
