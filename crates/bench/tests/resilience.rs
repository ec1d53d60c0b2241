//! E20 campaign pinning, determinism and taxonomy-coverage tests.
//!
//! The toolchain, the simulator and the fault streams are all
//! deterministic, so the checked-in `resilience_baseline.json` must
//! match a fresh campaign exactly — across runs, host thread counts
//! (each kernel's stream is seeded from the campaign seed and the
//! kernel *name*, never from spawn order), and `--test-threads`
//! settings.

use patmos::compiler::{compile, CompileOptions};
use patmos::sim::faults::{
    golden_run, run_injection, run_injection_with_path, CacheSel, FaultPlan, FaultRng, FaultSpace,
    FaultTarget, FaultTrigger, Injection, RunPath,
};
use patmos::sim::SimConfig;
use patmos::wcet::flow_map;
use patmos_bench::resilience::{
    measure_resilience_kernel, resilience_baseline, resilience_report_json, run_campaign,
    CAMPAIGN_SEED, INJECTIONS_PER_KERNEL,
};

/// Campaign seeds the recording sweep covers, the pinned one first.
const SWEEP_SEEDS: u64 = 10;

#[test]
fn e20_resilience_baseline_file_matches_current_measurements() {
    // Any drift means the checked-in campaign is stale (or an
    // unintended behaviour change in the simulator, the compiler, or
    // the fault model). Regenerate with:
    //   cargo run -p patmos-bench --bin exp_e20_resilience -- --json \
    //     > crates/bench/baselines/resilience_baseline.json
    let baseline = resilience_baseline();
    assert_eq!(
        baseline.len(),
        patmos::workloads::all().len(),
        "every kernel of the suite must be recorded in resilience_baseline.json"
    );
    let fresh = run_campaign(CAMPAIGN_SEED, INJECTIONS_PER_KERNEL);
    assert_eq!(fresh.len(), baseline.len());
    for (measured, pinned) in fresh.iter().zip(&baseline) {
        assert_eq!(
            measured, pinned,
            "{}: baselines/resilience_baseline.json is stale; regenerate it",
            pinned.name
        );
    }
}

#[test]
fn e20_campaign_is_deterministic_across_runs_and_schedules() {
    // Two full campaigns (parallel, thread::scope) and a sequential
    // remeasure of a few kernels must agree byte for byte: the
    // per-kernel streams are pure functions of (seed, kernel name), so
    // neither spawn order nor the host thread count can leak in.
    let first = run_campaign(CAMPAIGN_SEED, INJECTIONS_PER_KERNEL);
    let second = run_campaign(CAMPAIGN_SEED, INJECTIONS_PER_KERNEL);
    assert_eq!(first, second, "the campaign must be deterministic");
    for w in patmos::workloads::all().iter().take(3) {
        let alone = measure_resilience_kernel(w, CAMPAIGN_SEED, INJECTIONS_PER_KERNEL);
        let in_campaign = first
            .iter()
            .find(|k| k.name == w.name)
            .expect("kernel present in the campaign");
        assert_eq!(
            &alone, in_campaign,
            "{}: sequential and campaign-parallel tallies must agree",
            w.name
        );
    }
    // The rendered CI artifact inherits the same guarantee.
    assert_eq!(
        resilience_report_json(),
        resilience_report_json(),
        "the report JSON must be byte-identical across renders"
    );
}

#[test]
fn e20_campaign_exercises_the_full_outcome_taxonomy() {
    // Across the pinned campaign's two detector arms, every class of
    // the four-way taxonomy must actually occur: masked and silent
    // corruptions under the full stack, control-flow detections by the
    // CFG checker, contract detections and watchdog hangs under strict
    // mode (where the checker is not there to pre-empt them).
    let baseline = resilience_baseline();
    let masked: u64 = baseline.iter().map(|k| k.masked).sum();
    let sdc: u64 = baseline.iter().map(|k| k.sdc).sum();
    let cflow: u64 = baseline.iter().map(|k| k.detected_control_flow).sum();
    let strict_detected: u64 = baseline.iter().map(|k| k.strict_detected).sum();
    let strict_hang: u64 = baseline.iter().map(|k| k.strict_hang).sum();
    assert!(masked > 0, "no masked faults in the campaign");
    assert!(sdc > 0, "no silent data corruptions in the campaign");
    assert!(cflow > 0, "no control-flow detections in the campaign");
    assert!(
        strict_detected > 0,
        "no strict-mode contract detections in the campaign"
    );
    assert!(strict_hang > 0, "no watchdog hangs in the campaign");
}

#[test]
fn e20_cfg_checker_beats_strict_mode_somewhere() {
    // The tentpole acceptance: the campaign must contain at least one
    // wild branch (or runaway loop) that the CFG-derived checker
    // detects while strict mode alone runs to an SDC or a hang.
    let cfg_only: u64 = resilience_baseline().iter().map(|k| k.cfg_only).sum();
    assert!(
        cfg_only >= 1,
        "the control-flow checker caught nothing strict mode misses"
    );
}

#[test]
fn e20_detection_latencies_are_consistent() {
    for k in resilience_baseline() {
        let detections = k.detections();
        assert_eq!(
            k.injections,
            k.masked + k.sdc + detections,
            "{}: the outcome split must partition the injections",
            k.name
        );
        if detections == 0 {
            assert_eq!(
                (k.latency_min, k.latency_max, k.latency_total),
                (0, 0, 0),
                "{}: latencies without detections",
                k.name
            );
        } else {
            assert!(k.latency_min <= k.latency_max, "{}", k.name);
            assert!(
                k.latency_total >= k.latency_max,
                "{}: total below max",
                k.name
            );
            assert!(
                k.latency_total <= k.latency_max * detections,
                "{}: total above max * detections",
                k.name
            );
        }
    }
}

#[test]
fn golden_recording_answers_every_injection_like_the_oracle() {
    // The oracle is the from-reset run: `golden_run` and `run_injection`
    // under `fast_path: false`. Every draw of SWEEP_SEEDS campaigns over
    // every kernel, under both detector arms in three orders, plus a
    // flip of the first global byte past the last bundle (which never
    // lands), must match it in every `InjectionOutcome` field.
    let options = CompileOptions {
        opt_level: 3,
        sched_level: 2,
        ..CompileOptions::default()
    };
    let fast = SimConfig::default();
    let oracle = SimConfig {
        fast_path: false,
        ..SimConfig::default()
    };
    let suite = patmos::workloads::all();
    let paths = std::thread::scope(|s| {
        let workers: Vec<_> = suite
            .iter()
            .map(|w| {
                let (options, fast, oracle) = (&options, &fast, &oracle);
                s.spawn(move || {
                    let image = compile(&w.source, options).expect("kernel compiles");
                    let golden = golden_run(&image, fast).expect("golden run");
                    let reference = golden_run(&image, oracle).expect("oracle golden run");
                    assert_eq!(golden, reference, "{}: golden runs differ", w.name);
                    let flow = flow_map(&image).expect("analysable CFG");
                    let space = FaultSpace::for_image(&image, golden.cycles);
                    let mut injections = Vec::new();
                    for i in 0..SWEEP_SEEDS {
                        let mut rng = FaultRng::for_kernel(CAMPAIGN_SEED + i, w.name);
                        for _ in 0..INJECTIONS_PER_KERNEL {
                            injections.push(FaultPlan::draw(&mut rng, &space));
                        }
                    }
                    if let Some(&(addr, _)) = space.mem_ranges.first() {
                        injections.push(Injection {
                            trigger: FaultTrigger::Cycle(golden.cycles + 1),
                            target: FaultTarget::Memory { addr, bit: 0 },
                        });
                    }
                    // A forked injection is simulated once for both arms,
                    // so each injection's arms are asked strict first,
                    // checker first, and strict first again with an
                    // unrelated forked injection (a cache-tag upset at
                    // cycle 0) answered in between.
                    let unrelated = [CacheSel::Data, CacheSel::Static].map(|cache| {
                        let injection = Injection {
                            trigger: FaultTrigger::Cycle(0),
                            target: FaultTarget::CacheTags { cache },
                        };
                        let want = run_injection(&image, oracle, injection, None, &reference);
                        (injection, want)
                    });
                    let mut paths = [0u64; 3];
                    for injection in injections {
                        let arms = [None, Some(&flow)];
                        let want =
                            arms.map(|arm| run_injection(&image, oracle, injection, arm, &reference));
                        let (other, other_want) = unrelated
                            .into_iter()
                            .find(|(u, _)| *u != injection)
                            .expect("two distinct tag upsets");
                        for (order, asks) in [[0, 1], [1, 0], [0, 1]].into_iter().enumerate() {
                            for (n, i) in asks.into_iter().enumerate() {
                                if order == 2 && n == 1 {
                                    let got = run_injection(&image, fast, other, None, &golden);
                                    assert_eq!(got, other_want, "{}: {other:?}", w.name);
                                }
                                let (got, path) =
                                    run_injection_with_path(&image, fast, injection, arms[i], &golden);
                                assert_eq!(
                                    got,
                                    want[i],
                                    "{}: {injection:?}, checker {}, answered {path:?} (order {order})",
                                    w.name,
                                    arms[i].is_some()
                                );
                                paths[match path {
                                    RunPath::Pruned => 0,
                                    RunPath::Forked => 1,
                                    RunPath::FromReset => 2,
                                }] += 1;
                            }
                        }
                    }
                    paths
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .fold([0u64; 3], |a, b| [a[0] + b[0], a[1] + b[1], a[2] + b[2]])
    });
    let [pruned, forked, from_reset] = paths;
    assert!(
        pruned > 0 && forked > 0,
        "the sweep must exercise both recorded paths: {pruned} pruned, {forked} forked"
    );
    assert_eq!(from_reset, 0, "every injection has a recording to use");
}
