//! E20 — seeded SEU resilience campaigns over the kernel suite.
//!
//! Every kernel gets a deterministic stream of fault injections
//! (`patmos_sim::faults`): the stream is a pure function of the
//! campaign seed and the kernel *name*, so the campaign's report is
//! byte-identical across runs, host thread counts, and suite order.
//! Each injection is classified against the kernel's golden run
//! **twice** — once with only the strict-mode contract checks and the
//! watchdog (the detectors the simulator always had), and once with the
//! CFG-derived control-flow checker armed on top
//! (`patmos_wcet::flow_map`). The two arms measure the checker's
//! marginal coverage directly: the faults it detects that strict mode
//! alone lets run to a silent corruption or a hang.
//!
//! The campaign is pinned by `baselines/resilience_baseline.json` in
//! the established exact-match style: the toolchain, the simulator, and
//! the fault streams are all deterministic, so any drift means a stale
//! baseline (or an unintended behaviour change), never noise.

use std::fmt::Write as _;

use patmos::compiler::{compile, CompileOptions};
use patmos::sim::faults::{golden_run, run_injection, FaultPlan, FaultRng, FaultSpace};
use patmos::sim::{DetectorKind, FaultOutcome, SimConfig};
use patmos::wcet::flow_map;
use patmos::workloads::{self, Workload};

use crate::baselines::Doc;

/// The pinned campaign's seed.
pub const CAMPAIGN_SEED: u64 = 0x5EED_FA17;

/// Injections per kernel in the pinned campaign.
pub const INJECTIONS_PER_KERNEL: u32 = 18;

const RESILIENCE_BASELINE_JSON: &str = include_str!("../baselines/resilience_baseline.json");

/// One kernel's campaign tallies (integer-only: the report must be
/// byte-stable). The `masked`/`sdc`/`detected_*`/`hang` split is the
/// full detector stack (control-flow checker armed); the `strict_*`
/// fields are the same injections under strict mode + watchdog alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelResilience {
    /// Kernel name.
    pub name: String,
    /// Injections attempted.
    pub injections: u64,
    /// Injections whose trigger actually fired before halt.
    pub fired: u64,
    /// Runs that completed with the golden result.
    pub masked: u64,
    /// Runs that completed with a wrong result, globals, or halt pc.
    pub sdc: u64,
    /// Runs stopped by a strict-mode contract check.
    pub detected_contract: u64,
    /// Runs stopped by the CFG-derived control-flow checker.
    pub detected_control_flow: u64,
    /// Runs that hit the (tightened) watchdog budget.
    pub hang: u64,
    /// Under strict mode alone: runs a contract check stopped.
    pub strict_detected: u64,
    /// Under strict mode alone: silent data corruptions.
    pub strict_sdc: u64,
    /// Under strict mode alone: watchdog hangs.
    pub strict_hang: u64,
    /// Faults the control-flow checker detected that strict mode let
    /// run to an SDC or a hang — the checker's marginal coverage.
    pub cfg_only: u64,
    /// Smallest injection-to-detection latency in cycles under the full
    /// stack (0 when no detector fired).
    pub latency_min: u64,
    /// Largest such latency.
    pub latency_max: u64,
    /// Sum of all detection latencies (for a stable mean:
    /// `latency_total / detections`).
    pub latency_total: u64,
}

impl KernelResilience {
    /// Runs the full detector stack (including the watchdog) stopped.
    pub fn detections(&self) -> u64 {
        self.detected_contract + self.detected_control_flow + self.hang
    }
}

/// Reads a kernel's tallies from a campaign document, and lists them
/// as the document records them: one field list, in file order.
macro_rules! tallies {
    ($($field:ident)*) => {
        fn read(doc: &Doc, name: &str) -> KernelResilience {
            let name = name.to_string();
            KernelResilience { $($field: doc.get(&name, stringify!($field)),)* name }
        }

        fn fields(k: &KernelResilience) -> Vec<(String, u64)> {
            vec![$((stringify!($field).to_string(), k.$field)),*]
        }
    };
}

tallies! {
    injections fired masked sdc detected_contract detected_control_flow hang
    strict_detected strict_sdc strict_hang cfg_only latency_min latency_max latency_total
}

/// A campaign document: `header` (up to the `"kernels"` key), then one
/// record per kernel.
fn campaign_json(header: String, campaign: &[KernelResilience]) -> String {
    let kernels = campaign
        .iter()
        .map(|k| (k.name.clone(), fields(k)))
        .collect();
    Doc { header, kernels }.render()
}

/// Runs one kernel's seeded campaign at explicit `opt3/sched2` and
/// tallies the outcomes of both detector arms.
pub fn measure_resilience_kernel(w: &Workload, seed: u64, count: u32) -> KernelResilience {
    let options = CompileOptions {
        opt_level: 3,
        sched_level: 2,
        ..CompileOptions::default()
    };
    let image = compile(&w.source, &options).expect("campaign kernel compiles");
    let config = SimConfig::default();
    let golden = golden_run(&image, &config).expect("campaign kernel runs clean");
    assert_eq!(golden.result_r1, w.expected, "golden run is correct");
    let flow = flow_map(&image).expect("campaign kernel has an analysable CFG");
    let space = FaultSpace::for_image(&image, golden.cycles);
    let mut rng = FaultRng::for_kernel(seed, w.name);

    let mut out = KernelResilience {
        name: w.name.to_string(),
        injections: count as u64,
        fired: 0,
        masked: 0,
        sdc: 0,
        detected_contract: 0,
        detected_control_flow: 0,
        hang: 0,
        strict_detected: 0,
        strict_sdc: 0,
        strict_hang: 0,
        cfg_only: 0,
        latency_min: 0,
        latency_max: 0,
        latency_total: 0,
    };
    for _ in 0..count {
        let injection = FaultPlan::draw(&mut rng, &space);
        let strict = run_injection(&image, &config, injection, None, &golden);
        let full = run_injection(&image, &config, injection, Some(&flow), &golden);
        out.fired += full.injected as u64;
        match full.outcome {
            FaultOutcome::Masked => out.masked += 1,
            FaultOutcome::SilentDataCorruption => out.sdc += 1,
            FaultOutcome::Detected(DetectorKind::ControlFlow) => out.detected_control_flow += 1,
            FaultOutcome::Detected(_) => out.detected_contract += 1,
            FaultOutcome::Hang => out.hang += 1,
        }
        match strict.outcome {
            FaultOutcome::Detected(_) => out.strict_detected += 1,
            FaultOutcome::SilentDataCorruption => out.strict_sdc += 1,
            FaultOutcome::Hang => out.strict_hang += 1,
            FaultOutcome::Masked => {}
        }
        if matches!(
            full.outcome,
            FaultOutcome::Detected(DetectorKind::ControlFlow)
        ) && !matches!(strict.outcome, FaultOutcome::Detected(_))
        {
            out.cfg_only += 1;
        }
        if let Some(lat) = full.detection_latency {
            if out.detections() == 1 {
                out.latency_min = lat;
                out.latency_max = lat;
            } else {
                out.latency_min = out.latency_min.min(lat);
                out.latency_max = out.latency_max.max(lat);
            }
            out.latency_total += lat;
        }
    }
    out
}

/// Runs the full-suite campaign: every kernel's injection stream on its
/// own host worker (the kernels are independent, so this is the same
/// embarrassing parallelism as the CMP cores), merged in suite order.
pub fn run_campaign(seed: u64, count: u32) -> Vec<KernelResilience> {
    let suite = workloads::all();
    std::thread::scope(|s| {
        let handles: Vec<_> = suite
            .iter()
            .map(|w| s.spawn(move || measure_resilience_kernel(w, seed, count)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    })
}

/// Parses the checked-in resilience baseline.
pub fn resilience_baseline() -> Vec<KernelResilience> {
    let doc = Doc::parse(RESILIENCE_BASELINE_JSON);
    doc.kernels
        .iter()
        .map(|(name, _)| read(&doc, name))
        .collect()
}

/// Re-emits the resilience baseline JSON from a fresh campaign.
pub fn resilience_baseline_json() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"patmos-bench/resilience-baseline/v1\",\n");
    out.push_str(
        "  \"description\": \"Seeded SEU campaign at opt_level 3 / sched_level 2: per kernel, a deterministic stream of bit-flip injections (register file, predicates, special regs, data memory, cache tags) classified against the golden run into masked / silent data corruption / detected (strict contract vs CFG control-flow checker) / hang. Each injection runs under strict-mode detectors alone (strict_* fields) and under the full stack with the control-flow checker armed; cfg_only counts faults only the checker catches. Latencies are injection-to-detection cycles under the full stack. The stream is a pure function of the campaign seed and kernel name. Regenerate with: cargo run -p patmos-bench --bin exp_e20_resilience -- --json\",\n",
    );
    writeln!(out, "  \"seed\": {CAMPAIGN_SEED},").ok();
    writeln!(out, "  \"injections_per_kernel\": {INJECTIONS_PER_KERNEL},").ok();
    out.push_str("  ");
    campaign_json(out, &run_campaign(CAMPAIGN_SEED, INJECTIONS_PER_KERNEL))
}

/// The full resilience report JSON: the per-kernel tallies plus
/// suite-level rates and per-detector coverage (the CI artifact).
pub fn resilience_report_json() -> String {
    let campaign = run_campaign(CAMPAIGN_SEED, INJECTIONS_PER_KERNEL);
    let total: u64 = campaign.iter().map(|k| k.injections).sum();
    let fired: u64 = campaign.iter().map(|k| k.fired).sum();
    let masked: u64 = campaign.iter().map(|k| k.masked).sum();
    let sdc: u64 = campaign.iter().map(|k| k.sdc).sum();
    let contract: u64 = campaign.iter().map(|k| k.detected_contract).sum();
    let cflow: u64 = campaign.iter().map(|k| k.detected_control_flow).sum();
    let hang: u64 = campaign.iter().map(|k| k.hang).sum();
    let strict_detected: u64 = campaign.iter().map(|k| k.strict_detected).sum();
    let strict_sdc: u64 = campaign.iter().map(|k| k.strict_sdc).sum();
    let strict_hang: u64 = campaign.iter().map(|k| k.strict_hang).sum();
    let cfg_only: u64 = campaign.iter().map(|k| k.cfg_only).sum();
    let detections = contract + cflow + hang;
    let lat_total: u64 = campaign.iter().map(|k| k.latency_total).sum();
    let lat_min = campaign
        .iter()
        .filter(|k| k.detections() > 0)
        .map(|k| k.latency_min)
        .min()
        .unwrap_or(0);
    let lat_max = campaign.iter().map(|k| k.latency_max).max().unwrap_or(0);

    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"patmos-bench/resilience-report/v1\",\n");
    writeln!(out, "  \"seed\": {CAMPAIGN_SEED},").ok();
    writeln!(out, "  \"injections_per_kernel\": {INJECTIONS_PER_KERNEL},").ok();
    out.push_str("  \"suite\": {\n");
    writeln!(out, "    \"injections\": {total},").ok();
    writeln!(out, "    \"fired\": {fired},").ok();
    writeln!(out, "    \"masked\": {masked},").ok();
    writeln!(out, "    \"sdc\": {sdc},").ok();
    writeln!(out, "    \"detected_contract\": {contract},").ok();
    writeln!(out, "    \"detected_control_flow\": {cflow},").ok();
    writeln!(out, "    \"hang\": {hang},").ok();
    writeln!(out, "    \"detections\": {detections},").ok();
    writeln!(out, "    \"strict_detected\": {strict_detected},").ok();
    writeln!(out, "    \"strict_sdc\": {strict_sdc},").ok();
    writeln!(out, "    \"strict_hang\": {strict_hang},").ok();
    writeln!(out, "    \"cfg_only\": {cfg_only},").ok();
    writeln!(out, "    \"latency_min\": {lat_min},").ok();
    writeln!(out, "    \"latency_max\": {lat_max},").ok();
    writeln!(out, "    \"latency_total\": {lat_total}").ok();
    out.push_str("  },\n  ");
    campaign_json(out, &campaign)
}

/// E20 — the resilience campaign table: per-kernel outcome split under
/// the full detector stack, the strict-mode-only comparison, and
/// detection latencies, under the pinned seed.
pub fn exp_e20_resilience() -> String {
    let campaign = run_campaign(CAMPAIGN_SEED, INJECTIONS_PER_KERNEL);
    let mut out = String::new();
    writeln!(
        out,
        "E20: SEU resilience campaign (seed {CAMPAIGN_SEED:#x}, {INJECTIONS_PER_KERNEL} injections/kernel, opt3/sched2)"
    )
    .ok();
    writeln!(
        out,
        "{:<12} {:>4} {:>7} {:>5} {:>9} {:>9} {:>5} {:>9} {:>8} {:>8}",
        "kernel",
        "inj",
        "masked",
        "sdc",
        "det(ctr)",
        "det(cfg)",
        "hang",
        "cfg-only",
        "strictH",
        "avg-lat"
    )
    .ok();
    for k in &campaign {
        let avg = if k.detections() > 0 {
            (k.latency_total / k.detections()).to_string()
        } else {
            "-".to_string()
        };
        writeln!(
            out,
            "{:<12} {:>4} {:>7} {:>5} {:>9} {:>9} {:>5} {:>9} {:>8} {:>8}",
            k.name,
            k.injections,
            k.masked,
            k.sdc,
            k.detected_contract,
            k.detected_control_flow,
            k.hang,
            k.cfg_only,
            k.strict_hang,
            avg
        )
        .ok();
    }
    let total: u64 = campaign.iter().map(|k| k.injections).sum();
    let masked: u64 = campaign.iter().map(|k| k.masked).sum();
    let sdc: u64 = campaign.iter().map(|k| k.sdc).sum();
    let contract: u64 = campaign.iter().map(|k| k.detected_contract).sum();
    let cflow: u64 = campaign.iter().map(|k| k.detected_control_flow).sum();
    let hang: u64 = campaign.iter().map(|k| k.hang).sum();
    let cfg_only: u64 = campaign.iter().map(|k| k.cfg_only).sum();
    let strict_hang: u64 = campaign.iter().map(|k| k.strict_hang).sum();
    writeln!(
        out,
        "{:<12} {:>4} {:>7} {:>5} {:>9} {:>9} {:>5} {:>9} {:>8}",
        "suite", total, masked, sdc, contract, cflow, hang, cfg_only, strict_hang
    )
    .ok();
    let detections = contract + cflow + hang;
    writeln!(
        out,
        "coverage: {}/{} corrupting faults detected under the full stack; the CFG checker\nalone catches {} that strict mode misses ({} of them hang under strict mode)",
        detections,
        detections + sdc,
        cfg_only,
        strict_hang
    )
    .ok();
    out
}
