//! Per-layer metrics of the traced run, derived from its spans.
//!
//! A layer is a crate; each timing is the median self time per item (a
//! kernel, or one injected run) with its share of the traced pass wall
//! time, probes excluded. The compile layers' stage times come from the
//! stage-by-stage probe, which runs right after `compile_to_asm` on
//! each kernel; codegen and emit have no public entry point, so
//! `compiler.lower_emit_*` is the residual of `compile_to_asm` after the probe's timed stages.

use std::collections::HashMap;

use crate::calib;
use crate::spans::{Req, Spans};
use crate::suite::Tally;
use crate::work::Counts;
use crate::{median, Metric};

/// Every per-layer metric with its unit, in report order. Layers a
/// workload does not run report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compiler.parse_us", "us"),
    ("compiler.parse_share", "ratio"),
    ("compiler.lower_emit_us", "us"),
    ("compiler.lower_emit_share", "ratio"),
    ("opt.optimize_us", "us"),
    ("opt.optimize_share", "ratio"),
    ("opt.rounds", "count"),
    ("opt.insts_before", "count"),
    ("opt.insts_after", "count"),
    ("regalloc.regalloc_us", "us"),
    ("regalloc.regalloc_share", "ratio"),
    ("regalloc.spills", "count"),
    ("sched.schedule_us", "us"),
    ("sched.schedule_share", "ratio"),
    ("sched.list_only_us", "us"),
    ("sched.modulo_share", "ratio"),
    ("sched.bundles", "count"),
    ("sched.paired", "count"),
    ("sched.pipelined_loops", "count"),
    ("sched.pipeline_refusals", "count"),
    ("sched.pipeline_yield", "ratio"),
    ("sched.ii_excess", "count"),
    ("asm.assemble_us", "us"),
    ("asm.assemble_share", "ratio"),
    ("asm.code_words", "count"),
    ("sim.new_us", "us"),
    ("sim.new_share", "ratio"),
    ("sim.run_us", "us"),
    ("sim.run_share", "ratio"),
    ("sim.drop_us", "us"),
    ("sim.drop_share", "ratio"),
    ("sim.mcycles_per_s", "Mcycles/s"),
    ("sim.predecoded_coverage", "ratio"),
    ("sim.fast_coverage", "ratio"),
    ("wcet.cfg_us", "us"),
    ("wcet.analyze_us", "us"),
    ("wcet.analyze_share", "ratio"),
    ("wcet.ipet_us", "us"),
    ("wcet.blocks", "count"),
    ("faults.golden_us", "us"),
    ("faults.golden_share", "ratio"),
    ("faults.flow_map_us", "us"),
    ("faults.flow_map_share", "ratio"),
    ("faults.inject_us", "us"),
    ("faults.inject_share", "ratio"),
    ("faults.cycles_per_injection", "cycles"),
    ("faults.fired_ratio", "ratio"),
    ("faults.masked", "ratio"),
    ("faults.sdc", "ratio"),
    ("faults.detected", "ratio"),
    ("faults.hang", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.passes", "count"),
    ("trace.spans", "count"),
];

/// The compile stages the probe times, whose sum `compile_to_asm`'s
/// time must cover.
const STAGES: [&str; 4] = [
    "compiler.parse",
    "opt.optimize",
    "regalloc.regalloc",
    "sched.schedule",
];

/// What the traced run collected.
pub struct Traced {
    /// Every span, passes and probes included.
    pub spans: Spans,
    /// Work counted in the traced passes.
    pub counts: Counts,
    /// The calibration loop's time before each traced pass.
    pub loop_ms: Vec<f64>,
}

/// Span statistics keyed by span name.
struct ByName<'a> {
    spans: &'a Spans,
    own: Vec<u64>,
    index: HashMap<&'static str, Vec<usize>>,
}

impl ByName<'_> {
    fn new(spans: &Spans) -> ByName<'_> {
        let mut index: HashMap<&'static str, Vec<usize>> = HashMap::new();
        for (i, s) in spans.spans().iter().enumerate() {
            index.entry(s.name).or_default().push(i);
        }
        ByName {
            spans,
            own: spans.self_times(),
            index,
        }
    }

    fn indices(&self, name: &str) -> &[usize] {
        self.index.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median self time per span, microseconds.
    fn median_us(&self, name: &str) -> f64 {
        let us: Vec<f64> = self
            .indices(name)
            .iter()
            .map(|&i| self.own[i] as f64 / 1e3)
            .collect();
        median(&us)
    }

    /// Total self time, nanoseconds.
    fn total_ns(&self, name: &str) -> u64 {
        self.indices(name).iter().map(|&i| self.own[i]).sum()
    }

    /// Each traced pass's wall time without its probes, nanoseconds,
    /// in pass order.
    fn pass_ns(&self) -> Vec<u64> {
        let spans = self.spans.spans();
        let mut probes: HashMap<u32, u64> = HashMap::new();
        for s in spans {
            let top = s.parent.is_some_and(|p| spans[p as usize].name == "pass");
            if top && s.name.starts_with("probe.") {
                *probes.entry(s.req.pass).or_default() += s.dur_ns();
            }
        }
        self.indices("pass")
            .iter()
            .map(|&i| {
                let probe_ns = probes.get(&spans[i].req.pass).copied().unwrap_or(0);
                spans[i].dur_ns().saturating_sub(probe_ns)
            })
            .collect()
    }

    /// Total duration of each request's spans of every name in `names`.
    fn per_req(&self, names: &[&str]) -> HashMap<Req, Vec<u64>> {
        let mut out: HashMap<Req, Vec<u64>> = HashMap::new();
        for (slot, name) in names.iter().enumerate() {
            for &i in self.indices(name) {
                let s = &self.spans.spans()[i];
                out.entry(s.req).or_insert_with(|| vec![0; names.len()])[slot] += s.dur_ns();
            }
        }
        out
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Self-time rows for the report: `(name, spans, median self µs, total
/// self ms, share of traced pass time without probes)`, largest total
/// first.
pub fn self_time_rows(spans: &Spans) -> Vec<(&'static str, usize, f64, f64, f64)> {
    let by = ByName::new(spans);
    let pass_ns: u64 = by.pass_ns().iter().sum();
    let mut rows: Vec<_> = by
        .index
        .keys()
        .map(|&name| {
            let total = by.total_ns(name);
            (
                name,
                by.indices(name).len(),
                by.median_us(name),
                total as f64 / 1e6,
                ratio(total as f64, pass_ns as f64),
            )
        })
        .collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

/// The per-layer metrics of a traced run, plus the stage-chain checks
/// of a compile run: the probe's stages may not exceed
/// `compile_to_asm`'s time (a negative residual means the chain measured something else),
/// and the `compile_to_asm` and assembler spans must cover the pass
/// wall time.
pub fn metrics(t: &Traced, untraced_ms: &[f64], tally: &mut Tally) -> Vec<Metric> {
    let by = ByName::new(&t.spans);
    let passes = by.pass_ns();
    let pass_ns: u64 = passes.iter().sum();
    let traced_ms: Vec<f64> = passes
        .iter()
        .zip(&t.loop_ms)
        .map(|(&ns, &loop_ms)| calib::calibrated(ns as f64 / 1e6, loop_ms))
        .collect();
    let share = |name: &str| ratio(by.total_ns(name) as f64, pass_ns as f64);
    let per_pass = |total: u64| ratio(total as f64, passes.len() as f64);
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let mut set = |name: &'static str, value: f64| {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        values.insert(name, value);
    };

    let overhead = median(&traced_ms) - median(untraced_ms);
    set("trace.overhead_ms", overhead);
    set("trace.overhead_share", ratio(overhead, median(untraced_ms)));
    set(
        "trace.coverage",
        1.0 - ratio(by.total_ns("pass") as f64, pass_ns as f64),
    );
    set("trace.passes", passes.len() as f64);
    set("trace.spans", t.spans.spans().len() as f64);

    if !by.indices("compiler.compile_to_asm").is_empty() {
        let mut names = vec!["compiler.compile_to_asm"];
        names.extend(STAGES);
        let (mut residual_us, mut residual_ns, mut whole_ns) = (Vec::new(), 0i64, 0i64);
        for d in by.per_req(&names).values() {
            if d[1..].iter().all(|&x| x > 0) {
                let r = d[0] as i64 - d[1..].iter().sum::<u64>() as i64;
                residual_us.push(r as f64 / 1e3);
                residual_ns += r;
                whole_ns += d[0] as i64;
            }
        }
        set("compiler.parse_us", by.median_us("compiler.parse"));
        set("compiler.parse_share", share("compiler.parse"));
        set("compiler.lower_emit_us", median(&residual_us));
        set(
            "compiler.lower_emit_share",
            ratio(residual_ns as f64, pass_ns as f64),
        );
        set("opt.optimize_us", by.median_us("opt.optimize"));
        set("opt.optimize_share", share("opt.optimize"));
        set("regalloc.regalloc_us", by.median_us("regalloc.regalloc"));
        set("regalloc.regalloc_share", share("regalloc.regalloc"));
        set("sched.schedule_us", by.median_us("sched.schedule"));
        set("sched.schedule_share", share("sched.schedule"));
        set("sched.list_only_us", by.median_us("sched.list_only"));
        set(
            "sched.modulo_share",
            1.0 - ratio(
                by.total_ns("sched.list_only") as f64,
                by.total_ns("sched.schedule") as f64,
            ),
        );
        set("asm.assemble_us", by.median_us("asm.assemble"));
        set("asm.assemble_share", share("asm.assemble"));
        let c = &t.counts.chain;
        set("opt.rounds", per_pass(c.rounds));
        set("opt.insts_before", per_pass(c.insts_before));
        set("opt.insts_after", per_pass(c.insts_after));
        set("regalloc.spills", per_pass(c.spills));
        set("sched.bundles", per_pass(c.bundles));
        set("sched.paired", per_pass(c.paired));
        set("sched.pipelined_loops", per_pass(c.pipelined));
        set("sched.pipeline_refusals", per_pass(c.refusals));
        set(
            "sched.pipeline_yield",
            ratio(c.pipelined as f64, (c.pipelined + c.refusals) as f64),
        );
        set("sched.ii_excess", per_pass(c.ii_excess));
        set("asm.code_words", per_pass(t.counts.code_bytes / 4));
        let residual = ratio(residual_ns as f64, whole_ns as f64);
        tally.check(residual > -0.05, || {
            format!(
                "stage chain exceeds compile_to_asm's time by {:.1}%",
                -residual * 100.0
            )
        });
        let covered = ratio(
            (by.total_ns("compiler.compile_to_asm") + by.total_ns("asm.assemble")) as f64,
            pass_ns as f64,
        );
        tally.check(covered >= 0.95, || {
            format!(
                "timed stages and residual cover only {:.1}% of the pass",
                covered * 100.0
            )
        });
    }

    if !by.indices("sim.run").is_empty() {
        let c = &t.counts;
        set("sim.new_us", by.median_us("sim.new"));
        set("sim.new_share", share("sim.new"));
        set("sim.run_us", by.median_us("sim.run"));
        set("sim.run_share", share("sim.run"));
        set("sim.drop_us", by.median_us("sim.drop"));
        set("sim.drop_share", share("sim.drop"));
        set(
            "sim.mcycles_per_s",
            ratio(c.guest_cycles as f64 * 1e3, by.total_ns("sim.run") as f64),
        );
        set(
            "sim.predecoded_coverage",
            ratio((c.fast_cycles + c.pre_cycles) as f64, c.guest_cycles as f64),
        );
        set(
            "sim.fast_coverage",
            ratio(c.fast_cycles as f64, c.guest_cycles as f64),
        );
        set("wcet.cfg_us", by.median_us("wcet.cfg"));
        set("wcet.analyze_us", by.median_us("wcet.analyze"));
        set("wcet.analyze_share", share("wcet.analyze"));
        let ipet_us: Vec<f64> = by
            .per_req(&["wcet.analyze", "wcet.cfg"])
            .values()
            .filter(|d| d[0] > 0 && d[1] > 0)
            .map(|d| (d[0] as f64 - d[1] as f64) / 1e3)
            .collect();
        set("wcet.ipet_us", median(&ipet_us));
        set("wcet.blocks", per_pass(t.counts.cfg_blocks));
    }

    if !by.indices("faults.inject").is_empty() {
        let c = &t.counts;
        let runs = c.full_runs as f64;
        set("faults.golden_us", by.median_us("faults.golden"));
        set("faults.golden_share", share("faults.golden"));
        set("faults.flow_map_us", by.median_us("faults.flow_map"));
        set("faults.flow_map_share", share("faults.flow_map"));
        set("faults.inject_us", by.median_us("faults.inject"));
        set("faults.inject_share", share("faults.inject"));
        set(
            "faults.cycles_per_injection",
            ratio(c.inject_cycles as f64, 2.0 * runs),
        );
        set("faults.fired_ratio", ratio(c.fired as f64, runs));
        set("faults.masked", ratio(c.masked as f64, runs));
        set("faults.sdc", ratio(c.sdc as f64, runs));
        set("faults.detected", ratio(c.detected as f64, runs));
        set("faults.hang", ratio(c.hang as f64, runs));
    }

    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(0.0),
        })
        .collect()
}
