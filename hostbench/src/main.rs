//! Host-time benchmark of the Patmos toolchain.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <compile|analyze|campaign|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop driven by one client on one thread:
//! a pass over the 22 kernels of `patmos_workloads::all()` starts when
//! the previous one ends, until `--seconds` have passed. The seed is the
//! only input; it permutes the kernel order and sets the campaign's
//! injection seeds. Set-up (compiling the suite, the analyze and
//! campaign inputs) runs several times and reports its median; after
//! the timed passes, the pinned checks run once. Reported times are
//! calibrated against a fixed loop run just before each timed part,
//! which cancels most of a shared host's contention (see `calib`);
//! the human-readable lines also give raw wall times. The last line of
//! stdout is one JSON object: with `--trace 0` every end-to-end metric,
//! with `--trace 1` every per-layer metric of a traced run whose spans
//! are written to `.hostbench-out/`.

mod calib;
mod layers;
mod spans;
mod suite;
mod work;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use patmos_bench::resilience::{CAMPAIGN_SEED, INJECTIONS_PER_KERNEL};
use spans::{Off, Recorder, Req, Spans, WHOLE_PASS};
use suite::{Suite, Tally};
use work::{Campaign, Counts};

const USAGE: &str = "usage: hostbench [--workload compile|analyze|campaign|all] [--seed N] [--seconds N] [--trace 0|1]";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Traced passes whose spans are written out; all of them feed the
/// metrics, but a full analyze trace would run to tens of megabytes.
const WRITTEN_PASSES: u32 = 50;

/// The tail percentile reported for pass time.
const TAIL: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Compile,
    Analyze,
    Campaign,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Compile, Workload::Analyze, Workload::Campaign];

    fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Analyze => "analyze",
            Workload::Campaign => "campaign",
        }
    }

    /// What one item of the workload is.
    fn item(self) -> &'static str {
        match self {
            Workload::Compile => "kernels compiled",
            Workload::Analyze => "kernels analysed",
            Workload::Campaign => "injected runs",
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            match value.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => value.parse(),
            }
            .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs`, interpolating between order statistics
/// (0 when empty).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run_pass<R: Recorder>(
    rec: &mut R,
    workload: Workload,
    suite: &Suite,
    pass: u32,
    campaign: &mut Campaign,
    tally: &mut Tally,
    counts: &mut Counts,
) {
    match workload {
        Workload::Compile => work::compile_pass(rec, suite, pass, tally, counts),
        Workload::Analyze => work::analyze_pass(rec, suite, pass, tally, counts),
        Workload::Campaign => work::campaign_pass(rec, suite, pass, campaign, tally, counts),
    }
}

/// The untraced passes' wall times and work, and the traced run's
/// spans when tracing.
struct Measured {
    /// Wall time of each pass.
    pass_ms: Vec<f64>,
    /// The same, calibrated to the reference host.
    calibrated_ms: Vec<f64>,
    counts: Counts,
    traced: Option<layers::Traced>,
}

/// Runs passes until `seconds` have passed, after one untimed warm-up
/// pass; the calibration loop runs just before each timed pass.
/// Traced, each round runs an untraced pass and then a traced one, so
/// both sides of the overhead see the same machine state.
fn measure(workload: Workload, suite: &Suite, args: &Args, tally: &mut Tally) -> Measured {
    let mut campaign = Campaign::new(args.seed);
    let mut counts = Counts::default();
    run_pass(
        &mut Off,
        workload,
        suite,
        0,
        &mut campaign,
        tally,
        &mut Counts::default(),
    );
    let mut traced = args.trace.then(|| layers::Traced {
        spans: Spans::new(),
        counts: Counts::default(),
        loop_ms: Vec::new(),
    });
    let mut pass_ms = Vec::new();
    let mut calibrated_ms = Vec::new();
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut pass = 1;
    while pass_ms.is_empty() || start.elapsed() < deadline {
        let loop_ms = calib::loop_ms();
        let began = Instant::now();
        run_pass(
            &mut Off,
            workload,
            suite,
            pass,
            &mut campaign,
            tally,
            &mut counts,
        );
        let ms = began.elapsed().as_secs_f64() * 1e3;
        pass_ms.push(ms);
        calibrated_ms.push(calib::calibrated(ms, loop_ms));
        if let Some(t) = &mut traced {
            t.loop_ms.push(calib::loop_ms());
            let whole = Req {
                pass,
                kernel: WHOLE_PASS,
            };
            t.spans.span("pass", whole, |rec| {
                run_pass(
                    rec,
                    workload,
                    suite,
                    pass,
                    &mut campaign,
                    tally,
                    &mut t.counts,
                )
            });
        }
        pass += 1;
    }
    if let Some(t) = &traced {
        if workload == Workload::Compile {
            work::check_chain(suite, &t.counts.chain_stats, tally);
        }
    }
    Measured {
        pass_ms,
        calibrated_ms,
        counts,
        traced,
    }
}

/// The end-to-end metrics of an untraced run. Times are calibrated to
/// the reference host (see [`calib`]).
fn end_to_end(
    setup_s: &[f64],
    m: &Measured,
    tally: &Tally,
    suite: &Suite,
    verified: &work::Verified,
) -> Vec<Metric> {
    // Every pass completes the same number of items, so the median pass
    // gives the throughput; a mean would follow the host's noisiest
    // seconds.
    let items_per_pass = m.counts.items as f64 / m.pass_ms.len() as f64;
    let pass_p50 = median(&m.calibrated_ms);
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(setup_s),
        },
        Metric {
            name: "items_per_s",
            unit: "1/s",
            value: items_per_pass * 1e3 / pass_p50,
        },
        Metric {
            name: "pass_ms.p50",
            unit: "ms",
            value: pass_p50,
        },
        Metric {
            name: "pass_ms.p90",
            unit: "ms",
            value: quantile(&m.calibrated_ms, TAIL),
        },
        Metric {
            name: "ok_ratio",
            unit: "ratio",
            value: 1.0 - failed_ratio,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: peak_rss_mb().unwrap_or(0.0),
        },
        Metric {
            name: "guest_cycles",
            unit: "cycles",
            value: verified.guest_cycles as f64,
        },
        Metric {
            name: "wcet_bound_cycles",
            unit: "cycles",
            value: verified.bound_cycles as f64,
        },
        Metric {
            name: "code_bytes",
            unit: "bytes",
            value: suite.code_bytes() as f64,
        },
    ]
}

/// Runs one workload and prints its report; the last line is the
/// result JSON.
fn run(workload: Workload, args: &Args) {
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let loop_ms = calib::loop_ms();
        let began = Instant::now();
        built = Some(suite::setup(args.seed));
        let ms = began.elapsed().as_secs_f64() * 1e3;
        setup_s.push(calib::calibrated(ms, loop_ms) / 1e3);
    }
    let (suite, failures) = built.expect("SETUP_REPEATS is positive");
    let mut tally = Tally::default();
    for f in failures {
        tally.check(false, || f);
    }
    let m = measure(workload, &suite, args, &mut tally);
    let verified = work::verify(&suite, &mut tally);

    println!(
        "hostbench {} seed {} seconds {} trace {}: {} kernels, 1 client thread ({} available), {} timed passes",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        suite.kernels.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        m.pass_ms.len(),
    );
    let [runs, masked, sdc, flow] = verified.campaign;
    println!(
        "  pinned checks: campaign at seed {CAMPAIGN_SEED:#x}, {INJECTIONS_PER_KERNEL} injections/kernel: {runs} runs, {masked} masked, {sdc} SDC, {flow} caught by the flow checker"
    );
    println!(
        "  items: {} {} in {:.3} s of passes",
        m.counts.items,
        workload.item(),
        m.pass_ms.iter().sum::<f64>() / 1e3
    );
    for (label, xs) in [("wall", &m.pass_ms), ("calibrated", &m.calibrated_ms)] {
        let q = |p| quantile(xs, p);
        println!(
            "  pass_ms {label:<10}: min {:.3} p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} max {:.3}",
            q(0.0),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            q(1.0)
        );
    }
    let tail = quantile(&m.calibrated_ms, TAIL);
    let beyond_tail = m.calibrated_ms.iter().filter(|&&x| x > tail).count();
    if beyond_tail < 10 {
        println!("  note: only {beyond_tail} passes beyond p90; run longer for a resolved tail");
    }
    let metrics = match &m.traced {
        None => end_to_end(&setup_s, &m, &tally, &suite, &verified),
        Some(t) => {
            let metrics = layers::metrics(t, &m.calibrated_ms, &mut tally);
            println!(
                "  {:<24} {:>8} {:>12} {:>12} {:>8}",
                "span (self time)", "count", "median_us", "total_ms", "share"
            );
            for (name, n, med, total, share) in layers::self_time_rows(&t.spans) {
                println!("  {name:<24} {n:>8} {med:>12.3} {total:>12.3} {share:>8.4}");
            }
            let path = PathBuf::from(".hostbench-out").join(format!(
                "spans-{}-seed{}.json",
                workload.name(),
                args.seed
            ));
            match t.spans.write_chrome(&path, &suite.names(), WRITTEN_PASSES) {
                Ok(n) => println!(
                    "  spans: {n} of {} (passes 1-{WRITTEN_PASSES}) written to {}",
                    t.spans.spans().len(),
                    path.display()
                ),
                Err(e) => eprintln!("hostbench: could not write {}: {e}", path.display()),
            }
            metrics
        }
    };
    println!(
        "  failed_ratio {:.6} ({} of {} checks failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for metric in &metrics {
        println!(
            "  {:<28} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|metric| {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for &workload in &args.workloads {
        run(workload, &args);
    }
    ExitCode::SUCCESS
}
