//! The zero-cost-hooks overhead gate. CI runs this in release mode and
//! fails the build when either measurement exceeds the threshold:
//!
//! * traced simulation with the compiled-out
//!   [`patmos::trace::NullSink`] must cost the same as an untraced run
//!   (tracing must monomorphize away);
//! * the fault-injection hook must cost nothing when no plan is armed —
//!   measured as step-only runs with an armed-but-empty `FaultPlan`
//!   against plain step-only runs, an upper bound on the hook's cost
//!   (unarmed runs only ever pay one `Option` test).
//!
//! The threshold is 1% by default; pass a float argument to override
//! (e.g. `trace_overhead_gate 0.02`). Exits non-zero on failure.

use std::process::ExitCode;

fn main() -> ExitCode {
    let threshold: f64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.01);
    let mut failed = false;

    let (plain, null, overhead) = patmos_bench::observe::trace_overhead(5);
    println!(
        "suite sweep: untraced {:.4}s, NullSink-traced {:.4}s, overhead {:+.2}%",
        plain,
        null,
        overhead * 100.0
    );
    if overhead > threshold {
        eprintln!(
            "FAIL: NullSink overhead {:.2}% exceeds the {:.2}% gate — tracing is not \
             monomorphizing away",
            overhead * 100.0,
            threshold * 100.0
        );
        failed = true;
    }

    let (unarmed, hooked, fault_overhead) = patmos_bench::observe::faults_overhead(5);
    println!(
        "faults hook: unarmed {:.4}s, armed-empty {:.4}s, overhead {:+.2}%",
        unarmed,
        hooked,
        fault_overhead * 100.0
    );
    if fault_overhead > threshold {
        eprintln!(
            "FAIL: unarmed faults-hook overhead {:.2}% exceeds the {:.2}% gate",
            fault_overhead * 100.0,
            threshold * 100.0
        );
        failed = true;
    }

    if failed {
        return ExitCode::FAILURE;
    }
    println!("ok: within the {:.2}% gate", threshold * 100.0);
    ExitCode::SUCCESS
}
