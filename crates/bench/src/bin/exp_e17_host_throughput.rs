//! Regenerates experiment E17 (host throughput of the bursting engine
//! vs the general step alone).
//!
//! With `--json`, emits the machine-readable measurement document the
//! perf-trajectory CI job uploads. Wall-clock numbers vary with the
//! host, so the JSON is a trend artifact, never a pinned baseline.
fn main() {
    if std::env::args().any(|a| a == "--json") {
        print!("{}", patmos_bench::hostperf::host_throughput_json());
    } else {
        print!("{}", patmos_bench::hostperf::exp_e17_host_throughput());
    }
}
