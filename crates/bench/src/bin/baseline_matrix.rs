//! Measures the baseline matrix once and writes every family table
//! (E7, E11–E15, E18, E19, one `<binary>.txt` each) plus the E18
//! spill/rename footprint document (`regalloc2_footprint.json`) into
//! the directory given as the only argument:
//!
//! ```text
//! cargo run --release -p patmos-bench --bin baseline_matrix -- perf
//! ```
use std::path::PathBuf;

use patmos_bench::baselines;

fn main() -> std::io::Result<()> {
    let dir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".into()));
    std::fs::create_dir_all(&dir)?;
    for (bin, table) in baselines::tables() {
        std::fs::write(dir.join(format!("{bin}.txt")), table)?;
    }
    std::fs::write(
        dir.join("regalloc2_footprint.json"),
        baselines::footprint_json(),
    )
}
