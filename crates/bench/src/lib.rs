//! # htpar-bench — experiment regenerators
//!
//! One binary per figure/table of the paper's evaluation (run with
//! `cargo run -p htpar-bench --release --bin <name>`):
//!
//! | Binary | Paper result |
//! |---|---|
//! | `fig1_weak_scaling` | Fig. 1 — 1k–9k Frontier nodes × 128 tasks |
//! | `fig2_gpu_scaling` | Fig. 2 — 10–100 nodes × 8 GPUs, Celeritas |
//! | `fig3_launch_rate` | Fig. 3 — tasks/s vs instances on Perlmutter |
//! | `fig4_shifter` | Fig. 4 — Shifter container launch rate |
//! | `fig5_podman` | Fig. 5 — Podman-HPC launch rate + failures |
//! | `tab_overhead_comparison` | §II — WMS vs parallel overhead |
//! | `tab_darshan_pipeline` | §IV-B — staged NVMe prefetch pipeline |
//! | `tab_data_motion` | §IV-E — DTN transfer + baselines |
//! | `tab_srun_vs_parallel` | §IV — srun-per-task vs parallel dispatch |
//!
//! The `gate` binary runs the regression gates: [`harness::GATES`] is
//! the one table of checked-in floors, and each gate's workload lives
//! in its own module:
//!
//! | Gate | Module | Workload |
//! |---|---|---|
//! | `launch` | [`gate`] | 10k in-process no-ops at `-j 64`, bus-observed |
//! | `spawn` | [`spawngate`] | 1k real `/bin/true` launches at `-j 8` |
//! | `sim` | [`simgate`] | fault-replay DES, 128 nodes × 1,024 tasks |
//! | `net` | [`netgate`] | 100k tasks over 8 local agents vs in-process |
//! | `pilot` | [`pilotgate`] | 24 pilot sessions, then 1:2:4 fair share |
//! | `dag_wide`, `dag_deep`, `dag_diamond` | [`daggate`] | 100k-task DAGs at `-j 64` |
//!
//! Under `cargo test`, each gate's `*_rate_gate.rs` test file checks its
//! rows at the debug floors through [`harness::run`] and runs its
//! [`harness::drill`].

use std::fmt::Display;

pub mod daggate;
pub mod gate;
pub mod harness;
pub mod netgate;
pub mod pilotgate;
pub mod simgate;
pub mod spawngate;

/// Print a fixed-width table row from cells.
pub fn row<D: Display>(cells: &[D], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{:>width$}", c.to_string(), width = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Print a header + underline.
pub fn header(cells: &[&str], widths: &[usize]) -> String {
    let head = row(cells, widths);
    let line = "-".repeat(head.len());
    format!("{head}\n{line}")
}

/// Standard preamble for a regenerator binary.
pub fn preamble(fig: &str, claim: &str) {
    println!("== {fig} ==");
    println!("paper: {claim}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_align() {
        let r = row(&["a", "bb", "ccc"], &[4, 4, 6]);
        assert_eq!(r, "   a    bb     ccc");
    }

    #[test]
    fn header_underlines_full_width() {
        let h = header(&["x", "y"], &[3, 3]);
        let mut lines = h.lines();
        let head = lines.next().unwrap();
        let under = lines.next().unwrap();
        assert_eq!(head.len(), under.len());
        assert!(under.chars().all(|c| c == '-'));
    }
}
