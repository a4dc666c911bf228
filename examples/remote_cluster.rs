//! Multi-host dispatch: `--sshlogin` as a library.
//!
//! The paper distributes across nodes with a Slurm driver script; GNU
//! Parallel's native alternative is `--sshlogin 8/node01,8/node02 ...`.
//! This example builds a 3-"node" cluster whose ssh transport is a local
//! shim (we have no real remote hosts), runs 24 jobs across it, and
//! shows the per-host placement the slot-aware pool produced.

use std::collections::BTreeMap;

use htpar_core::prelude::*;
use htpar_core::sshexec::multi_host_from_specs;
use htpar_examples::Workspace;

fn main() -> Result<()> {
    let ws = Workspace::new("remote");
    // A stand-in for ssh: prints the target host, then joins the remote
    // words with spaces and runs them locally, as OpenSSH's remote shell
    // does — the data path is identical, minus the network.
    let shim = ws.path("fake-ssh");
    std::fs::write(
        &shim,
        "#!/bin/sh\n# argv: -o BatchMode=yes <host> -- <remote words>\nhost=$3\nshift 4\nout=$(sh -c \"$*\")\necho \"[$host] $out\"\n",
    )?;
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&shim, std::fs::Permissions::from_mode(0o755))?;
    }

    // parallel -S 4/node01,2/node02,2/node03 ...
    let multi = multi_host_from_specs(
        &["4/node01", "2/node02", "2/node03"],
        1,
        &shim.display().to_string(),
    )?;
    let pool = std::sync::Arc::clone(multi.pool());
    println!(
        "cluster: {} hosts, {} total slots",
        pool.dispatched().len(),
        pool.total_slots()
    );

    let report = Parallel::new("echo task-{} on $(hostname) pid $$ | cut -d' ' -f1-2")
        .jobs(pool.total_slots())
        .keep_order(true)
        .executor(multi)
        .args((1..=24).map(|i| i.to_string()))
        .on_result(|r| print!("{}", r.stdout))
        .run()?;
    println!();
    println!("placement (slot-aware, least-loaded host wins):");
    let placement: BTreeMap<String, u64> = pool.dispatched().into_iter().collect();
    for (host, jobs) in &placement {
        println!("  {host}: {jobs} jobs");
    }
    let total: u64 = placement.values().sum();
    assert_eq!(total, 24);
    println!(
        "\nall {} jobs succeeded: {}",
        report.jobs_total,
        report.all_succeeded()
    );
    Ok(())
}
