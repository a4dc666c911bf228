//! §IV-D — GPU isolation with Celeritas-style tasks.
//!
//! The paper's idiom:
//!
//! ```text
//! parallel -j8 HIP_VISIBLE_DEVICES="$(({%} - 1))" celer-sim {} \
//!     > outdir/{}.out ::: *.inp.json
//! ```
//!
//! Each of the 8 slots is pinned to one GPU via the slot number `{%}`.
//! Here the input files are real `.inp.json` files on disk, the kernel
//! is the toy Monte Carlo transport from `htpar-workloads`, and the
//! "GPU" binding is checked: with isolation every device gets work; a
//! broken binding would pile everything on device 0.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use htpar_core::prelude::*;
use htpar_examples::Workspace;
use htpar_workloads::celeritas::{device_for_slot, run_sim, CelerInput};

fn main() -> Result<()> {
    let ws = Workspace::new("gpu");
    // Write 16 .inp.json problem files (two rounds over 8 GPUs).
    let mut inputs = Vec::new();
    for i in 0..16u64 {
        let input = CelerInput::benchmark(20_000 + 1_000 * i, i);
        let path = ws.path(&format!("run{i:02}.inp.json"));
        std::fs::write(&path, input.to_json())?;
        inputs.push(path.display().to_string());
    }
    println!(
        "wrote {} .inp.json inputs under {}",
        inputs.len(),
        ws.root.display()
    );

    let by_device: Arc<Mutex<BTreeMap<u32, u32>>> = Arc::default();
    let tally = Arc::clone(&by_device);
    Parallel::new("HIP_VISIBLE_DEVICES={%} celer-sim {}")
        .jobs(8)
        .keep_order(true)
        .executor(FnExecutor::new(move |cmd| {
            // The binding the template expresses: slot {%} → device slot-1.
            let device = device_for_slot(cmd.slot);
            let json = std::fs::read_to_string(&cmd.args[0]).map_err(|e| e.to_string())?;
            let input = CelerInput::from_json(&json).map_err(|e| e.to_string())?;
            let output = run_sim(&input, device);
            Ok(TaskOutput::stdout(format!(
                "{}: transmitted {}/{} (mean exit {:.0} MeV) on GPU {}\n",
                cmd.args[0].rsplit('/').next().unwrap_or("?"),
                output.transmitted,
                output.primaries,
                output.mean_exit_energy_mev,
                device,
            )))
        }))
        .args(inputs)
        .on_result(move |r| {
            print!("{}", r.stdout);
            *tally
                .lock()
                .expect("device tally poisoned")
                .entry(device_for_slot(r.slot))
                .or_insert(0) += 1;
        })
        .run()?;

    println!("\nwork distribution across GPUs:");
    let mut devices_used = 0;
    for (device, tasks) in by_device.lock().expect("device tally poisoned").iter() {
        println!("  GPU {device}: {tasks} tasks");
        devices_used += 1;
    }
    println!("devices used: {devices_used}/8 — the {{%}} idiom spread work over every GPU");
    Ok(())
}
