//! The `htpar` binary.

use std::io::Write;

use htpar_cli::args::{parse_args, USAGE};
use htpar_cli::exec::{execute_observed, exit_code, telemetry_from_env};

fn main() {
    // Agent-mode re-exec hook: `--local-cluster` children become node
    // agents here and never reach the CLI parser.
    htpar_net::local::maybe_become_agent();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = htpar_cli::netcmd::dispatch(&argv) {
        std::process::exit(code);
    }
    let spec = match parse_args(&argv) {
        Ok(spec) => spec,
        Err(e) => std::process::exit(e.exit("htpar", USAGE)),
    };
    if spec.version {
        println!("htpar {}", env!("CARGO_PKG_VERSION"));
        return;
    }

    let stdin = std::io::BufReader::new(std::io::stdin());
    let bus = telemetry_from_env();
    let result = execute_observed(
        spec,
        stdin,
        |out, err| {
            // Grouped per-job output, like GNU's default --group.
            if !out.is_empty() {
                let stdout = std::io::stdout();
                let mut lock = stdout.lock();
                let _ = lock.write_all(out.as_bytes());
            }
            if !err.is_empty() {
                let stderr = std::io::stderr();
                let mut lock = stderr.lock();
                let _ = lock.write_all(err.as_bytes());
            }
        },
        bus,
    );

    match result {
        Ok(report) => std::process::exit(exit_code(report.failed)),
        Err(e) => {
            eprintln!("htpar: {e}");
            std::process::exit(255);
        }
    }
}
