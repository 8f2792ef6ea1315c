//! Command-line driver.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints diagnostic lines (prefixed `#`) and, last, one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones and writes the spans
//! to `.bench_out/`. The hidden first argument `net-child` turns the
//! executable into a socket-backend child process. Exits without a result
//! line on any error: 2 for bad arguments, 1 for a failed run.

use perfbench::workloads::{self, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Socket files of the multi-process runs go here, relative to the
/// working directory, so a run writes only inside its checkout (and the
/// paths stay short enough for Unix-domain sockets).
const SOCKET_DIR: &str = ".bench_tmp";
/// Span files of traced runs.
const SPAN_DIR: &str = ".bench_out";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let name = flag(args, "--workload").ok_or("missing --workload <name>")?;
    let w = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seed: u64 = flag(args, "--seed")
        .ok_or("missing --seed <n>")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag(args, "--seconds")
        .ok_or("missing --seconds <s>")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let span_file = PathBuf::from(SPAN_DIR).join(format!("{}-seed{seed}.spans.jsonl", w.name));
    Ok((
        w,
        Options {
            seed,
            seconds,
            trace,
            child: dtm_net::ChildCommand {
                exe,
                prefix_args: vec!["net-child".to_string()],
            },
            span_file: Some(span_file),
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("net-child") {
        let code = dtm_net::child_main(&args[1..]);
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    let (w, opt) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(SOCKET_DIR) {
        eprintln!("perfbench: creating {SOCKET_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    // Still single-threaded: no other thread reads the environment yet.
    std::env::set_var("TMPDIR", SOCKET_DIR);
    let result = workloads::run(&w, &opt);
    let _ = std::fs::remove_dir_all(SOCKET_DIR);
    let line = result.and_then(|out| {
        for p in &out.problems {
            println!("# check failed: {p}");
        }
        out.to_json()
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}
