//! Command-line entry of the repository benchmark; see the library docs.
//!
//! `--serve-child DIR [--telemetry]` is the server mode the `serve_mixed`
//! workload starts this binary in.

use std::process::ExitCode;

use rlleg_perfbench::{run, serve_mixed, Options};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve-child") {
        let Some(dir) = args.get(1) else {
            eprintln!("--serve-child needs a data directory");
            return ExitCode::from(2);
        };
        let telemetry = args.iter().any(|a| a == "--telemetry");
        return match serve_mixed::child_main(dir.into(), telemetry) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let options = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(out) => {
            let render = |v| serde_json::to_string(v).expect("plain values serialize");
            println!("{}", render(&out.full));
            println!("{}", render(&out.result));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
