//! The unified experiment CLI: `speakup list`, `speakup run <name>...`.
//!
//! All logic lives in [`speakup_exp::driver`] so tests exercise the same
//! code path; this binary only wires argv, stdout, and stderr together.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match speakup_exp::driver::parse(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("speakup: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut out = std::io::stdout().lock();
    // Unlocked on purpose: pool workers and shard threads write warnings,
    // watchdog dumps and panic messages to stderr while `dispatch` runs.
    let mut progress = std::io::stderr();
    match speakup_exp::driver::dispatch(&cmd, &mut out, &mut progress) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("speakup: {e}");
            ExitCode::FAILURE
        }
    }
}
