//! The `nomloc` command-line tool. Parsing and rendering live in
//! `nomloc_cli`; this binary only dispatches.

use nomloc_cli::{
    parse, run_campaign, run_chaos, run_loadgen, run_map, run_serve, run_venue_admin, run_venues,
    start_daemon, usage, Command, ServeSpec,
};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&args) {
        Ok(Command::Help) => Ok(usage()),
        Ok(Command::Venues) => Ok(run_venues()),
        Ok(Command::Campaign(spec)) => Ok(run_campaign(&spec)),
        Ok(Command::Map(spec)) => Ok(run_map(&spec)),
        Ok(Command::Serve(spec)) if spec.listen.is_some() => serve_daemon(&spec),
        Ok(Command::Serve(spec)) => Ok(run_serve(&spec)),
        Ok(Command::Loadgen(spec)) => run_loadgen(&spec),
        Ok(Command::VenueAdmin(spec)) => run_venue_admin(&spec),
        Ok(Command::Chaos(spec)) => run_chaos(&spec),
        Err(e) => Err(format!("{e}\nrun `nomloc help` for usage")),
    };
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the daemon until the response budget is spent (`--max-requests`),
/// or forever when the budget is 0; returns the drain-time health summary.
fn serve_daemon(spec: &ServeSpec) -> Result<String, String> {
    let handle = start_daemon(spec)?;
    println!("nomloc-net daemon listening on {}", handle.local_addr());
    while spec.max_requests == 0 || handle.responses_sent() < spec.max_requests as u64 {
        std::thread::sleep(Duration::from_millis(50));
    }
    Ok(handle.shutdown().to_string())
}
