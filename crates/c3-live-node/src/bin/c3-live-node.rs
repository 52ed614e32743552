//! One replica, one process: load a [`NodeConfig`] kv file, serve until
//! stdin reaches EOF.
//!
//! Protocol with the supervisor (or an operator's shell):
//!
//! 1. `c3-live-node --config <path>` binds the configured address and
//!    starts the replica (frame server, sharded store, one service
//!    thread timing `concurrency` service slots, disk model, fault
//!    replay — the same [`ReplicaServer`] the in-process cluster runs).
//! 2. It prints exactly one line on stdout — `<replica_id>=<addr>` with
//!    the learned port — then nothing else. Coordinators parse that
//!    line; operators can paste it into an address file.
//! 3. It serves until stdin reaches EOF (supervisor closed the pipe, or
//!    Ctrl-D interactively), then shuts down cleanly. A SIGKILL at any
//!    point is the crash-flux scenario's real crash.

use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;

use c3_core::WallClock;
use c3_live::{NoSlowdown, ReplicaServer};
use c3_live_node::NodeConfig;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("c3-live-node: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let config_path = match (args.next().as_deref(), args.next()) {
        (Some("--config"), Some(path)) => path,
        _ => return Err("usage: c3-live-node --config <path>".to_string()),
    };
    if args.next().is_some() {
        return Err("usage: c3-live-node --config <path>".to_string());
    }
    let text =
        std::fs::read_to_string(&config_path).map_err(|e| format!("reading {config_path}: {e}"))?;
    let cfg = NodeConfig::from_kv(&text).map_err(|e| format!("parsing {config_path}: {e}"))?;

    let server = ReplicaServer::bind(
        &cfg.replica_spec(),
        cfg.bind,
        Arc::new(NoSlowdown),
        WallClock::start(),
    )
    .map_err(|e| format!("binding {}: {e}", cfg.bind))?;

    // The one contractual stdout line: id=learned-address.
    println!("{}={}", cfg.replica_id, server.addr());
    use std::io::Write as _;
    std::io::stdout()
        .flush()
        .map_err(|e| format!("announcing address: {e}"))?;

    // Serve until the supervisor closes our stdin.
    let mut sink = [0u8; 4096];
    let mut stdin = std::io::stdin();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("waiting on stdin: {e}")),
        }
    }
    server.shutdown();
    Ok(())
}
