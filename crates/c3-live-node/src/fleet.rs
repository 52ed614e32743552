//! The process supervisor: spawn, crash, respawn and drain a fleet of
//! `c3-live-node` replica processes.
//!
//! One [`NodeFleet`] owns one OS process per replica. Each child gets
//! its [`NodeConfig`](crate::NodeConfig) as a kv temp file, prints its
//! learned `<id>=<addr>` line on stdout, then serves until its stdin
//! reaches EOF — which is also the shutdown protocol: the supervisor
//! closes stdin, waits briefly, and only SIGKILLs stragglers (counting
//! them, so tests can assert a clean fleet leaks zero children).
//! [`NodeFleet::kill`] is a real SIGKILL and [`NodeFleet::respawn`]
//! rebinds the learned port, which is what makes the node crash-flux
//! scenario's crashes *actual process deaths* rather than emulation.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::config::{FleetConfig, NodeConfig};
use crate::discovery::encode_addresses;

/// Environment variable overriding where the `c3-live-node` binary
/// lives (used when the coordinator is not a sibling of the node bin).
pub(crate) const NODE_BIN_ENV: &str = "C3_NODE_BIN";

/// Distinguishes this process's temp files from other fleets'.
static FILE_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// Locate the node binary: `C3_NODE_BIN` if set, else a
/// `c3-live-node` sibling of the current executable (the layout cargo
/// produces for workspace binaries). `None` when neither exists.
pub fn node_bin() -> Option<PathBuf> {
    if let Ok(path) = std::env::var(NODE_BIN_ENV) {
        let path = PathBuf::from(path);
        return path.is_file().then_some(path);
    }
    let exe = std::env::current_exe().ok()?;
    let sibling = exe.parent()?.join("c3-live-node");
    sibling.is_file().then_some(sibling)
}

struct NodeHandle {
    child: Child,
    addr: SocketAddr,
    config_path: PathBuf,
}

/// A running fleet of one-replica node processes.
pub struct NodeFleet {
    bin: PathBuf,
    fleet: FleetConfig,
    nodes: Vec<NodeHandle>,
    addrs: Vec<SocketAddr>,
    address_file: PathBuf,
}

impl NodeFleet {
    /// Spawn `fleet.replicas` node processes on ephemeral loopback
    /// ports, wait for each to report its learned address, and write an
    /// address file describing the fleet.
    pub fn spawn(bin: &Path, fleet: &FleetConfig) -> io::Result<Self> {
        let mut nodes = Vec::with_capacity(fleet.replicas);
        let mut addrs = Vec::with_capacity(fleet.replicas);
        for id in 0..fleet.replicas {
            let bind = "127.0.0.1:0".parse().expect("literal address");
            let node = match spawn_node(bin, fleet, id as u32, bind) {
                Ok(node) => node,
                Err(e) => {
                    // Abandoning a half-spawned fleet would leak
                    // children; drain the ones that did come up.
                    drain(&mut nodes, Duration::from_secs(2));
                    return Err(e);
                }
            };
            addrs.push(node.addr);
            nodes.push(node);
        }
        let address_file = temp_path("fleet", "addrs");
        std::fs::write(&address_file, encode_addresses(&addrs))?;
        Ok(Self {
            bin: bin.to_path_buf(),
            fleet: fleet.clone(),
            nodes,
            addrs,
            address_file,
        })
    }

    /// Replica-ordered node addresses. Stable across respawns (a
    /// respawned node rebinds its learned port).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Digest of the fleet configuration the nodes announce.
    pub fn digest(&self) -> u64 {
        self.fleet.digest()
    }

    /// OS pids, replica-ordered — the gauge sampler's targets. A killed
    /// replica keeps reporting its dead pid until respawned (samples of
    /// a dead pid are `None`, so its gauges simply pause).
    pub fn pids(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.child.id()).collect()
    }

    /// SIGKILL replica `id`'s process — a real crash: the kernel severs
    /// its connections mid-flight, nothing is flushed.
    pub fn kill(&mut self, id: usize) -> io::Result<()> {
        let node = &mut self.nodes[id];
        node.child.kill()?;
        // Reap, so the pid does not linger as a zombie that procfs
        // still answers for.
        node.child.wait()?;
        Ok(())
    }

    /// Restart replica `id` on its original (learned) port, so clients
    /// redialing the address from before the crash reach the newcomer.
    /// Retries briefly while the kernel releases the port.
    pub(crate) fn respawn(&mut self, id: usize) -> io::Result<()> {
        let addr = self.addrs[id];
        let mut last = None;
        for _ in 0..20 {
            match spawn_node(&self.bin, &self.fleet, id as u32, addr) {
                Ok(node) => {
                    let old = std::mem::replace(&mut self.nodes[id], node);
                    let _ = std::fs::remove_file(&old.config_path);
                    return Ok(());
                }
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// Drain the fleet: close every stdin (the graceful-exit signal),
    /// wait up to two seconds, then SIGKILL stragglers. Returns how many
    /// needed force — a healthy teardown returns 0, and the smoke tests
    /// assert exactly that (no leaked children).
    pub fn shutdown(mut self) -> usize {
        let forced = drain(&mut self.nodes, Duration::from_secs(2));
        let _ = std::fs::remove_file(&self.address_file);
        forced
    }
}

fn drain(nodes: &mut Vec<NodeHandle>, grace: Duration) -> usize {
    for node in nodes.iter_mut() {
        drop(node.child.stdin.take());
    }
    let deadline = std::time::Instant::now() + grace;
    let mut forced = 0;
    for node in nodes.iter_mut() {
        loop {
            match node.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    forced += 1;
                    let _ = node.child.kill();
                    let _ = node.child.wait();
                    break;
                }
            }
        }
        let _ = std::fs::remove_file(&node.config_path);
    }
    nodes.clear();
    forced
}

fn temp_path(tag: &str, ext: &str) -> PathBuf {
    let n = FILE_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("c3-node-{}-{tag}-{n}.{ext}", std::process::id()))
}

fn spawn_node(
    bin: &Path,
    fleet: &FleetConfig,
    replica_id: u32,
    bind: SocketAddr,
) -> io::Result<NodeHandle> {
    let cfg = NodeConfig {
        replica_id,
        bind,
        fleet: fleet.clone(),
    };
    let config_path = temp_path(&format!("r{replica_id}"), "kv");
    std::fs::write(&config_path, cfg.to_kv())?;
    let mut child = Command::new(bin)
        .arg("--config")
        .arg(&config_path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&config_path);
        })?;
    // The node's first stdout line is `<id>=<addr>` with the learned
    // port. EOF before that line means the process died on startup
    // (e.g. the port was still held) — surface it as an error so the
    // caller can retry or abort.
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    let announced = line
        .trim()
        .split_once('=')
        .and_then(|(id, addr)| Some((id.parse::<u32>().ok()?, addr.parse::<SocketAddr>().ok()?)));
    match announced {
        Some((id, addr)) if id == replica_id => Ok(NodeHandle {
            child,
            addr,
            config_path,
        }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&config_path);
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("node {replica_id} announced {line:?} instead of its id=addr line"),
            ))
        }
    }
}
