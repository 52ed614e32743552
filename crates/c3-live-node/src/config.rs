//! Fleet and node configuration: the kv documents that cross the
//! process boundary, and the digest that keeps a fleet honest.
//!
//! A node process must agree with the coordinator (and with every other
//! node) on the *fleet-wide* parameters — disk model, adversity timeline
//! (slow windows and faults), seed — or the experiment silently measures a
//! chimera. [`FleetConfig`] is exactly that shared slice of
//! [`LiveConfig`], canonically encodable as `key=value` text; its
//! FNV-1a [`FleetConfig::digest`] rides in every node's hello frame so
//! the client hard-aborts on a stale node instead of blending two
//! configurations into one report.

use std::net::SocketAddr;

use c3_cluster::{DiskKind, FaultEvent, FaultKind, FaultPlan};
use c3_core::kv::{encode_kv, KvError, KvMap};
use c3_core::Nanos;
use c3_live::{LiveConfig, ReplicaSpec};
use c3_net::proto::Hello;

/// The fleet-wide parameters every node process must share: the subset
/// of [`LiveConfig`] that shapes replica-side behaviour. Client-side
/// knobs (threads, in-flight budget, strategy, key distribution) stay
/// out — they are the coordinator's business and changing them must not
/// change the fleet digest.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetConfig {
    /// Fleet size; each node learns it to validate its own id.
    pub replicas: usize,
    /// Service slots per replica.
    pub concurrency: usize,
    /// Disk model service times are sampled from.
    pub disk: DiskKind,
    /// Read fraction the disk model is parameterized with.
    pub read_fraction: f64,
    /// Nominal record size for GET service-time sampling.
    pub value_bytes: u32,
    /// Fleet seed; each replica derives its own rng stream from it.
    pub seed: u64,
    /// Adversity timeline (slow windows and faults), replayed against
    /// wall time. Never holds a [`FaultKind::Crash`] episode: node
    /// crashes are real SIGKILLs delivered by the supervisor, not
    /// emulation ([`FleetConfig::from_live`]).
    pub faults: FaultPlan,
}

impl FleetConfig {
    /// The fleet slice of a live config, verbatim except for the fault
    /// plan's [`FaultKind::Crash`] episodes, which are dropped: a node
    /// must not emulate a crash the supervisor inflicts for real. Every
    /// other episode keeps its plan order.
    pub fn from_live(cfg: &LiveConfig) -> Self {
        let mut faults = cfg.faults.clone();
        faults.events.retain(|e| e.kind != FaultKind::Crash);
        Self {
            replicas: cfg.replicas,
            concurrency: cfg.concurrency,
            disk: cfg.disk,
            read_fraction: cfg.read_fraction,
            value_bytes: cfg.value_bytes,
            seed: cfg.seed,
            faults,
        }
    }

    /// Canonical kv text. [`FleetConfig::digest`] hashes exactly these
    /// bytes, so field order here is part of the handshake contract.
    pub fn to_kv(&self) -> String {
        encode_kv([
            ("replicas", self.replicas.to_string()),
            ("concurrency", self.concurrency.to_string()),
            ("disk", disk_value(self.disk).to_string()),
            ("read_fraction", self.read_fraction.to_string()),
            ("value_bytes", self.value_bytes.to_string()),
            ("seed", self.seed.to_string()),
            ("faults", faults_value(&self.faults)),
        ])
    }

    /// Decode from a map that may also hold node-local keys (the node
    /// config document embeds the fleet keys alongside its own).
    ///
    /// A fault plan that [`FaultPlan::validate`] refuses for this fleet
    /// is an error naming the first offending episode.
    pub(crate) fn from_kv_map(kv: &mut KvMap) -> Result<Self, KvError> {
        let fleet = Self {
            replicas: kv.take_required("replicas", "usize")?,
            concurrency: kv.take_required("concurrency", "usize")?,
            disk: parse_disk(kv.take_required::<String>("disk", "ssd|spinning")?)?,
            read_fraction: kv.take_required("read_fraction", "f64")?,
            value_bytes: kv.take_required("value_bytes", "u32")?,
            seed: kv.take_required("seed", "u64")?,
            faults: parse_faults(kv.take_required::<String>(
                "faults",
                "semicolon-joined node:kind:start_ns:end_ns:magnitude or \"none\"",
            )?)?,
        };
        if let Err(e) = fleet.faults.validate(fleet.replicas) {
            return Err(KvError::Invalid {
                key: "faults".to_string(),
                value: fault_value(&fleet.faults.events[e.index]),
                expected: e.needs,
            });
        }
        Ok(fleet)
    }

    /// Decode a standalone fleet document (no leftovers allowed).
    pub fn from_kv(text: &str) -> Result<Self, KvError> {
        let mut kv = KvMap::parse(text)?;
        let fleet = Self::from_kv_map(&mut kv)?;
        kv.finish()?;
        Ok(fleet)
    }

    /// FNV-1a 64 over the canonical kv text. Two processes agree on the
    /// digest iff they agree on every fleet parameter; the client
    /// compares it against each node's hello.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_kv().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

/// Everything one node process needs: which replica it is, where to
/// bind, and the shared fleet parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeConfig {
    /// This process's replica id within the fleet.
    pub replica_id: u32,
    /// Listen address. Port 0 asks the kernel for an ephemeral port; the
    /// node prints the learned address on stdout. A respawned node gets
    /// its predecessor's learned port here so clients can redial it.
    pub bind: SocketAddr,
    /// The fleet-wide parameters (digest source).
    pub fleet: FleetConfig,
}

impl NodeConfig {
    /// Canonical kv text: node-local keys first, then the fleet keys.
    pub fn to_kv(&self) -> String {
        let mut out = encode_kv([
            ("replica_id", self.replica_id.to_string()),
            ("bind", self.bind.to_string()),
        ]);
        out.push_str(&self.fleet.to_kv());
        out
    }

    /// Decode a node config document.
    pub fn from_kv(text: &str) -> Result<Self, KvError> {
        let mut kv = KvMap::parse(text)?;
        let replica_id = kv.take_required("replica_id", "u32")?;
        let bind = kv.take_required("bind", "socket address")?;
        let fleet = FleetConfig::from_kv_map(&mut kv)?;
        kv.finish()?;
        let cfg = Self {
            replica_id,
            bind,
            fleet,
        };
        if (cfg.replica_id as usize) >= cfg.fleet.replicas {
            return Err(KvError::Invalid {
                key: "replica_id".to_string(),
                value: cfg.replica_id.to_string(),
                expected: "a replica id below `replicas`",
            });
        }
        Ok(cfg)
    }

    /// The replica spec this node runs: fleet parameters plus a hello
    /// announcing `(replica_id, fleet digest)` as the first frame on
    /// every accepted connection.
    pub fn replica_spec(&self) -> ReplicaSpec {
        ReplicaSpec {
            id: self.replica_id as usize,
            concurrency: self.fleet.concurrency,
            disk: self.fleet.disk,
            read_fraction: self.fleet.read_fraction,
            value_bytes: self.fleet.value_bytes,
            seed: self.fleet.seed,
            faults: self.fleet.faults.clone(),
            hello: Some(Hello {
                replica_id: self.replica_id,
                config_digest: self.fleet.digest(),
            }),
        }
    }
}

fn disk_value(disk: DiskKind) -> &'static str {
    match disk {
        DiskKind::Ssd => "ssd",
        DiskKind::Spinning => "spinning",
    }
}

fn parse_disk(v: String) -> Result<DiskKind, KvError> {
    match v.as_str() {
        "ssd" => Ok(DiskKind::Ssd),
        "spinning" => Ok(DiskKind::Spinning),
        _ => Err(KvError::Invalid {
            key: "disk".to_string(),
            value: v,
            expected: "ssd|spinning",
        }),
    }
}

fn fault_kind_value(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Crash => "crash",
        FaultKind::ConnReset => "conn-reset",
        FaultKind::RespDrop => "resp-drop",
        FaultKind::RespDelay => "resp-delay",
        FaultKind::Slow => "slow",
    }
}

fn faults_value(plan: &FaultPlan) -> String {
    if plan.is_empty() {
        return "none".to_string();
    }
    plan.events
        .iter()
        .map(fault_value)
        .collect::<Vec<_>>()
        .join(";")
}

fn fault_value(e: &FaultEvent) -> String {
    format!(
        "{}:{}:{}:{}:{}",
        e.node,
        fault_kind_value(e.kind),
        e.start.as_nanos(),
        e.end.as_nanos(),
        e.magnitude
    )
}

fn parse_faults(v: String) -> Result<FaultPlan, KvError> {
    const EXPECTED: &str = "node:kind:start_ns:end_ns:magnitude";
    if v == "none" {
        return Ok(FaultPlan::none());
    }
    let events = v
        .split(';')
        .map(|entry| {
            let invalid = || KvError::Invalid {
                key: "faults".to_string(),
                value: entry.to_string(),
                expected: EXPECTED,
            };
            let mut parts = entry.split(':');
            let node = next_parsed(&mut parts).ok_or_else(invalid)?;
            let kind = match parts.next().ok_or_else(invalid)? {
                "crash" => FaultKind::Crash,
                "conn-reset" => FaultKind::ConnReset,
                "resp-drop" => FaultKind::RespDrop,
                "resp-delay" => FaultKind::RespDelay,
                "slow" => FaultKind::Slow,
                _ => return Err(invalid()),
            };
            let event = FaultEvent {
                node,
                kind,
                start: Nanos(next_parsed(&mut parts).ok_or_else(invalid)?),
                end: Nanos(next_parsed(&mut parts).ok_or_else(invalid)?),
                magnitude: next_parsed(&mut parts).ok_or_else(invalid)?,
            };
            if parts.next().is_some() {
                return Err(invalid());
            }
            Ok(event)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FaultPlan { events })
}

fn next_parsed<'a, T: std::str::FromStr>(parts: &mut impl Iterator<Item = &'a str>) -> Option<T> {
    parts.next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fleet() -> FleetConfig {
        FleetConfig {
            replicas: 3,
            concurrency: 4,
            disk: DiskKind::Ssd,
            read_fraction: 0.9,
            value_bytes: 1024,
            seed: 7,
            faults: FaultPlan {
                events: vec![
                    FaultEvent {
                        node: 2,
                        kind: FaultKind::Slow,
                        start: Nanos::ZERO,
                        end: Nanos::MAX,
                        magnitude: 3.0,
                    },
                    FaultEvent {
                        node: 1,
                        kind: FaultKind::RespDelay,
                        start: Nanos::from_millis(60),
                        end: Nanos::from_millis(300),
                        magnitude: 40.0,
                    },
                ],
            },
        }
    }

    #[test]
    fn fleet_kv_round_trips() {
        let fleet = sample_fleet();
        let decoded = FleetConfig::from_kv(&fleet.to_kv()).expect("decodes");
        assert_eq!(decoded, fleet);
    }

    #[test]
    fn node_kv_round_trips() {
        let node = NodeConfig {
            replica_id: 2,
            bind: "127.0.0.1:0".parse().unwrap(),
            fleet: sample_fleet(),
        };
        let decoded = NodeConfig::from_kv(&node.to_kv()).expect("decodes");
        assert_eq!(decoded, node);
    }

    #[test]
    fn digest_ignores_node_local_keys_but_tracks_fleet_keys() {
        let fleet = sample_fleet();
        let mut other = fleet.clone();
        assert_eq!(fleet.digest(), other.digest());
        other.seed = 8;
        assert_ne!(fleet.digest(), other.digest(), "seed is fleet-wide");
        let node_a = NodeConfig {
            replica_id: 0,
            bind: "127.0.0.1:4100".parse().unwrap(),
            fleet: fleet.clone(),
        };
        let node_b = NodeConfig {
            replica_id: 2,
            bind: "127.0.0.1:4102".parse().unwrap(),
            fleet,
        };
        assert_eq!(
            node_a.fleet.digest(),
            node_b.fleet.digest(),
            "identity and address are not part of the fleet contract"
        );
    }

    #[test]
    fn out_of_range_replica_id_is_rejected() {
        let node = NodeConfig {
            replica_id: 3,
            bind: "127.0.0.1:0".parse().unwrap(),
            fleet: sample_fleet(),
        };
        let err = NodeConfig::from_kv(&node.to_kv()).unwrap_err();
        assert!(matches!(err, KvError::Invalid { ref key, .. } if key == "replica_id"));
    }

    #[test]
    fn replica_spec_announces_identity_and_digest() {
        let node = NodeConfig {
            replica_id: 1,
            bind: "127.0.0.1:0".parse().unwrap(),
            fleet: sample_fleet(),
        };
        let spec = node.replica_spec();
        assert_eq!(spec.id, 1);
        let hello = spec.hello.expect("nodes always announce");
        assert_eq!(hello.replica_id, 1);
        assert_eq!(hello.config_digest, node.fleet.digest());
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let mut text = sample_fleet().to_kv();
        text.push_str("bogus=1\n");
        let err = FleetConfig::from_kv(&text).unwrap_err();
        assert!(matches!(err, KvError::Unknown { ref key } if key == "bogus"));
    }

    /// `sample_fleet`'s document with its one fault episode replaced by
    /// `episode`, decoded as a node config.
    fn node_with_fault(episode: &str) -> Result<NodeConfig, KvError> {
        let node = NodeConfig {
            replica_id: 0,
            bind: "127.0.0.1:0".parse().unwrap(),
            fleet: sample_fleet(),
        };
        let text = node.to_kv().replace(
            &format!("faults={}", faults_value(&node.fleet.faults)),
            &format!("faults={episode}"),
        );
        NodeConfig::from_kv(&text)
    }

    #[test]
    fn invalid_fault_episodes_are_rejected() {
        for (episode, needs) in [
            ("3:crash:0:1000:0", "a node below the fleet size"),
            ("1:crash:5000:1000:0", "an end after its start"),
            ("1:conn-reset:1000:1000:0", "an end after its start"),
            ("1:resp-drop:0:1000:1.5", "a drop probability in [0, 1]"),
            ("1:resp-delay:0:1000:-4", "a finite, non-negative delay"),
            ("1:resp-delay:0:1000:inf", "a finite, non-negative delay"),
            ("3:slow:0:1000:3", "a node below the fleet size"),
            ("1:slow:1000:1000:3", "an end after its start"),
            ("1:slow:0:1000:0.5", "a finite multiplier of at least 1"),
            ("1:slow:0:1000:0", "a finite multiplier of at least 1"),
            ("1:slow:0:1000:NaN", "a finite multiplier of at least 1"),
            ("1:slow:0:1000:inf", "a finite multiplier of at least 1"),
        ] {
            let err = node_with_fault(episode).unwrap_err();
            assert_eq!(
                err,
                KvError::Invalid {
                    key: "faults".to_string(),
                    value: episode.to_string(),
                    expected: needs,
                },
                "{episode}"
            );
        }
        assert!(node_with_fault("2:resp-drop:0:1000:1").is_ok());
        assert!(node_with_fault("2:slow:0:18446744073709551615:3").is_ok());
    }

    #[test]
    fn empty_plan_encodes_as_none() {
        let mut fleet = sample_fleet();
        fleet.faults = FaultPlan::none();
        assert!(fleet.to_kv().contains("faults=none"));
        assert_eq!(FleetConfig::from_kv(&fleet.to_kv()).unwrap(), fleet);
    }

    #[test]
    fn from_live_drops_crashes_and_keeps_every_other_episode_in_order() {
        let mut faults = FaultPlan::tiers(&[1.0, 2.0, 3.0], 6);
        faults
            .events
            .extend(FaultPlan::crash_flux(3, 6, Nanos::from_secs(10)).events);
        faults.events.extend(FaultPlan::tiers(&[4.0], 6).events);
        let cfg = LiveConfig {
            replicas: 6,
            faults,
            ..LiveConfig::default()
        };
        let mut kept = cfg.faults.events.clone();
        kept.retain(|e| e.kind == FaultKind::Slow);
        assert_eq!(kept.len(), 4 + 6, "the crash-flux plan holds only crashes");
        assert_eq!(FleetConfig::from_live(&cfg).faults.events, kept);
    }
}
