//! Property tests for the process-boundary codecs: fleet/node kv
//! documents and address-file/`C3_NODES` discovery. Everything that
//! crosses an exec boundary must round-trip bit-exactly, and every
//! malformed or sparse input must fail loudly — a silently shifted
//! replica index would have the client grading the wrong node.

use std::net::{Ipv4Addr, SocketAddr};

use c3_cluster::{FaultEvent, FaultKind, FaultPlan};
use c3_core::Nanos;
use c3_live_node::{
    encode_addresses, parse_addresses, parse_env, DiscoveryError, FleetConfig, NodeConfig,
};
use proptest::prelude::*;

fn addr(host: u8, port: u16) -> SocketAddr {
    (Ipv4Addr::new(127, 0, host, 1), port.max(1)).into()
}

fn fleet_from(replicas: usize, seed: u64, faults: Vec<(u8, u8, u32, u32, u32)>) -> FleetConfig {
    FleetConfig {
        replicas,
        concurrency: 1 + replicas % 4,
        disk: if seed.is_multiple_of(2) {
            c3_cluster::DiskKind::Ssd
        } else {
            c3_cluster::DiskKind::Spinning
        },
        read_fraction: (seed % 101) as f64 / 100.0,
        value_bytes: 64 + (seed % 4096) as u32,
        seed,
        faults: FaultPlan {
            events: faults
                .into_iter()
                .map(|(node, kind, start, span, magnitude)| {
                    // A decoded plan is validated against the fleet: keep
                    // every episode on a node of it, every slow multiplier
                    // at least 1, and every other magnitude in [0, 1) so
                    // it suits each kind.
                    let kind = match kind % 5 {
                        0 => FaultKind::Crash,
                        1 => FaultKind::ConnReset,
                        2 => FaultKind::RespDrop,
                        3 => FaultKind::RespDelay,
                        _ => FaultKind::Slow,
                    };
                    let magnitude = f64::from(magnitude) / 64.0;
                    FaultEvent {
                        node: usize::from(node) % replicas,
                        kind,
                        start: Nanos(u64::from(start)),
                        end: Nanos(u64::from(start) + u64::from(span) + 1),
                        magnitude: if kind == FaultKind::Slow {
                            1.0 + magnitude * 4.0
                        } else {
                            magnitude
                        },
                    }
                })
                .collect(),
        },
    }
}

proptest! {
    #[test]
    fn fleet_kv_round_trips(
        replicas in 1usize..9,
        seed in 0u64..u64::MAX,
        faults in proptest::collection::vec((0u8..8, 0u8..10, 0u32..1_000_000, 0u32..1_000_000, 0u32..64), 0..9),
    ) {
        let fleet = fleet_from(replicas, seed, faults);
        let decoded = FleetConfig::from_kv(&fleet.to_kv()).expect("canonical text decodes");
        prop_assert_eq!(&decoded, &fleet);
        prop_assert_eq!(decoded.digest(), fleet.digest(), "digest is a pure function of the text");
    }

    #[test]
    fn node_kv_round_trips_and_digest_ignores_identity(
        replicas in 1usize..9,
        seed in 0u64..u64::MAX,
        id in 0u8..8,
        host in 0u8..255,
        port in 1u16..u16::MAX,
    ) {
        let fleet = fleet_from(replicas, seed, Vec::new());
        let node = NodeConfig {
            replica_id: u32::from(id) % replicas as u32,
            bind: addr(host, port),
            fleet: fleet.clone(),
        };
        let decoded = NodeConfig::from_kv(&node.to_kv()).expect("canonical text decodes");
        prop_assert_eq!(decoded.fleet.digest(), fleet.digest());
        prop_assert_eq!(decoded, node);
    }

    #[test]
    fn any_fleet_digest_tracks_the_seed(replicas in 1usize..9, seed in 0u64..u64::MAX - 1) {
        let a = fleet_from(replicas, seed, Vec::new());
        let mut b = a.clone();
        b.seed = seed + 1;
        prop_assert!(a.digest() != b.digest(), "fleet-wide knobs must move the digest");
    }

    #[test]
    fn address_files_round_trip(
        hosts in proptest::collection::vec((0u8..255, 1u16..u16::MAX), 1..12),
    ) {
        let addrs: Vec<SocketAddr> = hosts.into_iter().map(|(h, p)| addr(h, p)).collect();
        prop_assert_eq!(parse_addresses(&encode_addresses(&addrs)).expect("dense file"), addrs);
    }

    #[test]
    fn dropping_any_interior_line_is_a_gap(
        hosts in proptest::collection::vec((0u8..255, 1u16..u16::MAX), 2..8),
        drop_at in 0usize..7,
    ) {
        let addrs: Vec<SocketAddr> = hosts.into_iter().map(|(h, p)| addr(h, p)).collect();
        // Only interior drops leave a gap: losing the *last* line yields
        // a smaller but still dense (and thus valid) fleet.
        prop_assume!(drop_at < addrs.len() - 1);
        let text: String = encode_addresses(&addrs)
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != drop_at)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        prop_assert_eq!(parse_addresses(&text), Err(DiscoveryError::Gap { missing: drop_at }));
    }

    #[test]
    fn env_lists_round_trip_under_any_separator(
        hosts in proptest::collection::vec((0u8..255, 1u16..u16::MAX), 1..8),
        sep in 0u8..4,
    ) {
        let addrs: Vec<SocketAddr> = hosts.into_iter().map(|(h, p)| addr(h, p)).collect();
        let sep = [",", " ", "\n", ", "][sep as usize % 4];
        let value = addrs.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(sep);
        prop_assert_eq!(parse_env(&value).expect("well-formed list"), addrs);
    }

    #[test]
    fn corrupting_one_fleet_value_never_decodes_silently(
        replicas in 1usize..9,
        seed in 0u64..u64::MAX,
        line in 0usize..7,
    ) {
        let fleet = fleet_from(replicas, seed, Vec::new());
        let text: String = fleet
            .to_kv()
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == line {
                    let key = l.split_once('=').expect("canonical line").0;
                    format!("{key}=definitely-not-a-{key}\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        prop_assert!(FleetConfig::from_kv(&text).is_err(), "corrupt value for line {} must not parse", line);
    }
}
