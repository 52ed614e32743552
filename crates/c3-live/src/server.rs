//! The live replica fleet: N key-value servers on loopback TCP, each a
//! `TcpListener` with a reader thread per connection feeding a bounded
//! *executor pool*, a sharded in-memory store, and per-replica queue-size
//! accounting piggybacked on every response.
//!
//! Service times come from the same [`DiskModel`] the §5 cluster
//! simulates — sampled, scaled by the injected [`Slowdown`] hook at the
//! current wall time, then *actually slept* by one of the replica's
//! `concurrency` executor threads. Arrivals beyond the executor count
//! queue in the replica's FIFO job queue, so the `queue_size` a response
//! carries reflects genuine contention, exactly like the simulator's
//! `read_inflight + read_q`.
//!
//! Because execution is decoupled from the connection that delivered the
//! frame, responses leave in **completion order**, not arrival order — a
//! multiplexed client can therefore keep hundreds of requests in flight
//! on one connection and the replica interleaves them across its
//! executors, the behavior the correlation table on the client side
//! exists to absorb. Serial one-request-at-a-time clients observe exactly
//! the old semantics (their next frame is only read after they saw the
//! previous response).

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use bytes::{Bytes, BytesMut};
use c3_core::{Feedback, WallClock};
use c3_net::proto::{encode_hello, Frame, Hello, Request, Response, Status};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use c3_cluster::{DiskKind, DiskModel, FaultPlan};

use crate::config::LiveConfig;
use crate::slowdown::Slowdown;
use crate::wire::{read_frame, write_response};

/// Store shards per replica (keyed by `key % SHARDS`; coarse, but keeps
/// writers off each other's locks).
const SHARDS: usize = 16;

/// One unit of work for a replica's executor pool: the decoded request
/// plus the write half of the connection it arrived on (shared with that
/// connection's other in-flight jobs, so completed responses can leave
/// out of order but never interleave bytes).
struct Job {
    req: Request,
    writer: Arc<Mutex<TcpStream>>,
}

/// Shared state of one replica, seen by all its connection readers and
/// executor threads.
struct Replica {
    id: usize,
    shards: Vec<Mutex<HashMap<u64, Bytes>>>,
    /// Requests arrived but not yet responded (inflight + queued) — the
    /// `q_s` feedback C3 smooths into its queue-size estimate.
    pending: AtomicU32,
    /// FIFO of arrived-but-not-started requests, drained by the executor
    /// pool (the live analogue of the simulator node's read queue).
    queue: Mutex<VecDeque<Job>>,
    work: Condvar,
    stop: Arc<AtomicBool>,
    model: DiskModel,
    /// Service-time randomness, shared so the stream is seed-derived.
    rng: Mutex<SmallRng>,
    slowdown: Arc<dyn Slowdown>,
    /// Fault timeline replayed against wall time — the second injectable
    /// adversity hook next to [`Slowdown`]: where the slowdown hook makes
    /// this replica *slow*, the plan makes it *fail* (sever connections,
    /// swallow requests, drop or delay responses).
    faults: Arc<FaultPlan>,
    clock: WallClock,
    nominal_bytes: u32,
    /// First frame written on every accepted connection, when set. Node
    /// processes announce their replica id and fleet-config digest this
    /// way; in-process clusters leave it `None` (raw-socket harnesses and
    /// serial clients expect the first frame they read to be a response).
    hello: Option<Hello>,
}

impl Replica {
    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Bytes>> {
        &self.shards[(key % SHARDS as u64) as usize]
    }

    /// A request frame arrived: it counts as pending from this moment
    /// (matching the old slot-gate accounting, where the handler bumped
    /// `pending` before queueing for a slot).
    fn enqueue(&self, req: Request, writer: Arc<Mutex<TcpStream>>) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        self.queue
            .lock()
            .expect("queue poisoned")
            .push_back(Job { req, writer });
        self.work.notify_one();
    }

    /// Executor thread: pop jobs FIFO, execute, write the response to the
    /// job's own connection. Exits when the cluster stops (any still-
    /// queued jobs were abandoned by the client).
    fn executor_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue poisoned");
                loop {
                    if self.stop.load(Ordering::Acquire) {
                        return;
                    }
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = self.work.wait(queue).expect("queue poisoned");
                }
            };
            // A faulted execution produces no response: the request
            // vanished into a crash window or its response was dropped.
            // The client's deadline reaper is what gets its permit back.
            let Some(resp) = self.execute(job.req) else {
                continue;
            };
            // The client may already be gone at teardown; a failed
            // response write is its problem, not the replica's.
            let mut writer = job.writer.lock().expect("writer poisoned");
            let _ = write_response(&mut writer, &resp);
        }
    }

    /// Execute one request: sleep the sampled service time (scaled by the
    /// slowdown hook), touch the store, and build the response with fresh
    /// feedback. Returns `None` when the fault plan eats the request (a
    /// crash window at execution time) or its response (`RespDrop`).
    fn execute(&self, req: Request) -> Option<Response> {
        let arrived = self.clock.now();
        if self.faults.down(self.id, arrived) {
            // A crashed replica does no work: the request vanishes
            // without burning an executor's time.
            self.pending.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        let multiplier = self.slowdown.multiplier(self.id, arrived);
        let (id, key, put_value) = match req {
            Request::Get { id, key } => (id, key, None),
            Request::Put { id, key, value } => (id, key, Some(value)),
        };
        let record_bytes = put_value
            .as_ref()
            .map(|v| v.len() as u32)
            .unwrap_or(self.nominal_bytes);
        let service = {
            let mut rng = self.rng.lock().expect("rng poisoned");
            if put_value.is_some() {
                self.model.sample_write(&mut rng, record_bytes, multiplier)
            } else {
                self.model.sample_read(&mut rng, record_bytes, multiplier)
            }
        };
        std::thread::sleep(service.into());
        let after_service = self.clock.now();
        let extra = self.faults.extra_delay(self.id, after_service);
        if extra > c3_core::Nanos::ZERO {
            std::thread::sleep(extra.into());
        }

        let key_id = decode_key(&key);
        let (status, value) = match put_value {
            Some(value) => {
                self.shard(key_id)
                    .lock()
                    .expect("shard poisoned")
                    .insert(key_id, value);
                (Status::Ok, Bytes::new())
            }
            None => match self
                .shard(key_id)
                .lock()
                .expect("shard poisoned")
                .get(&key_id)
            {
                Some(v) => (Status::Ok, v.clone()),
                None => (Status::NotFound, Bytes::new()),
            },
        };

        // Pending *after* this request left, like the simulator reports
        // the node's remaining read queue when the response departs.
        let pending_after = self
            .pending
            .fetch_sub(1, Ordering::AcqRel)
            .saturating_sub(1);
        // Response-side faults: the work was done (store touched, service
        // burned, pending decremented) but the answer is lost — or the
        // node crashed while the request was in service.
        let departing = self.clock.now();
        if self.faults.down(self.id, departing) {
            return None;
        }
        let drop_prob = self.faults.drop_prob(self.id, departing);
        if drop_prob > 0.0 && self.rng.lock().expect("rng poisoned").gen::<f64>() < drop_prob {
            return None;
        }
        Some(Response {
            id,
            status,
            feedback: Feedback::new(pending_after, service),
            value,
        })
    }
}

/// Keys travel as 8-byte big-endian ids; anything else hashes down.
fn decode_key(key: &Bytes) -> u64 {
    match <[u8; 8]>::try_from(key.as_ref()) {
        Ok(raw) => u64::from_be_bytes(raw),
        Err(_) => key.iter().fold(0u64, |h, &b| h.wrapping_mul(31) ^ b as u64),
    }
}

/// Encode a key id for the wire.
pub fn encode_key(key: u64) -> Bytes {
    Bytes::copy_from_slice(&key.to_be_bytes())
}

/// Everything one replica server needs to come up, independent of the
/// rest of the fleet — the unit a node *process* is configured with. The
/// in-process [`LiveCluster`] builds one per replica from a [`LiveConfig`];
/// the `c3-live-node` binary decodes one from its config file.
#[derive(Clone, Debug)]
pub struct ReplicaSpec {
    /// Replica id within the fleet (drives fault-plan matching, slowdown
    /// scripting and the seed derivation).
    pub id: usize,
    /// Executor-pool size: how many requests are serviced concurrently.
    pub concurrency: usize,
    /// Disk model the sampled service times come from.
    pub disk: DiskKind,
    /// Read fraction the disk model is parameterized with.
    pub read_fraction: f64,
    /// Nominal record size for GET service-time sampling.
    pub value_bytes: u32,
    /// Fleet seed; the replica's rng stream is derived from it and `id`.
    pub seed: u64,
    /// Fault timeline replayed against this replica's wall clock.
    pub faults: FaultPlan,
    /// Identity frame written first on every accepted connection (node
    /// processes); `None` for in-process clusters.
    pub hello: Option<Hello>,
}

impl ReplicaSpec {
    /// The spec `LiveCluster` uses for replica `id` of an in-process
    /// fleet: everything from the live config, no hello.
    pub fn from_live(cfg: &LiveConfig, id: usize) -> Self {
        Self {
            id,
            concurrency: cfg.concurrency,
            disk: cfg.disk,
            read_fraction: cfg.read_fraction,
            value_bytes: cfg.value_bytes,
            seed: cfg.seed,
            faults: cfg.faults.clone(),
            hello: None,
        }
    }
}

/// One running replica server: a listener, its connection handlers and
/// executor pool, with self-contained shutdown plumbing. This is what a
/// `c3-live-node` process runs exactly one of; [`LiveCluster`] runs one
/// per replica in-process.
pub struct ReplicaServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: JoinHandle<()>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    replica: Arc<Replica>,
    executor_handles: Vec<JoinHandle<()>>,
}

impl ReplicaServer {
    /// Bind `bind_addr` (use port 0 for an ephemeral port — the learned
    /// port is in [`ReplicaServer::addr`]) and start the accept loop and
    /// `spec.concurrency` executor threads. `clock` and `slowdown` are
    /// shared so everyone agrees on the adversity timeline.
    pub fn bind(
        spec: &ReplicaSpec,
        bind_addr: SocketAddr,
        slowdown: Arc<dyn Slowdown>,
        clock: WallClock,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conn_handles = Arc::new(Mutex::new(Vec::new()));
        let model = match spec.disk {
            DiskKind::Spinning => DiskModel::spinning(spec.read_fraction),
            DiskKind::Ssd => DiskModel::ssd(spec.read_fraction),
        };
        let replica = Arc::new(Replica {
            id: spec.id,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            pending: AtomicU32::new(0),
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            stop: Arc::clone(&shutdown),
            model,
            rng: Mutex::new(SmallRng::seed_from_u64(
                spec.seed ^ 0xd1b5_4a32_d192_ed03u64.wrapping_mul(spec.id as u64 + 1),
            )),
            slowdown,
            faults: Arc::new(spec.faults.clone()),
            clock,
            nominal_bytes: spec.value_bytes,
            hello: spec.hello,
        });
        let mut executor_handles = Vec::with_capacity(spec.concurrency);
        for _ in 0..spec.concurrency {
            let replica = Arc::clone(&replica);
            executor_handles.push(std::thread::spawn(move || replica.executor_loop()));
        }
        let stop = Arc::clone(&shutdown);
        let conns = Arc::clone(&conn_handles);
        let accept_replica = Arc::clone(&replica);
        let accept_handle =
            std::thread::spawn(move || accept_loop(listener, accept_replica, stop, conns));
        Ok(Self {
            addr,
            shutdown,
            accept_handle,
            conn_handles,
            replica,
            executor_handles,
        })
    }

    /// The bound address clients dial (the learned ephemeral port when
    /// bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wait for every handler to drain, and join all
    /// server threads. Callers must have closed their client connections
    /// first (handlers exit on EOF).
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::Release);
        // The accept loop polls nonblockingly, so the flag alone is
        // guaranteed to stop it within one poll interval — no wake-up
        // connection whose failure could leave a thread parked forever.
        let _ = self.accept_handle.join();
        let handles = std::mem::take(&mut *self.conn_handles.lock().expect("handles poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        // Executors park on their queue condvar; wake them so they see
        // the stop flag (jobs still queued at this point were abandoned
        // by the client and are dropped unexecuted).
        self.replica.work.notify_all();
        for handle in self.executor_handles {
            let _ = handle.join();
        }
    }
}

/// The running in-process fleet: one [`ReplicaServer`] per replica on
/// loopback ephemeral ports.
pub struct LiveCluster {
    addrs: Vec<SocketAddr>,
    servers: Vec<ReplicaServer>,
}

impl LiveCluster {
    /// Spawn one listener (plus its handler threads) per replica on
    /// loopback ephemeral ports, all sharing `clock` and `slowdown` so
    /// client and servers agree on the adversity timeline.
    pub fn spawn(
        cfg: &LiveConfig,
        slowdown: Arc<dyn Slowdown>,
        clock: WallClock,
    ) -> io::Result<Self> {
        cfg.validate();
        let loopback: SocketAddr = (std::net::Ipv4Addr::LOCALHOST, 0).into();
        let mut servers = Vec::with_capacity(cfg.replicas);
        for id in 0..cfg.replicas {
            let spec = ReplicaSpec::from_live(cfg, id);
            servers.push(ReplicaServer::bind(
                &spec,
                loopback,
                Arc::clone(&slowdown),
                clock,
            )?);
        }
        let addrs = servers.iter().map(ReplicaServer::addr).collect();
        Ok(Self { addrs, servers })
    }

    /// Addresses of the replicas, in replica-id order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Shut every replica server down (see [`ReplicaServer::shutdown`]).
    pub fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    replica: Arc<Replica>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    // Poll rather than block: a blocked `accept` can only be woken by a
    // connection, and a wake-up dial can fail (port pressure under
    // parallel test runs), which would hang shutdown forever. Clients
    // connect once at run start, so 5 ms of accept latency is invisible;
    // the OS backlog completes handshakes regardless.
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Accepted sockets may inherit the listener's nonblocking
                // mode on some platforms; handlers need blocking reads.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let replica = Arc::clone(&replica);
                let handle = std::thread::spawn(move || {
                    let _ = serve_connection(stream, &replica);
                });
                conns.lock().expect("handles poisoned").push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            // A signal mid-accept is not a dead listener; try again.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Serve one client connection to completion (EOF or error): read frames
/// and hand them to the replica's executor pool. Responses are written by
/// the executors, through the shared write half, as each job finishes —
/// out of arrival order when the pool has more than one thread.
fn serve_connection(stream: TcpStream, replica: &Replica) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    // Node processes identify themselves before anything else so a
    // mis-wired or stale address file is caught at connect time.
    if let Some(hello) = replica.hello {
        use std::io::Write as _;
        let mut out = BytesMut::new();
        encode_hello(&hello, &mut out);
        writer.lock().expect("writer poisoned").write_all(&out)?;
    }
    let mut reader = stream;
    let mut buf = BytesMut::new();
    while let Some(frame) = read_frame(&mut reader, &mut buf)? {
        let Frame::Request(req) = frame else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server received a non-request frame",
            ));
        };
        // A crashed or resetting replica severs the connection the moment
        // a frame reaches it — mid-stream from the client's perspective,
        // which is exactly the reset the hardened client must absorb and
        // redial. Requests already queued are eaten by `execute`.
        if replica.faults.down(replica.id, replica.clock.now()) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "replica down: fault window severs the connection",
            ));
        }
        replica.enqueue(req, Arc::clone(&writer));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slowdown::{NoSlowdown, SlowdownScript};
    use crate::wire::write_request;
    use c3_cluster::ScriptedSlowdown;
    use c3_core::Nanos;
    use std::time::Instant;

    fn tiny_cfg() -> LiveConfig {
        LiveConfig {
            replicas: 2,
            replication_factor: 2,
            threads: 1,
            ..LiveConfig::default()
        }
    }

    fn round_trip(stream: &mut TcpStream, buf: &mut BytesMut, req: Request) -> Response {
        write_request(stream, &req).unwrap();
        match read_frame(stream, buf).unwrap().expect("response") {
            Frame::Response(resp) => resp,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_put_get_round_trips_with_feedback() {
        let cluster =
            LiveCluster::spawn(&tiny_cfg(), Arc::new(NoSlowdown), WallClock::start()).unwrap();
        let mut stream = TcpStream::connect(cluster.addrs()[0]).unwrap();
        let mut buf = BytesMut::new();

        let miss = round_trip(
            &mut stream,
            &mut buf,
            Request::Get {
                id: 1,
                key: encode_key(42),
            },
        );
        assert_eq!(miss.status, Status::NotFound);
        assert!(miss.feedback.service_time > Nanos::ZERO);

        let put = round_trip(
            &mut stream,
            &mut buf,
            Request::Put {
                id: 2,
                key: encode_key(42),
                value: Bytes::from_static(b"hello"),
            },
        );
        assert_eq!(put.status, Status::Ok);

        let hit = round_trip(
            &mut stream,
            &mut buf,
            Request::Get {
                id: 3,
                key: encode_key(42),
            },
        );
        assert_eq!(hit.status, Status::Ok);
        assert_eq!(hit.value.as_ref(), b"hello");
        assert_eq!(hit.id, 3);

        drop(stream);
        cluster.shutdown();
    }

    #[test]
    fn hello_enabled_server_announces_identity_first() {
        let cfg = tiny_cfg();
        let mut spec = ReplicaSpec::from_live(&cfg, 0);
        spec.hello = Some(Hello {
            replica_id: 0,
            config_digest: 0x77,
        });
        let server = ReplicaServer::bind(
            &spec,
            (std::net::Ipv4Addr::LOCALHOST, 0).into(),
            Arc::new(NoSlowdown),
            WallClock::start(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut buf = BytesMut::new();
        let first = read_frame(&mut stream, &mut buf).unwrap().expect("hello");
        assert_eq!(
            first,
            Frame::Hello(Hello {
                replica_id: 0,
                config_digest: 0x77
            })
        );
        let resp = round_trip(
            &mut stream,
            &mut buf,
            Request::Get {
                id: 9,
                key: encode_key(9),
            },
        );
        assert_eq!(resp.id, 9);
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn slowdown_hook_inflates_measured_service() {
        // Replica 0 slowed 20x for the whole run; replica 1 healthy. The
        // *measured wall time* of requests against replica 0 must be
        // visibly longer — proving the hook reaches real sleeps.
        let script = SlowdownScript::new(vec![ScriptedSlowdown {
            node: 0,
            start: Nanos::ZERO,
            end: Nanos(u64::MAX),
            multiplier: 20.0,
        }]);
        let cluster =
            LiveCluster::spawn(&tiny_cfg(), script.into_hook(), WallClock::start()).unwrap();
        let mut timings = [Nanos::ZERO; 2];
        for (replica, slot) in timings.iter_mut().enumerate() {
            let mut stream = TcpStream::connect(cluster.addrs()[replica]).unwrap();
            let mut buf = BytesMut::new();
            let started = Instant::now();
            for id in 0..20 {
                let resp = round_trip(
                    &mut stream,
                    &mut buf,
                    Request::Get {
                        id,
                        key: encode_key(id),
                    },
                );
                assert_eq!(resp.id, id);
            }
            *slot = started.elapsed().into();
        }
        assert!(
            timings[0] > timings[1].mul(3),
            "slowed replica must be slower for real: {} vs {}",
            timings[0],
            timings[1]
        );
        cluster.shutdown();
    }

    #[test]
    fn crash_window_severs_connections_but_spares_healthy_replicas() {
        use c3_cluster::{FaultEvent, FaultKind};
        let cfg = LiveConfig {
            faults: FaultPlan {
                events: vec![FaultEvent {
                    node: 0,
                    kind: FaultKind::Crash,
                    start: Nanos::ZERO,
                    end: Nanos::from_secs(60),
                    magnitude: 0.0,
                }],
            },
            ..tiny_cfg()
        };
        let cluster = LiveCluster::spawn(&cfg, Arc::new(NoSlowdown), WallClock::start()).unwrap();

        // The crashed replica kills the connection on the first frame.
        let mut dead = TcpStream::connect(cluster.addrs()[0]).unwrap();
        write_request(
            &mut dead,
            &Request::Get {
                id: 1,
                key: encode_key(1),
            },
        )
        .unwrap();
        let mut buf = BytesMut::new();
        let answer = read_frame(&mut dead, &mut buf);
        assert!(
            matches!(answer, Ok(None) | Err(_)),
            "a crashed replica must never answer: {answer:?}"
        );

        // Its healthy peer still round-trips.
        let mut alive = TcpStream::connect(cluster.addrs()[1]).unwrap();
        let mut buf = BytesMut::new();
        let resp = round_trip(
            &mut alive,
            &mut buf,
            Request::Get {
                id: 2,
                key: encode_key(2),
            },
        );
        assert_eq!(resp.id, 2);

        drop(dead);
        drop(alive);
        cluster.shutdown();
    }

    #[test]
    fn resp_drop_burns_service_but_loses_the_answer() {
        use c3_cluster::{FaultEvent, FaultKind};
        let cfg = LiveConfig {
            faults: FaultPlan {
                events: vec![FaultEvent {
                    node: 0,
                    kind: FaultKind::RespDrop,
                    start: Nanos::ZERO,
                    end: Nanos::from_secs(60),
                    magnitude: 1.0,
                }],
            },
            ..tiny_cfg()
        };
        let cluster = LiveCluster::spawn(&cfg, Arc::new(NoSlowdown), WallClock::start()).unwrap();
        let mut stream = TcpStream::connect(cluster.addrs()[0]).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(300)))
            .unwrap();
        write_request(
            &mut stream,
            &Request::Get {
                id: 7,
                key: encode_key(7),
            },
        )
        .unwrap();
        // The request executes but its response is eaten: the read must
        // time out rather than deliver a frame.
        let mut buf = BytesMut::new();
        let err = read_frame(&mut stream, &mut buf).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "dropped response must leave the client waiting: {err:?}"
        );
        drop(stream);
        cluster.shutdown();
    }

    #[test]
    fn queue_feedback_reflects_contention() {
        // Saturate one replica from many connections; piggybacked queue
        // sizes must rise above the idle baseline of zero.
        let cfg = LiveConfig {
            concurrency: 1,
            ..tiny_cfg()
        };
        let cluster = LiveCluster::spawn(&cfg, Arc::new(NoSlowdown), WallClock::start()).unwrap();
        let addr = cluster.addrs()[0];
        let seen_queue = Arc::new(AtomicU32::new(0));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let seen = Arc::clone(&seen_queue);
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut buf = BytesMut::new();
                    for id in 0..15 {
                        let resp = round_trip(
                            &mut stream,
                            &mut buf,
                            Request::Get {
                                id: w * 100 + id,
                                key: encode_key(id),
                            },
                        );
                        seen.fetch_max(resp.feedback.queue_size, Ordering::AcqRel);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert!(
            seen_queue.load(Ordering::Acquire) > 0,
            "4 workers on 1 slot must queue"
        );
        cluster.shutdown();
    }
}
