//! The live replica fleet: N key-value servers on loopback TCP, each a
//! `TcpListener` with a reader thread per connection, one *service
//! thread* that waits out every request's service time on a single
//! timer, a sharded in-memory store, and per-replica queue-size
//! accounting piggybacked on every response.
//!
//! Service times come from the same [`DiskModel`] the §5 cluster
//! simulates — sampled from the replica's seeded rng, scaled by the
//! `slow` factor of its fault plan at the current wall time — and the
//! time the replica then *actually waits* before answering is that very
//! sample, the one the response carries back in `feedback.service_time`. A
//! replica has `concurrency` service slots: a connection reader that
//! finds one free starts the request itself (`due = now + service`, onto
//! the replica's completion-time heap); arrivals beyond the slot count
//! queue in the replica's FIFO, so the `queue_size` a response carries
//! reflects genuine contention, exactly like the simulator's
//! `reads.pending()`. The service thread sleeps toward the
//! earliest `due`, and on waking pops *everything* that has fallen due,
//! frees those slots, admits from the FIFO, and only then — outside the
//! lock — touches the store and writes the answers.
//!
//! What batches, and when: completions that fall due within one wake of
//! the service thread share that wake, and those of them bound for the
//! same connection share one encoded buffer and one `write_all`. Under a
//! saturating closed loop dozens of completions fall due while the
//! previous batch is being written; at a few thousand operations per
//! second completions are hundreds of microseconds apart, nothing
//! batches, and each response is its own wake and its own write.
//!
//! Because service is decoupled from the connection that delivered the
//! frame, responses leave in **completion order**, not arrival order — a
//! multiplexed client can therefore keep hundreds of requests in flight
//! on one connection and the replica overlaps them across its slots, the
//! behavior the correlation table on the client side exists to absorb.
//! Serial one-request-at-a-time clients observe exactly the old semantics
//! (their next frame is only read after they saw the previous response).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use bytes::{Bytes, BytesMut};
use c3_core::{Feedback, Nanos, WallClock};
use c3_net::proto::{encode_hello, encode_response, Frame, Hello, Request, Response, Status};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use c3_cluster::{DiskKind, DiskModel, FaultPlan, NodeFaults};

use crate::config::LiveConfig;
use crate::wire::read_frame;

/// Store shards per replica (keyed by `key % SHARDS`; coarse, but keeps
/// writers off each other's locks).
const SHARDS: usize = 16;

/// One arrived request plus the write half of the connection it came in
/// on. Only the replica's service thread writes responses, so the half is
/// shared without a lock and bytes of two responses can never interleave.
struct Job {
    req: Request,
    conn: Arc<TcpStream>,
}

/// A job holding a service slot until `due`.
struct InService {
    due: Nanos,
    /// Start order; breaks `due` ties so equal completions leave FIFO.
    seq: u64,
    /// The sampled service time the response reports.
    service: Nanos,
    /// Already held back by a `RespDelay` window (at most once per job).
    delayed: bool,
    job: Job,
}

impl InService {
    fn key(&self) -> Reverse<(Nanos, u64)> {
        Reverse((self.due, self.seq))
    }
}

impl PartialEq for InService {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for InService {}

impl PartialOrd for InService {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InService {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Everything the one service mutex guards.
struct ServiceState {
    /// Jobs in service, earliest completion on top; its length is the
    /// number of busy slots.
    in_service: BinaryHeap<InService>,
    /// Arrived-but-not-started requests (the live analogue of the
    /// simulator node's read queue). Non-empty only while every slot is
    /// busy.
    waiting: VecDeque<Job>,
    next_seq: u64,
    /// Service-time randomness, seed-derived.
    rng: SmallRng,
    /// The instant the service thread is sleeping toward: `Nanos::MAX`
    /// when it waits idle, `Nanos::ZERO` while it is awake (it re-reads
    /// the heap before it sleeps again, so nobody needs to wake it).
    wake_at: Nanos,
    stop: bool,
}

/// Shared state of one replica, seen by all its connection readers and
/// its service thread.
struct Replica {
    id: usize,
    shards: Vec<Mutex<HashMap<u64, Bytes>>>,
    /// Requests arrived but not yet responded (in service + queued) — the
    /// `q_s` feedback C3 smooths into its queue-size estimate.
    pending: AtomicU32,
    /// Service slots: how many requests wait out their service time
    /// concurrently.
    slots: usize,
    service: Mutex<ServiceState>,
    /// Wakes the service thread; always signalled after the state change
    /// it announces was made under `service`.
    wake: Condvar,
    model: DiskModel,
    /// This replica's windows of the fault plan, split from the spec's
    /// plan once at bind and replayed against wall time: they make the
    /// replica *slow* (scaled service times) or make it *fail* (sever
    /// connections, swallow requests, drop or delay responses).
    faults: NodeFaults,
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

    fn state(&self) -> MutexGuard<'_, ServiceState> {
        self.service.lock().expect("service state poisoned")
    }

    /// A request frame arrived: it counts as pending from this moment.
    /// With a slot free the reader starts it here; otherwise it queues
    /// and the service thread admits it when a slot frees.
    fn enqueue(&self, req: Request, conn: Arc<TcpStream>) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        let job = Job { req, conn };
        let mut state = self.state();
        if state.in_service.len() < self.slots {
            // Wake the service thread only when this completion precedes
            // the instant it is already sleeping (or being woken) toward.
            let wake = match self.start(&mut state, job) {
                Some(due) if due < state.wake_at => {
                    state.wake_at = due;
                    true
                }
                _ => false,
            };
            drop(state);
            if wake {
                self.wake.notify_one();
            }
        } else {
            state.waiting.push_back(job);
        }
    }

    /// Put `job` into a free slot: sample its service time (scaled by the
    /// plan's `slow` factor) and schedule its completion. Returns the
    /// completion instant, or `None` when a crash window ate the request —
    /// a crashed replica does no work, so the request vanishes without
    /// holding a slot and the client's deadline is what gets its permit
    /// back.
    fn start(&self, state: &mut ServiceState, job: Job) -> Option<Nanos> {
        let now = self.clock.now();
        let fault = self.faults.at(now);
        if fault.down {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        let service = match &job.req {
            Request::Get { .. } => {
                self.model
                    .sample_read(&mut state.rng, self.nominal_bytes, fault.slow)
            }
            Request::Put { value, .. } => {
                self.model
                    .sample_write(&mut state.rng, value.len() as u32, fault.slow)
            }
        };
        let due = now + service;
        let seq = state.next_seq;
        state.next_seq += 1;
        state.in_service.push(InService {
            due,
            seq,
            service,
            delayed: false,
            job,
        });
        Some(due)
    }

    /// The service thread: sleep toward the earliest completion, pop
    /// everything that has fallen due, refill the freed slots from the
    /// FIFO, then answer the batch outside the lock. Exits when the
    /// replica stops (jobs still in service or queued were abandoned by
    /// the client and are dropped unanswered).
    fn service_loop(&self) {
        let mut done = Vec::new();
        let mut state = self.state();
        loop {
            if state.stop {
                return;
            }
            let now = self.clock.now();
            while state.in_service.peek().is_some_and(|top| top.due <= now) {
                let mut job = state.in_service.pop().expect("peeked");
                // A `RespDelay` window holds the finished job — and its
                // slot — back for the injected lag.
                let extra = if job.delayed {
                    Nanos::ZERO
                } else {
                    self.faults.at(now).extra_delay
                };
                if extra > Nanos::ZERO {
                    job.due = now + extra;
                    job.delayed = true;
                    state.in_service.push(job);
                } else {
                    done.push(job);
                }
            }
            if !done.is_empty() {
                while state.in_service.len() < self.slots {
                    let Some(job) = state.waiting.pop_front() else {
                        break;
                    };
                    self.start(&mut state, job);
                }
                state.wake_at = Nanos::ZERO;
                drop(state);
                self.respond(&mut done);
                state = self.state();
                continue;
            }
            state = match state.in_service.peek().map(|top| top.due) {
                Some(due) => {
                    state.wake_at = due;
                    self.wake
                        .wait_timeout(state, due.saturating_sub(now).into())
                        .expect("service state poisoned")
                        .0
                }
                None => {
                    state.wake_at = Nanos::MAX;
                    self.wake.wait(state).expect("service state poisoned")
                }
            };
        }
    }

    /// Answer a batch of finished jobs: one encoded buffer and one
    /// `write_all` per connection touched. The client may already be gone
    /// at teardown; a failed write is its problem, not the replica's.
    fn respond(&self, done: &mut Vec<InService>) {
        let mut batches: Vec<(Arc<TcpStream>, BytesMut)> = Vec::new();
        for finished in done.drain(..) {
            let InService { service, job, .. } = finished;
            let Some(resp) = self.finish(job.req, service) else {
                continue;
            };
            let slot = match batches.iter().position(|(c, _)| Arc::ptr_eq(c, &job.conn)) {
                Some(i) => i,
                None => {
                    batches.push((job.conn, BytesMut::new()));
                    batches.len() - 1
                }
            };
            encode_response(&resp, &mut batches[slot].1);
        }
        for (conn, out) in batches {
            let _ = (&*conn).write_all(&out);
        }
    }

    /// A request's service time has elapsed: touch the store and build
    /// the response with fresh feedback. Returns `None` when the fault
    /// plan eats the answer (the node crashed while the request was in
    /// service, or a `RespDrop` window).
    fn finish(&self, req: Request, service: Nanos) -> Option<Response> {
        let (id, key, put_value) = match req {
            Request::Get { id, key } => (id, key, None),
            Request::Put { id, key, value } => (id, key, Some(value)),
        };
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
        let fault = self.faults.at(self.clock.now());
        if fault.down || (fault.drop_prob > 0.0 && self.state().rng.gen::<f64>() < fault.drop_prob)
        {
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
    /// Replica id within the fleet (drives fault-plan matching and the
    /// seed derivation).
    pub id: usize,
    /// Service slots: how many requests are serviced concurrently.
    pub concurrency: usize,
    /// Disk model the sampled service times come from.
    pub disk: DiskKind,
    /// Read fraction the disk model is parameterized with.
    pub read_fraction: f64,
    /// Nominal record size for GET service-time sampling.
    pub value_bytes: u32,
    /// Fleet seed; the replica's rng stream is derived from it and `id`.
    pub seed: u64,
    /// Adversity timeline (slow windows and faults) replayed against this
    /// replica's wall clock.
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
/// service thread, with self-contained shutdown plumbing. This is what a
/// `c3-live-node` process runs exactly one of; [`LiveCluster`] runs one
/// per replica in-process.
pub struct ReplicaServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: JoinHandle<()>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    replica: Arc<Replica>,
    service_handle: JoinHandle<()>,
}

/// Unused placeholder argument of [`ReplicaServer::bind`] and
/// [`LiveCluster::spawn`], kept so their callers compile unchanged; slow
/// windows are [`c3_cluster::FaultKind::Slow`] episodes of the fault plan.
/// ROADMAP item 8 deletes it with the parameter.
pub struct NoSlowdown;

impl ReplicaServer {
    /// Bind `bind_addr` (use port 0 for an ephemeral port — the learned
    /// port is in [`ReplicaServer::addr`]) and start the accept loop and
    /// the service thread. `clock` is shared so everyone agrees on the
    /// adversity timeline; the [`NoSlowdown`] argument is unused.
    pub fn bind(
        spec: &ReplicaSpec,
        bind_addr: SocketAddr,
        _unused: Arc<NoSlowdown>,
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
            slots: spec.concurrency,
            service: Mutex::new(ServiceState {
                in_service: BinaryHeap::with_capacity(spec.concurrency),
                waiting: VecDeque::new(),
                next_seq: 0,
                rng: SmallRng::seed_from_u64(
                    spec.seed ^ 0xd1b5_4a32_d192_ed03u64.wrapping_mul(spec.id as u64 + 1),
                ),
                wake_at: Nanos::ZERO,
                stop: false,
            }),
            wake: Condvar::new(),
            model,
            faults: spec.faults.for_node(spec.id),
            clock,
            nominal_bytes: spec.value_bytes,
            hello: spec.hello,
        });
        let service_replica = Arc::clone(&replica);
        let service_handle =
            spawn_named(spec.id, "service", move || service_replica.service_loop());
        let stop = Arc::clone(&shutdown);
        let conns = Arc::clone(&conn_handles);
        let accept_replica = Arc::clone(&replica);
        let accept_handle = spawn_named(spec.id, "accept", move || {
            accept_loop(listener, accept_replica, stop, conns)
        });
        Ok(Self {
            addr,
            shutdown,
            accept_handle,
            conn_handles,
            replica,
            service_handle,
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
        self.signal_stop();
        self.join();
    }

    /// The first half of [`ReplicaServer::shutdown`]: tell the accept loop
    /// to stop. Split out so a fleet signals every replica before waiting
    /// out any one's poll interval.
    fn signal_stop(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// The second half of [`ReplicaServer::shutdown`]: join every server
    /// thread.
    fn join(self) {
        // The accept loop polls nonblockingly, so the flag alone is
        // guaranteed to stop it within one poll interval — no wake-up
        // connection whose failure could leave a thread parked forever.
        let _ = self.accept_handle.join();
        let handles = std::mem::take(&mut *self.conn_handles.lock().expect("handles poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        // The service thread may be waiting idle on its condvar: flip its
        // stop flag under the lock it waits with, then wake it (jobs still
        // in service or queued at this point were abandoned by the client
        // and are dropped unanswered).
        self.replica.state().stop = true;
        self.replica.wake.notify_one();
        let _ = self.service_handle.join();
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
    /// loopback ephemeral ports, all sharing `clock` so client and servers
    /// agree on the adversity timeline; the [`NoSlowdown`] argument is
    /// unused.
    pub fn spawn(cfg: &LiveConfig, unused: Arc<NoSlowdown>, clock: WallClock) -> io::Result<Self> {
        cfg.validate();
        let loopback: SocketAddr = (std::net::Ipv4Addr::LOCALHOST, 0).into();
        let mut servers = Vec::with_capacity(cfg.replicas);
        for id in 0..cfg.replicas {
            let spec = ReplicaSpec::from_live(cfg, id);
            servers.push(ReplicaServer::bind(
                &spec,
                loopback,
                Arc::clone(&unused),
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
    /// Every replica is signalled before any is joined, so their accept
    /// loops' poll intervals elapse together, not one after another.
    pub fn shutdown(self) {
        for server in &self.servers {
            server.signal_stop();
        }
        for server in self.servers {
            server.join();
        }
    }
}

/// Spawn one of replica `id`'s threads under a name (`r<id>-<role>`) a
/// profiler or `/proc/<pid>/task/*/comm` shows.
fn spawn_named(id: usize, role: &str, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("r{id}-{role}"))
        .spawn(body)
        .expect("failed to spawn thread")
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
                let handle = spawn_named(replica.id, "conn", move || {
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
/// and start them (or queue them) on the replica. Responses are written
/// by the service thread, through the shared write half, as each job's
/// service time elapses — out of arrival order when the replica has more
/// than one slot.
fn serve_connection(stream: TcpStream, replica: &Replica) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let writer = Arc::new(stream.try_clone()?);
    // Node processes identify themselves before anything else so a
    // mis-wired or stale address file is caught at connect time. No job
    // of this connection exists yet, so the service thread cannot be
    // writing to it.
    if let Some(hello) = replica.hello {
        let mut out = BytesMut::new();
        encode_hello(&hello, &mut out);
        (&*writer).write_all(&out)?;
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
        // redial. Requests already queued are eaten at admission, those
        // in service when their time is up.
        if replica.faults.at(replica.clock.now()).down {
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
    use crate::wire::write_request;
    use c3_cluster::{FaultEvent, FaultKind};
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

    fn next_response(stream: &mut TcpStream, buf: &mut BytesMut) -> Response {
        match read_frame(stream, buf).unwrap().expect("response") {
            Frame::Response(resp) => resp,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn round_trip(stream: &mut TcpStream, buf: &mut BytesMut, req: Request) -> Response {
        write_request(stream, &req).unwrap();
        next_response(stream, buf)
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
    fn slow_window_inflates_measured_service() {
        // Replica 0 slowed 20x for the whole run; replica 1 healthy. The
        // *measured wall time* of requests against replica 0 must be
        // visibly longer — proving the plan's `slow` reaches real sleeps.
        let cfg = LiveConfig {
            faults: FaultPlan {
                events: vec![FaultEvent {
                    node: 0,
                    kind: FaultKind::Slow,
                    start: Nanos::ZERO,
                    end: Nanos::MAX,
                    magnitude: 20.0,
                }],
            },
            ..tiny_cfg()
        };
        let cluster = LiveCluster::spawn(&cfg, Arc::new(NoSlowdown), WallClock::start()).unwrap();
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

    /// A replica spec whose nominal record size puts a deterministic
    /// `service_floor_ms` (the SSD model's transfer term, 400 bytes per
    /// µs) under every GET's sampled service time, so timing assertions
    /// do not ride on an exponential draw.
    fn bare_spec(id: usize, concurrency: usize, service_floor_ms: u32) -> ReplicaSpec {
        ReplicaSpec {
            id,
            concurrency,
            disk: DiskKind::Ssd,
            read_fraction: 1.0,
            value_bytes: service_floor_ms * 400_000,
            seed: 11,
            faults: FaultPlan::none(),
            hello: None,
        }
    }

    fn bind_bare(spec: &ReplicaSpec, clock: WallClock) -> ReplicaServer {
        ReplicaServer::bind(
            spec,
            (std::net::Ipv4Addr::LOCALHOST, 0).into(),
            Arc::new(NoSlowdown),
            clock,
        )
        .unwrap()
    }

    /// Write GETs `ids` as one buffer, so they reach the replica together.
    fn pipeline_gets(stream: &mut TcpStream, ids: impl Iterator<Item = u64>) {
        let mut out = BytesMut::new();
        for id in ids {
            c3_net::proto::encode_request(
                &Request::Get {
                    id,
                    key: encode_key(id),
                },
                &mut out,
            );
        }
        stream.write_all(&out).unwrap();
    }

    /// Three pipelined GETs against `slots` service slots: the responses
    /// in arrival order of the wire, and how long the last one took.
    fn three_pipelined(slots: usize) -> (Vec<Response>, Nanos) {
        let server = bind_bare(&bare_spec(0, slots, 20), WallClock::start());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut buf = BytesMut::new();
        let started = Instant::now();
        pipeline_gets(&mut stream, 1..=3);
        let responses: Vec<_> = (0..3)
            .map(|_| next_response(&mut stream, &mut buf))
            .collect();
        let elapsed = started.elapsed().into();
        drop(stream);
        server.shutdown();
        (responses, elapsed)
    }

    #[test]
    fn one_slot_serves_fifo_and_back_to_back() {
        let (responses, elapsed) = three_pipelined(1);
        let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 2, 3], "one slot answers in arrival order");
        let sum = responses
            .iter()
            .fold(Nanos::ZERO, |acc, r| acc + r.feedback.service_time);
        assert!(
            elapsed >= sum,
            "one slot waits the service times out one after another: {elapsed} < {sum}"
        );
    }

    #[test]
    fn free_slots_overlap_service_times() {
        let (responses, elapsed) = three_pipelined(4);
        let times = responses.iter().map(|r| r.feedback.service_time);
        let max = times.clone().max().unwrap();
        let sum = times.fold(Nanos::ZERO, |acc, t| acc + t);
        assert!(elapsed >= max, "nothing answers early: {elapsed} < {max}");
        assert!(
            elapsed < sum,
            "three requests in four slots overlap: {elapsed} >= {sum}"
        );
    }

    #[test]
    fn resp_delay_holds_the_slot() {
        let mut spec = bare_spec(0, 1, 0);
        spec.faults = FaultPlan {
            events: vec![FaultEvent {
                node: 0,
                kind: FaultKind::RespDelay,
                start: Nanos::ZERO,
                end: Nanos::from_secs(60),
                magnitude: 40.0,
            }],
        };
        let server = bind_bare(&spec, WallClock::start());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut buf = BytesMut::new();
        let started = Instant::now();
        pipeline_gets(&mut stream, 1..=2);
        assert_eq!(next_response(&mut stream, &mut buf).id, 1);
        assert_eq!(next_response(&mut stream, &mut buf).id, 2);
        let elapsed: Nanos = started.elapsed().into();
        assert!(
            elapsed >= Nanos::from_millis(80),
            "the second request waits out the first's delay, then its own: {elapsed}"
        );
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn a_crash_window_eats_the_queued_job_at_admission() {
        // One slot, ≈150 ms of service: the first request is in service
        // and the second in the FIFO when the window opens at 100 ms; the
        // first comes due inside it (its answer is lost), which admits the
        // second — into a crashed replica.
        let mut spec = bare_spec(0, 1, 150);
        spec.faults = FaultPlan {
            events: vec![FaultEvent {
                node: 0,
                kind: FaultKind::Crash,
                start: Nanos::from_millis(100),
                end: Nanos::from_millis(400),
                magnitude: 0.0,
            }],
        };
        let clock = WallClock::start();
        let server = bind_bare(&spec, clock);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        pipeline_gets(&mut stream, 1..=2);
        assert!(
            clock.now() < Nanos::from_millis(100),
            "host too slow for this test's timeline"
        );
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(450)))
            .unwrap();
        let mut buf = BytesMut::new();
        let err = read_frame(&mut stream, &mut buf).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "neither request may ever be answered: {err:?}"
        );
        assert!(clock.now() >= Nanos::from_millis(400));

        // Both left the accounting: a fresh request sees an empty replica.
        let mut fresh = TcpStream::connect(server.addr()).unwrap();
        let resp = round_trip(
            &mut fresh,
            &mut buf,
            Request::Get {
                id: 3,
                key: encode_key(3),
            },
        );
        assert_eq!(resp.id, 3);
        assert_eq!(resp.feedback.queue_size, 0, "pending must come back");
        drop(stream);
        drop(fresh);
        server.shutdown();
    }

    #[test]
    fn batched_responses_stay_on_their_own_connection() {
        const PER_CONN: u64 = 200;
        let server = bind_bare(&bare_spec(0, 32, 0), WallClock::start());
        let addr = server.addr();
        let clients: Vec<_> = [1_000u64, 5_000]
            .into_iter()
            .map(|base| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut buf = BytesMut::new();
                    pipeline_gets(&mut stream, base..base + PER_CONN);
                    let mut ids: Vec<u64> = (0..PER_CONN)
                        .map(|_| next_response(&mut stream, &mut buf).id)
                        .collect();
                    assert!(buf.is_empty(), "no stray bytes after the last frame");
                    ids.sort_unstable();
                    (base, ids)
                })
            })
            .collect();
        for client in clients {
            let (base, ids) = client.join().unwrap();
            let own: Vec<u64> = (base..base + PER_CONN).collect();
            assert_eq!(ids, own, "each connection gets exactly its own ids");
        }
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_replica_runs_two_threads_whatever_its_slot_count() {
        // Counted by name, not by the process-wide `Threads:` figure the
        // rest of this test binary's threads move under our feet.
        const ID: usize = 7_777;
        let server = bind_bare(&bare_spec(ID, 32, 0), WallClock::start());
        let roles = || {
            let mut roles: Vec<String> = std::fs::read_dir("/proc/self/task")
                .unwrap()
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .filter_map(|comm| Some(comm.trim().strip_prefix("r7777-")?.to_string()))
                .collect();
            roles.sort();
            roles
        };
        // A thread names itself as it starts: give the two we expect a
        // moment to, then any others a moment more.
        let patience = Instant::now() + std::time::Duration::from_secs(2);
        while roles().len() < 2 && Instant::now() < patience {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(roles(), ["accept", "service"], "before any connection");
        server.shutdown();
    }

    /// Run `cycle` on its own thread and fail — rather than hang — when
    /// it has not returned within two seconds.
    fn within_watchdog(what: &str, cycle: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            cycle();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(2)) {
            Ok(()) => worker.join().unwrap(),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("{what} hung"),
            // The cycle panicked: surface its message, not ours.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
        }
    }

    #[test]
    fn shutdown_never_misses_its_wake_up() {
        // Idle: the service thread is (or is about to be) in its untimed
        // wait, the one a wake-up signalled outside the lock could miss.
        for cycle in 0..300 {
            within_watchdog(&format!("idle shutdown, cycle {cycle}"), || {
                bind_bare(&bare_spec(0, 1, 0), WallClock::start()).shutdown();
            });
        }
        // Busy: eight requests ten seconds away from done.
        for cycle in 0..50 {
            within_watchdog(&format!("busy shutdown, cycle {cycle}"), || {
                let server = bind_bare(&bare_spec(0, 8, 10_000), WallClock::start());
                let mut stream = TcpStream::connect(server.addr()).unwrap();
                pipeline_gets(&mut stream, 1..=8);
                while server.replica.state().in_service.len() < 8 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                drop(stream);
                server.shutdown();
            });
        }
    }
}
