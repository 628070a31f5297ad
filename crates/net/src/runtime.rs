//! The socket link: the shared control plane over Unix-socket byte
//! streams.
//!
//! Every protocol message crosses a real byte stream: each cloud server
//! sits behind a [`ServerHost`] — the same `safetx_runtime::Host` the
//! threaded runtime uses, plus the connections to it — and runs on the
//! thread that reads a connection's frames; each TM drives the sans-io
//! `TmCore` from [`NetCluster::execute`](safetx_runtime::Deployment::execute);
//! and the two sides talk exclusively through framed [`crate::wire`]
//! messages over `UnixStream`s (in-process duplex pairs by default; a
//! multi-process deployment connects the same hosts over filesystem
//! sockets — see `examples/net_processes.rs`).
//!
//! [`NetCluster`] is `safetx_runtime::LinkedCluster` over the
//! [`SocketLink`] below, so bootstrap, execute, configure, publish, crash,
//! restart, in-doubt resolution and every counter are the control plane
//! the threaded runtime runs; this module is the transport. A server serves
//! each frame a connection delivers as one round, the round's replies
//! coalesced per peer into a single [`Msg::Batch`] frame; the TM side is
//! `safetx_core::drive_tm` over framed sends. Peer disconnects surface
//! through the existing failure detector — a reply that never arrives
//! trips `ClusterConfig::reply_timeout` and the core aborts with
//! `AbortReason::ServerUnavailable`; reconnecting resumes traffic under
//! the peer's original logical id (see `safetx_core::coalesce_replies`
//! for why the id must survive the reconnect).

use crate::fault::{write_through_fabric, WireFate};
use crate::wire::{decode_msg, read_frame};
use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use safetx_core::{reply_counts_as_dropped, Msg, ServerCore, TmIo};
use safetx_metrics::TransportCounters;
use safetx_runtime::{
    splitmix64, ClusterConfig, Fabric, Host, Link, LinkedCluster, Peer, PeerAddr,
};
use safetx_types::{ServerId, TxnId};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The logical address of a peer on a server's side of the wire: stable
/// for the peer's lifetime, including across reconnects (a replaced
/// connection keeps the id, so reply coalescing keyed by it never splits
/// or misroutes a round's envelope — the invariant documented on
/// `safetx_core::coalesce_replies`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetAddr(pub u64);

impl PeerAddr for NetAddr {
    fn key(&self) -> u64 {
        self.0
    }

    // A peer id no connection ever attaches under.
    fn nobody() -> NetAddr {
        NetAddr(u64::MAX)
    }
}

/// One side's transport accounting for one edge. Shared between the
/// thread that writes frames and the thread that reads them.
#[derive(Debug, Default)]
pub struct EdgeStats {
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    reconnects: AtomicU64,
    decode_errors: AtomicU64,
}

impl EdgeStats {
    pub(crate) fn note_sent(&self, bytes: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn note_received(&self, payload_bytes: usize) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        // The reader sees the payload; account the 4-byte length prefix so
        // both directions measure the same thing.
        self.bytes_received
            .fetch_add(payload_bytes as u64 + 4, Ordering::Relaxed);
    }

    fn note_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    fn note_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> TransportCounters {
        TransportCounters {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        }
    }
}

/// A peer's connection as the host holds it.
struct PeerLink {
    /// Its stream (`get_ref`) is also how a replacement, a failed write or
    /// a crash unblocks the connection's reader.
    writer: BufWriter<UnixStream>,
    stats: Arc<EdgeStats>,
    /// Distinguishes this connection from a replaced one: a stale reader's
    /// detach must not tear down the replacement.
    generation: u64,
    /// Outbound frame sequence on this connection — the fault fabric's
    /// per-frame roll input.
    seq: u64,
}

/// What a host's link lock guards: its connections.
#[derive(Default)]
struct Peers {
    links: HashMap<u64, PeerLink>,
    /// Server-side edge stats by peer id; survives reconnects and crashes.
    edges: HashMap<u64, Arc<EdgeStats>>,
    next_generation: u64,
}

/// How a connection is torn down from outside: its stream to shut down,
/// its reader to join.
struct Conn {
    generation: u64,
    stream: UnixStream,
    reader: JoinHandle<()>,
}

/// What a host's readers share with its handle.
struct HostShared {
    host: Arc<Host<NetAddr>>,
    /// The link lock. Taken under the host lock (a round's replies are
    /// written with both held), never the other way round.
    peers: Mutex<Peers>,
    /// Every connection whose reader is not yet joined. Its own lock,
    /// because a reader blocked writing to a peer that stopped reading
    /// holds the other two, and only shutting its stream down unblocks it.
    /// A reader never joins itself: `attach` drops the finished ones and
    /// joins the one it replaces; `reap` joins all.
    conns: Mutex<Vec<Conn>>,
}

impl HostShared {
    fn peers(&self) -> MutexGuard<'_, Peers> {
        // Valid at every step, and teardown runs from `Drop`, which must
        // not panic: a poisoned lock is usable.
        self.peers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Writes one reply frame through the fault fabric and flushes it. A
    /// disconnected peer is fine to ignore, like a dead channel in the
    /// threaded runtime.
    fn write_reply(&self, to: NetAddr, msg: &Msg) {
        let mut peers = self.peers();
        let Some(link) = peers.links.get_mut(&to.0) else {
            return;
        };
        let edge = (Peer::Server(self.host.server()), Peer::Coordinator);
        let (fabric, seq) = (self.host.fabric(), link.seq);
        link.seq += 1;
        let fate = write_through_fabric(fabric, edge, seq, &mut link.writer, msg, &link.stats)
            .and_then(|fate| link.writer.flush().map(|()| fate));
        if !matches!(fate, Ok(WireFate::Intact)) {
            // Dead (or fabric-killed) connection: drop the stream; the
            // reader's detach handles the bookkeeping, and the TM side
            // reconnects with backoff.
            let _ = link.writer.get_ref().shutdown(std::net::Shutdown::Both);
        }
    }

    /// Drops every connection, as a dying process does: each reader wakes
    /// on EOF and exits.
    fn hang_up(&self) {
        for (_, link) in self.peers().links.drain() {
            let _ = link.writer.get_ref().shutdown(std::net::Shutdown::Both);
        }
    }
}

/// One cloud server over byte streams.
///
/// A [`Host`] plus every connection to it; it has no thread of its own.
/// Each connection's reader thread decodes each frame it reads and runs
/// it as a round itself ([`Host::serve`]), the replies written — one frame
/// per peer per round — before the host lock is released, so every peer
/// sees rounds in the order they ran.
pub struct ServerHost {
    shared: Arc<HostShared>,
}

impl ServerHost {
    /// Wraps a configured core as a standalone host with no connection
    /// yet and no fault plan (a standalone host injects no faults).
    #[must_use]
    pub fn spawn(core: ServerCore<NetAddr>, epoch: Instant) -> ServerHost {
        Self::over(Arc::new(Host::new(core, epoch, Arc::default())))
    }

    /// The connections of a host the control plane also holds.
    pub(crate) fn over(host: Arc<Host<NetAddr>>) -> ServerHost {
        let shared = HostShared {
            host,
            peers: Mutex::default(),
            conns: Mutex::default(),
        };
        ServerHost {
            shared: Arc::new(shared),
        }
    }

    /// The server behind the connections.
    #[must_use]
    pub fn host(&self) -> &Host<NetAddr> {
        &self.shared.host
    }

    /// Attaches (or replaces) the connection carrying peer `peer`'s
    /// traffic. The host reads frames from it and writes replies to it;
    /// attaching over an existing connection counts as a reconnect. A
    /// crashed host drops the stream instead.
    pub fn attach(&self, peer: u64, stream: UnixStream) {
        if self.host().crashed() {
            return;
        }
        let read_half = stream.try_clone().expect("clone unix stream");
        let teardown_half = stream.try_clone().expect("clone unix stream");
        let (generation, stats, replaced) = {
            let mut peers = self.shared.peers();
            let stats = Arc::clone(peers.edges.entry(peer).or_default());
            let generation = peers.next_generation;
            peers.next_generation += 1;
            let link = PeerLink {
                writer: BufWriter::new(stream),
                stats: Arc::clone(&stats),
                generation,
                seq: 0,
            };
            let replaced = peers.links.insert(peer, link).map(|old| {
                let _ = old.writer.get_ref().shutdown(std::net::Shutdown::Both);
                stats.note_reconnect();
                old.generation
            });
            (generation, stats, replaced)
        };
        let replaced = {
            let mut conns = self.shared.conns.lock().expect("conns lock");
            conns.retain(|conn| !conn.reader.is_finished());
            let at = conns.iter().position(|c| Some(c.generation) == replaced);
            at.map(|at| conns.swap_remove(at))
        };
        // The replaced reader serves what its connection still held, then
        // exits on EOF; the new reader starts after it, so a peer's frames
        // reach the core in the order it sent them across the reconnect.
        if let Some(old) = replaced {
            let _ = old.reader.join();
        }
        let shared = Arc::clone(&self.shared);
        let reader =
            std::thread::spawn(move || host_reader(&shared, read_half, peer, generation, &stats));
        self.shared.conns.lock().expect("conns lock").push(Conn {
            generation,
            stream: teardown_half,
            reader,
        });
    }

    /// How many connections are currently attached. A multi-process server
    /// can poll this to exit once its last client hangs up.
    #[must_use]
    pub fn live_peers(&self) -> usize {
        self.shared.peers().links.len()
    }

    /// Server-side transport counters summed over this host's edges.
    #[must_use]
    pub fn transport_counters(&self) -> TransportCounters {
        let peers = self.shared.peers();
        peers.edges.values().map(|e| e.snapshot()).sum()
    }

    /// Server-side counters for one peer's edge, if it ever attached.
    #[must_use]
    pub fn edge_counters(&self, peer: u64) -> Option<TransportCounters> {
        self.shared.peers().edges.get(&peer).map(|e| e.snapshot())
    }

    /// Shuts every connection's stream down, which unblocks a reader
    /// stalled writing to a peer that stopped reading — it holds the host
    /// lock, so this comes before anyone asks for that lock to crash the
    /// host.
    pub(crate) fn sever(&self) {
        let conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        for conn in conns.iter() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Drops the dead incarnation's connections and joins its readers: a
    /// straggler still holding a pre-crash frame finds no core to feed it
    /// to, and is gone before a recovered core exists.
    pub(crate) fn reap(&self) {
        self.shared.hang_up();
        let conns =
            std::mem::take(&mut *self.shared.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for conn in conns {
            let _ = conn.reader.join();
        }
    }

    /// Drops every connection and joins the readers.
    pub fn shutdown(self) {
        // `Drop` does it.
    }
}

impl Drop for ServerHost {
    fn drop(&mut self) {
        self.sever();
        self.reap();
    }
}

/// One connection's thread — and the server's thread for every frame that
/// arrives on it: blocks for a frame and runs it as a round itself. A
/// payload that fails to decode is counted and skipped (framing survives —
/// the next length prefix is still in phase). EOF or an I/O error ends the thread,
/// which detaches its link unless a replacement already did; a dead host —
/// it was already, or a crash point fired in this round — hangs every
/// connection up first, as the dying process would.
fn host_reader(
    shared: &HostShared,
    stream: UnixStream,
    peer: u64,
    generation: u64,
    stats: &EdgeStats,
) {
    let mut reader = BufReader::new(stream);
    let mut round = Vec::new();
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        stats.note_received(payload.len());
        let Ok(msg) = decode_msg(&payload) else {
            stats.note_decode_error();
            continue;
        };
        round.push((NetAddr(peer), msg));
        let emit = |to: &NetAddr, msg| shared.write_reply(*to, &msg);
        if !shared.host.serve(&mut round, emit) {
            shared.hang_up();
            break;
        }
    }
    let mut peers = shared.peers();
    if peers
        .links
        .get(&peer)
        .is_some_and(|l| l.generation == generation)
    {
        peers.links.remove(&peer);
    }
}

/// The TM pool's side of one edge.
#[derive(Default)]
struct TmLink {
    /// `None` while disconnected.
    writer: Mutex<Option<TmWriter>>,
    stats: Arc<EdgeStats>,
    /// Outbound frame sequence — the fault fabric's per-frame roll input.
    seq: AtomicU64,
    /// Consecutive reconnect attempts since the last healthy frame; the
    /// budget that bounds a reconnect storm.
    reconnect_attempts: AtomicU64,
}

impl TmLink {
    fn writer(&self) -> MutexGuard<'_, Option<TmWriter>> {
        self.writer.lock().expect("link writer lock")
    }
}

/// Most reconnect attempts the TM makes per outage before declaring the
/// edge unavailable (further sends drop until the server is restarted or
/// a healthy frame arrives, which resets the budget).
const RECONNECT_MAX_ATTEMPTS: u64 = 6;

/// Jittered exponential backoff before reconnect attempt `attempt`
/// (1-based): doubling from 50µs, capped at 2ms, ±50% deterministic
/// jitter — the same shape as the service layer's `RetryPolicy`.
fn reconnect_backoff(attempt: u64, edge: u64) -> Duration {
    let base = 50u64
        .saturating_mul(1u64 << (attempt - 1).min(6))
        .min(2_000);
    let roll = splitmix64(attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ edge) % (base + 1);
    Duration::from_micros(base / 2 + roll)
}

/// A link's connection: its stream (`get_ref`) is also how a disconnect
/// unblocks the reader thread.
type TmWriter = BufWriter<UnixStream>;

/// Drops a link's connection, if it has one.
fn sever(slot: &mut Option<TmWriter>) {
    if let Some(writer) = slot.take() {
        let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
    }
}

/// Routes server→TM replies to the `execute` call driving that
/// transaction. Readers route by the `txn` field every TM-bound reply
/// carries; an unroutable reply is a stale straggler and is counted under
/// the same rule the in-process runtimes apply.
type Routes = Arc<Mutex<HashMap<u64, Sender<(ServerId, Msg)>>>>;

/// The TM pool's logical peer id on every server's side of the wire. One
/// pool per cluster today; additional pools would claim distinct ids.
pub const TM_PEER: u64 = 0;

/// The [`Link`] of the wire-protocol runtime: a byte stream per server,
/// each with a demultiplexing reader thread on the TM side and a
/// [`ServerHost`] on the other (in this process, or in another).
pub struct SocketLink {
    /// In-process hosts by slot (empty when the servers live in other
    /// processes).
    servers: Vec<ServerHost>,
    /// Shared with the reader threads (they reset reconnect budgets).
    tm: Arc<Vec<TmLink>>,
    routes: Routes,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// The fault fabric every frame (both directions) rolls against.
    fabric: Arc<Fabric>,
}

impl SocketLink {
    /// The link to `servers` servers, `hosts` of them in this process,
    /// with no connection yet.
    fn new(servers: usize, hosts: &[Arc<Host<NetAddr>>], fabric: &Arc<Fabric>) -> Self {
        SocketLink {
            servers: hosts
                .iter()
                .map(|host| ServerHost::over(Arc::clone(host)))
                .collect(),
            tm: Arc::new((0..servers).map(|_| TmLink::default()).collect()),
            routes: Arc::default(),
            readers: Mutex::default(),
            fabric: Arc::clone(fabric),
        }
    }

    /// Installs `stream` as the connection of the link in `slot` (whose
    /// writer the caller holds) and spawns its demultiplexing reader.
    fn install(&self, slot: usize, stream: UnixStream, writer: &mut Option<TmWriter>) {
        let reader_stream = stream.try_clone().expect("clone unix stream");
        *writer = Some(BufWriter::new(stream));
        let (tm, routes) = (Arc::clone(&self.tm), Arc::clone(&self.routes));
        let fabric = Arc::clone(&self.fabric);
        let reader = std::thread::spawn(move || {
            let stale = &fabric.stats.stale_replies;
            tm_reader_loop(reader_stream, slot, &tm[slot], &routes, stale);
        });
        // A replaced connection's reader has exited (or is about to): drop
        // finished handles here, or a flapping edge grows this forever.
        let mut readers = self.readers.lock().expect("readers lock");
        readers.retain(|reader| !reader.is_finished());
        readers.push(reader);
    }

    /// Connects the link in `slot` to its in-process host over a fresh
    /// duplex pair, under the server's stable peer id.
    fn pair(&self, slot: usize, writer: &mut Option<TmWriter>) {
        let host = self
            .servers
            .get(slot)
            .expect("an in-process host (remote servers are reconnected externally)");
        let (tm_end, srv_end) = UnixStream::pair().expect("socketpair");
        host.attach(TM_PEER, srv_end);
        self.install(slot, tm_end, writer);
    }

    /// Replaces the connection in `slot` with a fresh one, counted on both
    /// edges' `reconnects`.
    fn reconnect(&self, slot: usize, writer: &mut Option<TmWriter>) {
        self.tm[slot].stats.note_reconnect();
        self.pair(slot, writer);
    }

    /// One bounded reconnect attempt for the link in `slot`, called with
    /// its writer held and empty. In-process hosts only — a remote
    /// server's reconnects are driven externally — and never while the
    /// server is crashed (restart owns that handshake).
    fn try_reconnect(&self, slot: usize, writer: &mut Option<TmWriter>) -> bool {
        let host = self.servers.get(slot);
        if host.is_none_or(|server| server.host().crashed()) {
            return false;
        }
        let attempt = self.tm[slot]
            .reconnect_attempts
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        if attempt > RECONNECT_MAX_ATTEMPTS {
            if attempt == RECONNECT_MAX_ATTEMPTS + 1 {
                let exhausted = &self.fabric.stats.reconnect_exhausted;
                exhausted.fetch_add(1, Ordering::Relaxed);
            }
            return false;
        }
        std::thread::sleep(reconnect_backoff(attempt, slot as u64));
        self.reconnect(slot, writer);
        true
    }

    /// Encodes and writes one frame to the server in `slot` (through the
    /// fault fabric) without flushing. A down link first gets a bounded,
    /// backed-off reconnect attempt; once the budget is exhausted the
    /// frame drops — the reply deadline is the failure detector, and the
    /// edge presents as `ServerUnavailable`.
    fn send_to(&self, slot: usize, msg: &Msg) {
        let link = &self.tm[slot];
        let mut writer = link.writer();
        if writer.is_none() && !self.try_reconnect(slot, &mut writer) {
            return;
        }
        let out = writer.as_mut().expect("connected above");
        let edge = (Peer::Coordinator, Peer::Server(ServerId::new(slot as u64)));
        let seq = link.seq.fetch_add(1, Ordering::Relaxed);
        let fate = write_through_fabric(&self.fabric, edge, seq, out, msg, &link.stats);
        if !matches!(fate, Ok(WireFate::Intact)) {
            sever(&mut writer);
        }
    }

    /// Flushes the link in `slot`, severing the connection on failure.
    fn flush(&self, slot: usize) {
        let mut writer = self.tm[slot].writer();
        if writer.as_mut().is_some_and(|w| w.flush().is_err()) {
            sever(&mut writer);
        }
    }
}

impl Link for SocketLink {
    type Addr = NetAddr;
    type Tm<'a> = WireTm<'a>;

    fn open(&self, txn: TxnId) -> WireTm<'_> {
        let (tx, replies) = unbounded();
        let mut routes = self.routes.lock().expect("routes lock");
        routes.insert(txn.index(), tx);
        WireTm {
            link: self,
            txn,
            replies,
            touched: Vec::new(),
            routed: true,
        }
    }

    // The TM side of the edge dies with the server: severed too, so sends
    // fail fast instead of filling a kernel buffer nobody reads.
    fn down(&self, slot: usize) {
        self.servers[slot].sever();
        sever(&mut self.tm[slot].writer());
    }

    fn reap(&self, slot: usize) {
        self.servers[slot].reap();
    }

    // The process died, so no connection carried over: the TM edge
    // reconnects under the server's stable peer id, its budget reopened.
    fn up(&self, slot: usize, _host: &Arc<Host<NetAddr>>) {
        self.tm[slot].reconnect_attempts.store(0, Ordering::Relaxed);
        self.reconnect(slot, &mut self.tm[slot].writer());
    }

    // The reconnect cap exists to bound reconnect storms *while faults
    // rage*; once the network is declared healthy, an edge whose budget
    // was exhausted mid-chaos must be reachable again.
    fn healed(&self) {
        for link in self.tm.iter() {
            link.reconnect_attempts.store(0, Ordering::Relaxed);
        }
    }

    fn transport_counters(&self) -> TransportCounters {
        let tm: TransportCounters = self.tm.iter().map(|l| l.stats.snapshot()).sum();
        let servers = self.servers.iter().map(ServerHost::transport_counters);
        tm + servers.sum()
    }
}

impl Drop for SocketLink {
    fn drop(&mut self) {
        for link in self.tm.iter() {
            sever(&mut link.writer.lock().unwrap_or_else(|e| e.into_inner()));
        }
        let readers = self.readers.get_mut().unwrap_or_else(|e| e.into_inner());
        for reader in readers.drain(..) {
            let _ = reader.join();
        }
    }
}

/// A cluster whose protocol traffic crosses real byte streams: the shared
/// control plane ([`LinkedCluster`], to which this dereferences) over a
/// [`SocketLink`] — same effects, same decision log, same inline master
/// consult, same reply-deadline failure detector as the threaded
/// `safetx_runtime::Cluster`.
///
/// [`NetCluster::new`] runs everything in-process over `UnixStream::pair`
/// duplex sockets, one [`ServerHost`] per server. [`NetCluster::connect`]
/// instead attaches to server processes listening on filesystem sockets
/// (the hosts then live in other processes and only the TM side runs
/// here).
pub struct NetCluster(LinkedCluster<SocketLink>);

impl std::ops::Deref for NetCluster {
    type Target = LinkedCluster<SocketLink>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl NetCluster {
    /// Builds one in-process host per server and connects each over a
    /// fresh `UnixStream` duplex pair. Shares the threaded runtime's
    /// [`ClusterConfig`] surface: `groups`, `wal_sync_cost`,
    /// `reply_timeout`, `concurrency` and the protocol cell all mean the
    /// same thing here.
    ///
    /// # Panics
    ///
    /// Panics when socket pairs cannot be created.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        let servers = config.servers;
        let link = |hosts: &[_], fabric: &_| {
            let link = SocketLink::new(servers, hosts, fabric);
            for slot in 0..servers {
                link.pair(slot, &mut link.tm[slot].writer());
            }
            link
        };
        NetCluster(LinkedCluster::assemble(config, true, link))
    }

    /// Builds a TM-only cluster over already-connected streams, one per
    /// server in server-id order (stream `i` talks to server *i*). The
    /// server hosts live elsewhere — typically other processes serving
    /// filesystem sockets — so everything that touches a host
    /// (`configure_server`, crash, restart) is unavailable and the policy
    /// helpers install nothing; the server processes seed themselves. The
    /// local catalog still answers master consults, so publish the same
    /// policy versions here that the servers installed.
    #[must_use]
    pub fn connect(config: ClusterConfig, streams: Vec<UnixStream>) -> Self {
        assert_eq!(
            streams.len(),
            config.servers,
            "one stream per configured server"
        );
        let link = |_: &[_], fabric: &_| {
            let link = SocketLink::new(streams.len(), &[], fabric);
            for (slot, stream) in streams.into_iter().enumerate() {
                link.install(slot, stream, &mut link.tm[slot].writer());
            }
            link
        };
        NetCluster(LinkedCluster::assemble(config, false, link))
    }

    /// Both sides of one server's edge: `(tm_side, server_side)`. On a
    /// clean quiesced run frames are conserved — everything one side sent,
    /// the other received. `server_side` is all-zero when the host lives
    /// in another process.
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range.
    #[must_use]
    pub fn edge_counters(&self, server: ServerId) -> (TransportCounters, TransportCounters) {
        let (slot, link) = (self.slot(server), self.link());
        let host_side = link
            .servers
            .get(slot)
            .and_then(|h| h.edge_counters(TM_PEER));
        (
            link.tm[slot].stats.snapshot(),
            host_side.unwrap_or_default(),
        )
    }

    /// Severs the byte stream to one server without touching the server's
    /// state — the wire fails, the process survives. In-flight replies are
    /// lost; the next `execute` that needs this server trips the reply
    /// deadline and aborts with `ServerUnavailable` (configure
    /// `ClusterConfig::reply_timeout`, or executions will block).
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range.
    pub fn disconnect_server(&self, server: ServerId) {
        sever(&mut self.link().tm[self.slot(server)].writer());
    }

    /// Replaces a severed connection with a fresh duplex pair under the
    /// server's original logical peer id, so reply coalescing keyed by
    /// that id spans the reconnect unchanged. Counted on both edges'
    /// `reconnects`.
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range or its host lives in
    /// another process.
    pub fn reconnect_server(&self, server: ServerId) {
        let (slot, link) = (self.slot(server), self.link());
        link.reconnect(slot, &mut link.tm[slot].writer());
    }

    /// Stops every connection and host and joins all their threads.
    pub fn shutdown(self) {
        // The link's `Drop` does it.
    }
}

/// The coordinator's side of one transaction on the wire: its reply route
/// (readers demultiplex replies into it by transaction id) and the links
/// its frames are written to.
pub struct WireTm<'a> {
    link: &'a SocketLink,
    txn: TxnId,
    replies: Receiver<(ServerId, Msg)>,
    /// Links written since the last flush. They flush once per effect
    /// batch, after the whole batch is encoded — frames keep their
    /// protocol order and a round's sends to one server share a syscall.
    touched: Vec<usize>,
    routed: bool,
}

impl WireTm<'_> {
    /// Deregisters the reply route: from here on the readers count this
    /// transaction's replies as stale themselves.
    fn close(&mut self) {
        if std::mem::take(&mut self.routed) {
            let mut routes = self.link.routes.lock().expect("routes lock");
            routes.remove(&self.txn.index());
        }
    }
}

impl Drop for WireTm<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

impl TmIo for WireTm<'_> {
    fn send(&mut self, server: ServerId, msg: Msg) {
        let slot = server.index() as usize;
        self.link.send_to(slot, &msg);
        if !self.touched.contains(&slot) {
            self.touched.push(slot);
        }
    }

    fn flush(&mut self) {
        for slot in self.touched.drain(..) {
            self.link.flush(slot);
        }
    }

    // Readers already flattened any Batch envelope.
    fn recv(&mut self, deadline: Option<Duration>) -> Option<(ServerId, Msg)> {
        match deadline {
            None => self.replies.recv().ok(),
            Some(t) => self.replies.recv_timeout(t).ok(),
        }
    }

    // Deregister first, then hand out what raced the deregistration.
    fn try_recv(&mut self) -> Option<Msg> {
        self.close();
        self.replies.try_recv().ok().map(|(_, msg)| msg)
    }
}

/// The TM-side reader for the edge in `slot`: decodes frames, flattens
/// coalesced envelopes and routes each inner reply to the `execute` call
/// driving its transaction. Unroutable replies are stale stragglers,
/// counted into `stale` under the shared rule (acks never count).
fn tm_reader_loop(
    stream: UnixStream,
    slot: usize,
    link: &TmLink,
    routes: &Routes,
    stale: &AtomicU64,
) {
    let from = ServerId::new(slot as u64);
    let mut reader = BufReader::new(stream);
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        link.stats.note_received(payload.len());
        let Ok(msg) = decode_msg(&payload) else {
            link.stats.note_decode_error();
            continue;
        };
        // A decoded frame proves the edge is healthy: reopen the
        // reconnect budget.
        link.reconnect_attempts.store(0, Ordering::Relaxed);
        match msg {
            Msg::Batch(inner) => {
                (inner.into_iter()).for_each(|msg| route_reply(from, msg, routes, stale))
            }
            other => route_reply(from, other, routes, stale),
        }
    }
}

/// Routes one server→TM message to the `execute` call driving its
/// transaction. A message nobody takes is a stale straggler, counted under
/// the shared rule: it carries no transaction id (foreign) or its route is
/// gone. (`WireTm` deregisters before it drops its receiver, so a routed
/// send does not fail; a reply whose send did is stale all the same.)
fn route_reply(from: ServerId, msg: Msg, routes: &Routes, dropped: &AtomicU64) {
    // Sent with the routes locked (the channel is unbounded, a send never
    // blocks): one lock per reply and no clone of the route's sender.
    let untaken = {
        let routes = routes.lock().expect("routes lock");
        match reply_txn(&msg).and_then(|txn| routes.get(&txn.index())) {
            Some(tx) => tx.send((from, msg)).err().map(|SendError((_, msg))| msg),
            None => Some(msg),
        }
    };
    if untaken.is_some_and(|msg| reply_counts_as_dropped(&msg)) {
        dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// The transaction a server→TM message belongs to.
fn reply_txn(msg: &Msg) -> Option<TxnId> {
    match msg {
        Msg::QueryDone { txn, .. }
        | Msg::ValidateReply { txn, .. }
        | Msg::CommitReply { txn, .. }
        | Msg::Ack { txn }
        | Msg::Inquiry { txn, .. }
        | Msg::InquiryReply { txn, .. }
        | Msg::VersionReply { txn, .. } => Some(*txn),
        _ => None,
    }
}

#[cfg(test)]
mod tests;
