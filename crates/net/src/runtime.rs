//! The socket link: the shared control plane over Unix-socket byte
//! streams.
//!
//! Every protocol message crosses a real byte stream, framed by
//! [`crate::wire`], over a `UnixStream` (an in-process duplex pair by
//! default; `examples/net_processes.rs` connects the same hosts over
//! filesystem sockets). [`NetCluster`] is `safetx_runtime::LinkedCluster`
//! over the [`SocketLink`] below, so bootstrap, execute, crash, restart,
//! in-doubt resolution and every counter are the control plane the
//! threaded runtime runs; this module is the transport. Each cloud server
//! sits behind a [`ServerHost`] — the shared `safetx_runtime::Host` plus
//! its connections — whose one thread per connection reads a frame and
//! serves it, each reply a frame of its own. The TM side has no thread:
//! the worker running `safetx_core::drive_tm` reads its own replies
//! ([`WireTm`]). A reply that never arrives trips
//! `ClusterConfig::reply_timeout` and the core aborts with
//! `AbortReason::ServerUnavailable`; reconnecting resumes traffic under
//! the peer's original logical id.

use crate::fault::{write_through_fabric, WireFate};
use crate::wire::{decode_msg, read_frame};
use safetx_core::{reply_counts_as_dropped, Msg, ServerCore, TmIo};
use safetx_metrics::TransportCounters;
use safetx_runtime::{
    splitmix64, ClusterConfig, Fabric, Host, Link, LinkedCluster, Peer, PeerAddr,
};
use safetx_types::{ServerId, TxnId};
use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The logical address of a peer on a server's side of the wire: stable
/// for the peer's lifetime, including across reconnects (a replaced
/// connection keeps the id, so a reply computed across a reconnect still
/// reaches that peer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetAddr(pub u64);

impl PeerAddr for NetAddr {
    // A peer id no connection ever attaches under.
    fn nobody() -> NetAddr {
        NetAddr(u64::MAX)
    }
}

/// One side's transport accounting for one edge, shared by the threads
/// that write and read its frames.
#[derive(Debug, Default)]
pub struct EdgeStats(Mutex<TransportCounters>);

impl EdgeStats {
    fn counters(&self) -> MutexGuard<'_, TransportCounters> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn note_sent(&self, bytes: usize) {
        let mut counters = self.counters();
        counters.frames_sent += 1;
        counters.bytes_sent += bytes as u64;
    }

    /// Counts a frame read off the edge — its 4-byte length prefix too, so
    /// both directions measure the same thing — and decodes it. A payload
    /// that fails to decode is counted and skipped: framing survives, the
    /// next length prefix is still in phase.
    fn decode(&self, payload: &[u8]) -> Option<Msg> {
        let msg = decode_msg(payload).ok();
        let mut counters = self.counters();
        counters.frames_received += 1;
        counters.bytes_received += payload.len() as u64 + 4;
        counters.decode_errors += u64::from(msg.is_none());
        msg
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> TransportCounters {
        *self.counters()
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
    /// The link lock. Taken under the host lock (a message's replies are
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
/// Each connection's reader thread decodes each frame it reads and serves
/// it itself ([`Host::serve`]), each reply written as a frame of its own
/// before the host lock is released, so every peer sees replies in the
/// order the messages were served.
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
        let (peers, conns) = (Mutex::default(), Mutex::default());
        let shared = Arc::new(HostShared { host, peers, conns });
        ServerHost { shared }
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
                stats.counters().reconnects += 1;
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
/// arrives on it: blocks for a frame and serves it itself. EOF or an I/O
/// error ends the thread, which detaches its link unless a replacement
/// already did; a dead host — it was already, or a crash point fired on
/// this message — hangs every connection up first, as the dying process
/// would.
fn host_reader(
    shared: &HostShared,
    stream: UnixStream,
    peer: u64,
    generation: u64,
    stats: &EdgeStats,
) {
    let mut reader = BufReader::new(stream);
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        let Some(msg) = stats.decode(&payload) else {
            continue;
        };
        let emit = |to: &NetAddr, msg| shared.write_reply(*to, &msg);
        if !shared.host.serve(NetAddr(peer), msg, emit) {
            shared.hang_up();
            break;
        }
    }
    let mut peers = shared.peers();
    if peers.links.get(&peer).map(|l| l.generation) == Some(generation) {
        peers.links.remove(&peer);
    }
}

/// The TM pool's side of one edge. It has no thread: a worker waiting on
/// the server reads (see [`WireTm`]).
#[derive(Default)]
struct TmLink {
    /// `None` while disconnected.
    writer: Mutex<Option<TmWriter>>,
    /// `None` once the connection ended.
    reader: Mutex<Option<BufReader<UnixStream>>>,
    stats: Arc<EdgeStats>,
    /// Outbound frame sequence — the fault fabric's per-frame roll input.
    seq: AtomicU64,
    /// Consecutive reconnect attempts since the last healthy frame; the
    /// budget that bounds a reconnect storm.
    reconnect_attempts: AtomicU64,
}

type TmReader<'a> = MutexGuard<'a, Option<BufReader<UnixStream>>>;

impl TmLink {
    fn writer(&self) -> MutexGuard<'_, Option<TmWriter>> {
        self.writer.lock().expect("link writer lock")
    }
}

/// The replies read for each running transaction, by id, and how many
/// workers wait on [`SocketLink::turn`].
#[derive(Default)]
struct Inbox {
    replies: HashMap<u64, VecDeque<(ServerId, Msg)>>,
    waiting: usize,
}

/// What one read of a connection came to.
#[derive(PartialEq)]
enum Read {
    /// A frame for the reader's own transaction.
    Mine,
    Frame,
    /// No frame began in time.
    Quiet,
    /// EOF, an I/O error or a frame cut short: the connection is over.
    Ended,
}

/// Most reconnect attempts the TM makes per outage before declaring the
/// edge unavailable (further sends drop until the server is restarted or
/// a healthy frame arrives, which resets the budget).
const RECONNECT_MAX_ATTEMPTS: u64 = 6;

/// Jittered exponential backoff before reconnect attempt `attempt`
/// (1-based): doubling from 50µs, capped at 2ms, ±50% deterministic
/// jitter — the same shape as the service layer's `RetryPolicy`.
fn reconnect_backoff(attempt: u64, edge: u64) -> Duration {
    let base = (50u64 << (attempt - 1).min(6)).min(2_000);
    let roll = splitmix64(attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ edge) % (base + 1);
    Duration::from_micros(base / 2 + roll)
}

/// A link's write half: its stream (`get_ref`) is also how a disconnect
/// ends a read of the connection.
type TmWriter = BufWriter<UnixStream>;

/// Drops a link's connection, if it has one.
fn sever(slot: &mut Option<TmWriter>) {
    if let Some(writer) = slot.take() {
        let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
    }
}

/// The TM pool's logical peer id on every server's side of the wire. One
/// pool per cluster today; additional pools would claim distinct ids.
pub const TM_PEER: u64 = 0;

/// The longest a worker reads one connection with no frame coming before
/// it looks at its replies and its other connections again.
const READ_SLICE: Duration = Duration::from_millis(2);

/// The [`Link`] of the wire-protocol runtime: a byte stream per server,
/// a [`ServerHost`] on the far side (in this process, or in another) and
/// no thread on this one.
pub struct SocketLink {
    /// In-process hosts by slot (empty when the servers live in other
    /// processes).
    servers: Vec<ServerHost>,
    tm: Vec<TmLink>,
    inbox: Mutex<Inbox>,
    /// Signalled when a reply lands for another worker than the reader, or
    /// a reader is let go.
    turn: Condvar,
    /// The fault fabric every frame (both directions) rolls against.
    fabric: Arc<Fabric>,
}

impl SocketLink {
    /// The link to `servers` servers, `hosts` of them in this process,
    /// with no connection yet.
    fn new(servers: usize, hosts: &[Arc<Host<NetAddr>>], fabric: &Arc<Fabric>) -> Self {
        SocketLink {
            servers: hosts.iter().cloned().map(ServerHost::over).collect(),
            tm: (0..servers).map(|_| TmLink::default()).collect(),
            inbox: Mutex::default(),
            turn: Condvar::new(),
            fabric: Arc::clone(fabric),
        }
    }

    fn inbox(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().expect("inbox lock")
    }

    /// Wakes the waiting workers, if any. Under the inbox lock, which a
    /// worker holds from finding every reader taken until it waits.
    fn wake(&self, inbox: &Inbox) {
        if inbox.waiting > 0 {
            self.turn.notify_all();
        }
    }

    /// Lets a reader go and wakes the waiting workers: one may take it.
    fn let_go(&self, reader: TmReader<'_>) {
        drop(reader);
        self.wake(&self.inbox());
    }

    /// Installs `stream` as the connection of the link in `slot`, whose
    /// writer the caller holds. The old one is shut down first, which ends
    /// a worker's read of it, and what it still held is routed.
    fn install(&self, slot: usize, stream: UnixStream, writer: &mut Option<TmWriter>) {
        let half = BufReader::new(stream.try_clone().expect("clone unix stream"));
        sever(writer);
        let mut reader = self.tm[slot].reader.lock().expect("link reader lock");
        while let Read::Mine | Read::Frame = self.pump(slot, &mut reader, None) {}
        *reader = Some(half);
        *writer = Some(BufWriter::new(stream));
        self.let_go(reader);
    }

    /// Reads one frame of the connection in `slot` — waiting as its
    /// socket's timeout or non-blocking mode allows — and routes it to
    /// the worker driving its transaction, the reader `me` or another.
    fn pump(&self, slot: usize, reader: &mut TmReader<'_>, me: Option<TxnId>) -> Read {
        let Some(stream) = reader.as_mut() else {
            return Read::Ended;
        };
        let payload = match stream.fill_buf() {
            Err(e) if [WouldBlock, TimedOut, Interrupted].contains(&e.kind()) => {
                return Read::Quiet
            }
            Ok(buf) if !buf.is_empty() => read_frame(stream).ok().flatten(),
            _ => None,
        };
        let (Some(payload), link) = (payload, &self.tm[slot]) else {
            // Shut down too, so its writer fails and the next send reconnects.
            let _ = stream.get_ref().shutdown(std::net::Shutdown::Both);
            **reader = None;
            return Read::Ended;
        };
        let Some(msg) = link.stats.decode(&payload) else {
            return Read::Frame;
        };
        // A decoded frame proves the edge healthy: reopen the reconnect
        // budget.
        link.reconnect_attempts.store(0, Ordering::Relaxed);
        let txn = reply_txn(&msg);
        let mut inbox = self.inbox();
        if let Some(replies) = txn.and_then(|txn| inbox.replies.get_mut(&txn.index())) {
            replies.push_back((ServerId::new(slot as u64), msg));
            if txn == me {
                return Read::Mine;
            }
            self.wake(&inbox);
            return Read::Frame;
        }
        drop(inbox);
        // Stale stragglers, counted under the shared rule: no transaction
        // id (foreign) or a transaction that is over.
        if reply_counts_as_dropped(&msg) {
            self.fabric.stale_replies.fetch_add(1, Ordering::Relaxed);
        }
        Read::Frame
    }

    /// Reads what already arrived on every connection no worker reads, so
    /// frames that came after every worker was done are counted too.
    fn settle(&self) {
        for (slot, link) in self.tm.iter().enumerate() {
            let Ok(mut reader) = link.reader.try_lock() else {
                continue;
            };
            let nonblocking = |reader: &TmReader<'_>, on: bool| {
                (reader.as_ref()).map(|r| r.get_ref().set_nonblocking(on))
            };
            nonblocking(&reader, true);
            while let Read::Mine | Read::Frame = self.pump(slot, &mut reader, None) {}
            nonblocking(&reader, false);
            self.let_go(reader);
        }
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
        self.tm[slot].stats.counters().reconnects += 1;
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
        let attempts = &self.tm[slot].reconnect_attempts;
        let attempt = attempts.fetch_add(1, Ordering::Relaxed) + 1;
        if attempt > RECONNECT_MAX_ATTEMPTS {
            if attempt == RECONNECT_MAX_ATTEMPTS + 1 {
                self.fabric.count(|c| &mut c.reconnect_exhausted);
            }
            return false;
        }
        std::thread::sleep(reconnect_backoff(attempt, slot as u64));
        self.reconnect(slot, writer);
        true
    }

    /// Encodes and writes one frame to the server in `slot` (through the
    /// fault fabric) without flushing; whether it went out. A down link
    /// first gets a bounded, backed-off reconnect attempt; once the budget
    /// is exhausted the frame drops — the reply deadline is the failure
    /// detector, and the edge presents as `ServerUnavailable`.
    fn send_to(&self, slot: usize, msg: &Msg) -> bool {
        let link = &self.tm[slot];
        let mut writer = link.writer();
        if writer.is_none() && !self.try_reconnect(slot, &mut writer) {
            return false;
        }
        let out = writer.as_mut().expect("connected above");
        let edge = (Peer::Coordinator, Peer::Server(ServerId::new(slot as u64)));
        let seq = link.seq.fetch_add(1, Ordering::Relaxed);
        let fate = write_through_fabric(&self.fabric, edge, seq, out, msg, &link.stats);
        let intact = matches!(fate, Ok(WireFate::Intact));
        if !intact {
            sever(&mut writer);
        }
        intact
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
        self.inbox().replies.insert(txn.index(), VecDeque::new());
        WireTm {
            link: self,
            txn,
            owed: vec![0; self.tm.len()],
            turn: 0,
            touched: Vec::new(),
            left: VecDeque::new(),
        }
    }

    // The TM side of the edge dies with the server: severed too, so sends
    // fail fast instead of filling a kernel buffer nobody reads, and a
    // worker reading it sees it end.
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
        for link in &self.tm {
            link.reconnect_attempts.store(0, Ordering::Relaxed);
        }
    }

    fn transport_counters(&self) -> TransportCounters {
        self.settle();
        let tm: TransportCounters = self.tm.iter().map(|l| l.stats.snapshot()).sum();
        let servers = self.servers.iter().map(ServerHost::transport_counters);
        tm + servers.sum()
    }
}

impl Drop for SocketLink {
    fn drop(&mut self) {
        for link in &self.tm {
            sever(&mut link.writer.lock().unwrap_or_else(|e| e.into_inner()));
        }
    }
}

/// A cluster whose protocol traffic crosses real byte streams: the shared
/// control plane ([`LinkedCluster`], to which this dereferences) over a
/// [`SocketLink`]. [`NetCluster::new`] runs everything in-process, one
/// [`ServerHost`] per server; [`NetCluster::connect`] attaches to server
/// processes listening on filesystem sockets instead.
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

    /// Both sides of one server's edge: `(tm_side, server_side)`, once the
    /// frames already on every connection no worker reads are read. On a
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
        link.settle();
        let host_side = link
            .servers
            .get(slot)
            .and_then(|h| h.edge_counters(TM_PEER));
        (
            link.tm[slot].stats.snapshot(),
            host_side.unwrap_or_default(),
        )
    }

    /// Stops every connection and host and joins all their threads.
    pub fn shutdown(self) {
        // The link's `Drop` does it.
    }
}

/// The coordinator's side of one transaction on the wire: its inbox
/// entry, the frames each server owes it, and the reads it does itself.
///
/// Waiting for a reply, the worker takes the reader of a server that owes
/// it one, Leader/Followers style, and reads every frame — parking each in
/// its transaction's inbox entry — until one of its own arrives. Finding
/// every such reader held, it waits until a reply is parked for it or a
/// reader is let go. A connection that ends lets its reader go too; the
/// next read finds it ended and returns `None`, as at the deadline.
pub struct WireTm<'a> {
    link: &'a SocketLink,
    txn: TxnId,
    /// Per slot: the frames written and not yet answered — a server
    /// answers a protocol message with one reply frame.
    owed: Vec<u32>,
    /// Where the search for a reader starts; moved on when a read waits
    /// out its slice.
    turn: usize,
    /// Links written since the last flush. They flush once per effect
    /// batch, after the whole batch is encoded — frames keep their
    /// protocol order and a round's sends to one server share a syscall.
    touched: Vec<usize>,
    /// What was parked for it when it closed its inbox entry.
    left: VecDeque<(ServerId, Msg)>,
}

impl WireTm<'_> {
    /// Closes its inbox entry: from here on readers count this
    /// transaction's replies as stale themselves.
    fn close(&mut self) {
        let left = self.link.inbox().replies.remove(&self.txn.index());
        self.left.extend(left.into_iter().flatten());
    }

    /// A reply parked for it, one frame of its server's debt paid.
    fn take(&mut self, inbox: &mut Inbox) -> Option<(ServerId, Msg)> {
        let (from, msg) = inbox.replies.get_mut(&self.txn.index())?.pop_front()?;
        let owed = &mut self.owed[from.index() as usize];
        *owed = owed.saturating_sub(1);
        Some((from, msg))
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
        self.owed[slot] += u32::from(self.link.send_to(slot, &msg));
        if !self.touched.contains(&slot) {
            self.touched.push(slot);
        }
    }

    fn flush(&mut self) {
        for slot in self.touched.drain(..) {
            self.link.flush(slot);
        }
    }

    fn recv(&mut self, deadline: Option<Duration>) -> Option<(ServerId, Msg)> {
        let (link, until) = (self.link, deadline.map(|d| Instant::now() + d));
        let mut inbox = link.inbox();
        loop {
            if let Some(reply) = self.take(&mut inbox) {
                return Some(reply);
            }
            let left = until.map(|u| u.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return None;
            }
            // A free reader it may take, from `turn` on: a server's that owes
            // it a frame or — should none owe one while it waits — any.
            let (owing, n) = (self.owed.iter().any(|&frames| frames > 0), self.owed.len());
            let mut may = (0..n)
                .map(|i| (self.turn + i) % n)
                .filter(|&slot| self.owed[slot] > 0 || !owing);
            let free = may.find_map(|slot| Some((slot, link.tm[slot].reader.try_lock().ok()?)));
            let Some((slot, mut reader)) = free else {
                inbox.waiting += 1;
                inbox = match left {
                    None => link.turn.wait(inbox).expect("inbox lock"),
                    Some(left) => link.turn.wait_timeout(inbox, left).expect("inbox lock").0,
                };
                inbox.waiting -= 1;
                continue;
            };
            drop(inbox);
            if let Some(stream) = reader.as_ref() {
                let wait = left.map_or(READ_SLICE, |left| left.min(READ_SLICE));
                let _ = stream.get_ref().set_read_timeout(Some(wait));
            }
            let read = loop {
                match link.pump(slot, &mut reader, Some(self.txn)) {
                    Read::Frame if until.is_none_or(|u| Instant::now() < u) => {}
                    read => break read,
                }
            };
            link.let_go(reader);
            self.turn = slot + usize::from(read == Read::Quiet);
            inbox = link.inbox();
            if read == Read::Ended {
                // What was read off it before it ended is parked.
                return self.take(&mut inbox);
            }
        }
    }

    // Close first, then hand out what raced the closing.
    fn try_recv(&mut self) -> Option<Msg> {
        self.close();
        self.left.pop_front().map(|(_, msg)| msg)
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
