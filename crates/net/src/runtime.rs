//! Unix-socket deployment of the safetx protocol state machines.
//!
//! Every protocol message crosses a real byte stream: each cloud server
//! sits behind a [`ServerHost`] and runs on the thread that reads a
//! connection's frames, each TM drives the
//! sans-io `TmCore` from [`NetCluster::execute`], and the two sides talk
//! exclusively through framed [`crate::wire`] messages over `UnixStream`s
//! (in-process duplex pairs by default; a multi-process deployment
//! connects the same hosts over filesystem sockets — see
//! `examples/net_processes.rs`).
//!
//! Both sides run the protocol drivers `safetx-core` owns: a server takes
//! up to `server_batch` frames a connection has buffered and feeds them to
//! `ServerCore::run_round` (one WAL group, one proof-evaluation batch),
//! coalescing the replies per peer into a single [`Msg::Batch`] frame; the
//! TM side is `safetx_core::drive_tm` over framed sends. Peer disconnects
//! surface through the existing failure detector — a reply that never
//! arrives trips `ClusterConfig::reply_timeout` and the core aborts with
//! `AbortReason::ServerUnavailable`; reconnecting resumes traffic under
//! the peer's original logical id (see `safetx_core::coalesce_replies`
//! for why the id must survive the reconnect).

use crate::fault::{
    corrupt_payload, splitmix64, truncate_len, NetFabric, NetFaultPlan, NetVerdict,
};
use crate::wire::{decode_msg, encode_msg, read_frame, write_frame};
use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use safetx_core::{
    coalesce_replies, drive_tm, reply_counts_as_dropped, terminate_leftover, Msg, MsgKind,
    ResourcePolicyMap, ServerCore, SharedCas, SharedCatalog, TmCore, TmCrashPoint, TmIo,
    VersionMap,
};
use safetx_metrics::{FaultCounters, TransportCounters};
use safetx_policy::{CaRegistry, CertificateAuthority, Credential};
use safetx_runtime::{ClusterConfig, CrashPoint, ExecutionResult, Peer};
use safetx_store::Wal;
use safetx_txn::{CoordinatorRecord, InquiryAnswer, TransactionSpec};
use safetx_types::{CaId, PolicyId, PolicyVersion, ServerId, Timestamp, TxnId};
use std::collections::{BTreeSet, HashMap};
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
    fn note_sent(&self, bytes: usize) {
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

/// What the fault fabric did with one outbound frame.
enum WireFate {
    /// The stream is still usable (frame written, dropped, duplicated…).
    Intact,
    /// The stream must be killed (mid-frame truncation or disconnect).
    Kill,
}

/// Writes one raw payload as a frame (`u32le` length + payload).
fn write_raw_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<usize> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(4 + payload.len())
}

/// The message kind a frame rolls under (a `Batch` envelope rolls under
/// its first inner message — one frame, one roll).
fn frame_kind(msg: &Msg) -> MsgKind {
    match msg {
        Msg::Batch(inner) => inner.first().map(MsgKind::of).unwrap_or(MsgKind::Other),
        other => MsgKind::of(other),
    }
}

/// Whether any protocol moment a frame carries satisfies `pred` (crash
/// points match any inner message of a coalesced envelope).
fn any_frame_kind(msg: &Msg, mut pred: impl FnMut(MsgKind) -> bool) -> bool {
    match msg {
        Msg::Batch(inner) => inner.iter().map(MsgKind::of).any(pred),
        other => pred(MsgKind::of(other)),
    }
}

/// The single choke point every stream write funnels through: rolls the
/// frame against the armed fault plan and performs the verdict. Counts
/// frames it actually writes into `stats`; fault decisions are counted on
/// the fabric. `WireFate::Kill` (and any I/O error) means the caller must
/// tear the stream down — the generation-guarded reconnect paths take it
/// from there.
fn write_through_fabric<W: Write>(
    fabric: &NetFabric,
    from: Peer,
    to: Peer,
    seq: u64,
    writer: &mut W,
    msg: &Msg,
    stats: &EdgeStats,
) -> std::io::Result<WireFate> {
    match fabric.verdict(from, to, frame_kind(msg), seq) {
        NetVerdict::Deliver => {
            stats.note_sent(write_frame(writer, msg)?);
            Ok(WireFate::Intact)
        }
        NetVerdict::Drop => {
            fabric.stats.dropped.fetch_add(1, Ordering::Relaxed);
            Ok(WireFate::Intact)
        }
        NetVerdict::Duplicate => {
            fabric.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            let payload = encode_msg(msg);
            stats.note_sent(write_raw_frame(writer, &payload)?);
            stats.note_sent(write_raw_frame(writer, &payload)?);
            Ok(WireFate::Intact)
        }
        NetVerdict::Delay(by) => {
            fabric.stats.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(by);
            stats.note_sent(write_frame(writer, msg)?);
            Ok(WireFate::Intact)
        }
        NetVerdict::Corrupt { roll } => {
            fabric.stats.corrupted.fetch_add(1, Ordering::Relaxed);
            let mut payload = encode_msg(msg);
            corrupt_payload(&mut payload, roll);
            stats.note_sent(write_raw_frame(writer, &payload)?);
            Ok(WireFate::Intact)
        }
        NetVerdict::Truncate { roll } => {
            fabric.stats.truncated.fetch_add(1, Ordering::Relaxed);
            let payload = encode_msg(msg);
            let mut frame = Vec::with_capacity(4 + payload.len());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            let cut = truncate_len(frame.len(), roll);
            writer.write_all(&frame[..cut])?;
            // Push the partial bytes onto the wire before the kill, so the
            // receiver really observes a mid-frame desync, not a clean cut.
            let _ = writer.flush();
            Ok(WireFate::Kill)
        }
        NetVerdict::Disconnect => {
            fabric.stats.disconnects.fetch_add(1, Ordering::Relaxed);
            Ok(WireFate::Kill)
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

/// What a host's lock guards: the server and its connections.
struct HostState {
    /// `None` once the host crashed or shut down.
    core: Option<ServerCore<NetAddr>>,
    /// Where a crash parks the core (store + WAL — the durable state)
    /// until `respawn` picks it back up.
    salvage: Option<ServerCore<NetAddr>>,
    links: HashMap<u64, PeerLink>,
    /// Server-side edge stats by peer id; survives reconnects and crashes.
    edges: HashMap<u64, Arc<EdgeStats>>,
    next_generation: u64,
}

impl HostState {
    /// Tears the host down as if its process died: every connection drops
    /// (its reader wakes on EOF and exits) and the core leaves. On a crash
    /// the volatile state (locks, in-flight rounds, decided memo) is wiped
    /// and the core lands in the salvage slot; a clean stop drops it.
    fn kill(&mut self, crash: bool, fabric: &NetFabric) {
        for (_, link) in self.links.drain() {
            let _ = link.writer.get_ref().shutdown(std::net::Shutdown::Both);
        }
        match self.core.take() {
            Some(mut core) if crash => {
                core.crash();
                fabric.stats.server_crashes.fetch_add(1, Ordering::Relaxed);
                self.salvage = Some(core);
            }
            _ => {}
        }
    }
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
    state: Mutex<HostState>,
    /// Every connection whose reader is not yet joined. Its own lock,
    /// because a reader blocked writing to a peer that stopped reading
    /// holds `state`, and only shutting its stream down unblocks it. A
    /// reader never joins itself: `attach` drops the finished ones and
    /// joins the one it replaces; crash, respawn and shutdown join all.
    conns: Mutex<Vec<Conn>>,
    server: ServerId,
    /// The fault fabric every frame this host writes rolls against.
    fabric: Arc<NetFabric>,
    epoch: Instant,
    batch: usize,
}

impl HostShared {
    fn state(&self) -> MutexGuard<'_, HostState> {
        self.state.lock().expect("host lock (a reader panicked)")
    }

    /// Runs one round on the calling reader's thread: the socket-runtime
    /// analogue of one iteration of the threaded runtime's `server_loop`,
    /// with the round's proof evaluation inline. Replies are coalesced
    /// into one frame (and one flush) per destination and written before
    /// the lock is released, so every peer sees rounds in the order they
    /// ran; a disconnected peer is fine to ignore, like a dead channel in
    /// the threaded runtime. Returns `false` when the host is dead — it
    /// was already, or a scheduled crash point fired in this round.
    fn serve(&self, round: &mut Vec<(NetAddr, Msg)>) -> bool {
        let mut state = self.state();
        let state = &mut *state;
        let Some(core) = state.core.as_mut() else {
            return false;
        };
        let cut = cut_at_crash_point(&self.fabric, self.server, round);
        let out = core.run_round(now_since(self.epoch), round.drain(..));
        let mut outputs = out.replies;
        if let Some(deferred) = out.deferred {
            outputs.extend(deferred.run(now_since(self.epoch)));
        }
        let outputs = coalesce_replies(outputs, |a| a.0);
        let crashed = send_frames(&mut state.links, &self.fabric, self.server, outputs) || cut;
        if crashed {
            state.kill(true, &self.fabric);
        }
        !crashed
    }

    /// Takes every connection out of the registry to shut down and join.
    fn take_conns(&self) -> Vec<Conn> {
        // Teardown runs from `Drop`, which must not panic, and the
        // registry is valid at every step: a poisoned lock is usable.
        std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Kills the host (see [`HostState::kill`]) and joins every reader.
    /// The streams go down before `state` is asked for (a blocked writer
    /// holds it) and the readers are joined after it is released (an
    /// exiting reader takes it once more, to detach).
    fn stop(&self, crash: bool) {
        let conns = self.take_conns();
        for conn in &conns {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .kill(crash, &self.fabric);
        for conn in conns {
            let _ = conn.reader.join();
        }
    }
}

/// One cloud server over byte streams.
///
/// The host is a lock around the `ServerCore` and every connection to it;
/// it has no thread of its own. Each connection's reader thread decodes
/// the frames it reads, takes the lock and runs the round itself
/// (`ServerCore::run_round`), the replies of a round coalesced per peer
/// into one frame.
pub struct ServerHost {
    shared: Arc<HostShared>,
}

impl ServerHost {
    /// Wraps a configured core as a host with no connection yet and no
    /// fault fabric armed (a standalone host injects no faults).
    #[must_use]
    pub fn spawn(core: ServerCore<NetAddr>, epoch: Instant, batch: usize) -> ServerHost {
        Self::spawn_with_fabric(core, epoch, batch, Arc::new(NetFabric::default()))
    }

    /// A host sharing the cluster's fault fabric.
    pub(crate) fn spawn_with_fabric(
        core: ServerCore<NetAddr>,
        epoch: Instant,
        batch: usize,
        fabric: Arc<NetFabric>,
    ) -> ServerHost {
        let shared = HostShared {
            server: core.id(),
            state: Mutex::new(HostState {
                core: Some(core),
                salvage: None,
                links: HashMap::new(),
                edges: HashMap::new(),
                next_generation: 0,
            }),
            conns: Mutex::default(),
            fabric,
            epoch,
            batch: batch.max(1),
        };
        ServerHost {
            shared: Arc::new(shared),
        }
    }

    /// Brings a crashed host back around a recovered core. Edge stats and
    /// the fabric carry over; connections do not — the process died, so
    /// every peer must re-attach.
    pub(crate) fn respawn(&self, core: ServerCore<NetAddr>) {
        // The dead incarnation's readers go first: a straggler still
        // holding a pre-crash frame must find no core to feed it to.
        for conn in self.shared.take_conns() {
            let _ = conn.reader.join();
        }
        self.shared.state().core = Some(core);
    }

    /// Kills the host as if the process died. When this returns the core
    /// is in the salvage slot and every connection and reader is gone.
    pub(crate) fn crash(&self) {
        self.shared.stop(true);
    }

    /// True while a crashed host's core waits in the salvage slot.
    pub(crate) fn crashed(&self) -> bool {
        self.shared.state().salvage.is_some()
    }

    /// Takes the salvaged core of a crashed host.
    pub(crate) fn take_salvaged(&self) -> Option<ServerCore<NetAddr>> {
        self.shared.state().salvage.take()
    }

    /// Places protocol messages of the host's own on the wire
    /// (post-recovery coordinator inquiries for in-doubt transactions).
    pub(crate) fn emit(&self, msgs: Vec<(NetAddr, Msg)>) {
        let (fabric, server) = (&self.shared.fabric, self.shared.server);
        let mut state = self.shared.state();
        if send_frames(&mut state.links, fabric, server, msgs) {
            state.kill(true, fabric);
        }
    }

    /// Attaches (or replaces) the connection carrying peer `peer`'s
    /// traffic. The host reads frames from it and writes replies to it;
    /// attaching over an existing connection counts as a reconnect. A
    /// crashed or stopped host drops the stream instead.
    pub fn attach(&self, peer: u64, stream: UnixStream) {
        let read_half = stream.try_clone().expect("clone unix stream");
        let teardown_half = stream.try_clone().expect("clone unix stream");
        let (generation, stats, replaced) = {
            let mut state = self.shared.state();
            if state.core.is_none() {
                return;
            }
            let stats = Arc::clone(state.edges.entry(peer).or_default());
            let generation = state.next_generation;
            state.next_generation += 1;
            let link = PeerLink {
                writer: BufWriter::new(stream),
                stats: Arc::clone(&stats),
                generation,
                seq: 0,
            };
            let replaced = state.links.insert(peer, link).map(|old| {
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

    /// Runs `f` on the core, between rounds.
    fn with_core<R>(&self, f: impl FnOnce(&mut ServerCore<NetAddr>) -> R) -> R {
        f(self.shared.state().core.as_mut().expect("host alive"))
    }

    /// Applies a configuration closure to the core, between rounds
    /// (seed data, install policies). Control plane only — it never
    /// crosses the wire.
    ///
    /// # Panics
    ///
    /// Panics when the host has crashed or shut down.
    pub fn configure(&self, f: impl FnOnce(&mut ServerCore<NetAddr>) + Send + 'static) {
        self.with_core(f);
    }

    /// How many connections are currently attached. A multi-process server
    /// can poll this to exit once its last client hangs up.
    #[must_use]
    pub fn live_peers(&self) -> usize {
        self.shared.state().links.len()
    }

    /// Server-side transport counters summed over this host's edges.
    #[must_use]
    pub fn transport_counters(&self) -> TransportCounters {
        let state = self.shared.state();
        state.edges.values().map(|e| e.snapshot()).sum()
    }

    /// Server-side counters for one peer's edge, if it ever attached.
    #[must_use]
    pub fn edge_counters(&self, peer: u64) -> Option<TransportCounters> {
        self.shared.state().edges.get(&peer).map(|e| e.snapshot())
    }

    /// Drops every connection and the core, and joins the readers.
    pub fn shutdown(self) {
        // `Drop` does it.
    }
}

impl Drop for ServerHost {
    fn drop(&mut self) {
        self.shared.stop(false);
    }
}

fn now_since(epoch: Instant) -> Timestamp {
    Timestamp::from_micros(epoch.elapsed().as_micros() as u64)
}

/// True when a whole frame already sits in the reader's buffer, so
/// reading it cannot block.
fn frame_buffered(reader: &BufReader<UnixStream>) -> bool {
    match reader.buffer() {
        [a, b, c, d, rest @ ..] => rest.len() >= u32::from_le_bytes([*a, *b, *c, *d]) as usize,
        _ => false,
    }
}

/// One connection's thread — and the server's thread for every frame that
/// arrives on it: blocks for a frame, adds the complete frames already
/// buffered behind it (up to `server_batch`: the queue a round drains is
/// the connection's buffer), and runs the round itself. A payload that
/// fails to decode is counted and skipped (framing survives — the next
/// length prefix is still in phase). EOF, an I/O error or a dead host ends
/// the thread, which detaches its link unless a replacement already did.
fn host_reader(
    host: &HostShared,
    stream: UnixStream,
    peer: u64,
    generation: u64,
    stats: &EdgeStats,
) {
    let mut reader = BufReader::new(stream);
    let mut round = Vec::new();
    let decode = |round: &mut Vec<(NetAddr, Msg)>, payload: Vec<u8>| {
        stats.note_received(payload.len());
        match decode_msg(&payload) {
            Ok(msg) => round.push((NetAddr(peer), msg)),
            Err(_) => stats.note_decode_error(),
        }
    };
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        decode(&mut round, payload);
        while round.len() < host.batch && frame_buffered(&reader) {
            let Ok(Some(payload)) = read_frame(&mut reader) else {
                break;
            };
            decode(&mut round, payload);
        }
        if !round.is_empty() && !host.serve(&mut round) {
            break;
        }
    }
    let mut state = host.state();
    if state
        .links
        .get(&peer)
        .is_some_and(|l| l.generation == generation)
    {
        state.links.remove(&peer);
    }
}

/// Applies the armed plan's receive-side crash points to a round, before
/// the core sees it. `BeforeReceive` kills the server with the matching
/// message (and the rest of the round) unprocessed, `AfterReceive` right
/// after processing it — the round is cut there and `true` returned;
/// `AfterSend` fires in [`send_frames`]. Exactly the windows the threaded
/// fabric exposes, so the same recovery obligations arise.
fn cut_at_crash_point(
    fabric: &NetFabric,
    server: ServerId,
    round: &mut Vec<(NetAddr, Msg)>,
) -> bool {
    if !fabric.is_armed() {
        return false;
    }
    // A Batch envelope is by definition its inner messages in order;
    // flatten so the cut lands at message granularity.
    let mut flat = Vec::with_capacity(round.len());
    for (from, msg) in round.drain(..) {
        match msg {
            Msg::Batch(inner) => flat.extend(inner.into_iter().map(|m| (from, m))),
            other => flat.push((from, other)),
        }
    }
    *round = flat;
    for (i, (_, msg)) in round.iter().enumerate() {
        let kind = MsgKind::of(msg);
        for (point, keep) in [
            // The matching message dies with the server.
            (CrashPoint::BeforeReceive(kind), i),
            (CrashPoint::AfterReceive(kind), i + 1),
        ] {
            if fabric.take_crash(server, |p| p == point).is_some() {
                round.truncate(keep);
                return true;
            }
        }
    }
    false
}

/// Writes one frame per message through the fault fabric, flushing each.
/// Returns `true` when an `AfterSend` crash point fired — the matching
/// frame left the host, the rest of the batch dies with it.
fn send_frames(
    links: &mut HashMap<u64, PeerLink>,
    fabric: &NetFabric,
    server: ServerId,
    outputs: Vec<(NetAddr, Msg)>,
) -> bool {
    for (to, msg) in outputs {
        let Some(link) = links.get_mut(&to.0) else {
            continue;
        };
        // Consult the crash schedule before the write (the threaded fabric
        // consumes the rule at the send), crash after it: the frame — and
        // with it the force the server already performed — escapes first.
        let crash_after = any_frame_kind(&msg, |kind| {
            fabric
                .take_crash(server, |p| p == CrashPoint::AfterSend(kind))
                .is_some()
        });
        let seq = link.seq;
        link.seq += 1;
        let fate = write_through_fabric(
            fabric,
            Peer::Server(server),
            Peer::Coordinator,
            seq,
            &mut link.writer,
            &msg,
            &link.stats,
        )
        .and_then(|fate| {
            link.writer.flush()?;
            Ok(fate)
        });
        match fate {
            Ok(WireFate::Intact) => {}
            Ok(WireFate::Kill) | Err(_) => {
                // Dead (or fabric-killed) connection: drop the stream; the
                // reader's detach handles the bookkeeping, and the TM side
                // reconnects with backoff.
                let _ = link.writer.get_ref().shutdown(std::net::Shutdown::Both);
            }
        }
        if crash_after {
            return true;
        }
    }
    false
}

/// The TM pool's side of one edge.
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
    fn new() -> TmLink {
        TmLink {
            writer: Mutex::new(None),
            stats: Arc::new(EdgeStats::default()),
            seq: AtomicU64::new(0),
            reconnect_attempts: AtomicU64::new(0),
        }
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

struct TmWriter {
    /// Kept so disconnects can unblock the reader thread.
    stream: UnixStream,
    writer: BufWriter<UnixStream>,
}

/// Routes server→TM replies to the `execute` call driving that
/// transaction. Readers route by the `txn` field every TM-bound reply
/// carries; an unroutable reply is a stale straggler and is counted under
/// the same rule the in-process runtimes apply.
type Routes = Arc<Mutex<HashMap<u64, Sender<(ServerId, Msg)>>>>;

/// A cluster whose protocol traffic crosses real byte streams.
///
/// [`NetCluster::new`] runs everything in-process over `UnixStream::pair`
/// duplex sockets: one [`ServerHost`] per server, with
/// [`NetCluster::execute`] driving the sans-io `TmCore` from the calling
/// thread exactly like `safetx_runtime::Cluster::execute` — same effects,
/// same decision log, same inline master consult, same reply-deadline
/// failure detector. [`NetCluster::connect`] instead attaches to server
/// processes listening on filesystem sockets (the hosts then live in
/// other processes and only the TM side runs here).
pub struct NetCluster {
    config: ClusterConfig,
    catalog: SharedCatalog,
    cas: SharedCas,
    epoch: Instant,
    next_txn: AtomicU64,
    /// In-process hosts (empty in `connect` mode).
    hosts: Vec<ServerHost>,
    /// Shared with the reader threads (they answer wire inquiries and
    /// reset reconnect budgets).
    links: Arc<Vec<TmLink>>,
    routes: Routes,
    readers: Mutex<Vec<JoinHandle<()>>>,
    dropped_replies: Arc<AtomicU64>,
    timeout_aborts: AtomicU64,
    /// Reconnect loops that exhausted their bounded attempt budget.
    reconnect_exhausted: AtomicU64,
    decision_log: Arc<Mutex<Wal<CoordinatorRecord>>>,
    /// The transport fault fabric every frame (both directions) rolls
    /// against; disabled until a plan is armed.
    fabric: Arc<NetFabric>,
}

/// The TM pool's logical peer id on every server's side of the wire. One
/// pool per cluster today; additional pools would claim distinct ids.
pub const TM_PEER: u64 = 0;

impl NetCluster {
    /// Spawns one in-process [`ServerHost`] per server and connects each
    /// over a fresh `UnixStream` duplex pair. Shares the threaded
    /// runtime's [`ClusterConfig`] surface: `server_batch` (and the
    /// `SAFETX_SERVER_BATCH` fallback), `wal_sync_cost`, `reply_timeout`
    /// and the protocol cell all mean the same thing here.
    ///
    /// # Panics
    ///
    /// Panics when socket pairs cannot be created.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        let mut cluster = Self::unconnected(config);
        let knobs = cluster.config.resolved();
        for i in 0..cluster.config.servers {
            let mut core = ServerCore::new(
                ServerId::new(i as u64),
                cluster.catalog.clone(),
                ResourcePolicyMap::single(PolicyId::new(0)),
                cluster.cas.clone(),
                cluster.config.variant,
            );
            if let Some(cost) = cluster.config.wal_sync_cost {
                core.set_wal_sync_cost(cost);
            }
            core.set_concurrency(knobs.concurrency);
            cluster.hosts.push(ServerHost::spawn_with_fabric(
                core,
                cluster.epoch,
                knobs.server_batch,
                Arc::clone(&cluster.fabric),
            ));
        }
        for i in 0..cluster.config.servers {
            let (tm_end, srv_end) = UnixStream::pair().expect("socketpair");
            cluster.hosts[i].attach(TM_PEER, srv_end);
            cluster.install_tm_connection(i, tm_end, false);
        }
        cluster
    }

    /// The TM side with no host and no connection yet: a fresh catalog,
    /// one certificate authority (`CA0`), a disarmed fabric.
    fn unconnected(config: ClusterConfig) -> Self {
        let mut registry = CaRegistry::new();
        registry.register(CertificateAuthority::new(CaId::new(0), 0x7331));
        let links: Vec<TmLink> = (0..config.servers).map(|_| TmLink::new()).collect();
        NetCluster {
            config,
            catalog: SharedCatalog::new(),
            cas: SharedCas::new(registry),
            epoch: Instant::now(),
            next_txn: AtomicU64::new(0),
            hosts: Vec::new(),
            links: Arc::new(links),
            routes: Arc::new(Mutex::new(HashMap::new())),
            readers: Mutex::new(Vec::new()),
            dropped_replies: Arc::new(AtomicU64::new(0)),
            timeout_aborts: AtomicU64::new(0),
            reconnect_exhausted: AtomicU64::new(0),
            decision_log: Arc::new(Mutex::new(Wal::new())),
            fabric: Arc::new(NetFabric::default()),
        }
    }

    /// Builds a TM-only cluster over already-connected streams, one per
    /// server in server-id order (stream `i` talks to server *i*). The
    /// server hosts live elsewhere — typically other processes serving
    /// filesystem sockets — so [`NetCluster::configure_server`] and the
    /// policy helpers are unavailable; the server processes seed
    /// themselves. The local catalog still answers master consults, so
    /// publish the same policy versions here that the servers installed.
    #[must_use]
    pub fn connect(config: ClusterConfig, streams: Vec<UnixStream>) -> Self {
        assert_eq!(
            streams.len(),
            config.servers,
            "one stream per configured server"
        );
        let cluster = Self::unconnected(config);
        for (i, stream) in streams.into_iter().enumerate() {
            cluster.install_tm_connection(i, stream, false);
        }
        cluster
    }

    /// Installs a connection on link `i`: registers the writer and spawns
    /// the demultiplexing reader.
    fn install_tm_connection(&self, i: usize, stream: UnixStream, reconnect: bool) {
        let link = &self.links[i];
        if reconnect {
            link.stats.note_reconnect();
        }
        let reader_stream = stream.try_clone().expect("clone unix stream");
        let writer_stream = stream.try_clone().expect("clone unix stream");
        *link.writer.lock().expect("link writer lock") = Some(TmWriter {
            stream,
            writer: BufWriter::new(writer_stream),
        });
        self.spawn_tm_reader(i, reader_stream);
    }

    /// Spawns the demultiplexing reader for link `i`'s current connection.
    fn spawn_tm_reader(&self, i: usize, stream: UnixStream) {
        let ctx = TmReaderCtx {
            links: Arc::clone(&self.links),
            routes: Arc::clone(&self.routes),
            dropped: Arc::clone(&self.dropped_replies),
            decision_log: Arc::clone(&self.decision_log),
            fabric: Arc::clone(&self.fabric),
        };
        let from = ServerId::new(i as u64);
        let handle = std::thread::spawn(move || {
            tm_reader_loop(stream, from, &ctx);
        });
        // A replaced connection's reader has exited (or is about to): drop
        // finished handles here, or a flapping edge grows this forever.
        let mut readers = self.readers.lock().expect("readers lock");
        readers.retain(|reader| !reader.is_finished());
        readers.push(handle);
    }

    /// The configuration this cluster was built with.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shared policy catalog (also the master version server: consults
    /// are answered inline from its latest snapshot).
    #[must_use]
    pub fn catalog(&self) -> &SharedCatalog {
        &self.catalog
    }

    /// The shared certificate authorities.
    #[must_use]
    pub fn cas(&self) -> &SharedCas {
        &self.cas
    }

    /// Protocol-time now (microseconds since cluster start).
    #[must_use]
    pub fn now(&self) -> Timestamp {
        now_since(self.epoch)
    }

    /// A fresh transaction id.
    #[must_use]
    pub fn next_txn_id(&self) -> TxnId {
        TxnId::new(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// Stale replies observed across every `execute` (same accounting rule
    /// as the in-process runtimes: acks never count, everything else
    /// does).
    #[must_use]
    pub fn dropped_replies(&self) -> u64 {
        self.dropped_replies.load(Ordering::Relaxed)
    }

    /// Failure counters: everything the transport fault fabric injected
    /// (drops, delays, duplicates, corruption, truncation, disconnects),
    /// crash/recovery counts, exhausted reconnect budgets, and the reply
    /// deadlines that fired (`timeout_aborts`). All zero on a clean run
    /// with no plan armed.
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        let mut counters = self.fabric.stats.snapshot();
        counters.timeout_aborts = self.timeout_aborts.load(Ordering::Relaxed);
        counters.reconnect_exhausted = self.reconnect_exhausted.load(Ordering::Relaxed);
        counters
    }

    /// Arms a transport fault plan: every frame subsequently written on
    /// any edge (both directions) rolls against it, and scheduled server
    /// crashes fire at their protocol points. Replaces any armed plan and
    /// re-arms consumed one-shot rules.
    pub fn set_fault_plan(&self, plan: NetFaultPlan) {
        self.fabric.arm(plan);
    }

    /// Disarms the fault fabric: traffic flows clean again (accumulated
    /// fault counters are kept). Also reopens every edge's reconnect
    /// budget — the cap exists to bound reconnect storms *while faults
    /// rage*; once the network is declared healthy, an edge whose budget
    /// was exhausted mid-chaos must be reachable again (recovery and
    /// in-doubt resolution depend on it).
    pub fn clear_fault_plan(&self) {
        self.fabric.disarm();
        for link in self.links.iter() {
            link.reconnect_attempts.store(0, Ordering::Relaxed);
        }
    }

    /// Kills a server as if its process died: volatile state (locks,
    /// in-flight rounds, the decided memo) is lost, every one of its
    /// connections drops, and in-flight frames are gone. The store and WAL
    /// survive for [`NetCluster::restart_server`]. The server is crashed
    /// (and its reader threads joined) when this returns.
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range or in `connect` mode.
    pub fn crash_server(&self, server: ServerId) {
        let i = server.index() as usize;
        let host = self
            .hosts
            .get(i)
            .expect("in-process server host (crash is unavailable in connect mode)");
        host.crash();
        // The TM side of the edge is dead too; sever it so sends fail fast
        // instead of filling a kernel buffer nobody reads.
        let link = &self.links[i];
        if let Some(writer) = link.writer.lock().expect("link writer lock").take() {
            let _ = writer.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Servers that crashed (scheduled or via [`NetCluster::crash_server`])
    /// and have not been restarted.
    #[must_use]
    pub fn crashed_servers(&self) -> Vec<ServerId> {
        self.hosts
            .iter()
            .enumerate()
            .filter(|(_, host)| host.crashed())
            .map(|(i, _)| ServerId::new(i as u64))
            .collect()
    }

    /// Restarts a crashed server: replays its WAL (`recover_from_wal`
    /// rebuilds the decided memo and re-acquires locks for in-doubt
    /// transactions), brings the host back around it, reconnects the TM
    /// edge under the server's stable peer id, and puts one wire
    /// [`Msg::Inquiry`] per in-doubt transaction on the new connection —
    /// the TM-side readers answer from the decision log. The inquiries
    /// cross the real (fault-subject) wire; a quiesced
    /// [`NetCluster::resolve_in_doubt`] is the lossless backstop.
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range, in `connect` mode, or
    /// when the server is not crashed.
    pub fn restart_server(&self, server: ServerId) {
        let i = server.index() as usize;
        let host = self
            .hosts
            .get(i)
            .expect("in-process server host (restart is unavailable in connect mode)");
        let mut core = host
            .take_salvaged()
            .expect("a crashed server to restart (see `crashed_servers`)");
        let in_doubt = core.recover_from_wal();
        host.respawn(core);
        let (tm_end, srv_end) = UnixStream::pair().expect("socketpair");
        host.attach(TM_PEER, srv_end);
        self.links[i].reconnect_attempts.store(0, Ordering::Relaxed);
        self.install_tm_connection(i, tm_end, true);
        self.fabric.stats.recoveries.fetch_add(1, Ordering::Relaxed);
        let inquiries: Vec<(NetAddr, Msg)> = in_doubt
            .into_iter()
            .map(|txn| {
                (
                    NetAddr(TM_PEER),
                    Msg::Inquiry {
                        txn,
                        from_server: server,
                    },
                )
            })
            .collect();
        if !inquiries.is_empty() {
            host.emit(inquiries);
        }
    }

    /// Drives every live server's leftover transactions to a decision on a
    /// quiesced cluster (no concurrent `execute` calls), telling each what
    /// `safetx_core::terminate_leftover` derives from the decision log.
    /// Answers cross the real wire, so the probe loops until the hosts
    /// have drained them. Returns the number of transactions resolved.
    ///
    /// # Panics
    ///
    /// Panics when a transaction stays unresolved past the deadline — with
    /// the fabric disarmed that means a decision is genuinely
    /// unobtainable, which quiesced execution rules out.
    pub fn resolve_in_doubt(&self) -> usize {
        let mut resolved: BTreeSet<(usize, TxnId)> = BTreeSet::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut outstanding = 0usize;
            for (i, host) in self.hosts.iter().enumerate() {
                if host.crashed() {
                    continue;
                }
                let (active, in_doubt) =
                    host.with_core(|core| (core.active_txn_ids(), core.in_doubt_txns()));
                let in_doubt: BTreeSet<TxnId> = in_doubt.into_iter().collect();
                for txn in active {
                    outstanding += 1;
                    resolved.insert((i, txn));
                    let msg = {
                        let log = self.decision_log.lock().expect("decision log lock");
                        let variant = self.config.variant;
                        terminate_leftover(txn, in_doubt.contains(&txn), variant, log.records())
                    };
                    self.send_to(i, &msg);
                    self.flush_link(i);
                }
            }
            if outstanding == 0 {
                return resolved.len();
            }
            assert!(
                Instant::now() < deadline,
                "in-doubt resolution wedged: {outstanding} transaction(s) left"
            );
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// A copy of the coordinator-side decision log (every `ForceLog` and
    /// `Log` record the TM pool wrote, in order).
    #[must_use]
    pub fn decision_log_records(&self) -> Vec<CoordinatorRecord> {
        self.decision_log
            .lock()
            .expect("decision log lock")
            .records()
            .cloned()
            .collect()
    }

    /// Aggregated WAL accounting across the in-process hosts (empty in
    /// `connect` mode). Meaningful on a quiesced cluster.
    #[must_use]
    pub fn wal_stats(&self) -> safetx_metrics::WalStats {
        let mut total = safetx_metrics::WalStats::default();
        for host in &self.hosts {
            total.merge(&host.with_core(|core| core.wal_stats()));
        }
        total
    }

    /// Transport counters summed over both sides of every edge.
    #[must_use]
    pub fn transport_counters(&self) -> TransportCounters {
        let tm: TransportCounters = self.links.iter().map(|l| l.stats.snapshot()).sum();
        let servers: TransportCounters =
            self.hosts.iter().map(ServerHost::transport_counters).sum();
        tm + servers
    }

    /// Both sides of one server's edge: `(tm_side, server_side)`. On a
    /// clean quiesced run frames are conserved — everything one side sent,
    /// the other received. `server_side` is all-zero in `connect` mode
    /// (the host lives in another process).
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range.
    #[must_use]
    pub fn edge_counters(&self, server: ServerId) -> (TransportCounters, TransportCounters) {
        let i = server.index() as usize;
        let tm = self.links[i].stats.snapshot();
        let srv = self
            .hosts
            .get(i)
            .and_then(|h| h.edge_counters(TM_PEER))
            .unwrap_or_default();
        (tm, srv)
    }

    /// Applies a configuration closure to a server's core, between its
    /// rounds (seed data, install policies, add constraints).
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range, or in `connect` mode
    /// (remote server processes configure themselves).
    pub fn configure_server(
        &self,
        server: ServerId,
        f: impl FnOnce(&mut ServerCore<NetAddr>) + Send + 'static,
    ) {
        let host = self
            .hosts
            .get(server.index() as usize)
            .expect("in-process server host (configure is unavailable in connect mode)");
        host.configure(f);
    }

    /// Publishes a policy version and notifies every replica.
    pub fn publish_policy(&self, policy: safetx_policy::Policy) {
        let id = policy.id();
        let version = policy.version();
        self.catalog.publish(policy);
        for i in 0..self.hosts.len() {
            self.configure_server(ServerId::new(i as u64), move |core| {
                core.install_policy(id, version);
            });
        }
    }

    /// Installs a policy version at every replica without publishing a new
    /// catalog entry.
    pub fn install_everywhere(&self, policy: PolicyId, version: PolicyVersion) {
        for i in 0..self.hosts.len() {
            self.configure_server(ServerId::new(i as u64), move |core| {
                core.install_policy(policy, version);
            });
        }
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
        let link = &self.links[server.index() as usize];
        if let Some(writer) = link.writer.lock().expect("link writer lock").take() {
            let _ = writer.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Replaces a severed connection with a fresh duplex pair under the
    /// server's original logical peer id, so reply coalescing keyed by
    /// that id spans the reconnect unchanged. Counted on both edges'
    /// `reconnects`.
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range or in `connect` mode.
    pub fn reconnect_server(&self, server: ServerId) {
        let i = server.index() as usize;
        let host = self
            .hosts
            .get(i)
            .expect("in-process server host (reconnect is driven externally in connect mode)");
        let (tm_end, srv_end) = UnixStream::pair().expect("socketpair");
        host.attach(TM_PEER, srv_end);
        self.install_tm_connection(i, tm_end, true);
    }

    /// Executes one transaction synchronously over the wire: the same
    /// shared TM loop (`safetx_core::drive_tm`) as the threaded runtime's
    /// `Cluster::execute`, except every send is an encoded frame and every
    /// reply arrives off a socket, demultiplexed to this call by
    /// transaction id.
    ///
    /// # Panics
    ///
    /// Panics when the core fails to terminate the transaction (a protocol
    /// bug, not an I/O condition).
    #[must_use]
    pub fn execute(&self, spec: &TransactionSpec, credentials: &[Credential]) -> ExecutionResult {
        self.run_tm(spec, credentials, None)
            .expect("no coordinator crash scheduled")
    }

    /// Executes one transaction whose coordinator dies at the given
    /// protocol moment (`None` when the crash fired; `Some` when the
    /// transaction finished before reaching the point). Frames written
    /// before the crash are on the wire; the reply route is gone with the
    /// coordinator, so whatever the participants still send is counted as
    /// stale. [`NetCluster::resolve_in_doubt`] terminates what the crash
    /// leaves behind from the decision log.
    #[must_use]
    pub fn execute_with_coordinator_crash(
        &self,
        spec: &TransactionSpec,
        credentials: &[Credential],
        point: TmCrashPoint,
    ) -> Option<ExecutionResult> {
        self.run_tm(spec, credentials, Some(point))
    }

    fn run_tm(
        &self,
        spec: &TransactionSpec,
        credentials: &[Credential],
        crash: Option<TmCrashPoint>,
    ) -> Option<ExecutionResult> {
        let started = Instant::now();
        let core = TmCore::new(
            self.config.tm_config(),
            spec.clone(),
            credentials.to_vec(),
            self.now(),
        );
        let mut io = WireTm::open(self, spec.id);
        let timeout = self.config.reply_timeout;
        let run = drive_tm(&mut io, core, || self.now(), timeout, crash)?;
        Some(ExecutionResult::from_run(
            run,
            started,
            &self.dropped_replies,
            &self.timeout_aborts,
        ))
    }

    /// Encodes and writes one frame to server `i` (through the fault
    /// fabric) without flushing. A down link first gets a bounded,
    /// backed-off reconnect attempt; once the budget is exhausted the
    /// frame drops — the reply deadline is the failure detector, and the
    /// edge presents as `ServerUnavailable`.
    fn send_to(&self, i: usize, msg: &Msg) {
        {
            let link = &self.links[i];
            let mut slot = link.writer.lock().expect("link writer lock");
            if slot.is_none() && !self.try_reconnect(i, &mut slot) {
                return;
            }
        }
        tm_send(&self.links, &self.fabric, i, msg);
    }

    /// One bounded reconnect attempt for link `i`, called with the
    /// writer slot held and empty. In-process mode only — `connect`-mode
    /// reconnects are driven externally — and never while the server is
    /// crashed (restart owns that handshake).
    fn try_reconnect(&self, i: usize, slot: &mut Option<TmWriter>) -> bool {
        let Some(host) = self.hosts.get(i) else {
            return false;
        };
        if host.crashed() {
            return false;
        }
        let link = &self.links[i];
        let attempt = link.reconnect_attempts.fetch_add(1, Ordering::Relaxed) + 1;
        if attempt > RECONNECT_MAX_ATTEMPTS {
            if attempt == RECONNECT_MAX_ATTEMPTS + 1 {
                self.reconnect_exhausted.fetch_add(1, Ordering::Relaxed);
            }
            return false;
        }
        std::thread::sleep(reconnect_backoff(attempt, i as u64));
        let (tm_end, srv_end) = UnixStream::pair().expect("socketpair");
        host.attach(TM_PEER, srv_end);
        link.stats.note_reconnect();
        let reader_stream = tm_end.try_clone().expect("clone unix stream");
        let writer_stream = tm_end.try_clone().expect("clone unix stream");
        *slot = Some(TmWriter {
            stream: tm_end,
            writer: BufWriter::new(writer_stream),
        });
        self.spawn_tm_reader(i, reader_stream);
        true
    }

    fn flush_link(&self, i: usize) {
        tm_flush(&self.links, i);
    }

    /// Stops every connection and host and joins all their threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for link in self.links.iter() {
            if let Some(writer) = link.writer.lock().expect("link writer lock").take() {
                let _ = writer.stream.shutdown(std::net::Shutdown::Both);
            }
        }
        for handle in self.readers.lock().expect("readers lock").drain(..) {
            let _ = handle.join();
        }
        for host in self.hosts.drain(..) {
            host.shutdown();
        }
    }
}

impl Drop for NetCluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The coordinator's side of one transaction on the wire: its reply route
/// (readers demultiplex replies into it by transaction id) and where the
/// shared TM loop's effects land.
struct WireTm<'a> {
    cluster: &'a NetCluster,
    txn: TxnId,
    replies: Receiver<(ServerId, Msg)>,
    /// Links written since the last flush. They flush once per effect
    /// batch, after the whole batch is encoded — frames keep their
    /// protocol order and a round's sends to one server share a syscall.
    touched: Vec<usize>,
    routed: bool,
}

impl<'a> WireTm<'a> {
    fn open(cluster: &'a NetCluster, txn: TxnId) -> Self {
        let (tx, replies) = unbounded();
        cluster
            .routes
            .lock()
            .expect("routes lock")
            .insert(txn.index(), tx);
        WireTm {
            cluster,
            txn,
            replies,
            touched: Vec::new(),
            routed: true,
        }
    }

    /// Deregisters the reply route: from here on the readers count this
    /// transaction's replies as stale themselves.
    fn close(&mut self) {
        if std::mem::take(&mut self.routed) {
            let mut routes = self.cluster.routes.lock().expect("routes lock");
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
        let i = server.index() as usize;
        self.cluster.send_to(i, &msg);
        if !self.touched.contains(&i) {
            self.touched.push(i);
        }
    }

    fn flush(&mut self) {
        for i in self.touched.drain(..) {
            self.cluster.flush_link(i);
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

    // The catalog IS the master here; answer inline from its snapshot.
    fn master_versions(&self) -> Arc<VersionMap> {
        self.cluster.catalog.latest_snapshot().1
    }

    fn force_decision(&mut self, record: CoordinatorRecord) {
        let mut log = self.cluster.decision_log.lock().expect("decision log lock");
        log.force(record);
    }

    fn append_decision(&mut self, record: CoordinatorRecord) {
        let mut log = self.cluster.decision_log.lock().expect("decision log lock");
        log.append(record);
    }
}

/// Everything a TM-side reader needs beyond its stream: the links (to
/// write inquiry replies and reset reconnect budgets), the reply routes,
/// and the decision log it answers wire inquiries from.
struct TmReaderCtx {
    links: Arc<Vec<TmLink>>,
    routes: Routes,
    dropped: Arc<AtomicU64>,
    decision_log: Arc<Mutex<Wal<CoordinatorRecord>>>,
    fabric: Arc<NetFabric>,
}

/// Writes one frame on link `i` through the fault fabric, without
/// flushing. A missing writer is fine to ignore — the reply deadline (or
/// the reconnect path in `NetCluster::send_to`) is the failure detector.
fn tm_send(links: &[TmLink], fabric: &NetFabric, i: usize, msg: &Msg) {
    let link = &links[i];
    let mut slot = link.writer.lock().expect("link writer lock");
    let Some(tm_writer) = slot.as_mut() else {
        return;
    };
    let seq = link.seq.fetch_add(1, Ordering::Relaxed);
    let fate = write_through_fabric(
        fabric,
        Peer::Coordinator,
        Peer::Server(ServerId::new(i as u64)),
        seq,
        &mut tm_writer.writer,
        msg,
        &link.stats,
    );
    match fate {
        Ok(WireFate::Intact) => {}
        Ok(WireFate::Kill) | Err(_) => {
            let writer = slot.take().expect("writer present");
            let _ = writer.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Flushes link `i`'s writer, severing the connection on failure.
fn tm_flush(links: &[TmLink], i: usize) {
    let link = &links[i];
    let mut slot = link.writer.lock().expect("link writer lock");
    if let Some(tm_writer) = slot.as_mut() {
        if tm_writer.writer.flush().is_err() {
            let writer = slot.take().expect("writer present");
            let _ = writer.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Answers one wire [`Msg::Inquiry`] from a recovering server, but only
/// when the decision log holds an explicit decision record for the
/// transaction. Presumption-based answers (and the collecting-without-
/// decision inference) are deliberately NOT given here: while the cluster
/// is live a coordinator may still be mid-flight, and a presumed answer
/// could contradict the decision it is about to log. The quiesced
/// [`NetCluster::resolve_in_doubt`] applies the full termination protocol
/// once no coordinator can be in flight.
fn answer_wire_inquiry(ctx: &TmReaderCtx, txn: TxnId, from_server: ServerId) {
    let decision = {
        let log = ctx.decision_log.lock().expect("decision log lock");
        let found = log.records().find_map(|record| match record {
            CoordinatorRecord::Decision { txn: t, decision } if *t == txn => Some(*decision),
            _ => None,
        });
        found
    };
    let Some(decision) = decision else {
        return;
    };
    let i = from_server.index() as usize;
    if i >= ctx.links.len() {
        return;
    }
    let reply = Msg::InquiryReply {
        txn,
        answer: InquiryAnswer::Decided(decision),
    };
    tm_send(&ctx.links, &ctx.fabric, i, &reply);
    tm_flush(&ctx.links, i);
}

/// The TM-side reader for one edge: decodes frames, flattens coalesced
/// envelopes, answers recovery inquiries from the decision log, and
/// routes each other inner reply to the `execute` call driving its
/// transaction. Unroutable replies are stale stragglers, counted under
/// the shared rule (acks never count).
fn tm_reader_loop(stream: UnixStream, from: ServerId, ctx: &TmReaderCtx) {
    let i = from.index() as usize;
    let mut reader = BufReader::new(stream);
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        ctx.links[i].stats.note_received(payload.len());
        let msg = match decode_msg(&payload) {
            Ok(msg) => msg,
            Err(_) => {
                ctx.links[i].stats.note_decode_error();
                continue;
            }
        };
        // A decoded frame proves the edge is healthy: reopen the
        // reconnect budget.
        ctx.links[i].reconnect_attempts.store(0, Ordering::Relaxed);
        match msg {
            Msg::Batch(inner) => inner.into_iter().for_each(|msg| deliver(ctx, from, msg)),
            other => deliver(ctx, from, other),
        }
    }
}

/// One server→TM message off the wire: a recovery inquiry is answered
/// here, anything else goes to its transaction's `execute`.
fn deliver(ctx: &TmReaderCtx, from: ServerId, msg: Msg) {
    match msg {
        Msg::Inquiry { txn, from_server } => answer_wire_inquiry(ctx, txn, from_server),
        reply => route_reply(from, reply, &ctx.routes, &ctx.dropped),
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
