//! Unix-socket deployment of the safetx protocol state machines.
//!
//! Every protocol message crosses a real byte stream: each cloud server
//! runs as its own event loop behind a [`ServerHost`], each TM drives the
//! sans-io `TmCore` from [`NetCluster::execute`], and the two sides talk
//! exclusively through framed [`crate::wire`] messages over `UnixStream`s
//! (in-process duplex pairs by default; a multi-process deployment
//! connects the same hosts over filesystem sockets — see
//! `examples/net_processes.rs`).
//!
//! Both sides run the protocol drivers `safetx-core` owns: a server drains
//! up to `server_batch` decoded frames and feeds them to
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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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

/// A configuration closure applied on a server host's event loop.
type ConfigureFn = Box<dyn FnOnce(&mut ServerCore<NetAddr>) + Send>;

/// Inputs to a server host's event loop.
#[allow(clippy::large_enum_variant)]
enum HostInput {
    /// A decoded protocol frame from a connected peer.
    Proto(NetAddr, Msg),
    /// Harness-side configuration (seed data, install policies). Control
    /// plane only — it never crosses the wire.
    Configure(ConfigureFn, Sender<()>),
    /// Register (or replace) the connection carrying a peer's traffic.
    Attach(u64, UnixStream),
    /// A reader thread observed EOF or an I/O error on the connection of
    /// this (peer, generation); the host drops the matching writer.
    Detach(u64, u64),
    /// Protocol messages the host itself must place on the wire
    /// (post-recovery coordinator inquiries for in-doubt transactions).
    Emit(Vec<(NetAddr, Msg)>),
    /// Kill the event loop as if the process died: volatile state is
    /// lost, the core is salvaged (store + WAL) for a later restart.
    Crash,
    Shutdown,
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

/// Every protocol moment a frame carries (crash points match any inner
/// message of a coalesced envelope).
fn frame_kinds(msg: &Msg) -> Vec<MsgKind> {
    match msg {
        Msg::Batch(inner) => inner.iter().map(MsgKind::of).collect(),
        other => vec![MsgKind::of(other)],
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

/// A peer's connection as the host's event loop owns it.
struct PeerLink {
    /// Kept so shutdown can unblock the reader thread.
    stream: UnixStream,
    writer: BufWriter<UnixStream>,
    stats: Arc<EdgeStats>,
    /// Distinguishes this connection from a replaced one: a stale reader's
    /// `Detach` must not tear down the replacement.
    generation: u64,
    /// Outbound frame sequence on this connection — the fault fabric's
    /// per-frame roll input.
    seq: u64,
    reader: Option<JoinHandle<()>>,
}

/// One cloud server running as an event loop over byte streams.
///
/// The host owns the `ServerCore` and every connection to it. Frames are
/// decoded by per-connection reader threads and fed to the core in rounds
/// (`ServerCore::run_round`), the replies of a round coalesced per peer
/// into one frame.
pub struct ServerHost {
    /// The live loop's input channel; replaced on respawn after a crash.
    tx: Mutex<Sender<HostInput>>,
    handle: Mutex<Option<JoinHandle<()>>>,
    /// Server-side edge stats by peer id; survives reconnects and crashes.
    edges: Arc<Mutex<HashMap<u64, Arc<EdgeStats>>>>,
    /// Currently attached (not yet detached) connections.
    live_peers: Arc<AtomicUsize>,
    /// The fault fabric every frame this host writes rolls against.
    fabric: Arc<NetFabric>,
    /// Where a crashed loop parks its core (store + WAL — the durable
    /// state) until `respawn` picks it back up.
    salvage: Arc<Mutex<Option<ServerCore<NetAddr>>>>,
    epoch: Instant,
    batch: usize,
}

/// Spawns one host event loop, returning its input channel and handle.
fn spawn_host_loop(
    core: ServerCore<NetAddr>,
    epoch: Instant,
    batch: usize,
    edges: Arc<Mutex<HashMap<u64, Arc<EdgeStats>>>>,
    live_peers: Arc<AtomicUsize>,
    fabric: Arc<NetFabric>,
    salvage: Arc<Mutex<Option<ServerCore<NetAddr>>>>,
) -> (Sender<HostInput>, JoinHandle<()>) {
    let (tx, rx) = unbounded::<HostInput>();
    let loop_tx = tx.clone();
    let handle = std::thread::spawn(move || {
        host_loop(
            core,
            rx,
            loop_tx,
            epoch,
            batch.max(1),
            edges,
            live_peers,
            fabric,
            salvage,
        );
    });
    (tx, handle)
}

impl ServerHost {
    /// Spawns the host's event loop around a configured core, with no
    /// fault fabric armed (a standalone host injects no faults).
    #[must_use]
    pub fn spawn(core: ServerCore<NetAddr>, epoch: Instant, batch: usize) -> ServerHost {
        Self::spawn_with_fabric(core, epoch, batch, Arc::new(NetFabric::default()))
    }

    /// Spawns the host's event loop sharing the cluster's fault fabric.
    pub(crate) fn spawn_with_fabric(
        core: ServerCore<NetAddr>,
        epoch: Instant,
        batch: usize,
        fabric: Arc<NetFabric>,
    ) -> ServerHost {
        let edges: Arc<Mutex<HashMap<u64, Arc<EdgeStats>>>> = Arc::new(Mutex::new(HashMap::new()));
        let live_peers = Arc::new(AtomicUsize::new(0));
        let salvage: Arc<Mutex<Option<ServerCore<NetAddr>>>> = Arc::new(Mutex::new(None));
        let (tx, handle) = spawn_host_loop(
            core,
            epoch,
            batch,
            Arc::clone(&edges),
            Arc::clone(&live_peers),
            Arc::clone(&fabric),
            Arc::clone(&salvage),
        );
        ServerHost {
            tx: Mutex::new(tx),
            handle: Mutex::new(Some(handle)),
            edges,
            live_peers,
            fabric,
            salvage,
            epoch,
            batch,
        }
    }

    /// A clone of the live loop's sender.
    fn sender(&self) -> Sender<HostInput> {
        self.tx.lock().expect("host tx lock").clone()
    }

    /// Restarts the event loop around a recovered core. Edge stats, the
    /// fabric and the salvage slot carry over; connections do not — the
    /// process died, so every peer must re-attach.
    pub(crate) fn respawn(&self, core: ServerCore<NetAddr>) {
        let (tx, handle) = spawn_host_loop(
            core,
            self.epoch,
            self.batch,
            Arc::clone(&self.edges),
            Arc::clone(&self.live_peers),
            Arc::clone(&self.fabric),
            Arc::clone(&self.salvage),
        );
        *self.tx.lock().expect("host tx lock") = tx;
        let old = self
            .handle
            .lock()
            .expect("host handle lock")
            .replace(handle);
        if let Some(old) = old {
            // The crashed loop has already exited (or is draining its
            // links); joining here cannot block on live work.
            let _ = old.join();
        }
    }

    /// Kills the event loop as if the process died. The core lands in the
    /// salvage slot once the loop unwinds; poll [`ServerHost::crashed`].
    pub(crate) fn crash(&self) {
        let _ = self.sender().send(HostInput::Crash);
    }

    /// True once a crashed loop has parked its core for salvage.
    pub(crate) fn crashed(&self) -> bool {
        self.salvage.lock().expect("salvage lock").is_some()
    }

    /// Takes the salvaged core of a crashed loop, if it has landed.
    pub(crate) fn take_salvaged(&self) -> Option<ServerCore<NetAddr>> {
        self.salvage.lock().expect("salvage lock").take()
    }

    /// Joins the (exited) loop thread, if any.
    pub(crate) fn join_loop(&self) {
        if let Some(handle) = self.handle.lock().expect("host handle lock").take() {
            let _ = handle.join();
        }
    }

    /// Hands the host protocol messages to place on the wire itself
    /// (post-recovery coordinator inquiries). Ordered after any `attach`
    /// already sent, so the frames go out on the new connection.
    pub(crate) fn emit(&self, msgs: Vec<(NetAddr, Msg)>) {
        let _ = self.sender().send(HostInput::Emit(msgs));
    }

    /// Attaches (or replaces) the connection carrying peer `peer`'s
    /// traffic. The host reads frames from it and writes replies to it;
    /// attaching over an existing connection counts as a reconnect.
    pub fn attach(&self, peer: u64, stream: UnixStream) {
        let _ = self.sender().send(HostInput::Attach(peer, stream));
    }

    /// Applies a configuration closure on the event loop and waits for it.
    ///
    /// # Panics
    ///
    /// Panics when the host's thread has exited.
    pub fn configure(&self, f: impl FnOnce(&mut ServerCore<NetAddr>) + Send + 'static) {
        let (done_tx, done_rx) = unbounded();
        self.sender()
            .send(HostInput::Configure(Box::new(f), done_tx))
            .expect("host thread alive");
        done_rx.recv().expect("configuration applied");
    }

    /// How many connections are currently attached. A multi-process server
    /// can poll this to exit once its last client hangs up.
    #[must_use]
    pub fn live_peers(&self) -> usize {
        self.live_peers.load(Ordering::Acquire)
    }

    /// Server-side transport counters summed over this host's edges.
    #[must_use]
    pub fn transport_counters(&self) -> TransportCounters {
        let edges = self.edges.lock().expect("edges lock");
        edges.values().map(|e| e.snapshot()).sum()
    }

    /// Server-side counters for one peer's edge, if it ever attached.
    #[must_use]
    pub fn edge_counters(&self, peer: u64) -> Option<TransportCounters> {
        let edges = self.edges.lock().expect("edges lock");
        edges.get(&peer).map(|e| e.snapshot())
    }

    /// Stops the event loop and joins it (readers included).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let _ = self.sender().send(HostInput::Shutdown);
        self.join_loop();
    }
}

impl Drop for ServerHost {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn now_since(epoch: Instant) -> Timestamp {
    Timestamp::from_micros(epoch.elapsed().as_micros() as u64)
}

/// Spawns the reader side of one connection: frames are decoded off the
/// stream and fed into the host's input channel; a payload that fails to
/// decode is counted and skipped (framing survives — the next length
/// prefix is still in phase); EOF or an I/O error reports a detach.
fn spawn_host_reader(
    stream: UnixStream,
    peer: u64,
    generation: u64,
    tx: Sender<HostInput>,
    stats: Arc<EdgeStats>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            stats.note_received(payload.len());
            match decode_msg(&payload) {
                Ok(msg) => {
                    if tx.send(HostInput::Proto(NetAddr(peer), msg)).is_err() {
                        break;
                    }
                }
                Err(_) => stats.note_decode_error(),
            }
        }
        let _ = tx.send(HostInput::Detach(peer, generation));
    })
}

/// The server host's event loop: the socket-runtime analogue of the
/// threaded runtime's `server_loop`, with the round's proof evaluation
/// inline (the loop is the server's single thread).
///
/// The loop exits in one of two ways. A `Shutdown` (or a closed channel)
/// is a clean stop. A crash — `HostInput::Crash` from the harness, or a
/// scheduled crash point firing inside a round — tears the loop down as
/// if the process died: `ServerCore::crash` wipes the volatile state and
/// the core (store + WAL, the durable half) lands in the salvage slot for
/// a later `respawn` + `recover_from_wal`.
#[allow(clippy::too_many_arguments)]
fn host_loop(
    mut core: ServerCore<NetAddr>,
    rx: Receiver<HostInput>,
    tx: Sender<HostInput>,
    epoch: Instant,
    batch: usize,
    edges: Arc<Mutex<HashMap<u64, Arc<EdgeStats>>>>,
    live_peers: Arc<AtomicUsize>,
    fabric: Arc<NetFabric>,
    salvage: Arc<Mutex<Option<ServerCore<NetAddr>>>>,
) {
    let server = core.id();
    let mut links: HashMap<u64, PeerLink> = HashMap::new();
    let mut next_generation = 0u64;
    let mut round: Vec<(NetAddr, Msg)> = Vec::new();
    let crashed = 'outer: loop {
        let Ok(first) = rx.recv() else { break false };
        // Collect one round: up to `batch` protocol messages already
        // queued; control inputs act as barriers exactly like the threaded
        // runtime's.
        let mut control = None;
        match first {
            HostInput::Proto(from, msg) => round.push((from, msg)),
            other => control = Some(other),
        }
        while control.is_none() && round.len() < batch {
            match rx.try_recv() {
                Ok(HostInput::Proto(from, msg)) => round.push((from, msg)),
                Ok(other) => control = Some(other),
                Err(_) => break,
            }
        }
        if !round.is_empty() {
            let cut = cut_at_crash_point(&fabric, server, &mut round);
            let out = core.run_round(now_since(epoch), round.drain(..));
            let mut outputs = out.replies;
            if let Some(deferred) = out.deferred {
                outputs.extend(deferred.run(now_since(epoch)));
            }
            // One frame (and one flush) per destination per round; a
            // disconnected peer is fine to ignore, like a dead channel in
            // the threaded runtime.
            let outputs = coalesce_replies(outputs, |a| a.0);
            if send_frames(&mut links, &fabric, server, outputs) || cut {
                // A scheduled crash point fired mid-round.
                break 'outer true;
            }
        }
        match control {
            None => {}
            Some(HostInput::Configure(f, done)) => {
                f(&mut core);
                let _ = done.send(());
            }
            Some(HostInput::Attach(peer, stream)) => {
                let stats = {
                    let mut edges = edges.lock().expect("edges lock");
                    Arc::clone(edges.entry(peer).or_default())
                };
                let generation = next_generation;
                next_generation += 1;
                let writer_stream = stream.try_clone().expect("clone unix stream");
                let reader = spawn_host_reader(
                    writer_stream.try_clone().expect("clone unix stream"),
                    peer,
                    generation,
                    tx.clone(),
                    Arc::clone(&stats),
                );
                let link = PeerLink {
                    stream,
                    writer: BufWriter::new(writer_stream),
                    stats,
                    generation,
                    seq: 0,
                    reader: Some(reader),
                };
                if let Some(old) = links.insert(peer, link) {
                    // A replaced connection: count the reconnect, unblock
                    // and join the old reader.
                    let _ = old.stream.shutdown(std::net::Shutdown::Both);
                    if let Some(handle) = old.reader {
                        let _ = handle.join();
                    }
                    links[&peer].stats.note_reconnect();
                } else {
                    live_peers.fetch_add(1, Ordering::Release);
                }
            }
            Some(HostInput::Detach(peer, generation))
                if links.get(&peer).is_some_and(|l| l.generation == generation) =>
            {
                let mut link = links.remove(&peer).expect("guard checked presence");
                if let Some(handle) = link.reader.take() {
                    let _ = handle.join();
                }
                live_peers.fetch_sub(1, Ordering::Release);
            }
            // A stale detach from a reader whose connection was already
            // replaced: the link (and its new reader) stay up.
            Some(HostInput::Detach(..)) => {}
            // Not collapsible into a guard: `send_frames` consumes `msgs`,
            // and match guards cannot move out of the scrutinee.
            #[allow(clippy::collapsible_match)]
            Some(HostInput::Emit(msgs)) => {
                if send_frames(&mut links, &fabric, server, msgs) {
                    break 'outer true;
                }
            }
            Some(HostInput::Crash) => break 'outer true,
            Some(HostInput::Shutdown) => break 'outer false,
            Some(HostInput::Proto(..)) => unreachable!("proto inputs join the round"),
        }
    };
    // Unblock and join every reader — on a crash this is the process's
    // sockets dying with it.
    for (_, mut link) in links.drain() {
        let _ = link.stream.shutdown(std::net::Shutdown::Both);
        if let Some(handle) = link.reader.take() {
            let _ = handle.join();
        }
    }
    live_peers.store(0, Ordering::Release);
    if crashed {
        // Volatile state (locks, in-flight rounds, decided memo) is gone;
        // the store and WAL survive for recovery.
        core.crash();
        fabric.stats.server_crashes.fetch_add(1, Ordering::Relaxed);
        *salvage.lock().expect("salvage lock") = Some(core);
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
        let crash_after = frame_kinds(&msg).iter().any(|&kind| {
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
                let _ = link.stream.shutdown(std::net::Shutdown::Both);
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
/// duplex sockets: one [`ServerHost`] event loop per server, with
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
        self.readers.lock().expect("readers lock").push(handle);
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

    /// Kills a server's event loop as if its process died: volatile state
    /// (locks, in-flight rounds, the decided memo) is lost, every one of
    /// its connections drops, and in-flight frames are gone. The store and
    /// WAL survive for [`NetCluster::restart_server`]. Blocks until the
    /// loop has unwound.
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range, in `connect` mode, or
    /// when the loop fails to unwind within ten seconds.
    pub fn crash_server(&self, server: ServerId) {
        let i = server.index() as usize;
        let host = self
            .hosts
            .get(i)
            .expect("in-process server host (crash is unavailable in connect mode)");
        host.crash();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !host.crashed() {
            assert!(Instant::now() < deadline, "server loop failed to unwind");
            std::thread::yield_now();
        }
        host.join_loop();
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
    /// transactions), respawns the event loop, reconnects the TM edge
    /// under the server's stable peer id, and puts one wire
    /// [`Msg::Inquiry`] per in-doubt transaction on the new connection —
    /// the TM-side readers answer from the decision log. The inquiries
    /// cross the real (fault-subject) wire; a quiesced
    /// [`NetCluster::resolve_in_doubt`] is the lossless backstop.
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range, in `connect` mode, or
    /// when no salvaged core appears within ten seconds.
    pub fn restart_server(&self, server: ServerId) {
        let i = server.index() as usize;
        let host = self
            .hosts
            .get(i)
            .expect("in-process server host (restart is unavailable in connect mode)");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut core = loop {
            if let Some(core) = host.take_salvaged() {
                break core;
            }
            assert!(Instant::now() < deadline, "no salvaged core to restart");
            std::thread::yield_now();
        };
        host.join_loop();
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
                let (probe_tx, probe_rx) = unbounded();
                host.configure(move |core| {
                    let _ = probe_tx.send((core.active_txn_ids(), core.in_doubt_txns()));
                });
                let (active, in_doubt) = probe_rx.recv().expect("probe reply");
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
            let (tx, rx) = unbounded();
            host.configure(move |core| {
                let _ = tx.send(core.wal_stats());
            });
            total.merge(&rx.recv().expect("wal stats probe"));
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

    /// Applies a configuration closure on a server's event loop and waits
    /// for it (seed data, install policies, add constraints).
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
        let msgs = match msg {
            Msg::Batch(inner) => inner,
            other => vec![other],
        };
        for msg in msgs {
            if let Msg::Inquiry { txn, from_server } = msg {
                answer_wire_inquiry(ctx, txn, from_server);
                continue;
            }
            route_reply(from, msg, &ctx.routes, &ctx.dropped);
        }
    }
}

/// Routes one server→TM message to the `execute` call driving its
/// transaction. A message nobody takes is a stale straggler, counted under
/// the shared rule: it carries no transaction id (foreign), its route is
/// gone, or — losing the race with deregistration — its receiver is.
fn route_reply(from: ServerId, msg: Msg, routes: &Routes, dropped: &AtomicU64) {
    let sender = reply_txn(&msg).and_then(|txn| {
        let routes = routes.lock().expect("routes lock");
        routes.get(&txn.index()).cloned()
    });
    let untaken = match sender {
        Some(tx) => tx.send((from, msg)).err().map(|SendError((_, msg))| msg),
        None => Some(msg),
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
mod tests {
    use super::*;

    /// A reply can lose the race with its transaction's deregistration: the
    /// reader cloned the route's sender, then `execute` returned and
    /// dropped the receiver. Such a reply is a stale straggler like any
    /// unroutable one — counted unless it is an ack.
    #[test]
    fn reply_that_outlives_its_receiver_counts_as_dropped() {
        let txn = TxnId::new(7);
        let routes: Routes = Arc::default();
        let (tx, rx) = unbounded();
        routes.lock().unwrap().insert(txn.index(), tx);
        drop(rx);
        let dropped = AtomicU64::new(0);
        let from = ServerId::new(0);
        let done = Msg::QueryDone {
            txn,
            query_index: 0,
            ok: true,
            proof: None,
            capability: None,
        };
        route_reply(from, done, &routes, &dropped);
        assert_eq!(dropped.load(Ordering::Relaxed), 1);
        route_reply(from, Msg::Ack { txn }, &routes, &dropped);
        assert_eq!(dropped.load(Ordering::Relaxed), 1, "acks never count");
    }
}
