//! Run the 2PVC protocol across real OS processes.
//!
//! The parent process is the transaction manager; it re-executes itself
//! once per cloud server with `SAFETX_NET_ROLE=server`, and every protocol
//! message crosses a filesystem Unix socket as a length-prefixed wire
//! frame (see `safetx::net::wire`). Nothing is shared between the
//! processes except bytes: each server process builds its own catalog,
//! seeds its own store, and mirrors the TM's deterministic credential
//! issuance so both sides' certificate authorities agree on signatures.
//!
//! ```bash
//! cargo run --example net_processes
//! ```

use safetx::core::{ConsistencyLevel, ProofScheme, ResourcePolicyMap, ServerCore, SharedCas};
use safetx::net::{NetCluster, ServerHost, TM_PEER};
use safetx::policy::{
    Atom, CaRegistry, CertificateAuthority, Constant, Credential, Policy, PolicyBuilder,
};
use safetx::runtime::ClusterConfig;
use safetx::store::Value;
use safetx::txn::{CommitVariant, Operation, QuerySpec, TransactionSpec};
use safetx::types::{
    AdminDomain, CaId, DataItemId, PolicyId, PolicyVersion, ServerId, Timestamp, UserId,
};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SERVERS: usize = 3;
const TXNS: u64 = 8;
const CA_SEED: u64 = 0x7331;

fn policy() -> Policy {
    PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text(
            "grant(read, records) :- role(U, member).\n\
             grant(write, records) :- role(U, member).",
        )
        .expect("rules parse")
        .build()
}

/// Issue the member credential from CA 0. The CA is deterministic from its
/// seed, so as long as every process issues the same credentials in the
/// same order, ids and signatures agree across process boundaries.
fn issue_member(cas: &SharedCas) -> Credential {
    cas.with_mut(|registry| {
        registry.ca_mut(CaId::new(0)).expect("CA 0").issue(
            UserId::new(1),
            Atom::fact(
                "role",
                vec![Constant::symbol("u1"), Constant::symbol("member")],
            ),
            Timestamp::ZERO,
            Timestamp::MAX,
        )
    })
}

/// The server role: one `ServerHost` behind a filesystem
/// socket, serving until the TM hangs up.
fn serve(id: u64, socket: &Path) {
    let catalog = safetx::core::SharedCatalog::new();
    let mut registry = CaRegistry::new();
    registry.register(CertificateAuthority::new(CaId::new(0), CA_SEED));
    let cas = SharedCas::new(registry);
    let _ = issue_member(&cas); // mirror the TM's issuance order
    catalog.publish(policy());
    let mut core = ServerCore::new(
        ServerId::new(id),
        catalog,
        ResourcePolicyMap::single(PolicyId::new(0)),
        cas,
        CommitVariant::Standard,
    );
    core.install_policy(PolicyId::new(0), PolicyVersion::INITIAL);
    for j in 0..TXNS {
        core.store_mut().write(
            DataItemId::new(id * 100 + j),
            Value::Int(100),
            Timestamp::ZERO,
        );
    }
    let host = ServerHost::spawn(core, Instant::now());

    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket).expect("bind server socket");
    let (stream, _) = listener.accept().expect("accept TM connection");
    host.attach(TM_PEER, stream);
    // Serve until the TM hangs up (the connection is attached when
    // `attach` returns; its reader detaches it on EOF).
    while host.live_peers() > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    host.shutdown();
}

fn connect_with_retry(path: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return stream,
            Err(e) if Instant::now() >= deadline => {
                panic!("server at {} never came up: {e}", path.display())
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn main() {
    if std::env::var("SAFETX_NET_ROLE").as_deref() == Ok("server") {
        let id: u64 = std::env::var("SAFETX_NET_SERVER")
            .expect("SAFETX_NET_SERVER")
            .parse()
            .expect("server id");
        let socket = PathBuf::from(std::env::var("SAFETX_NET_SOCKET").expect("SAFETX_NET_SOCKET"));
        serve(id, &socket);
        return;
    }

    let dir = std::env::temp_dir().join(format!("safetx-net-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let exe = std::env::current_exe().expect("current exe");

    // One child process per cloud server, each behind its own socket.
    let mut children = Vec::new();
    let mut streams = Vec::new();
    for i in 0..SERVERS {
        let socket = dir.join(format!("server-{i}.sock"));
        let child = std::process::Command::new(&exe)
            .env("SAFETX_NET_ROLE", "server")
            .env("SAFETX_NET_SERVER", i.to_string())
            .env("SAFETX_NET_SOCKET", &socket)
            .spawn()
            .expect("spawn server process");
        children.push(child);
        streams.push(connect_with_retry(&socket));
    }

    // TM-only cluster over the connected streams. The local catalog only
    // answers master consults, so publish the same policy version the
    // server processes installed for themselves.
    let cluster = NetCluster::connect(
        ClusterConfig {
            servers: SERVERS,
            scheme: ProofScheme::Continuous,
            consistency: ConsistencyLevel::Global,
            ..Default::default()
        },
        streams,
    );
    cluster.publish_policy(policy());
    let credential = issue_member(cluster.cas());

    let mut commits = 0;
    for t in 0..TXNS {
        let queries = (0..SERVERS as u64)
            .map(|s| {
                QuerySpec::new(
                    ServerId::new(s),
                    "write",
                    "records",
                    vec![Operation::Add(DataItemId::new(s * 100 + t), 1)],
                )
            })
            .collect();
        let spec = TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries);
        let result = cluster.execute(&spec, std::slice::from_ref(&credential));
        if result.is_commit() {
            commits += 1;
        }
        println!(
            "txn {t}: {:?} in {:.2} ms ({} messages, {} proofs)",
            result.outcome,
            result.elapsed.as_secs_f64() * 1_000.0,
            result.metrics.messages,
            result.metrics.proofs,
        );
    }

    let transport = cluster.transport_counters();
    println!(
        "commits={commits}/{TXNS} frames_sent={} bytes_sent={} decode_errors={}",
        transport.frames_sent, transport.bytes_sent, transport.decode_errors,
    );
    cluster.shutdown();
    for mut child in children {
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        commits, TXNS,
        "a clean two-process run must commit everything"
    );
}
