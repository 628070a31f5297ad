//! Criterion micro-benchmarks for batched proof evaluation: one server
//! round's worth of requests through `DataPlane::begin_batch` against the
//! same requests through per-request `evaluate_one` calls (each a batch of
//! one).
//!
//! The proof cache is disabled so both paths do real work: the looped path
//! re-fetches the policy, re-checks the credential wallet and re-runs the
//! rule saturation per request, while the batch shares one fetch and one
//! saturation per (policy, version, wallet) and dedups identical requests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use safetx_core::{DataPlane, ResourcePolicyMap, ServerCore, SharedCas, SharedCatalog};
use safetx_policy::{Atom, CaRegistry, CertificateAuthority, Constant, Credential, PolicyBuilder};
use safetx_txn::{CommitVariant, Operation, QuerySpec};
use safetx_types::{
    AdminDomain, CaId, DataItemId, PolicyId, PolicyVersion, ServerId, Timestamp, UserId,
};
use std::hint::black_box;
use std::sync::Arc;

/// A data plane with one installed policy, a registered CA and the proof
/// cache off (so every request is a genuine evaluation in both paths).
fn data_plane() -> (Arc<DataPlane>, Vec<Credential>) {
    let catalog = SharedCatalog::new();
    catalog.publish(
        PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .rules_text(
                "grant(read, records) :- role(U, member).\n\
                 grant(write, records) :- role(U, member).",
            )
            .expect("rules parse")
            .build(),
    );
    let mut registry = CaRegistry::new();
    let mut ca = CertificateAuthority::new(CaId::new(0), 7);
    let credential = ca.issue(
        UserId::new(1),
        Atom::fact(
            "role",
            vec![Constant::symbol("u1"), Constant::symbol("member")],
        ),
        Timestamp::ZERO,
        Timestamp::MAX,
    );
    registry.register(ca);
    let mut core: ServerCore<u8> = ServerCore::new(
        ServerId::new(0),
        catalog,
        ResourcePolicyMap::single(PolicyId::new(0)),
        SharedCas::new(registry),
        CommitVariant::Standard,
    );
    core.install_policy(PolicyId::new(0), PolicyVersion::INITIAL);
    core.set_proof_cache(false);
    (core.data_plane(), vec![credential])
}

fn query() -> Arc<QuerySpec> {
    Arc::new(QuerySpec::new(
        ServerId::new(0),
        "write",
        "records",
        vec![Operation::Read(DataItemId::new(0))],
    ))
}

fn bench_batch_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime/batch_eval");
    let (data, creds) = data_plane();
    let query = query();
    let now = Timestamp::from_millis(1);
    for &n in &[4usize, 16, 64] {
        // Distinct requests (one per user) sharing the policy and wallet:
        // the batch pays one saturation, the loop pays n.
        group.bench_with_input(BenchmarkId::new("looped_distinct", n), &n, |b, &n| {
            b.iter(|| {
                for i in 0..n as u64 {
                    black_box(data.evaluate_one(now, UserId::new(i), &creds, &query));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("batched_distinct", n), &n, |b, &n| {
            b.iter(|| {
                let mut batch = data.begin_batch(now);
                for i in 0..n as u64 {
                    black_box(batch.evaluate_one(UserId::new(i), &creds, &query));
                }
            });
        });
        // Identical requests: the batch evaluates once and dedups the rest
        // (the redundant-evaluation race, measured).
        group.bench_with_input(BenchmarkId::new("batched_identical", n), &n, |b, &n| {
            b.iter(|| {
                let mut batch = data.begin_batch(now);
                for _ in 0..n {
                    black_box(batch.evaluate_one(UserId::new(1), &creds, &query));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_eval);
criterion_main!(benches);
