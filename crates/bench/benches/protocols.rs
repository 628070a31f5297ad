//! Criterion micro-benchmarks for the pure protocol state machines (no
//! simulator, no I/O): 2PV collection/validation, 2PVC commit, and the 2PC
//! participant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use safetx_core::{ConsistencyLevel, TwoPvc, ValidationConfig, ValidationReply, ValidationRound};
use safetx_txn::{CommitVariant, Participant, Vote};
use safetx_types::{PolicyId, PolicyVersion, ServerId, TxnId};
use std::collections::BTreeSet;
use std::hint::black_box;

fn participants(n: u64) -> BTreeSet<ServerId> {
    (0..n).map(ServerId::new).collect()
}

fn reply(version: u64) -> ValidationReply {
    ValidationReply {
        vote: Vote::Yes,
        truth: true,
        conflict: false,
        versions: [(PolicyId::new(0), PolicyVersion(version))].into(),
        proofs: vec![],
    }
}

fn bench_two_pv(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol/2pv_clean_round");
    for &n in &[4u64, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut v = ValidationRound::new(
                    participants(n),
                    ValidationConfig::new(ConsistencyLevel::View),
                );
                let mut actions = v.start();
                for i in 0..n {
                    actions.extend(v.on_reply(ServerId::new(i), reply(1)));
                }
                black_box(actions)
            })
        });
    }
    group.finish();
}

fn bench_two_pv_update_round(c: &mut Criterion) {
    c.bench_function("protocol/2pv_update_round_n16", |b| {
        b.iter(|| {
            let n = 16;
            let mut v = ValidationRound::new(
                participants(n),
                ValidationConfig::new(ConsistencyLevel::View),
            );
            let mut actions = v.start();
            // One participant is ahead; the rest are stale and re-reply.
            actions.extend(v.on_reply(ServerId::new(0), reply(2)));
            for i in 1..n {
                actions.extend(v.on_reply(ServerId::new(i), reply(1)));
            }
            for i in 1..n {
                actions.extend(v.on_reply(ServerId::new(i), reply(2)));
            }
            black_box(actions)
        })
    });
}

fn bench_two_pvc(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol/2pvc_clean_commit");
    for &n in &[4u64, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut pvc = TwoPvc::new(
                    TxnId::new(1),
                    participants(n),
                    ConsistencyLevel::View,
                    CommitVariant::Standard,
                    true,
                );
                let mut actions = pvc.start();
                for i in 0..n {
                    actions.extend(pvc.on_reply(ServerId::new(i), reply(1)));
                }
                for i in 0..n {
                    actions.extend(pvc.on_ack(ServerId::new(i)));
                }
                black_box(actions)
            })
        });
    }
    group.finish();
}

fn bench_participant(c: &mut Criterion) {
    c.bench_function("protocol/participant_prepare_decide", |b| {
        b.iter(|| {
            let mut p = Participant::new(TxnId::new(1), CommitVariant::Standard);
            let mut outputs = p.on_prepare(
                Vote::Yes,
                Some(true),
                vec![(PolicyId::new(0), PolicyVersion(1))],
            );
            outputs.extend(p.on_decision(safetx_txn::Decision::Commit));
            black_box(outputs)
        })
    });
}

criterion_group!(
    benches,
    bench_two_pv,
    bench_two_pv_update_round,
    bench_two_pvc,
    bench_participant
);
criterion_main!(benches);
