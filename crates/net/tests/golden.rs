//! Golden bytes: one pinned payload per `Msg` variant.
//!
//! The round-trip properties in `tests/proptest_wire.rs` cannot see a
//! layout change that encode and decode make together (say, two fields
//! swapped on both sides). These vectors can: each message must encode to
//! exactly its bytes, and the bytes must decode back to the message. The
//! values are chosen so that every nested tag appears at least once:
//! `Constant` 0/1, `Term` 0/1, `ProofOutcome` 0–3, `Operation` 0–2,
//! `Value` 0/1, `Vote`, `Decision` and `InquiryAnswer` 0/1, `Option` both
//! absent and present, and a two-entry `VersionMap`.
//!
//! A vector changes only together with `WIRE_VERSION`.

use safetx_core::{Msg, ValidationReply, VersionMap};
use safetx_net::{decode_msg, encode_msg};
use safetx_policy::{
    AccessCapability, AccessRequest, Atom, Constant, Credential, PolicyBuilder,
    ProofOfAuthorization, ProofOutcome, Rule, Term,
};
use safetx_store::Value;
use safetx_txn::{Decision, InquiryAnswer, Operation, QuerySpec, TransactionSpec, Vote};
use safetx_types::{
    AdminDomain, CaId, CredentialId, DataItemId, PolicyId, PolicyVersion, ServerId, Timestamp,
    TxnId, UserId,
};
use std::sync::Arc;

fn sym(s: &str) -> Term {
    Term::Const(Constant::Symbol(s.into()))
}

fn credential(id: u64) -> Credential {
    Credential::from_parts(
        CredentialId::new(id),
        UserId::new(3),
        Atom::new(
            "role",
            vec![
                Term::Var("U".into()),
                sym("m"),
                Term::Const(Constant::Int(-2)),
            ],
        ),
        CaId::new(1),
        Timestamp::from_micros(10),
        Timestamp::from_micros(20),
        0xfeed,
    )
}

fn capability() -> AccessCapability {
    AccessCapability::from_parts(
        ServerId::new(2),
        UserId::new(3),
        TxnId::new(4),
        "w".into(),
        "r".into(),
        Timestamp::from_micros(5),
        Timestamp::from_micros(6),
        0xbeef,
    )
}

fn query() -> QuerySpec {
    QuerySpec::new(
        ServerId::new(1),
        "w",
        "r",
        vec![
            Operation::Read(DataItemId::new(7)),
            Operation::Write(DataItemId::new(8), Value::Int(-1)),
            Operation::Write(DataItemId::new(9), Value::Str("x".into())),
            Operation::Add(DataItemId::new(10), 5),
        ],
    )
}

fn proof(outcome: ProofOutcome) -> ProofOfAuthorization {
    ProofOfAuthorization {
        request: AccessRequest::new(UserId::new(3), "w", "r"),
        server: ServerId::new(1),
        policy_id: PolicyId::new(0),
        policy_version: PolicyVersion(2),
        evaluated_at: Timestamp::from_micros(30),
        credentials: vec![CredentialId::new(11)],
        outcome,
    }
}

fn versions() -> VersionMap {
    [
        (PolicyId::new(0), PolicyVersion(2)),
        (PolicyId::new(5), PolicyVersion(1)),
    ]
    .into()
}

fn reply(vote: Vote, outcomes: [ProofOutcome; 2]) -> ValidationReply {
    ValidationReply {
        vote,
        truth: vote == Vote::Yes,
        conflict: vote == Vote::No,
        versions: versions(),
        proofs: outcomes.map(proof).into(),
    }
}

/// The 18 vectors, in `Msg` tag order: the message and its payload in hex
/// (whitespace ignored).
fn vectors() -> Vec<(Msg, &'static str)> {
    let txn = TxnId::new(4);
    vec![
        (
            Msg::Begin {
                spec: TransactionSpec::new(txn, UserId::new(3), vec![query()]),
                credentials: vec![credential(11)],
            },
            "0100040000000000000003000000000000000100000001000000000000000100
             00007701000000720400000000070000000000000001080000000000000000ff
             ffffffffffffff010900000000000000010100000078020a0000000000000005
             00000000000000010000000b0000000000000003000000000000000400000072
             6f6c65030000000101000000550000010000006d0001feffffffffffffff0100
             0000000000000a000000000000001400000000000000edfe000000000000",
        ),
        (
            Msg::ExecQuery {
                txn,
                query_index: 1,
                query: Arc::new(query()),
                user: UserId::new(3),
                credentials: vec![credential(11), credential(12)].into(),
                evaluate_proof: true,
                pin_versions: versions(),
                capabilities: vec![capability()],
            },
            "0101040000000000000001000000000000000100000000000000010000007701
             000000720400000000070000000000000001080000000000000000ffffffffff
             ffffff010900000000000000010100000078020a000000000000000500000000
             0000000300000000000000020000000b00000000000000030000000000000004
             000000726f6c65030000000101000000550000010000006d0001feffffffffff
             ffff01000000000000000a000000000000001400000000000000edfe00000000
             00000c00000000000000030000000000000004000000726f6c65030000000101
             000000550000010000006d0001feffffffffffffff01000000000000000a0000
             00000000001400000000000000edfe0000000000000102000000000000000000
             0000020000000000000005000000000000000100000000000000010000000200
             0000000000000300000000000000040000000000000001000000770100000072
             05000000000000000600000000000000efbe000000000000",
        ),
        (
            Msg::QueryDone {
                txn,
                query_index: 2,
                ok: true,
                proof: Some(proof(ProofOutcome::Granted)),
                capability: Some(capability()),
            },
            "0102040000000000000002000000000000000101030000000000000001000000
             7701000000720100000000000000000000000000000002000000000000001e00
             000000000000010000000b000000000000000001020000000000000003000000
             0000000004000000000000000100000077010000007205000000000000000600
             000000000000efbe000000000000",
        ),
        (
            Msg::PrepareToValidate {
                txn,
                new_query: Some((3, Arc::new(query()))),
                user: UserId::new(3),
                credentials: vec![credential(11)].into(),
            },
            "0103040000000000000001030000000000000001000000000000000100000077
             01000000720400000000070000000000000001080000000000000000ffffffff
             ffffffff010900000000000000010100000078020a0000000000000005000000
             000000000300000000000000010000000b000000000000000300000000000000
             04000000726f6c65030000000101000000550000010000006d0001feffffffff
             ffffff01000000000000000a000000000000001400000000000000edfe000000
             000000",
        ),
        (
            Msg::ValidateReply {
                txn,
                reply: reply(
                    Vote::Yes,
                    [
                        ProofOutcome::Granted,
                        ProofOutcome::InvalidCredential {
                            credential: CredentialId::new(11),
                            detail: "bad".into(),
                        },
                    ],
                ),
            },
            "0104040000000000000000010002000000000000000000000002000000000000
             0005000000000000000100000000000000020000000300000000000000010000
             007701000000720100000000000000000000000000000002000000000000001e
             00000000000000010000000b0000000000000000030000000000000001000000
             7701000000720100000000000000000000000000000002000000000000001e00
             000000000000010000000b00000000000000010b000000000000000300000062
             6164",
        ),
        (
            Msg::PrepareToCommit {
                txn,
                validate: true,
                expected_queries: vec![0, 2],
            },
            "01050400000000000000010200000000000000000000000200000000000000",
        ),
        (
            Msg::CommitReply {
                txn,
                reply: reply(
                    Vote::No,
                    [
                        ProofOutcome::RevokedCredential {
                            credential: CredentialId::new(12),
                            revoked_at: Timestamp::from_micros(40),
                        },
                        ProofOutcome::NotDerivable,
                    ],
                ),
            },
            "0106040000000000000001000102000000000000000000000002000000000000
             0005000000000000000100000000000000020000000300000000000000010000
             007701000000720100000000000000000000000000000002000000000000001e
             00000000000000010000000b00000000000000020c0000000000000028000000
             0000000003000000000000000100000077010000007201000000000000000000
             00000000000002000000000000001e00000000000000010000000b0000000000
             000003",
        ),
        (
            Msg::Update {
                txn,
                targets: versions(),
                in_commit: false,
            },
            "0107040000000000000002000000000000000000000002000000000000000500
             000000000000010000000000000000",
        ),
        (
            Msg::Decision {
                txn,
                decision: Decision::Commit,
            },
            "0108040000000000000000",
        ),
        (Msg::Ack { txn }, "01090400000000000000"),
        (Msg::VersionRequest { txn }, "010a0400000000000000"),
        (
            Msg::VersionReply {
                txn,
                versions: versions(),
            },
            "010b040000000000000002000000000000000000000002000000000000000500
             0000000000000100000000000000",
        ),
        (
            Msg::PolicyGossip {
                policy_id: PolicyId::new(5),
                version: PolicyVersion(6),
            },
            "010c05000000000000000600000000000000",
        ),
        (
            Msg::AdminPublish {
                policy_id: PolicyId::new(5),
                version: PolicyVersion(7),
            },
            "010d05000000000000000700000000000000",
        ),
        (
            Msg::AdminPublishPolicy {
                policy: PolicyBuilder::new(PolicyId::new(5), AdminDomain::new(1))
                    .version(PolicyVersion(8))
                    .rules(
                        [Rule::new(
                            Atom::new("grant", vec![Term::Var("U".into()), sym("w")]),
                            vec![Atom::new("role", vec![Term::Var("U".into()), sym("m")])],
                        )
                        .expect("the head's variable is bound in the body")]
                        .into_iter()
                        .collect(),
                    )
                    .build(),
            },
            "010e050000000000000001000000000000000800000000000000010000000500
             00006772616e7402000000010100000055000001000000770100000004000000
             726f6c65020000000101000000550000010000006d",
        ),
        (
            Msg::Batch(vec![
                Msg::QueryDone {
                    txn,
                    query_index: 0,
                    ok: false,
                    proof: None,
                    capability: None,
                },
                Msg::InquiryReply {
                    txn,
                    answer: InquiryAnswer::Unknown,
                },
            ]),
            "010f020000000204000000000000000000000000000000000000110400000000
             00000001",
        ),
        (
            Msg::Inquiry {
                txn,
                from_server: ServerId::new(2),
            },
            "011004000000000000000200000000000000",
        ),
        (
            Msg::InquiryReply {
                txn,
                answer: InquiryAnswer::Decided(Decision::Abort),
            },
            "011104000000000000000001",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).expect("ascii"), 16).expect("hex"))
        .collect()
}

#[test]
fn every_variant_encodes_to_its_pinned_bytes_and_decodes_back() {
    let vectors = vectors();
    assert_eq!(vectors.len(), 18, "one vector per Msg variant");
    for (tag, (msg, want)) in vectors.iter().enumerate() {
        let want = unhex(want);
        let got = encode_msg(msg);
        assert_eq!(got[1], tag as u8, "vectors are in tag order");
        assert_eq!(hex(&got), hex(&want), "{msg:?} encodes to other bytes");
        let decoded = decode_msg(&want).expect("a golden vector decodes");
        assert_eq!(format!("{decoded:?}"), format!("{msg:?}"));
    }
}
