//! Property tests for the wire codec (`safetx::net::wire`).
//!
//! Two families of properties:
//!
//! * **Identity** — for every [`Msg`] variant (including [`Msg::Batch`]
//!   envelopes, which no peer forms but the codec still carries),
//!   `decode(encode(m))` succeeds and
//!   re-encodes to the same bytes. `Msg` carries `Arc`-shared payloads
//!   and no `PartialEq`, so the comparison runs on canonical encodings:
//!   the encoder is deterministic, so byte equality of encodings is
//!   message equality.
//! * **Rejection** — truncated frames, corrupted payloads and foreign
//!   version bytes are *refused* (a `WireError`, never a panic and never
//!   a silently wrong message).

use proptest::prelude::*;
use safetx::core::{Msg, ValidationReply, VersionMap};
use safetx::net::{decode_msg, encode_msg, read_frame, write_frame, WireError, WIRE_VERSION};
use safetx::policy::{
    AccessCapability, AccessRequest, Atom, Constant, Credential, Policy, PolicyBuilder,
    ProofOfAuthorization, ProofOutcome, Rule, RuleSet, Term,
};
use safetx::store::Value;
use safetx::txn::{Decision, InquiryAnswer, Operation, QuerySpec, TransactionSpec, Vote};
use safetx::types::{
    AdminDomain, CaId, CredentialId, DataItemId, PolicyId, PolicyVersion, ServerId, Timestamp,
    TxnId, UserId,
};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn short_string() -> BoxedStrategy<String> {
    prop_oneof![
        prop::sample::select(vec![
            String::new(),
            "read".to_string(),
            "records".to_string(),
            "π-resource".to_string(),
        ]),
        (0u32..10_000).prop_map(|n| format!("s{n}")),
    ]
    .boxed()
}

fn timestamp() -> BoxedStrategy<Timestamp> {
    any::<u64>().prop_map(Timestamp::from_micros).boxed()
}

fn constant() -> BoxedStrategy<Constant> {
    prop_oneof![
        short_string().prop_map(Constant::Symbol),
        any::<i64>().prop_map(Constant::Int),
    ]
    .boxed()
}

fn term() -> BoxedStrategy<Term> {
    prop_oneof![
        constant().prop_map(Term::Const),
        short_string().prop_map(Term::Var),
    ]
    .boxed()
}

fn atom() -> BoxedStrategy<Atom> {
    (short_string(), prop::collection::vec(term(), 0..3))
        .prop_map(|(predicate, args)| Atom::new(predicate, args))
        .boxed()
}

/// A ground atom (constants only) — what policy rules are built from.
fn ground_atom() -> BoxedStrategy<Atom> {
    (
        short_string(),
        prop::collection::vec(constant().prop_map(Term::Const), 0..3),
    )
        .prop_map(|(predicate, args)| Atom::new(predicate, args))
        .boxed()
}

fn credential() -> BoxedStrategy<Credential> {
    (
        any::<u64>(),
        any::<u64>(),
        atom(),
        any::<u64>(),
        timestamp(),
        timestamp(),
        any::<u64>(),
    )
        .prop_map(|(id, subject, statement, issuer, issued, expires, sig)| {
            Credential::from_parts(
                CredentialId::new(id),
                UserId::new(subject),
                statement,
                CaId::new(issuer),
                issued,
                expires,
                sig,
            )
        })
        .boxed()
}

fn capability() -> BoxedStrategy<AccessCapability> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        short_string(),
        short_string(),
        timestamp(),
        timestamp(),
        any::<u64>(),
    )
        .prop_map(
            |((issuer, user, txn), action, resource, issued, expires, sig)| {
                AccessCapability::from_parts(
                    ServerId::new(issuer),
                    UserId::new(user),
                    TxnId::new(txn),
                    action,
                    resource,
                    issued,
                    expires,
                    sig,
                )
            },
        )
        .boxed()
}

fn outcome() -> BoxedStrategy<ProofOutcome> {
    prop_oneof![
        Just(ProofOutcome::Granted),
        Just(ProofOutcome::NotDerivable),
        (any::<u64>(), short_string()).prop_map(|(c, detail)| ProofOutcome::InvalidCredential {
            credential: CredentialId::new(c),
            detail,
        }),
        (any::<u64>(), timestamp()).prop_map(|(c, at)| ProofOutcome::RevokedCredential {
            credential: CredentialId::new(c),
            revoked_at: at,
        }),
    ]
    .boxed()
}

fn proof() -> BoxedStrategy<ProofOfAuthorization> {
    (
        (any::<u64>(), short_string(), short_string()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        timestamp(),
        prop::collection::vec(any::<u64>(), 0..3),
        outcome(),
    )
        .prop_map(
            |((user, action, resource), (server, policy, version), at, creds, outcome)| {
                ProofOfAuthorization {
                    request: AccessRequest::new(UserId::new(user), action, resource),
                    server: ServerId::new(server),
                    policy_id: PolicyId::new(policy),
                    policy_version: PolicyVersion(version),
                    evaluated_at: at,
                    credentials: creds.into_iter().map(CredentialId::new).collect(),
                    outcome,
                }
            },
        )
        .boxed()
}

fn versions() -> BoxedStrategy<VersionMap> {
    prop::collection::vec((any::<u64>(), any::<u64>()), 0..4)
        .prop_map(|pairs| {
            let mut m = VersionMap::new();
            for (p, v) in pairs {
                m.insert(PolicyId::new(p), PolicyVersion(v));
            }
            m
        })
        .boxed()
}

fn validation_reply() -> BoxedStrategy<ValidationReply> {
    (
        prop_oneof![Just(Vote::Yes), Just(Vote::No)],
        any::<bool>(),
        any::<bool>(),
        versions(),
        prop::collection::vec(proof(), 0..3),
    )
        .prop_map(
            |(vote, truth, conflict, versions, proofs)| ValidationReply {
                vote,
                truth,
                conflict,
                versions,
                proofs,
            },
        )
        .boxed()
}

fn operation() -> BoxedStrategy<Operation> {
    prop_oneof![
        any::<u64>().prop_map(|i| Operation::Read(DataItemId::new(i))),
        (any::<u64>(), any::<i64>())
            .prop_map(|(i, v)| Operation::Write(DataItemId::new(i), Value::Int(v))),
        (any::<u64>(), short_string())
            .prop_map(|(i, s)| Operation::Write(DataItemId::new(i), Value::Str(s))),
        (any::<u64>(), any::<i64>()).prop_map(|(i, d)| Operation::Add(DataItemId::new(i), d)),
    ]
    .boxed()
}

fn query() -> BoxedStrategy<QuerySpec> {
    (
        any::<u64>(),
        short_string(),
        short_string(),
        prop::collection::vec(operation(), 0..3),
    )
        .prop_map(|(server, action, resource, ops)| {
            QuerySpec::new(ServerId::new(server), action, resource, ops)
        })
        .boxed()
}

fn spec() -> BoxedStrategy<TransactionSpec> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(query(), 0..3),
    )
        .prop_map(|(id, user, queries)| {
            TransactionSpec::new(TxnId::new(id), UserId::new(user), queries)
        })
        .boxed()
}

fn policy() -> BoxedStrategy<Policy> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec(
            (ground_atom(), prop::collection::vec(ground_atom(), 0..2)),
            0..3,
        ),
    )
        .prop_map(|((id, admin, version), rules)| {
            let set: RuleSet = rules
                .into_iter()
                .map(|(head, body)| Rule::new(head, body).expect("ground rules are well-formed"))
                .collect();
            PolicyBuilder::new(PolicyId::new(id), AdminDomain::new(admin))
                .version(PolicyVersion(version))
                .rules(set)
                .build()
        })
        .boxed()
}

/// Every non-Batch message variant.
fn plain_msg() -> BoxedStrategy<Msg> {
    prop_oneof![
        (spec(), prop::collection::vec(credential(), 0..2))
            .prop_map(|(spec, credentials)| Msg::Begin { spec, credentials }),
        (
            (any::<u64>(), 0usize..8, query(), any::<u64>()),
            prop::collection::vec(credential(), 0..2),
            any::<bool>(),
            versions(),
            prop::collection::vec(capability(), 0..2),
        )
            .prop_map(
                |((txn, query_index, query, user), creds, evaluate_proof, pins, caps)| {
                    Msg::ExecQuery {
                        txn: TxnId::new(txn),
                        query_index,
                        query: Arc::new(query),
                        user: UserId::new(user),
                        credentials: creds.into(),
                        evaluate_proof,
                        pin_versions: pins,
                        capabilities: caps,
                    }
                }
            ),
        (
            (any::<u64>(), 0usize..8, any::<bool>()),
            prop::option::of(proof()),
            prop::option::of(capability()),
        )
            .prop_map(
                |((txn, query_index, ok), proof, capability)| Msg::QueryDone {
                    txn: TxnId::new(txn),
                    query_index,
                    ok,
                    proof,
                    capability,
                }
            ),
        (
            any::<u64>(),
            prop::option::of((0usize..8, query())),
            any::<u64>(),
            prop::collection::vec(credential(), 0..2),
        )
            .prop_map(|(txn, new_query, user, creds)| Msg::PrepareToValidate {
                txn: TxnId::new(txn),
                new_query: new_query.map(|(i, q)| (i, Arc::new(q))),
                user: UserId::new(user),
                credentials: creds.into(),
            }),
        (any::<u64>(), validation_reply()).prop_map(|(txn, reply)| Msg::ValidateReply {
            txn: TxnId::new(txn),
            reply,
        }),
        (
            any::<u64>(),
            any::<bool>(),
            prop::collection::vec(0usize..8, 0..4)
        )
            .prop_map(|(txn, validate, expected_queries)| Msg::PrepareToCommit {
                txn: TxnId::new(txn),
                validate,
                expected_queries,
            }),
        (any::<u64>(), validation_reply()).prop_map(|(txn, reply)| Msg::CommitReply {
            txn: TxnId::new(txn),
            reply,
        }),
        (any::<u64>(), versions(), any::<bool>()).prop_map(|(txn, targets, in_commit)| {
            Msg::Update {
                txn: TxnId::new(txn),
                targets,
                in_commit,
            }
        }),
        (
            any::<u64>(),
            prop_oneof![Just(Decision::Commit), Just(Decision::Abort)]
        )
            .prop_map(|(txn, decision)| Msg::Decision {
                txn: TxnId::new(txn),
                decision,
            }),
        any::<u64>().prop_map(|txn| Msg::Ack {
            txn: TxnId::new(txn)
        }),
        any::<u64>().prop_map(|txn| Msg::VersionRequest {
            txn: TxnId::new(txn)
        }),
        (any::<u64>(), versions()).prop_map(|(txn, versions)| Msg::VersionReply {
            txn: TxnId::new(txn),
            versions,
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(p, v)| Msg::PolicyGossip {
            policy_id: PolicyId::new(p),
            version: PolicyVersion(v),
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(p, v)| Msg::AdminPublish {
            policy_id: PolicyId::new(p),
            version: PolicyVersion(v),
        }),
        policy().prop_map(|policy| Msg::AdminPublishPolicy { policy }),
        (any::<u64>(), any::<u64>()).prop_map(|(txn, server)| Msg::Inquiry {
            txn: TxnId::new(txn),
            from_server: ServerId::new(server),
        }),
        (
            any::<u64>(),
            prop_oneof![
                Just(InquiryAnswer::Decided(Decision::Commit)),
                Just(InquiryAnswer::Decided(Decision::Abort)),
                Just(InquiryAnswer::Unknown),
            ]
        )
            .prop_map(|(txn, answer)| Msg::InquiryReply {
                txn: TxnId::new(txn),
                answer,
            }),
    ]
    .boxed()
}

/// Any message, including a (never nested) Batch envelope.
fn msg() -> BoxedStrategy<Msg> {
    prop_oneof![
        plain_msg(),
        prop::collection::vec(plain_msg(), 1..4).prop_map(Msg::Batch),
    ]
    .boxed()
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode(encode(m)) succeeds and re-encodes byte-identically — the
    /// codec loses nothing the canonical encoding carries, for every
    /// variant including Batch.
    #[test]
    fn encode_decode_is_identity(m in msg()) {
        let encoded = encode_msg(&m);
        let decoded = decode_msg(&encoded)
            .map_err(|e| TestCaseError::fail(format!("decode refused own encoding: {e}")))?;
        prop_assert_eq!(
            encode_msg(&decoded),
            encoded,
            "re-encoding the decoded message changed the bytes"
        );
    }

    /// A frame cut anywhere strictly inside the payload is refused, never
    /// accepted and never a panic (length-prefixed structures make every
    /// proper prefix incomplete).
    #[test]
    fn truncation_is_always_refused(m in msg(), cut in any::<u64>()) {
        let encoded = encode_msg(&m);
        let cut = (cut % encoded.len() as u64) as usize;
        prop_assert!(
            decode_msg(&encoded[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte frame decoded",
            encoded.len()
        );
    }

    /// Any version byte other than ours is refused with `BadVersion`, no
    /// matter what follows it.
    #[test]
    fn foreign_versions_are_refused(m in msg(), bump in 1u8..=255) {
        let mut encoded = encode_msg(&m);
        let foreign = WIRE_VERSION.wrapping_add(bump);
        encoded[0] = foreign;
        prop_assert_eq!(
            decode_msg(&encoded).unwrap_err(),
            WireError::BadVersion(foreign)
        );
    }

    /// Flipping any single byte never panics the decoder: it yields either
    /// a clean error or some well-formed message, but no crash and no
    /// out-of-bounds behaviour. (Total decoding is the property; the codec
    /// has no checksum, so a flip inside an integer field legitimately
    /// decodes to a different message.)
    #[test]
    fn corruption_never_panics(m in msg(), pos in any::<u64>(), flip in 1u8..=255) {
        let mut encoded = encode_msg(&m);
        let pos = (pos % encoded.len() as u64) as usize;
        encoded[pos] ^= flip;
        let _ = decode_msg(&encoded);
    }

    /// Stateful stream corruption: mutate any single byte of a valid
    /// multi-frame stream, then drain it. Every frame lying entirely
    /// before the corrupted byte must still decode byte-identically;
    /// from the corruption point on, each read step may yield a frame
    /// (decodable or refused), a framing error, or EOF — but never a
    /// panic, never an out-of-bounds access, and never an oversized
    /// allocation (a corrupted length prefix is bounded by
    /// `MAX_FRAME_LEN`).
    #[test]
    fn stream_corruption_preserves_prefix_and_never_panics(
        msgs in prop::collection::vec(msg(), 1..5),
        pos in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for m in &msgs {
            write_frame(&mut stream, m)
                .map_err(|e| TestCaseError::fail(format!("write_frame: {e}")))?;
            ends.push(stream.len());
        }
        let pos = (pos % stream.len() as u64) as usize;
        stream[pos] ^= flip;
        let intact = ends.iter().take_while(|&&end| end <= pos).count();

        let mut reader = &stream[..];
        for (i, m) in msgs.iter().take(intact).enumerate() {
            let payload = read_frame(&mut reader)
                .map_err(|e| TestCaseError::fail(format!("pre-corruption read_frame: {e}")))?
                .ok_or_else(|| TestCaseError::fail(format!("EOF before intact frame {i}")))?;
            prop_assert_eq!(
                &payload,
                &encode_msg(m),
                "frame {} (before the corrupted byte) changed",
                i
            );
            decode_msg(&payload)
                .map_err(|e| TestCaseError::fail(format!("intact frame {i} refused: {e}")))?;
        }
        // Drain whatever the mutation left behind. The reader is a
        // shrinking slice, so this terminates; every step must be total.
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            let _ = decode_msg(&payload);
        }
    }

    /// Frames written back to back through a byte stream come out intact,
    /// in order and byte-identical — and the stream ends with a clean EOF.
    #[test]
    fn framing_round_trips_a_stream(msgs in prop::collection::vec(msg(), 1..4)) {
        let mut stream = Vec::new();
        for m in &msgs {
            write_frame(&mut stream, m)
                .map_err(|e| TestCaseError::fail(format!("write_frame: {e}")))?;
        }
        let mut reader = &stream[..];
        for (i, m) in msgs.iter().enumerate() {
            let payload = read_frame(&mut reader)
                .map_err(|e| TestCaseError::fail(format!("read_frame: {e}")))?
                .ok_or_else(|| TestCaseError::fail(format!("EOF before frame {i}")))?;
            prop_assert_eq!(&payload, &encode_msg(m), "frame {} changed in transit", i);
        }
        prop_assert!(
            read_frame(&mut reader)
                .map_err(|e| TestCaseError::fail(format!("trailing read: {e}")))?
                .is_none(),
            "stream did not end with a clean EOF"
        );
    }
}
