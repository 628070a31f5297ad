//! Length-prefixed, versioned binary codec for [`Msg`].
//!
//! The sim and threaded runtimes move `Msg` values through in-process
//! channels; this module is what lets the same values cross a process
//! boundary. The encoding is deliberately boring:
//!
//! ```text
//! frame   := len:u32le payload              (len = payload byte count)
//! payload := version:u8 tag:u8 body
//! ```
//!
//! * every integer is little-endian and fixed-width (`u8`/`u32`/`u64`/`i64`);
//! * strings are `u32` byte length + UTF-8 bytes;
//! * `Vec<T>`/maps are `u32` element count + elements;
//! * `Option<T>` is a presence byte (0/1) + payload;
//! * enums are a `u8` tag + variant fields in declaration order.
//!
//! Each type states its layout once, as one `Wire` impl: the generic
//! impls below cover integers, strings, sequences, options, pairs, maps
//! and `Arc`s; `record!` lists a struct's fields in wire order plus its
//! constructor, and `tagged!` gives each enum variant its tag and fields.
//! The golden vectors in `tests/golden.rs` pin the resulting bytes.
//!
//! Decoding is total: any malformed, truncated, oversized or
//! wrong-version input yields a [`WireError`], never a panic. Signed
//! payloads ([`Credential`], [`AccessCapability`]) are reassembled with
//! their transported signature bytes — the decoder never re-signs and
//! never validates; tampering surfaces later at the existing syntactic
//! checks, exactly as it would for a forged in-process value.
//!
//! [`Msg::Batch`] encodes its inner messages as nested `tag + body`
//! payloads (no inner length prefix or version byte); nesting a batch
//! inside a batch is rejected, mirroring the in-process invariant.

use safetx_core::{Msg, ValidationReply, VersionMap};
use safetx_policy::{
    AccessCapability, AccessRequest, Atom, Constant, Credential, Policy, PolicyBuilder,
    ProofOfAuthorization, ProofOutcome, Rule, RuleSet, Term,
};
use safetx_store::Value;
use safetx_txn::{Decision, InquiryAnswer, Operation, QuerySpec, TransactionSpec, Vote};
use safetx_types::{
    AdminDomain, CaId, CredentialId, DataItemId, PolicyId, PolicyVersion, ServerId, Timestamp,
    TxnId, UserId,
};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Format version carried in every payload. Bump on any layout change.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a single frame's payload, in bytes. Anything larger is
/// rejected before allocation — a corrupted length prefix must not turn
/// into a multi-gigabyte `Vec`.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// The most a decoded element count reserves up front. A count is a claim
/// until its elements decode: past this, a vector grows only as they do.
const MAX_RESERVE_BYTES: usize = 64 * 1024;

/// Why a payload failed to decode.
///
/// Decoding never panics: every defect in the input maps onto one of
/// these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the value it promised.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// The payload's format version is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// An enum tag outside the known range.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Bytes remained after the message body was fully decoded.
    TrailingBytes(usize),
    /// A structurally invalid value (e.g. a rule with a non-ground fact
    /// head, or a batch nested inside a batch).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME_LEN"),
            WireError::BadVersion(v) => {
                write!(f, "wire version {v} (this build speaks {WIRE_VERSION})")
            }
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message body"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for WireError {}

type Result<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------------
// The schema
// ---------------------------------------------------------------------------

/// Writes a value in its wire layout. Borrowed views (`str`, `[T]`) put
/// too, so an accessor's return value encodes without a copy.
trait Put {
    fn put(&self, out: &mut Vec<u8>);
}

/// A type with a wire layout: [`Put`] plus a total decoder.
trait Wire: Put + Sized {
    fn get(r: &mut Reader<'_>) -> Result<Self>;
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// A `Msg::Batch` tag was read: another one is a nested batch.
    batched: bool,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Element count for a sequence, refused when it exceeds the bytes
    /// left (every element takes at least one).
    fn count(&mut self) -> Result<usize> {
        let n = u32::get(self)? as usize;
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
}

macro_rules! ints {
    ($($t:ty),*) => {$(
        impl Put for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Wire for $t {
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                let bytes = r.bytes(size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("bytes(n) returns n bytes")))
            }
        }
    )*};
}

ints!(u8, u32, u64, i64);

impl Put for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Wire for bool {
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool")),
        }
    }
}

impl Put for str {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Put for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_str().put(out);
    }
}

impl Wire for String {
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.count()?;
        String::from_utf8(r.bytes(n)?.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Put> Put for [T] {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        self.iter().for_each(|x| x.put(out));
    }
}

impl<T: Put> Put for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_slice().put(out);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.count()?;
        let mut v = Vec::with_capacity(n.min(MAX_RESERVE_BYTES / size_of::<T>().max(1)));
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl Put for RuleSet {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        self.iter().for_each(|rule| rule.put(out));
    }
}

impl<K: Put, V: Put> Put for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.count()?;
        let mut m = BTreeMap::new();
        for _ in 0..n {
            let (k, v) = Wire::get(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<A: Put, B: Put> Put for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<T: Put> Put for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.put(out);
            }
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(WireError::Malformed("option")),
        }
    }
}

impl<T: Put + ?Sized> Put for Arc<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        T::get(r).map(Arc::new)
    }
}

impl<T: Wire> Wire for Arc<[T]> {
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Vec::get(r).map(Vec::into)
    }
}

/// A struct's fields in wire order, each with its type and how to read
/// it off `&self`, then the expression that builds the value from them.
/// The short form is for a struct whose fields are all public.
macro_rules! record {
    ($ty:ident { $($f:ident: $t:ty),* $(,)? }) => {
        record! { $ty |s| { $($f: $t = s.$f),* } => $ty { $($f),* } }
    };
    ($ty:ident |$s:ident| { $($f:ident: $t:ty = $e:expr),* $(,)? } => $make:expr) => {
        impl Put for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let $s = self;
                $($e.put(out);)*
            }
        }

        impl Wire for $ty {
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                $(let $f: $t = Wire::get(r)?;)*
                Ok($make)
            }
        }
    };
}

/// An enum's variants, each with its `u8` tag and its fields — written
/// `(name: Type, ..)` or `{ name: Type, .. }` as the variant declares
/// them. A variant may name a check that runs on reading its tag, before
/// any of its fields.
macro_rules! tagged {
    ($ty:ident { $(
        $tag:literal => $v:ident
        $(($($pf:ident: $pt:ty),*))?
        $({$($sf:ident: $st:ty),*})?
        $(if $check:path)?
    ),* $(,)? }) => {
        impl Put for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$v $(($($pf),*))? $({$($sf),*})? => {
                        out.push($tag);
                        $($($pf.put(out);)*)?
                        $($($sf.put(out);)*)?
                    })*
                }
            }
        }

        impl Wire for $ty {
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                match u8::get(r)? {
                    $($tag => {
                        $($check(r)?;)?
                        $($(let $pf: $pt = Wire::get(r)?;)*)?
                        $($(let $sf: $st = Wire::get(r)?;)*)?
                        Ok($ty::$v $(($($pf),*))? $({$($sf),*})?)
                    })*
                    tag => Err(WireError::BadTag { what: stringify!($ty), tag }),
                }
            }
        }
    };
}

macro_rules! ids {
    ($($ty:ident),*) => {$(
        record! { $ty |id| { index: u64 = id.index() } => $ty::new(index) }
    )*};
}

ids! { AdminDomain, CaId, CredentialId, DataItemId, PolicyId, ServerId, TxnId, UserId }
record! { PolicyVersion |v| { n: u64 = v.0 } => PolicyVersion(n) }
record! { Timestamp |t| { micros: u64 = t.as_micros() } => Timestamp::from_micros(micros) }
record! { usize |n| {
    n: u64 = *n as u64,
} => usize::try_from(n).map_err(|_| WireError::Malformed("usize"))? }

// ---------------------------------------------------------------------------
// Domain types and Msg
// ---------------------------------------------------------------------------

tagged! { Constant { 0 => Symbol(s: String), 1 => Int(i: i64) } }
tagged! { Term { 0 => Const(c: Constant), 1 => Var(v: String) } }
record! { Atom |a| {
    predicate: String = a.predicate(),
    args: Vec<Term> = a.args(),
} => Atom::new(predicate, args) }

record! { Credential |c| {
    id: CredentialId = c.id(),
    subject: UserId = c.subject(),
    statement: Atom = c.statement(),
    issuer: CaId = c.issuer(),
    issued_at: Timestamp = c.issued_at(),
    expires_at: Timestamp = c.expires_at(),
    signature: u64 = c.signature(),
} => Credential::from_parts(id, subject, statement, issuer, issued_at, expires_at, signature) }

record! { AccessCapability |c| {
    issuer: ServerId = c.issuer(),
    user: UserId = c.user(),
    txn: TxnId = c.txn(),
    action: String = c.action(),
    resource: String = c.resource(),
    issued_at: Timestamp = c.issued_at(),
    expires_at: Timestamp = c.expires_at(),
    signature: u64 = c.signature(),
} => AccessCapability::from_parts(
    issuer, user, txn, action, resource, issued_at, expires_at, signature,
) }

tagged! { ProofOutcome {
    0 => Granted,
    1 => InvalidCredential { credential: CredentialId, detail: String },
    2 => RevokedCredential { credential: CredentialId, revoked_at: Timestamp },
    3 => NotDerivable,
} }

record! { AccessRequest { user: UserId, action: String, resource: String } }

record! { ProofOfAuthorization {
    request: AccessRequest,
    server: ServerId,
    policy_id: PolicyId,
    policy_version: PolicyVersion,
    evaluated_at: Timestamp,
    credentials: Vec<CredentialId>,
    outcome: ProofOutcome,
} }

tagged! { Vote { 0 => Yes, 1 => No } }
tagged! { Decision { 0 => Commit, 1 => Abort } }
tagged! { InquiryAnswer { 0 => Decided(d: Decision), 1 => Unknown } }

record! { ValidationReply {
    vote: Vote,
    truth: bool,
    conflict: bool,
    versions: VersionMap,
    proofs: Vec<ProofOfAuthorization>,
} }

tagged! { Value { 0 => Int(i: i64), 1 => Str(s: String) } }
tagged! { Operation {
    0 => Read(item: DataItemId),
    1 => Write(item: DataItemId, value: Value),
    2 => Add(item: DataItemId, delta: i64),
} }

record! { QuerySpec { server: ServerId, action: String, resource: String, ops: Vec<Operation> } }
record! { TransactionSpec { id: TxnId, user: UserId, queries: Vec<QuerySpec> } }

record! { Rule |rule| {
    head: Atom = rule.head(),
    body: Vec<Atom> = rule.body(),
} => Rule::new(head, body).map_err(|_| WireError::Malformed("rule"))? }

record! { Policy |p| {
    id: PolicyId = p.id(),
    admin: AdminDomain = p.admin(),
    version: PolicyVersion = p.version(),
    rules: Vec<Rule> = p.rules(),
} => PolicyBuilder::new(id, admin).version(version).rules(rules.into_iter().collect()).build() }

/// Refuses a batch tag inside a batch, before decoding any of its fields.
fn enter_batch(r: &mut Reader<'_>) -> Result<()> {
    if std::mem::replace(&mut r.batched, true) {
        return Err(WireError::Malformed("nested batch"));
    }
    Ok(())
}

tagged! { Msg {
    0 => Begin { spec: TransactionSpec, credentials: Vec<Credential> },
    1 => ExecQuery {
        txn: TxnId,
        query_index: usize,
        query: Arc<QuerySpec>,
        user: UserId,
        credentials: Arc<[Credential]>,
        evaluate_proof: bool,
        pin_versions: VersionMap,
        capabilities: Vec<AccessCapability>
    },
    2 => QueryDone {
        txn: TxnId,
        query_index: usize,
        ok: bool,
        proof: Option<ProofOfAuthorization>,
        capability: Option<AccessCapability>
    },
    3 => PrepareToValidate {
        txn: TxnId,
        new_query: Option<(usize, Arc<QuerySpec>)>,
        user: UserId,
        credentials: Arc<[Credential]>
    },
    4 => ValidateReply { txn: TxnId, reply: ValidationReply },
    5 => PrepareToCommit { txn: TxnId, validate: bool, expected_queries: Vec<usize> },
    6 => CommitReply { txn: TxnId, reply: ValidationReply },
    7 => Update { txn: TxnId, targets: VersionMap, in_commit: bool },
    8 => Decision { txn: TxnId, decision: Decision },
    9 => Ack { txn: TxnId },
    10 => VersionRequest { txn: TxnId },
    11 => VersionReply { txn: TxnId, versions: VersionMap },
    12 => PolicyGossip { policy_id: PolicyId, version: PolicyVersion },
    13 => AdminPublish { policy_id: PolicyId, version: PolicyVersion },
    14 => AdminPublishPolicy { policy: Policy },
    15 => Batch(inner: Vec<Msg>) if enter_batch,
    16 => Inquiry { txn: TxnId, from_server: ServerId },
    17 => InquiryReply { txn: TxnId, answer: InquiryAnswer },
} }

// ---------------------------------------------------------------------------
// Payloads and frames
// ---------------------------------------------------------------------------

fn append_payload(out: &mut Vec<u8>, msg: &Msg) {
    out.push(WIRE_VERSION);
    msg.put(out);
}

/// Encodes a message into a payload (version byte + tag + body), without
/// the frame length prefix.
#[must_use]
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    append_payload(&mut out, msg);
    out
}

/// Encodes a message as one whole frame: `u32le` payload length, then the
/// payload. Every frame written to a stream is built here.
pub(crate) fn encode_frame(msg: &Msg) -> Vec<u8> {
    let mut frame = Vec::with_capacity(68);
    frame.extend_from_slice(&[0; 4]);
    append_payload(&mut frame, msg);
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame
}

/// Decodes one payload produced by [`encode_msg`].
///
/// # Errors
///
/// Returns a [`WireError`] for any truncated, corrupted or wrong-version
/// payload; never panics on untrusted input.
pub fn decode_msg(payload: &[u8]) -> Result<Msg> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::TooLarge(payload.len()));
    }
    let mut r = Reader {
        buf: payload,
        pos: 0,
        batched: false,
    };
    let version = u8::get(&mut r)?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let msg = Msg::get(&mut r)?;
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(msg)
}

/// Writes one framed message (`u32le` length + payload) to `w`.
///
/// Does not flush: callers batching several messages per round flush once
/// at the round boundary.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame(w: &mut impl Write, msg: &Msg) -> io::Result<usize> {
    let frame = encode_frame(msg);
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Reads one frame's payload from `r`.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer closed
/// the connection between messages); EOF in the middle of a frame is an
/// [`io::ErrorKind::UnexpectedEof`] error. A length prefix beyond
/// [`MAX_FRAME_LEN`] is reported as [`io::ErrorKind::InvalidData`] before
/// any allocation.
///
/// # Errors
///
/// Propagates I/O errors from the underlying reader.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::TooLarge(len),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Msg) -> Msg {
        let payload = encode_msg(msg);
        decode_msg(&payload).expect("decodes")
    }

    #[test]
    fn ack_round_trips() {
        match round_trip(&Msg::Ack { txn: TxnId::new(7) }) {
            Msg::Ack { txn } => assert_eq!(txn, TxnId::new(7)),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn framing_round_trips_through_a_byte_stream() {
        let msgs = vec![
            Msg::VersionRequest { txn: TxnId::new(1) },
            Msg::Decision {
                txn: TxnId::new(2),
                decision: Decision::Abort,
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cursor = io::Cursor::new(buf);
        let mut seen = 0;
        while let Some(payload) = read_frame(&mut cursor).unwrap() {
            decode_msg(&payload).unwrap();
            seen += 1;
        }
        assert_eq!(seen, msgs.len());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut payload = encode_msg(&Msg::Ack { txn: TxnId::new(1) });
        payload[0] = WIRE_VERSION + 1;
        assert_eq!(
            decode_msg(&payload).unwrap_err(),
            WireError::BadVersion(WIRE_VERSION + 1)
        );
    }

    #[test]
    fn truncation_is_rejected_not_panicking() {
        let payload = encode_msg(&Msg::VersionReply {
            txn: TxnId::new(3),
            versions: [(PolicyId::new(0), PolicyVersion(4))].into(),
        });
        for cut in 0..payload.len() {
            assert!(decode_msg(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_msg(&Msg::Ack { txn: TxnId::new(1) });
        payload.push(0);
        assert_eq!(
            decode_msg(&payload).unwrap_err(),
            WireError::TrailingBytes(1)
        );
    }

    #[test]
    fn nested_batch_is_rejected() {
        // Hand-build batch-in-batch bytes: the encoder refuses to produce
        // them, so splice an inner batch tag manually.
        const BATCH: u8 = 15;
        let mut payload = vec![WIRE_VERSION, BATCH];
        1u32.put(&mut payload);
        payload.push(BATCH);
        0u32.put(&mut payload);
        assert_eq!(
            decode_msg(&payload).unwrap_err(),
            WireError::Malformed("nested batch")
        );
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_error() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut io::Cursor::new(empty)).unwrap().is_none());
        let partial = [5u8, 0, 0, 0, 1, 2];
        let err = read_frame(&mut io::Cursor::new(&partial[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
