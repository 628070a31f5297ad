//! # safetx-net — the protocol over real byte streams
//!
//! The sim and threaded runtimes move [`safetx_core::Msg`] values between
//! state machines as in-memory objects. This crate is the third
//! deployment of the same machines, with nothing shared but bytes: a
//! length-prefixed binary codec for every message ([`wire`]),
//! and a socket runtime ([`NetCluster`]) where each cloud server runs on
//! the thread that reads its `UnixStream` and the TM drives `TmCore` by
//! encoding frames and demultiplexing framed replies.
//!
//! Differential tests pin the whole stack: for every scheme×consistency
//! cell the net runtime must produce byte-identical outcomes, abort
//! reasons, Table-I counters and proof views to both the simulator and
//! the threaded runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod runtime;
pub mod wire;

pub use runtime::{EdgeStats, NetAddr, NetCluster, ServerHost, SocketLink, WireTm, TM_PEER};
pub use wire::{
    decode_msg, encode_msg, read_frame, write_frame, WireError, MAX_FRAME_LEN, WIRE_VERSION,
};
