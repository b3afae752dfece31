//! # mbsp-serve — the long-lived MBSP scheduling daemon
//!
//! The batch binaries of this workspace pay the full engine warm-up (arena
//! allocation, baseline conversion) on every invocation. This
//! crate is the serving form of the same engine: a daemon that keeps **one
//! warm [`mbsp_ilp::IncrementalScheduler`] session per registered DAG
//! instance** and answers scheduling traffic over a newline-delimited JSON
//! line protocol on a TCP listener (spec: `docs/PROTOCOL.md`).
//!
//! * **Registration.** Instances arrive either as `mbsp_io` binary DAG blobs
//!   (hex-encoded on the wire) or as `mbsp_gen` family specs (`random`, `cg`,
//!   `knn`) generated server-side, plus an [`mbsp_model::Architecture`] and a
//!   search budget. Each instance gets a warm engine session seeded from the
//!   greedy BSP baseline.
//! * **Deterministic request batching.** Concurrent requests for one instance
//!   are pushed onto its mailbox: one drain thread per busy instance, FIFO
//!   under the mailbox lock, pops them in admission order and runs each job
//!   itself, its shard searches on scoped lanes under the daemon's
//!   [`mbsp_pool::WorkerPool`] permit count. It exits when the mailbox
//!   drains, so an idle instance holds no thread, and no lane outlives its
//!   job. Given an admission order, every result is byte-identical for any
//!   worker count.
//! * **Streamed anytime incumbents.** A `schedule` job attaches an
//!   [`mbsp_ilp::IncumbentObserver`] to the sharded search; every
//!   deterministic merge boundary that improves the incumbent is forwarded to
//!   the client as an `incumbent` frame, so clients observe a monotone,
//!   reproducible improvement sequence and can `cancel` (or deadline) the job
//!   at any point — cancellation is observed only at the same deterministic
//!   boundaries.
//! * **Durability.** Sessions checkpoint to the state directory (via the
//!   [`mbsp_io`] session codec) on registration, after every mutation and on
//!   graceful shutdown; the instance registry is an
//!   [`mbsp_io::ServiceRegistry`] blob. A write the state directory refuses is
//!   answered with a typed `storage_failed` reject, never acknowledged. A restarted daemon restores every
//!   session and continues byte-identically — the serving inheritance of the
//!   engine's checkpoint contract.
//!
//! The crate exposes [`Server`] for in-process embedding (tests, benches) and
//! ships the `mbsp_serve` binary for standalone use.

pub mod protocol;
pub mod server;

pub use protocol::{
    decode_hex, encode_hex, parse_request, CacheSpec, DagSource, FamilySpec, JsonWriter,
    MutateRequest, RegisterRequest, Reject, RepairRequest, Request, ScheduleRequest,
    SearchOverrides,
};
pub use server::{Server, ServerConfig};
