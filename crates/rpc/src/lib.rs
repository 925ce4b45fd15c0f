//! # mamdr-rpc
//!
//! The networked PS–worker runtime: what `mamdr-ps` simulates with shared
//! memory, this crate runs over real sockets — a length-prefixed,
//! checksummed TCP wire protocol ([`frame`]), a thread-per-connection
//! parameter-server front end ([`server`]), a retrying worker client with
//! per-request deadlines and idempotent sequence-numbered pushes
//! ([`client`]), deterministic fault injection at the framing boundary
//! ([`fault`]), and a loopback distributed trainer ([`trainer`]) that
//! reproduces the in-process synchronous trainer bit for bit when faults
//! are off.
//!
//! Built on `std::net` only. All counters land in `mamdr-obs` under the
//! `rpc_*` namespace, and every injected fault is drawn from a seeded RNG
//! stream, so even a heavily faulted run has exactly reproducible
//! `rpc_retries_total` / `rpc_faults_*_total` values.

pub mod client;
pub mod fault;
pub mod frame;
pub mod server;
pub mod trainer;

pub use client::{Request, Response, RetryPolicy, RpcError, WorkerClient};
pub use fault::{FaultDecision, FaultPlan, FaultState};
pub use frame::{Frame, FrameError, OpCode, MAX_PAYLOAD, WIRE_VERSION};
pub use server::PsServer;
pub use trainer::{DistributedTrainer, LoopbackConfig, PublishHook, TrainerError, WorkerFailure};
