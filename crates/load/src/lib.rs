//! Seeded arrival traces for driving the MAMDR serving tier in open loop.
//!
//! Closed-loop benchmarks hide overload: they only submit when the server
//! answers, so the offered rate silently adapts to capacity (coordinated
//! omission). An open-loop driver schedules arrivals by an external clock,
//! indifferent to how the server is coping; this crate supplies the
//! schedule:
//!
//! * [`TraceConfig`] / [`TraceGen`] — a seeded, streaming arrival trace:
//!   Zipf-popular users and domains, Poisson inter-arrivals whose rate
//!   follows a diurnal sinusoid (exact, via thinning), and a configurable
//!   interactive/bulk [`SloClass`](mamdr_serve::SloClass) split. Same
//!   seed, same trace — byte for byte — so a test can pin exact per-class
//!   request counts and replica-count sweeps replay identical traffic.
//!
//! The driver that submits a trace on its clock and accounts for every
//! outcome is the benchmark's (`benchmark/src/openloop.rs`).

mod trace;

pub use trace::{Arrival, TraceConfig, TraceGen, ZipfSampler};
