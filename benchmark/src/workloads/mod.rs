//! The five workloads. Each `run` does its set-up `SETUP_REPEATS` times
//! (median → `setup_s`), then either one untraced measured repetition
//! (end-to-end metrics) or, when `ctx.spans` is set, a half-length untraced
//! reference, a half-length traced repetition and the isolated probes
//! (per-layer metrics and `obs.trace_overhead_share`).

pub mod dense_train;
pub mod publish_live;
pub mod serve;
pub mod sharded_train;

use crate::{Ctx, Outcome};

/// Runs the named workload; `None` for a name that is not one.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "dense_train" => dense_train::run(ctx),
        "sharded_train" => sharded_train::run(ctx),
        "serve_steady" => serve::run(ctx, serve::Mode::Steady),
        "serve_saturate" => serve::run(ctx, serve::Mode::Saturate),
        "publish_live" => publish_live::run(ctx),
        _ => return None,
    })
}

/// `(slow − fast) / fast`: how much longer the traced repetition took per
/// unit of work than the untraced reference of the same length.
pub(crate) fn overhead_share(untraced_per_unit: f64, traced_per_unit: f64) -> f64 {
    (traced_per_unit - untraced_per_unit) / untraced_per_unit
}
