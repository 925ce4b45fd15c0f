//! Golden pin of the parameter-server data plane.
//!
//! Every other bit-identity test compares two trainers that share the
//! same store implementation, so a change that shifts the Adagrad bits
//! shifts both sides and passes them all. This test pins one fixed run to
//! hard-coded digests instead: the checkpoint bytes, the key-sorted
//! Adagrad accumulators and the per-round loss bit patterns. A failure
//! here means the store, the worker cache or the wire changed the *math*,
//! not merely how two trainers agree with each other.
//!
//! The constants were captured on the commit before the store was
//! collapsed to one record per row; they must never be re-captured to
//! make a refactor pass.

use mamdr::data::{DomainSpec, GeneratorConfig, MdrDataset};
use mamdr::obs::MetricsRegistry;
use mamdr::ps::{checkpoint, DistributedConfig, DistributedMamdr, ParameterServer};
use mamdr::rpc::{DistributedTrainer, LoopbackConfig};
use mamdr_util::Checksum;
use std::sync::Arc;

const GOLDEN_CHECKPOINT_FNV: u64 = 0xb46f_4382_c256_7b3d;
const GOLDEN_ADAGRAD_FNV: u64 = 0xf33d_9c77_dc2b_c280;
const GOLDEN_ROUND_LOSS_BITS: [u64; 3] =
    [0x3fe1_fefc_79d8_2d83, 0x3fe1_65db_8cf0_d463, 0x3fe0_b1fa_d46a_314e];

fn dataset() -> MdrDataset {
    let mut cfg = GeneratorConfig::base("golden", 80, 50, 55);
    cfg.domains = (0..6).map(|i| DomainSpec::new(format!("d{i}"), 300, 0.3)).collect();
    cfg.generate()
}

fn train_config(route_shards: usize) -> DistributedConfig {
    DistributedConfig {
        n_workers: 2,
        epochs: 3,
        sync_rounds: true,
        kernel_threads: 1,
        route_shards,
        ..Default::default()
    }
}

/// `(checkpoint digest, adagrad digest)` of a store: the checkpoint is
/// `checkpoint::save`'s key-sorted bytes, the accumulators are serialized
/// key-sorted as `table_le ‖ row_le ‖ f32_le…` per row.
fn store_digests(ps: &ParameterServer, dim: usize) -> (u64, u64) {
    let mut ckpt = Vec::new();
    checkpoint::save(ps, dim, &mut ckpt).unwrap();
    let mut acc = ps.dump_adagrad();
    acc.sort_by_key(|(k, _)| (k.table, k.row));
    let mut acc_bytes = Vec::new();
    for (key, row) in acc {
        acc_bytes.extend_from_slice(&key.table.to_le_bytes());
        acc_bytes.extend_from_slice(&key.row.to_le_bytes());
        for v in row {
            acc_bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    (Checksum::of(&ckpt), Checksum::of(&acc_bytes))
}

fn assert_golden(store: &ParameterServer, dim: usize, round_losses: &[f64]) {
    let (ckpt, acc) = store_digests(store, dim);
    assert_eq!(ckpt, GOLDEN_CHECKPOINT_FNV, "checkpoint bytes moved: {ckpt:#018x}");
    assert_eq!(acc, GOLDEN_ADAGRAD_FNV, "Adagrad accumulators moved: {acc:#018x}");
    let bits: Vec<u64> = round_losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(bits, GOLDEN_ROUND_LOSS_BITS, "round losses moved: {bits:#018x?}");
}

#[test]
fn in_process_run_matches_the_pinned_digests() {
    let ds = dataset();
    let cfg = train_config(1);
    let trainer = DistributedMamdr::new(&ds, cfg);
    let report = trainer.train(&ds);
    assert_golden(trainer.server(), cfg.dim, &report.round_losses);
}

#[test]
fn two_shard_loopback_run_matches_the_same_digests() {
    let ds = dataset();
    let cfg = train_config(2);
    let loopback = LoopbackConfig { shards: 2, ..LoopbackConfig::new(cfg) };
    let mut trainer =
        DistributedTrainer::new(&ds, loopback, Arc::new(MetricsRegistry::new())).unwrap();
    let report = trainer.train(&ds).unwrap();
    let merged = trainer.merged_store();
    trainer.shutdown();
    assert_golden(&merged, cfg.dim, &report.round_losses);
}
