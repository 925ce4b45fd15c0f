//! `serve_bench`'s probe digest, pinned: the scores of its 64-request probe
//! set, served through 1 and 4 replicas with 1 and 4 scoring workers each,
//! digest to the same value, and that value is the one `serve_bench
//! --quick --scale 0.1` prints at the default seed. Replication, worker
//! count and batching never change a served bit, and neither may a change
//! to the forward pass.

use mamdr_bench::serve::{dataset, probe_digest, train_snapshot};
use mamdr_models::FeatureConfig;
use mamdr_obs::MetricsRegistry;
use mamdr_serve::{ReplicatedServer, ServeConfig, ServingSnapshot};

/// `serve_bench`'s default seed and training epochs.
const SEED: u64 = 42;
const EPOCHS: usize = 3;
const PROBE_DIGEST: u64 = 0x389a_dc4a_bf40_3b95;

#[test]
fn probe_digest_is_pinned_across_replicas_and_workers() {
    let ds = dataset(SEED);
    let fc = FeatureConfig::from_dataset(&ds);
    let mut bytes = Vec::new();
    train_snapshot(&ds, EPOCHS, 1, SEED).write_to(&mut bytes).expect("encode into memory");
    for replicas in [1, 4] {
        for workers in [1, 4] {
            let snapshot = ServingSnapshot::read_from(&bytes[..]).expect("own bytes");
            let config = ServeConfig { n_workers: workers, ..ServeConfig::default() };
            let pool =
                ReplicatedServer::start(snapshot, replicas, config, &MetricsRegistry::new(), None);
            let digest = probe_digest(&pool, &fc, ds.n_domains());
            pool.shutdown();
            assert_eq!(
                digest, PROBE_DIGEST,
                "{replicas} replicas x {workers} workers: {digest:#018x}"
            );
        }
    }
}
