//! The flat embedding snapshot against the map it replaced: for random
//! stores — dense, sparse and near-`u32::MAX` row ids, rows overwritten,
//! requests that miss — every score is bit-equal to `ps_model::score` over
//! a `HashMap` built from `dump_rows` (a missing row scoring as zeros), and
//! write → read → write reproduces the file byte for byte.

use mamdr_ps::model::{self as ps_model, ExampleKeys};
use mamdr_ps::{ParamKey, ParameterServer};
use mamdr_serve::{ScoreRequest, ServingSnapshot};
use proptest::prelude::*;
use std::collections::HashMap;

/// Dense small ids, ids at the top of the range and ids anywhere.
fn row_id() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..24, (u32::MAX - 24)..=u32::MAX, 0u32..=u32::MAX]
}

fn encode(snapshot: &ServingSnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    snapshot.write_to(&mut buf).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn flat_snapshot_scores_like_the_row_map_and_roundtrips_byte_for_byte(
        dim in 1usize..6,
        n_domains in 1usize..5,
        rows in proptest::collection::vec(
            (0u32..7, row_id(), proptest::collection::vec(-1.0f32..1.0, 5)),
            0..120,
        ),
        reqs in proptest::collection::vec(
            (0usize..4, row_id(), row_id(), row_id(), row_id()),
            1..40,
        ),
    ) {
        let ps = ParameterServer::new(1, dim);
        for (table, row, value) in &rows {
            // A repeated key overwrites: the store keeps the last value.
            ps.init_row(ParamKey::new(*table, *row), value[..dim].to_vec());
        }
        let snapshot = ServingSnapshot::from_ps(9, &ps, n_domains);
        let map: HashMap<ParamKey, Vec<f32>> = ps.dump_rows().into_iter().collect();
        let zero = vec![0.0f32; dim];
        let row = |key: ParamKey| map.get(&key).unwrap_or(&zero).as_slice();

        let bytes = encode(&snapshot);
        let loaded = ServingSnapshot::read_from(bytes.as_slice()).unwrap();
        prop_assert_eq!(encode(&loaded), bytes.clone());

        for (domain, user, item, ugroup, icat) in reqs {
            let domain = domain % n_domains;
            let req = ScoreRequest::new(domain, user, item, ugroup, icat);
            let k = ExampleKeys::new(user, item, ugroup, icat, domain as u32);
            let want = ps_model::sigmoid(ps_model::score(
                row(k.user),
                row(k.item),
                row(k.ugroup),
                row(k.icat),
                row(k.bias),
            ));
            for s in [&snapshot, &loaded] {
                let got = s.score(domain, std::slice::from_ref(&req))[0];
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }
}
