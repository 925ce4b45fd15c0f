//! Isolated probes: one public function of one layer, called in a loop at
//! the shapes the workloads issue. Run only in the traced invocation, after
//! the measured repetition, so they can never disturb an end-to-end number.

use crate::Outcome;
use mamdr_autodiff::Tape;
use mamdr_data::{batches_for_domain, make_batch, Batch, BatchPlan, MdrDataset, Split};
use mamdr_models::{eval_logits, loss_and_grads, CtrModel, FeatureConfig, ModelConfig};
use mamdr_nn::{ForwardCtx, OptimizerKind, ParamStore};
use mamdr_obs::MetricsRegistry;
use mamdr_ps::trainer::{partition_keys, seed_server};
use mamdr_ps::{checkpoint, ParamKey, ParameterServer, WIRE_BATCH_KEYS};
use mamdr_rpc::frame::PullManyResp;
use mamdr_rpc::{Frame, OpCode, PsServer, Request, RetryPolicy, WorkerClient};
use mamdr_serve::{ScoreRequest, ScoringEngine, ServingSnapshot};
use mamdr_tensor::rng::seeded;
use mamdr_tensor::{Act, Tensor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mean seconds per call of `f`: three unmeasured calls, then as many as
/// fit in ~60 ms (at least eight).
pub fn secs_per_call(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let budget = Duration::from_millis(60);
    let t0 = Instant::now();
    let mut calls = 0u32;
    while calls < 8 || t0.elapsed() < budget {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / f64::from(calls)
}

/// The train batch the tensor/model probes use: the default batch size of
/// `TrainConfig::bench()`.
pub const TRAIN_BATCH: usize = 128;

/// tensor: the three GEMM variants of the MLP's first dense layer
/// (forward and both backward products) at `batch × concat → hidden`, and
/// its fused forward at serving batch sizes.
pub fn tensor(out: &mut Outcome, features: &FeatureConfig, model: &ModelConfig) {
    let mut rng = seeded(0x7E50);
    // Four id embeddings plus, when present, the projected dense features.
    let n_fields = 4 + usize::from(features.dense_dim > 0);
    let (m, k, n) = (TRAIN_BATCH, n_fields * model.embed_dim, model.hidden[0]);
    let x = Tensor::randn(&mut rng, [m, k], 0.0, 1.0);
    let w = Tensor::randn(&mut rng, [k, n], 0.0, 1.0);
    let dy = Tensor::randn(&mut rng, [m, n], 0.0, 1.0);
    let bias = Tensor::randn(&mut rng, [n], 0.0, 1.0);
    let gflop = 2.0 * (m * k * n) as f64 / 1e9;
    // forward y = x·w, input grad dx = dy·wᵀ, weight grad dw = xᵀ·dy
    out.set(
        "tensor.gemm_nn_gflops",
        gflop / secs_per_call(|| drop(black_box(black_box(&x).gemm(&w, false, false)))),
    );
    out.set(
        "tensor.gemm_nt_gflops",
        gflop / secs_per_call(|| drop(black_box(black_box(&dy).gemm(&w, false, true)))),
    );
    out.set(
        "tensor.gemm_tn_gflops",
        gflop / secs_per_call(|| drop(black_box(black_box(&x).gemm(&dy, true, false)))),
    );
    for (name, b) in [("tensor.gemm_bias_act_us_b1", 1), ("tensor.gemm_bias_act_us_b32", 32)] {
        let xb = Tensor::randn(&mut rng, [b, k], 0.0, 1.0);
        let s = secs_per_call(|| {
            drop(black_box(black_box(&xb).gemm_bias_act(&w, Some(&bias), Act::Relu)))
        });
        out.set(name, s * 1e6);
    }
}

fn head_batch(ds: &MdrDataset, n: usize) -> Batch {
    let dom = ds
        .domains
        .iter()
        .position(|d| d.train.len() >= n)
        .expect("a domain with a full train batch");
    make_batch(ds, dom, &ds.domains[dom].train[..n])
}

/// autodiff / models: forward at serving batch sizes, forward+backward at
/// the train batch, and the backward share of the latter.
pub fn models(out: &mut Outcome, ds: &MdrDataset, model: &dyn CtrModel, params: &ParamStore) {
    for (name, b) in [("models.fwd_us_b1", 1), ("models.fwd_us_b32", 32)] {
        let batch = head_batch(ds, b);
        out.set(name, secs_per_call(|| drop(black_box(eval_logits(model, params, &batch)))) * 1e6);
    }
    let batch = head_batch(ds, TRAIN_BATCH);
    let mut rng = seeded(0xD20);
    // The training-mode forward alone (dropout on, tape recorded, nothing
    // differentiated): what `loss_and_grads` spends before `backward`.
    let fwd = secs_per_call(|| {
        let mut ctx = ForwardCtx::train(&mut rng);
        let mut tape = Tape::new();
        black_box(model.forward(params, &mut tape, &mut ctx, &batch));
    });
    let fwd_bwd = secs_per_call(|| {
        let mut ctx = ForwardCtx::train(&mut rng);
        drop(black_box(loss_and_grads(model, params, &batch, &mut ctx)));
    });
    out.set("models.fwd_bwd_us", fwd_bwd * 1e6);
    out.set("autodiff.bwd_share", (fwd_bwd - fwd) / fwd_bwd);
}

/// nn: one optimizer step over the whole flat vector, and the flat
/// round trip every framework pays per batch.
pub fn nn(out: &mut Outcome, params: &ParamStore, inner: OptimizerKind) {
    let mut store = params.clone();
    let mut flat = store.to_flat();
    let grads: Vec<f32> = (0..flat.len()).map(|i| ((i % 13) as f32 - 6.0) * 1e-3).collect();
    let mut opt = inner.build(flat.len());
    out.set("nn.optim_step_us", secs_per_call(|| opt.step(black_box(&mut flat), &grads)) * 1e6);
    out.set(
        "nn.flat_roundtrip_us",
        secs_per_call(|| {
            store.load_flat(black_box(&flat));
            drop(black_box(store.to_flat()));
        }) * 1e6,
    );
}

/// data: shuffled train batches built per second, over every domain.
pub fn data(out: &mut Outcome, ds: &MdrDataset) {
    let mut rng = seeded(0xDA7A);
    let mut n_batches = 0usize;
    let per_pass = secs_per_call(|| {
        n_batches = 0;
        for d in 0..ds.n_domains() {
            let plan = BatchPlan::train(TRAIN_BATCH);
            n_batches += black_box(batches_for_domain(ds, d, Split::Train, plan, &mut rng)).len();
        }
    });
    out.set("data.batches_per_s", n_batches as f64 / per_pass);
}

/// A store seeded exactly like the trainers seed theirs, plus the sorted
/// key set one wire chunk would carry.
fn seeded_store(ds: &MdrDataset, dim: usize, seed: u64) -> (ParameterServer, Vec<ParamKey>) {
    let ps = ParameterServer::new(8, dim);
    seed_server(&ps, ds, dim, seed);
    let all: Vec<usize> = (0..ds.n_domains()).collect();
    let mut keys = partition_keys(ds, &all);
    keys.truncate(WIRE_BATCH_KEYS);
    (ps, keys)
}

/// ps: the kv store's read, write, whole-store read and checkpoint paths.
pub fn ps(out: &mut Outcome, ds: &MdrDataset, dim: usize, seed: u64) {
    let (store, keys) = seeded_store(ds, dim, seed);
    let grad = vec![1e-3f32; dim];
    let pull = secs_per_call(|| drop(black_box(store.pull_batch(black_box(&keys)))));
    out.set("ps.pull_rows_per_s", keys.len() as f64 / pull);
    let push = secs_per_call(|| {
        for &k in &keys {
            store.push_outer_grad(k, &grad, 0.5);
        }
    });
    out.set("ps.push_rows_per_s", keys.len() as f64 / push);
    out.set("ps.dump_rows_s", secs_per_call(|| drop(black_box(store.dump_rows()))));
    let mut buf = Vec::new();
    let save = secs_per_call(|| {
        buf.clear();
        checkpoint::save(&store, dim, &mut buf).expect("checkpoint into memory");
    });
    out.set("ps.checkpoint_save_s", save);
    out.set("ps.checkpoint_mb", buf.len() as f64 / (1 << 20) as f64);
}

/// rpc: frame encode/decode throughput on a full `PullManyOk` chunk, and
/// the round trip of one `PullMany` / `PushMany` chunk over loopback TCP.
pub fn rpc(out: &mut Outcome, ds: &MdrDataset, dim: usize, seed: u64) {
    let (store, keys) = seeded_store(ds, dim, seed);
    let values: Vec<f32> = store.pull_batch(&keys).into_iter().flat_map(|(v, _)| v).collect();
    let resp = PullManyResp { versions: vec![0; keys.len()], values };
    let frame = Frame::new(OpCode::PullManyOk, 1, resp.encode());
    let bytes = frame.to_bytes();
    let mb = bytes.len() as f64 / 1e6;
    out.set(
        "rpc.frame_encode_mb_per_s",
        mb / secs_per_call(|| drop(black_box(black_box(&frame).to_bytes()))),
    );
    out.set(
        "rpc.frame_decode_mb_per_s",
        mb / secs_per_call(|| {
            drop(black_box(Frame::decode(black_box(&bytes[..])).expect("own bytes")))
        }),
    );

    let registry = Arc::new(MetricsRegistry::new());
    let server =
        PsServer::bind("127.0.0.1:0", Arc::new(store), dim, Arc::clone(&registry), None, None)
            .expect("bind probe server");
    let mut client =
        WorkerClient::new(server.addr(), 1, RetryPolicy::default(), None, Arc::clone(&registry));
    let pull = secs_per_call(|| {
        drop(black_box(client.call(Request::PullMany { keys: keys.clone() }).expect("pull")));
    });
    out.set("rpc.pullmany_rtt_us", pull * 1e6);
    let grads = vec![1e-3f32; keys.len() * dim];
    let push = secs_per_call(|| {
        let req = Request::PushMany { lr: 0.5, keys: keys.clone(), grads: grads.clone() };
        drop(black_box(client.call(req).expect("push")));
    });
    out.set("rpc.pushmany_rtt_us", push * 1e6);
    client.shutdown().expect("drain probe server");
    // The server joins its connection threads, and this client's only ends
    // once the socket closes.
    drop(client);
    server.join();
}

/// serve: direct scoring at three batch sizes, the snapshot's build /
/// encode / decode cost and size, and one engine swap.
pub fn serve(
    out: &mut Outcome,
    snapshot: &ServingSnapshot,
    rebuild: impl Fn() -> ServingSnapshot,
    same_domain: &[ScoreRequest],
) {
    let domain = same_domain[0].domain;
    for (name, b) in
        [("serve.score_us_b1", 1), ("serve.score_us_b32", 32), ("serve.score_us_b256", 256)]
    {
        let reqs = &same_domain[..b];
        out.set(name, secs_per_call(|| drop(black_box(snapshot.score(domain, reqs)))) * 1e6);
    }
    out.set("serve.snapshot_build_s", secs_per_call(|| drop(black_box(rebuild()))));
    let mut buf = Vec::new();
    let encode = secs_per_call(|| {
        buf.clear();
        snapshot.write_to(&mut buf).expect("encode into memory");
    });
    out.set("serve.snapshot_encode_s", encode);
    out.set("serve.snapshot_mb", buf.len() as f64 / (1 << 20) as f64);
    out.set(
        "serve.snapshot_decode_s",
        secs_per_call(|| drop(black_box(ServingSnapshot::read_from(&buf[..]).expect("own bytes")))),
    );
    let a = Arc::new(rebuild());
    let b = Arc::new(rebuild());
    let engine = ScoringEngine::new_shared(Arc::clone(&a), &MetricsRegistry::new());
    let swap = secs_per_call(|| {
        drop(black_box(engine.publish_shared(Arc::clone(&b))));
        drop(black_box(engine.publish_shared(Arc::clone(&a))));
    });
    out.set("serve.swap_us", swap / 2.0 * 1e6);
}
