//! Golden pin of the in-process trainers.
//!
//! The core bit-identity tests compare two runs of the same code (traced
//! against untraced, one thread count against another), so a change that
//! moves the training math moves both sides and passes them all. This test
//! pins fixed runs to hard-coded digests instead: the trained shared
//! vector plus every per-domain delta, and the observer's per-epoch
//! `mean_loss` and `grad_norm` bit patterns. A failure here means the
//! tape, the store, an optimizer or a framework changed the *math*, not
//! merely how two runs agree with each other.
//!
//! The runs cover DN, DR, full MAMDR and Alternate under Adam, SGD and
//! Adagrad inner loops and the `dr_use_inner_optimizer` ablation, on an
//! MLP whose dense-feature projection is live and on DeepFM (two gathered
//! tables per id field), at 1 and 4 kernel threads.
//!
//! The constants were captured on the commit before embedding gradients
//! became row-sparse; they must never be re-captured to make a refactor
//! pass.

use mamdr::core::env::DomainParams;
use mamdr::core::frameworks::alternate::Alternate;
use mamdr::core::frameworks::mamdr::Mamdr;
use mamdr::core::{Framework, TrainConfig, TrainEnv, TrainedModel};
use mamdr::data::{DomainSpec, GeneratorConfig, MdrDataset};
use mamdr::models::{build_model, FeatureConfig, ModelConfig, ModelKind};
use mamdr::nn::OptimizerKind;
use mamdr::obs::RecordingObserver;
use mamdr::tensor::pool;
use mamdr_util::Checksum;
use std::sync::{Arc, Mutex};

/// `(model, framework, inner loop) → (parameter digest, telemetry digest)`.
const GOLDEN: [(&str, u64, u64); 19] = [
    ("MLP/MAMDR/adam", 0x875e_6f76_70d4_ed74, 0xd4ee_8f42_7f8e_feb4),
    ("MLP/MAMDR/sgd", 0x29f7_413f_453f_18b9, 0x1b75_81e9_5464_fdfc),
    ("MLP/MAMDR/adagrad", 0x0bd4_3b9d_0905_2143, 0x1600_b538_3ffd_29c9),
    ("MLP/MAMDR/adam+dr_inner", 0xbf64_9d7a_4368_c173, 0x76c7_8110_57df_f7f4),
    ("MLP/MAMDR/adagrad+dr_inner", 0x70d8_061e_7df5_56a7, 0xaef6_f5e1_61fc_c308),
    ("MLP/DR/adam", 0x7303_41a9_473d_28f2, 0xaacc_548c_509b_2875),
    ("MLP/DR/sgd", 0x78fc_0911_5030_0411, 0xb2b7_6750_ed10_4805),
    ("MLP/DR/adagrad", 0x5622_496c_a47e_cf02, 0x06be_0c30_2be9_1633),
    ("MLP/DR/adam+dr_inner", 0xadc7_c091_c824_f367, 0xd8a1_e010_e481_3c57),
    ("MLP/DR/adagrad+dr_inner", 0x7301_fe4b_307e_fcac, 0x1322_be3c_ba26_46c4),
    ("MLP/DN/adam", 0x62ea_6638_346b_ddfb, 0xed00_a10b_3e54_0b92),
    ("MLP/DN/sgd", 0x0cf9_aefa_3cb0_fba2, 0x03c3_f5ae_ca0b_e9f8),
    ("MLP/DN/adagrad", 0xc724_50f9_8ba6_d5f5, 0x87a9_f66f_4067_63df),
    ("MLP/Alternate/adam", 0x0303_5541_3355_df29, 0x93dd_5da8_6394_c6f0),
    ("MLP/Alternate/sgd", 0x51a6_5984_4146_fa37, 0xac3b_b1af_7fac_7970),
    ("MLP/Alternate/adagrad", 0x90d3_267f_fa09_f753, 0xe625_ffa6_0255_5f8c),
    ("DeepFM/MAMDR/adam", 0xe415_1054_2df5_1b74, 0x0d1f_b655_042a_bb8b),
    ("DeepFM/MAMDR/sgd", 0xca34_44eb_a8c6_b6f6, 0x750f_e562_16f8_6894),
    ("DeepFM/MAMDR/adagrad+dr_inner", 0x44ce_d4ca_18ef_f347, 0xe3be_4966_a610_2f77),
];

fn dataset() -> MdrDataset {
    let mut cfg = GeneratorConfig::base("core-golden", 60, 40, 31);
    cfg.dense_dim = 3;
    cfg.domains = vec![
        DomainSpec::new("a", 260, 0.3),
        DomainSpec::new("b", 200, 0.4),
        DomainSpec::new("c", 160, 0.35),
    ];
    cfg.generate()
}

/// `TrainConfig::quick()` with the named inner loop. `adam` is the
/// benchmark's optimizer setting (Adam at 5e-3, β = γ = 0.5).
fn train_config(inner: &str) -> TrainConfig {
    let mut cfg = TrainConfig::quick().with_seed(5);
    cfg.outer_lr = 0.5;
    cfg.dr_lr = 0.5;
    let (opt, dr_inner) = inner.split_once('+').map_or((inner, false), |(o, _)| (o, true));
    cfg.inner = match opt {
        "adam" => OptimizerKind::Adam { lr: 5e-3 },
        "sgd" => OptimizerKind::Sgd { lr: 0.05, momentum: 0.0 },
        "adagrad" => OptimizerKind::Adagrad { lr: 0.05 },
        other => panic!("unknown inner loop {other}"),
    };
    cfg.dr_use_inner_optimizer = dr_inner;
    cfg
}

fn framework(name: &str) -> Box<dyn Framework> {
    match name {
        "MAMDR" => Box::new(Mamdr::full()),
        "DR" => Box::new(Mamdr::dr_only()),
        "DN" => Box::new(Mamdr::dn_only()),
        "Alternate" => Box::new(Alternate),
        other => panic!("unknown framework {other}"),
    }
}

fn f32_bytes(c: &mut Checksum, values: &[f32]) {
    for v in values {
        c.update(&v.to_le_bytes());
    }
}

/// FNV of `shared ‖ delta₀ ‖ delta₁ ‖ …` (little-endian f32).
fn param_digest(trained: &TrainedModel) -> u64 {
    let mut c = Checksum::new();
    f32_bytes(&mut c, &trained.shared);
    match &trained.domains {
        DomainParams::SharedOnly => {}
        DomainParams::Deltas(deltas) | DomainParams::Full(deltas) => {
            for d in deltas {
                f32_bytes(&mut c, d);
            }
        }
    }
    c.digest()
}

/// Trains one golden run; returns `(parameter digest, telemetry digest)`.
fn run(ds: &MdrDataset, key: &str) -> (u64, u64) {
    let mut parts = key.split('/');
    let (model, fw, inner) = (parts.next().unwrap(), parts.next().unwrap(), parts.next().unwrap());
    let kind = match model {
        "MLP" => ModelKind::Mlp,
        "DeepFM" => ModelKind::DeepFm,
        other => panic!("unknown model {other}"),
    };
    let cfg = train_config(inner);
    let fc = FeatureConfig::from_dataset(ds);
    let built = build_model(kind, &fc, &ModelConfig::tiny(), ds.n_domains(), 3);
    let mut env = TrainEnv::new(ds, built.model.as_ref(), built.params, cfg);
    let rec = Arc::new(Mutex::new(RecordingObserver::new()));
    env.attach_observer(Box::new(rec.clone()));
    let trained = framework(fw).train(&mut env);

    let mut c = Checksum::new();
    let events = rec.lock().unwrap().events().to_vec();
    assert_eq!(events.len(), cfg.epochs, "{key}: one event per epoch");
    for e in &events {
        c.update(&e.mean_loss.to_bits().to_le_bytes());
        c.update(&e.grad_norm.expect("training computed grads").to_bits().to_le_bytes());
    }
    (param_digest(&trained), c.digest())
}

#[test]
fn in_process_trainers_match_the_pinned_digests_at_1_and_4_threads() {
    let ds = dataset();
    let restore = pool::configured_threads();
    let mut moved = Vec::new();
    for threads in [1, 4] {
        pool::set_threads(threads);
        for &(key, params, telemetry) in &GOLDEN {
            let got = run(&ds, key);
            if got != (params, telemetry) {
                moved.push(format!(
                    "{threads} threads: (\"{key}\", {:#018x}, {:#018x})",
                    got.0, got.1
                ));
            }
        }
    }
    pool::set_threads(restore);
    assert!(moved.is_empty(), "trained bits moved:\n{}", moved.join("\n"));
}
