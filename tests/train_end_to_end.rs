//! Cross-crate integration: assemble tasks through the facade and verify
//! that short end-to-end training genuinely improves the solution.

use qpinn::core::trainer::{PinnTask, Trainer};
use qpinn::core::{FieldNetConfig, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::optim::LrSchedule;
use qpinn::problems::{lookup, TdseProblem};
use rand::{rngs::StdRng, SeedableRng};

fn quick_train(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        schedule: LrSchedule::Constant { lr: 2e-3 },
        log_every: (epochs / 4).max(1),
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: None,
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    }
}

/// A registry Schrödinger problem on the standard wave net, with the
/// causal curriculum and the norm-conservation loss on.
fn wave_task(
    key: &str,
    width: usize,
    (n_collocation, n_condition): (usize, usize),
    seed: u64,
) -> (ZooTask, ParamSet) {
    let problem = lookup(key).unwrap();
    let c = problem.coords();
    let net = FieldNetConfig::standard_wave(c[0].span(), c[1].span(), width, 2);
    let cfg = ZooTaskConfig {
        n_collocation,
        n_condition,
        causal: true,
        conservation: true,
        ..ZooTaskConfig::quick()
    };
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let task = ZooTask::new(problem, &net, &cfg, &mut params, &mut rng);
    (task, params)
}

#[test]
fn tdse_training_improves_l2_error() {
    let (mut task, mut params) = wave_task("tdse-free", 16, (160, 48), 11);
    let e0 = task.eval_error(&params);
    let log = Trainer::new(quick_train(150)).train(&mut task, &mut params);
    assert!(
        log.final_error < 0.8 * e0,
        "error did not improve: {e0} → {}",
        log.final_error
    );
    assert!(log.final_loss < log.loss[0], "loss did not drop");
}

#[test]
fn nls_training_improves_l2_error() {
    let (mut task, mut params) = wave_task("nls-soliton", 16, (160, 48), 13);
    let e0 = task.eval_error(&params);
    let log = Trainer::new(quick_train(150)).train(&mut task, &mut params);
    assert!(
        log.final_error < 0.8 * e0,
        "error did not improve: {e0} → {}",
        log.final_error
    );
}

#[test]
fn training_is_deterministic_given_a_seed() {
    let run = || {
        let (mut task, mut params) = wave_task("tdse-free", 12, (96, 24), 99);
        let log = Trainer::new(quick_train(30)).train(&mut task, &mut params);
        (log.final_loss, params.flatten())
    };
    let (l1, p1) = run();
    let (l2, p2) = run();
    assert_eq!(l1, l2, "loss must be bit-identical across reruns");
    assert_eq!(p1, p2, "parameters must be bit-identical across reruns");
}

#[test]
fn ic_fit_dominates_early_training() {
    // After a short run the network must already match the initial
    // condition far better than a random net does.
    let problem = TdseProblem::free_packet();
    let (mut task, mut params) = wave_task("tdse-free", 16, (128, 64), 5);

    let ic_mse = |params: &ParamSet, task: &ZooTask| -> f64 {
        let mut s = 0.0;
        let n = 32;
        for i in 0..n {
            let x = problem.x0 + problem.length() * i as f64 / n as f64;
            let pred = task.net().predict(params, &[vec![x, 0.0]]);
            let want = problem.initial(x);
            s += (pred.get(&[0, 0]) - want.re).powi(2) + (pred.get(&[0, 1]) - want.im).powi(2);
        }
        s / n as f64
    };
    let before = ic_mse(&params, &task);
    let _ = Trainer::new(quick_train(150)).train(&mut task, &mut params);
    let after = ic_mse(&params, &task);
    assert!(
        after < 0.2 * before,
        "IC fit should improve strongly: {before} → {after}"
    );
}
