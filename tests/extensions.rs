//! Integration smoke tests for the extension features: 2D TDSE training,
//! the inverse problem (trap-frequency identification), and the
//! data-reuploading quantum layer — all driven through the facade crate.

use qpinn::core::model::RffSpec;
use qpinn::core::task::net_config_for;
use qpinn::core::trainer::{PinnTask, Trainer};
use qpinn::core::{TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::{GraphCtx, ParamSet};
use qpinn::optim::LrSchedule;
use qpinn::problems::zoo::trap_frequency;
use qpinn::problems::{lookup, Tdse2dProblem, TdseProblem};
use qpinn::qcircuit::{Ansatz, InputScaling, QuantumLayer};
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn tdse2d_trains_and_respects_double_periodicity() {
    let problem = lookup("tdse2d-free").unwrap();
    let cfg = ZooTaskConfig {
        width: 10,
        depth: 2,
        n_collocation: 64,
        n_condition: 25,
        conservation: true,
        ..ZooTaskConfig::quick()
    };
    let mut net = net_config_for(problem.as_ref(), &cfg);
    net.rff = Some(RffSpec {
        n_features: 8,
        sigma: 1.0,
    });
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(0);
    let mut task = ZooTask::new(problem, &net, &cfg, &mut params, &mut rng);
    let log = Trainer::new(TrainConfig {
        epochs: 25,
        schedule: LrSchedule::Constant { lr: 3e-3 },
        log_every: 5,
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: None,
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    })
    .train(&mut task, &mut params);
    assert!(log.final_loss < log.loss[0], "2D loss did not drop");
    // double periodicity survives training
    let (lx, ly) = Tdse2dProblem::free_packet_2d().lengths();
    let a = task.net().predict(&params, &[vec![0.3, -0.8, 0.2]]);
    let b = task
        .net()
        .predict(&params, &[vec![0.3 + lx, -0.8 + 2.0 * ly, 0.2]]);
    assert!(a.approx_eq(&b, 1e-12));
}

#[test]
fn inverse_task_reports_consistent_metadata() {
    let problem = trap_frequency(TdseProblem::mild_harmonic(), 0.7, 32, 0.0);
    assert_eq!(problem.unknowns(), [("omega", 0.7)]);
    let cfg = ZooTaskConfig {
        width: 8,
        depth: 1,
        n_collocation: 64,
        ..ZooTaskConfig::quick()
    };
    let net = net_config_for(problem.as_ref(), &cfg);
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(1);
    let mut task = ZooTask::new(problem, &net, &cfg, &mut params, &mut rng);
    assert_eq!(task.unknowns(&params), [0.7]);
    let (_, name, _) = params.iter().last().unwrap();
    assert_eq!(name, "trap-frequency.omega");
    // the observations fit as a condition set beside the initial state
    let conditions = task.problem().conditions(cfg.n_condition);
    let sets: Vec<(&str, usize)> = conditions.iter().map(|c| (c.name, c.points.len())).collect();
    assert_eq!(sets, [("ic", cfg.n_condition), ("data", 32)]);
    // one loss/grad cycle runs cleanly
    let mut g = qpinn::autodiff::Graph::new();
    let mut ctx = GraphCtx::new(&mut g, &params);
    let l = task.build_loss(&mut ctx);
    assert!(ctx.g.value(l).item().is_finite());
    let mut grads = ctx.g.backward(l);
    let collected = ctx.collect_grads(&mut grads);
    assert!(collected.iter().all(|t| t.all_finite()));
}

#[test]
fn reuploading_layer_changes_the_model_but_keeps_param_count() {
    let mk = |reupload: bool| QuantumLayer {
        n_qubits: 2,
        layers: 2,
        ansatz: Ansatz::BasicEntangling,
        scaling: InputScaling::Acos,
        reupload,
    };
    let plain = mk(false);
    let re = mk(true);
    assert_eq!(
        plain.n_params(),
        re.n_params(),
        "re-uploading adds no parameters"
    );
    let mut rng = StdRng::seed_from_u64(2);
    let theta = plain.init_params(&mut rng);
    let a = [0.4, -0.3];
    let e_plain = plain.forward_sample(&a, &theta);
    let e_re = re.forward_sample(&a, &theta);
    let diff: f64 = e_plain.iter().zip(&e_re).map(|(x, y)| (x - y).abs()).sum();
    assert!(diff > 1e-6, "re-uploading must change the function: {diff}");
    // and both are valid expectations
    assert!(e_re.iter().all(|v| (-1.0..=1.0).contains(v)));
}

#[test]
fn reuploading_jvp_matches_finite_differences_through_the_layer() {
    let layer = QuantumLayer {
        n_qubits: 2,
        layers: 2,
        ansatz: Ansatz::StronglyEntangling,
        scaling: InputScaling::Asin,
        reupload: true,
    };
    let mut rng = StdRng::seed_from_u64(3);
    let theta = layer.init_params(&mut rng);
    let a = [0.2, -0.5];
    let t = [0.8, 0.4];
    let (_, jvp) = layer.jvp_sample(&a, &t, &theta);
    let h = 1e-6;
    let ap: Vec<f64> = a.iter().zip(&t).map(|(x, d)| x + h * d).collect();
    let am: Vec<f64> = a.iter().zip(&t).map(|(x, d)| x - h * d).collect();
    let fp = layer.forward_sample(&ap, &theta);
    let fm = layer.forward_sample(&am, &theta);
    for k in 0..2 {
        let fd = (fp[k] - fm[k]) / (2.0 * h);
        assert!((jvp[k] - fd).abs() < 1e-5, "k={k}: {} vs {fd}", jvp[k]);
    }
}
