//! Floors for what the unknown-carrying adapters learn through the generic
//! `ZooTask`: bound states with their energies (T2's quick settings) and
//! a trap frequency identified from observations (a short T7-style run).

use qpinn::core::metrics;
use qpinn::core::task::net_config_for;
use qpinn::core::trainer::{PinnTask, Trainer};
use qpinn::core::{FieldNetConfig, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::{GraphCtx, ParamSet};
use qpinn::optim::LrSchedule;
use qpinn::problems::zoo::{eigenstate, trap_frequency, EigenRef};
use qpinn::problems::{EigenProblem, PdeProblem, TdseProblem};
use rand::{rngs::StdRng, SeedableRng};

/// T2's quick task: a 24×2 tanh net on 128 points, with boundary,
/// normalisation and orthogonality at weight 100.
fn eigen_cfg() -> ZooTaskConfig {
    ZooTaskConfig {
        width: 24,
        n_collocation: 128,
        cond_weight: 100.0,
        conservation: true,
        ..ZooTaskConfig::quick()
    }
}

fn train(epochs: usize, every: usize, lbfgs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        schedule: LrSchedule::Step {
            lr0: 5e-3,
            factor: 0.7,
            every,
        },
        log_every: epochs,
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: Some(lbfgs),
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    }
}

fn trained(
    problem: Box<dyn PdeProblem>,
    cfg: &ZooTaskConfig,
    seed: u64,
    t: TrainConfig,
) -> (ZooTask, ParamSet) {
    let net = net_config_for(problem.as_ref(), cfg);
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut task = ZooTask::new(problem, &net, cfg, &mut params, &mut rng);
    let _ = Trainer::new(t).train(&mut task, &mut params);
    (task, params)
}

#[test]
fn infinite_well_states_0_and_1_meet_the_t2_floors() {
    // T2 quick, seeds 7 and 8: |ΔE| 4.9e-3 and 1.5e-3, ψ rel-L2 2.0e-3
    // and 1.1e-2. Without the orthogonality term state 1 falls back to
    // the ground state (E ≈ 5 instead of 19.7).
    let well = EigenProblem::infinite_well();
    let states = well.reference(601);
    let xs = well.grid(601).points();
    let exact = well.exact_energies().unwrap();
    let mut lower = Vec::new();
    for k in 0..2 {
        let pde = eigenstate(well.clone(), k, 0.8 * exact[k], lower.clone());
        let (task, params) = trained(pde, &eigen_cfg(), 7 + k as u64, train(1200, 300, 60));
        let de = (metrics::rayleigh_energy(task.net(), &params, &well) - states[k].energy).abs();
        let psi_err = metrics::state_error(task.net(), &params, &xs, &states[k].psi);
        assert!(de <= 3e-2, "state {k}: |ΔE| = {de:e}");
        assert!(psi_err <= 2e-2, "state {k}: ψ rel-L2 = {psi_err:e}");
        lower.push(EigenRef {
            psi: metrics::profile(task.net(), &params, &xs),
            xs: xs.clone(),
        });
    }
}

#[test]
fn harmonic_ground_state_energy_converges() {
    let pde = eigenstate(EigenProblem::harmonic(1.0), 0, 0.4, Vec::new());
    let (task, params) = trained(pde, &eigen_cfg(), 7, train(1500, 500, 80));
    let e = task.unknowns(&params)[0];
    assert!((e - 0.5).abs() < 0.05, "ground-state energy {e} (want 0.5)");
}

#[test]
fn trap_frequency_moves_toward_the_truth() {
    // True ω = 1. ω only becomes identifiable once ψ roughly fits the
    // data, so the error can rise briefly before the descent sets in;
    // this short budget shows the direction, T7 the accuracy.
    let problem = trap_frequency(TdseProblem::mild_harmonic(), 0.6, 96, 0.0);
    let cfg = ZooTaskConfig {
        n_collocation: 160,
        n_condition: 128,
        cond_weight: 50.0,
        ..ZooTaskConfig::quick()
    };
    let c = problem.coords();
    let net = FieldNetConfig::standard_wave(c[0].span(), c[1].span(), 16, 2);
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(1);
    let mut task = ZooTask::new(problem, &net, &cfg, &mut params, &mut rng);
    let err = |task: &ZooTask, params: &ParamSet| (task.unknowns(params)[0].abs() - 1.0).abs();
    let e0 = err(&task, &params);
    assert!((e0 - 0.4).abs() < 1e-12);

    let mut g = qpinn::autodiff::Graph::new();
    let mut ctx = GraphCtx::new(&mut g, &params);
    let l = task.build_loss(&mut ctx);
    let mut grads = ctx.g.backward(l);
    let omega_grad = ctx.collect_grads(&mut grads).pop().unwrap().item();
    assert!(
        omega_grad.is_finite() && omega_grad != 0.0,
        "∂L/∂ω = {omega_grad}"
    );

    let _ = Trainer::new(TrainConfig {
        schedule: LrSchedule::Constant { lr: 3e-3 },
        log_every: 300,
        lbfgs_polish: None,
        ..train(900, 1, 0)
    })
    .train(&mut task, &mut params);
    let e1 = err(&task, &params);
    assert!(e1 < e0 - 0.005, "ω error should shrink: {e0} → {e1}");
}
