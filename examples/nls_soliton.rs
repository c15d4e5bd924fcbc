//! Nonlinear Schrödinger bright soliton: train a PINN on
//! `i h_t + ½ h_xx + |h|² h = 0` with `h(0, x) = a sech(a x)` and compare
//! against the *exact* soliton `a sech(a x)·e^{i a² t/2}` — a problem with
//! a genuine nonlinearity and a closed-form oracle.
//!
//! ```sh
//! cargo run --release --example nls_soliton
//! ```

use qpinn::core::trainer::Trainer;
use qpinn::core::{FieldNetConfig, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::optim::LrSchedule;
use qpinn::problems::{lookup, NlsProblem};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // The registry's `nls-soliton` is the a = 1 soliton.
    let problem = NlsProblem::bright_soliton(1.0);
    println!(
        "problem: {} on [{}, {}] × [0, {}]",
        problem.name, problem.x0, problem.x1, problem.t_end
    );

    let net = FieldNetConfig::standard_wave(problem.length(), problem.t_end, 24, 3);
    let cfg = ZooTaskConfig {
        n_collocation: 512,
        causal: true,
        conservation: true,
        ..ZooTaskConfig::standard()
    };
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(7);
    let registered = lookup("nls-soliton").expect("registered problem");
    let mut task = ZooTask::new(registered, &net, &cfg, &mut params, &mut rng);

    let log = Trainer::new(TrainConfig {
        epochs: 500,
        schedule: LrSchedule::Step {
            lr0: 2e-3,
            factor: 0.85,
            every: 100,
        },
        log_every: 100,
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: None,
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    })
    .train(&mut task, &mut params);
    println!(
        "trained {} params → rel-L2 vs spectral reference: {:.3e} ({:.1}s)",
        params.n_scalars(),
        log.final_error,
        log.wall_s
    );

    // Compare with the closed-form soliton at a few space-time points.
    println!("\npointwise check vs EXACT soliton h = a·sech(ax)·e^(i a² t/2):");
    let mut worst = 0.0f64;
    for &t in &[0.25, 0.5, 1.0] {
        for &x in &[-2.0, -0.5, 0.0, 1.0, 3.0] {
            let exact = problem.analytic(x, t).expect("soliton has a closed form");
            let pred = task.net().predict(&params, &[vec![x, t]]);
            let (pu, pv) = (pred.get(&[0, 0]), pred.get(&[0, 1]));
            let err = ((pu - exact.re).powi(2) + (pv - exact.im).powi(2)).sqrt();
            worst = worst.max(err);
            println!(
                "  (x={x:+.1}, t={t:.2})  pinn=({pu:+.4}, {pv:+.4})  exact=({:+.4}, {:+.4})  |Δ|={err:.2e}",
                exact.re, exact.im
            );
        }
    }
    println!("\nworst pointwise deviation: {worst:.3e}");
    println!("(longer training — see the T1 harness — tightens this substantially)");
}
