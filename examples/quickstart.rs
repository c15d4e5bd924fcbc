//! Quickstart: train a physics-informed network on the free-particle
//! Schrödinger equation and compare it with the spectral reference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use qpinn::core::trainer::Trainer;
use qpinn::core::{FieldNetConfig, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::optim::LrSchedule;
use qpinn::problems::lookup;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // 1. Pick a benchmark problem from the registry: a Gaussian packet
    //    spreading in a periodic box under i ψ_t = −½ ψ_xx.
    let problem = lookup("tdse-free").expect("registered problem");
    let coords = problem.coords();
    let (x, t) = (&coords[0], &coords[1]);
    println!(
        "problem: {} on [{}, {}] × [0, {}]",
        problem.key(),
        x.lo,
        x.hi,
        t.hi
    );

    // 2. Configure the task: network architecture (periodic x, learned-
    //    period t, random Fourier features), collocation budget, and the
    //    causal curriculum plus the norm-conservation loss.
    let net = FieldNetConfig::standard_wave(x.span(), t.span(), 24, 3);
    let cfg = ZooTaskConfig {
        n_collocation: 512,
        causal: true,
        conservation: true,
        ..ZooTaskConfig::standard()
    };
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(42);
    let mut task = ZooTask::new(problem, &net, &cfg, &mut params, &mut rng);
    println!("trainable parameters: {}", params.n_scalars());

    // 3. Train with Adam (step-decayed learning rate).
    let trainer = Trainer::new(TrainConfig {
        epochs: 400,
        schedule: LrSchedule::Step {
            lr0: 2e-3,
            factor: 0.85,
            every: 80,
        },
        log_every: 50,
        eval_every: 100,
        clip: Some(100.0),
        lbfgs_polish: None,
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    });
    let log = trainer.train(&mut task, &mut params);
    for (e, l) in log.epochs.iter().zip(&log.loss) {
        println!("epoch {e:>5}: loss {l:.4e}");
    }
    println!(
        "loss trajectory (log scale): {}",
        qpinn::core::report::sparkline_log(&log.loss)
    );

    // 4. Score against the high-fidelity split-step reference.
    println!(
        "\nfinal relative L2 error vs reference: {:.3e}  ({:.1}s)",
        log.final_error, log.wall_s
    );

    // 5. Inspect the solution: |ψ| along x at the final time.
    let t = t.hi;
    println!("\n|ψ(x, t={t})|  (PINN vs reference)");
    for i in 0..13 {
        let x = x.lo + x.span() * i as f64 / 12.0;
        let pred = task.net().predict(&params, &[vec![x, t]]);
        let pm = (pred.get(&[0, 0]).powi(2) + pred.get(&[0, 1]).powi(2)).sqrt();
        let r = task.reference().sample(&[x, t]);
        let rm = r[0].hypot(r[1]);
        let bar = "#".repeat((pm * 40.0) as usize);
        println!("x={x:+5.2}  pinn={pm:.4}  ref={rm:.4}  {bar}");
    }
}
