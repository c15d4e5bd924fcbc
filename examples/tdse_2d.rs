//! Two-dimensional Schrödinger PINN: train on the 2D free-packet problem
//! and compare a density slice against the 2D spectral reference — the
//! multi-dimensional extension in miniature.
//!
//! ```sh
//! cargo run --release --example tdse_2d
//! ```

use qpinn::core::model::RffSpec;
use qpinn::core::report::sparkline_log;
use qpinn::core::task::net_config_for;
use qpinn::core::trainer::Trainer;
use qpinn::core::{TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::optim::LrSchedule;
use qpinn::problems::{lookup, Tdse2dProblem};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let problem = Tdse2dProblem::free_packet_2d();
    println!(
        "problem: {} on [{},{}]² × [0, {}]",
        problem.name, problem.x.0, problem.x.1, problem.t_end
    );

    // Periodic x and y, learned-period t, a 12 × 12 initial-condition
    // lattice, and the norm-conservation loss.
    let registered = lookup("tdse2d-free").expect("registered problem");
    let cfg = ZooTaskConfig {
        width: 20,
        depth: 3,
        n_collocation: 512,
        n_condition: 144,
        conservation: true,
        ..ZooTaskConfig::quick()
    };
    let mut net = net_config_for(registered.as_ref(), &cfg);
    net.rff = Some(RffSpec {
        n_features: 20,
        sigma: 1.0,
    });
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(5);
    let mut task = ZooTask::new(registered, &net, &cfg, &mut params, &mut rng);
    println!("trainable parameters: {}", params.n_scalars());

    let log = Trainer::new(TrainConfig {
        epochs: 400,
        schedule: LrSchedule::Step {
            lr0: 3e-3,
            factor: 0.85,
            every: 80,
        },
        log_every: 50,
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: Some(60),
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    })
    .train(&mut task, &mut params);
    println!("loss: {}", sparkline_log(&log.loss));
    println!(
        "rel-L2 vs 2D spectral reference: {:.3e} ({:.1}s)\n",
        log.final_error, log.wall_s
    );

    // |ψ|² heat strip along y = 0 at t = 0 and t = t_end
    for &t in &[0.0, problem.t_end] {
        print!("|ψ(x, 0, {t:.1})|²  ");
        for i in 0..33 {
            let x = problem.x.0 + (problem.x.1 - problem.x.0) * i as f64 / 32.0;
            let pred = task.net().predict(&params, &[vec![x, 0.0, t]]);
            let d = pred.get(&[0, 0]).powi(2) + pred.get(&[0, 1]).powi(2);
            let c = match (d * 20.0) as i64 {
                0 => '·',
                1 => '░',
                2 => '▒',
                3..=4 => '▓',
                _ => '█',
            };
            print!("{c}");
        }
        println!();
    }
    println!("(the packet spreads isotropically; the reference shows the same profile)");
}
