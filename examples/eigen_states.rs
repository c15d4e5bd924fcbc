//! Quantum bound states by PINN: learn the first three eigenstates of the
//! infinite square well (ψ and E jointly), using deflation to climb the
//! spectrum, and validate against the exact energies `E_n = n²π²/2`. Each
//! state is the `eigenstate` adapter trained by the generic `ZooTask`:
//! its energy is an unknown, and the lattice constraints normalise it and
//! hold it orthogonal to the states already found.
//!
//! ```sh
//! cargo run --release --example eigen_states
//! ```

use qpinn::core::metrics;
use qpinn::core::task::net_config_for;
use qpinn::core::trainer::Trainer;
use qpinn::core::{TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::optim::LrSchedule;
use qpinn::problems::zoo::{eigenstate, EigenRef};
use qpinn::problems::EigenProblem;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let problem = EigenProblem::infinite_well();
    let exact = problem.exact_energies().expect("well has a closed form");
    println!("problem: {} — exact E_n = n²π²/2", problem.name);

    let train = TrainConfig {
        epochs: 1500,
        schedule: LrSchedule::Step {
            lr0: 5e-3,
            factor: 0.7,
            every: 400,
        },
        log_every: 1500,
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: Some(80),
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    };

    // Boundary, normalisation and orthogonality all weigh 100.
    let cfg = ZooTaskConfig {
        width: 24,
        n_collocation: 128,
        cond_weight: 100.0,
        conservation: true,
        ..ZooTaskConfig::quick()
    };
    // The finite-difference states the quick eigenstate reference uses.
    let states = problem.reference(601);
    let xs = problem.grid(601).points();
    let mut lower = Vec::new();
    for k in 0..3 {
        let pde = eigenstate(problem.clone(), k, 0.8 * exact[k], lower.clone());
        let net = net_config_for(pde.as_ref(), &cfg);
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(7 + k as u64);
        let mut task = ZooTask::new(pde, &net, &cfg, &mut params, &mut rng);
        let _ = Trainer::new(train.clone()).train(&mut task, &mut params);
        // Report the variational (Rayleigh quotient) estimate from the
        // learned ψ — second-order accurate in the wavefunction error.
        let e = metrics::rayleigh_energy(task.net(), &params, &problem);
        println!(
            "state {k}: E_pinn = {e:.5}   E_exact = {:.5}   |ΔE| = {:.2e}   ψ rel-L2 = {:.2e}",
            exact[k],
            (e - exact[k]).abs(),
            metrics::state_error(task.net(), &params, &xs, &states[k].psi)
        );

        // ASCII profile of the learned state
        let coarse: Vec<f64> = (0..33).map(|i| i as f64 / 32.0).collect();
        let psi = metrics::profile(task.net(), &params, &coarse);
        let maxv = psi.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1e-12);
        print!("          ");
        for v in &psi {
            let v = v / maxv;
            let c = match (v * 4.0).round() as i64 {
                4 => '█',
                3 => '▓',
                2 => '▒',
                1 => '░',
                0 => '·',
                -1 => '░',
                -2 => '▒',
                -3 => '▓',
                _ => '█',
            };
            print!("{c}");
        }
        println!("   (|ψ_{k}| profile over [0, 1])");

        lower.push(EigenRef {
            psi: metrics::profile(task.net(), &params, &xs),
            xs: xs.clone(),
        });
    }
    println!("\n(deflation: each state is trained orthogonal to the previous ones)");
}
