//! **sweep — registry-driven problem × ansatz benchmark.** The front door
//! of the problem zoo: pick any registered PDE family with `--problem KEY`
//! (see `--list-problems`) and optionally a named variational template
//! with `--ansatz NAME` (see `--list-ansatze`). The classical leg trains a
//! [`qpinn_core::ZooTask`] for the chosen problem and reports the final
//! loss and rel-L2 error against the problem's reference solution; the
//! quantum leg (when `--ansatz` is given) trains a hybrid
//! quantum-classical network built from the named ansatz on the
//! variational ground-state benchmark and reports its energy error.
//!
//! Unknown keys and names exit with status 2 after printing the
//! registered alternatives, so shell loops over `--list-problems` output
//! always either train or fail loudly.

use qpinn_bench::{
    banner, flag_value, hybrid_doc, resolve_ansatz, resolve_problem, save, standard_train, RunOpts,
};
use qpinn_core::hybrid::{HybridEigenTask, HybridNet};
use qpinn_core::report::{Json, TextTable};
use qpinn_core::trainer::{PinnTask, Trainer};
use qpinn_core::{ZooTask, ZooTaskConfig};
use qpinn_nn::ParamSet;
use qpinn_problems::EigenProblem;
use qpinn_qcircuit::{Ansatz, InputScaling, QuantumLayer};
use rand::{rngs::StdRng, SeedableRng};

fn usage() {
    println!("usage: sweep --problem KEY [--ansatz NAME] [--full] [--epochs N] [--seeds N] [--runs DIR]");
    println!("       sweep --list-problems | --list-ansatze");
    println!();
    println!("problems: {}", qpinn_problems::keys().join(", "));
    println!("ansatze:  {}", Ansatz::names().join(", "));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--list-problems") {
        for key in qpinn_problems::keys() {
            println!("{key}");
        }
        return;
    }
    if args.iter().any(|a| a == "--list-ansatze") {
        for name in Ansatz::names() {
            println!("{name}");
        }
        return;
    }
    let key = match flag_value(&args, "--problem") {
        Some(k) => k,
        None => {
            usage();
            return;
        }
    };
    let problem = match resolve_problem(&key) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let ansatz = match flag_value(&args, "--ansatz") {
        None => None,
        Some(name) => match resolve_ansatz(&name) {
            Ok(a) => Some(a),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
    };

    let opts = RunOpts::from_args();
    banner(
        "SWEEP",
        &format!(
            "problem zoo: {} ({})",
            problem.key(),
            problem.describe()
        ),
        &opts,
    );

    let mut table = TextTable::new(&["leg", "target", "params", "final loss", "error"]);
    let mut records = Vec::new();

    // Classical leg: the registry trainer on the chosen problem.
    {
        let cfg = if opts.full {
            ZooTaskConfig::standard()
        } else {
            ZooTaskConfig::quick()
        };
        let epochs = opts.pick_epochs(150, 3000);
        let seed = opts.seeds()[0];
        let mut train = standard_train(epochs);
        train.log_every = (epochs / 5).max(1);
        train.run = Some(opts.run_cfg(
            &format!("sweep/{}", problem.key()),
            seed,
            Json::obj(vec![
                ("problem", Json::Str(problem.key().to_string())),
                ("width", Json::Num(cfg.width as f64)),
                ("depth", Json::Num(cfg.depth as f64)),
                ("n_collocation", Json::Num(cfg.n_collocation as f64)),
            ]),
        ));
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut task = match ZooTask::from_key(problem.key(), &cfg, &mut params, &mut rng) {
            Ok(t) => t,
            Err(e) => {
                // unreachable after resolve_problem, but never panic on it
                eprintln!("--problem: {e}");
                std::process::exit(2);
            }
        };
        let log = Trainer::new(train).train(&mut task, &mut params);
        let err = task.eval_error(&params);
        let loss = log.final_loss;
        println!(
            "classical: final loss {loss:.3e}, reference rel-L2 {err:.3e}"
        );
        table.row(&[
            "classical".into(),
            problem.key().into(),
            format!("{}", params.n_scalars()),
            format!("{loss:.3e}"),
            format!("{err:.3e}"),
        ]);
        records.push(Json::obj(vec![
            ("leg", Json::Str("classical".into())),
            ("problem", Json::Str(problem.key().to_string())),
            ("n_params", Json::Num(params.n_scalars() as f64)),
            ("final_loss", Json::Num(loss)),
            ("error", Json::Num(err)),
        ]));
    }

    // Quantum leg: the named ansatz on the variational ground-state
    // benchmark (the hybrid net takes one coordinate, so the 1-D harmonic
    // eigenproblem is the shared yardstick across templates).
    if let Some(ansatz) = ansatz {
        let epochs = opts.pick_epochs(200, 1500);
        let q = QuantumLayer {
            n_qubits: opts.pick(3, 4),
            layers: opts.pick(2, 3),
            ansatz,
            scaling: InputScaling::Acos,
            reupload: false,
        };
        let (hidden, n_coll) = (opts.pick(10, 16), opts.pick(48, 128));
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(21);
        let net = HybridNet::new(&mut params, &mut rng, hidden, q, "hyb");
        let mut task = HybridEigenTask::new(EigenProblem::harmonic(1.0), net, n_coll, 401);
        let mut train = standard_train(epochs);
        train.lbfgs_polish = None;
        train.run = Some(opts.run_cfg(
            &format!("sweep/quantum/{}", ansatz.name()),
            21,
            hybrid_doc(&q, hidden, n_coll),
        ));
        let _ = Trainer::new(train).train(&mut task, &mut params);
        let e = task.energy(&params);
        let de = (e - task.reference_energy()).abs();
        println!(
            "quantum ({}): E = {e:.5}, |ΔE| = {de:.3e}",
            ansatz.name()
        );
        table.row(&[
            "quantum".into(),
            format!("harmonic/{}", ansatz.name()),
            format!("{}", params.n_scalars()),
            format!("{e:.5}"),
            format!("{de:.3e}"),
        ]);
        records.push(Json::obj(vec![
            ("leg", Json::Str("quantum".into())),
            ("ansatz", Json::Str(ansatz.name().to_string())),
            ("n_params", Json::Num(params.n_scalars() as f64)),
            ("energy", Json::Num(e)),
            ("error", Json::Num(de)),
        ]));
    }

    println!("\n{}", table.render());
    save(
        &format!("sweep_{}", problem.key().replace('-', "_")),
        &Json::obj(vec![
            ("id", Json::Str("SWEEP".into())),
            ("problem", Json::Str(problem.key().to_string())),
            ("full", Json::Bool(opts.full)),
            ("rows", Json::Arr(records)),
        ]),
    );
}
