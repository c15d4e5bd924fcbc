//! **T6 — hybrid quantum vs classical head-to-head.** The variational
//! (Rayleigh quotient) ground-state problem solved by hybrid
//! quantum-classical networks across ansatz × input-scaling combinations
//! (plus a data-reuploading variant), against a parameter-matched
//! classical control. Reports the energy error and trainable-parameter
//! counts.

use qpinn_bench::{banner, hybrid_doc, save, RunOpts};
use qpinn_core::hybrid::{HybridEigenTask, HybridNet};
use qpinn_core::report::{Json, TextTable};
use qpinn_core::trainer::Trainer;
use qpinn_core::{FieldNetConfig, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn_nn::ParamSet;
use qpinn_optim::LrSchedule;
use qpinn_problems::zoo::eigenstate;
use qpinn_problems::EigenProblem;
use qpinn_qcircuit::{Ansatz, InputScaling, QuantumLayer};
use rand::{rngs::StdRng, SeedableRng};

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        schedule: LrSchedule::Step {
            lr0: 5e-3,
            factor: 0.8,
            every: (epochs / 4).max(1),
        },
        log_every: epochs,
        eval_every: 0,
        clip: Some(50.0),
        lbfgs_polish: None,
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    }
}

fn run_hybrid(
    opts: &RunOpts,
    problem: &EigenProblem,
    q: QuantumLayer,
    hidden: usize,
    n_coll: usize,
    table: &mut TextTable,
    records: &mut Vec<Json>,
) {
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(21);
    let net = HybridNet::new(&mut params, &mut rng, hidden, q, "hyb");
    let mut task = HybridEigenTask::new(problem.clone(), net, n_coll, 401);
    let label = if q.reupload {
        "hybrid+reupload".to_string()
    } else {
        "hybrid".to_string()
    };
    let mut train = train_cfg(opts.pick_epochs(400, 2000));
    train.run = Some(opts.run_cfg(
        &format!("t6/{label}/{}/{}", q.ansatz.name(), q.scaling.name()),
        21,
        hybrid_doc(&q, hidden, n_coll),
    ));
    let _ = Trainer::new(train).train(&mut task, &mut params);
    let e = task.energy(&params);
    let de = (e - task.reference_energy()).abs();
    table.row(&[
        label.clone(),
        q.ansatz.name().into(),
        q.scaling.name().into(),
        format!("{}", params.n_scalars()),
        format!("{e:.5}"),
        format!("{de:.2e}"),
    ]);
    records.push(Json::obj(vec![
        ("model", Json::Str(label)),
        ("ansatz", Json::Str(q.ansatz.name().into())),
        ("scaling", Json::Str(q.scaling.name().into())),
        ("n_params", Json::Num(params.n_scalars() as f64)),
        ("energy", Json::Num(e)),
        ("error", Json::Num(de)),
    ]));
}

fn main() {
    let opts = RunOpts::from_args();
    banner(
        "T6",
        "hybrid QPINN vs classical on the variational ground state",
        &opts,
    );
    let problem = EigenProblem::harmonic(1.0);
    let n_coll = opts.pick(48, 128);
    let hidden = opts.pick(10, 16);
    let nq = opts.pick(3, 4);
    let layers = opts.pick(2, 3);

    let ansaetze = if opts.full {
        Ansatz::all().to_vec()
    } else {
        vec![Ansatz::BasicEntangling, Ansatz::NoEntangling]
    };
    let scalings = if opts.full {
        InputScaling::all().to_vec()
    } else {
        vec![InputScaling::Acos, InputScaling::Pi]
    };

    let mut table = TextTable::new(&["model", "ansatz", "scaling", "params", "E", "|ΔE|"]);
    let mut records = Vec::new();

    // classical control: the residual formulation (the energy an unknown
    // of the eigenstate adapter) with a comparably sized network
    {
        let cfg = ZooTaskConfig {
            n_collocation: n_coll,
            cond_weight: 100.0,
            conservation: true,
            ..ZooTaskConfig::quick()
        };
        let net = FieldNetConfig {
            hidden: vec![hidden, nq.max(4)],
            ..FieldNetConfig::plain(1, hidden, 2, 1)
        };
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(11);
        let pde = eigenstate(problem.clone(), 0, 0.4, Vec::new());
        let mut task = ZooTask::new(pde, &net, &cfg, &mut params, &mut rng);
        let mut tcfg = train_cfg(opts.pick_epochs(1500, 4000));
        tcfg.lbfgs_polish = Some(60);
        tcfg.run = Some(opts.run_cfg(
            "t6/classical",
            11,
            Json::obj(vec![
                (
                    "hidden",
                    Json::nums(&net.hidden.iter().map(|&h| h as f64).collect::<Vec<_>>()),
                ),
                ("n_collocation", Json::Num(n_coll as f64)),
            ]),
        ));
        let _ = Trainer::new(tcfg).train(&mut task, &mut params);
        let e = task.unknowns(&params)[0];
        let de = (e - problem.reference(401)[0].energy).abs();
        table.row(&[
            "classical".into(),
            "—".into(),
            "—".into(),
            format!("{}", params.n_scalars()),
            format!("{e:.5}"),
            format!("{de:.2e}"),
        ]);
        records.push(Json::obj(vec![
            ("model", Json::Str("classical".into())),
            ("n_params", Json::Num(params.n_scalars() as f64)),
            ("energy", Json::Num(e)),
            ("error", Json::Num(de)),
        ]));
    }

    for &ansatz in &ansaetze {
        for &scaling in &scalings {
            run_hybrid(
                &opts,
                &problem,
                QuantumLayer {
                    n_qubits: nq,
                    layers,
                    ansatz,
                    scaling,
                    reupload: false,
                },
                hidden,
                n_coll,
                &mut table,
                &mut records,
            );
        }
    }
    // data re-uploading variant of the best-known template (same parameter
    // count, richer Fourier spectrum)
    run_hybrid(
        &opts,
        &problem,
        QuantumLayer {
            n_qubits: nq,
            layers,
            ansatz: Ansatz::BasicEntangling,
            scaling: InputScaling::Acos,
            reupload: true,
        },
        hidden,
        n_coll,
        &mut table,
        &mut records,
    );

    println!("\n{}", table.render());
    println!("(reference ground-state energy: 0.5; Rayleigh quotient upper-bounds it)");
    save(
        "t6_hybrid",
        &Json::obj(vec![
            ("id", Json::Str("T6".into())),
            ("full", Json::Bool(opts.full)),
            ("rows", Json::Arr(records)),
        ]),
    );
}
