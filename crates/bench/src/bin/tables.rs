//! **T1, T3, T4, F3 — the grid tables.** Each is a grid of settings ×
//! seeds → rel-L2 on the Schrödinger problems:
//!
//! - **T1**, headline accuracy: every benchmark problem at the standard
//!   architecture;
//! - **T3**, architecture ablation: width × depth on the free packet;
//! - **T4**, feature & loss ablation: the random Fourier features, the
//!   exact periodic embedding, causal weighting and the conservation
//!   loss, each switched off in turn, on the free packet and the NLS
//!   benchmark;
//! - **F3**, collocation sweep: error and wall time against the
//!   collocation count on the free packet.
//!
//! Every row's seeds train through [`run_seeds_with`] into the run store
//! (`--runs DIR`, default `target/runs`) under the label `<table>/<row>`.
//! Stdout is then exactly what `qpinn-obs runs table` renders from the
//! runs this invocation recorded (after the address line `--serve`
//! prints); progress goes to stderr. `--table t1|t3|t4|f3` runs one
//! table (default: all four).

use qpinn_bench::{
    finish_telemetry, flag_value, net_doc, nls_raissi, seeded_task, standard_train, wave_config,
    wave_net, ProblemFactory, RunOpts,
};
use qpinn_core::experiment::run_seeds_with;
use qpinn_core::model::{CoordSpec, FieldNetConfig};
use qpinn_core::trainer::CheckpointConfig;
use qpinn_core::{TrainConfig, ZooTaskConfig};
use qpinn_problems::{lookup, zoo, PdeProblem, TdseProblem};

const TABLES: [&str; 4] = ["t1", "t3", "t4", "f3"];

fn free_packet() -> Box<dyn PdeProblem> {
    lookup("tdse-free").expect("registered problem")
}

/// T1's problems. The barrier and the Raissi benchmark have no registry
/// key.
const T1_PROBLEMS: [(&str, ProblemFactory); 5] = [
    ("free-packet", free_packet),
    ("harmonic-packet", || {
        lookup("tdse-harmonic").expect("registered problem")
    }),
    ("barrier-scattering", || {
        zoo::tdse(
            "tdse-barrier",
            "1D TDSE, moving packet scattering off a smooth barrier",
            TdseProblem::barrier_scattering(),
        )
    }),
    // The integrable single soliton (stable) and the Raissi 2-soliton
    // bound state (modulationally unstable — the known hard case).
    ("nls-soliton(a=1)", || {
        lookup("nls-soliton").expect("registered problem")
    }),
    ("nls-raissi", nls_raissi),
];

/// Switches a row's network or task away from the standard setup.
type Variant = fn(&mut FieldNetConfig, &mut ZooTaskConfig);

/// T4's variants: the standard setup, then each enhancement off in turn.
const T4_VARIANTS: [(&str, Variant); 5] = [
    ("standard", |_, _| {}),
    ("no-rff", |net, _| net.rff = None),
    // a raw x coordinate in place of the exact periodic embedding
    ("no-periodic", |net, _| net.coords[0] = CoordSpec::Raw),
    ("no-causal", |_, task| task.causal = false),
    ("no-conservation", |_, task| task.conservation = false),
];

/// One row of a grid table: a problem, a network and a task
/// configuration, trained for `epochs` under every seed.
struct Row {
    table: &'static str,
    label: String,
    problem: ProblemFactory,
    net: FieldNetConfig,
    task: ZooTaskConfig,
    epochs: usize,
}

impl Row {
    /// A row on the standard wave architecture, `width × depth`, with
    /// `n_collocation` points and `epochs` of training.
    fn new(
        table: &'static str,
        label: String,
        problem: ProblemFactory,
        (width, depth): (usize, usize),
        (n_collocation, epochs): (usize, usize),
    ) -> Row {
        let net = wave_net(problem().as_ref(), width, depth);
        let task = wave_config(n_collocation);
        Row {
            table,
            label,
            problem,
            net,
            task,
            epochs,
        }
    }

    /// The run label, `<table>/<row>`.
    fn task_label(&self) -> String {
        format!("{}/{}", self.table, self.label)
    }

    /// The training setup of one seed: the harness schedule, a run record
    /// and, with `--ckpt`, a snapshot directory of its own — seeds train
    /// in parallel, and two runs in one store would make "latest"
    /// meaningless.
    fn train_config(&self, opts: &RunOpts, seed: u64) -> TrainConfig {
        let label = self.task_label();
        let mut cfg = standard_train(self.epochs);
        cfg.checkpoint = opts.ckpt.as_ref().map(|root| {
            CheckpointConfig::new(root.join(&label).join(format!("seed-{seed}")))
                .every((self.epochs / 4).max(1))
                .run_id(format!("{}-s{seed}", label.replace('/', "-")))
        });
        let doc = net_doc((self.problem)().key(), &self.net, &self.task);
        cfg.run = Some(opts.run_cfg(&label, seed, doc));
        cfg
    }
}

/// Every row of the four tables at the budgets `opts` selects.
fn spec(opts: &RunOpts) -> Vec<Row> {
    let wave = (opts.pick(24, 64), opts.pick(3, 4));
    let mut rows = Vec::new();
    let t1 = (opts.pick(512, 4096), opts.pick_epochs(1000, 6000));
    for (name, problem) in T1_PROBLEMS {
        rows.push(Row::new("t1", name.into(), problem, wave, t1));
    }
    let t3 = (opts.pick(384, 4096), opts.pick_epochs(400, 4000));
    for &w in opts.pick(&[16, 24, 32][..], &[32, 64, 128]) {
        for &d in opts.pick(&[2, 3][..], &[2, 4, 6]) {
            let label = format!("w{w}-d{d}");
            rows.push(Row::new("t3", label, free_packet, (w, d), t3));
        }
    }
    let t4 = (opts.pick(384, 4096), opts.pick_epochs(600, 5000));
    let t4_problems: [(&str, ProblemFactory); 2] =
        [("free-packet", free_packet), ("nls-raissi", nls_raissi)];
    for (name, problem) in t4_problems {
        for (variant, apply) in T4_VARIANTS {
            let mut row = Row::new("t4", format!("{name}/{variant}"), problem, wave, t4);
            apply(&mut row.net, &mut row.task);
            rows.push(row);
        }
    }
    let f3_net = (opts.pick(24, 64), 3);
    let f3_epochs = opts.pick_epochs(300, 3000);
    let counts: &[usize] = if opts.full {
        &[512, 1024, 2048, 4096, 8192, 16384]
    } else {
        &[128, 256, 512, 1024]
    };
    for &n in counts {
        let label = format!("n{n}");
        rows.push(Row::new("f3", label, free_packet, f3_net, (n, f3_epochs)));
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tables: Vec<&str> = match flag_value(&args, "--table") {
        None => TABLES.to_vec(),
        Some(t) => match TABLES.iter().find(|&&id| id == t) {
            Some(&id) => vec![id],
            None => {
                eprintln!("--table: unknown table '{t}'; one of {}", TABLES.join(", "));
                std::process::exit(2);
            }
        },
    };
    let opts = RunOpts::from_args();
    eprintln!(
        "tables {} | mode: {} | seeds: {} | store: {}",
        tables.join(", "),
        if opts.full { "full" } else { "quick" },
        opts.n_seeds,
        opts.runs.display()
    );
    for row in spec(&opts).iter().filter(|r| tables.contains(&r.table)) {
        eprintln!("{}: {} epochs", row.task_label(), row.epochs);
        run_seeds_with(
            &opts.seeds(),
            |seed| row.train_config(&opts, seed),
            |seed| seeded_task((row.problem)(), &row.net, &row.task, seed),
        );
    }
    let session = qpinn_core::runs::session_run_ids();
    match qpinn_obs::runs::table_report(&opts.runs, Some(&session)) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("cannot read the run store {}: {e}", opts.runs.display());
            std::process::exit(1);
        }
    }
    finish_telemetry("tables");
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_core::report::Json;

    fn opts(full: bool) -> RunOpts {
        RunOpts {
            full,
            n_seeds: 1,
            ckpt: None,
            telemetry: None,
            epochs: None,
            serve: None,
            access_log: None,
            runs: qpinn_core::runs::default_dir(),
        }
    }

    /// (label, problem key, width, depth, collocation points, epochs, rff,
    /// periodic x, causal, conservation) of a row.
    type Settings = (String, String, usize, usize, usize, usize, [bool; 4]);

    fn settings(rows: &[Row]) -> Vec<Settings> {
        rows.iter()
            .map(|r| {
                let doc = net_doc((r.problem)().key(), &r.net, &r.task);
                let flag = |k| doc.get(k) == Some(&Json::Bool(true));
                (
                    r.task_label(),
                    (r.problem)().key().to_string(),
                    r.net.hidden[0],
                    r.net.hidden.len(),
                    r.task.n_collocation,
                    r.epochs,
                    [
                        flag("rff"),
                        flag("periodic"),
                        flag("causal"),
                        flag("conservation"),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn quick_spec_is_the_rows_the_four_binaries_ran() {
        let rows = spec(&opts(false));
        let per_table = |id| rows.iter().filter(|r| r.table == id).count();
        assert_eq!(TABLES.map(per_table), [5, 6, 10, 4]);
        let all = [true; 4];
        let mut want = Vec::new();
        for (label, key) in [
            ("free-packet", "tdse-free"),
            ("harmonic-packet", "tdse-harmonic"),
            ("barrier-scattering", "tdse-barrier"),
            ("nls-soliton(a=1)", "nls-soliton"),
            ("nls-raissi", "nls-raissi"),
        ] {
            want.push((format!("t1/{label}"), key.into(), 24, 3, 512, 1000, all));
        }
        for w in [16, 24, 32] {
            for d in [2, 3] {
                want.push((
                    format!("t3/w{w}-d{d}"),
                    "tdse-free".into(),
                    w,
                    d,
                    384,
                    400,
                    all,
                ));
            }
        }
        for (name, key) in [("free-packet", "tdse-free"), ("nls-raissi", "nls-raissi")] {
            for (i, variant) in [
                "standard",
                "no-rff",
                "no-periodic",
                "no-causal",
                "no-conservation",
            ]
            .into_iter()
            .enumerate()
            {
                let mut flags = all;
                if i > 0 {
                    flags[i - 1] = false;
                }
                want.push((
                    format!("t4/{name}/{variant}"),
                    key.into(),
                    24,
                    3,
                    384,
                    600,
                    flags,
                ));
            }
        }
        for n in [128, 256, 512, 1024] {
            want.push((format!("f3/n{n}"), "tdse-free".into(), 24, 3, n, 300, all));
        }
        assert_eq!(settings(&rows), want);
    }

    #[test]
    fn full_spec_keeps_each_tables_paper_budget() {
        let rows = spec(&opts(true));
        let per_table = |id| rows.iter().filter(|r| r.table == id).count();
        assert_eq!(TABLES.map(per_table), [5, 9, 10, 6]);
        for (label, _, w, d, n, epochs, _) in settings(&rows) {
            let want = match &label[..2] {
                "t1" => (64, 4, 4096, 6000),
                "t3" => (w, d, 4096, 4000),
                "t4" => (64, 4, 4096, 5000),
                _ => (64, 3, n, 3000),
            };
            assert_eq!((w, d, n, epochs), want, "{label}");
        }
        let t3: Vec<(usize, usize)> = settings(&rows[5..14]).iter().map(|s| (s.2, s.3)).collect();
        assert_eq!(
            t3,
            [
                (32, 2),
                (32, 4),
                (32, 6),
                (64, 2),
                (64, 4),
                (64, 6),
                (128, 2),
                (128, 4),
                (128, 6)
            ]
        );
        let f3: Vec<usize> = settings(&rows[24..]).iter().map(|s| s.4).collect();
        assert_eq!(f3, [512, 1024, 2048, 4096, 8192, 16384]);
    }

    #[test]
    fn epochs_override_reaches_every_row() {
        let mut o = opts(true);
        o.epochs = Some(20);
        assert!(spec(&o).iter().all(|r| r.epochs == 20));
    }

    #[test]
    fn each_seed_gets_a_run_record_and_its_own_snapshot_dir() {
        let mut o = opts(false);
        o.ckpt = Some("ckpt".into());
        let rows = spec(&o);
        let row = rows
            .iter()
            .find(|r| r.label == "free-packet/no-rff")
            .unwrap();
        let cfg = row.train_config(&o, 101);
        let run = cfg.run.expect("every run records");
        assert_eq!(
            (run.task.as_str(), run.seed),
            ("t4/free-packet/no-rff", 101)
        );
        assert_eq!(run.dir, o.runs);
        let ckpt = cfg.checkpoint.expect("--ckpt snapshots every row");
        assert_eq!(
            ckpt.dir,
            std::path::Path::new("ckpt/t4/free-packet/no-rff/seed-101")
        );
        assert_eq!(ckpt.run_id, "t4-free-packet-no-rff-s101");
    }
}
