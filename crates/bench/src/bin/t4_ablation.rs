//! **T4 — feature & loss ablation.** The convergence enhancements toggled
//! one at a time on the free-packet TDSE and the NLS benchmark: random
//! Fourier features, exact periodic embedding, causal time weighting, and
//! the norm-conservation loss.

use qpinn_bench::{
    banner, nls_raissi, save, seeded_task, standard_train, wave_config, wave_net, ProblemFactory,
    RunOpts,
};
use qpinn_core::experiment::{aggregate, run_seeds};
use qpinn_core::model::{CoordSpec, FieldNetConfig};
use qpinn_core::report::{Json, TextTable};
use qpinn_core::ZooTaskConfig;
use qpinn_problems::lookup;

#[derive(Clone, Copy, Debug)]
enum Variant {
    Standard,
    NoRff,
    NoPeriodic,
    NoCausal,
    NoConservation,
}

impl Variant {
    fn name(&self) -> &'static str {
        match self {
            Variant::Standard => "standard (all on)",
            Variant::NoRff => "− random Fourier features",
            Variant::NoPeriodic => "− periodic embedding",
            Variant::NoCausal => "− causal weighting",
            Variant::NoConservation => "− conservation loss",
        }
    }

    fn apply(&self, net: &mut FieldNetConfig, cfg: &mut ZooTaskConfig) {
        match self {
            Variant::Standard => {}
            Variant::NoRff => net.rff = None,
            Variant::NoPeriodic => {
                // replace the periodic x-embedding with a raw coordinate
                net.coords[0] = CoordSpec::Raw;
            }
            Variant::NoCausal => cfg.causal = false,
            Variant::NoConservation => cfg.conservation = false,
        }
    }
}

const VARIANTS: [Variant; 5] = [
    Variant::Standard,
    Variant::NoRff,
    Variant::NoPeriodic,
    Variant::NoCausal,
    Variant::NoConservation,
];

fn main() {
    let opts = RunOpts::from_args();
    banner("T4", "feature & loss ablation", &opts);

    let epochs = opts.pick_epochs(600, 5000);
    let cfg_train = standard_train(epochs);
    let (w, d) = (opts.pick(24, 64), opts.pick(3, 4));

    let mut table = TextTable::new(&["problem", "variant", "rel-L2 (mean±std)"]);
    let mut records = Vec::new();

    let problems: [(&str, ProblemFactory); 2] = [
        ("free-packet", || {
            lookup("tdse-free").expect("registered problem")
        }),
        ("nls-raissi", nls_raissi),
    ];
    for (name, problem) in problems {
        for variant in VARIANTS {
            let mut net = wave_net(problem().as_ref(), w, d);
            let mut cfg = wave_config(opts.pick(384, 4096));
            variant.apply(&mut net, &mut cfg);
            let runs = run_seeds(&opts.seeds(), &cfg_train, |seed| {
                seeded_task(problem(), &net, &cfg, seed)
            });
            let agg = aggregate(&runs);
            table.row(&[
                name.to_string(),
                variant.name().into(),
                qpinn_core::report::mean_std(agg.mean_error, agg.std_error),
            ]);
            records.push(Json::obj(vec![
                ("problem", Json::Str(name.to_string())),
                ("variant", Json::Str(variant.name().into())),
                ("mean_error", Json::Num(agg.mean_error)),
                ("std_error", Json::Num(agg.std_error)),
            ]));
        }
    }

    println!("\n{}", table.render());
    save(
        "t4_ablation",
        &Json::obj(vec![
            ("id", Json::Str("T4".into())),
            ("full", Json::Bool(opts.full)),
            ("rows", Json::Arr(records)),
        ]),
    );
}
