//! Multi-seed experiment running: train the same configuration under
//! several seeds (in parallel). The grid tables record each run through
//! [`TrainConfig::run`] and render their statistics from the run store
//! (`qpinn-obs runs table`).

use crate::trainer::{PinnTask, TrainConfig, TrainLog, Trainer};
use qpinn_nn::ParamSet;
use rayon::prelude::*;

/// Mean and (population) standard deviation of a sample.
pub fn mean_std_of(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// Run `builder(seed)` for every seed, train each task under
/// `cfg_for(seed)`, and return the logs in seed-list order. Runs execute
/// in parallel over seeds.
///
/// The configuration is per seed because it embeds per-run resources: a
/// checkpoint directory must be distinct per seed or parallel runs would
/// interleave snapshots in one store, and a run record carries its seed.
/// `builder` must construct a fresh `(task, params)` pair from a seed.
pub fn run_seeds_with<T, F, C>(seeds: &[u64], cfg_for: C, builder: F) -> Vec<TrainLog>
where
    T: PinnTask + Send,
    F: Fn(u64) -> (T, ParamSet) + Sync,
    C: Fn(u64) -> TrainConfig + Sync,
{
    seeds
        .par_iter()
        .map(|&seed| {
            let (mut task, mut params) = builder(seed);
            Trainer::new(cfg_for(seed)).train(&mut task, &mut params)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_autodiff::Var;
    use qpinn_nn::GraphCtx;
    use qpinn_optim::LrSchedule;
    use qpinn_tensor::Tensor;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    struct Toy {
        target: f64,
        id: qpinn_nn::ParamId,
    }
    impl PinnTask for Toy {
        fn build_loss(&mut self, ctx: &mut GraphCtx<'_>) -> Var {
            let w = ctx.param(self.id);
            let d = ctx.g.add_scalar(w, -self.target);
            ctx.g.mse(d)
        }
        fn eval_error(&self, params: &ParamSet) -> f64 {
            (params.tensors()[0].item() - self.target).abs()
        }
    }

    #[test]
    fn seeds_run_in_parallel_in_seed_order() {
        let cfg = TrainConfig {
            epochs: 400,
            schedule: LrSchedule::Constant { lr: 0.05 },
            log_every: 100,
            eval_every: 0,
            clip: None,
            lbfgs_polish: None,
            checkpoint: None,
            divergence: None,
            progress: None,
            run: None,
        };
        let build = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut params = ParamSet::new();
            let id = params.add(
                "w",
                Tensor::from_vec([1, 1], vec![rng.gen_range(-1.0..1.0)]),
            );
            (Toy { target: 2.0, id }, params)
        };
        let logs = run_seeds_with(&[1, 2, 3, 4], |_| cfg.clone(), build);
        assert_eq!(logs.len(), 4);
        for log in &logs {
            assert!(log.final_error < 1e-2, "{log:?}");
        }
        // different seeds → different trajectories (different inits), and
        // each log sits at its seed's position
        assert!(logs[0].loss[0] != logs[1].loss[0]);
        let (mut task, mut params) = build(3);
        let alone = Trainer::new(cfg).train(&mut task, &mut params);
        assert_eq!(alone.loss, logs[2].loss);
    }

    #[test]
    fn per_seed_configs_checkpoint_into_distinct_stores() {
        use crate::trainer::CheckpointConfig;
        let base = std::env::temp_dir().join(format!("qpinn-exp-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let seeds = [7u64, 8];
        let base_for_cfg = base.clone();
        let logs = run_seeds_with(
            &seeds,
            |seed| TrainConfig {
                epochs: 40,
                schedule: LrSchedule::Constant { lr: 0.05 },
                log_every: 10,
                eval_every: 0,
                clip: None,
                lbfgs_polish: None,
                checkpoint: Some(
                    CheckpointConfig::new(base_for_cfg.join(format!("seed-{seed}"))).every(20),
                ),
                divergence: None,
                progress: None,
                run: None,
            },
            |seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut params = ParamSet::new();
                let id = params.add(
                    "w",
                    Tensor::from_vec([1, 1], vec![rng.gen_range(-1.0..1.0)]),
                );
                (Toy { target: 2.0, id }, params)
            },
        );
        assert_eq!(logs.len(), 2);
        for seed in seeds {
            let store = qpinn_persist::SnapshotStore::open(base.join(format!("seed-{seed}")))
                .expect("store opens");
            assert!(store.has_snapshots(), "seed {seed} wrote no snapshots");
            let (snap, _) = store.load_latest().expect("intact snapshot");
            assert_eq!(snap.meta.next_epoch, 40);
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std_of(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-15);
        assert!((s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let (m2, _) = mean_std_of(&[]);
        assert!(m2.is_nan());
    }
}
