//! Thread-count invariance: every reduction, kernel, training epoch, and
//! checkpoint/resume cycle must be **bit-identical** no matter how many
//! pool threads execute it. This is what lets PR 1's bit-exact resume
//! guarantee and seeded experiment reproducibility survive the real
//! multithreaded runtime: chunk boundaries are fixed, partials combine in
//! chunk-index order, and the scheduler only ever decides *who* runs a
//! chunk, never *what* it computes.
//!
//! The suite pins widths in-process via `ThreadPoolBuilder::install`
//! (covering 1/2/4/8); CI additionally runs the whole test suite under
//! `RAYON_NUM_THREADS=1` and `=4` to cover the env-driven global default.

use qpinn::core::hybrid::{HybridEigenTask, HybridNet};
use qpinn::core::trainer::{CheckpointConfig, Trainer};
use qpinn::core::{FieldNetConfig, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::optim::LrSchedule;
use qpinn::problems::{lookup, EigenProblem, TdseProblem};
use qpinn::qcircuit::{Ansatz, InputScaling, QuantumLayer};
use qpinn::tensor::Tensor;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rayon::ThreadPoolBuilder;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn with_threads<R>(t: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(t)
        .build()
        .expect("pool")
        .install(f)
}

/// FNV-1a over the exact f64 bit patterns of every parameter tensor.
fn param_hash(params: &ParamSet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in params.tensors() {
        for &x in t.data() {
            for b in x.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn awkward_tensor(n: usize, seed: u64) -> Tensor {
    // Mixed magnitudes so floating-point association order matters.
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        [n],
        (0..n)
            .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-6..7)))
            .collect::<Vec<_>>(),
    )
}

#[test]
fn reductions_bit_identical_across_thread_counts() {
    // Comfortably above PAR_THRESHOLD so the parallel path actually runs.
    let t = awkward_tensor(100_003, 42);
    let want_sum = with_threads(1, || t.sum()).to_bits();
    let want_sq = with_threads(1, || t.sum_sq()).to_bits();
    for w in WIDTHS {
        assert_eq!(
            with_threads(w, || t.sum()).to_bits(),
            want_sum,
            "Tensor::sum diverged at {w} threads"
        );
        assert_eq!(
            with_threads(w, || t.sum_sq()).to_bits(),
            want_sq,
            "Tensor::sum_sq diverged at {w} threads"
        );
    }
}

#[test]
fn matmul_kernels_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut rand_t = |m: usize, n: usize| {
        Tensor::from_vec(
            [m, n],
            (0..m * n)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect::<Vec<_>>(),
        )
    };
    // 64·96·80 ≈ 491k FLOPs — all three kernels take their parallel path.
    let a = rand_t(64, 96);
    let b = rand_t(96, 80);
    let at = rand_t(96, 64);
    let bt = rand_t(80, 96);
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let want_nn = with_threads(1, || bits(&a.matmul(&b)));
    let want_tn = with_threads(1, || bits(&at.matmul_tn(&b)));
    let want_nt = with_threads(1, || bits(&a.matmul_nt(&bt)));
    for w in WIDTHS {
        assert_eq!(
            with_threads(w, || bits(&a.matmul(&b))),
            want_nn,
            "matmul diverged at {w} threads"
        );
        assert_eq!(
            with_threads(w, || bits(&at.matmul_tn(&b))),
            want_tn,
            "matmul_tn diverged at {w} threads"
        );
        assert_eq!(
            with_threads(w, || bits(&a.matmul_nt(&bt))),
            want_nt,
            "matmul_nt diverged at {w} threads"
        );
    }
}

fn hybrid_fixture() -> (HybridEigenTask, ParamSet) {
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(3);
    let q = QuantumLayer {
        n_qubits: 3,
        layers: 2,
        ansatz: Ansatz::BasicEntangling,
        scaling: InputScaling::Acos,
        reupload: false,
    };
    let net = HybridNet::new(&mut params, &mut rng, 12, q, "det");
    let task = HybridEigenTask::new(EigenProblem::harmonic(1.0), net, 24, 101);
    (task, params)
}

fn short_cfg(epochs: usize, checkpoint: Option<CheckpointConfig>) -> TrainConfig {
    TrainConfig {
        epochs,
        schedule: LrSchedule::Constant { lr: 5e-3 },
        log_every: 1,
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: None,
        checkpoint,
        divergence: None,
        progress: None,
        run: None,
    }
}

#[test]
fn training_epoch_loss_bit_identical_across_thread_counts() {
    // The hybrid stack drives every parallel surface at once: quantum
    // batched forward + Jacobian rows (`into_par_iter`), dense matmuls,
    // and MSE reductions.
    let reference = with_threads(1, || {
        let (mut task, mut params) = hybrid_fixture();
        let log = Trainer::new(short_cfg(2, None)).train(&mut task, &mut params);
        (
            log.loss.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            param_hash(&params),
        )
    });
    for w in WIDTHS {
        let got = with_threads(w, || {
            let (mut task, mut params) = hybrid_fixture();
            let log = Trainer::new(short_cfg(2, None)).train(&mut task, &mut params);
            (
                log.loss.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                param_hash(&params),
            )
        });
        assert_eq!(
            got.0, reference.0,
            "epoch loss trajectory diverged at {w} threads"
        );
        assert_eq!(
            got.1, reference.1,
            "post-training parameters diverged at {w} threads"
        );
    }
}

fn tdse_fixture() -> (ZooTask, ParamSet) {
    let problem = TdseProblem::free_packet();
    let net = FieldNetConfig::standard_wave(problem.length(), problem.t_end, 12, 2);
    let cfg = ZooTaskConfig {
        n_collocation: 96,
        n_condition: 24,
        causal: true,
        conservation: true,
        ..ZooTaskConfig::quick()
    };
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(99);
    let task = ZooTask::new(
        lookup("tdse-free").unwrap(),
        &net,
        &cfg,
        &mut params,
        &mut rng,
    );
    (task, params)
}

#[test]
fn resumed_run_param_hash_invariant_across_thread_counts() {
    let (half, full) = (5usize, 10usize);
    // Reference: uninterrupted single-thread run.
    let want = with_threads(1, || {
        let (mut task, mut params) = tdse_fixture();
        let _ = Trainer::new(short_cfg(full, None)).train(&mut task, &mut params);
        param_hash(&params)
    });
    for w in [2usize, 4] {
        let dir = std::env::temp_dir().join(format!(
            "qpinn-par-det-{}-{w}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let hash = with_threads(w, || {
            // Interrupted: train to the snapshot …
            let (mut task_a, mut params_a) = tdse_fixture();
            let ckpt = CheckpointConfig::new(&dir).every(half).run_id("par-det");
            let _ =
                Trainer::new(short_cfg(half, Some(ckpt))).train(&mut task_a, &mut params_a);
            // … then resume from disk with nothing carried over.
            let (mut task_b, _) = tdse_fixture();
            let mut params_b = ParamSet::new();
            let _ = Trainer::new(short_cfg(full, None))
                .resume(&dir, &mut task_b, &mut params_b)
                .expect("resume succeeds");
            param_hash(&params_b)
        });
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            hash, want,
            "resumed-run final parameters diverged at {w} threads"
        );
    }
}

#[test]
fn nested_install_and_join_inside_pool_work_does_not_deadlock() {
    use rayon::prelude::*;
    let sums = with_threads(4, || {
        (0..6usize)
            .into_par_iter()
            .map(|i| {
                // Nested install with a different width from inside a pool
                // worker, plus a join, plus a parallel tensor reduction.
                with_threads(2, || {
                    let t = awkward_tensor(40_000, i as u64);
                    let (s1, s2) = rayon::join(|| t.sum(), || t.sum_sq());
                    (s1.to_bits(), s2.to_bits())
                })
            })
            .collect::<Vec<_>>()
    });
    let want: Vec<(u64, u64)> = (0..6usize)
        .map(|i| {
            let t = awkward_tensor(40_000, i as u64);
            (t.sum().to_bits(), t.sum_sq().to_bits())
        })
        .collect();
    assert_eq!(sums, want, "nested parallel reductions must stay bit-exact");
}
