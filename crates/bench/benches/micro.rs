//! Criterion micro-benchmarks backing the wall-time columns of the
//! experiment tables: tensor matmul, tape forward+backward, FFT,
//! split-step propagation, statevector gates, and one full PINN training
//! epoch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qpinn_autodiff::Graph;
use qpinn_bench::{seeded_task, wave_config, wave_net};
use qpinn_core::trainer::PinnTask;
use qpinn_dual::Complex64;
use qpinn_fft::FftPlan;
use qpinn_nn::GraphCtx;
use qpinn_problems::lookup;
use qpinn_qcircuit::{Ansatz, InputScaling, QuantumLayer};
use qpinn_solvers::{split_step_evolve, Grid1d, Nonlinearity};
use qpinn_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = StdRng::seed_from_u64(0);
    for &n in &[64usize, 128, 256] {
        let a = Tensor::randn([n, n], 1.0, &mut rng);
        let b = Tensor::randn([n, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| a.matmul(&b))
        });
    }
    group.finish();
}

fn bench_tape_forward_backward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let x = Tensor::randn([512, 64], 1.0, &mut rng);
    let w1 = Tensor::randn([64, 64], 0.1, &mut rng);
    let w2 = Tensor::randn([64, 1], 0.1, &mut rng);
    c.bench_function("tape_mlp_fwd_bwd_512x64", |bch| {
        bch.iter(|| {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let w1v = g.input(w1.clone());
            let w2v = g.input(w2.clone());
            let h = g.matmul(xv, w1v);
            let h = g.tanh(h);
            let y = g.matmul(h, w2v);
            let loss = g.mse(y);
            g.backward(loss)
        })
    });
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[256usize, 1024, 4096] {
        let plan = FftPlan::new(n);
        let sig: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.1).sin(), (i as f64 * 0.05).cos()))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| {
                let mut buf = sig.clone();
                plan.forward(&mut buf);
                buf
            })
        });
    }
    group.finish();
}

fn bench_split_step(c: &mut Criterion) {
    let grid = Grid1d::periodic(-10.0, 10.0, 256);
    let psi0: Vec<Complex64> = grid
        .points()
        .iter()
        .map(|&x| Complex64::new((-x * x).exp(), 0.0))
        .collect();
    c.bench_function("split_step_256x100", |bch| {
        bch.iter(|| {
            split_step_evolve(
                &grid,
                &|_| 0.0,
                Nonlinearity::Cubic { g: 1.0 },
                &psi0,
                0.5,
                100,
                100,
            )
        })
    });
}

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_forward");
    for &nq in &[4usize, 8, 12] {
        let layer = QuantumLayer {
            n_qubits: nq,
            layers: 4,
            ansatz: Ansatz::BasicEntangling,
            scaling: InputScaling::Acos,
            reupload: false,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let theta = layer.init_params(&mut rng);
        let a: Vec<f64> = (0..nq).map(|i| (i as f64 * 0.3).sin()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(nq), &nq, |bch, _| {
            bch.iter(|| layer.forward_sample(&a, &theta))
        });
    }
    group.finish();
}

fn bench_training_epoch(c: &mut Criterion) {
    let problem = lookup("tdse-free").expect("registered problem");
    let net = wave_net(problem.as_ref(), 24, 3);
    let (mut task, params) = seeded_task(problem, &net, &wave_config(512), 3);
    c.bench_function("tdse_epoch_512pts_24x3", |bch| {
        bch.iter(|| {
            let mut g = Graph::new();
            let mut ctx = GraphCtx::new(&mut g, &params);
            let loss = task.build_loss(&mut ctx);
            ctx.g.backward(loss)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_matmul, bench_tape_forward_backward, bench_fft, bench_split_step, bench_statevector, bench_training_epoch
}
criterion_main!(benches);
