//! **F5 — systems scaling figure.** (a) Training-epoch wall time versus
//! pool thread count on the real work-stealing runtime (on a single-core
//! host the series is honest about showing no speedup) and the GFLOP/s of
//! every kernel of the `kernels` suite ([`kernel_suite`]) at each thread
//! count, (b) the suite's GFLOP/s at each forced SIMD dispatch width, and
//! (c) statevector simulation throughput versus qubit count.
//!
//! The figure is one run with no epochs in the run store, `f5/scaling`,
//! whose series are metric arrays: `threads` and per thread count
//! `s_per_epoch` and `<kernel>_gflops`; `gflops_w<w>` over the suite's
//! kernels (in suite order) for each SIMD width the CPU offers; `qubits`
//! and `circuits_per_s`. Speedup ratios are printed but not recorded:
//! they derive from `s_per_epoch`, which `qpinn-obs runs regress` gates
//! directly. Every quantity here is timing only — results are
//! bit-identical at all widths (see `tests/parallel_determinism.rs`), so
//! the scheduler can only move the clock, never the numbers.

use qpinn_bench::{
    banner, finish_telemetry, kernel_suite, record_measurement, seeded_task, wave_config, wave_net,
    KernelTiming, RunOpts,
};
use qpinn_core::report::{Json, TextTable};
use qpinn_core::runs::Metric;
use qpinn_core::trainer::PinnTask;
use qpinn_nn::GraphCtx;
use qpinn_problems::lookup;
use qpinn_qcircuit::{Ansatz, InputScaling, QuantumLayer};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(f)
}

fn epoch_time_with_threads(threads: usize, opts: &RunOpts) -> f64 {
    in_pool(threads, || {
        let problem = lookup("tdse-free").expect("registered problem");
        let net = wave_net(problem.as_ref(), opts.pick(32, 64), 3);
        let cfg = wave_config(opts.pick(2048, 8192));
        let (mut task, params) = seeded_task(problem, &net, &cfg, 5);
        // warm-up epoch + timed epochs (backward included)
        let reps = opts.pick(3, 10);
        let mut run_epoch = || {
            let mut g = qpinn_autodiff::Graph::new();
            let mut ctx = GraphCtx::new(&mut g, &params);
            let loss = task.build_loss(&mut ctx);
            let _ = ctx.g.backward(loss);
        };
        run_epoch();
        let start = Instant::now();
        for _ in 0..reps {
            run_epoch();
        }
        start.elapsed().as_secs_f64() / reps as f64
    })
}

fn statevector_throughput(threads: usize, nq: usize) -> f64 {
    in_pool(threads, || {
        let layer = QuantumLayer {
            n_qubits: nq,
            layers: 4,
            ansatz: Ansatz::BasicEntangling,
            scaling: InputScaling::Acos,
            reupload: false,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let theta = layer.init_params(&mut rng);
        let batch = 256;
        let inputs: Vec<f64> = (0..batch * nq).map(|i| ((i as f64) * 0.37).sin()).collect();
        // warm-up
        let _ = layer.forward_batch(&inputs, batch, &theta);
        let start = Instant::now();
        let reps = 4;
        for _ in 0..reps {
            let _ = layer.forward_batch(&inputs, batch, &theta);
        }
        (batch * reps) as f64 / start.elapsed().as_secs_f64()
    })
}

/// The suite's GFLOP/s as one cell per kernel.
fn gflops_cells(suite: &[KernelTiming]) -> Vec<String> {
    suite.iter().map(|k| format!("{:.2}", k.gflops)).collect()
}

fn main() {
    let opts = RunOpts::from_args();
    banner("F5", "parallel scaling & simulator throughput", &opts);
    let host = num_cpus();
    let simd_w = qpinn_tensor::simd::width();
    println!(
        "host parallelism: {host} logical CPUs, simd dispatch width: {simd_w} \
         (detected {})\n",
        qpinn_tensor::simd::detected_width()
    );
    let mut metrics: Vec<(String, Metric)> = Vec::new();

    // Thread series: 1, 2, 4, plus the host width when it differs.
    let mut threads = vec![1usize, 2, 4];
    if !threads.contains(&host) {
        threads.push(host);
    }
    threads.sort_unstable();

    // (a) epoch time and kernel GFLOP/s vs threads
    let base = epoch_time_with_threads(1, &opts);
    let mut s_series = Vec::new();
    let mut suites = Vec::new();
    for &t in &threads {
        s_series.push(if t == 1 {
            base
        } else {
            epoch_time_with_threads(t, &opts)
        });
        suites.push(in_pool(t, || kernel_suite(&opts)));
    }
    let names: Vec<&str> = suites[0].iter().map(|k| k.name).collect();
    let mut header = vec!["threads".to_string(), "s/epoch".into(), "speedup".into()];
    header.extend(names.iter().map(|n| format!("{n} GF/s")));
    let mut table = TextTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for ((t, s), suite) in threads.iter().zip(&s_series).zip(&suites) {
        let mut cells = vec![
            format!("{t}"),
            format!("{s:.3}"),
            format!("{:.2}×", base / s),
        ];
        cells.extend(gflops_cells(suite));
        table.row(&cells);
    }
    println!("{}", table.render());
    let thread_counts: Vec<f64> = threads.iter().map(|&t| t as f64).collect();
    metrics.push(("threads".into(), Metric::Series(thread_counts)));
    metrics.push(("s_per_epoch".into(), Metric::Series(s_series)));
    for (i, name) in names.iter().enumerate() {
        let series = suites.iter().map(|suite| suite[i].gflops).collect();
        metrics.push((format!("{name}_gflops"), Metric::Series(series)));
    }

    // (b) the suite vs forced SIMD dispatch width, at host threads: each
    // runtime path in turn (scalar / AVX2 / AVX-512 where the CPU has
    // them), so the record shows what the dispatch layer buys.
    header[0] = "simd width".into();
    header.drain(1..3);
    let mut wtable = TextTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for w in [1usize, 4, 8] {
        if qpinn_tensor::simd::set_width(w) != w {
            continue; // path not available on this CPU
        }
        let suite = in_pool(host, || kernel_suite(&opts));
        let tag = if w == simd_w {
            format!("{w} (dispatched)")
        } else {
            format!("{w}")
        };
        wtable.row(&[vec![tag], gflops_cells(&suite)].concat());
        let series = suite.iter().map(|k| k.gflops).collect();
        metrics.push((format!("gflops_w{w}"), Metric::Series(series)));
    }
    qpinn_tensor::simd::set_width(simd_w);
    println!("{}", wtable.render());

    // (c) statevector throughput vs qubits (at host width)
    let mut qtable = TextTable::new(&["qubits", "circuits/s (batch fwd)"]);
    let mut q_series = Vec::new();
    let mut r_series = Vec::new();
    for nq in [2usize, 4, 6, 8, 10] {
        let rate = statevector_throughput(host, nq);
        qtable.row(&[format!("{nq}"), format!("{rate:.0}")]);
        q_series.push(nq as f64);
        r_series.push(rate);
    }
    println!("{}", qtable.render());
    metrics.push(("qubits".into(), Metric::Series(q_series)));
    metrics.push(("circuits_per_s".into(), Metric::Series(r_series)));

    record_measurement(
        &opts,
        "f5/scaling",
        Json::obj(vec![("full", Json::Bool(opts.full))]),
        f64::NAN,
        metrics,
    );
    finish_telemetry("f5_scaling");
}

fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
