//! **F5 — systems scaling figure.** (a) Training-epoch wall time versus
//! pool thread count on the real work-stealing runtime (on a single-core
//! host the series is honest about showing no speedup), (b) kernel
//! GFLOP/s (matmul / fused elementwise / reduction) at each thread count
//! and at each forced SIMD dispatch width — recorded under
//! width-suffixed keys such as `matmul_gflops_w4` — and (c) statevector
//! simulation throughput versus qubit count.
//!
//! Besides the standard `target/experiments/f5_scaling.json` record, this
//! binary writes the machine-readable `BENCH_parallel.json` at the repo
//! root: thread series, seconds per epoch, per-kernel GFLOP/s series
//! (per thread count and per forced SIMD width), and the statevector
//! batch-forward throughput series. Speedup ratios are printed but not
//! recorded — they are derived from `s_per_epoch`, which the perf gate
//! already checks directly. Every
//! quantity here is timing only — results are bit-identical at all widths
//! (see `tests/parallel_determinism.rs`), so the scheduler can only move
//! the clock, never the numbers.

use qpinn_bench::{banner, save, seeded_task, wave_config, wave_net, RunOpts};
use qpinn_core::report::{Json, TextTable};
use qpinn_core::trainer::PinnTask;
use qpinn_nn::GraphCtx;
use qpinn_problems::lookup;
use qpinn_qcircuit::{Ansatz, InputScaling, QuantumLayer};
use qpinn_tensor::Tensor;
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

/// (matmul, elementwise, reduce) GFLOP/s at a given pool width.
fn kernel_gflops(threads: usize, opts: &RunOpts) -> (f64, f64, f64) {
    in_pool(threads, || {
        let reps = opts.pick(5, 20);
        let time = |f: &mut dyn FnMut()| {
            f(); // warm-up
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        };
        let (m, k, n) = (opts.pick(2048, 8192), 32, 32);
        let fill = |r: usize, c: usize, s: f64| {
            Tensor::from_vec(
                [r, c],
                (0..r * c).map(|i| ((i as f64) * 0.618 + s).sin()).collect::<Vec<_>>(),
            )
        };
        let a = fill(m, k, 0.0);
        let b = fill(k, n, 1.0);
        let mm = (2 * m * k * n) as f64 / time(&mut || {
            let _ = a.matmul(&b);
        }) / 1e9;
        let len = opts.pick(1 << 16, 1 << 20);
        let x = fill(len, 1, 0.5);
        let y = fill(len, 1, 1.5);
        let ew = (2 * len) as f64 / time(&mut || {
            let _ = x.tanh().mul(&y);
        }) / 1e9;
        let rd = len as f64 / time(&mut || {
            let _ = x.sum();
        }) / 1e9;
        (mm, ew, rd)
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

    // Thread series: 1, 2, 4, plus the host width when it differs.
    let mut threads = vec![1usize, 2, 4];
    if !threads.contains(&host) {
        threads.push(host);
    }
    threads.sort_unstable();

    // (a) epoch time vs threads
    let mut table = TextTable::new(&[
        "threads", "s/epoch", "speedup", "matmul GF/s", "elemwise GF/s", "reduce GF/s",
    ]);
    let mut t_series = Vec::new();
    let mut s_series = Vec::new();
    let (mut mm_series, mut ew_series, mut rd_series) = (Vec::new(), Vec::new(), Vec::new());
    let base = epoch_time_with_threads(1, &opts);
    for &t in &threads {
        let s = if t == 1 {
            base
        } else {
            epoch_time_with_threads(t, &opts)
        };
        let (mm, ew, rd) = kernel_gflops(t, &opts);
        table.row(&[
            format!("{t}"),
            format!("{s:.3}"),
            format!("{:.2}×", base / s),
            format!("{mm:.2}"),
            format!("{ew:.2}"),
            format!("{rd:.2}"),
        ]);
        t_series.push(t as f64);
        s_series.push(s);
        mm_series.push(mm);
        ew_series.push(ew);
        rd_series.push(rd);
    }
    println!("{}", table.render());

    // (b) per-kernel GFLOP/s vs forced SIMD dispatch width. The series
    // above ran at the auto-detected width; here each runtime path is
    // forced in turn (scalar / AVX2 / AVX-512 where the CPU has them) so
    // the record shows what the dispatch layer buys. Keys carry the width
    // (`matmul_gflops_w4`), and the dispatched width is recorded under
    // `simd_width`. Results are bit-identical at every width — only the
    // clock moves.
    let mut wtable = TextTable::new(&[
        "simd width", "matmul GF/s", "elemwise GF/s", "reduce GF/s",
    ]);
    let mut width_keys: Vec<(String, Json)> = Vec::new();
    for w in [1usize, 4, 8] {
        if qpinn_tensor::simd::set_width(w) != w {
            continue; // path not available on this CPU
        }
        let (mm, ew, rd) = kernel_gflops(host, &opts);
        let tag = if w == simd_w {
            format!("{w} (dispatched)")
        } else {
            format!("{w}")
        };
        wtable.row(&[tag, format!("{mm:.2}"), format!("{ew:.2}"), format!("{rd:.2}")]);
        width_keys.push((format!("matmul_gflops_w{w}"), Json::Num(mm)));
        width_keys.push((format!("elementwise_gflops_w{w}"), Json::Num(ew)));
        width_keys.push((format!("reduce_gflops_w{w}"), Json::Num(rd)));
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

    let mut record = Json::obj(vec![
        ("id", Json::Str("F5".into())),
        ("host_cpus", Json::Num(host as f64)),
        ("simd_width", Json::Num(simd_w as f64)),
        ("threads", Json::nums(&t_series)),
        ("s_per_epoch", Json::nums(&s_series)),
        // `speedup` stays display-only: it is s_per_epoch[0]/s_per_epoch[i],
        // and both legs are already gated by the perf check. Recording the
        // ratio would double-count them and flag any change that speeds up
        // single-thread more than oversubscribed runs as a "regression".
        ("matmul_gflops", Json::nums(&mm_series)),
        ("elementwise_gflops", Json::nums(&ew_series)),
        ("reduce_gflops", Json::nums(&rd_series)),
        ("qubits", Json::nums(&q_series)),
        ("circuits_per_s", Json::nums(&r_series)),
    ]);
    if let Json::Obj(pairs) = &mut record {
        pairs.extend(width_keys);
        // Attribution for the committed record: which revision and
        // machine shape produced these numbers. `qpinn-obs check` skips
        // the provenance keys (no perf-direction suffix).
        pairs.push(("provenance".to_string(), qpinn_bench::provenance()));
    }
    save("f5_scaling", &record);

    // Machine-readable scaling record at the repo root, consumed by CI and
    // tracked alongside the code it measures.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json");
    match std::fs::write(&out, record.to_string() + "\n") {
        Ok(()) => println!("[written {}]", out.display()),
        Err(e) => eprintln!("[could not write BENCH_parallel.json: {e}]"),
    }
}

fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
