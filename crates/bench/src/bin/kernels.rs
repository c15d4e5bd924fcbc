//! **Kernel microbenchmarks.** Plain-`Instant` timings for the hot tensor
//! kernels at the shapes the trainers actually hit ([`kernel_suite`]): the
//! three matmul variants (forward, `Wᵀ·δ` weight gradient, `δ·Wᵀ` input
//! gradient), a tanh → mul → axpy elementwise chain, the ordered
//! parallel `Tensor::sum`, the sin|cos jet of the RFF layer (`sin_cos`),
//! and the reference solver's 256-point forward +
//! inverse FFT (`fft256`) and full-resolution `nls-soliton` split-step
//! propagation (`split_step_nls`).
//!
//! Each kernel is one run with no epochs in the run store,
//! `kernels/<kernel>`, with metrics `ms` (trimmed-mean milliseconds),
//! `gflops` at the dispatched SIMD width and `gflops_w1` with the dispatch
//! forced to scalar (`QPINN_SIMD=scalar` equivalent), so `runs regress`
//! gates a kernel against its own earlier run. Stdout is exactly what
//! `qpinn-obs runs table` renders for those runs; the pool's
//! work-stealing balance goes to stderr.
//!
//! Run with `--full` for larger operands and more repetitions, and under
//! `RAYON_NUM_THREADS=<n>` to probe a specific pool width — kernels produce
//! bit-identical results at every width, so only the timings move.

use qpinn_bench::{banner, kernel_suite, print_session_tables, record_measurement, RunOpts};
use qpinn_core::report::{Json, TextTable};
use qpinn_core::runs::Metric;

fn main() {
    let opts = RunOpts::from_args();
    banner("KERNELS", "tensor kernel microbenchmarks", &opts);
    let simd_w = qpinn_tensor::simd::width();
    eprintln!(
        "pool width: {} thread(s), simd dispatch width: {simd_w}",
        rayon::current_num_threads()
    );

    // The suite at the dispatched SIMD width, then forced scalar. Outputs
    // are bit-identical either way; the dispatch layer only moves the
    // clock.
    let rows = kernel_suite(&opts);
    let scalar = (simd_w > 1).then(|| {
        qpinn_tensor::simd::set_width(1);
        let rows = kernel_suite(&opts);
        qpinn_tensor::simd::set_width(simd_w);
        rows
    });
    for (i, r) in rows.iter().enumerate() {
        let gflops_w1 = scalar.as_ref().map_or(r.gflops, |s| s[i].gflops);
        record_measurement(
            &opts,
            &format!("kernels/{}", r.name),
            Json::obj(vec![("full", Json::Bool(opts.full))]),
            f64::NAN,
            vec![
                ("ms", Metric::Scalar(r.secs * 1e3)),
                ("gflops", Metric::Scalar(r.gflops)),
                ("gflops_w1", Metric::Scalar(gflops_w1)),
            ],
        );
    }

    // Work-stealing balance over the whole run: a healthy pool shows tasks
    // spread evenly across workers with steals well below tasks.
    let stats = rayon::pool_stats();
    let mut pool_table = TextTable::new(&["worker", "tasks", "steals", "idle waits"]);
    for (i, w) in stats.workers.iter().enumerate() {
        pool_table.row(&[
            format!("{i}"),
            format!("{}", w.tasks),
            format!("{}", w.steals),
            format!("{}", w.idle_waits),
        ]);
    }
    pool_table.row(&[
        "launcher".into(),
        format!("{}", stats.launcher_tasks),
        format!("{}", stats.launcher_steals),
        "-".into(),
    ]);
    eprintln!(
        "pool activity ({} parallel set(s) launched):\n{}",
        stats.sets_launched,
        pool_table.render()
    );
    print_session_tables(&opts, "kernels");
}
