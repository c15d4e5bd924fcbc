//! Failure-injection tests: the library must fail loudly and precisely on
//! misuse, and stay numerically sane on adversarial-but-legal inputs.

use qpinn::dual::Complex64;
use qpinn::nn::{GraphCtx, ParamSet};
use qpinn::optim::{Lbfgs, LbfgsOutcome};
use qpinn::sampling::Domain;
use qpinn::solvers::{split_step_evolve, Grid1d, Nonlinearity};
use qpinn::tensor::Tensor;

#[test]
#[should_panic(expected = "matmul")]
fn matmul_dimension_mismatch_names_the_op() {
    let a = Tensor::zeros([2, 3]);
    let b = Tensor::zeros([4, 2]);
    let _ = a.matmul(&b);
}

#[test]
#[should_panic]
fn backward_from_vector_output_is_rejected() {
    let mut g = qpinn::autodiff::Graph::new();
    let x = g.input(Tensor::from_slice(&[1.0, 2.0]));
    let y = g.tanh(x);
    let _ = g.backward(y);
}

#[test]
#[should_panic(expected = "periodicity")]
fn split_step_rejects_dirichlet_grids() {
    let grid = Grid1d::dirichlet(-1.0, 1.0, 65);
    let psi0 = vec![Complex64::zero(); 65];
    let _ = split_step_evolve(&grid, &|_| 0.0, Nonlinearity::None, &psi0, 1.0, 10, 10);
}

#[test]
#[should_panic(expected = "2^k")]
fn split_step_rejects_non_power_of_two() {
    let grid = Grid1d::periodic(-1.0, 1.0, 100);
    let psi0 = vec![Complex64::zero(); 100];
    let _ = split_step_evolve(&grid, &|_| 0.0, Nonlinearity::None, &psi0, 1.0, 10, 10);
}

#[test]
#[should_panic(expected = "degenerate")]
fn domain_rejects_inverted_intervals() {
    let _ = Domain::new(&[(1.0, 1.0)]);
}

#[test]
#[should_panic(expected = "Halton")]
fn halton_rejects_high_dimensions() {
    let d = Domain::new(&[(0.0, 1.0); 9]);
    let _ = qpinn::sampling::halton_points(&d, 10);
}

#[test]
fn lbfgs_reports_line_search_failure_on_pathological_objective() {
    // A discontinuous staircase objective with a fake gradient breaks the
    // Wolfe conditions; the optimizer must report that rather than loop.
    let res = Lbfgs::default().minimize(
        |x| {
            let f = x[0].floor().abs() + 1.0;
            (f, vec![1.0]) // inconsistent gradient
        },
        vec![5.3],
    );
    assert!(
        matches!(
            res.outcome,
            LbfgsOutcome::LineSearchFailed | LbfgsOutcome::FConverged | LbfgsOutcome::MaxIters
        ),
        "{:?}",
        res.outcome
    );
    assert!(res.f.is_finite());
}

#[test]
fn adam_survives_extreme_gradients_with_clipping() {
    use qpinn::optim::{clip, Adam, Optimizer};
    let mut params = vec![Tensor::from_slice(&[1.0, -1.0])];
    let mut opt = Adam::new(1e-3);
    let mut grads = vec![Tensor::from_slice(&[1e30, -1e30])];
    let pre = clip::clip_global_norm(&mut grads, 1.0);
    assert!(pre > 1e29);
    opt.step(&mut params, &grads);
    assert!(params[0].all_finite());
    assert!(
        (params[0].data()[0] - 1.0).abs() < 2e-3,
        "step stayed bounded"
    );
}

#[test]
fn collect_grads_is_total_even_for_untouched_params() {
    // A loss touching no parameter still yields a full, zero gradient list.
    let mut params = ParamSet::new();
    params.add("w", Tensor::from_slice(&[1.0, 2.0, 3.0]));
    let mut g = qpinn::autodiff::Graph::new();
    let ctx = GraphCtx::new(&mut g, &params);
    let c = ctx.g.constant(Tensor::from_slice(&[5.0]));
    let loss = ctx.g.mse(c);
    let mut grads = ctx.g.backward(loss);
    let collected = ctx.collect_grads(&mut grads);
    assert_eq!(collected.len(), 1);
    assert!(collected[0].data().iter().all(|&x| x == 0.0));
}

#[test]
fn predictions_stay_finite_for_extreme_inputs() {
    // tanh saturation + periodic wrapping must keep outputs finite far
    // outside the training box, also where the embeddings' angles pass
    // the SIMD sincos reduction's 2²⁹ range.
    use qpinn::core::{FieldNet, FieldNetConfig};
    use rand::{rngs::StdRng, SeedableRng};
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(0);
    let net = FieldNet::new(
        &mut params,
        &mut rng,
        &FieldNetConfig::standard_wave(4.0, 1.0, 8, 2),
        "n",
    );
    let out = net.predict(
        &params,
        &[vec![1e6, 1e6], vec![-1e6, -42.0], vec![0.0, 1e3], vec![1e10, -1e12]],
    );
    assert!(out.all_finite());
}
