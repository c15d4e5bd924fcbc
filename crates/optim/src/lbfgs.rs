//! Limited-memory BFGS with a strong-Wolfe line search.
//!
//! Operates on flat `Vec<f64>` parameter vectors (use
//! `ParamSet::flatten`/`assign_flat` from `qpinn-nn` to adapt). The
//! implementation follows Nocedal & Wright: two-loop recursion for the
//! search direction, bracketing + zoom line search enforcing the strong
//! Wolfe conditions, and the standard `γ = sᵀy/yᵀy` initial Hessian
//! scaling.

/// The objective [`Lbfgs::minimize`] evaluates: value and gradient at a
/// point.
type Objective<'a> = dyn FnMut(&[f64]) -> (f64, Vec<f64>) + 'a;

/// Configuration for [`Lbfgs`].
#[derive(Clone, Debug)]
pub struct LbfgsConfig {
    /// History length `m` (pairs of (s, y) kept).
    pub memory: usize,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Stop when `‖∇f‖∞ ≤ tol_grad`.
    pub tol_grad: f64,
    /// Stop when the relative decrease of `f` falls below this for one step.
    pub tol_rel_f: f64,
    /// Armijo constant (sufficient decrease).
    pub c1: f64,
    /// Curvature constant (strong Wolfe).
    pub c2: f64,
    /// Maximum line-search function evaluations per iteration.
    pub max_ls: usize,
}

impl Default for LbfgsConfig {
    fn default() -> Self {
        LbfgsConfig {
            memory: 10,
            max_iters: 200,
            tol_grad: 1e-10,
            tol_rel_f: 1e-14,
            c1: 1e-4,
            c2: 0.9,
            max_ls: 25,
        }
    }
}

/// Why the optimizer stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbfgsOutcome {
    /// Gradient norm below tolerance.
    GradConverged,
    /// Function decrease stalled.
    FConverged,
    /// Hit the iteration budget.
    MaxIters,
    /// The line search could not satisfy the Wolfe conditions.
    LineSearchFailed,
}

/// Result of an L-BFGS run.
#[derive(Clone, Debug)]
pub struct LbfgsResult {
    /// Final point.
    pub x: Vec<f64>,
    /// Final objective value.
    pub f: f64,
    /// Final gradient.
    pub grad: Vec<f64>,
    /// Iterations taken.
    pub iters: usize,
    /// Termination reason.
    pub outcome: LbfgsOutcome,
}

/// The optimizer. Stateless between calls; all state lives in `minimize`.
#[derive(Clone, Debug, Default)]
pub struct Lbfgs {
    /// Configuration.
    pub cfg: LbfgsConfig,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn inf_norm(a: &[f64]) -> f64 {
    a.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

impl Lbfgs {
    /// With explicit configuration.
    pub fn new(cfg: LbfgsConfig) -> Self {
        Lbfgs { cfg }
    }

    /// Minimize `f` (returning `(value, gradient)`) from `x0`.
    pub fn minimize(
        &self,
        mut f: impl FnMut(&[f64]) -> (f64, Vec<f64>),
        x0: Vec<f64>,
    ) -> LbfgsResult {
        let n = x0.len();
        let cfg = &self.cfg;
        // Resolved once: registry lookup takes a mutex, the per-iteration
        // updates below are lock-free atomic adds.
        let iters_ctr = qpinn_telemetry::counter("optim.lbfgs.iters");
        let ls_ctr = qpinn_telemetry::counter("optim.lbfgs.line_search_evals");
        let mut x = x0;
        let (mut fx, mut gx) = f(&x);
        let mut s_hist: Vec<Vec<f64>> = Vec::new();
        let mut y_hist: Vec<Vec<f64>> = Vec::new();
        let mut rho_hist: Vec<f64> = Vec::new();

        for iter in 0..cfg.max_iters {
            if inf_norm(&gx) <= cfg.tol_grad {
                return LbfgsResult {
                    x,
                    f: fx,
                    grad: gx,
                    iters: iter,
                    outcome: LbfgsOutcome::GradConverged,
                };
            }

            // Two-loop recursion for d = -H·g.
            let mut q = gx.clone();
            let k = s_hist.len();
            let mut alpha = vec![0.0; k];
            for i in (0..k).rev() {
                alpha[i] = rho_hist[i] * dot(&s_hist[i], &q);
                for (qj, yj) in q.iter_mut().zip(&y_hist[i]) {
                    *qj -= alpha[i] * yj;
                }
            }
            let gamma = if k > 0 {
                let sy = dot(&s_hist[k - 1], &y_hist[k - 1]);
                let yy = dot(&y_hist[k - 1], &y_hist[k - 1]);
                if yy > 0.0 {
                    sy / yy
                } else {
                    1.0
                }
            } else {
                1.0
            };
            for qj in q.iter_mut() {
                *qj *= gamma;
            }
            for i in 0..k {
                let beta = rho_hist[i] * dot(&y_hist[i], &q);
                for (qj, sj) in q.iter_mut().zip(&s_hist[i]) {
                    *qj += (alpha[i] - beta) * sj;
                }
            }
            let mut d: Vec<f64> = q.iter().map(|v| -v).collect();

            // Ensure a descent direction; fall back to steepest descent.
            let mut dg = dot(&d, &gx);
            if dg >= 0.0 {
                d = gx.iter().map(|v| -v).collect();
                dg = dot(&d, &gx);
            }

            // Strong-Wolfe line search (bracket + zoom).
            let phi0 = fx;
            let dphi0 = dg;
            let mut step = if iter == 0 {
                (1.0 / inf_norm(&gx).max(1.0)).min(1.0)
            } else {
                1.0
            };
            let eval =
                |alpha: f64, x: &[f64], d: &[f64], f: &mut Objective<'_>| {
                    let xt: Vec<f64> = x.iter().zip(d).map(|(xi, di)| xi + alpha * di).collect();
                    let (ft, gt) = f(&xt);
                    let dphit = dot(&gt, d);
                    (xt, ft, gt, dphit)
                };

            let mut lo = 0.0f64;
            let mut f_lo = phi0;
            let mut dphi_lo = dphi0;
            let mut hi: Option<(f64, f64)> = None; // (alpha, f)
            let mut accepted: Option<(Vec<f64>, f64, Vec<f64>)> = None;
            let mut prev_alpha = 0.0f64;
            let mut prev_f = phi0;
            let mut ls_evals = 0usize;

            // Bracketing phase.
            while ls_evals < cfg.max_ls {
                let (xt, ft, gt, dphit) = eval(step, &x, &d, &mut f);
                ls_evals += 1;
                if ft > phi0 + cfg.c1 * step * dphi0 || (ls_evals > 1 && ft >= prev_f) {
                    lo = prev_alpha;
                    f_lo = prev_f;
                    dphi_lo = if prev_alpha == 0.0 { dphi0 } else { dphi_lo };
                    hi = Some((step, ft));
                    break;
                }
                if dphit.abs() <= -cfg.c2 * dphi0 {
                    accepted = Some((xt, ft, gt));
                    break;
                }
                if dphit >= 0.0 {
                    lo = step;
                    f_lo = ft;
                    dphi_lo = dphit;
                    hi = Some((prev_alpha, prev_f));
                    break;
                }
                prev_alpha = step;
                prev_f = ft;
                step *= 2.0;
            }

            // Zoom phase.
            if accepted.is_none() {
                if let Some((mut hi_a, mut hi_f)) = hi {
                    while ls_evals < cfg.max_ls {
                        let mid = 0.5 * (lo + hi_a);
                        let (xt, ft, gt, dphit) = eval(mid, &x, &d, &mut f);
                        ls_evals += 1;
                        if ft > phi0 + cfg.c1 * mid * dphi0 || ft >= f_lo {
                            hi_a = mid;
                            hi_f = ft;
                        } else {
                            if dphit.abs() <= -cfg.c2 * dphi0 {
                                accepted = Some((xt, ft, gt));
                                break;
                            }
                            if dphit * (hi_a - lo) >= 0.0 {
                                hi_a = lo;
                                hi_f = f_lo;
                            }
                            lo = mid;
                            f_lo = ft;
                            dphi_lo = dphit;
                        }
                        if (hi_a - lo).abs() < 1e-16 {
                            break;
                        }
                        let _ = hi_f;
                        let _ = dphi_lo;
                    }
                }
            }

            iters_ctr.inc();
            ls_ctr.add(ls_evals as u64);

            let Some((x_new, f_new, g_new)) = accepted else {
                return LbfgsResult {
                    x,
                    f: fx,
                    grad: gx,
                    iters: iter,
                    outcome: LbfgsOutcome::LineSearchFailed,
                };
            };

            // Update history.
            let s: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
            let yv: Vec<f64> = g_new.iter().zip(&gx).map(|(a, b)| a - b).collect();
            let sy = dot(&s, &yv);
            if sy > 1e-12 * dot(&yv, &yv).max(1e-300) {
                if s_hist.len() == cfg.memory {
                    s_hist.remove(0);
                    y_hist.remove(0);
                    rho_hist.remove(0);
                }
                rho_hist.push(1.0 / sy);
                s_hist.push(s);
                y_hist.push(yv);
            }

            let rel = (fx - f_new).abs() / fx.abs().max(1.0);
            x = x_new;
            fx = f_new;
            gx = g_new;
            let _ = n;
            if rel < cfg.tol_rel_f {
                return LbfgsResult {
                    x,
                    f: fx,
                    grad: gx,
                    iters: iter + 1,
                    outcome: LbfgsOutcome::FConverged,
                };
            }
        }
        LbfgsResult {
            x,
            f: fx,
            grad: gx,
            iters: self.cfg.max_iters,
            outcome: LbfgsOutcome::MaxIters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_in_few_iterations() {
        // f(x) = ½ xᵀ D x with D = diag(1..5): quadratic, should converge
        // far faster than gradient descent.
        let d = [1.0, 2.0, 3.0, 4.0, 5.0];
        let res = Lbfgs::default().minimize(
            |x| {
                let f = 0.5 * x.iter().zip(&d).map(|(xi, di)| di * xi * xi).sum::<f64>();
                let g = x.iter().zip(&d).map(|(xi, di)| di * xi).collect();
                (f, g)
            },
            vec![1.0, -1.0, 2.0, -2.0, 0.5],
        );
        assert!(res.f < 1e-16, "f = {}", res.f);
        assert!(res.iters < 30, "iters = {}", res.iters);
    }

    #[test]
    fn rosenbrock_to_machine_precision() {
        let res = Lbfgs::new(LbfgsConfig {
            max_iters: 500,
            ..Default::default()
        })
        .minimize(
            |x| {
                let (a, b) = (x[0], x[1]);
                let f = (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2);
                let g = vec![
                    -2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                    200.0 * (b - a * a),
                ];
                (f, g)
            },
            vec![-1.2, 1.0],
        );
        assert!((res.x[0] - 1.0).abs() < 1e-6, "{:?}", res);
        assert!((res.x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn already_at_minimum() {
        let res = Lbfgs::default().minimize(|x| (x[0] * x[0], vec![2.0 * x[0]]), vec![0.0]);
        assert_eq!(res.outcome, LbfgsOutcome::GradConverged);
        assert_eq!(res.iters, 0);
    }

    #[test]
    fn high_dimensional_least_squares() {
        // f(x) = ½‖x − c‖² in 200 dims.
        let c: Vec<f64> = (0..200).map(|i| (i as f64 * 0.37).sin()).collect();
        let c2 = c.clone();
        let res = Lbfgs::default().minimize(
            move |x| {
                let f = 0.5
                    * x.iter()
                        .zip(&c2)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>();
                let g = x.iter().zip(&c2).map(|(a, b)| a - b).collect();
                (f, g)
            },
            vec![0.0; 200],
        );
        for (xi, ci) in res.x.iter().zip(&c) {
            assert!((xi - ci).abs() < 1e-7);
        }
    }

    #[test]
    fn beats_gradient_descent_on_ill_conditioned() {
        // condition number 1e4; GD with safe lr needs thousands of steps.
        let d = [1.0, 1e4];
        let res = Lbfgs::default().minimize(
            |x| {
                let f = 0.5 * (d[0] * x[0] * x[0] + d[1] * x[1] * x[1]);
                (f, vec![d[0] * x[0], d[1] * x[1]])
            },
            vec![1.0, 1.0],
        );
        assert!(res.f < 1e-12);
        assert!(res.iters < 60, "iters = {}", res.iters);
    }
}
