//! Residual helpers for the tasks: [`split_fields`] gives each registry
//! residual builder one jet per output field, and [`eigen_residual`] is
//! the stationary operator the eigenvalue task trains against. The
//! time-dependent Schrödinger residual lives with the problem definitions
//! (`qpinn_problems::zoo::schrodinger_residuals`).

use qpinn_autodiff::jet::Jet;
use qpinn_autodiff::{Graph, Var};

/// Split an `n_fields`-column output jet into one jet per field, in
/// column order. The generic registry task uses this to hand each
/// [`qpinn_problems::PdeProblem`] residual builder a per-component view
/// regardless of the problem's output arity.
pub fn split_fields(g: &mut Graph, out: &Jet, n_fields: usize) -> Vec<Jet> {
    (0..n_fields).map(|i| out.col(g, i)).collect()
}

/// Stationary residual `r = −½ψ″ + Vψ − Eψ` for a real field jet over the
/// single coordinate `x`, with a trainable `[1, 1]` eigenvalue node `e`.
pub fn eigen_residual(g: &mut Graph, psi: &Jet, v_pot: Var, e: Var) -> Var {
    let half_pp = g.scale(psi.dd[0], -0.5);
    let vpsi = g.mul(v_pot, psi.v);
    let epsi = g.matmul(psi.v, e);
    let s = g.add(half_pp, vpsi);
    g.sub(s, epsi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_tensor::Tensor;

    fn g_constant_col(g: &mut Graph, v: &[f64]) -> Var {
        g.constant(Tensor::column(v))
    }

    #[test]
    fn eigen_residual_vanishes_for_exact_eigenpair() {
        // Infinite well on [0, π]: ψ = sin(x), E = ½.
        let xs = [0.3, 1.2, 2.5];
        let n = xs.len();
        let mut g = Graph::new();
        let psi = Jet {
            v: g_constant_col(&mut g, &xs.iter().map(|x| f64::sin(*x)).collect::<Vec<_>>()),
            d: vec![g_constant_col(
                &mut g,
                &xs.iter().map(|x| f64::cos(*x)).collect::<Vec<_>>(),
            )],
            dd: vec![g_constant_col(
                &mut g,
                &xs.iter().map(|x| -f64::sin(*x)).collect::<Vec<_>>(),
            )],
        };
        let vpot = g_constant_col(&mut g, &vec![0.0; n]);
        let e = g.constant(Tensor::from_vec([1, 1], vec![0.5]));
        let r = eigen_residual(&mut g, &psi, vpot, e);
        assert!(g.value(r).max_abs() < 1e-12);
    }
}
