//! Residual helpers for the tasks: [`split_fields`] gives each registry
//! residual builder one jet per output field. The residual operators
//! themselves live with the problem definitions (`qpinn_problems::zoo`).

use qpinn_autodiff::jet::Jet;
use qpinn_autodiff::Graph;

/// Split an `n_fields`-column output jet into one jet per field, in
/// column order. The generic registry task uses this to hand each
/// [`qpinn_problems::PdeProblem`] residual builder a per-component view
/// regardless of the problem's output arity.
pub fn split_fields(g: &mut Graph, out: &Jet, n_fields: usize) -> Vec<Jet> {
    (0..n_fields).map(|i| out.col(g, i)).collect()
}
