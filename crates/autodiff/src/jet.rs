//! Taylor-mode jets: propagate `(value, ∂/∂cᵢ, ∂²/∂cᵢ²)` per coordinate
//! through a computation as ordinary tape ops.
//!
//! A network carries a jet as a [`JetStack`]: **one** tape node holding
//! the batched value, the `k` first-derivative blocks and `k₂ ≤ k`
//! diagonal second-derivative blocks stacked by rows into a
//! `[(1 + k + k₂)·n, w]` tensor. Each layer is then one fused node — a
//! dense layer is a single matmul over all rows, an activation a single
//! chain-rule sweep — instead of one node per block and per chain-rule
//! term. PDE residuals read a [`Jet`]: the same quantity cut into one
//! node per block ([`JetStack::unstack`]). Because every block is a
//! differentiable [`Var`], a single [`Graph::backward`] pass yields exact
//! parameter gradients of a residual loss.
//!
//! The second derivatives are those of the **leading** `k₂` coordinates:
//! `dd_i` needs `d_i`, and a residual that reads no `∂²` of a coordinate
//! (time, in a first-order-in-time PDE) has that coordinate last. A stack
//! with `k₂ = k` is the full jet; a residual's demanded stack carries only
//! the blocks it reads, and computes those with the same bits.
//!
//! Only diagonal second derivatives are tracked — exactly what
//! Laplacian-type operators (∂²/∂x², ∂²/∂y²) need. Mixed spatial
//! derivatives are not required by the Schrödinger systems implemented
//! here.

use crate::{Graph, Var};

/// A batched quantity with per-coordinate first and second derivatives,
/// one tape node per component — the view residual builders read.
///
/// All component tensors share the shape `[batch, width]`.
#[derive(Clone, Debug)]
pub struct Jet {
    /// The value.
    pub v: Var,
    /// First derivatives, one per tracked coordinate.
    pub d: Vec<Var>,
    /// Diagonal second derivatives of the leading coordinates: `dd[i]` is
    /// `∂²/∂cᵢ²`, for `i` below `dd.len() ≤ d.len()`.
    pub dd: Vec<Var>,
}

impl Jet {
    /// Number of tracked coordinates.
    pub fn n_coords(&self) -> usize {
        self.d.len()
    }

    /// Slice one column out of every slot: the jet of a single output
    /// field from a multi-field network head.
    pub fn col(&self, g: &mut Graph, col: usize) -> Jet {
        Jet {
            v: g.col(self.v, col),
            d: self.d.iter().map(|&s| g.col(s, col)).collect(),
            dd: self.dd.iter().map(|&s| g.col(s, col)).collect(),
        }
    }
}

/// A jet carried as one tape node: rows `[0, n)` of `stack` hold the
/// value, then come `d_0 … d_{k−1}`, then `dd_0 … dd_{k₂−1}` (the slot
/// order of [`Jet`]). `n_coords = n_second = 0` is a plain value batch,
/// so the value-only path runs through the same ops.
#[derive(Clone, Copy, Debug)]
pub struct JetStack {
    /// The `[(1 + k + k₂)·n, w]` node.
    pub stack: Var,
    /// Number of tracked coordinates `k`.
    pub n_coords: usize,
    /// Number of leading coordinates `k₂ ≤ k` whose second derivative is
    /// tracked.
    pub n_second: usize,
}

impl JetStack {
    /// Seed the stack of input coordinate `coord` out of `n_coords`, with
    /// second derivatives of the first `n_second`, from its `[n, 1]`
    /// column: the values, a unit first derivative along its own
    /// coordinate, zero elsewhere. With derivatives the seed is a new
    /// constant (coordinates are data, not parameters); without, it is the
    /// column itself.
    pub fn seed(
        g: &mut Graph,
        column: Var,
        coord: usize,
        n_coords: usize,
        n_second: usize,
    ) -> JetStack {
        assert!(
            n_second <= n_coords,
            "{n_second} second derivatives of {n_coords} coordinates"
        );
        if n_coords == 0 {
            return JetStack {
                stack: column,
                n_coords,
                n_second,
            };
        }
        let t = g.value(column).jet_seed(coord, n_coords, n_second);
        JetStack {
            stack: g.constant(t),
            n_coords,
            n_second,
        }
    }

    /// Number of row blocks, `1 + k + k₂`.
    pub fn blocks(&self) -> usize {
        1 + self.n_coords + self.n_second
    }

    /// Rows per block (the batch size `n`).
    pub fn rows(&self, g: &Graph) -> usize {
        g.value(self.stack).shape().nrows() / self.blocks()
    }

    fn with(self, stack: Var) -> JetStack {
        JetStack { stack, ..self }
    }

    /// Dense layer `x·w (+ b)`: linear, so every block goes through the
    /// same matmul and only the value block gets the bias.
    pub fn affine(self, g: &mut Graph, w: Var, b: Option<Var>) -> JetStack {
        self.with(g.jet_affine(self.stack, w, b, self.blocks()))
    }

    /// Multiply every block by a constant.
    pub fn scale(self, g: &mut Graph, c: f64) -> JetStack {
        self.with(g.scale(self.stack, c))
    }

    /// Tanh: `σ' = 1 − u²`, `σ'' = −2u(1 − u²)`.
    pub fn tanh(self, g: &mut Graph) -> JetStack {
        self.with(g.jet_tanh(self.stack, self.n_coords, self.n_second))
    }

    /// Sine: `σ' = cos`, `σ'' = −sin`.
    pub fn sin(self, g: &mut Graph) -> JetStack {
        self.with(g.jet_sin(self.stack, self.n_coords, self.n_second))
    }

    /// The sine and cosine jets side by side, `[sin | cos]` per row.
    pub fn sin_cos(self, g: &mut Graph) -> JetStack {
        self.with(g.jet_sin_cos(self.stack, self.n_coords, self.n_second))
    }

    /// Concatenate stacks column-wise (equal coordinate and
    /// second-derivative counts, equal rows); a single part is returned as
    /// is.
    ///
    /// # Panics
    /// Panics when `parts` is empty or the block counts disagree.
    pub fn hstack(g: &mut Graph, parts: &[JetStack]) -> JetStack {
        assert!(!parts.is_empty(), "hstack of no jets");
        let (k, k2) = (parts[0].n_coords, parts[0].n_second);
        assert!(
            parts.iter().all(|p| (p.n_coords, p.n_second) == (k, k2)),
            "jet hstack block-count mismatch"
        );
        if parts.len() == 1 {
            return parts[0];
        }
        let vars: Vec<Var> = parts.iter().map(|p| p.stack).collect();
        parts[0].with(g.hstack(&vars))
    }

    /// Cut the stack into one node per block: the per-slot [`Jet`] view,
    /// with `n_second` second-derivative slots.
    pub fn unstack(self, g: &mut Graph) -> Jet {
        let (n, k) = (self.rows(g), self.n_coords);
        let v = g.row_block(self.stack, 0, n);
        let d = (0..k).map(|i| g.row_block(self.stack, (1 + i) * n, n)).collect();
        let dd = (0..self.n_second)
            .map(|i| g.row_block(self.stack, (1 + k + i) * n, n))
            .collect();
        Jet { v, d, dd }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_tensor::Tensor;

    /// Check the jet of f(x) against finite differences on a scalar batch.
    fn check_jet(
        build: impl Fn(&mut Graph, JetStack) -> JetStack,
        f: impl Fn(f64) -> f64,
        xs: &[f64],
        tol: f64,
    ) {
        let mut g = Graph::new();
        let col = g.constant(Tensor::column(xs));
        let jet = JetStack::seed(&mut g, col, 0, 1, 1);
        let out = build(&mut g, jet).unstack(&mut g);
        let h = 1e-5;
        for (i, &x) in xs.iter().enumerate() {
            let v = g.value(out.v).data()[i];
            let d1 = g.value(out.d[0]).data()[i];
            let d2 = g.value(out.dd[0]).data()[i];
            assert!((v - f(x)).abs() < 1e-12, "value at {x}: {v} vs {}", f(x));
            let fd1 = (f(x + h) - f(x - h)) / (2.0 * h);
            let fd2 = (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h);
            assert!((d1 - fd1).abs() < tol, "d1 at {x}: {d1} vs {fd1}");
            assert!((d2 - fd2).abs() < tol * 100.0, "d2 at {x}: {d2} vs {fd2}");
        }
    }

    #[test]
    fn tanh_jet_matches_finite_differences() {
        check_jet(
            |g, j| j.tanh(g),
            |x| x.tanh(),
            &[-1.2, -0.3, 0.0, 0.7, 1.9],
            1e-7,
        );
    }

    #[test]
    fn sin_jet_matches_finite_differences() {
        check_jet(|g, j| j.sin(g), |x| x.sin(), &[-2.0, 0.4, 1.1], 1e-7);
    }

    #[test]
    fn affine_of_sin_cos_second_order() {
        // f(x) = 2·sin(3x) − 0.5·cos(3x) + 0.25, assembled from the sin|cos
        // pair and a dense layer: both columns' jets and the linear map.
        check_jet(
            |g, j| {
                let w = g.constant(Tensor::from_vec([2, 1], vec![2.0, -0.5]));
                let b = g.constant(Tensor::from_slice(&[0.25]));
                j.scale(g, 3.0).sin_cos(g).affine(g, w, Some(b))
            },
            |x| 2.0 * (3.0 * x).sin() - 0.5 * (3.0 * x).cos() + 0.25,
            &[-1.5, 0.2, 0.9],
            1e-5,
        );
    }

    #[test]
    fn composed_tanh_of_sin() {
        check_jet(
            |g, j| j.sin(g).tanh(g),
            |x| x.sin().tanh(),
            &[-0.8, 0.1, 1.3],
            1e-6,
        );
    }

    #[test]
    fn seed_has_unit_first_derivative() {
        let mut g = Graph::new();
        let col = g.constant(Tensor::column(&[0.5, 1.5]));
        let jet = JetStack::seed(&mut g, col, 1, 3, 3).unstack(&mut g);
        assert_eq!(g.value(jet.v).data(), &[0.5, 1.5]);
        assert_eq!(g.value(jet.d[1]).data(), &[1.0, 1.0]);
        assert_eq!(g.value(jet.d[0]).data(), &[0.0, 0.0]);
        assert_eq!(g.value(jet.dd[1]).data(), &[0.0, 0.0]);
    }

    #[test]
    fn a_demanded_stack_is_the_full_stack_without_its_trailing_dd_blocks() {
        // Two coordinates, ∂² of the first only: every kept slot and the
        // gradient of a loss reading only kept slots match the full jet
        // bit for bit, through a dense layer, tanh and sin|cos.
        let xs = Tensor::column(&[-0.7, 0.1, 0.9]);
        let ts = Tensor::column(&[0.3, -1.1, 0.5]);
        let run = |n_second: usize| {
            let mut g = Graph::new();
            let w = g.input(Tensor::from_vec(
                [4, 3],
                (0..12).map(|i| (i as f64 * 0.7).sin()).collect(),
            ));
            let (x, t) = (g.constant(xs.clone()), g.constant(ts.clone()));
            let parts = [
                JetStack::seed(&mut g, x, 0, 2, n_second).sin_cos(&mut g),
                JetStack::seed(&mut g, t, 1, 2, n_second).sin_cos(&mut g),
            ];
            let out = JetStack::hstack(&mut g, &parts)
                .affine(&mut g, w, None)
                .tanh(&mut g);
            assert_eq!(out.blocks(), 3 + n_second);
            let jet = out.unstack(&mut g);
            assert_eq!((jet.d.len(), jet.dd.len()), (2, n_second));
            let slots = [jet.v, jet.d[0], jet.d[1], jet.dd[0]];
            let vals: Vec<Vec<u64>> = slots
                .iter()
                .map(|&s| g.value(s).data().iter().map(|v| v.to_bits()).collect())
                .collect();
            let terms: Vec<(f64, Var)> = slots.iter().map(|&s| (1.0, g.mse(s))).collect();
            let loss = g.lincomb(&terms);
            let grad = g.backward(loss).get(w).unwrap().clone();
            (
                vals,
                grad.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn jets_are_differentiable_wrt_parameters() {
        // u(x) = w·x (a 1-param linear "network"); residual r = u_x − w = 0
        // identically. Check that d(mse(u_x))/dw = 2·w (since u_x = w).
        let mut g = Graph::new();
        let w = g.input(Tensor::from_vec([1, 1], vec![3.0]));
        let x = g.constant(Tensor::column(&[0.1, 0.2, 0.3]));
        let jet = JetStack::seed(&mut g, x, 0, 1, 1);
        let out = jet.affine(&mut g, w, None).unstack(&mut g);
        let loss = g.mse(out.d[0]);
        assert!((g.value(loss).item() - 9.0).abs() < 1e-12);
        let grads = g.backward(loss);
        assert!((grads.get(w).unwrap().data()[0] - 6.0).abs() < 1e-12);
    }
}
