//! The tape: eagerly evaluated ops, reverse-mode gradient accumulation.

use qpinn_tensor::{pool, Tensor};

/// Handle to a node on a [`Graph`]. Cheap to copy; only meaningful for the
/// graph that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// A user-defined primitive: the forward value is supplied by the caller,
/// the vector-Jacobian product by this trait. Used to splice external
/// differentiable systems (e.g. the quantum-circuit layer) into the tape.
pub trait CustomOp: Send + Sync {
    /// Human-readable name for diagnostics.
    fn name(&self) -> &str;

    /// Given the input values, the forward output, and the incoming
    /// gradient, return one cotangent per input (`None` for inputs that do
    /// not need gradients).
    fn backward(
        &self,
        inputs: &[&Tensor],
        output: &Tensor,
        out_grad: &Tensor,
    ) -> Vec<Option<Tensor>>;
}

enum Op {
    Input,
    Constant,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    Neg(usize),
    Scale(usize, f64),
    AddScalar(usize),
    Matmul(usize, usize),
    AddBias(usize, usize),
    Tanh(usize),
    OneMinusSquare(usize),
    /// Dense layer over a jet stack of `blocks` row blocks, the bias on
    /// the value block only.
    JetAffine {
        x: usize,
        w: usize,
        b: Option<usize>,
        blocks: usize,
    },
    /// Tanh over a jet stack with `k` coordinates and `k2` second
    /// derivatives.
    JetTanh {
        x: usize,
        k: usize,
        k2: usize,
    },
    /// Sine over a jet stack, with `cos` of its value block saved.
    JetSin {
        x: usize,
        k: usize,
        k2: usize,
        cos: Tensor,
    },
    /// Sine and cosine jets of a stack, side by side.
    JetSinCos {
        x: usize,
        k: usize,
        k2: usize,
    },
    /// Rows `[r0, r0 + rows)` of a rank-2 node.
    RowBlock {
        a: usize,
        r0: usize,
    },
    Sin(usize),
    Cos(usize),
    Exp(usize),
    Sqrt(usize),
    Square(usize),
    Recip(usize),
    Powi(usize, i32),
    Sum(usize),
    Mean(usize),
    Mse(usize),
    WeightedMse(usize, usize),
    Hstack(Vec<usize>),
    ColSlice(usize, usize),
    MeanGroups(usize, usize),
    Custom {
        op: Box<dyn CustomOp>,
        inputs: Vec<usize>,
    },
}

struct Node {
    op: Op,
    value: Tensor,
    needs_grad: bool,
}

/// A define-by-run tape. Values are computed eagerly as ops are recorded;
/// [`Graph::backward`] produces gradients in one reverse sweep.
///
/// Dropping a tape hands every node value (and any tensor an op saved for
/// its backward pass) back to the buffer pool, so the next tape built on
/// this thread — the next training epoch — reuses the storage.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Drop for Graph {
    fn drop(&mut self) {
        for node in self.nodes.drain(..) {
            if let Op::JetSin { cos, .. } = node.op {
                pool::recycle(cos);
            }
            pool::recycle(node.value);
        }
    }
}

/// Gradients produced by [`Graph::backward`], indexed by [`Var`].
pub struct Grads {
    g: Vec<Option<Tensor>>,
}

impl Grads {
    /// The gradient of the loss with respect to `v`, if it was required and
    /// reached by the reverse sweep.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.g.get(v.0).and_then(|o| o.as_ref())
    }

    /// Remove and return the gradient for `v` (avoids a clone when handing
    /// gradients to an optimizer).
    pub fn take(&mut self, v: Var) -> Option<Tensor> {
        self.g.get_mut(v.0).and_then(|o| o.take())
    }
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no ops have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, op: Op, value: Tensor, needs_grad: bool) -> Var {
        self.nodes.push(Node {
            op,
            value,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn ng(&self, id: usize) -> bool {
        self.nodes[id].needs_grad
    }

    /// Record a differentiable leaf (a parameter or an input we want
    /// gradients for).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(Op::Input, t, true)
    }

    /// Record a non-differentiable leaf (data, fixed weights, collocation
    /// coordinates).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(Op::Constant, t, false)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    // ----- arithmetic -----

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        let ng = self.ng(a.0) || self.ng(b.0);
        self.push(Op::Add(a.0, b.0), v, ng)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        let ng = self.ng(a.0) || self.ng(b.0);
        self.push(Op::Sub(a.0, b.0), v, ng)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        let ng = self.ng(a.0) || self.ng(b.0);
        self.push(Op::Mul(a.0, b.0), v, ng)
    }

    /// Elementwise quotient.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).div(self.value(b));
        let ng = self.ng(a.0) || self.ng(b.0);
        self.push(Op::Div(a.0, b.0), v, ng)
    }

    /// Negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.value(a).neg();
        let ng = self.ng(a.0);
        self.push(Op::Neg(a.0), v, ng)
    }

    /// Multiply by a compile-time constant.
    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        let v = self.value(a).scale(c);
        let ng = self.ng(a.0);
        self.push(Op::Scale(a.0, c), v, ng)
    }

    /// Add a constant to every element.
    pub fn add_scalar(&mut self, a: Var, c: f64) -> Var {
        let v = self.value(a).add_scalar(c);
        let ng = self.ng(a.0);
        self.push(Op::AddScalar(a.0), v, ng)
    }

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        let ng = self.ng(a.0) || self.ng(b.0);
        self.push(Op::Matmul(a.0, b.0), v, ng)
    }

    /// Broadcast-add a `[n]` bias to each row of an `[m, n]` tensor.
    pub fn add_bias(&mut self, x: Var, b: Var) -> Var {
        let v = self.value(x).add_row_broadcast(self.value(b));
        let ng = self.ng(x.0) || self.ng(b.0);
        self.push(Op::AddBias(x.0, b.0), v, ng)
    }

    // ----- nonlinearities -----

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).tanh();
        let ng = self.ng(a.0);
        self.push(Op::Tanh(a.0), v, ng)
    }

    /// Elementwise sine.
    pub fn sin(&mut self, a: Var) -> Var {
        let v = self.value(a).sin();
        let ng = self.ng(a.0);
        self.push(Op::Sin(a.0), v, ng)
    }

    /// Elementwise cosine.
    pub fn cos(&mut self, a: Var) -> Var {
        let v = self.value(a).cos();
        let ng = self.ng(a.0);
        self.push(Op::Cos(a.0), v, ng)
    }

    /// Elementwise natural exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).exp();
        let ng = self.ng(a.0);
        self.push(Op::Exp(a.0), v, ng)
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, a: Var) -> Var {
        let v = self.value(a).sqrt();
        let ng = self.ng(a.0);
        self.push(Op::Sqrt(a.0), v, ng)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.value(a).square();
        let ng = self.ng(a.0);
        self.push(Op::Square(a.0), v, ng)
    }

    /// Elementwise reciprocal.
    pub fn recip(&mut self, a: Var) -> Var {
        let v = self.value(a).recip();
        let ng = self.ng(a.0);
        self.push(Op::Recip(a.0), v, ng)
    }

    /// Elementwise integer power.
    pub fn powi(&mut self, a: Var, n: i32) -> Var {
        let v = self.value(a).powi(n);
        let ng = self.ng(a.0);
        self.push(Op::Powi(a.0, n), v, ng)
    }

    // ----- jet stacks -----

    /// Dense layer over a jet stack of `blocks` row blocks: one matmul
    /// `x · w` over every row, with the bias `b` (when given) seeded into
    /// the value block — the first `rows / blocks` rows — only.
    pub fn jet_affine(&mut self, x: Var, w: Var, b: Option<Var>, blocks: usize) -> Var {
        let xv = self.value(x);
        let value_rows = xv.shape().nrows() / blocks;
        let v = xv.jet_affine(self.value(w), b.map(|b| self.value(b)), value_rows);
        let ng = self.ng(x.0) || self.ng(w.0) || b.is_some_and(|b| self.ng(b.0));
        let op = Op::JetAffine {
            x: x.0,
            w: w.0,
            b: b.map(|b| b.0),
            blocks,
        };
        self.push(op, v, ng)
    }

    /// Tanh over a jet stack with `k` coordinates and second derivatives
    /// of the first `k2` (value, first and second derivative blocks by
    /// the chain rule), one node for all.
    pub fn jet_tanh(&mut self, x: Var, k: usize, k2: usize) -> Var {
        let v = self.value(x).jet_tanh(k, k2);
        let ng = self.ng(x.0);
        self.push(Op::JetTanh { x: x.0, k, k2 }, v, ng)
    }

    /// Sine over a jet stack with `k` coordinates and `k2` second
    /// derivatives.
    pub fn jet_sin(&mut self, x: Var, k: usize, k2: usize) -> Var {
        let (v, cos) = self.value(x).jet_sin(k, k2);
        let ng = self.ng(x.0);
        self.push(Op::JetSin { x: x.0, k, k2, cos }, v, ng)
    }

    /// Sine and cosine jets of a `[rows, w]` stack with `k` coordinates
    /// and `k2` second derivatives, as one `[rows, 2w]` stack whose rows
    /// read `[sin | cos]`.
    pub fn jet_sin_cos(&mut self, x: Var, k: usize, k2: usize) -> Var {
        let v = self.value(x).jet_sin_cos(k, k2);
        let ng = self.ng(x.0);
        self.push(Op::JetSinCos { x: x.0, k, k2 }, v, ng)
    }

    /// Rows `[r0, r0 + rows)` of a rank-2 node. Its gradient lands in
    /// those rows of the source; rows no block node reads get zeros.
    pub fn row_block(&mut self, a: Var, r0: usize, rows: usize) -> Var {
        let v = self.value(a).rows(r0, rows);
        let ng = self.ng(a.0);
        self.push(Op::RowBlock { a: a.0, r0 }, v, ng)
    }

    // ----- reductions -----

    /// Sum of all elements, as a scalar node.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        let ng = self.ng(a.0);
        self.push(Op::Sum(a.0), v, ng)
    }

    /// Mean of all elements, as a scalar node.
    pub fn mean(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).mean());
        let ng = self.ng(a.0);
        self.push(Op::Mean(a.0), v, ng)
    }

    /// Mean of squares — the MSE reduction, fused for efficiency.
    pub fn mse(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).mse());
        let ng = self.ng(a.0);
        self.push(Op::Mse(a.0), v, ng)
    }

    /// Weighted mean of squares `mean(w ⊙ a²)` with per-element weights `w`
    /// (gradient flows to `a` only; `w` is treated as constant even if it
    /// requires gradients elsewhere).
    pub fn weighted_mse(&mut self, a: Var, w: Var) -> Var {
        let av = self.value(a);
        let wv = self.value(w);
        assert_eq!(av.shape(), wv.shape(), "weighted_mse shapes");
        let v = Tensor::scalar(av.square().mul(wv).mean());
        let ng = self.ng(a.0);
        self.push(Op::WeightedMse(a.0, w.0), v, ng)
    }

    /// Horizontally stack rank-2 nodes with equal row counts.
    pub fn hstack(&mut self, parts: &[Var]) -> Var {
        let vals: Vec<&Tensor> = parts.iter().map(|p| self.value(*p)).collect();
        let v = Tensor::hstack(&vals);
        let ng = parts.iter().any(|p| self.ng(p.0));
        self.push(Op::Hstack(parts.iter().map(|p| p.0).collect()), v, ng)
    }

    /// Extract column `col` of a rank-2 node as an `[m, 1]` node.
    ///
    /// # Panics
    /// Panics when `col` is out of range.
    pub fn col(&mut self, a: Var, col: usize) -> Var {
        let av = self.value(a);
        assert!(col < av.shape().ncols(), "column {col} out of range for {}", av.shape());
        let v = Tensor::column(&av.col(col));
        let ng = self.ng(a.0);
        self.push(Op::ColSlice(a.0, col), v, ng)
    }

    /// Average consecutive groups of `group_size` rows of an `[K·gs, 1]`
    /// column, producing `[K, 1]` — used for per-time-slice integrals on
    /// structured collocation grids.
    ///
    /// # Panics
    /// Panics when the row count is not a multiple of `group_size`.
    pub fn mean_groups(&mut self, a: Var, group_size: usize) -> Var {
        let av = self.value(a);
        let m = av.shape().nrows();
        assert_eq!(av.shape().ncols(), 1, "mean_groups expects a column");
        assert!(group_size > 0 && m.is_multiple_of(group_size), "group size {group_size} vs {m} rows");
        let k = m / group_size;
        let mut v = Tensor::zeros([k, 1]);
        for (o, grp) in v.data_mut().iter_mut().zip(av.data().chunks_exact(group_size)) {
            *o = grp.iter().sum::<f64>() / group_size as f64;
        }
        let ng = self.ng(a.0);
        self.push(Op::MeanGroups(a.0, group_size), v, ng)
    }

    /// Record a custom primitive with a caller-computed forward value.
    pub fn custom(&mut self, op: Box<dyn CustomOp>, inputs: &[Var], value: Tensor) -> Var {
        let ng = inputs.iter().any(|p| self.ng(p.0));
        self.push(
            Op::Custom {
                op,
                inputs: inputs.iter().map(|p| p.0).collect(),
            },
            value,
            ng,
        )
    }

    // ----- composites -----

    /// `1 - a²`, the derivative of tanh given its output — a single fused
    /// node (one kernel sweep) instead of the old `square → neg →
    /// add_scalar` chain of three tape nodes and three temporaries.
    pub fn one_minus_square(&mut self, a: Var) -> Var {
        let v = self.value(a).one_minus_square();
        let ng = self.ng(a.0);
        self.push(Op::OneMinusSquare(a.0), v, ng)
    }

    /// Linear combination `Σ cᵢ·aᵢ` of equally shaped nodes.
    ///
    /// # Panics
    /// Panics when `terms` is empty.
    pub fn lincomb(&mut self, terms: &[(f64, Var)]) -> Var {
        assert!(!terms.is_empty(), "lincomb of nothing");
        let mut acc = self.scale(terms[0].1, terms[0].0);
        for &(c, v) in &terms[1..] {
            let s = self.scale(v, c);
            acc = self.add(acc, s);
        }
        acc
    }

    // ----- reverse sweep -----

    fn accumulate(slot: &mut Option<Tensor>, delta: Tensor) {
        match slot {
            Some(t) => {
                t.axpy(1.0, &delta);
                // The delta was folded in and is dead; hand its buffer back
                // to the kernel pool instead of the allocator.
                pool::recycle(delta);
            }
            None => *slot = Some(delta),
        }
    }

    /// Run the reverse sweep from `loss` (which must hold exactly one
    /// element) and return gradients for all reachable differentiable nodes.
    /// Each node's incoming gradient goes back to the buffer pool as soon
    /// as its op has consumed it.
    ///
    /// # Panics
    /// Panics when `loss` is not a single-element tensor.
    pub fn backward(&self, loss: Var) -> Grads {
        assert_eq!(
            self.value(loss).len(),
            1,
            "backward from non-scalar of shape {}",
            self.value(loss).shape()
        );
        let n = self.nodes.len();
        let mut g: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        g[loss.0] = Some(Tensor::full(self.value(loss).shape().clone(), 1.0));

        for id in (0..=loss.0).rev() {
            if !self.nodes[id].needs_grad {
                if let Some(t) = g[id].take() {
                    pool::recycle(t);
                }
                continue;
            }
            let Some(out_grad) = g[id].take() else {
                continue;
            };
            let node = &self.nodes[id];
            let val = |i: usize| &self.nodes[i].value;
            // Arms that keep `out_grad` return it for recycling; arms that
            // move it into a gradient slot return `None`.
            let spent: Option<Tensor> = match &node.op {
                Op::Input | Op::Constant => {
                    g[id] = Some(out_grad);
                    None
                }
                Op::Add(a, b) => {
                    if self.ng(*a) {
                        Self::accumulate(&mut g[*a], out_grad.clone());
                    }
                    if self.ng(*b) {
                        Self::accumulate(&mut g[*b], out_grad);
                        None
                    } else {
                        Some(out_grad)
                    }
                }
                Op::Sub(a, b) => {
                    if self.ng(*a) {
                        Self::accumulate(&mut g[*a], out_grad.clone());
                    }
                    if self.ng(*b) {
                        Self::accumulate(&mut g[*b], out_grad.neg());
                    }
                    Some(out_grad)
                }
                Op::Mul(a, b) => {
                    if self.ng(*a) {
                        Self::accumulate(&mut g[*a], out_grad.mul(val(*b)));
                    }
                    if self.ng(*b) {
                        Self::accumulate(&mut g[*b], out_grad.mul(val(*a)));
                    }
                    Some(out_grad)
                }
                Op::Div(a, b) => {
                    let bv = val(*b);
                    if self.ng(*a) {
                        Self::accumulate(&mut g[*a], out_grad.div(bv));
                    }
                    if self.ng(*b) {
                        // d(a/b)/db = -a/b² = -value/b
                        let d = out_grad.mul(&node.value).div(bv).neg();
                        Self::accumulate(&mut g[*b], d);
                    }
                    Some(out_grad)
                }
                Op::Neg(a) => {
                    Self::accumulate(&mut g[*a], out_grad.neg());
                    Some(out_grad)
                }
                Op::Scale(a, c) => {
                    Self::accumulate(&mut g[*a], out_grad.scale(*c));
                    Some(out_grad)
                }
                Op::AddScalar(a) => {
                    Self::accumulate(&mut g[*a], out_grad);
                    None
                }
                Op::Matmul(a, b) => {
                    if self.ng(*a) {
                        Self::accumulate(&mut g[*a], out_grad.matmul_nt(val(*b)));
                    }
                    if self.ng(*b) {
                        Self::accumulate(&mut g[*b], val(*a).matmul_tn(&out_grad));
                    }
                    Some(out_grad)
                }
                Op::AddBias(x, b) => {
                    if self.ng(*b) {
                        Self::accumulate(&mut g[*b], out_grad.sum_rows());
                    }
                    if self.ng(*x) {
                        Self::accumulate(&mut g[*x], out_grad);
                        None
                    } else {
                        Some(out_grad)
                    }
                }
                Op::Tanh(a) => {
                    // g · (1 − tanh²), one fused sweep over the stored
                    // output — no derivative temporary.
                    Self::accumulate(&mut g[*a], out_grad.grad_tanh(&node.value));
                    Some(out_grad)
                }
                Op::OneMinusSquare(a) => {
                    // d(1 − a²)/da = −2a.
                    let d = out_grad.mul(val(*a)).scale(-2.0);
                    Self::accumulate(&mut g[*a], d);
                    Some(out_grad)
                }
                Op::JetAffine { x, w, b, blocks } => {
                    let want = (self.ng(*x), self.ng(*w), b.is_some_and(|b| self.ng(b)));
                    let grads = val(*x).jet_affine_backward(val(*w), &out_grad, *blocks, want);
                    // One weight contribution per block, added in the
                    // order the per-block matmul nodes would have added.
                    for d in grads.w {
                        Self::accumulate(&mut g[*w], d);
                    }
                    for (slot, d) in [(Some(*x), grads.x), (*b, grads.b)] {
                        if let (Some(slot), Some(d)) = (slot, d) {
                            Self::accumulate(&mut g[slot], d);
                        }
                    }
                    Some(out_grad)
                }
                Op::JetTanh { x, k, k2 } => {
                    let d = val(*x).jet_tanh_backward(&node.value, &out_grad, *k, *k2);
                    Self::accumulate(&mut g[*x], d);
                    Some(out_grad)
                }
                Op::JetSin { x, k, k2, cos } => {
                    let d = val(*x).jet_sin_backward(&node.value, cos, &out_grad, *k, *k2);
                    Self::accumulate(&mut g[*x], d);
                    Some(out_grad)
                }
                Op::JetSinCos { x, k, k2 } => {
                    let d = val(*x).jet_sin_cos_backward(&node.value, &out_grad, *k, *k2);
                    Self::accumulate(&mut g[*x], d);
                    Some(out_grad)
                }
                Op::RowBlock { a, r0 } => {
                    // The first block to arrive is copied into a zero
                    // stack; later ones land in their own (still zero)
                    // rows of it.
                    match &mut g[*a] {
                        Some(full) => full.add_rows(*r0, &out_grad),
                        slot @ None => {
                            let mut full = Tensor::zeros(val(*a).shape().clone());
                            let w = full.shape().ncols();
                            full.data_mut()[r0 * w..r0 * w + out_grad.len()]
                                .copy_from_slice(out_grad.data());
                            *slot = Some(full);
                        }
                    }
                    Some(out_grad)
                }
                Op::Sin(a) => {
                    let d = val(*a).cos();
                    Self::accumulate(&mut g[*a], out_grad.mul(&d));
                    pool::recycle(d);
                    Some(out_grad)
                }
                Op::Cos(a) => {
                    let s = val(*a).sin();
                    let d = s.neg();
                    pool::recycle(s);
                    Self::accumulate(&mut g[*a], out_grad.mul(&d));
                    pool::recycle(d);
                    Some(out_grad)
                }
                Op::Exp(a) => {
                    Self::accumulate(&mut g[*a], out_grad.mul(&node.value));
                    Some(out_grad)
                }
                Op::Sqrt(a) => {
                    // d√x = 1/(2√x), using the stored output.
                    let d = node.value.map(|s| 0.5 / s);
                    Self::accumulate(&mut g[*a], out_grad.mul(&d));
                    pool::recycle(d);
                    Some(out_grad)
                }
                Op::Square(a) => {
                    let d = val(*a).scale(2.0);
                    Self::accumulate(&mut g[*a], out_grad.mul(&d));
                    pool::recycle(d);
                    Some(out_grad)
                }
                Op::Recip(a) => {
                    // d(1/x) = -1/x² = -value².
                    let sq = node.value.square();
                    let d = sq.neg();
                    pool::recycle(sq);
                    Self::accumulate(&mut g[*a], out_grad.mul(&d));
                    pool::recycle(d);
                    Some(out_grad)
                }
                Op::Powi(a, k) => {
                    let kk = *k;
                    let d = val(*a).map(move |x| kk as f64 * x.powi(kk - 1));
                    Self::accumulate(&mut g[*a], out_grad.mul(&d));
                    pool::recycle(d);
                    Some(out_grad)
                }
                Op::Sum(a) => {
                    let s = out_grad.item();
                    Self::accumulate(&mut g[*a], Tensor::full(val(*a).shape().clone(), s));
                    Some(out_grad)
                }
                Op::Mean(a) => {
                    let len = val(*a).len().max(1);
                    let s = out_grad.item() / len as f64;
                    Self::accumulate(&mut g[*a], Tensor::full(val(*a).shape().clone(), s));
                    Some(out_grad)
                }
                Op::Mse(a) => {
                    let len = val(*a).len().max(1);
                    let c = 2.0 * out_grad.item() / len as f64;
                    Self::accumulate(&mut g[*a], val(*a).scale(c));
                    Some(out_grad)
                }
                Op::WeightedMse(a, w) => {
                    let len = val(*a).len().max(1);
                    let c = 2.0 * out_grad.item() / len as f64;
                    let aw = val(*a).mul(val(*w));
                    let d = aw.scale(c);
                    pool::recycle(aw);
                    Self::accumulate(&mut g[*a], d);
                    Some(out_grad)
                }
                Op::Hstack(parts) => {
                    let m = node.value.shape().nrows();
                    let mut col0 = 0usize;
                    let total = node.value.shape().ncols();
                    for &p in parts {
                        let nc = val(p).shape().ncols();
                        if self.ng(p) {
                            let mut part = Tensor::zeros([m, nc]);
                            let gd = out_grad.data();
                            for (i, row) in part.data_mut().chunks_exact_mut(nc.max(1)).enumerate() {
                                row.copy_from_slice(&gd[i * total + col0..i * total + col0 + nc]);
                            }
                            Self::accumulate(&mut g[p], part);
                        }
                        col0 += nc;
                    }
                    Some(out_grad)
                }
                Op::ColSlice(a, col) => {
                    let src = val(*a);
                    let (m, n) = (src.shape().nrows(), src.shape().ncols());
                    let mut full = Tensor::zeros([m, n]);
                    let fd = full.data_mut();
                    for i in 0..m {
                        fd[i * n + col] = out_grad.data()[i];
                    }
                    Self::accumulate(&mut g[*a], full);
                    Some(out_grad)
                }
                Op::MeanGroups(a, gs) => {
                    let m = val(*a).shape().nrows();
                    let k = m / gs;
                    let mut full = Tensor::zeros([m, 1]);
                    let fd = full.data_mut();
                    for gi in 0..k {
                        let s = out_grad.data()[gi] / *gs as f64;
                        fd[gi * gs..(gi + 1) * gs].fill(s);
                    }
                    Self::accumulate(&mut g[*a], full);
                    Some(out_grad)
                }
                Op::Custom { op, inputs } => {
                    let in_vals: Vec<&Tensor> = inputs.iter().map(|&i| val(i)).collect();
                    let cotangents = op.backward(&in_vals, &node.value, &out_grad);
                    assert_eq!(
                        cotangents.len(),
                        inputs.len(),
                        "custom op {} returned {} cotangents for {} inputs",
                        op.name(),
                        cotangents.len(),
                        inputs.len()
                    );
                    for (&i, ct) in inputs.iter().zip(cotangents) {
                        if let Some(ct) = ct {
                            if self.ng(i) {
                                Self::accumulate(&mut g[i], ct);
                            }
                        }
                    }
                    Some(out_grad)
                }
            };
            if let Some(t) = spent {
                pool::recycle(t);
            }
        }
        Grads { g }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_chain() {
        // f(x) = mean((tanh(2x + 1))²); check value and gradient vs manual.
        let mut g = Graph::new();
        let x = g.input(Tensor::from_slice(&[0.3, -0.7]));
        let two_x = g.scale(x, 2.0);
        let z = g.add_scalar(two_x, 1.0);
        let t = g.tanh(z);
        let loss = g.mse(t);
        let want: f64 = [0.3f64, -0.7]
            .iter()
            .map(|&xi| (2.0 * xi + 1.0).tanh().powi(2))
            .sum::<f64>()
            / 2.0;
        assert!((g.value(loss).item() - want).abs() < 1e-14);
        let grads = g.backward(loss);
        let gx = grads.get(x).unwrap();
        for (i, &xi) in [0.3f64, -0.7].iter().enumerate() {
            let t = (2.0 * xi + 1.0).tanh();
            let manual = 2.0 * t * (1.0 - t * t) * 2.0 / 2.0;
            assert!((gx.data()[i] - manual).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn matmul_gradients() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1.
        let mut g = Graph::new();
        let a = g.input(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.input(Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let c = g.matmul(a, b);
        let loss = g.sum(c);
        let grads = g.backward(loss);
        let ga = grads.get(a).unwrap();
        // row sums of B = [11, 15]
        assert_eq!(ga.row(0), &[11.0, 15.0]);
        assert_eq!(ga.row(1), &[11.0, 15.0]);
        let gb = grads.get(b).unwrap();
        // column sums of A = [4, 6] replicated per row of B
        assert_eq!(gb.row(0), &[4.0, 4.0]);
        assert_eq!(gb.row(1), &[6.0, 6.0]);
    }

    #[test]
    fn bias_gradient_is_row_sum() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let b = g.input(Tensor::from_slice(&[0.5, -0.5]));
        let y = g.add_bias(x, b);
        let loss = g.sum(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(b).unwrap().data(), &[3.0, 3.0]);
        assert!(grads.get(x).is_none(), "constant must get no gradient");
    }

    #[test]
    fn fanout_accumulates() {
        // y = x·x (as mul of the same node) → dy/dx = 2x.
        let mut g = Graph::new();
        let x = g.input(Tensor::from_slice(&[3.0]));
        let y = g.mul(x, x);
        let loss = g.sum(y);
        let grads = g.backward(loss);
        assert!((grads.get(x).unwrap().data()[0] - 6.0).abs() < 1e-14);
    }

    #[test]
    fn hstack_splits_gradient() {
        let mut g = Graph::new();
        let a = g.input(Tensor::column(&[1.0, 2.0]));
        let b = g.input(Tensor::column(&[3.0, 4.0]));
        let s = g.hstack(&[a, b]);
        let sq = g.square(s);
        let loss = g.sum(sq);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[2.0, 4.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[6.0, 8.0]);
    }

    #[test]
    fn weighted_mse_value_and_gradient() {
        let mut g = Graph::new();
        let r = g.input(Tensor::from_slice(&[1.0, -2.0]));
        let w = g.constant(Tensor::from_slice(&[2.0, 0.5]));
        let loss = g.weighted_mse(r, w);
        // (2·1 + 0.5·4)/2 = 2.0
        assert!((g.value(loss).item() - 2.0).abs() < 1e-14);
        let grads = g.backward(loss);
        // d/dr_i = 2 w_i r_i / n
        assert_eq!(grads.get(r).unwrap().data(), &[2.0, -1.0]);
    }

    #[test]
    fn jet_affine_tanh_matches_unfused_gradients() {
        // A one-block stack (no coordinates) through the stacked dense and
        // tanh ops must reproduce matmul → add_bias → tanh.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let xs = Tensor::randn([5, 3], 1.0, &mut rng);
        let ws = Tensor::randn([3, 4], 1.0, &mut rng);
        let bs = Tensor::randn([4], 1.0, &mut rng);

        // Unfused reference: matmul → add_bias → tanh.
        let mut g1 = Graph::new();
        let (x1, w1, b1) = (
            g1.input(xs.clone()),
            g1.input(ws.clone()),
            g1.input(bs.clone()),
        );
        let mm = g1.matmul(x1, w1);
        let z1 = g1.add_bias(mm, b1);
        let y1 = g1.tanh(z1);
        let l1 = g1.mse(y1);
        let r1 = g1.backward(l1);

        // Stacked path.
        let mut g2 = Graph::new();
        let (x2, w2, b2) = (
            g2.input(xs.clone()),
            g2.input(ws.clone()),
            g2.input(bs.clone()),
        );
        let z2 = g2.jet_affine(x2, w2, Some(b2), 1);
        let y2 = g2.jet_tanh(z2, 0, 0);
        let l2 = g2.mse(y2);
        assert!(g2.value(y2).approx_eq(g1.value(y1), 1e-12));
        let r2 = g2.backward(l2);
        for (u, f) in [(x1, x2), (w1, w2), (b1, b2)] {
            assert!(
                r2.get(f).unwrap().approx_eq(r1.get(u).unwrap(), 1e-12),
                "stacked affine + tanh gradient diverged"
            );
        }

        // The dense op alone as well.
        let mut g3 = Graph::new();
        let (x3, w3, b3) = (g3.input(xs), g3.input(ws), g3.input(bs));
        let y3 = g3.jet_affine(x3, w3, Some(b3), 1);
        let l3 = g3.mse(y3);
        let r3 = g3.backward(l3);
        let mm3 = g1.matmul(x1, w1);
        let z3 = g1.add_bias(mm3, b1);
        let l1b = g1.mse(z3);
        let r1b = g1.backward(l1b);
        for (u, f) in [(x1, x3), (w1, w3), (b1, b3)] {
            assert!(
                r3.get(f).unwrap().approx_eq(r1b.get(u).unwrap(), 1e-12),
                "stacked affine gradient diverged"
            );
        }
    }

    #[test]
    fn jet_tanh_derivative_block_matches_composites() {
        // With a unit first-derivative seed, the d block of a tanh jet is
        // exactly 1 − tanh²x: the same bits as the tanh → one_minus_square
        // composite, and d(sum)/dx = −2·tanh·(1 − tanh²).
        let xs = [-1.2, -0.3, 0.0, 0.4, 2.5];
        let n = xs.len();
        let mut stack = xs.to_vec();
        stack.extend([1.0; 5]);
        stack.extend([0.0; 5]);
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec([3 * n, 1], stack));
        let y = g.jet_tanh(x, 1, 1);
        let u = g.row_block(y, 0, n);
        let d = g.row_block(y, n, n);
        let xc = g.constant(Tensor::column(&xs));
        let tr = g.tanh(xc);
        let dr = g.one_minus_square(tr);
        assert!(g.value(u).approx_eq(g.value(tr), 0.0));
        assert!(g.value(d).approx_eq(g.value(dr), 0.0));
        let loss = g.sum(d);
        let grads = g.backward(loss);
        let gx = grads.get(x).unwrap();
        for (gi, &xi) in gx.data()[..n].iter().zip(&xs) {
            let t = xi.tanh();
            let manual = -2.0 * t * (1.0 - t * t);
            assert!((gi - manual).abs() < 1e-12);
        }
        // The seed rows: ∂/∂z′ = σ' = 1 − t², ∂/∂z″ = 0 (dd block unread).
        for (i, &xi) in xs.iter().enumerate() {
            let t = xi.tanh();
            assert!((gx.data()[n + i] - (1.0 - t * t)).abs() < 1e-12);
            assert_eq!(gx.data()[2 * n + i], 0.0);
        }
    }

    #[test]
    fn row_blocks_route_gradients_and_zero_unread_rows() {
        let mut g = Graph::new();
        let x = g.input(Tensor::column(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let top = g.row_block(x, 0, 2);
        let mid = g.row_block(x, 2, 2);
        assert_eq!(g.value(mid).data(), &[3.0, 4.0]);
        let a = g.square(top);
        let b = g.scale(mid, 3.0);
        let s = g.sum(a);
        let t = g.sum(b);
        let loss = g.add(s, t);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 4.0, 3.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn dropped_tape_returns_its_values_to_the_pool() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros([64, 8]));
        let y = g.tanh(x);
        let _ = g.scale(y, 2.0);
        let before = pool::stats().recycled;
        drop(g);
        assert!(pool::stats().recycled - before >= 3, "every node value recycled");
    }

    #[test]
    #[should_panic]
    fn backward_from_vector_panics() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_slice(&[1.0, 2.0]));
        let y = g.square(x);
        let _ = g.backward(y);
    }

    #[test]
    fn div_and_transcendental_gradients() {
        // f = sum(sin(x)/exp(x)); f' = (cos - sin)/exp.
        let mut g = Graph::new();
        let x = g.input(Tensor::from_slice(&[0.4, 1.2]));
        let s = g.sin(x);
        let e = g.exp(x);
        let q = g.div(s, e);
        let loss = g.sum(q);
        let grads = g.backward(loss);
        for (i, &xi) in [0.4f64, 1.2].iter().enumerate() {
            let manual = (xi.cos() - xi.sin()) / xi.exp();
            assert!(
                (grads.get(x).unwrap().data()[i] - manual).abs() < 1e-12,
                "i={i}"
            );
        }
    }

    #[test]
    fn custom_op_roundtrip() {
        struct Double;
        impl CustomOp for Double {
            fn name(&self) -> &str {
                "double"
            }
            fn backward(
                &self,
                _inputs: &[&Tensor],
                _output: &Tensor,
                out_grad: &Tensor,
            ) -> Vec<Option<Tensor>> {
                vec![Some(out_grad.scale(2.0))]
            }
        }
        let mut g = Graph::new();
        let x = g.input(Tensor::from_slice(&[1.5, 2.5]));
        let fwd = g.value(x).scale(2.0);
        let y = g.custom(Box::new(Double), &[x], fwd);
        let loss = g.sum(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    fn col_slice_forward_and_backward() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let c1 = g.col(x, 1);
        assert_eq!(g.value(c1).data(), &[2.0, 4.0]);
        assert_eq!(g.value(c1).shape().dims(), &[2, 1]);
        let sq = g.square(c1);
        let loss = g.sum(sq);
        let grads = g.backward(loss);
        let gx = grads.get(x).unwrap();
        assert_eq!(gx.row(0), &[0.0, 4.0]);
        assert_eq!(gx.row(1), &[0.0, 8.0]);
    }

    #[test]
    fn mean_groups_forward_and_backward() {
        let mut g = Graph::new();
        let x = g.input(Tensor::column(&[1.0, 3.0, 10.0, 20.0]));
        let m = g.mean_groups(x, 2);
        assert_eq!(g.value(m).data(), &[2.0, 15.0]);
        let sq = g.square(m);
        let loss = g.sum(sq);
        let grads = g.backward(loss);
        // d/dx_i = 2·mean_g · (1/gs)
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 2.0, 15.0, 15.0]);
    }

    #[test]
    fn lincomb_matches_manual() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_slice(&[1.0, 2.0]));
        let b = g.input(Tensor::from_slice(&[3.0, 4.0]));
        let l = g.lincomb(&[(2.0, a), (-1.0, b)]);
        assert_eq!(g.value(l).data(), &[-1.0, 0.0]);
        let loss = g.sum(l);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[2.0, 2.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[-1.0, -1.0]);
    }
}
