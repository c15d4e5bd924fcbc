//! Kernels over row-stacked second-order jets.
//!
//! A jet stack is one `[(1 + k + k₂)·n, w]` tensor holding a batch of `n`
//! rows, its first derivatives with respect to `k` coordinates and the
//! diagonal second derivatives of the leading `k₂ ≤ k` of them, stacked
//! by rows in the order value, `d_0 … d_{k−1}`, `dd_0 … dd_{k₂−1}`. The
//! second derivatives form a prefix of the coordinates because `dd_i`
//! needs `d_i`, and a residual that reads no `∂²` of some coordinate
//! (time, in a first-order-in-time PDE) has it last. `k₂ = k` is the full
//! jet and `k = 0` the value path. A network layer then runs over the
//! whole stack in one call:
//!
//! * [`Tensor::jet_affine`] — one matmul over every row (rows are
//!   independent, so each block gets the bits it would get alone), the
//!   bias added to the value block only;
//! * [`Tensor::jet_tanh`], [`Tensor::jet_sin`], [`Tensor::jet_sin_cos`] —
//!   the chain rule to second order, elementwise per row, on the SIMD
//!   kernels of `simd::jet`;
//! * the matching `*_backward` methods, which return the input gradient
//!   (and, for the dense layer, the parameter gradients).
//!
//! Every kernel replays the floating-point operation order of the per-block
//! tape chain it replaces, so a stacked network is bit-identical to one
//! that pushed each block through its own tape nodes. In particular the
//! weight gradient of [`Tensor::jet_affine_backward`] comes back block by
//! block, `Xₛᵀ·Gₛ` from the last block to the first, for the tape to add
//! to the weight's gradient one at a time: a single `Xᵀ·G` over the whole
//! stack, or a pre-summed one, would reassociate the sum once the weight
//! also collects gradient from another pass. The per-block products still
//! run as one parallel operation, and the input gradient as one `G·Wᵀ`
//! over the whole stack (its rows are independent).

use crate::matmul::{gemm_nn, gemm_nt, gemm_tn_blocks};
use crate::tune::CHUNK;
use crate::{pool, simd, Tensor, PAR_THRESHOLD};
use rayon::prelude::*;

/// Regroup `blocks` equal consecutive blocks of `buf` (rows of `row_len`
/// elements) by chunk: entry `c` holds the `c`-th `rows`-row piece of every
/// block, in block order.
fn by_chunk(buf: &[f64], blocks: usize, row_len: usize, rows: usize) -> Vec<Vec<&[f64]>> {
    let per_block = buf.len() / blocks;
    let mut out: Vec<Vec<&[f64]>> = Vec::new();
    for block in buf.chunks_exact(per_block) {
        for (c, piece) in block.chunks(rows * row_len).enumerate() {
            if c == out.len() {
                out.push(Vec::with_capacity(blocks));
            }
            out[c].push(piece);
        }
    }
    out
}

fn by_chunk_mut(buf: &mut [f64], blocks: usize, row_len: usize, rows: usize) -> Vec<Vec<&mut [f64]>> {
    let per_block = buf.len() / blocks;
    let mut out: Vec<Vec<&mut [f64]>> = Vec::new();
    for block in buf.chunks_exact_mut(per_block) {
        for (c, piece) in block.chunks_mut(rows * row_len).enumerate() {
            if c == out.len() {
                out.push(Vec::with_capacity(blocks));
            }
            out[c].push(piece);
        }
    }
    out
}

/// Rows per parallel task for rows of `row_len` elements.
fn task_rows(row_len: usize) -> usize {
    (CHUNK / row_len.max(1)).max(1)
}

/// Run `f` over `tasks`, on the pool when the kernel touches at least
/// [`PAR_THRESHOLD`] output elements.
fn run<T: Send>(tasks: Vec<T>, elems: usize, f: impl Fn(T) + Sync + Send) {
    if elems >= PAR_THRESHOLD && tasks.len() > 1 {
        tasks.into_par_iter().for_each(f);
    } else {
        tasks.into_iter().for_each(f);
    }
}

/// Rows, width and per-block rows of a stack with `1 + k + k2` blocks.
fn stack_dims(t: &Tensor, k: usize, k2: usize) -> (usize, usize, usize) {
    let (rows, w) = (t.shape().nrows(), t.shape().ncols());
    assert!(
        k2 <= k,
        "jet stack: {k2} second-derivative blocks for {k} coordinates"
    );
    let blocks = 1 + k + k2;
    assert!(
        rows.is_multiple_of(blocks),
        "jet stack of shape {} does not split into {blocks} blocks",
        t.shape()
    );
    (rows, w, rows / blocks)
}

/// Gradients of [`Tensor::jet_affine_backward`]; empty where not
/// requested.
#[derive(Debug)]
pub struct JetAffineGrads {
    /// Gradient of the input stack.
    pub x: Option<Tensor>,
    /// Weight-gradient contributions `Xₛᵀ·Gₛ`, one per block from the last
    /// block to the first. A tape adds them to the weight's gradient one
    /// at a time, in this order, as the per-block nodes did.
    pub w: Vec<Tensor>,
    /// Gradient of the bias (the column sums of the value block).
    pub b: Option<Tensor>,
}

impl Tensor {
    /// The seed stack of input coordinate `coord` out of `k`, with `k2`
    /// second-derivative blocks, from the `[n, 1]` column of its values:
    /// the column, a unit first derivative along its own coordinate, zero
    /// elsewhere.
    pub fn jet_seed(&self, coord: usize, k: usize, k2: usize) -> Tensor {
        let n = self.len();
        assert!(coord < k || k == 0, "seed coordinate {coord} of {k}");
        assert!(
            k2 <= k,
            "seed with {k2} second-derivative blocks for {k} coordinates"
        );
        let rows = (1 + k + k2) * n;
        let mut out = pool::take(rows);
        out[..n].copy_from_slice(self.data());
        if k > 0 {
            out[(1 + coord) * n..(2 + coord) * n].fill(1.0);
        }
        Tensor::from_vec([rows, 1], out)
    }

    /// Rows `[r0, r0 + n)` of a rank-2 tensor, copied into a pooled buffer.
    pub fn rows(&self, r0: usize, n: usize) -> Tensor {
        let w = self.shape().ncols();
        let mut out = pool::take_uninit(n * w);
        out.copy_from_slice(&self.data()[r0 * w..(r0 + n) * w]);
        Tensor::from_vec([n, w], out)
    }

    /// Add `src` into rows `[r0, r0 + src.rows)` of `self`.
    pub fn add_rows(&mut self, r0: usize, src: &Tensor) {
        let w = self.shape().ncols();
        assert_eq!(src.shape().ncols(), w, "add_rows width");
        let n = src.shape().nrows();
        simd::vaxpy(1.0, src.data(), &mut self.data_mut()[r0 * w..(r0 + n) * w]);
    }

    /// Dense layer over a jet stack: `self · w` for every row, with `bias`
    /// seeded into the output accumulator of the first `value_rows` rows
    /// (the value block) and the derivative rows starting from zero (as
    /// [`Tensor::matmul`] does).
    ///
    /// # Panics
    /// Panics when shapes are incompatible.
    pub fn jet_affine(&self, w: &Tensor, bias: Option<&Tensor>, value_rows: usize) -> Tensor {
        let (m, k) = (self.shape().nrows(), self.shape().ncols());
        let (kb, n) = (w.shape().nrows(), w.shape().ncols());
        assert_eq!(k, kb, "jet_affine: {} · {}", self.shape(), w.shape());
        if let Some(b) = bias {
            assert_eq!(b.shape().dims(), &[n], "jet_affine bias shape {}", b.shape());
        }
        let mut out = pool::take_uninit(m * n);
        gemm_nn(self.data(), w.data(), (m, k, n), bias.map(Tensor::data), value_rows, &mut out);
        Tensor::from_vec([m, n], out)
    }

    /// Backward of [`Tensor::jet_affine`] on the stack `self` of `blocks`
    /// blocks, given the output gradient `g`: `∂X = G·Wᵀ` over the whole
    /// stack, the weight contributions `Xₛᵀ·Gₛ` of every block in one
    /// parallel operation (returned from the last block to the first), and
    /// the bias gradient as the column sum of the value block. `want`
    /// selects `(x, w, b)`.
    pub fn jet_affine_backward(
        &self,
        w: &Tensor,
        g: &Tensor,
        blocks: usize,
        want: (bool, bool, bool),
    ) -> JetAffineGrads {
        let (rows, fi) = (self.shape().nrows(), self.shape().ncols());
        let fo = w.shape().ncols();
        assert_eq!(g.shape().dims(), &[rows, fo], "jet_affine_backward gradient shape");
        assert!(
            rows.is_multiple_of(blocks),
            "jet_affine_backward: {rows} rows do not split into {blocks} blocks"
        );
        let n = rows / blocks;
        let (xd, gd) = (self.data(), g.data());
        let dx = want.0.then(|| {
            let mut d = pool::take_uninit(rows * fi);
            gemm_nt(gd, w.data(), (rows, fo, fi), &mut d);
            Tensor::from_vec([rows, fi], d)
        });
        let dw = if want.1 {
            let mut d: Vec<Vec<f64>> = (0..blocks).map(|_| pool::take_uninit(fi * fo)).collect();
            gemm_tn_blocks(xd, gd, (n, fi, fo), &mut d);
            d.into_iter().rev().map(|d| Tensor::from_vec([fi, fo], d)).collect()
        } else {
            Vec::new()
        };
        let db = want.2.then(|| {
            let mut b = pool::take(fo);
            for row in gd[..n * fo].chunks_exact(fo) {
                simd::vaxpy(1.0, row, &mut b);
            }
            Tensor::from_vec([fo], b)
        });
        JetAffineGrads { x: dx, w: dw, b: db }
    }

    /// Tanh over a jet stack with `k` coordinates and `k2` second
    /// derivatives: `u = tanh z`, `d_i = σ'·z′_i`,
    /// `dd_i = σ''·z′_i² + σ'·z″_i` with `σ' = 1 − u²` and `σ'' = (−2u)·σ'`.
    pub fn jet_tanh(&self, k: usize, k2: usize) -> Tensor {
        let (rows, w, _) = stack_dims(self, k, k2);
        let mut out = pool::take_uninit(rows * w);
        if !out.is_empty() {
            let (b, r) = (1 + k + k2, task_rows(w));
            let tasks: Vec<_> = by_chunk(self.data(), b, w, r)
                .into_iter()
                .zip(by_chunk_mut(&mut out, b, w, r))
                .collect();
            run(tasks, rows * w, |(z, mut o)| {
                simd::tanh_jet_fwd(&z, &mut o, k, k2)
            });
        }
        Tensor::from_vec([rows, w], out)
    }

    /// Backward of [`Tensor::jet_tanh`] on the stack `self`, given its
    /// output `y` and the output gradient `g`.
    pub fn jet_tanh_backward(&self, y: &Tensor, g: &Tensor, k: usize, k2: usize) -> Tensor {
        let (rows, w, _) = stack_dims(self, k, k2);
        let mut dz = pool::take_uninit(rows * w);
        if !dz.is_empty() {
            let (b, r) = (1 + k + k2, task_rows(w));
            let tasks: Vec<_> = by_chunk(y.data(), b, w, r)
                .into_iter()
                .zip(by_chunk(self.data(), b, w, r))
                .zip(by_chunk(g.data(), b, w, r))
                .zip(by_chunk_mut(&mut dz, b, w, r))
                .collect();
            run(tasks, rows * w, |(((y, z), g), mut d)| {
                simd::tanh_jet_bwd(y[0], &z, &g, &mut d, k, k2)
            });
        }
        Tensor::from_vec([rows, w], dz)
    }

    /// Sine over a jet stack: `u = sin z`, `σ' = cos z`, `σ'' = −sin z`.
    /// The SIMD `sincos` runs once per value element (the bits of
    /// [`Tensor::sin`] and [`Tensor::cos`]); returns the stack and `cos z`
    /// of the value block, which the backward pass reuses.
    pub fn jet_sin(&self, k: usize, k2: usize) -> (Tensor, Tensor) {
        let (rows, w, n) = stack_dims(self, k, k2);
        let mut out = pool::take_uninit(rows * w);
        let mut cos = pool::take_uninit(n * w);
        if !out.is_empty() {
            let (b, r) = (1 + k + k2, task_rows(w));
            let tasks: Vec<_> = by_chunk(self.data(), b, w, r)
                .into_iter()
                .zip(by_chunk_mut(&mut out, b, w, r))
                .zip(cos.chunks_mut(r * w))
                .collect();
            run(tasks, rows * w, |((z, mut o), c)| {
                simd::sincos(z[0], o[0], c);
                simd::sin_jet_fwd(c, &z, &mut o, k, k2)
            });
        }
        (Tensor::from_vec([rows, w], out), Tensor::from_vec([n, w], cos))
    }

    /// Backward of [`Tensor::jet_sin`] on the stack `self`, given its
    /// output `y`, the saved `cos` and the output gradient `g`.
    pub fn jet_sin_backward(
        &self,
        y: &Tensor,
        cos: &Tensor,
        g: &Tensor,
        k: usize,
        k2: usize,
    ) -> Tensor {
        let (rows, w, _) = stack_dims(self, k, k2);
        let mut dz = pool::take_uninit(rows * w);
        if !dz.is_empty() {
            let (b, r) = (1 + k + k2, task_rows(w));
            let tasks: Vec<_> = by_chunk(y.data(), b, w, r)
                .into_iter()
                .zip(cos.data().chunks(r * w))
                .zip(by_chunk(self.data(), b, w, r))
                .zip(by_chunk(g.data(), b, w, r))
                .zip(by_chunk_mut(&mut dz, b, w, r))
                .collect();
            run(tasks, rows * w, |((((y, c), z), g), mut d)| {
                simd::sin_jet_bwd(y[0], c, &z, &g, &mut d, k, k2)
            });
        }
        Tensor::from_vec([rows, w], dz)
    }

    /// Sine and cosine jets of a `[(1+k+k2)·n, w]` stack side by side:
    /// every output row is `[sin part | cos part]`, `2w` wide — the layout
    /// of a per-block `hstack` of the two. The SIMD `sincos` runs once per
    /// value element, on whole vectors even for rows narrower than one, so
    /// the value rows hold the bits of [`Tensor::sin`] and [`Tensor::cos`].
    pub fn jet_sin_cos(&self, k: usize, k2: usize) -> Tensor {
        let (rows, w, _) = stack_dims(self, k, k2);
        let mut out = pool::take_uninit(rows * 2 * w);
        if !out.is_empty() {
            let (b, r) = (1 + k + k2, task_rows(2 * w));
            let tasks: Vec<_> = by_chunk(self.data(), b, w, r)
                .into_iter()
                .zip(by_chunk_mut(&mut out, b, 2 * w, r))
                .collect();
            run(tasks, rows * 2 * w, |(z, mut o)| {
                simd::sincos_rows(z[0], w, o[0]);
                simd::sincos_jet_fwd(&z, &mut o, k, k2, w)
            });
        }
        Tensor::from_vec([rows, 2 * w], out)
    }

    /// Backward of [`Tensor::jet_sin_cos`] on the stack `self`, given its
    /// output `y` and the output gradient `g`.
    pub fn jet_sin_cos_backward(&self, y: &Tensor, g: &Tensor, k: usize, k2: usize) -> Tensor {
        let (rows, w, _) = stack_dims(self, k, k2);
        let mut dz = pool::take_uninit(rows * w);
        if !dz.is_empty() {
            let (b, r) = (1 + k + k2, task_rows(2 * w));
            let tasks: Vec<_> = by_chunk(y.data(), b, 2 * w, r)
                .into_iter()
                .zip(by_chunk(self.data(), b, w, r))
                .zip(by_chunk(g.data(), b, 2 * w, r))
                .zip(by_chunk_mut(&mut dz, b, w, r))
                .collect();
            run(tasks, rows * 2 * w, |(((y, z), g), mut d)| {
                simd::sincos_jet_bwd(y[0], &z, &g, &mut d, k, k2, w)
            });
        }
        Tensor::from_vec([rows, w], dz)
    }
}

#[cfg(test)]
mod tests {
    use crate::matmul::{gemm_nt, gemm_tn};
    use crate::simd::{with_width, WIDTH_LOCK};
    use crate::Tensor;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The per-block loop the stacked backward replaced: from the last
    /// block to the first, `∂Xₛ = Gₛ·Wᵀ` and `Xₛᵀ·Gₛ`, one `gemm_nt` and
    /// one `gemm_tn` each.
    fn per_block(x: &Tensor, w: &Tensor, g: &Tensor, blocks: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        let (rows, fi) = (x.shape().nrows(), x.shape().ncols());
        let fo = w.shape().ncols();
        let n = rows / blocks;
        let (xd, gd) = (x.data(), g.data());
        let mut dx = vec![0.0; rows * fi];
        let mut dw = Vec::new();
        for s in (0..blocks).rev() {
            let gs = &gd[s * n * fo..(s + 1) * n * fo];
            gemm_nt(gs, w.data(), (n, fo, fi), &mut dx[s * n * fi..(s + 1) * n * fi]);
            let mut d = vec![0.0; fi * fo];
            gemm_tn(&xd[s * n * fi..(s + 1) * n * fi], gs, (n, fi, fo), &mut d);
            dw.push(d);
        }
        (dx, dw)
    }

    #[test]
    fn sine_jet_values_are_the_elementwise_sin_and_cos() {
        // The per-slot jet oracle builds `sin z` and `cos z` of the value
        // block with `Tensor::sin`/`cos`: the stacked kernels must give
        // those bits, past the reduction's range as well.
        let _g = WIDTH_LOCK.lock().unwrap();
        // (row width, k, k2): rows narrower than a vector, and wider ones
        // with and without a ragged tail.
        let shapes = [(1, 2, 1), (2, 0, 0), (3, 1, 0), (7, 0, 0), (8, 1, 1), (9, 2, 2), (33, 3, 2), (72, 2, 0)];
        for simd in [1, 4, 8] {
            with_width(simd, || {
                for (w, k, k2) in shapes {
                    let n = 37;
                    let rows = (1 + k + k2) * n;
                    let z = Tensor::from_vec(
                        [rows, w],
                        (0..rows * w)
                            .map(|i| (i as f64 * 0.61).sin() * if i % 29 == 3 { 3e9 } else { 9.0 })
                            .collect::<Vec<_>>(),
                    );
                    let v = z.rows(0, n);
                    let (sin, cos) = (v.sin(), v.cos());
                    let at = format!("width {simd}, rows of {w}, k {k}, k2 {k2}");
                    let (s, c) = z.jet_sin(k, k2);
                    assert_eq!(bits(&s.data()[..n * w]), bits(sin.data()), "jet_sin value, {at}");
                    assert_eq!(bits(c.data()), bits(cos.data()), "jet_sin saved cos, {at}");
                    let sc = z.jet_sin_cos(k, k2);
                    let want: Vec<f64> = sin
                        .data()
                        .chunks(w)
                        .zip(cos.data().chunks(w))
                        .flat_map(|(s, c)| s.iter().chain(c))
                        .copied()
                        .collect();
                    let got = bits(&sc.data()[..2 * n * w]);
                    assert_eq!(got, bits(&want), "jet_sin_cos value rows, {at}");
                }
            });
        }
    }

    #[test]
    fn stacked_backward_matches_the_per_block_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(27);
        let mut rand_t = |r: usize, c: usize| {
            Tensor::from_vec([r, c], (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<_>>())
        };
        let _g = WIDTH_LOCK.lock().unwrap();
        for blocks in [1, 4, 5] {
            for (fi, fo) in [(4, 32), (64, 32), (32, 2), (1, 1)] {
                for n in [37, 1024] {
                    let x = rand_t(blocks * n, fi);
                    let w = rand_t(fi, fo);
                    let g = rand_t(blocks * n, fo);
                    for simd in [1, 4, 8] {
                        for threads in [1, 2] {
                            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                            let run = || {
                                pool.install(|| {
                                    let want = per_block(&x, &w, &g, blocks);
                                    let got = x.jet_affine_backward(&w, &g, blocks, (true, true, false));
                                    (want, got)
                                })
                            };
                            let Some(((dx, dw), got)) = with_width(simd, run) else {
                                continue;
                            };
                            let at = format!("{blocks} blocks, {fi}→{fo}, n {n}, width {simd}, {threads} threads");
                            assert_eq!(bits(got.x.as_ref().unwrap().data()), bits(&dx), "∂X, {at}");
                            assert_eq!(got.w.len(), blocks, "{at}");
                            for (s, (got, want)) in got.w.iter().zip(&dw).enumerate() {
                                assert_eq!(bits(got.data()), bits(want), "Xₛᵀ·Gₛ {s} from the end, {at}");
                            }
                        }
                    }
                }
            }
        }
    }
}
