//! # qpinn-tensor
//!
//! A small, fast, dependency-light dense tensor engine in `f64`, used as the
//! numeric substrate of the PINN stack (`qpinn-autodiff` builds a reverse-mode
//! tape on top of it).
//!
//! Design points, following the session's HPC guides:
//!
//! * row-major contiguous storage (`Vec<f64>`), rank ≤ 2 in practice
//!   (batched column features and weight matrices) but arbitrary-rank shapes
//!   are supported for elementwise/reduction work;
//! * data-parallel kernels via rayon: matrix multiplication is blocked over
//!   output rows with `par_chunks_mut`, elementwise kernels parallelize only
//!   above a size threshold so small tensors do not pay fork/join overhead;
//! * a runtime-dispatched SIMD layer ([`simd`]): every inner loop runs one
//!   shared algorithm instantiated at scalar, AVX2 (4-lane) and AVX-512
//!   (8-lane) widths, selected once at startup from CPUID and overridable
//!   via `QPINN_SIMD`. Results are bit-identical across widths *and* thread
//!   counts — reductions keep eight fixed accumulation lanes at every
//!   width, and transcendentals share one branch-free polynomial kernel.
//!   `unsafe` is confined to that module's intrinsic calls behind runtime
//!   feature detection; everything above it is safe slice code;
//! * register-blocked matmul micro-kernels ([`Tensor::matmul`] and its
//!   transposed layouts, with slice-level [`gemm_nn`]/[`gemm_tn`]/
//!   [`gemm_nt`]) and the jet-stack kernels ([`Tensor::jet_affine`],
//!   [`Tensor::jet_tanh`], [`Tensor::jet_sin`], [`Tensor::jet_sin_cos`]
//!   and their backward passes), which push a whole second-order jet
//!   through a layer in one sweep, with outputs drawn from a thread-local
//!   buffer [`pool`].
//!
//! ```
//! use qpinn_tensor::Tensor;
//! let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert!(c.approx_eq(&a, 1e-12));
//! ```

#![deny(missing_docs)]

mod elementwise;
mod fused;
mod matmul;
pub mod pool;
mod random;
mod reduce;
mod shape;
pub mod simd;
mod stack;
mod tensor;

pub use matmul::{gemm_nn, gemm_nt, gemm_tn};
pub use shape::Shape;
pub use stack::JetAffineGrads;
pub use tensor::Tensor;

/// Serial/parallel cutoffs and blocking factors for every tensor kernel,
/// tuned against the real work-dealing pool in `third_party/rayon`.
///
/// With an actual threaded runtime a parallel launch costs a condvar wake
/// plus one atomic claim per chunk (order of a few microseconds), so the
/// cutoffs sit where that overhead is amortized by at least ~10× on a
/// multi-core host. They are deliberately centralized: a cutoff split
/// across kernels drifts, and the right values changed once fork/join
/// became real (the old sequential stand-in made parallel dispatch free,
/// which let thresholds sit artificially low).
pub(crate) mod tune {
    /// FLOP count (`m·k·n` multiply-adds) above which the matmul kernels
    /// parallelize over row blocks. Below this, a single launch costs more
    /// than the kernel itself.
    pub const PAR_FLOPS: usize = 128 * 1024;

    /// Element count above which elementwise/reduction kernels
    /// parallelize.
    pub const PAR_THRESHOLD: usize = 32 * 1024;

    /// Fixed elementwise/reduction chunk size. Reduction partials are
    /// computed per chunk and combined in chunk-index order, so this
    /// constant — never the thread count — defines the floating-point
    /// association and keeps results bit-identical at any pool width.
    pub const CHUNK: usize = 4096;

    /// Output rows per parallel task in the matmul kernels: large enough
    /// that a task amortizes its claim, small enough that chunk dealing
    /// can balance ragged tails.
    pub const ROW_BLOCK: usize = 16;

    /// Depth of the shared-operand panel (`k` in `matmul`, `m` in
    /// `matmul_tn`) each task streams through: `K_BLOCK` rows of B
    /// (`256·n` doubles) stay hot in L1/L2 while the task's `ROW_BLOCK`
    /// output rows accumulate against them.
    pub const K_BLOCK: usize = 256;
}

pub(crate) use tune::PAR_THRESHOLD;

#[cfg(test)]
mod proptests;
