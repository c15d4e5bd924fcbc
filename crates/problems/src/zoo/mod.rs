//! The problem registry: PDE families as *data*, not code.
//!
//! A [`PdeProblem`] bundles everything the generic trainer, the bench
//! matrix, and the conformance harness need to know about one PDE family:
//! the residual operator (built directly on the autodiff tape from
//! coordinate [`Jet`]s), the domain and its coordinate kinds, IC/BC
//! condition sets, an optional closed-form solution, and a
//! reference-solver factory. Families register under a stable string key
//! in [`lookup`]/[`keys`] — mirroring the snapshot-backed model registry
//! in `qpinn-serve` — so adding a scenario means registering one file, and
//! every registered scenario is automatically swept by the cross-check
//! harness in `tests/problem_registry.rs` and `tests/solver_crosscheck.rs`.

use qpinn_autodiff::jet::Jet;
use qpinn_autodiff::{Graph, Var};
use qpinn_tensor::Tensor;

mod convdiff;
mod gray_scott;
mod helmholtz;
mod klein_gordon;
mod ported;
mod wave;

pub use ported::{
    eigenstate, nls, schrodinger_residuals, tdse, tdse2d, trap_frequency, EigenRef,
};

/// How the surrogate should treat one input coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordKind {
    /// Spatial coordinate with periodic identification of the edges.
    Periodic,
    /// Spatial coordinate on a plain bounded interval.
    Bounded,
    /// Time: bounded, initial data at the lower edge.
    Time,
}

/// One input coordinate of a problem.
#[derive(Clone, Debug)]
pub struct CoordDef {
    /// Short name (`"x"`, `"y"`, `"t"`).
    pub name: &'static str,
    /// Lower edge.
    pub lo: f64,
    /// Upper edge.
    pub hi: f64,
    /// Coordinate kind.
    pub kind: CoordKind,
}

impl CoordDef {
    /// Interval length.
    pub fn span(&self) -> f64 {
        self.hi - self.lo
    }
}

/// A sampled initial/boundary condition set with exact targets.
#[derive(Clone, Debug)]
pub struct Condition {
    /// Label used in loss telemetry and harness diagnostics (`"ic"`,
    /// `"bc"`, `"ic-velocity"`, …).
    pub name: &'static str,
    /// `None`: the targets constrain field values. `Some(c)`: they
    /// constrain the first derivative along coordinate `c` (e.g. the
    /// initial velocity of a wave problem).
    pub deriv: Option<usize>,
    /// Coordinate tuples where the condition applies.
    pub points: Vec<Vec<f64>>,
    /// Target values, one `n_outputs`-vector per point.
    pub targets: Vec<Vec<f64>>,
}

/// Reference-solution resolution: tests use `Quick`, benches `Full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fidelity {
    /// Coarse but fast — for smoke tests and CI.
    Quick,
    /// Publication-grade resolution.
    Full,
}

/// A dense reference solution that can be sampled anywhere in the domain.
pub trait RefSolution: Send + Sync {
    /// All output components at one coordinate tuple.
    fn sample(&self, point: &[f64]) -> Vec<f64>;
    /// Node coordinates per axis at which [`RefSolution::sample`] is
    /// exact (solver grid nodes / stored time stamps). The conformance
    /// harness differentiates the reference *node-to-node* so bilinear
    /// interpolation error never pollutes the finite differences.
    fn grids(&self) -> Vec<Vec<f64>>;
}

/// One registered PDE family.
pub trait PdeProblem: Send + Sync {
    /// Stable registry key (also the `--problem` flag value).
    fn key(&self) -> &'static str;
    /// One-line human description.
    fn describe(&self) -> &'static str;
    /// Input coordinates, in column order.
    fn coords(&self) -> Vec<CoordDef>;
    /// Number of output field components.
    fn n_outputs(&self) -> usize;
    /// Build the residual columns on the tape. `fields` holds one [`Jet`]
    /// per output component (value + per-coordinate first/second
    /// derivatives at the collocation `points`); the returned `Var`s are
    /// `[n, 1]` residual columns to be driven to zero. A family with
    /// [`PdeProblem::unknowns`] evaluates them at their initial values.
    fn residuals(&self, g: &mut Graph, fields: &[Jet], points: &[Vec<f64>]) -> Vec<Var>;
    /// How many leading coordinates the residual reads a second derivative
    /// of: the jet handed to [`PdeProblem::residuals`] need only carry
    /// `dd[i]` for `i` below this count, and a trainer builds no more. The
    /// default is every coordinate. A first-order-in-time family, whose
    /// time coordinate comes last, returns the number of spatial ones.
    fn second_derivatives(&self) -> usize {
        self.coords().len()
    }
    /// Scalar constants the residual reads that training identifies (an
    /// eigenvalue, a trap frequency), each named with its initial value.
    /// Empty (the default) for every registered family.
    fn unknowns(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// [`PdeProblem::residuals`] with the unknowns as `[1, 1]` tape nodes,
    /// in the order [`PdeProblem::unknowns`] lists them. The default, for
    /// families without unknowns, ignores the empty list.
    fn residuals_with(
        &self,
        g: &mut Graph,
        fields: &[Jet],
        points: &[Vec<f64>],
        _unknowns: &[Var],
    ) -> Vec<Var> {
        self.residuals(g, fields, points)
    }
    /// IC/BC condition sets, each sampled at roughly `n` points.
    fn conditions(&self, n: usize) -> Vec<Condition>;
    /// Closed-form solution at a point, when one exists.
    fn analytic(&self, point: &[f64]) -> Option<Vec<f64>>;
    /// The primary reference solution (what training error is scored
    /// against).
    fn reference(&self, fidelity: Fidelity) -> Box<dyn RefSolution>;
    /// A second, methodologically independent numeric solution when one
    /// is available (different discretization from [`PdeProblem::reference`]).
    /// Every problem must provide [`PdeProblem::analytic`] or this — the
    /// harness enforces it.
    fn independent_check(&self) -> Option<Box<dyn RefSolution>> {
        None
    }
    /// Human-readable description of the cross-check method, for the
    /// problem-zoo docs and the `qpinn-problems-v1` listing.
    fn check_method(&self) -> &'static str;
    /// Absolute tolerance for the residual-of-reference finite-difference
    /// check (reference solutions carry discretization error; the check
    /// exists to catch sign/term mistakes, which show up at `O(1)`).
    fn residual_tol(&self) -> f64 {
        0.05
    }
    /// The conserved `∫|ψ|²` over the spatial domain (summed over the
    /// outputs), for a wavefunction with a time-independent norm: the
    /// real and imaginary parts of a Schrödinger state, or one real
    /// stationary state. `None` (the default) for every family without
    /// one; a norm-conservation loss needs `Some`.
    fn conserved_norm(&self) -> Option<f64> {
        None
    }
    /// States the solution must be orthogonal to over the spatial domain
    /// (the lower states an excited state is deflated against). Empty by
    /// default.
    fn orthogonal_to(&self) -> Vec<&dyn RefSolution> {
        Vec::new()
    }
}

/// Error returned by [`lookup`] for an unregistered key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownProblem {
    /// The key that failed to resolve.
    pub key: String,
}

impl std::fmt::Display for UnknownProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown problem `{}` (registered: {})",
            self.key,
            keys().join(", ")
        )
    }
}

impl std::error::Error for UnknownProblem {}

type Factory = fn() -> Box<dyn PdeProblem>;

/// The registration table. Keep sorted by key; [`keys`] asserts it.
const TABLE: &[(&str, Factory)] = &[
    ("convection-diffusion", convdiff::problem),
    ("eigen-harmonic", ported::eigen_harmonic),
    ("gray-scott", gray_scott::problem),
    ("helmholtz", helmholtz::problem),
    ("klein-gordon", klein_gordon::problem),
    ("nls-soliton", ported::nls_soliton),
    ("tdse-free", ported::tdse_free),
    ("tdse-harmonic", ported::tdse_harmonic),
    ("tdse2d-free", ported::tdse2d_free),
    ("wave", wave::problem),
];

/// All registered keys, sorted and stable across calls.
pub fn keys() -> Vec<&'static str> {
    let ks: Vec<&'static str> = TABLE.iter().map(|(k, _)| *k).collect();
    debug_assert!(ks.windows(2).all(|w| w[0] < w[1]), "TABLE must stay sorted");
    ks
}

/// Resolve a key to a boxed problem definition. Unknown keys are an
/// error, never a panic.
pub fn lookup(key: &str) -> Result<Box<dyn PdeProblem>, UnknownProblem> {
    TABLE
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, f)| f())
        .ok_or_else(|| UnknownProblem {
            key: key.to_string(),
        })
}

// ---------------------------------------------------------------------------
// Shared helpers for family implementations.

/// A constant `[n, 1]` tape column of `f(point)` over `points`.
pub(crate) fn point_column(
    g: &mut Graph,
    points: &[Vec<f64>],
    f: impl Fn(&[f64]) -> f64,
) -> Var {
    let col: Vec<f64> = points.iter().map(|p| f(p)).collect();
    g.constant(Tensor::column(&col))
}

/// `n` uniformly spaced values on `[lo, hi]`; periodic coordinates omit
/// the duplicated right edge.
pub(crate) fn uniform(lo: f64, hi: f64, n: usize, periodic: bool) -> Vec<f64> {
    let denom = if periodic { n } else { n - 1 } as f64;
    (0..n).map(|i| lo + (hi - lo) * i as f64 / denom).collect()
}

/// Reference backed by a closed-form expression, sampled exactly
/// everywhere; `grids` advertises a uniform evaluation lattice.
pub(crate) struct AnalyticRef<F: Fn(&[f64]) -> Vec<f64> + Send + Sync> {
    pub f: F,
    pub grids: Vec<Vec<f64>>,
}

impl<F: Fn(&[f64]) -> Vec<f64> + Send + Sync> RefSolution for AnalyticRef<F> {
    fn sample(&self, point: &[f64]) -> Vec<f64> {
        (self.f)(point)
    }
    fn grids(&self) -> Vec<Vec<f64>> {
        self.grids.clone()
    }
}

/// Reference backed by a real multi-component MOL field; exposes the
/// first `n_out` components (wave-type systems integrate `(u, u_t)` but
/// expose only `u`).
pub(crate) struct MolRef {
    pub field: qpinn_solvers::FieldR1d,
    pub n_out: usize,
}

impl RefSolution for MolRef {
    fn sample(&self, point: &[f64]) -> Vec<f64> {
        let mut v = self.field.sample(point[0], point[1]);
        v.truncate(self.n_out);
        v
    }
    fn grids(&self) -> Vec<Vec<f64>> {
        vec![self.field.grid().points(), self.field.times().to_vec()]
    }
}

/// Reference backed by a complex 1D field, exposed as `(Re, Im)`.
pub(crate) struct ComplexFieldRef {
    pub field: qpinn_solvers::Field1d,
}

impl RefSolution for ComplexFieldRef {
    fn sample(&self, point: &[f64]) -> Vec<f64> {
        let c = self.field.sample(point[0], point[1]);
        vec![c.re, c.im]
    }
    fn grids(&self) -> Vec<Vec<f64>> {
        vec![self.field.grid().points(), self.field.times().to_vec()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_resolves_every_key() {
        for k in keys() {
            let p = lookup(k).unwrap();
            assert_eq!(p.key(), k);
            assert!(p.n_outputs() >= 1);
            assert!(!p.coords().is_empty());
        }
    }

    #[test]
    fn unknown_key_is_an_error_with_listing() {
        let e = match lookup("no-such-pde") {
            Ok(_) => panic!("bogus key resolved"),
            Err(e) => e,
        };
        assert_eq!(e.key, "no-such-pde");
        assert!(e.to_string().contains("helmholtz"));
    }

    #[test]
    fn keys_are_sorted_and_unique() {
        let ks = keys();
        assert!(ks.windows(2).all(|w| w[0] < w[1]), "{ks:?}");
        assert!(ks.len() >= 9, "registry shrank: {ks:?}");
    }
}
