//! Complex numbers generic over a [`Scalar`].
//!
//! [`Cplx<S>`] is used with `S = f64` ([`Complex64`]) throughout the FFT,
//! tridiagonal-solver, and Schrödinger-propagator crates, and with dual
//! scalars inside the quantum-circuit simulator to obtain exact derivatives
//! of measurement expectation values.

use crate::scalar::Scalar;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` over scalar type `S`.
///
/// `repr(C)` guarantees the `[re, im]` memory layout, which the
/// statevector simulator's f64 SIMD fast path relies on to reinterpret
/// `&[Cplx<f64>]` as interleaved doubles.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
pub struct Cplx<S> {
    /// Real part.
    pub re: S,
    /// Imaginary part.
    pub im: S,
}

/// Plain double-precision complex number.
pub type Complex64 = Cplx<f64>;

impl<S: Scalar> Cplx<S> {
    /// Construct from parts.
    #[inline]
    pub fn new(re: S, im: S) -> Self {
        Cplx { re, im }
    }

    /// Zero.
    #[inline]
    pub fn zero() -> Self {
        Cplx {
            re: S::zero(),
            im: S::zero(),
        }
    }

    /// One.
    #[inline]
    pub fn one() -> Self {
        Cplx {
            re: S::one(),
            im: S::zero(),
        }
    }

    /// The imaginary unit.
    #[inline]
    pub fn i() -> Self {
        Cplx {
            re: S::zero(),
            im: S::one(),
        }
    }

    /// Lift a real scalar.
    #[inline]
    pub fn from_real(re: S) -> Self {
        Cplx {
            re,
            im: S::zero(),
        }
    }

    /// Lift a plain float.
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        Self::from_real(S::from_f64(x))
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Cplx {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> S {
        self.re * self.re + self.im * self.im
    }

    /// Modulus.
    #[inline]
    pub fn abs(self) -> S {
        self.norm_sqr().sqrt()
    }

    /// Multiply by a real scalar.
    #[inline]
    pub fn scale(self, s: S) -> Self {
        Cplx {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Multiplicative inverse.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr().recip();
        Cplx {
            re: self.re * d,
            im: -(self.im * d),
        }
    }

    /// `self / rhs`, computed as `self · rhs⁻¹` (what `/` does).
    #[inline]
    pub fn mul_recip(self, rhs: Self) -> Self {
        self * rhs.recip()
    }

    /// `e^{iθ} = cos θ + i sin θ` for a real angle θ.
    #[inline]
    pub fn cis(theta: S) -> Self {
        Cplx {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex exponential `e^{re} (cos im + i sin im)`.
    #[inline]
    pub fn exp(self) -> Self {
        let m = self.re.exp();
        Cplx {
            re: m * self.im.cos(),
            im: m * self.im.sin(),
        }
    }

    /// Fused multiply-add: `self * b + c`.
    #[inline]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        Cplx {
            re: self.re * b.re - self.im * b.im + c.re,
            im: self.re * b.im + self.im * b.re + c.im,
        }
    }
}

impl Complex64 {
    /// Polar form `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Cplx {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Argument (phase) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Principal square root (`√r · e^{iθ/2}`).
    #[inline]
    pub fn sqrt(self) -> Self {
        Complex64::from_polar(self.abs().sqrt(), 0.5 * self.arg())
    }
}

impl<S: Scalar> Add for Cplx<S> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Cplx {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl<S: Scalar> Sub for Cplx<S> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Cplx {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl<S: Scalar> Mul for Cplx<S> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Cplx {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl<S: Scalar> Div for Cplx<S> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self.mul_recip(rhs)
    }
}

impl<S: Scalar> Neg for Cplx<S> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Cplx {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl<S: Scalar> AddAssign for Cplx<S> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<S: Scalar> SubAssign for Cplx<S> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<S: Scalar> MulAssign for Cplx<S> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl<S: Scalar> DivAssign for Cplx<S> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::Dual64;

    const EPS: f64 = 1e-14;

    #[test]
    fn field_operations() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-0.5, 1.5);
        let p = a * b;
        assert!((p.re - (1.0 * -0.5 - 2.0 * 1.5)).abs() < EPS);
        assert!((p.im - (1.0 * 1.5 + 2.0 * -0.5)).abs() < EPS);
        let q = p / b;
        assert!((q.re - a.re).abs() < 1e-12 && (q.im - a.im).abs() < 1e-12);
    }

    #[test]
    fn conjugate_and_norm() {
        let a = Complex64::new(3.0, -4.0);
        assert!((a.norm_sqr() - 25.0).abs() < EPS);
        assert!((a.abs() - 5.0).abs() < EPS);
        let c = a * a.conj();
        assert!((c.re - 25.0).abs() < EPS && c.im.abs() < EPS);
    }

    #[test]
    fn cis_and_polar() {
        let t = 0.7;
        let e = Complex64::cis(t);
        assert!((e.abs() - 1.0).abs() < EPS);
        assert!((e.arg() - t).abs() < EPS);
        let p = Complex64::from_polar(2.0, -1.1);
        assert!((p.abs() - 2.0).abs() < EPS);
        assert!((p.arg() + 1.1).abs() < EPS);
    }

    #[test]
    fn exp_euler_identity() {
        // e^{iπ} = -1.
        let e = Complex64::new(0.0, std::f64::consts::PI).exp();
        assert!((e.re + 1.0).abs() < 1e-12 && e.im.abs() < 1e-12);
    }

    #[test]
    fn mul_add_matches_composition() {
        let a = Complex64::new(0.2, -0.3);
        let b = Complex64::new(1.4, 0.9);
        let c = Complex64::new(-0.8, 0.1);
        let f = a.mul_add(b, c);
        let g = a * b + c;
        assert!((f.re - g.re).abs() < EPS && (f.im - g.im).abs() < EPS);
    }

    #[test]
    fn differentiable_phase_rotation() {
        // d/dθ |⟨1| e^{iθ} |1⟩|² is zero; but d/dθ Re(e^{iθ}) = -sin θ.
        let theta = 0.4;
        let d = Cplx::<Dual64>::cis(Dual64::var(theta));
        assert!((d.re.re - theta.cos()).abs() < EPS);
        assert!((d.re.eps + theta.sin()).abs() < EPS);
        assert!((d.im.eps - theta.cos()).abs() < EPS);
    }
}
