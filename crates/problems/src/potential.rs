//! The potential library `V(x)`.

/// A 1D external potential.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Potential {
    /// `V = 0` (free particle / infinite well depending on boundaries).
    Free,
    /// Harmonic oscillator `V = ½ω²x²`.
    Harmonic {
        /// Angular frequency.
        omega: f64,
    },
    /// Smooth (Gaussian) barrier `V = h·exp(−x²/(2w²))` centred at the
    /// origin — smooth so PINN residuals stay well-defined.
    Barrier {
        /// Barrier height.
        height: f64,
        /// Barrier width parameter.
        width: f64,
    },
    /// Quartic double well `V = c·(x² − a²)²`.
    DoubleWell {
        /// Well separation parameter (minima at ±a).
        a: f64,
        /// Stiffness.
        c: f64,
    },
}

impl Potential {
    /// Evaluate `V(x)`.
    pub fn eval(&self, x: f64) -> f64 {
        match *self {
            Potential::Free => 0.0,
            Potential::Harmonic { omega } => 0.5 * omega * omega * x * x,
            Potential::Barrier { height, width } => {
                height * (-x * x / (2.0 * width * width)).exp()
            }
            Potential::DoubleWell { a, c } => c * (x * x - a * a).powi(2),
        }
    }

    /// Short identifier for reports.
    pub fn name(&self) -> String {
        match *self {
            Potential::Free => "free".into(),
            Potential::Harmonic { omega } => format!("harmonic(ω={omega})"),
            Potential::Barrier { height, width } => format!("barrier(h={height},w={width})"),
            Potential::DoubleWell { a, c } => format!("double-well(a={a},c={c})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        assert_eq!(Potential::Free.eval(3.0), 0.0);
        assert_eq!(Potential::Harmonic { omega: 2.0 }.eval(1.0), 2.0);
        let b = Potential::Barrier {
            height: 5.0,
            width: 1.0,
        };
        assert!((b.eval(0.0) - 5.0).abs() < 1e-15);
        assert!(b.eval(3.0) < b.eval(0.0));
        let w = Potential::DoubleWell { a: 1.5, c: 2.0 };
        assert_eq!(w.eval(1.5), 0.0);
        assert_eq!(w.eval(-1.5), 0.0);
        assert!(w.eval(0.0) > 0.0);
    }

    #[test]
    fn symmetry() {
        for p in [
            Potential::Harmonic { omega: 1.3 },
            Potential::Barrier {
                height: 2.0,
                width: 0.5,
            },
            Potential::DoubleWell { a: 1.0, c: 1.0 },
        ] {
            for &x in &[0.3, 1.1, 2.7] {
                assert!((p.eval(x) - p.eval(-x)).abs() < 1e-15, "{p:?} at {x}");
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<String> = [
            Potential::Free,
            Potential::Harmonic { omega: 1.0 },
            Potential::Barrier {
                height: 1.0,
                width: 1.0,
            },
            Potential::DoubleWell { a: 1.0, c: 1.0 },
        ]
        .iter()
        .map(|p| p.name())
        .collect();
        for i in 0..names.len() {
            for j in 0..i {
                assert_ne!(names[i], names[j]);
            }
        }
    }
}
