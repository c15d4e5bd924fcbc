//! Property-based tests over the model machinery: for *random
//! architectures*, the jet-propagated derivatives must agree with finite
//! differences, and the structural invariants of the loss pipeline must
//! hold. Also the JSON number text round trip that the serve plane's
//! bit-identical responses rest on.

use crate::model::{CoordSpec, FieldNet, FieldNetConfig, RffSpec};
use crate::report::Json;
use proptest::prelude::*;
use qpinn_autodiff::jet::Jet;
use qpinn_autodiff::Graph;
use qpinn_nn::{Activation, GraphCtx, ParamSet};
use qpinn_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

#[derive(Debug, Clone)]
struct ArchCase {
    width: usize,
    depth: usize,
    rff: bool,
    periodic_x: bool,
    activation: Activation,
    seed: u64,
    x0: f64,
    t0: f64,
}

fn arch_strategy() -> impl Strategy<Value = ArchCase> {
    (
        4usize..16,
        1usize..3,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u64..1000,
        -1.5..1.5f64,
        0.05..0.9f64,
    )
        .prop_map(
            |(width, depth, rff, periodic_x, act, seed, x0, t0)| ArchCase {
                width,
                depth,
                rff,
                periodic_x,
                activation: if act {
                    Activation::Tanh
                } else {
                    Activation::Sin
                },
                seed,
                x0,
                t0,
            },
        )
}

fn build_net(case: &ArchCase) -> (ParamSet, FieldNet) {
    let cfg = FieldNetConfig {
        coords: vec![
            if case.periodic_x {
                CoordSpec::Periodic { length: 4.0 }
            } else {
                CoordSpec::Raw
            },
            CoordSpec::LearnedPeriod { period0: 3.0 },
        ],
        rff: if case.rff {
            Some(RffSpec {
                n_features: 8,
                sigma: 1.0,
            })
        } else {
            None
        },
        hidden: vec![case.width; case.depth],
        n_fields: 2,
        activation: case.activation,
    };
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(case.seed);
    let net = FieldNet::new(&mut params, &mut rng, &cfg, "prop");
    (params, net)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn jet_first_derivatives_match_fd_for_random_architectures(case in arch_strategy()) {
        let (params, net) = build_net(&case);
        let h = 1e-5;
        let f = |x: f64, t: f64, field: usize| -> f64 {
            net.predict(&params, &[vec![x, t]]).get(&[0, field])
        };
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let xc = ctx.g.constant(Tensor::column(&[case.x0]));
        let tc = ctx.g.constant(Tensor::column(&[case.t0]));
        let out = net.forward_jet(&mut ctx, &[xc, tc]);
        for field in 0..2 {
            let ux = g.value(out.d[0]).get(&[0, field]);
            let ut = g.value(out.d[1]).get(&[0, field]);
            let fdx = (f(case.x0 + h, case.t0, field) - f(case.x0 - h, case.t0, field)) / (2.0 * h);
            let fdt = (f(case.x0, case.t0 + h, field) - f(case.x0, case.t0 - h, field)) / (2.0 * h);
            prop_assert!((ux - fdx).abs() < 1e-4 * fdx.abs().max(1.0), "u_x {ux} vs {fdx} ({case:?})");
            prop_assert!((ut - fdt).abs() < 1e-4 * fdt.abs().max(1.0), "u_t {ut} vs {fdt} ({case:?})");
        }
    }

    #[test]
    fn jet_second_derivatives_match_fd_for_random_architectures(case in arch_strategy()) {
        let (params, net) = build_net(&case);
        let h = 5e-4;
        let f = |x: f64, field: usize| -> f64 {
            net.predict(&params, &[vec![x, case.t0]]).get(&[0, field])
        };
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let xc = ctx.g.constant(Tensor::column(&[case.x0]));
        let tc = ctx.g.constant(Tensor::column(&[case.t0]));
        let out = net.forward_jet(&mut ctx, &[xc, tc]);
        for field in 0..2 {
            let uxx = g.value(out.dd[0]).get(&[0, field]);
            let fdxx = (f(case.x0 + h, field) - 2.0 * f(case.x0, field) + f(case.x0 - h, field)) / (h * h);
            prop_assert!(
                (uxx - fdxx).abs() < 5e-3 * fdxx.abs().max(1.0),
                "u_xx {uxx} vs {fdxx} ({case:?})"
            );
        }
    }

    #[test]
    fn value_only_path_matches_jet_path(case in arch_strategy()) {
        let (params, net) = build_net(&case);
        let pts = vec![vec![case.x0, case.t0], vec![-case.x0, 1.0 - case.t0]];
        let direct = net.predict(&params, &pts);
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let xc = ctx.g.constant(Tensor::column(&[case.x0, -case.x0]));
        let tc = ctx.g.constant(Tensor::column(&[case.t0, 1.0 - case.t0]));
        let out = net.forward_jet(&mut ctx, &[xc, tc]);
        prop_assert!(g.value(out.v).approx_eq(&direct, 1e-12));
    }

    #[test]
    fn parameter_gradients_of_jet_losses_are_finite(case in arch_strategy()) {
        // A residual-style loss mixing value, first, and second derivative
        // slots must produce finite gradients for every parameter.
        let (params, net) = build_net(&case);
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let xc = ctx.g.constant(Tensor::column(&[case.x0, 0.2, -0.7]));
        let tc = ctx.g.constant(Tensor::column(&[case.t0, 0.4, 0.1]));
        let out = net.forward_jet(&mut ctx, &[xc, tc]);
        let jet = Jet {
            v: out.v,
            d: out.d.clone(),
            dd: out.dd.clone(),
        };
        let mix = ctx.g.add(jet.d[1], jet.dd[0]);
        let mix2 = ctx.g.add(mix, jet.v);
        let loss = ctx.g.mse(mix2);
        let mut grads = ctx.g.backward(loss);
        let collected = ctx.collect_grads(&mut grads);
        for (i, t) in collected.iter().enumerate() {
            prop_assert!(t.all_finite(), "param {i} has non-finite gradient");
        }
    }

    #[test]
    fn causal_weights_stay_in_unit_interval(losses in proptest::collection::vec(0.0..10.0f64, 5), eps in 0.01..5.0f64) {
        let times: Vec<f64> = (0..20).map(|i| i as f64 / 20.0).collect();
        let mut cw = crate::causal::CausalWeights::new(0.0, 1.0, 5, eps, &times);
        // fake per-point residuals from per-bin losses
        let r2: Vec<f64> = times.iter().map(|&t| {
            let bin = (t * 5.0) as usize;
            losses[bin.min(4)]
        }).collect();
        cw.update(&r2);
        for &w in cw.bin_weights() {
            prop_assert!((0.0..=1.0).contains(&w));
        }
        prop_assert_eq!(cw.bin_weights()[0], 1.0);
    }
}

/// `x` printed as a JSON number and parsed back, as bits.
fn json_round_trip_bits(x: f64) -> Result<u64, String> {
    let text = Json::Num(x).to_string();
    match Json::parse(&text)? {
        Json::Num(y) => Ok(y.to_bits()),
        other => Err(format!("{text} parsed to {other:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn json_numbers_round_trip_bit_for_bit(bits in 0u64..u64::MAX, subnormal in any::<bool>()) {
        // Half the cases clear the exponent: subnormals and ±0, which a
        // uniform draw over the bits almost never reaches.
        let bits = if subnormal { bits & 0x800f_ffff_ffff_ffff } else { bits };
        let x = f64::from_bits(bits);
        prop_assume!(x.is_finite());
        prop_assert_eq!(json_round_trip_bits(x), Ok(bits), "{:e}", x);
    }
}

#[test]
fn json_numbers_round_trip_at_the_extremes() {
    let extremes = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1.0 + f64::EPSILON,
        0.1,
        1e22,
        1e23,
        9_007_199_254_740_993.0,
    ];
    for x in extremes {
        assert_eq!(json_round_trip_bits(x), Ok(x.to_bits()), "{x:e}");
    }
}
