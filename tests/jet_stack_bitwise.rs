//! Bit-identity oracle for the stacked jet network.
//!
//! `FieldNet` carries each jet as one tape node per layer: the value and
//! every first and second coordinate-derivative block stacked by rows,
//! pushed through fused dense, activation and sin/cos nodes. This suite
//! rebuilds the per-slot chain those nodes replaced — one tape node per
//! block and per chain-rule term, from public `Graph` ops — and asserts
//! that every output slot and every parameter gradient agrees bit for bit.
//!
//! Cases: all registry keys at the quick preset (raw and periodic
//! embeddings, no RFF) and the standard preset (RFF on), which covers
//! one, two and three coordinates; a sine trunk; row counts that are not
//! multiples of the 16-row kernel blocks; and the tape-free value path
//! through `predict_batch` for every key at both presets and with a sine
//! trunk, at 1, 19, 53 and 1024 rows. Each case runs at every SIMD width
//! the host supports.
//!
//! A demanded stack, which carries second derivatives of the leading
//! coordinates only, is compared with the full stack: for every key at
//! both presets, at the key's declared demand and at none (the
//! derivative-valued conditions), every slot it keeps and every parameter
//! gradient of a loss that reads only those slots agree bit for bit.

use qpinn::autodiff::{Graph, Var};
use qpinn::core::model::{CoordSpec, FieldNet, FieldNetConfig};
use qpinn::core::task::net_config_for;
use qpinn::core::ZooTaskConfig;
use qpinn::nn::{Activation, GraphCtx, ParamSet};
use qpinn::problems::zoo::{keys, lookup};
use qpinn::tensor::{simd, Tensor};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::f64::consts::TAU;
use std::sync::Mutex;

/// Tests here force the process-wide SIMD width in turn.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` at every dispatch width the host supports.
fn at_every_width(f: impl Fn(usize)) {
    let _g = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = simd::width();
    for w in [1usize, 4, 8] {
        if w <= simd::detected_width() {
            simd::set_width(w);
            f(w);
        }
    }
    simd::set_width(prev);
}

/// The per-slot jet of the old network: one node per block.
#[derive(Clone)]
struct Slots {
    v: Var,
    d: Vec<Var>,
    dd: Vec<Var>,
}

impl Slots {
    fn all(&self) -> Vec<Var> {
        let mut out = vec![self.v];
        out.extend(&self.d);
        out.extend(&self.dd);
        out
    }

    fn map(&self, g: &mut Graph, mut f: impl FnMut(&mut Graph, Var) -> Var) -> Slots {
        Slots {
            v: f(g, self.v),
            d: self.d.iter().map(|&x| f(g, x)).collect(),
            dd: self.dd.iter().map(|&x| f(g, x)).collect(),
        }
    }
}

fn seed(g: &mut Graph, column: Var, coord: usize, k: usize) -> Slots {
    let shape = g.value(column).shape().clone();
    let ones = g.constant(Tensor::ones(shape.clone()));
    let zeros = g.constant(Tensor::zeros(shape));
    Slots {
        v: column,
        d: (0..k).map(|i| if i == coord { ones } else { zeros }).collect(),
        dd: vec![zeros; k],
    }
}

/// `u = σ(z)`, `u' = σ'·z'`, `u'' = σ''·z'² + σ'·z''`, with `σ'`, `σ''`
/// already on the tape.
fn chain(g: &mut Graph, z: &Slots, u: Var, sp: Var, spp: Var) -> Slots {
    let mut d = Vec::new();
    let mut dd = Vec::new();
    for i in 0..z.d.len() {
        d.push(g.mul(sp, z.d[i]));
        let zp_sq = g.square(z.d[i]);
        let t1 = g.mul(spp, zp_sq);
        let t2 = g.mul(sp, z.dd[i]);
        dd.push(g.add(t1, t2));
    }
    Slots { v: u, d, dd }
}

fn tanh(g: &mut Graph, z: &Slots) -> Slots {
    let u = g.tanh(z.v);
    let sp = g.one_minus_square(u);
    let minus_two_u = g.scale(u, -2.0);
    let spp = g.mul(minus_two_u, sp);
    chain(g, z, u, sp, spp)
}

fn sin(g: &mut Graph, z: &Slots) -> Slots {
    let u = g.sin(z.v);
    let sp = g.cos(z.v);
    let s = g.sin(z.v);
    let spp = g.neg(s);
    chain(g, z, u, sp, spp)
}

fn cos(g: &mut Graph, z: &Slots) -> Slots {
    let u = g.cos(z.v);
    let s = g.sin(z.v);
    let sp = g.neg(s);
    let c = g.cos(z.v);
    let spp = g.neg(c);
    chain(g, z, u, sp, spp)
}

fn hstack(g: &mut Graph, parts: &[Slots]) -> Slots {
    let k = parts[0].d.len();
    let pick = |f: &dyn Fn(&Slots) -> Var| parts.iter().map(f).collect::<Vec<_>>();
    let v = g.hstack(&pick(&|p| p.v));
    let mut d = Vec::new();
    let mut dd = Vec::new();
    for i in 0..k {
        d.push(g.hstack(&pick(&|p| p.d[i])));
        dd.push(g.hstack(&pick(&|p| p.dd[i])));
    }
    Slots { v, d, dd }
}

fn sin_cos(g: &mut Graph, z: &Slots) -> Slots {
    let s = sin(g, z);
    let c = cos(g, z);
    hstack(g, &[s, c])
}

/// The dense layer: the value slot seeds the bias first (a one-block
/// stacked dense op is exactly the old fused affine), the derivative slots
/// are plain matmuls.
fn dense(g: &mut Graph, x: &Slots, w: Var, b: Var) -> Slots {
    Slots {
        v: g.jet_affine(x.v, w, Some(b), 1),
        d: x.d.iter().map(|&s| g.matmul(s, w)).collect(),
        dd: x.dd.iter().map(|&s| g.matmul(s, w)).collect(),
    }
}

/// Everything the oracle needs to rebuild a `FieldNet` slot by slot.
struct Oracle {
    cfg: FieldNetConfig,
    omega: Option<Tensor>,
    name: String,
}

impl Oracle {
    fn param(ctx: &mut GraphCtx<'_>, params: &ParamSet, name: &str) -> Var {
        let id = params
            .iter()
            .find(|(_, n, _)| *n == name)
            .unwrap_or_else(|| panic!("no parameter {name}"))
            .0;
        ctx.param(id)
    }

    /// The per-slot network over `columns`, tracking `k` coordinates.
    fn forward(&self, ctx: &mut GraphCtx<'_>, params: &ParamSet, columns: &[Var], k: usize) -> Slots {
        let seeds: Vec<Slots> = columns
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if k == 0 {
                    Slots { v: c, d: vec![], dd: vec![] }
                } else {
                    seed(ctx.g, c, i, k)
                }
            })
            .collect();
        let mut parts = Vec::new();
        for (i, (spec, s)) in self.cfg.coords.iter().zip(seeds).enumerate() {
            parts.push(match *spec {
                CoordSpec::Raw => s,
                CoordSpec::Periodic { length } => {
                    let z = s.map(ctx.g, |g, x| g.scale(x, TAU / length));
                    sin_cos(ctx.g, &z)
                }
                CoordSpec::LearnedPeriod { .. } => {
                    let inv = Self::param(ctx, params, &format!("{}.coord{i}.inv_period", self.name));
                    let z = s.map(ctx.g, |g, x| {
                        let m = g.matmul(x, inv);
                        g.scale(m, TAU)
                    });
                    sin_cos(ctx.g, &z)
                }
            });
        }
        let mut h = hstack(ctx.g, &parts);
        if let Some(omega) = &self.omega {
            let om = ctx.g.constant(omega.clone());
            let z = h.map(ctx.g, |g, x| g.matmul(x, om));
            h = sin_cos(ctx.g, &z);
        }
        let depth = self.cfg.hidden.len();
        for l in 0..=depth {
            let tag = if l < depth { format!("h{l}") } else { "out".to_string() };
            let w = Self::param(ctx, params, &format!("{}.{tag}.w", self.name));
            let b = Self::param(ctx, params, &format!("{}.{tag}.b", self.name));
            h = dense(ctx.g, &h, w, b);
            if l < depth {
                h = match self.cfg.activation {
                    Activation::Tanh => tanh(ctx.g, &h),
                    Activation::Sin => sin(ctx.g, &h),
                };
            }
        }
        h
    }
}

/// A network, its parameters, the matching oracle and `n` random points.
struct Case {
    net: FieldNet,
    params: ParamSet,
    oracle: Oracle,
    cols: Vec<Tensor>,
}

fn case(key: &str, cfg: FieldNetConfig, seed: u64, n: usize) -> Case {
    let problem = lookup(key).unwrap();
    let mut params = ParamSet::new();
    let net = FieldNet::new(&mut params, &mut StdRng::seed_from_u64(seed), &cfg, key);
    // The RFF projection is the first draw `FieldNet::new` makes.
    let omega = cfg.rff.map(|r| {
        let embed: usize = cfg
            .coords
            .iter()
            .map(|c| if matches!(c, CoordSpec::Raw) { 1 } else { 2 })
            .sum();
        Tensor::randn([embed, r.n_features], r.sigma, &mut StdRng::seed_from_u64(seed))
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc01);
    let cols = problem
        .coords()
        .iter()
        .map(|c| Tensor::column(&(0..n).map(|_| rng.gen_range(c.lo..c.hi)).collect::<Vec<_>>()))
        .collect();
    Case {
        net,
        params,
        oracle: Oracle {
            cfg,
            omega,
            name: key.to_string(),
        },
        cols,
    }
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// A loss that reads every slot of every field, with distinct weights,
/// plus a second, value-only pass over the first points — as training
/// adds condition terms — so every parameter collects gradient from two
/// passes and the order of their contributions is exercised.
fn read_all(g: &mut Graph, slots: &[Var], values: Var) -> Var {
    let mut terms: Vec<(f64, Var)> = slots
        .iter()
        .enumerate()
        .map(|(i, &s)| (1.0 + 0.25 * i as f64, g.mse(s)))
        .collect();
    terms.push((0.5, g.mse(values)));
    g.lincomb(&terms)
}

/// The first `n / 3 + 1` rows of each coordinate column.
fn head(cols: &[Tensor]) -> Vec<Tensor> {
    cols.iter()
        .map(|c| {
            let n = c.len() / 3 + 1;
            Tensor::column(&c.data()[..n])
        })
        .collect()
}

/// Slot values and parameter gradients of the stacked network and the
/// per-slot oracle, bit for bit.
fn assert_case_bitwise(c: &Case, label: &str) {
    let k = c.cols.len();
    let mut g1 = Graph::new();
    let (want_vals, want_grads) = {
        let mut ctx = GraphCtx::new(&mut g1, &c.params);
        let cols: Vec<Var> = c.cols.iter().map(|t| ctx.g.constant(t.clone())).collect();
        let out = c.oracle.forward(&mut ctx, &c.params, &cols, k);
        let vals: Vec<Vec<u64>> = out.all().iter().map(|&v| bits(ctx.g.value(v))).collect();
        let few: Vec<Var> = head(&c.cols).into_iter().map(|t| ctx.g.constant(t)).collect();
        let values = c.oracle.forward(&mut ctx, &c.params, &few, 0).v;
        let loss = read_all(ctx.g, &out.all(), values);
        let mut grads = ctx.g.backward(loss);
        (vals, ctx.collect_grads(&mut grads))
    };
    let mut g2 = Graph::new();
    let mut ctx = GraphCtx::new(&mut g2, &c.params);
    let cols: Vec<Var> = c.cols.iter().map(|t| ctx.g.constant(t.clone())).collect();
    let jet = c.net.forward_jet(&mut ctx, &cols);
    let slots: Vec<Var> = std::iter::once(jet.v).chain(jet.d.clone()).chain(jet.dd.clone()).collect();
    assert_eq!(slots.len(), want_vals.len(), "{label}: slot count");
    for (i, (&s, want)) in slots.iter().zip(&want_vals).enumerate() {
        assert!(bits(ctx.g.value(s)) == *want, "{label}: output slot {i} differs in bits");
    }
    let few: Vec<Var> = head(&c.cols).into_iter().map(|t| ctx.g.constant(t)).collect();
    let values = c.net.forward_values(&mut ctx, &few);
    let loss = read_all(ctx.g, &slots, values);
    let mut grads = ctx.g.backward(loss);
    let got_grads = ctx.collect_grads(&mut grads);
    for ((id, name, _), (got, want)) in c.params.iter().zip(got_grads.iter().zip(&want_grads)) {
        assert!(
            bits(got) == bits(want),
            "{label}: gradient of {name} ({id:?}) differs in bits"
        );
    }
}

fn registry_case(key: &str, preset: &ZooTaskConfig, n: usize) -> Case {
    let problem = lookup(key).unwrap();
    case(key, net_config_for(problem.as_ref(), preset), 7, n)
}

#[test]
fn every_registry_key_at_the_quick_preset_is_bit_identical() {
    at_every_width(|w| {
        for key in keys() {
            let c = registry_case(key, &ZooTaskConfig::quick(), 300);
            assert_case_bitwise(&c, &format!("{key} quick w{w}"));
        }
    });
}

#[test]
fn every_registry_key_at_the_standard_preset_is_bit_identical() {
    at_every_width(|w| {
        for key in keys() {
            let preset = ZooTaskConfig {
                width: 32,
                ..ZooTaskConfig::standard()
            };
            let c = registry_case(key, &preset, 300);
            assert!(c.oracle.omega.is_some(), "standard preset carries RFF");
            assert_case_bitwise(&c, &format!("{key} standard w{w}"));
        }
    });
}

#[test]
fn ragged_row_counts_and_a_sine_trunk_are_bit_identical() {
    at_every_width(|w| {
        for (key, n) in [("nls-soliton", 37), ("tdse2d-free", 1), ("wave", 19)] {
            let problem = lookup(key).unwrap();
            let mut cfg = net_config_for(problem.as_ref(), &ZooTaskConfig::standard());
            cfg.hidden = vec![24, 20];
            cfg.activation = Activation::Sin;
            let c = case(key, cfg, 11, n);
            assert_case_bitwise(&c, &format!("{key} sin n{n} w{w}"));
        }
    });
}

/// `predict_batch`, which runs no tape, against the per-slot oracle and
/// the taped `forward_values`, bit for bit.
fn assert_values_bitwise(c: &Case, label: &str) {
    let n = c.cols[0].len();
    let flat: Vec<f64> = (0..n)
        .flat_map(|i| c.cols.iter().map(move |col| col.data()[i]))
        .collect();
    let got = bits(&c.net.predict_batch(&c.params, &flat));
    let mut g = Graph::new();
    let mut ctx = GraphCtx::new(&mut g, &c.params);
    let cols: Vec<Var> = c.cols.iter().map(|t| ctx.g.constant(t.clone())).collect();
    let oracle = c.oracle.forward(&mut ctx, &c.params, &cols, 0).v;
    let taped = c.net.forward_values(&mut ctx, &cols);
    assert!(got == bits(g.value(oracle)), "{label}: predict_batch differs from the oracle in bits");
    assert!(got == bits(g.value(taped)), "{label}: predict_batch differs from the tape in bits");
}

#[test]
fn value_only_predictions_are_bit_identical() {
    at_every_width(|w| {
        for key in keys() {
            let problem = lookup(key).unwrap();
            let mut sine = net_config_for(problem.as_ref(), &ZooTaskConfig::standard());
            sine.hidden = vec![24, 20];
            sine.activation = Activation::Sin;
            let configs = [
                ("quick", net_config_for(problem.as_ref(), &ZooTaskConfig::quick())),
                ("standard", net_config_for(problem.as_ref(), &ZooTaskConfig::standard())),
                ("sin", sine),
            ];
            for (preset, cfg) in configs {
                for n in [1, 19, 53, 1024] {
                    let c = case(key, cfg.clone(), 7, n);
                    assert_values_bitwise(&c, &format!("{key} {preset} n{n} w{w}"));
                }
            }
        }
    });
}

/// Slot bits and parameter-gradient bits of the stack that carries
/// second derivatives for the first `n_second` coordinates, under a loss
/// that reads the value, every first derivative and the first `read`
/// second derivatives, plus the value-only pass of [`read_all`].
fn demanded_run(c: &Case, n_second: usize, read: usize) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let k = c.cols.len();
    let mut g = Graph::new();
    let mut ctx = GraphCtx::new(&mut g, &c.params);
    let cols: Vec<Var> = c.cols.iter().map(|t| ctx.g.constant(t.clone())).collect();
    let jet = if n_second == k {
        c.net.forward_jet(&mut ctx, &cols)
    } else {
        c.net.forward_jet_demand(&mut ctx, &cols, n_second)
    };
    assert_eq!((jet.d.len(), jet.dd.len()), (k, n_second), "slot counts");
    let slots: Vec<Var> = std::iter::once(jet.v)
        .chain(jet.d.iter().copied())
        .chain(jet.dd[..read].iter().copied())
        .collect();
    let vals = slots.iter().map(|&s| bits(ctx.g.value(s))).collect();
    let few: Vec<Var> = head(&c.cols)
        .into_iter()
        .map(|t| ctx.g.constant(t))
        .collect();
    let values = c.net.forward_values(&mut ctx, &few);
    let loss = read_all(ctx.g, &slots, values);
    let mut grads = ctx.g.backward(loss);
    let grads = ctx.collect_grads(&mut grads).iter().map(bits).collect();
    (vals, grads)
}

/// The demanded stack against the full one, slot by slot and parameter by
/// parameter.
fn assert_demand_bitwise(c: &Case, n_second: usize, label: &str) {
    let (full_vals, full_grads) = demanded_run(c, c.cols.len(), n_second);
    let (vals, grads) = demanded_run(c, n_second, n_second);
    for (i, (got, want)) in vals.iter().zip(&full_vals).enumerate() {
        assert!(
            got == want,
            "{label}: kept slot {i} differs from the full stack in bits"
        );
    }
    for ((id, name, _), (got, want)) in c.params.iter().zip(grads.iter().zip(&full_grads)) {
        assert!(
            got == want,
            "{label}: gradient of {name} ({id:?}) differs from the full stack in bits"
        );
    }
}

#[test]
fn demanded_stacks_match_the_full_stack_for_every_registry_key() {
    at_every_width(|w| {
        for key in keys() {
            let demand = lookup(key).unwrap().second_derivatives();
            let presets = [
                ("quick", ZooTaskConfig::quick()),
                (
                    "standard",
                    ZooTaskConfig {
                        width: 32,
                        ..ZooTaskConfig::standard()
                    },
                ),
            ];
            for (preset, cfg) in presets {
                let c = registry_case(key, &cfg, 300);
                for n_second in [demand, 0] {
                    assert_demand_bitwise(
                        &c,
                        n_second,
                        &format!("{key} {preset} k2={n_second} w{w}"),
                    );
                }
            }
        }
    });
}
