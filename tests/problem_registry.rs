//! Registry-wide conformance harness for the problem zoo: every key in
//! `qpinn::problems::keys()` is swept through the same four checks, so a
//! family cannot be registered without earning its cross-check.
//!
//! 1. **Residual-of-reference** — the family's residual operator,
//!    evaluated on jets finite-differenced *node-to-node* from the
//!    reference solution's own grid, must vanish to within
//!    `residual_tol()`. This catches sign and term mistakes in the PDE
//!    right where a PINN would happily train to the wrong equation.
//! 2. **Conditions-of-reference** — the sampled IC/BC targets must agree
//!    with the reference solution at the same points.
//! 3. **Analytic-vs-numeric** — where a closed form exists, the numeric
//!    reference must reproduce it.
//! 4. **Smoke train** — a few Adam epochs on the generic `ZooTask` must
//!    reduce the loss, proving the registry entry is trainable end to
//!    end, vector-valued families included.
//! 5. **Second-derivative demand** — the residual built from the jet the
//!    family demands (`second_derivatives()`) equals the full-jet one bit
//!    for bit, no `∂²` slot past the demand receives a gradient, and the
//!    last demanded one does: the declaration is sound and tight.
//!
//! Plus property tests: unknown keys are an `Err` (never a panic) for
//! arbitrary byte-soup keys, and the key table is sorted and stable.

use proptest::collection::vec as prop_vec;
use proptest::prelude::*;
use qpinn::autodiff::jet::Jet;
use qpinn::autodiff::{Graph, Var};
use qpinn::core::residual::split_fields;
use qpinn::core::task::net_config_for;
use qpinn::core::trainer::{PinnTask, Trainer};
use qpinn::core::{FieldNet, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::{GraphCtx, ParamSet};
use qpinn::optim::LrSchedule;
use qpinn::problems::{Fidelity, PdeProblem, RefSolution};
use qpinn::tensor::Tensor;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Interior node indices along one axis: skip two boundary nodes on each
/// side (one-sided stencils and boundary-layer solver error live there),
/// subsampled to at most `cap` indices.
fn interior_indices(len: usize, cap: usize) -> Vec<usize> {
    if len < 5 {
        return Vec::new();
    }
    let (lo, hi) = (2, len - 2);
    let stride = ((hi - lo) + cap - 1) / cap;
    (lo..hi).step_by(stride.max(1)).collect()
}

/// Cartesian product of per-axis index choices.
fn index_product(per_axis: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new()];
    for axis in per_axis {
        let mut next = Vec::with_capacity(out.len() * axis.len());
        for tail in &out {
            for &i in axis {
                let mut t = tail.clone();
                t.push(i);
                next.push(t);
            }
        }
        out = next;
    }
    out
}

/// Nonuniform 3-point stencil values `(f', f'')` from samples at
/// `x - h1`, `x`, `x + h2`.
fn fd_stencil(fm: f64, f0: f64, fp: f64, h1: f64, h2: f64) -> (f64, f64) {
    let denom = h1 * h2 * (h1 + h2);
    let d1 = (h1 * h1 * fp - h2 * h2 * fm + (h2 * h2 - h1 * h1) * f0) / denom;
    let d2 = 2.0 * (h1 * fp + h2 * fm - (h1 + h2) * f0) / denom;
    (d1, d2)
}

/// Evaluate the reference solution and its node-to-node finite
/// differences at interior grid nodes, returning `(points, jets)` ready
/// for [`PdeProblem::residuals`]. Jets are assembled from constant tape
/// columns — the trait only sees `Var`s, so the same residual code runs
/// on FD data here and on network outputs in training.
fn reference_jets(
    g: &mut Graph,
    problem: &dyn PdeProblem,
    reference: &dyn RefSolution,
) -> (Vec<Vec<f64>>, Vec<Jet>) {
    let grids = reference.grids();
    let k = grids.len();
    let n_out = problem.n_outputs();
    assert_eq!(
        k,
        problem.coords().len(),
        "{}: reference grids() must match the coordinate count",
        problem.key()
    );
    // ~200 total FD points per problem keeps the sweep fast at any arity.
    let cap = (200f64.powf(1.0 / k as f64).round() as usize).max(3);
    let per_axis: Vec<Vec<usize>> = grids
        .iter()
        .map(|axis| interior_indices(axis.len(), cap))
        .collect();
    for (c, idx) in per_axis.iter().enumerate() {
        assert!(
            !idx.is_empty(),
            "{}: reference grid too coarse on axis {c} for interior FD",
            problem.key()
        );
    }
    let tuples = index_product(&per_axis);

    let mut points = Vec::with_capacity(tuples.len());
    let mut vals = vec![Vec::with_capacity(tuples.len()); n_out];
    let mut d = vec![vec![Vec::with_capacity(tuples.len()); k]; n_out];
    let mut dd = vec![vec![Vec::with_capacity(tuples.len()); k]; n_out];
    for idx in &tuples {
        let point: Vec<f64> = idx.iter().zip(&grids).map(|(&i, axis)| axis[i]).collect();
        let f0 = reference.sample(&point);
        for c in 0..k {
            let axis = &grids[c];
            let i = idx[c];
            let (mut pm, mut pp) = (point.clone(), point.clone());
            pm[c] = axis[i - 1];
            pp[c] = axis[i + 1];
            let (fm, fp) = (reference.sample(&pm), reference.sample(&pp));
            let h1 = axis[i] - axis[i - 1];
            let h2 = axis[i + 1] - axis[i];
            for j in 0..n_out {
                let (d1, d2) = fd_stencil(fm[j], f0[j], fp[j], h1, h2);
                d[j][c].push(d1);
                dd[j][c].push(d2);
            }
        }
        for j in 0..n_out {
            vals[j].push(f0[j]);
        }
        points.push(point);
    }

    let jets = (0..n_out)
        .map(|j| Jet {
            v: g.constant(Tensor::column(&vals[j])),
            d: (0..k).map(|c| g.constant(Tensor::column(&d[j][c]))).collect(),
            dd: (0..k).map(|c| g.constant(Tensor::column(&dd[j][c]))).collect(),
        })
        .collect();
    (points, jets)
}

#[test]
fn every_reference_solution_satisfies_its_own_pde() {
    for key in qpinn::problems::keys() {
        let problem = qpinn::problems::lookup(key).unwrap();
        // Full fidelity: the FD check differences node-to-node, so the
        // stored-slice spacing bounds its accuracy; Quick grids leak
        // O(Δt²) truncation error above the tolerance on oscillatory
        // families.
        let reference = problem.reference(Fidelity::Full);
        let mut g = Graph::new();
        let (points, jets) = reference_jets(&mut g, problem.as_ref(), reference.as_ref());
        let residuals = problem.residuals(&mut g, &jets, &points);
        assert!(!residuals.is_empty(), "{key}: no residual columns");
        for (r_i, &r) in residuals.iter().enumerate() {
            let data = g.value(r).data();
            let worst = data
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
                .map(|(i, v)| (i, v.abs()))
                .unwrap();
            assert!(
                worst.1 <= problem.residual_tol(),
                "{key}: residual column {r_i} of the reference solution reaches \
                 |r| = {:.3e} at point {:?} (tol {:.1e}) — the residual operator \
                 and the reference solver disagree about the PDE",
                worst.1,
                points[worst.0],
                problem.residual_tol()
            );
        }
    }
}

#[test]
fn every_condition_set_is_satisfied_by_the_reference() {
    for key in qpinn::problems::keys() {
        let problem = qpinn::problems::lookup(key).unwrap();
        let reference = problem.reference(Fidelity::Quick);
        for cond in problem.conditions(24) {
            assert_eq!(cond.points.len(), cond.targets.len(), "{key}/{}", cond.name);
            assert!(!cond.points.is_empty(), "{key}/{}: empty condition", cond.name);
            // Derivative conditions (e.g. initial velocity) are checked
            // through the residual harness; value targets must match the
            // reference field directly.
            if cond.deriv.is_some() {
                continue;
            }
            for (p, want) in cond.points.iter().zip(&cond.targets) {
                let got = reference.sample(p);
                assert_eq!(got.len(), want.len(), "{key}/{}", cond.name);
                for (a, b) in got.iter().zip(want) {
                    assert!(
                        (a - b).abs() <= problem.residual_tol(),
                        "{key}/{}: reference gives {a:.4} where the condition \
                         demands {b:.4} at {p:?}",
                        cond.name
                    );
                }
            }
        }
    }
}

#[test]
fn analytic_and_numeric_references_agree() {
    let mut checked = 0;
    for key in qpinn::problems::keys() {
        let problem = qpinn::problems::lookup(key).unwrap();
        let reference = problem.reference(Fidelity::Quick);
        let grids = reference.grids();
        let per_axis: Vec<Vec<usize>> = grids
            .iter()
            .map(|axis| interior_indices(axis.len(), 4))
            .collect();
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        let mut any = false;
        for idx in index_product(&per_axis) {
            let point: Vec<f64> = idx.iter().zip(&grids).map(|(&i, a)| a[i]).collect();
            let Some(exact) = problem.analytic(&point) else {
                break;
            };
            any = true;
            let got = reference.sample(&point);
            for (a, b) in got.iter().zip(&exact) {
                num += (a - b) * (a - b);
                den += b * b;
            }
        }
        if !any {
            continue;
        }
        checked += 1;
        let rel = (num / den.max(1e-300)).sqrt();
        assert!(
            rel < 0.02,
            "{key}: numeric reference drifts from the closed form (rel-L2 {rel:.3e})"
        );
    }
    assert!(checked >= 6, "only {checked} families expose a closed form");
}

#[test]
fn every_family_smoke_trains_with_decreasing_loss() {
    for key in qpinn::problems::keys() {
        let cfg = ZooTaskConfig::quick();
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(42);
        let mut task = ZooTask::from_key(key, &cfg, &mut params, &mut rng)
            .unwrap_or_else(|e| panic!("{e}"));
        let initial = {
            let mut g = Graph::new();
            let mut ctx = GraphCtx::new(&mut g, &params);
            let loss = task.build_loss(&mut ctx);
            g.value(loss).data()[0]
        };
        assert!(initial.is_finite(), "{key}: initial loss not finite");
        let train = TrainConfig {
            epochs: 60,
            schedule: LrSchedule::Constant { lr: 2e-3 },
            log_every: 1000,
            eval_every: 0,
            clip: Some(100.0),
            lbfgs_polish: None,
            checkpoint: None,
            divergence: None,
            progress: None,
            run: None,
        };
        let log = Trainer::new(train).train(&mut task, &mut params);
        assert!(
            log.final_loss.is_finite() && log.final_loss < initial,
            "{key}: loss did not decrease ({initial:.4e} -> {:.4e})",
            log.final_loss
        );
    }
}

/// The network's field jets at `points`, with second derivatives of the
/// first `n_second` coordinates, on `ctx`'s tape.
fn network_fields(
    ctx: &mut GraphCtx<'_>,
    net: &FieldNet,
    points: &[Vec<f64>],
    n_second: usize,
) -> Vec<Jet> {
    let cols: Vec<Var> = (0..net.n_coords())
        .map(|c| {
            ctx.g.constant(Tensor::column(
                &points.iter().map(|p| p[c]).collect::<Vec<_>>(),
            ))
        })
        .collect();
    let out = net.forward_jet_demand(ctx, &cols, n_second);
    split_fields(ctx.g, &out, net.n_fields())
}

#[test]
fn every_family_demands_exactly_the_second_derivatives_its_residual_reads() {
    for key in qpinn::problems::keys() {
        let problem = qpinn::problems::lookup(key).unwrap();
        let coords = problem.coords();
        let (k, demand) = (coords.len(), problem.second_derivatives());
        assert!(demand <= k, "{key}: demands {demand} of {k} coordinates");
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(13);
        let net_cfg = net_config_for(problem.as_ref(), &ZooTaskConfig::quick());
        let net = FieldNet::new(&mut params, &mut rng, &net_cfg, key);
        let points: Vec<Vec<f64>> = (0..64)
            .map(|_| coords.iter().map(|c| rng.gen_range(c.lo..c.hi)).collect())
            .collect();

        // The residual from the demanded jet is the full-jet residual.
        let residual_bits = |n_second: usize| -> Vec<Vec<u64>> {
            let mut g = Graph::new();
            let mut ctx = GraphCtx::new(&mut g, &params);
            let fields = network_fields(&mut ctx, &net, &points, n_second);
            let residuals = problem.residuals(ctx.g, &fields, &points);
            residuals
                .iter()
                .map(|&r| ctx.g.value(r).data().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert!(
            residual_bits(demand) == residual_bits(k),
            "{key}: the residual from the demanded jet differs from the full-jet one in bits"
        );

        // Soundness and tightness: rebuild the full jet with every slot a
        // leaf, so the reverse sweep keeps the gradient of each one it
        // reaches.
        let values: Vec<(Tensor, Vec<Tensor>, Vec<Tensor>)> = {
            let mut g = Graph::new();
            let mut ctx = GraphCtx::new(&mut g, &params);
            let fields = network_fields(&mut ctx, &net, &points, k);
            let val = |v: &Var| ctx.g.value(*v).clone();
            fields
                .iter()
                .map(|f| {
                    (
                        val(&f.v),
                        f.d.iter().map(val).collect(),
                        f.dd.iter().map(val).collect(),
                    )
                })
                .collect()
        };
        let mut g = Graph::new();
        let fields: Vec<Jet> = values
            .into_iter()
            .map(|(v, d, dd)| Jet {
                v: g.input(v),
                d: d.into_iter().map(|t| g.input(t)).collect(),
                dd: dd.into_iter().map(|t| g.input(t)).collect(),
            })
            .collect();
        let residuals = problem.residuals(&mut g, &fields, &points);
        let terms: Vec<(f64, Var)> = residuals.iter().map(|&r| (1.0, g.mse(r))).collect();
        let loss = g.lincomb(&terms);
        let grads = g.backward(loss);
        for (j, f) in fields.iter().enumerate() {
            for (i, &dd) in f.dd.iter().enumerate().skip(demand) {
                assert!(
                    grads.get(dd).is_none(),
                    "{key}: field {j} reads ∂² along coordinate {i}, past its declared {demand}"
                );
            }
        }
        if demand > 0 {
            assert!(
                fields.iter().any(|f| grads.get(f.dd[demand - 1]).is_some()),
                "{key}: declares {demand} second derivatives but no field reads ∂² along \
                 coordinate {}",
                demand - 1
            );
        }
    }
}

#[test]
fn keys_are_sorted_unique_and_stable() {
    let ks = qpinn::problems::keys();
    assert!(ks.len() >= 9, "registry shrank to {} families", ks.len());
    assert!(
        ks.windows(2).all(|w| w[0] < w[1]),
        "keys must be sorted and unique: {ks:?}"
    );
    assert_eq!(ks, qpinn::problems::keys(), "keys() must be stable");
    for k in &ks {
        assert_eq!(qpinn::problems::lookup(k).unwrap().key(), *k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup fed to `lookup` must yield `Err` (never a
    /// panic), and the error must name the offending key and list the
    /// registered alternatives.
    #[test]
    fn unknown_keys_error_and_never_panic(bytes in prop_vec(0u8..=255, 0..32)) {
        let key = String::from_utf8_lossy(&bytes).into_owned();
        match qpinn::problems::lookup(&key) {
            Ok(p) => prop_assert_eq!(p.key(), key.as_str()),
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(msg.contains("helmholtz"), "error must list keys: {}", msg);
                prop_assert!(msg.contains("gray-scott"), "error must list keys: {}", msg);
            }
        }
    }

    /// Near-miss mutations of real keys (case flips, suffixes, separator
    /// swaps) never resolve to a different family.
    #[test]
    fn mutated_keys_never_resolve_to_another_family(
        which in 0usize..10,
        mutation in 0usize..4,
    ) {
        let ks = qpinn::problems::keys();
        let key = ks[which % ks.len()];
        let mutated = match mutation {
            0 => key.to_uppercase(),
            1 => format!("{key} "),
            2 => format!("{key}2"),
            _ => key.replace('-', "_"),
        };
        if mutated != key {
            prop_assert!(qpinn::problems::lookup(&mutated).is_err());
        }
    }
}
