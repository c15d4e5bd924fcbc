//! The generic registry-driven training task: one [`PinnTask`]
//! implementation that trains *any* [`PdeProblem`] from the problem
//! registry — vector-valued outputs, derivative-valued conditions, and
//! arbitrary coordinate counts included. This is what makes a new PDE
//! family trainable by registering data instead of writing a task.
//!
//! Two options serve the time-dependent Schrödinger families: the causal
//! time curriculum and the norm-conservation loss. Both are off in the
//! presets, so a plain registry run builds the same tape either way. The
//! conservation term also carries a problem's orthogonality constraints,
//! and the constants a problem declares as unknowns train alongside the
//! network.

use crate::causal::CausalWeights;
use crate::loss;
use crate::model::{CoordSpec, FieldNet, FieldNetConfig, RffSpec};
use crate::residual::split_fields;
use crate::trainer::PinnTask;
use qpinn_autodiff::Var;
use qpinn_nn::{Activation, GraphCtx, ParamId, ParamSet};
use qpinn_problems::zoo::{
    lookup, CoordDef, CoordKind, Fidelity, PdeProblem, RefSolution, UnknownProblem,
};
use qpinn_sampling::{latin_hypercube, Domain};
use qpinn_tensor::Tensor;
use rand::rngs::StdRng;

/// Causal weighting: time bins and the steepness ε of
/// `w(t) = exp(−ε Σ_{t′<t} L(t′))`.
const CAUSAL_BINS: usize = 5;
const CAUSAL_EPSILON: f64 = 1.0;
/// Time slices of the conservation grid, at `t_k = t_end·(k+1)/8`.
const CONSERVATION_SLICES: usize = 8;

/// Configuration of a [`ZooTask`].
#[derive(Clone, Debug)]
pub struct ZooTaskConfig {
    /// Hidden width of the MLP trunk (read by [`net_config_for`]).
    pub width: usize,
    /// Hidden depth (read by [`net_config_for`]).
    pub depth: usize,
    /// Random-Fourier-feature layer on/off (read by [`net_config_for`]).
    pub rff: bool,
    /// Number of interior collocation points (Latin hypercube).
    pub n_collocation: usize,
    /// Points per IC/BC condition set.
    pub n_condition: usize,
    /// Weight of each condition and conservation term relative to the
    /// PDE residual.
    pub cond_weight: f64,
    /// Reference resolution.
    pub fidelity: Fidelity,
    /// Budget of reference-evaluation points for the L2 metric
    /// (distributed as a tensor grid over the coordinates).
    pub eval_budget: usize,
    /// Causal time weighting of the residual points (Wang, Sankaran &
    /// Perdikaris): 5 time bins, ε = 1. Needs a time coordinate.
    pub causal: bool,
    /// Norm-conservation loss on a fixed lattice: 8 time slices, or one
    /// for a problem without time. Also holds the solution orthogonal to
    /// [`PdeProblem::orthogonal_to`]. Needs [`PdeProblem::conserved_norm`].
    pub conservation: bool,
}

impl ZooTaskConfig {
    /// Bench-grade defaults.
    pub fn standard() -> Self {
        ZooTaskConfig {
            width: 48,
            depth: 3,
            rff: true,
            n_collocation: 2048,
            n_condition: 256,
            cond_weight: 10.0,
            fidelity: Fidelity::Full,
            eval_budget: 4096,
            causal: false,
            conservation: false,
        }
    }

    /// Small and fast for smoke tests and CI.
    pub fn quick() -> Self {
        ZooTaskConfig {
            width: 16,
            depth: 2,
            rff: false,
            n_collocation: 128,
            n_condition: 48,
            cond_weight: 10.0,
            fidelity: Fidelity::Quick,
            eval_budget: 512,
            causal: false,
            conservation: false,
        }
    }
}

/// Map a problem's coordinate metadata to a [`FieldNetConfig`].
pub fn net_config_for(problem: &dyn PdeProblem, cfg: &ZooTaskConfig) -> FieldNetConfig {
    let coords = problem
        .coords()
        .iter()
        .map(|c| match c.kind {
            CoordKind::Periodic => CoordSpec::Periodic { length: c.span() },
            CoordKind::Bounded => CoordSpec::Raw,
            CoordKind::Time => CoordSpec::LearnedPeriod {
                period0: 4.0 * c.span(),
            },
        })
        .collect();
    FieldNetConfig {
        coords,
        rff: cfg.rff.then_some(RffSpec {
            n_features: 32,
            sigma: 1.0,
        }),
        hidden: vec![cfg.width; cfg.depth],
        n_fields: problem.n_outputs(),
        activation: Activation::Tanh,
    }
}

struct PreparedCondition {
    name: &'static str,
    deriv: Option<usize>,
    cols: Vec<Tensor>,
    target: Tensor,
}

/// The conservation lattice: time-major rows, `per_slice` spatial points
/// per slice (one slice without a time coordinate), so `mean_groups`
/// averages the density and the overlaps per slice.
struct Conservation {
    cols: Vec<Tensor>,
    per_slice: usize,
    measure: f64,
    target: f64,
    /// Each of [`PdeProblem::orthogonal_to`] sampled at the rows, one
    /// column per output.
    lower: Vec<Vec<Tensor>>,
}

impl Conservation {
    /// Uniform periodic lattice over the spatial axes at each slice time
    /// (or once, without a time coordinate): 64 points on a line, 16 per
    /// axis on a plane.
    fn new(problem: &dyn PdeProblem, coords: &[CoordDef], t_idx: Option<usize>) -> Self {
        let target = problem.conserved_norm().unwrap_or_else(|| {
            panic!(
                "conservation loss: `{}` declares no conserved norm",
                problem.key()
            )
        });
        let spatial: Vec<&CoordDef> = coords
            .iter()
            .filter(|c| c.kind != CoordKind::Time)
            .collect();
        let side = if spatial.len() == 1 { 64 } else { 16 };
        let axes: Vec<Vec<f64>> = spatial
            .iter()
            .map(|c| {
                (0..side)
                    .map(|i| c.lo + c.span() * i as f64 / side as f64)
                    .collect()
            })
            .collect();
        let lattice = tensor_grid(&axes);
        let points: Vec<Vec<f64>> = match t_idx {
            None => lattice.clone(),
            Some(t_idx) => {
                let t = &coords[t_idx];
                (1..=CONSERVATION_SLICES)
                    .flat_map(|k| {
                        let tk = t.lo + t.span() * k as f64 / CONSERVATION_SLICES as f64;
                        lattice.iter().map(move |p| {
                            let mut q = p.clone();
                            q.insert(t_idx, tk);
                            q
                        })
                    })
                    .collect()
            }
        };
        let lower = problem
            .orthogonal_to()
            .iter()
            .map(|state| {
                let samples: Vec<Vec<f64>> = points.iter().map(|p| state.sample(p)).collect();
                columns_of(&samples, problem.n_outputs())
            })
            .collect();
        Conservation {
            cols: columns_of(&points, coords.len()),
            per_slice: lattice.len(),
            measure: spatial.iter().map(|c| c.span()).product(),
            target,
            lower,
        }
    }
}

/// A registry problem assembled into a trainable task.
pub struct ZooTask {
    problem: Box<dyn PdeProblem>,
    net: FieldNet,
    points: Vec<Vec<f64>>,
    point_cols: Vec<Tensor>,
    conditions: Vec<PreparedCondition>,
    /// [`PdeProblem::second_derivatives`]: the collocation jet's `dd` count.
    n_second: usize,
    unknowns: Vec<ParamId>,
    cond_weight: f64,
    causal: Option<CausalWeights>,
    conservation: Option<Conservation>,
    reference: Box<dyn RefSolution>,
    eval_points: Vec<Vec<f64>>,
    eval_ref: Vec<f64>,
    /// The unweighted named terms of the last loss build
    /// ([`PinnTask::loss_terms`]).
    loss_terms: Vec<(&'static str, f64)>,
}

impl ZooTask {
    /// Assemble a task straight from a registry key, with the network
    /// [`net_config_for`] derives from the problem and `cfg`.
    pub fn from_key(
        key: &str,
        cfg: &ZooTaskConfig,
        params: &mut ParamSet,
        rng: &mut StdRng,
    ) -> Result<Self, UnknownProblem> {
        let problem = lookup(key)?;
        let net = net_config_for(problem.as_ref(), cfg);
        Ok(ZooTask::new(problem, &net, cfg, params, rng))
    }

    /// Assemble a task from a boxed problem definition and an explicit
    /// network architecture (`cfg.width`, `depth` and `rff` are not read).
    /// Network parameters are registered into `params` under the problem
    /// key, so a serve-side spec rebuild with `name = key` replays the
    /// construction bit-exactly. Each of the problem's
    /// [`PdeProblem::unknowns`] follows as a `[1, 1]` parameter
    /// `<key>.<name>` holding its initial value.
    ///
    /// # Panics
    /// If `cfg.causal` is set for a problem without a time coordinate,
    /// `cfg.conservation` for one without a conserved norm, the problem
    /// declares orthogonality constraints and `cfg.conservation` is off, or
    /// it declares more [`PdeProblem::second_derivatives`] than
    /// coordinates.
    pub fn new(
        problem: Box<dyn PdeProblem>,
        net: &FieldNetConfig,
        cfg: &ZooTaskConfig,
        params: &mut ParamSet,
        rng: &mut StdRng,
    ) -> Self {
        let net = FieldNet::new(params, rng, net, problem.key());
        let unknowns = problem
            .unknowns()
            .into_iter()
            .map(|(name, v)| {
                let name = format!("{}.{name}", problem.key());
                params.add(name, Tensor::from_vec([1, 1], vec![v]))
            })
            .collect();

        let coords = problem.coords();
        let n_second = problem.second_derivatives();
        assert!(
            n_second <= coords.len(),
            "`{}` declares {n_second} second derivatives for {} coordinates",
            problem.key(),
            coords.len()
        );
        let ranges: Vec<(f64, f64)> = coords.iter().map(|c| (c.lo, c.hi)).collect();
        let domain = Domain::new(&ranges);
        let points = latin_hypercube(&domain, cfg.n_collocation, rng);
        let point_cols = columns_of(&points, coords.len());

        let conditions = problem
            .conditions(cfg.n_condition)
            .into_iter()
            .map(|c| {
                let n_out = problem.n_outputs();
                let flat: Vec<f64> = c.targets.iter().flatten().copied().collect();
                PreparedCondition {
                    name: c.name,
                    deriv: c.deriv,
                    cols: columns_of(&c.points, coords.len()),
                    target: Tensor::from_vec([c.points.len(), n_out], flat),
                }
            })
            .collect();

        let t_idx = coords.iter().position(|c| c.kind == CoordKind::Time);
        let causal = cfg.causal.then(|| {
            let t = t_idx.unwrap_or_else(|| {
                panic!("causal weighting: `{}` has no time coordinate", problem.key())
            });
            let times: Vec<f64> = points.iter().map(|p| p[t]).collect();
            let (lo, hi) = (coords[t].lo, coords[t].hi);
            CausalWeights::new(lo, hi, CAUSAL_BINS, CAUSAL_EPSILON, &times)
        });
        assert!(
            cfg.conservation || problem.orthogonal_to().is_empty(),
            "orthogonality constraints: `{}` needs the conservation term",
            problem.key()
        );
        let conservation = cfg
            .conservation
            .then(|| Conservation::new(problem.as_ref(), &coords, t_idx));

        let reference = {
            let _span = qpinn_telemetry::span("reference");
            problem.reference(cfg.fidelity)
        };
        // Tensor evaluation grid: spread the budget evenly over the axes.
        let eval_span = qpinn_telemetry::span("eval_grid");
        let per_axis = (cfg.eval_budget as f64)
            .powf(1.0 / coords.len() as f64)
            .round()
            .max(5.0) as usize;
        let axes: Vec<Vec<f64>> = coords
            .iter()
            .map(|c| {
                let n = per_axis;
                let denom = match c.kind {
                    CoordKind::Periodic => n as f64,
                    _ => (n - 1) as f64,
                };
                (0..n).map(|i| c.lo + c.span() * i as f64 / denom).collect()
            })
            .collect();
        let eval_points = tensor_grid(&axes);
        let eval_ref: Vec<f64> = eval_points
            .iter()
            .flat_map(|p| reference.sample(p))
            .collect();
        drop(eval_span);

        ZooTask {
            problem,
            net,
            points,
            point_cols,
            conditions,
            n_second,
            unknowns,
            cond_weight: cfg.cond_weight,
            causal,
            conservation,
            reference,
            eval_points,
            eval_ref,
            loss_terms: Vec::new(),
        }
    }

    /// The problem definition.
    pub fn problem(&self) -> &dyn PdeProblem {
        self.problem.as_ref()
    }

    /// The surrogate network.
    pub fn net(&self) -> &FieldNet {
        &self.net
    }

    /// The reference solution the error metric is scored against.
    pub fn reference(&self) -> &dyn RefSolution {
        self.reference.as_ref()
    }

    /// The current values of the problem's unknowns, in the order
    /// [`PdeProblem::unknowns`] lists them.
    pub fn unknowns(&self, params: &ParamSet) -> Vec<f64> {
        self.unknowns.iter().map(|&id| params.get(id).item()).collect()
    }

    /// The unweighted lattice terms, named: norm conservation
    /// `mean_k (∫|ψ|²(t_k) − N₀)²`, then the summed squared overlaps with
    /// the lower states when the problem declares any. Empty without the
    /// conservation option.
    fn conservation_losses(&self, ctx: &mut GraphCtx<'_>) -> Vec<(&'static str, Var)> {
        let Some(cons) = self.conservation.as_ref() else {
            return Vec::new();
        };
        let cols: Vec<Var> = cons
            .cols
            .iter()
            .map(|t| ctx.g.constant(t.clone()))
            .collect();
        let pred = self.net.forward_values(ctx, &cols);
        let fields: Vec<Var> = (0..self.net.n_fields())
            .map(|c| ctx.g.col(pred, c))
            .collect();
        let (per_slice, measure) = (cons.per_slice, cons.measure);
        let norm = loss::norm_conservation_loss(ctx.g, &fields, per_slice, measure, cons.target);
        let mut terms = vec![("conservation", norm)];
        let overlaps: Vec<Var> = cons
            .lower
            .iter()
            .map(|state| {
                let state: Vec<Var> = state.iter().map(|t| ctx.g.constant(t.clone())).collect();
                loss::overlap_loss(ctx.g, &fields, &state, per_slice, measure)
            })
            .collect();
        if let Some((&first, rest)) = overlaps.split_first() {
            let sum = rest.iter().fold(first, |acc, &o| ctx.g.add(acc, o));
            terms.push(("orthogonality", sum));
        }
        terms
    }
}

/// Every combination of one value per axis, first axis outermost.
fn tensor_grid(axes: &[Vec<f64>]) -> Vec<Vec<f64>> {
    axes.iter().fold(vec![Vec::new()], |grid, axis| {
        grid.into_iter()
            .flat_map(|p| {
                axis.iter().map(move |&v| {
                    let mut q = p.clone();
                    q.push(v);
                    q
                })
            })
            .collect()
    })
}

fn columns_of(points: &[Vec<f64>], n_coords: usize) -> Vec<Tensor> {
    (0..n_coords)
        .map(|c| Tensor::column(&points.iter().map(|p| p[c]).collect::<Vec<_>>()))
        .collect()
}

impl PinnTask for ZooTask {
    fn build_loss(&mut self, ctx: &mut GraphCtx<'_>) -> Var {
        let cols: Vec<Var> = {
            let _span = qpinn_telemetry::span("sample");
            qpinn_telemetry::counter("train.collocation_points").add(self.points.len() as u64);
            self.point_cols
                .iter()
                .map(|t| ctx.g.constant(t.clone()))
                .collect()
        };
        let fields = {
            let _span = qpinn_telemetry::span("forward");
            let out = self.net.forward_jet_demand(ctx, &cols, self.n_second);
            split_fields(ctx.g, &out, self.net.n_fields())
        };
        let residual_span = qpinn_telemetry::span("residual");
        let unknowns: Vec<Var> = self.unknowns.iter().map(|&id| ctx.param(id)).collect();
        let residuals = self
            .problem
            .residuals_with(ctx.g, &fields, &self.points, &unknowns);
        // Causal weights follow the current squared residual, summed over
        // the residual columns, before they weight this epoch's loss.
        let weights = match &mut self.causal {
            Some(cw) => {
                let mut r2: Vec<f64> = ctx
                    .g
                    .value(residuals[0])
                    .data()
                    .iter()
                    .map(|r| r * r)
                    .collect();
                for &r in &residuals[1..] {
                    for (acc, v) in r2.iter_mut().zip(ctx.g.value(r).data()) {
                        *acc += v * v;
                    }
                }
                cw.update(&r2);
                Some(ctx.g.constant(Tensor::column(&cw.point_weights())))
            }
            None => None,
        };
        let mut lpde = loss::residual_mse(ctx.g, residuals[0], weights);
        for &r in &residuals[1..] {
            let l = loss::residual_mse(ctx.g, r, weights);
            lpde = ctx.g.add(lpde, l);
        }
        drop(residual_span);

        let mut terms = vec![(1.0, lpde)];
        let mut components = vec![("pde", lpde)];
        for cond in &self.conditions {
            let ccols: Vec<Var> = cond
                .cols
                .iter()
                .map(|t| ctx.g.constant(t.clone()))
                .collect();
            let l = match cond.deriv {
                None => loss::ic_loss(ctx, &self.net, &ccols, &cond.target),
                Some(c) => {
                    // Derivative-valued condition (e.g. initial velocity):
                    // constrain ∂(fields)/∂coord_c at the condition points,
                    // which needs no second derivative.
                    let jet = self.net.forward_jet_demand(ctx, &ccols, 0);
                    let tgt = ctx.g.constant(cond.target.clone());
                    let diff = ctx.g.sub(jet.d[c], tgt);
                    ctx.g.mse(diff)
                }
            };
            terms.push((self.cond_weight, l));
            components.push((cond.name, l));
        }
        for (name, l) in self.conservation_losses(ctx) {
            terms.push((self.cond_weight, l));
            components.push((name, l));
        }
        loss::publish_components(ctx.g, &components, &mut self.loss_terms);
        loss::total_loss(ctx.g, &terms)
    }

    fn loss_terms(&self) -> &[(&'static str, f64)] {
        &self.loss_terms
    }

    /// The rel-L2 error `‖p − r‖/‖r‖` of the prediction on the eval grid;
    /// for a [`PdeProblem::sign_invariant`] family,
    /// `min(‖p − r‖, ‖p + r‖)/‖r‖`.
    fn eval_error(&self, params: &ParamSet) -> f64 {
        let pred = self.net.predict(params, &self.eval_points);
        let either_sign = self.problem.sign_invariant();
        let mut num = 0.0;
        let mut num_flipped = 0.0;
        let mut den = 0.0;
        for (p, r) in pred.data().iter().zip(&self.eval_ref) {
            num += (p - r) * (p - r);
            if either_sign {
                num_flipped += (p + r) * (p + r);
            }
            den += r * r;
        }
        if either_sign {
            num = f64::min(num, num_flipped);
        }
        if den == 0.0 {
            num.sqrt()
        } else {
            (num / den).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_problems::zoo::{eigenstate, trap_frequency, EigenRef};
    use rand::SeedableRng;

    #[test]
    fn gray_scott_task_is_vector_valued_and_finite() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut task =
            ZooTask::from_key("gray-scott", &ZooTaskConfig::quick(), &mut params, &mut rng)
                .unwrap();
        assert_eq!(task.net().n_fields(), 2);
        let mut g = qpinn_autodiff::Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let l = task.build_loss(&mut ctx);
        assert!(g.value(l).item().is_finite());
    }

    #[test]
    fn wave_task_includes_velocity_condition_gradients() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(8);
        let mut task = ZooTask::from_key("wave", &ZooTaskConfig::quick(), &mut params, &mut rng)
            .unwrap();
        let mut g = qpinn_autodiff::Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let l = task.build_loss(&mut ctx);
        let mut grads = ctx.g.backward(l);
        let collected = ctx.collect_grads(&mut grads);
        let nonzero = collected.iter().filter(|t| t.max_abs() > 0.0).count();
        assert!(
            nonzero >= collected.len() - 1,
            "{nonzero}/{} params got gradients",
            collected.len()
        );
    }

    #[test]
    fn from_key_propagates_unknown_problem() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(
            ZooTask::from_key("not-a-pde", &ZooTaskConfig::quick(), &mut params, &mut rng)
                .is_err()
        );
    }

    fn built_loss(task: &mut ZooTask, params: &ParamSet) -> (usize, f64) {
        let mut g = qpinn_autodiff::Graph::new();
        let mut ctx = GraphCtx::new(&mut g, params);
        let l = task.build_loss(&mut ctx);
        (g.len(), g.value(l).item())
    }

    fn wave_task(key: &str, cfg: &ZooTaskConfig, seed: u64) -> (ZooTask, ParamSet) {
        let problem = lookup(key).unwrap();
        let c = problem.coords();
        let net = FieldNetConfig::standard_wave(c[0].span(), c[1].span(), 12, 2);
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let task = ZooTask::new(problem, &net, cfg, &mut params, &mut rng);
        (task, params)
    }

    #[test]
    fn options_off_build_the_same_tape_as_before_they_existed() {
        // Initial loss of every registered family at the quick preset,
        // recorded before the causal and conservation options were added
        // to the task, and the tape length since each jet carries only the
        // second derivatives its reader demands (one stacked node per
        // layer). The per-slot tapes were 197, 86, 213, 91, 338, 219, 210,
        // 210, 332 and 337 nodes long, and the full-jet stacked tapes 56,
        // 49, 72, 46, 80, 78, 69, 69, 84 and 79, all with the same loss
        // bits. When the network's sin/cos moved from libm to the SIMD
        // polynomial (DESIGN §13; it differs from libm by 1–2 ulp on some
        // arguments) tdse2d-free's loss fell by one ulp, from
        // 1.416744698626946e0; the other nine kept their bits.
        let want: [(&str, usize, f64); 10] = [
            ("convection-diffusion", 54, 7.0623103909851785e0),
            ("eigen-harmonic", 49, 1.4480852970212817e2),
            ("gray-scott", 69, 5.992387866678013e0),
            ("helmholtz", 46, 7.076041602447565e3),
            ("klein-gordon", 78, 7.270294203833001e0),
            ("nls-soliton", 75, 1.824416357202369e0),
            ("tdse-free", 66, 1.7982944924454842e0),
            ("tdse-harmonic", 66, 1.710612480006614e2),
            ("tdse2d-free", 81, 1.4167446986269459e0),
            ("wave", 77, 7.0768810159815585e0),
        ];
        assert_eq!(qpinn_problems::keys().len(), want.len());
        for (key, len, loss) in want {
            let mut params = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(0);
            let mut task =
                ZooTask::from_key(key, &ZooTaskConfig::quick(), &mut params, &mut rng).unwrap();
            let (n, l) = built_loss(&mut task, &params);
            assert_eq!(n, len, "{key}: tape length");
            assert_eq!(l.to_bits(), loss.to_bits(), "{key}: loss {l:e}");
        }
    }

    #[test]
    fn options_add_terms_to_the_tape() {
        let (mut task, params) = wave_task("tdse-free", &ZooTaskConfig::quick(), 1);
        let (base_len, _) = built_loss(&mut task, &params);
        for (causal, conservation) in [(true, false), (false, true), (true, true)] {
            let cfg = ZooTaskConfig {
                causal,
                conservation,
                ..ZooTaskConfig::quick()
            };
            let (mut task, params) = wave_task("tdse-free", &cfg, 1);
            let (n, l) = built_loss(&mut task, &params);
            assert!(
                n > base_len,
                "causal={causal} conservation={conservation}: {n}"
            );
            assert!(l.is_finite());
        }
    }

    #[test]
    fn causal_weights_lie_in_unit_interval_and_do_not_increase_in_time() {
        let cfg = ZooTaskConfig {
            causal: true,
            ..ZooTaskConfig::quick()
        };
        let (mut task, params) = wave_task("tdse-free", &cfg, 2);
        // Construction starts fully open; one loss build updates the
        // weights from the untrained net's residuals.
        let cw = task.causal.as_ref().unwrap();
        assert!(cw.point_weights().iter().all(|&w| w == 1.0));
        built_loss(&mut task, &params);
        let w = task.causal.as_ref().unwrap().point_weights();
        let mut by_time: Vec<(f64, f64)> = task.points.iter().map(|p| p[1]).zip(w).collect();
        by_time.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(
            by_time.iter().all(|&(_, w)| w > 0.0 && w <= 1.0),
            "{by_time:?}"
        );
        assert!(
            by_time.windows(2).all(|p| p[1].1 <= p[0].1),
            "weights rise in time"
        );
        assert!(by_time.last().unwrap().1 < 1.0, "late bins should be gated");
    }

    #[test]
    fn conservation_grid_is_eight_slices_of_the_spatial_lattice() {
        let cfg = ZooTaskConfig {
            conservation: true,
            ..ZooTaskConfig::quick()
        };
        let (task, _) = wave_task("tdse-free", &cfg, 3);
        let cons = task.conservation.as_ref().unwrap();
        assert_eq!((cons.per_slice, cons.cols[0].len()), (64, 8 * 64));
        assert_eq!(cons.measure, 12.0);
        let t = cons.cols[1].data();
        assert_eq!((t[0], t[63], t[64], t[511]), (0.125, 0.125, 0.25, 1.0));

        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let task = ZooTask::from_key("tdse2d-free", &cfg, &mut params, &mut rng).unwrap();
        let cons = task.conservation.as_ref().unwrap();
        assert_eq!(
            (cons.per_slice, cons.measure, cons.target),
            (256, 100.0, 1.0)
        );
    }

    #[test]
    fn conservation_term_vanishes_exactly_at_the_target_norm() {
        // A constant-output net (raw coordinates, zero weights) predicts
        // ψ ≡ a + 0i, so every slice integrates to a²·L.
        let cfg = ZooTaskConfig {
            conservation: true,
            ..ZooTaskConfig::quick()
        };
        let term = |amplitude_scale: f64| {
            let mut params = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(4);
            let net = FieldNetConfig::plain(2, 8, 1, 2);
            let problem = lookup("tdse-free").unwrap();
            let task = ZooTask::new(problem, &net, &cfg, &mut params, &mut rng);
            let cons = task.conservation.as_ref().unwrap();
            let a = amplitude_scale * (cons.target / cons.measure).sqrt();
            for t in params.tensors_mut() {
                t.data_mut().fill(0.0);
            }
            let bias = params
                .iter()
                .position(|(_, n, _)| n == "tdse-free.out.b")
                .unwrap();
            params.tensors_mut()[bias]
                .data_mut()
                .copy_from_slice(&[a, 0.0]);
            let mut g = qpinn_autodiff::Graph::new();
            let mut ctx = GraphCtx::new(&mut g, &params);
            let (name, l) = task.conservation_losses(&mut ctx)[0];
            assert_eq!(name, "conservation");
            g.value(l).item()
        };
        assert!(term(1.0) < 1e-24, "{}", term(1.0));
        assert!(term(2.0) > 1.0, "{}", term(2.0));
        assert!(term(0.5) > 0.1, "{}", term(0.5));
    }

    #[test]
    fn gradients_reach_every_parameter_with_both_options_on() {
        let cfg = ZooTaskConfig {
            causal: true,
            conservation: true,
            ..ZooTaskConfig::quick()
        };
        for key in ["tdse-free", "nls-soliton"] {
            let (mut task, params) = wave_task(key, &cfg, 5);
            let mut g = qpinn_autodiff::Graph::new();
            let mut ctx = GraphCtx::new(&mut g, &params);
            let l = task.build_loss(&mut ctx);
            assert!(ctx.g.value(l).item().is_finite());
            let mut grads = ctx.g.backward(l);
            let collected = ctx.collect_grads(&mut grads);
            assert!(collected.iter().all(|t| t.all_finite()));
            let nonzero = collected.iter().filter(|t| t.max_abs() > 0.0).count();
            assert!(
                nonzero >= collected.len() - 1,
                "{key}: {nonzero}/{}",
                collected.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "no time coordinate")]
    fn causal_weighting_needs_a_time_coordinate() {
        let cfg = ZooTaskConfig {
            causal: true,
            ..ZooTaskConfig::quick()
        };
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(6);
        let _ = ZooTask::from_key("helmholtz", &cfg, &mut params, &mut rng);
    }

    #[test]
    #[should_panic(expected = "no conserved norm")]
    fn conservation_needs_a_conserved_norm() {
        let cfg = ZooTaskConfig {
            conservation: true,
            ..ZooTaskConfig::quick()
        };
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        let _ = ZooTask::from_key("gray-scott", &cfg, &mut params, &mut rng);
    }

    /// T2's quick eigenstate setup: boundary, norm and orthogonality at
    /// weight 100.
    fn eigen_cfg() -> ZooTaskConfig {
        ZooTaskConfig {
            width: 24,
            cond_weight: 100.0,
            conservation: true,
            ..ZooTaskConfig::quick()
        }
    }

    fn task_for(problem: Box<dyn PdeProblem>, cfg: &ZooTaskConfig, seed: u64) -> (ZooTask, ParamSet) {
        let net = net_config_for(problem.as_ref(), cfg);
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let task = ZooTask::new(problem, &net, cfg, &mut params, &mut rng);
        (task, params)
    }

    #[test]
    fn unknowns_register_after_the_net_and_receive_gradients() {
        let well = qpinn_problems::EigenProblem::infinite_well();
        let trap = qpinn_problems::TdseProblem::mild_harmonic();
        let cases = [
            (eigenstate(well, 0, 4.0, Vec::new()), eigen_cfg(), "eigenstate.E", 4.0),
            (
                trap_frequency(trap, 0.6, 24, 0.0),
                ZooTaskConfig::quick(),
                "trap-frequency.omega",
                0.6,
            ),
        ];
        for (problem, cfg, name, init) in cases {
            let mut net_only = ParamSet::new();
            let net = net_config_for(problem.as_ref(), &cfg);
            FieldNet::new(&mut net_only, &mut StdRng::seed_from_u64(1), &net, problem.key());
            let (mut task, params) = task_for(problem, &cfg, 1);
            assert_eq!(params.len(), net_only.len() + 1, "{name}");
            let (_, last, value) = params.iter().last().unwrap();
            assert_eq!((last, value.shape().dims()), (name, &[1, 1][..]));
            assert_eq!(task.unknowns(&params), [init]);
            let mut g = qpinn_autodiff::Graph::new();
            let mut ctx = GraphCtx::new(&mut g, &params);
            let l = task.build_loss(&mut ctx);
            let mut grads = ctx.g.backward(l);
            let grad = ctx.collect_grads(&mut grads).pop().unwrap().item();
            assert!(grad.is_finite() && grad != 0.0, "{name}: gradient {grad}");
        }
    }

    #[test]
    fn families_without_unknowns_register_no_extra_parameter() {
        for key in qpinn_problems::keys() {
            let cfg = ZooTaskConfig::quick();
            let problem = lookup(key).unwrap();
            assert!(problem.unknowns().is_empty(), "{key}");
            let mut net_only = ParamSet::new();
            let net = net_config_for(problem.as_ref(), &cfg);
            FieldNet::new(&mut net_only, &mut StdRng::seed_from_u64(0), &net, key);
            let (task, params) = task_for(problem, &cfg, 0);
            assert_eq!(params.len(), net_only.len(), "{key}");
            assert!(task.unknowns(&params).is_empty());
        }
    }

    #[test]
    fn zero_solution_costs_at_least_the_normalisation_weight() {
        // With all-zero network output the normalization term alone is
        // cond_weight·1, so the trivial solution is not a minimum.
        let well = qpinn_problems::EigenProblem::infinite_well();
        let cfg = eigen_cfg();
        let (mut task, mut params) = task_for(eigenstate(well, 0, 4.0, Vec::new()), &cfg, 1);
        for t in params.tensors_mut() {
            t.data_mut().fill(0.0);
        }
        let (_, l) = built_loss(&mut task, &params);
        assert!(l >= cfg.cond_weight * 0.99, "trivial solution must be expensive: {l}");
    }

    #[test]
    fn orthogonality_term_reacts_to_overlap() {
        // Deflating against a constant "state", which any nonzero ψ of
        // one sign overlaps, must cost more than not deflating at all,
        // with the same network and points.
        let well = qpinn_problems::EigenProblem::infinite_well();
        let flat = EigenRef {
            xs: vec![0.0, 1.0],
            psi: vec![1.0, 1.0],
        };
        let cfg = eigen_cfg();
        let (mut with, params) = task_for(eigenstate(well.clone(), 1, 4.0, vec![flat]), &cfg, 2);
        let (mut without, params2) = task_for(eigenstate(well, 1, 4.0, Vec::new()), &cfg, 2);
        let (_, l_with) = built_loss(&mut with, &params);
        let (_, l_without) = built_loss(&mut without, &params2);
        assert!(l_with > l_without, "{l_with} vs {l_without}");
        let mut g = qpinn_autodiff::Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let terms = with.conservation_losses(&mut ctx);
        let names: Vec<&str> = terms.iter().map(|t| t.0).collect();
        assert_eq!(names, ["conservation", "orthogonality"]);
        assert!(g.value(terms[1].1).item() > 0.0);
    }

    #[test]
    fn a_stationary_state_scores_the_same_at_either_sign() {
        // Negating the output layer negates the prediction exactly, which
        // a sign-sensitive rel-L2 scores as ‖p + r‖/‖r‖ instead.
        fn error_and_negated(problem: Box<dyn PdeProblem>, cfg: &ZooTaskConfig) -> (f64, f64) {
            let key = problem.key();
            let (task, mut params) = task_for(problem, cfg, 9);
            let before = task.eval_error(&params);
            let out: Vec<usize> = params
                .iter()
                .enumerate()
                .filter(|(_, (_, n, _))| {
                    *n == format!("{key}.out.w") || *n == format!("{key}.out.b")
                })
                .map(|(i, _)| i)
                .collect();
            assert_eq!(out.len(), 2, "{key}: output weight and bias");
            for i in out {
                for v in params.tensors_mut()[i].data_mut() {
                    *v = -*v;
                }
            }
            (before, task.eval_error(&params))
        }
        let well = qpinn_problems::EigenProblem::infinite_well();
        let state = eigenstate(well, 1, 4.0, Vec::new());
        assert!(state.sign_invariant());
        let (before, after) = error_and_negated(state, &eigen_cfg());
        assert_eq!(before.to_bits(), after.to_bits(), "{before} vs {after}");
        assert!(before < 2.0, "{before}");
        // Every registered family keeps the sign-sensitive error;
        // `eigen-harmonic`'s anchors pin the sign of its ground state.
        for key in qpinn_problems::keys() {
            assert!(!lookup(key).unwrap().sign_invariant(), "{key}");
        }
        let pinned = lookup("eigen-harmonic").unwrap();
        let (before, after) = error_and_negated(pinned, &ZooTaskConfig::quick());
        assert_ne!(before.to_bits(), after.to_bits(), "{before} vs {after}");
    }

    #[test]
    fn stationary_lattice_is_one_slice_over_the_box() {
        let well = qpinn_problems::EigenProblem::infinite_well();
        let (task, _) = task_for(eigenstate(well, 0, 4.0, Vec::new()), &eigen_cfg(), 3);
        let cons = task.conservation.as_ref().unwrap();
        assert_eq!((cons.per_slice, cons.cols[0].len()), (64, 64));
        assert_eq!((cons.measure, cons.target), (1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "needs the conservation term")]
    fn orthogonality_needs_the_conservation_term() {
        let well = qpinn_problems::EigenProblem::infinite_well();
        let lower = EigenRef {
            xs: vec![0.0, 1.0],
            psi: vec![1.0, 1.0],
        };
        let cfg = ZooTaskConfig {
            conservation: false,
            ..eigen_cfg()
        };
        let _ = task_for(eigenstate(well, 1, 4.0, vec![lower]), &cfg, 4);
    }
}
