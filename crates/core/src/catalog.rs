//! The machine-readable problem/ansatz catalog: the `qpinn-problems-v1`
//! document listing every registered PDE family (key, domain, outputs,
//! cross-check method) and every circuit template. The serve plane
//! exposes it at `/v1/problems`, and `tests/conformance.rs` freezes it as
//! a fixture so registry drift — a removed family, a silently changed
//! domain, a dropped cross-check — fails CI instead of passing quietly.

use crate::report::Json;
use qpinn_problems::zoo::{keys, lookup};
use qpinn_qcircuit::Ansatz;

/// Format version tag of the catalog document.
pub const PROBLEMS_DOC_VERSION: &str = "qpinn-problems-v1";

/// Build the full catalog document. Deterministic: same registry, same
/// JSON, byte for byte — that is what makes it freezable as a fixture.
pub fn problems_doc() -> Json {
    let problems: Vec<Json> = keys()
        .into_iter()
        .map(|k| {
            let p = lookup(k).expect("registered key must resolve");
            let coords: Vec<Json> = p
                .coords()
                .iter()
                .map(|c| {
                    Json::obj(vec![
                        ("name", Json::Str(c.name.to_string())),
                        ("lo", Json::Num(c.lo)),
                        ("hi", Json::Num(c.hi)),
                        ("kind", Json::Str(format!("{:?}", c.kind).to_lowercase())),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("key", Json::Str(k.to_string())),
                ("describe", Json::Str(p.describe().to_string())),
                ("coords", Json::Arr(coords)),
                ("n_outputs", Json::Num(p.n_outputs() as f64)),
                ("analytic", Json::Bool(p.analytic(&probe_point(p.as_ref())).is_some())),
                (
                    "independent_check",
                    Json::Bool(p.independent_check().is_some()),
                ),
                ("check_method", Json::Str(p.check_method().to_string())),
                ("residual_tol", Json::Num(p.residual_tol())),
            ])
        })
        .collect();
    let ansatze: Vec<Json> = Ansatz::all()
        .iter()
        .map(|a| {
            Json::obj(vec![
                ("name", Json::Str(a.name().to_string())),
                ("params_4q_2l", Json::Num(a.n_params(4, 2) as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("version", Json::Str(PROBLEMS_DOC_VERSION.to_string())),
        ("problems", Json::Arr(problems)),
        ("ansatze", Json::Arr(ansatze)),
    ])
}

/// Domain midpoint — a valid sample point for probing `analytic`.
fn probe_point(p: &dyn qpinn_problems::PdeProblem) -> Vec<f64> {
    p.coords().iter().map(|c| 0.5 * (c.lo + c.hi)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_lists_every_registered_problem_and_ansatz() {
        let doc = problems_doc();
        let text = doc.to_string();
        for k in keys() {
            assert!(text.contains(&format!("\"{k}\"")), "missing problem {k}");
        }
        for a in Ansatz::all() {
            assert!(text.contains(a.name()), "missing ansatz {}", a.name());
        }
        assert!(text.contains(PROBLEMS_DOC_VERSION));
    }

    #[test]
    fn doc_is_deterministic() {
        assert_eq!(problems_doc().to_string(), problems_doc().to_string());
    }

    #[test]
    fn every_problem_advertises_a_cross_check() {
        // The conformance contract: analytic or an independent numeric
        // check, for every family, no exceptions.
        let doc = problems_doc().to_string();
        assert!(!doc.is_empty());
        for k in keys() {
            let p = lookup(k).unwrap();
            let probe: Vec<f64> =
                p.coords().iter().map(|c| 0.5 * (c.lo + c.hi)).collect();
            assert!(
                p.analytic(&probe).is_some() || p.independent_check().is_some(),
                "{k} has neither an analytic solution nor an independent check"
            );
        }
    }
}
