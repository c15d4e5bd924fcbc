//! Correctness and comparability checks: bit identity of repeated
//! results, time-to-target detection, and the provenance stamp that
//! decides whether two results may be compared at all.

use std::collections::BTreeMap;

/// First index whose value differs from `want` in any bit, if any.
/// Equal-valued but differently-encoded floats (`0.0` vs `-0.0`) count as
/// different: the determinism contract is on the bits.
pub fn first_bit_mismatch(want: &[f64], got: &[f64]) -> Option<usize> {
    if want.len() != got.len() {
        return Some(want.len().min(got.len()));
    }
    want.iter()
        .zip(got)
        .position(|(a, b)| a.to_bits() != b.to_bits())
}

/// One periodic evaluation of a training run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalPoint {
    /// Epoch index the evaluation ran at.
    pub epoch: usize,
    /// Evaluation error.
    pub error: f64,
    /// Seconds from the start of the first epoch to the end of this
    /// evaluation.
    pub at_s: f64,
}

/// The first evaluation whose error meets `target`.
pub fn first_reaching(evals: &[EvalPoint], target: f64) -> Option<EvalPoint> {
    evals.iter().copied().find(|e| e.error <= target)
}

/// What a result was measured on. Two results may be compared only when
/// every field but the git revision agrees.
pub type Provenance = BTreeMap<String, String>;

/// The key that may differ between comparable results.
pub const REV_KEY: &str = "git_rev";

/// Stamp the current process: git revision, SIMD width, pool width,
/// nproc, CPU model, and every `QPINN_*` / `RAYON_NUM_THREADS` variable.
pub fn provenance() -> Provenance {
    let mut p = Provenance::new();
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    p.insert(REV_KEY.into(), rev);
    p.insert("simd_width".into(), qpinn_tensor::simd::width().to_string());
    p.insert(
        "pool_threads".into(),
        rayon::current_num_threads().to_string(),
    );
    p.insert(
        "nproc".into(),
        std::thread::available_parallelism()
            .map(|n| n.get().to_string())
            .unwrap_or_else(|_| "unknown".into()),
    );
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    p.insert("cpu".into(), cpu);
    for (k, v) in std::env::vars() {
        if k.starts_with("QPINN_") || k == "RAYON_NUM_THREADS" {
            p.insert(format!("env.{k}"), v);
        }
    }
    p
}

/// `Err` naming every field other than the git revision on which `a` and
/// `b` differ; such results were measured on different set-ups and must
/// not be compared.
pub fn comparable(a: &Provenance, b: &Provenance) -> Result<(), Vec<String>> {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let diffs: Vec<String> = keys
        .into_iter()
        .filter(|k| k.as_str() != REV_KEY && a.get(*k) != b.get(*k))
        .map(|k| {
            format!(
                "{k}: {} vs {}",
                a.get(k).map_or("(absent)", String::as_str),
                b.get(k).map_or("(absent)", String::as_str)
            )
        })
        .collect();
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_identity_catches_one_ulp() {
        let a = [0.066_123_456_789, 325.0];
        let mut b = a;
        assert_eq!(first_bit_mismatch(&a, &b), None);
        b[0] = f64::from_bits(a[0].to_bits() + 1);
        assert_ne!(a[0], b[0]);
        assert!((a[0] - b[0]).abs() < 1e-16);
        assert_eq!(first_bit_mismatch(&a, &b), Some(0));
        assert_eq!(first_bit_mismatch(&[0.0], &[-0.0]), Some(0));
        assert_eq!(first_bit_mismatch(&a, &a[..1]), Some(1));
    }

    #[test]
    fn time_to_target_on_a_synthetic_trajectory() {
        // Error falls 0.27 → 0.05 across evals every 25 epochs, with a
        // bump back above the target after first reaching it.
        let errs = [0.27, 0.2, 0.14, 0.11, 0.099, 0.12, 0.08, 0.05];
        let evals: Vec<EvalPoint> = errs
            .iter()
            .enumerate()
            .map(|(i, &error)| EvalPoint {
                epoch: 25 * i,
                error,
                at_s: 0.5 * (i + 1) as f64,
            })
            .collect();
        let hit = first_reaching(&evals, 0.1).unwrap();
        assert_eq!((hit.epoch, hit.at_s), (100, 2.5));
        // Meeting the target exactly counts.
        assert_eq!(first_reaching(&evals, 0.14).unwrap().epoch, 50);
        assert!(first_reaching(&evals, 0.01).is_none());
        assert!(first_reaching(&[], 1.0).is_none());
    }

    #[test]
    fn provenance_mismatch_refuses_comparison() {
        let mut a = Provenance::new();
        a.insert(REV_KEY.into(), "aaaa".into());
        a.insert("simd_width".into(), "8".into());
        a.insert("pool_threads".into(), "2".into());
        let mut b = a.clone();
        b.insert(REV_KEY.into(), "bbbb".into());
        assert_eq!(comparable(&a, &b), Ok(()));
        b.insert("simd_width".into(), "4".into());
        let err = comparable(&a, &b).unwrap_err();
        assert_eq!(err, vec!["simd_width: 8 vs 4".to_string()]);
        // A variable set on one side only also refuses.
        let mut c = a.clone();
        c.insert("env.QPINN_SIMD".into(), "scalar".into());
        assert_eq!(
            comparable(&a, &c).unwrap_err(),
            vec!["env.QPINN_SIMD: (absent) vs scalar".to_string()]
        );
    }
}
