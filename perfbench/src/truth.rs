//! Exact ground truth for a trace replayed cyclically, and the accuracy of
//! a view's heavy hitters against it.

use nitrosketch::sketches::FlowKey;
use nitrosketch::traffic::GroundTruth;
use std::collections::HashSet;

/// Exact counts of the first `n` observations of `trace` replayed
/// cyclically: every key counts once per full pass plus once more if it
/// sits in the prefix the last, partial pass reached.
pub fn cyclic_truth(trace: &[FlowKey], n: u64) -> GroundTruth {
    assert!(!trace.is_empty(), "empty trace");
    let len = trace.len() as u64;
    let (passes, rem) = (n / len, n % len);
    let mut gt = GroundTruth::new();
    for (i, &key) in trace.iter().enumerate() {
        let w = passes + u64::from((i as u64) < rem);
        if w > 0 {
            gt.push_weighted(key, w as f64);
        }
    }
    gt
}

/// Heavy-hitter accuracy of a view against exact truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Accuracy {
    /// True heavy hitters (count ≥ `phi · L1`).
    pub true_hh: usize,
    /// Share of the true heavy hitters the view reports.
    pub recall: f64,
    /// Mean of `|estimate − true| / true` over the true heavy hitters.
    pub are: f64,
}

/// Compare `reported` heavy hitters and the point `estimate`s of a view
/// with the exact heavy hitters at fraction `phi`.
pub fn accuracy(
    truth: &GroundTruth,
    phi: f64,
    reported: &[(FlowKey, f64)],
    estimate: impl Fn(FlowKey) -> f64,
) -> Accuracy {
    let hh = truth.heavy_hitters(phi);
    assert!(!hh.is_empty(), "no true heavy hitter at phi = {phi}");
    let found: HashSet<FlowKey> = reported.iter().map(|&(k, _)| k).collect();
    let hits = hh.iter().filter(|(k, _)| found.contains(k)).count();
    let are = hh
        .iter()
        .map(|&(k, c)| (estimate(k) - c).abs() / c)
        .sum::<f64>()
        / hh.len() as f64;
    Accuracy {
        true_hh: hh.len(),
        recall: hits as f64 / hh.len() as f64,
        are,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_truth_counts_full_passes_and_the_partial_prefix() {
        let trace = [7, 8, 7, 9];
        // Two full passes plus [7, 8].
        let gt = cyclic_truth(&trace, 10);
        assert_eq!(gt.l1(), 10.0);
        assert_eq!(gt.count(7), 5.0);
        assert_eq!(gt.count(8), 3.0);
        assert_eq!(gt.count(9), 2.0);
        // Equal to the truth of the unrolled stream.
        let unrolled = GroundTruth::from_keys(trace.iter().cycle().take(10).copied());
        for k in [7, 8, 9] {
            assert_eq!(gt.count(k), unrolled.count(k));
        }
        // Shorter than one pass: only the prefix counts.
        let gt = cyclic_truth(&trace, 2);
        assert_eq!((gt.count(7), gt.count(8), gt.count(9)), (1.0, 1.0, 0.0));
        assert_eq!(gt.distinct(), 2);
    }

    #[test]
    fn accuracy_scores_recall_and_relative_error_over_true_heavy_hitters() {
        let gt = GroundTruth::from_keys([1, 1, 1, 1, 2, 2, 2, 2, 3, 4]);
        // phi 0.3 → keys 1 and 2 (4 of 10 each).
        let acc = accuracy(&gt, 0.3, &[(1, 5.0), (3, 1.0)], |k| match k {
            1 => 5.0,
            2 => 2.0,
            _ => 0.0,
        });
        assert_eq!(acc.true_hh, 2);
        assert_eq!(acc.recall, 0.5);
        assert_eq!(acc.are, (0.25 + 0.5) / 2.0);
    }
}
