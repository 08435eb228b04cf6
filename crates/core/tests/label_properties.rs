//! Property tests for the shared, lazily formatted group labels of
//! `JointCounts::group_outcomes`: every label read — one at a time, the
//! full list, inside an ε witness, through `PartialEq`, `Debug` and
//! `serde_json` — must match the eagerly formatted
//! `"a0=v, a1=w, …"` strings of an explicit-label table, whether or not
//! the list has been materialized yet.
//!
//! Case budget: `PROPTEST_CASES` — see CI.

use df_core::builder::{Empirical, Smoothed};
use df_core::metric::metric_from_tag;
use df_core::{GroupOutcomes, JointCounts};
use df_prob::contingency::{Axis, ContingencyTable};
use df_prob::rng::Pcg32;
use proptest::prelude::*;

/// Outcome axis `y` first, then attribute axes `a0…` of the given arities,
/// with sparse integer counts (some groups stay unobserved).
fn counts_of(outcomes: usize, arities: &[usize], seed: u64) -> JointCounts {
    let mut axes = vec![Axis::new("y", (0..outcomes).map(|i| format!("o{i}")).collect()).unwrap()];
    axes.extend(arities.iter().enumerate().map(|(k, &a)| {
        Axis::new(format!("a{k}"), (0..a).map(|i| format!("v{i}")).collect()).unwrap()
    }));
    let mut t = ContingencyTable::zeros(axes).unwrap();
    let mut rng = Pcg32::new(seed);
    let mut idx = vec![0usize; t.ndim()];
    for _ in 0..2 * t.num_cells() {
        let flat = rng.next_below(t.num_cells() as u32) as usize;
        t.unflatten(flat, &mut idx);
        t.add(&idx, 1.0);
    }
    JointCounts::from_table(t, "y").unwrap()
}

/// The eager reference: `format!("{}={}")` per attribute, joined by `", "`,
/// in mixed-radix order with the last attribute fastest.
fn eager_labels(counts: &JointCounts) -> Vec<String> {
    let axes = &counts.table().axes()[1..];
    let n: usize = axes.iter().map(Axis::len).product();
    (0..n)
        .map(|g| {
            let mut rem = g;
            let mut parts = vec![String::new(); axes.len()];
            for (k, axis) in axes.iter().enumerate().rev() {
                let v = rem % axis.len();
                rem /= axis.len();
                parts[k] = format!("{}={}", axis.name(), axis.labels()[v]);
            }
            parts.join(", ")
        })
        .collect()
}

/// The same table with its labels supplied as an explicit string list.
fn explicit_copy(go: &GroupOutcomes, labels: Vec<String>) -> GroupOutcomes {
    let probs = (0..go.num_groups())
        .flat_map(|g| (0..go.num_outcomes()).map(move |y| go.prob(g, y)))
        .collect();
    GroupOutcomes::new(
        go.outcome_labels().to_vec(),
        labels,
        probs,
        go.weights().to_vec(),
    )
    .unwrap()
}

proptest! {
    /// Single-label reads, witnesses and metric witnesses agree with the
    /// eager strings before the list is materialized; the list, equality
    /// (both directions), `Debug` and JSON agree after.
    #[test]
    fn lazy_labels_match_eager_formatting(
        outcomes in 2usize..4,
        arities in proptest::collection::vec(1usize..5, 1..5),
        seed in any::<u64>(),
    ) {
        let counts = counts_of(outcomes, &arities, seed);
        let eager = eager_labels(&counts);
        let lazy = counts.group_outcomes(0.0).unwrap();
        let explicit = explicit_copy(&lazy, eager.clone());

        // Unmaterialized: one label at a time, and inside witnesses.
        for (g, label) in eager.iter().enumerate() {
            prop_assert_eq!(&lazy.group_label(g), label);
        }
        prop_assert_eq!(lazy.epsilon(), explicit.epsilon());
        for tag in ["eps-df", "wc-ratio", "wc-diff", "alpha-if"] {
            let metric = metric_from_tag(tag).unwrap();
            for (a, b) in [
                (metric.evaluate(&lazy, &Empirical), metric.evaluate(&explicit, &Empirical)),
                (
                    metric.evaluate(&lazy, &Smoothed { alpha: 1.0 }),
                    metric.evaluate(&explicit, &Smoothed { alpha: 1.0 }),
                ),
            ] {
                prop_assert_eq!(a.unwrap(), b.unwrap());
            }
        }
        let smoothed = lazy.smoothed(1.0).unwrap();

        // Materialized, on the original and on a table sharing its labels.
        prop_assert_eq!(lazy.group_labels(), eager.as_slice());
        prop_assert_eq!(smoothed.group_labels(), eager.as_slice());
        for (g, label) in eager.iter().enumerate() {
            prop_assert_eq!(&lazy.group_label(g), label);
        }

        // Equality, Debug and JSON see only the strings.
        prop_assert!(lazy == explicit);
        prop_assert!(explicit == lazy);
        prop_assert!(counts.group_outcomes(0.0).unwrap() == explicit);
        prop_assert_eq!(format!("{lazy:?}"), format!("{explicit:?}"));
        prop_assert_eq!(
            serde_json::to_string(&lazy).unwrap(),
            serde_json::to_string(&explicit).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string(&smoothed).unwrap(),
            serde_json::to_string(&explicit.smoothed(1.0).unwrap()).unwrap()
        );
    }

    /// Marginal tables label their groups over the kept attributes only.
    #[test]
    fn marginal_labels_match_eager_formatting(
        arities in proptest::collection::vec(1usize..4, 2..5),
        seed in any::<u64>(),
    ) {
        let counts = counts_of(2, &arities, seed);
        let names: Vec<String> = (1..arities.len()).rev().map(|k| format!("a{k}")).collect();
        let keep: Vec<&str> = names.iter().map(String::as_str).collect();
        let marginal = counts.marginal_to(&keep).unwrap();
        let go = marginal.group_outcomes(0.0).unwrap();
        let eager = eager_labels(&marginal);
        prop_assert_eq!(go.group_labels(), eager.as_slice());
        prop_assert_eq!(go, explicit_copy(&marginal.group_outcomes(0.0).unwrap(), eager));
    }
}

/// A row that does not sum to one names its group in the error, formatted
/// from the shared source like every other label read.
#[test]
fn validation_error_names_the_group() {
    let err = GroupOutcomes::new(
        vec!["no".into(), "yes".into()],
        vec!["g=a".into(), "g=b".into()],
        vec![0.5, 0.5, 0.5, 0.6],
        vec![1.0, 1.0],
    )
    .unwrap_err();
    assert!(err.to_string().contains("group `g=b`"), "{err}");
}
