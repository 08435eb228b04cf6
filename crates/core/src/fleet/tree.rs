//! Aggregation trees: folding a whole fleet's snapshots into one.
//!
//! [`MonitorSnapshot::merge`] combines two shard snapshots — and pays a
//! full ε-kernel pass (window, decayed horizon, every subset) per pair.
//! Folding 1 000 replicas pairwise therefore runs the kernel 999 times to
//! produce one number, and clones the axis vocabulary at every step. The
//! tree fold exploits what PR 4's property suite proved about the merge:
//! it is a **commutative monoid** on the counts (cell sums, record
//! totals, max clocks, max detector statistics, canonically ordered log
//! concatenation), so every derived field depends only on the *final*
//! accumulated counts — never on the fold order or shape.
//!
//! [`merge_many`] and [`merge_tree`] accumulate raw state in place
//! ([`CountsSnapshot::merge_from`], no per-pair axis clones) and run the
//! ε kernel exactly **once**, at the root. The result is byte-identical
//! to the sequential pairwise fold for any arity and any leaf order:
//! integer window counts are exact in `f64`, so cell sums reassociate
//! freely, and the alert/alarm logs sort under a canonical total key.
//! (Decayed-horizon cells are floating-point; their sums reassociate
//! exactly whenever the decay factor keeps cells dyadic — e.g. λ = 0.5 —
//! and to within 1 ulp otherwise.)
//!
//! `merge_tree`'s explicit arity models a *distributed* aggregation tier:
//! each intermediate node folds the k frames below it and forwards one
//! partial frame upward; only the root finishes. `merge_many` is the
//! single-aggregator special case (arity = fleet size).

use crate::builder::EpsilonEstimator;
use crate::error::{DfError, Result};
use crate::monitor::MonitorSnapshot;

/// Folds any number of shard snapshots into the fleet-wide monitor state,
/// recomputing ε (and the subset lattice) with `estimator` once over the
/// accumulated counts. Byte-identical to folding the slice sequentially
/// with [`MonitorSnapshot::merge`], at a fraction of the cost — see the
/// `fleet` criterion bench. (Exact for integer window counts and every
/// count-derived field; decayed-horizon cells are floating-point sums,
/// byte-exact when the decay keeps them dyadic — e.g. λ = 0.5 — and
/// within 1 ulp of the pairwise fold otherwise.)
///
/// Errors on an empty slice and on configuration-incompatible shards
/// (different schemas, windows, decay, subset lattices, or detectors).
pub fn merge_many(
    snapshots: &[MonitorSnapshot],
    estimator: &dyn EpsilonEstimator,
) -> Result<MonitorSnapshot> {
    merge_many_borrowed(&snapshots.iter().collect::<Vec<_>>(), estimator)
}

/// [`merge_many`] over borrowed snapshots, for callers that keep their
/// shard states (e.g. an audit server's stored replica snapshots): only
/// the first snapshot is cloned, as the accumulator.
pub fn merge_many_borrowed(
    snapshots: &[&MonitorSnapshot],
    estimator: &dyn EpsilonEstimator,
) -> Result<MonitorSnapshot> {
    fold_tree(snapshots, snapshots.len().max(2), estimator)
}

/// [`merge_many`] through an explicit k-ary aggregation tree: leaves are
/// grouped `arity` at a time, each group folds into one partial node, and
/// levels repeat until a single root remains, which alone pays the ε
/// recomputation. The output is byte-identical for every `arity ≥ 2` and
/// every leaf order — tree shape is a deployment choice (how many frames
/// each aggregation tier fans in), not a semantic one. (Same
/// decayed-horizon caveat as [`merge_many`]: non-dyadic λ reassociates
/// float sums, so those cells match the pairwise fold to 1 ulp rather
/// than bit-for-bit.)
pub fn merge_tree(
    snapshots: &[MonitorSnapshot],
    arity: usize,
    estimator: &dyn EpsilonEstimator,
) -> Result<MonitorSnapshot> {
    fold_tree(&snapshots.iter().collect::<Vec<_>>(), arity, estimator)
}

fn fold_tree(
    snapshots: &[&MonitorSnapshot],
    arity: usize,
    estimator: &dyn EpsilonEstimator,
) -> Result<MonitorSnapshot> {
    if arity < 2 {
        return Err(DfError::Invalid(format!(
            "aggregation tree arity must be at least 2, got {arity}"
        )));
    }
    if snapshots.is_empty() {
        return Err(DfError::Invalid(
            "cannot merge an empty set of snapshots".into(),
        ));
    }
    // Level 0: fold each group of leaves into one partial node.
    let mut nodes: Vec<MonitorSnapshot> = snapshots
        .chunks(arity)
        .map(|group| {
            let mut acc = group[0].clone();
            for leaf in &group[1..] {
                acc.absorb_counts(leaf)?;
            }
            Ok(acc)
        })
        .collect::<Result<_>>()?;
    // Upper levels: fold partial nodes until one root remains. Counts are
    // already accumulated in place; no ε work happens here.
    while nodes.len() > 1 {
        nodes = fold_level(nodes, arity)?;
    }
    let mut root = nodes.pop().expect("at least one node by construction");
    root.canonicalize_and_recompute(estimator)?;
    Ok(root)
}

/// One tree level: absorbs every group of `arity` nodes into its first.
fn fold_level(nodes: Vec<MonitorSnapshot>, arity: usize) -> Result<Vec<MonitorSnapshot>> {
    let mut next = Vec::with_capacity(nodes.len().div_ceil(arity));
    let mut iter = nodes.into_iter();
    while let Some(mut acc) = iter.next() {
        for _ in 1..arity {
            match iter.next() {
                Some(node) => acc.absorb_counts(&node)?,
                None => break,
            }
        }
        next.push(acc);
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Audit, Smoothed, SubsetPolicy};
    use df_prob::contingency::Axis;
    use df_prob::partial::{PartialCounts, Tally};

    struct Pairs(Vec<[usize; 2]>);

    impl Tally for Pairs {
        fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
            for idx in &self.0 {
                shard.record(idx);
            }
            Ok(())
        }
    }

    fn axes() -> Vec<Axis> {
        vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ]
    }

    fn shard_snapshots(n: usize) -> Vec<MonitorSnapshot> {
        (0..n)
            .map(|i| {
                let mut m = Audit::monitor("y", axes())
                    .estimator(Smoothed { alpha: 1.0 })
                    .subsets(SubsetPolicy::All)
                    .window_seconds(8.0)
                    .bucket_seconds(1.0)
                    .decay(0.5)
                    .build()
                    .unwrap();
                for t in 0..(2 + i % 3) {
                    let skew = (i + t) % 2;
                    m.push_at(&Pairs(vec![[1, skew], [0, 1 - skew]]), t as f64)
                        .unwrap();
                }
                m.snapshot().unwrap()
            })
            .collect()
    }

    fn sequential_fold(snaps: &[MonitorSnapshot]) -> MonitorSnapshot {
        let est = Smoothed { alpha: 1.0 };
        let mut acc = snaps[0].clone();
        for s in &snaps[1..] {
            acc = acc.merge(s, &est).unwrap();
        }
        acc
    }

    #[test]
    fn tree_fold_matches_sequential_pairwise_fold_bytewise() {
        let snaps = shard_snapshots(13);
        let reference = serde_json::to_string(&sequential_fold(&snaps)).unwrap();
        let est = Smoothed { alpha: 1.0 };
        for arity in [2, 3, 4, 7, 13, 64] {
            let tree = merge_tree(&snaps, arity, &est).unwrap();
            assert_eq!(
                serde_json::to_string(&tree).unwrap(),
                reference,
                "arity {arity}"
            );
        }
        assert_eq!(
            serde_json::to_string(&merge_many(&snaps, &est).unwrap()).unwrap(),
            reference
        );
    }

    #[test]
    fn singleton_fold_recanonicalizes_in_place() {
        let snaps = shard_snapshots(1);
        let est = Smoothed { alpha: 1.0 };
        let merged = merge_many(&snaps, &est).unwrap();
        // A snapshot is already canonical, so the one-leaf fold is the
        // identity on its serialized form.
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&snaps[0]).unwrap()
        );
    }

    #[test]
    fn validates_arity_and_nonempty_input() {
        let est = Smoothed { alpha: 1.0 };
        assert!(merge_many(&[], &est).is_err());
        let snaps = shard_snapshots(2);
        assert!(merge_tree(&snaps, 0, &est).is_err());
        assert!(merge_tree(&snaps, 1, &est).is_err());
    }

    #[test]
    fn incompatible_shards_are_refused() {
        let mut snaps = shard_snapshots(3);
        snaps[2].decay = None;
        snaps[2].decayed = None;
        snaps[2].decayed_epsilon = None;
        let est = Smoothed { alpha: 1.0 };
        assert!(merge_many(&snaps, &est).is_err());
    }
}
