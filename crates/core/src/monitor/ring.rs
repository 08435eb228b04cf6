//! The record-count bucket ring and the cached per-push ε engine.

use crate::epsilon::{GroupLabels, GroupOutcomes};
use crate::error::Result;
use df_prob::contingency::{Axis, ContingencyTable};
use df_prob::numerics::stable_sum;
use std::collections::VecDeque;

/// Precomputed schema state for the per-push hot path: evaluating ε on
/// every window update must not re-canonicalize the table, so the flat
/// cell index of every `(group, outcome)` pair is resolved once at build
/// time, and every table the engine hands out shares one label source
/// (labels are formatted only when read). [`WindowEngine::raw_outcomes`]
/// then reads counts straight out of the schema-order table — producing
/// a [`GroupOutcomes`] that is **value-identical** to
/// `JointCounts::from_table(table, outcome).group_outcomes(0.0)` (same
/// arithmetic, same label strings; asserted by a unit test), at a
/// fraction of the cost.
pub(super) struct WindowEngine {
    outcome_labels: Vec<String>,
    group_labels: GroupLabels,
    /// `flat[g · |Y| + y]` = flat index of `(group g, outcome y)` in the
    /// schema-order table.
    flat: Vec<usize>,
    n_outcomes: usize,
}

impl WindowEngine {
    pub(super) fn new(axes: &[Axis], outcome_axis: &str) -> Result<Self> {
        let template = ContingencyTable::zeros(axes.to_vec())?;
        let pos = template.axis_position(outcome_axis)?;
        let n_outcomes = axes[pos].len();
        // Attribute axes in canonical order: schema order, outcome removed
        // — exactly the order `JointCounts::from_table` preserves.
        let attr_positions: Vec<usize> = (0..axes.len()).filter(|&i| i != pos).collect();
        let group_labels =
            GroupLabels::product(attr_positions.iter().map(|&p| axes[p].clone()).collect());
        let n_groups = group_labels.len();
        let mut flat = Vec::with_capacity(n_groups * n_outcomes);
        let mut idx = vec![0usize; axes.len()];
        for g in 0..n_groups {
            // Mixed-radix decode, last attribute fastest (the kernel's
            // intersection indexing).
            let mut rem = g;
            for &p in attr_positions.iter().rev() {
                idx[p] = rem % axes[p].len();
                rem /= axes[p].len();
            }
            for y in 0..n_outcomes {
                idx[pos] = y;
                flat.push(template.flat_index(&idx));
            }
        }
        Ok(Self {
            outcome_labels: axes[pos].labels().to_vec(),
            group_labels,
            flat,
            n_outcomes,
        })
    }

    /// The raw (MLE, α = 0) group-outcome table of a schema-order counts
    /// table — the input every
    /// [`crate::builder::EpsilonEstimator`] consumes. The MLE is
    /// inlined (same arithmetic as `df_prob::estimate::categorical_mle`:
    /// compensated-sum total, per-cell division) to avoid one Vec
    /// allocation per group on the per-push hot path.
    pub(super) fn raw_outcomes(&self, table: &ContingencyTable) -> Result<GroupOutcomes> {
        let data = table.data();
        let n_groups = self.group_labels.len();
        let mut probs = vec![0.0; n_groups * self.n_outcomes];
        let mut weights = vec![0.0; n_groups];
        let mut counts = vec![0.0; self.n_outcomes];
        for (g, weight) in weights.iter_mut().enumerate() {
            let base = g * self.n_outcomes;
            for (y, c) in counts.iter_mut().enumerate() {
                *c = data[self.flat[base + y]];
            }
            *weight = counts.iter().sum();
            let total = stable_sum(&counts);
            if total > 0.0 {
                for (y, &c) in counts.iter().enumerate() {
                    probs[base + y] = c / total;
                }
            }
        }
        GroupOutcomes::with_labels(
            self.outcome_labels.clone(),
            self.group_labels.clone(),
            probs,
            weights,
        )
    }
}

/// The record-count bucket ring: sealed buckets oldest-first (raw cell
/// data; axes live once on the running window table), a running window
/// sum, and eviction of whole oldest buckets — via the exact
/// `subtract` path — while the ring holds more than `capacity` records.
pub(super) struct CountRing {
    /// Running sum of the ring — the window's joint counts.
    window: ContingencyTable,
    ring: VecDeque<(Vec<f64>, usize)>,
    capacity: usize,
    rows: usize,
    /// Cumulative count of buckets evicted over the ring's lifetime
    /// (telemetry; never decremented).
    evicted: u64,
}

impl CountRing {
    pub(super) fn new(axes: Vec<Axis>, capacity: usize) -> Result<Self> {
        Ok(Self {
            window: ContingencyTable::zeros(axes)?,
            ring: VecDeque::new(),
            capacity,
            rows: 0,
            evicted: 0,
        })
    }

    pub(super) fn evicted_buckets(&self) -> u64 {
        self.evicted
    }

    pub(super) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(super) fn rows(&self) -> usize {
        self.rows
    }

    pub(super) fn table(&self) -> &ContingencyTable {
        &self.window
    }

    /// Appends one sealed bucket and evicts expired buckets, exactly.
    pub(super) fn ingest(&mut self, bucket: &ContingencyTable, rows: usize) -> Result<()> {
        self.window.merge_from(bucket)?;
        self.rows += rows;
        self.ring.push_back((bucket.data().to_vec(), rows));
        while self.rows > self.capacity {
            let (expired, expired_rows) =
                self.ring.pop_front().expect("over-full ring is nonempty");
            self.window.subtract_data(&expired)?;
            self.rows -= expired_rows;
            self.evicted += 1;
        }
        Ok(())
    }
}
