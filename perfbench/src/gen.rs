//! Seeded input generation: schemas, labelled rows, request bodies.
//!
//! Every input a workload sends is built here during set-up, from the
//! `--seed` the benchmark was given; the program under test only ever sees
//! the generated bytes.

use differential_fairness::prob::contingency::{Axis, ContingencyTable};
use differential_fairness::prob::partial::PartialCounts;
use differential_fairness::prob::rng::Pcg32;

/// The outcome axis name shared by every workload schema.
pub const OUTCOME: &str = "outcome";
const OUTCOMES: [&str; 2] = ["deny", "approve"];

/// A record schema: the outcome axis plus one axis per protected
/// attribute, named `a0, a1, …` with labels `v0, v1, …`.
#[derive(Clone)]
pub struct Schema {
    pub arities: Vec<usize>,
    pub axes: Vec<Axis>,
}

impl Schema {
    pub fn new(arities: &[usize]) -> Self {
        let mut axes = vec![Axis::from_strs(OUTCOME, &OUTCOMES).expect("outcome axis")];
        for (i, &k) in arities.iter().enumerate() {
            let labels = (0..k).map(|v| format!("v{v}")).collect();
            axes.push(Axis::new(format!("a{i}"), labels).expect("attribute axis"));
        }
        Self {
            arities: arities.to_vec(),
            axes,
        }
    }

    pub fn attr_names(&self) -> Vec<String> {
        (0..self.arities.len()).map(|i| format!("a{i}")).collect()
    }

    pub fn cells(&self) -> usize {
        self.arities.iter().product()
    }

    /// `[4,3,2]` → `"[4,3,2]: 24 intersections, 48 cells"`, for printed
    /// descriptions (cells count the outcome too).
    pub fn describe(&self) -> String {
        let dims: Vec<String> = self.arities.iter().map(usize::to_string).collect();
        format!(
            "[{}]: {} intersections, {} cells, {} subsets",
            dims.join(","),
            self.cells(),
            self.cells() * self.axes[0].len(),
            (1u64 << self.arities.len()) - 1
        )
    }

    /// Labels of one coded row (outcome code first).
    pub fn labels(&self, row: &[u32]) -> Vec<String> {
        self.axes
            .iter()
            .zip(row)
            .map(|(axis, &c)| axis.labels()[c as usize].clone())
            .collect()
    }

    /// Codes per row: the outcome plus one per attribute.
    pub fn stride(&self) -> usize {
        self.axes.len()
    }

    /// The joint counts of flat coded rows, tallied directly (the batch
    /// reference every workload checks against).
    pub fn tally<'a>(&self, chunks: impl IntoIterator<Item = &'a [u32]>) -> ContingencyTable {
        let mut counts = PartialCounts::zeros(self.axes.clone()).expect("schema axes");
        let mut idx = vec![0usize; self.stride()];
        for chunk in chunks {
            for row in chunk.chunks_exact(self.stride()) {
                for (slot, &c) in idx.iter_mut().zip(row) {
                    *slot = c as usize;
                }
                counts.record(&idx);
            }
        }
        counts.into_table()
    }
}

/// Draws coded rows whose approval rate depends on the protected
/// intersection, so every audit certifies a finite, non-trivial ε.
pub struct RowGen {
    rng: Pcg32,
    arities: Vec<usize>,
    /// Per-intersection approval probability.
    approve: Vec<f64>,
}

impl RowGen {
    pub fn new(schema: &Schema, seed: u64) -> Self {
        let mut rng = Pcg32::new(seed);
        let approve = (0..schema.cells())
            .map(|_| 0.2 + 0.6 * rng.next_f64())
            .collect();
        Self {
            rng,
            arities: schema.arities.clone(),
            approve,
        }
    }

    /// Appends one row of codes: outcome first, then each attribute.
    pub fn push_row(&mut self, out: &mut Vec<u32>) {
        let at = out.len();
        out.push(0);
        let mut group = 0usize;
        for &k in &self.arities {
            let v = self.rng.next_below(k as u32);
            out.push(v);
            group = group * k + v as usize;
        }
        out[at] = u32::from(self.rng.next_f64() < self.approve[group]);
    }

    /// `n` rows, flat.
    pub fn rows(&mut self, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n * (self.arities.len() + 1));
        for _ in 0..n {
            self.push_row(&mut out);
        }
        out
    }
}

/// A JSON ingest body: `{"rows": [[labels…], …], "at": t}`.
pub fn json_body(schema: &Schema, rows: &[u32], at: f64) -> Vec<u8> {
    let mut out = String::with_capacity(rows.len() * 8 + 32);
    out.push_str("{\"rows\":[");
    for (i, row) in rows.chunks_exact(schema.stride()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, label) in schema.labels(row).iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(label);
            out.push('"');
        }
        out.push(']');
    }
    out.push_str(&format!("],\"at\":{at:?}}}"));
    out.into_bytes()
}

/// A header-less `text/csv` ingest body; its timestamp travels as `?at=`.
pub fn csv_body(schema: &Schema, rows: &[u32]) -> Vec<u8> {
    let mut out = String::new();
    for row in rows.chunks_exact(schema.stride()) {
        out.push_str(&schema.labels(row).join(","));
        out.push('\n');
    }
    out.into_bytes()
}
