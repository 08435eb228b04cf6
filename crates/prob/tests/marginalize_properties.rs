//! Property tests for `ContingencyTable::marginalize`: the stride-odometer
//! kernel must reproduce the per-cell decode-and-add algorithm bit for
//! bit, for every shape and keep order, on zero, integer and decayed
//! (non-dyadic) cells. Bit-identity, not closeness, is what keeps the
//! audit goldens and the decayed-horizon bytes in place.
//!
//! Case budget: `PROPTEST_CASES` — see CI.

use df_prob::contingency::{Axis, ContingencyTable};
use df_prob::numerics::exactly_zero;
use df_prob::rng::Pcg32;
use proptest::prelude::*;

fn axes_from(arities: &[usize]) -> Vec<Axis> {
    arities
        .iter()
        .enumerate()
        .map(|(k, &a)| {
            Axis::new(format!("ax{k}"), (0..a).map(|i| format!("c{i}")).collect()).unwrap()
        })
        .collect()
}

/// The reference algorithm: decode each nonzero source cell's
/// multi-index, project it onto the kept axes, and add it there.
fn reference_marginalize(t: &ContingencyTable, keep: &[&str]) -> ContingencyTable {
    let keep_pos: Vec<usize> = keep.iter().map(|n| t.axis_position(n).unwrap()).collect();
    let axes = keep_pos.iter().map(|&p| t.axes()[p].clone()).collect();
    let mut out = ContingencyTable::zeros(axes).unwrap();
    let mut src = vec![0usize; t.ndim()];
    let mut dst = vec![0usize; keep_pos.len()];
    for (flat, &v) in t.data().iter().enumerate() {
        if !exactly_zero(v) {
            t.unflatten(flat, &mut src);
            for (d, &p) in dst.iter_mut().zip(&keep_pos) {
                *d = src[p];
            }
            out.add(&dst, v);
        }
    }
    out
}

/// Adds `weight` to a uniformly drawn cell.
fn add_random(t: &mut ContingencyTable, rng: &mut Pcg32, weight: f64) {
    let mut idx = vec![0usize; t.ndim()];
    let flat = rng.next_below(t.num_cells() as u32) as usize;
    t.unflatten(flat, &mut idx);
    t.add(&idx, weight);
}

/// A table of the given shape holding all-zero cells (`kind` 0), sparse
/// integer counts (1), or a decayed horizon (2): eight steps of ×0.9
/// decay each followed by a batch of unit records, which leaves
/// non-dyadic cells whose sums round differently under reassociation.
fn table_of(arities: &[usize], kind: u8, rng: &mut Pcg32) -> ContingencyTable {
    let mut t = ContingencyTable::zeros(axes_from(arities)).unwrap();
    let n = t.num_cells();
    match kind {
        0 => {}
        1 => {
            for _ in 0..2 * n {
                add_random(&mut t, rng, 1.0);
            }
        }
        _ => {
            for _ in 0..8 {
                t.scale(0.9).unwrap();
                for _ in 0..n {
                    add_random(&mut t, rng, 1.0);
                }
            }
        }
    }
    t
}

fn bits(t: &ContingencyTable) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// The odometer kernel ≡ the per-cell reference, bit for bit, for
    /// 1–6 axes and a random nonempty keep list in random order.
    #[test]
    fn marginalize_matches_per_cell_reference_bitwise(
        arities in proptest::collection::vec(1usize..5, 1..7),
        kind in 0u8..3,
        seed in any::<u64>(),
    ) {
        let mut rng = Pcg32::new(seed);
        let t = table_of(&arities, kind, &mut rng);
        let mut order: Vec<usize> = (0..arities.len()).collect();
        rng.shuffle(&mut order);
        let k = 1 + rng.next_below(arities.len() as u32) as usize;
        let names: Vec<String> = order[..k].iter().map(|p| format!("ax{p}")).collect();
        let keep: Vec<&str> = names.iter().map(String::as_str).collect();

        let got = t.marginalize(&keep).unwrap();
        let want = reference_marginalize(&t, &keep);
        prop_assert_eq!(got.axes(), want.axes());
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Every subset of a decayed five-axis table, in declaration order —
    /// the Theorem 3.1 lattice an audit walks — matches the reference.
    #[test]
    fn decayed_lattice_matches_reference_bitwise(seed in any::<u64>()) {
        let arities = [2, 5, 4, 3, 2];
        let mut rng = Pcg32::new(seed);
        let t = table_of(&arities, 2, &mut rng);
        for mask in 1u32..(1 << arities.len()) {
            let names: Vec<String> = (0..arities.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| format!("ax{i}"))
                .collect();
            let keep: Vec<&str> = names.iter().map(String::as_str).collect();
            let got = t.marginalize(&keep).unwrap();
            prop_assert_eq!(bits(&got), bits(&reference_marginalize(&t, &keep)));
        }
    }
}
