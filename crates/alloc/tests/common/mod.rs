//! Raw engine instances, shared by `tests/properties.rs` and the unit
//! tests of `src/engine.rs` (which include this file by path, so that
//! they can read the engine's pair table).

use proptest::prelude::*;

/// One feature: `0` about once in 64 draws, else log-uniform over the
/// 12 decades `1e-6..1e6`.
fn feature() -> impl Strategy<Value = f64> {
    (0u32..64, -6.0f64..6.0)
        .prop_map(|(zero, e)| if zero == 0 { 0.0 } else { 10f64.powf(e) })
}

/// Raw engine columns: `K ∈ 1..=16` channels, 1 to 47 items with
/// features from [`feature`] (so `f = 0` and `z = 0` occur), and a
/// valid dense assignment. About a quarter of the items copy an
/// earlier item's `(f, z)`, so exact ties occur too.
pub fn columns() -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>, Vec<u32>)> {
    (1usize..17).prop_flat_map(|k| {
        prop::collection::vec((feature(), feature(), 0..k as u32, 0usize..96), 1..48)
            .prop_map(move |rows| {
                let (mut f, mut z) = (Vec::new(), Vec::new());
                for (i, &(fx, zx, _, copy)) in rows.iter().enumerate() {
                    let (fx, zx) = if copy < i { (f[copy], z[copy]) } else { (fx, zx) };
                    f.push(fx);
                    z.push(zx);
                }
                let assign = rows.iter().map(|r| r.2).collect();
                (k, f, z, assign)
            })
    })
}

/// Per-channel `(F, Z)` accumulated in item order.
pub fn aggregates(k: usize, f: &[f64], z: &[f64], assign: &[u32]) -> (Vec<f64>, Vec<f64>) {
    let mut freq = vec![0.0; k];
    let mut size = vec![0.0; k];
    for (x, &c) in assign.iter().enumerate() {
        freq[c as usize] += f[x];
        size[c as usize] += z[x];
    }
    (freq, size)
}
