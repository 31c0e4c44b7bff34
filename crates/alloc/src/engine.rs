//! The incremental best-move engine behind [`Cds`](crate::Cds), and so
//! behind DRP-CDS and the serving runtime's budgeted repair.
//!
//! The exhaustive CDS scan re-evaluates all `O(KN)` candidate moves per
//! iteration even though Eq. 4's reduction
//! `Δc = f_x(Z_p − Z_q) + z_x(F_p − F_q) − 2 f_x z_x`
//! only reads the two touched groups' aggregates. [`BestMoveEngine`]
//! instead keeps a `K × K` **pair table**: for each source channel `c`
//! and destination `q`, the best `(Δc, item)` over `c`'s members (larger
//! reduction first, ties to the smaller item id), the differences
//! `(Z_c − Z_q, F_c − F_q)` it was scored or bounded at, plus the best
//! pair of each row. Members live in channel-major columns (`f`, `z`,
//! `2fz`, item id), so scoring a pair is one pass over one contiguous
//! segment. Each channel also keeps its members' largest `f` and `z`.
//!
//! A move `x: p → q*` lowers `F_p`, `Z_p` and raises `F_q*`, `Z_q*`.
//! IEEE rounding is monotone and `f, z ≥ 0`, so each pair's values move
//! one way only:
//!
//! * `(c, q*)` and `(p, d)` can only **fall** (`p` also lost `x`): they
//!   keep their stored value as a *stale* upper bound;
//! * `(c, p)` for every `c` can only **rise**, with its members
//!   unchanged: its stored value is raised by the largest `f` and `z`
//!   of `c` times the rise of the two differences, plus a rounding
//!   slack, and turns stale;
//! * `(q*, d)` for every `d` can only **rise**, and `q*` gained `x`: the
//!   old members' raised bound, or `x`'s exact value when that is
//!   above it (then the pair is fresh);
//! * every other pair is unchanged.
//!
//! A stale pair's stored `(Δc, item)` still bounds its true one in the
//! pick order: a fallen pair's members' values can only fall and its
//! source gained no member, so at an equal value its best member can
//! only have a larger id; a raised pair stores item 0. The pick folds
//! the `K` row maxima under that order; when the winner is stale it is
//! re-scored and the pick repeats. A move therefore costs `O(K)` bound
//! updates and row upkeep, plus one `O(|c| + K)` re-score for each stale
//! pair that reaches the top; no pick reads all `K²` pairs.
//!
//! Every fresh value is the exhaustive scan's canonical expression over
//! aggregates updated by the same operations, and the pick order is the
//! one the ascending strict-`>` scan implies (larger reduction, then
//! smaller item id, then smaller destination), so the engine's move
//! sequence is **bit-for-bit identical** to the reference scan's. The
//! differential battery in `dbcast-conformance` pins that equivalence.

/// Sentinel item id: the pair's source channel has no members.
const NO_ITEM: u32 = u32::MAX;

/// Lanes of the pair kernel: independent accumulators the compiler can
/// keep in vector registers.
const LANES: usize = 8;

/// One move selected (and possibly applied) by the engine, in dense
/// item-index coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineMove {
    /// The item to relocate.
    pub item: usize,
    /// Its current channel.
    pub from: usize,
    /// The destination channel.
    pub to: usize,
    /// The Eq. 4 reduction, bit-identical to the exhaustive scan's.
    pub reduction: f64,
}

/// One `(source, destination)` entry of the pair table.
#[derive(Debug, Clone, Copy)]
struct Pair {
    /// The best member's reduction; an upper bound when `stale`.
    r: f64,
    /// The best member (smallest id among equal reductions); 0 once
    /// the value is a raised bound.
    item: u32,
    /// Whether `r` is an upper bound rather than the exact value.
    stale: bool,
    /// The differences `Z_c − Z_q` and `F_c − F_q` that `r` holds at:
    /// the ones it was scored with, or the point a raise moved it to.
    /// The current differences never exceed them.
    dz: f64,
    df: f64,
}

impl Pair {
    /// An empty source channel: no candidate at all.
    const NONE: Pair =
        Pair { r: f64::NEG_INFINITY, item: NO_ITEM, stale: false, dz: 0.0, df: 0.0 };
}

/// The pick order, `a` at destination `qa` strictly ahead of `b` at
/// `qb`: larger reduction first, then the smaller item id, then the
/// smaller destination — the candidate the ascending strict-`>` scan
/// keeps.
#[inline]
fn ahead(a: Pair, qa: usize, b: Pair, qb: usize) -> bool {
    if a.r != b.r {
        return a.r > b.r;
    }
    (a.item, qa) < (b.item, qb)
}

/// Scores one pair over its source's member segment: the largest
/// `f·dz + z·df − 2fz` (the scan's canonical expression), and the
/// smallest item id reaching it with that item's own value, so even a
/// `±0` tie reports the scan's bits. Two passes of [`LANES`]
/// independent lanes: the maximum, then the smallest id.
fn score(f: &[f64], z: &[f64], t2fz: &[f64], item: &[u32], dz: f64, df: f64) -> Pair {
    let n = item.len();
    let (f, z, t2fz) = (&f[..n], &z[..n], &t2fz[..n]);
    let (fc, _) = f.as_chunks::<LANES>();
    let (zc, _) = z.as_chunks::<LANES>();
    let (tc, _) = t2fz.as_chunks::<LANES>();
    let (ic, _) = item.as_chunks::<LANES>();
    let tail = fc.len() * LANES..n;
    let eval = |i: usize| f[i] * dz + z[i] * df - t2fz[i];

    let mut hi = [f64::NEG_INFINITY; LANES];
    for ((f, z), t) in fc.iter().zip(zc).zip(tc) {
        for l in 0..LANES {
            let r = f[l] * dz + z[l] * df - t[l];
            hi[l] = if r > hi[l] { r } else { hi[l] };
        }
    }
    let mut top = hi.into_iter().fold(f64::NEG_INFINITY, |a, b| if b > a { b } else { a });
    for i in tail.clone() {
        let r = eval(i);
        top = if r > top { r } else { top };
    }

    let mut ids = [NO_ITEM; LANES];
    let mut rs = [f64::NEG_INFINITY; LANES];
    for (((f, z), t), it) in fc.iter().zip(zc).zip(tc).zip(ic) {
        for l in 0..LANES {
            let r = f[l] * dz + z[l] * df - t[l];
            let take = r == top && it[l] < ids[l];
            ids[l] = if take { it[l] } else { ids[l] };
            rs[l] = if take { r } else { rs[l] };
        }
    }
    let mut best = Pair { dz, df, ..Pair::NONE };
    for (id, r) in ids.into_iter().zip(rs).chain(tail.map(|i| (item[i], eval(i)))) {
        if r == top && id < best.item {
            best = Pair { r, item: id, ..best };
        }
    }
    best
}

/// Raises `pair`'s bound from its stored point to the differences
/// `(dz, df)`, for a source channel that gained no member since and
/// whose members' `f` and `z` are at most `fmax` and `zmax`. Every
/// member's exact `f·dz + z·df − 2fz` rises by at most
/// `fmax·(Δdz)⁺ + zmax·(Δdf)⁺`; the slack covers the rounding of the
/// stored and of a fresh canonical expression, and of this sum itself
/// (DESIGN.md §5a derives it). The bound stores item 0, so no true
/// value is ahead of it at an equal reduction, and it holds at the
/// componentwise maximum of the two points.
fn raise(pair: Pair, dz: f64, df: f64, fmax: f64, zmax: f64) -> Pair {
    let (tz, tf) = (dz.max(pair.dz), df.max(pair.df));
    let inc = fmax * (tz - pair.dz) + zmax * (tf - pair.df);
    let scale = pair.r.abs()
        + inc
        + fmax * (tz.abs() + pair.dz.abs())
        + zmax * (tf.abs() + pair.df.abs())
        + 4.0 * fmax * zmax;
    let slack = 8.0 * f64::EPSILON * scale + f64::MIN_POSITIVE;
    Pair { r: pair.r + inc + slack, item: 0, stale: true, dz: tz, df: tf }
}

/// Incrementally maintained best-move state over raw `(f, z)` columns,
/// a dense `item → channel` assignment and per-channel `(F, Z)`
/// aggregates.
///
/// The engine is deliberately representation-agnostic: CDS feeds it
/// normalized frequencies from an [`Allocation`](dbcast_model::Allocation),
/// dynamic repair feeds it raw popularity weights — both get the exact
/// move sequence their exhaustive scan would have produced, because the
/// caller hands over the *evolved* aggregate values rather than letting
/// the engine recompute them.
#[derive(Clone)]
pub struct BestMoveEngine {
    channels: usize,
    threshold: f64,
    assign: Vec<u32>,
    /// Each item's slot in the member columns.
    pos: Vec<u32>,
    /// Member columns, channel-major: channel `c`'s members occupy the
    /// slots `start[c]..start[c + 1]`.
    f: Vec<f64>,
    z: Vec<f64>,
    t2fz: Vec<f64>,
    item: Vec<u32>,
    /// `K + 1` segment bounds into the member columns.
    start: Vec<usize>,
    freq: Vec<f64>,
    size: Vec<f64>,
    /// The pair table, row-major by source channel; the diagonal stays
    /// [`Pair::NONE`].
    pairs: Vec<Pair>,
    /// Each row's best destination under [`ahead`].
    row_best: Vec<usize>,
    /// Each channel's largest member `f` and `z` (0 when empty).
    fmax: Vec<f64>,
    zmax: Vec<f64>,
    best: Option<EngineMove>,
}

impl std::fmt::Debug for BestMoveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BestMoveEngine")
            .field("items", &self.assign.len())
            .field("channels", &self.channels)
            .field("threshold", &self.threshold)
            .finish_non_exhaustive()
    }
}

impl BestMoveEngine {
    /// Builds the engine and scores every pair, `O(NK)`.
    ///
    /// `freq`/`size` are the *current* per-channel aggregates the
    /// caller maintains; the engine takes them over verbatim (it does
    /// **not** re-accumulate) so its reductions match the caller's
    /// exhaustive scan bit-for-bit. `threshold` seeds the global best
    /// (strict `>`), mirroring the scan's `min_reduction`.
    ///
    /// # Panics
    ///
    /// Panics on column length mismatches, an `f` or `z` that is not
    /// finite and `≥ 0` (the stale-bound rule relies on it), an
    /// assignment outside `0..channels`, `channels == 0`, or `u32::MAX`
    /// items or more.
    pub fn new(
        channels: usize,
        threshold: f64,
        f: Vec<f64>,
        z: Vec<f64>,
        assign: Vec<u32>,
        freq: Vec<f64>,
        size: Vec<f64>,
    ) -> Self {
        assert!(channels > 0, "at least one channel required");
        let n = assign.len();
        assert!(n < NO_ITEM as usize, "item count exceeds engine range");
        assert_eq!(f.len(), n, "frequency column length mismatch");
        assert_eq!(z.len(), n, "size column length mismatch");
        assert_eq!(freq.len(), channels, "aggregate frequency length mismatch");
        assert_eq!(size.len(), channels, "aggregate size length mismatch");
        for (x, (&fx, &zx)) in f.iter().zip(&z).enumerate() {
            assert!(
                fx.is_finite() && fx >= 0.0 && zx.is_finite() && zx >= 0.0,
                "item {x}: f = {fx} and z = {zx} must be finite and >= 0"
            );
        }
        // Counting sort by channel; each segment starts in item order.
        let mut start = vec![0usize; channels + 1];
        for &c in &assign {
            start[c as usize + 1] += 1;
        }
        for c in 0..channels {
            start[c + 1] += start[c];
        }
        let mut next = start.clone();
        let mut pos = vec![0u32; n];
        let mut order = vec![0u32; n];
        for (x, &c) in assign.iter().enumerate() {
            let i = next[c as usize];
            next[c as usize] += 1;
            pos[x] = i as u32;
            order[i] = x as u32;
        }
        let column = |v: &[f64]| order.iter().map(|&x| v[x as usize]).collect::<Vec<_>>();
        let t2fz: Vec<f64> = f.iter().zip(&z).map(|(&fx, &zx)| 2.0 * fx * zx).collect();
        let mut engine = BestMoveEngine {
            channels,
            threshold,
            assign,
            pos,
            f: column(&f),
            z: column(&z),
            t2fz: column(&t2fz),
            item: order,
            start,
            freq,
            size,
            pairs: vec![Pair::NONE; channels * channels],
            row_best: vec![0; channels],
            fmax: vec![0.0; channels],
            zmax: vec![0.0; channels],
            best: None,
        };
        for c in 0..channels {
            engine.remax(c);
            for q in (0..channels).filter(|&q| q != c) {
                engine.rescore(c, q);
            }
            engine.settle_row(c);
        }
        engine.pick();
        engine
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// Whether the engine tracks no items.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The current `item → channel` assignment.
    pub fn assignment(&self) -> &[u32] {
        &self.assign
    }

    /// The maintained per-channel aggregate frequencies `F_i`.
    pub fn channel_freq(&self) -> &[f64] {
        &self.freq
    }

    /// The maintained per-channel aggregate sizes `Z_i`.
    pub fn channel_size(&self) -> &[f64] {
        &self.size
    }

    /// The best strictly-improving move above the threshold, if any —
    /// the same `(item, to, Δc)` the exhaustive reference scan returns,
    /// bit-for-bit.
    pub fn best(&self) -> Option<EngineMove> {
        self.best
    }

    /// Applies the current best move (if any), updates the aggregates
    /// with the same operations an exhaustive caller would use, moves
    /// the item into its new channel's segment, bounds the pairs it
    /// changed and picks the next best move.
    pub fn apply_best(&mut self) -> Option<EngineMove> {
        let mv = self.best?;
        self.shift(mv);
        self.settle(mv);
        self.pick();
        Some(mv)
    }

    /// Moves the item and its Eq. 4 mass from `mv.from` to `mv.to`.
    fn shift(&mut self, mv: EngineMove) {
        let (x, p, q) = (mv.item, mv.from, mv.to);
        let i = self.pos[x] as usize;
        let (f, z) = (self.f[i], self.z[i]);
        self.freq[p] -= f;
        self.size[p] -= z;
        self.freq[q] += f;
        self.size[q] += z;
        self.assign[x] = q as u32;
        self.relocate(x, p, q);
    }

    /// Moves item `x`'s slot from segment `p` to segment `q` by walking
    /// it across the segment bounds in between: one swap and one bound
    /// shift per bound, `|p − q| < K` in all, and never an allocation.
    fn relocate(&mut self, x: usize, p: usize, q: usize) {
        let mut i = self.pos[x] as usize;
        if p < q {
            // Swap into the last slot of the current segment, then
            // shrink it so that slot opens the next one.
            for c in p + 1..=q {
                let j = self.start[c] - 1;
                self.swap_slots(i, j);
                self.start[c] = j;
                i = j;
            }
        } else {
            // Mirror image: swap into the first slot, grow the
            // previous segment over it.
            for c in (q + 1..=p).rev() {
                let j = self.start[c];
                self.swap_slots(i, j);
                self.start[c] = j + 1;
                i = j;
            }
        }
    }

    /// Swaps slots `i` and `j` in every member column, re-pointing both
    /// items.
    fn swap_slots(&mut self, i: usize, j: usize) {
        self.f.swap(i, j);
        self.z.swap(i, j);
        self.t2fz.swap(i, j);
        self.item.swap(i, j);
        self.pos[self.item[i] as usize] = i as u32;
        self.pos[self.item[j] as usize] = j as u32;
    }

    /// Restores the table after `mv` moved `x: p → qs`: the pairs that
    /// can only fall turn stale, the pairs that can rise take a raised
    /// bound (or, in row `qs`, `x`'s exact value when that is above
    /// it), each channel's largest `f` and `z` follow, and so does each
    /// row's best. Row `p`'s values are unchanged (or all empty), so its
    /// best stands.
    fn settle(&mut self, mv: EngineMove) {
        let (k, x, p, qs) = (self.channels, mv.item, mv.from, mv.to);
        let i = self.pos[x] as usize;
        let (fx, zx, tx) = (self.f[i], self.z[i], self.t2fz[i]);
        let p_empty = self.start[p] == self.start[p + 1];
        for d in (0..k).filter(|&d| d != p) {
            let pair = &mut self.pairs[p * k + d];
            *pair = if p_empty { Pair::NONE } else { Pair { stale: true, ..*pair } };
        }
        for c in (0..k).filter(|&c| c != qs) {
            self.pairs[c * k + qs].stale = true;
        }
        let joined_empty = self.start[qs + 1] - self.start[qs] == 1;
        for d in (0..k).filter(|&d| d != qs) {
            let (dz, df) = (self.size[qs] - self.size[d], self.freq[qs] - self.freq[d]);
            let r = fx * dz + zx * df - tx;
            let own = Pair { r, item: x as u32, stale: false, dz, df };
            let pair = &mut self.pairs[qs * k + d];
            if joined_empty {
                *pair = own;
            } else {
                // The old members' bound holds at a point at or above
                // the current one; there it must also cover `x`.
                let old = raise(*pair, dz, df, self.fmax[qs], self.zmax[qs]);
                let at = fx * old.dz + zx * old.df - tx;
                *pair = if r > old.r { own } else { Pair { r: old.r.max(at), ..old } };
            }
        }
        self.fmax[qs] = self.fmax[qs].max(fx);
        self.zmax[qs] = self.zmax[qs].max(zx);
        if fx == self.fmax[p] || zx == self.zmax[p] {
            self.remax(p);
        }
        for c in (0..k).filter(|&c| c != p && c != qs) {
            let pair = self.pairs[c * k + p];
            if pair.item == NO_ITEM {
                continue;
            }
            let (dz, df) = (self.size[c] - self.size[p], self.freq[c] - self.freq[p]);
            self.pairs[c * k + p] = raise(pair, dz, df, self.fmax[c], self.zmax[c]);
            self.offer(c, p);
        }
        self.settle_row(qs);
    }

    /// Recomputes channel `c`'s largest member `f` and `z`.
    fn remax(&mut self, c: usize) {
        let seg = self.start[c]..self.start[c + 1];
        self.fmax[c] = self.f[seg.clone()].iter().copied().fold(0.0, f64::max);
        self.zmax[c] = self.z[seg].iter().copied().fold(0.0, f64::max);
    }

    /// Scores pair `(c, q)` afresh from `c`'s member segment.
    fn rescore(&mut self, c: usize, q: usize) {
        let seg = self.start[c]..self.start[c + 1];
        self.pairs[c * self.channels + q] = score(
            &self.f[seg.clone()],
            &self.z[seg.clone()],
            &self.t2fz[seg.clone()],
            &self.item[seg],
            self.size[c] - self.size[q],
            self.freq[c] - self.freq[q],
        );
    }

    /// Makes `(c, q)` row `c`'s best if it is ahead of the current one.
    fn offer(&mut self, c: usize, q: usize) {
        let (k, b) = (self.channels, self.row_best[c]);
        if ahead(self.pairs[c * k + q], q, self.pairs[c * k + b], b) {
            self.row_best[c] = q;
        }
    }

    /// Recomputes row `c`'s best over all `K` destinations.
    fn settle_row(&mut self, c: usize) {
        let k = self.channels;
        let row = &self.pairs[c * k..(c + 1) * k];
        self.row_best[c] =
            (1..k).fold(0, |b, q| if ahead(row[q], q, row[b], b) { q } else { b });
    }

    /// Folds the row maxima into the best move, re-scoring a stale pair
    /// that reaches the top until a fresh one holds it.
    fn pick(&mut self) {
        let k = self.channels;
        loop {
            let (c, q) = (1..k).fold((0, self.row_best[0]), |(bc, bq), c| {
                let q = self.row_best[c];
                if ahead(self.pairs[c * k + q], q, self.pairs[bc * k + bq], bq) {
                    (c, q)
                } else {
                    (bc, bq)
                }
            });
            let top = self.pairs[c * k + q];
            // Stale values are upper bounds: one that does not clear
            // the threshold rules out every pair.
            let clears = top.r > self.threshold;
            if !clears {
                self.best = None;
                return;
            }
            if !top.stale {
                let item = top.item as usize;
                self.best = Some(EngineMove { item, from: c, to: q, reduction: top.r });
                return;
            }
            self.rescore(c, q);
            self.settle_row(c);
        }
    }
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::common::{aggregates, columns};
    use super::*;
    use dbcast_model::{Allocation, ChannelId, Database, ItemId, ItemSpec, Move};
    use proptest::prelude::*;

    /// Deterministic xorshift features for self-contained tests.
    fn features(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let f: Vec<f64> = (0..n).map(|_| next() + 1e-3).collect();
        let z: Vec<f64> = (0..n).map(|_| 1.0 + 9.0 * next()).collect();
        (f, z)
    }

    /// Eq. 4 for item `x` from `p` to `q`, as the exhaustive scan
    /// writes it.
    fn eq4(x: usize, p: usize, q: usize, f: &[f64], z: &[f64], e: &BestMoveEngine) -> f64 {
        let (freq, size) = (&e.freq, &e.size);
        f[x] * (size[p] - size[q]) + z[x] * (freq[p] - freq[q]) - 2.0 * f[x] * z[x]
    }

    /// The exhaustive scan the engine must reproduce bit-for-bit.
    fn brute_best(
        e: &BestMoveEngine,
        f: &[f64],
        z: &[f64],
        threshold: f64,
    ) -> Option<(usize, usize, u64)> {
        let mut best = None;
        let mut best_r = threshold;
        for (x, &p) in e.assign.iter().enumerate() {
            for q in (0..e.channels).filter(|&q| q != p as usize) {
                let r = eq4(x, p as usize, q, f, z, e);
                if r > best_r {
                    best_r = r;
                    best = Some((x, q, r.to_bits()));
                }
            }
        }
        best
    }

    /// Pair `(c, q)` by brute force: `c`'s members in id order, strict
    /// `>` from `−∞`.
    fn brute_pair(e: &BestMoveEngine, f: &[f64], z: &[f64], c: usize, q: usize) -> Pair {
        let mut best = Pair::NONE;
        for x in (0..e.len()).filter(|&x| e.assign[x] as usize == c) {
            let r = eq4(x, c, q, f, z, e);
            if r > best.r || best.item == NO_ITEM {
                best = Pair { r, item: x as u32, ..Pair::NONE };
            }
        }
        best
    }

    fn engine_for(n: usize, k: usize, seed: u64) -> BestMoveEngine {
        let (f, z) = features(n, seed);
        let assign: Vec<u32> = (0..n).map(|x| (x % k) as u32).collect();
        let (freq, size) = aggregates(k, &f, &z, &assign);
        BestMoveEngine::new(k, 1e-9, f, z, assign, freq, size)
    }

    /// Runs `engine_for`'s engine against the exhaustive scan at every
    /// step of its descent.
    fn assert_descent_matches_brute_force(n: usize, k: usize, seed: u64) {
        let (f, z) = features(n, seed);
        let mut engine = engine_for(n, k, seed);
        for step in 0..10_000 {
            let got = engine.best().map(|m| (m.item, m.to, m.reduction.to_bits()));
            let brute = brute_best(&engine, &f, &z, engine.threshold);
            assert_eq!(got, brute, "n {n} k {k} seed {seed} step {step}");
            if engine.apply_best().is_none() {
                break;
            }
        }
        assert!(engine.best().is_none(), "descent must terminate");
    }

    /// Every channel's segment holds exactly `{x : assign[x] == c}`
    /// with its own columns, and every stored position points back at
    /// its item.
    fn assert_members_consistent(engine: &BestMoveEngine, f: &[f64], z: &[f64]) {
        let (start, n) = (&engine.start, engine.len());
        assert_eq!(start.len(), engine.channels + 1);
        assert_eq!((start[0], start[engine.channels]), (0, n), "segments cover the slots");
        assert!(start.windows(2).all(|w| w[0] <= w[1]), "segment bounds ascend");
        assert_eq!((engine.item.len(), engine.pos.len()), (n, n));
        let mut seen = vec![false; n];
        for c in 0..engine.channels {
            for slot in start[c]..start[c + 1] {
                let x = engine.item[slot] as usize;
                assert!(!seen[x], "item {x} listed twice");
                seen[x] = true;
                assert_eq!(engine.assign[x] as usize, c, "item {x} listed on channel {c}");
                assert_eq!(engine.pos[x] as usize, slot, "item {x} position");
                let cols = (engine.f[slot], engine.z[slot], engine.t2fz[slot]);
                assert_eq!(cols, (f[x], z[x], 2.0 * f[x] * z[x]), "item {x} columns");
            }
        }
        assert!(seen.iter().all(|&s| s), "an item is on no member list");
    }

    #[test]
    fn matches_brute_force_along_full_descent() {
        for seed in [3u64, 17, 99] {
            assert_descent_matches_brute_force(60, 5, seed);
        }
        // More members than kernel lanes per segment, and a remainder.
        assert_descent_matches_brute_force(203, 7, 5);
    }

    /// Checks every pair against its brute-force value: a fresh pair
    /// bit for bit, a stale one not behind it in the pick order. Also
    /// checks each row's best. Returns the number of stale pairs.
    fn check_pairs(e: &BestMoveEngine, f: &[f64], z: &[f64]) -> Result<usize, String> {
        let (k, mut stale) = (e.channels, 0);
        for c in 0..k {
            for q in (0..k).filter(|&q| q != c) {
                let (got, want) = (e.pairs[c * k + q], brute_pair(e, f, z, c, q));
                if got.stale {
                    stale += 1;
                    if ahead(want, q, got, q) {
                        return Err(format!("pair ({c}, {q}) {got:?} behind {want:?}"));
                    }
                } else if (got.r.to_bits(), got.item) != (want.r.to_bits(), want.item) {
                    return Err(format!("fresh pair ({c}, {q}) {got:?} is not {want:?}"));
                }
            }
            let (b, row) = (e.row_best[c], &e.pairs[c * k..(c + 1) * k]);
            if (0..k).any(|q| ahead(row[q], q, row[b], b)) {
                return Err(format!("row {c} best {b} is not the row's best"));
            }
        }
        Ok(stale)
    }

    /// Descends from `engine`, checking the table after every move both
    /// before and after the pick re-scores. Returns the moves and the
    /// stale pairs seen.
    fn descend_checking_pairs(
        mut engine: BestMoveEngine,
        f: &[f64],
        z: &[f64],
    ) -> Result<(usize, usize), String> {
        let (mut moves, mut stale) = (0, check_pairs(&engine, f, z)?);
        while let Some(mv) = engine.best {
            engine.shift(mv);
            engine.settle(mv);
            stale +=
                check_pairs(&engine, f, z).map_err(|e| format!("move {moves}: {e}"))?;
            engine.pick();
            stale +=
                check_pairs(&engine, f, z).map_err(|e| format!("pick {moves}: {e}"))?;
            moves += 1;
        }
        Ok((moves, stale))
    }

    #[test]
    fn fresh_pairs_are_exact_and_stale_pairs_bound_along_descent() {
        let (n, k, seed) = (90, 6, 8);
        let (f, z) = features(n, seed);
        let (steps, stale) =
            descend_checking_pairs(engine_for(n, k, seed), &f, &z).unwrap();
        assert!(steps > 10 && stale > 0, "{steps} steps, {stale} stale pairs seen");
    }

    proptest! {
        #[test]
        fn no_stale_pair_is_behind_its_true_value((k, f, z, assign) in columns()) {
            let (freq, size) = aggregates(k, &f, &z, &assign);
            let engine = BestMoveEngine::new(k, 1e-9, f.clone(), z.clone(), assign, freq, size);
            let checked = descend_checking_pairs(engine, &f, &z);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    #[test]
    fn a_raised_bound_covers_the_rounding_of_a_fresh_score() {
        // One member, `f = 0.1` and `z = 0.3`, scored at differences
        // (0.1, 0.1) and raised to (0.3, 0.3). A search over
        // one-decimal inputs found this case: the exact rise added to
        // the stored value lands one ulp below the fresh canonical
        // expression, so only the slack keeps the bound above it.
        let (f, z) = (0.1, 0.3);
        let t = 2.0 * f * z;
        let stored = score(&[f], &[z], &[t], &[0], 0.1, 0.1);
        let fresh = score(&[f], &[z], &[t], &[0], 0.3, 0.3);
        let bare = stored.r + (f * (0.3 - 0.1) + z * (0.3 - 0.1));
        assert!(bare < fresh.r, "{bare} vs {}: the case is not adversarial", fresh.r);
        let raised = raise(stored, 0.3, 0.3, f, z);
        assert!(raised.stale && raised.item == 0);
        assert!(!ahead(fresh, 1, raised, 1), "bound {} below fresh {}", raised.r, fresh.r);
    }

    #[test]
    fn stale_ties_match_reference_cds() {
        // Identical items tie on every candidate, and channel 3 starts
        // empty. Before each pick, count the stale pairs whose stored
        // bound ties the best fresh value: the pick settles those ties
        // on the stored item id, and must still take the reference's
        // move.
        let specs = vec![ItemSpec::new(0.5, 2.0); 12];
        let db = Database::try_from_specs(specs).unwrap();
        let k = 4;
        let start: Vec<usize> = (0..12).map(|x| [0, 0, 0, 1, 1, 2][x % 6]).collect();
        let mut alloc = Allocation::from_assignment(&db, k, start).unwrap();
        let f: Vec<f64> = db.iter().map(|d| d.frequency()).collect();
        let z: Vec<f64> = db.iter().map(|d| d.size()).collect();
        let stats = alloc.all_channel_stats();
        let mut engine = BestMoveEngine::new(
            k,
            1e-9,
            f,
            z,
            alloc.assignment().iter().map(|&c| c as u32).collect(),
            stats.iter().map(|s| s.frequency).collect(),
            stats.iter().map(|s| s.size).collect(),
        );
        let reference = crate::ReferenceCds::new();
        let mut ties = 0;
        loop {
            let want = reference.best_move(&alloc);
            let got = engine.best().map(|m| {
                let mv = Move {
                    item: ItemId::new(m.item),
                    from: ChannelId::new(m.from),
                    to: ChannelId::new(m.to),
                };
                (mv, m.reduction)
            });
            assert_eq!(
                got.map(|(mv, r)| (mv, r.to_bits())),
                want.map(|(mv, r)| (mv, r.to_bits()))
            );
            let Some((mv, _)) = got else { break };
            alloc.apply_move(mv).unwrap();
            let em = engine.best.unwrap();
            engine.shift(em);
            engine.settle(em);
            let fresh = engine.pairs.iter().filter(|p| !p.stale).map(|p| p.r);
            let top = fresh.fold(f64::NEG_INFINITY, f64::max);
            ties += engine.pairs.iter().filter(|p| p.stale && p.r == top).count();
            engine.pick();
        }
        assert!(ties > 0, "no stale pair tied the fresh winner");
    }

    #[test]
    fn member_lists_track_the_assignment() {
        let (f, z) = features(70, 44);
        let mut engine = engine_for(70, 6, 44);
        assert_members_consistent(&engine, &f, &z);
        let mut moves = 0;
        while engine.apply_best().is_some() {
            moves += 1;
            assert_members_consistent(&engine, &f, &z);
        }
        assert!(moves > 0, "the descent must walk entries across segment bounds");
        let (f, z) = features(10, 5);
        let single = engine_for(10, 1, 5);
        assert_members_consistent(&single, &f, &z);
        assert!(single.best().is_none(), "one channel has no moves");
        let empty = BestMoveEngine::new(
            3,
            1e-9,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            vec![0.0; 3],
            vec![0.0; 3],
        );
        assert_members_consistent(&empty, &[], &[]);
        assert!(empty.best().is_none(), "no items, no moves");
    }

    #[test]
    fn aggregates_match_recompute_after_descent() {
        let (f, z) = features(50, 21);
        let mut engine = engine_for(50, 4, 21);
        while engine.apply_best().is_some() {}
        let (freq, size) = aggregates(engine.channels, &f, &z, &engine.assign);
        for c in 0..engine.channels {
            assert!((engine.freq[c] - freq[c]).abs() < 1e-9, "channel {c} frequency");
            assert!((engine.size[c] - size[c]).abs() < 1e-9, "channel {c} size");
        }
    }

    #[test]
    fn threshold_suppresses_small_reductions() {
        let engine = {
            let (f, z) = features(30, 7);
            let assign: Vec<u32> = (0..30).map(|x| (x % 3) as u32).collect();
            let (freq, size) = aggregates(3, &f, &z, &assign);
            BestMoveEngine::new(3, 1e12, f, z, assign, freq, size)
        };
        assert!(engine.best().is_none(), "no move beats an enormous threshold");
    }

    #[test]
    fn two_channels_keep_exactness() {
        // K = 2: every move re-scores both pairs.
        assert_descent_matches_brute_force(32, 2, 13);
    }

    #[test]
    fn equal_reductions_go_to_the_smaller_item_id() {
        // Identical items on one channel tie on every candidate; the
        // slot swaps of the descent reorder the segments, so only the
        // explicit rule picks the smallest id.
        let n = 8;
        let (f, z) = (vec![0.5; n], vec![2.0; n]);
        let assign = vec![0u32; n];
        let (freq, size) = aggregates(3, &f, &z, &assign);
        let mut engine =
            BestMoveEngine::new(3, 1e-9, f.clone(), z.clone(), assign, freq, size);
        loop {
            let got = engine.best().map(|m| (m.item, m.to, m.reduction.to_bits()));
            assert_eq!(got, brute_best(&engine, &f, &z, 1e-9));
            if engine.apply_best().is_none() {
                break;
            }
        }
    }

    #[test]
    fn a_row_tie_goes_to_the_smaller_item_not_the_smaller_destination() {
        // Item 1 → channel 1 and item 0 → channel 2 both reduce the
        // cost by exactly 13 (dyadic inputs, exact arithmetic): the
        // scan meets item 0 first.
        let (f, z) = (vec![1.0, 4.0, 2.0, 0.5], vec![4.0, 1.0, 0.5, 2.0]);
        let assign = vec![0, 0, 1, 2];
        let (freq, size) = aggregates(3, &f, &z, &assign);
        let engine = BestMoveEngine::new(3, 1e-9, f, z, assign, freq, size);
        let m = engine.best().unwrap();
        assert_eq!((m.item, m.to, m.reduction), (0, 2, 13.0));
    }

    #[test]
    #[should_panic(expected = "item 2: f = 0.5 and z = -1 must be finite and >= 0")]
    fn negative_size_panics() {
        let (f, z) = (vec![0.5; 3], vec![1.0, 1.0, -1.0]);
        let _ =
            BestMoveEngine::new(2, 1e-9, f, z, vec![0, 1, 0], vec![1.0; 2], vec![1.0; 2]);
    }

    #[test]
    #[should_panic(expected = "item 0: f = NaN")]
    fn nan_frequency_panics() {
        let _ = BestMoveEngine::new(
            1,
            1e-9,
            vec![f64::NAN],
            vec![1.0],
            vec![0],
            vec![0.0],
            vec![0.0],
        );
    }
}
