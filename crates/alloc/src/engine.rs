//! The incremental best-move engine behind [`Cds`](crate::Cds), and so
//! behind DRP-CDS and the serving runtime's budgeted repair.
//!
//! The exhaustive CDS scan re-evaluates all `O(KN)` candidate moves per
//! iteration even though Eq. 4's reduction
//! `Δc = f_x(Z_p − Z_q) + z_x(F_p − F_q) − 2 f_x z_x`
//! only reads the two touched groups' aggregates. [`BestMoveEngine`]
//! instead maintains, per item, the best and second-best destination
//! under the reference scan's exact ordering (larger reduction first,
//! ties to the smaller channel id), and a global best. After applying
//! the move `(x*: p → q*)` only candidates touching `p` or `q*` can
//! change, so one `O(N)` pass repairs the caches.
//!
//! The pass runs **channel by channel**. Each channel keeps a member
//! list holding its items' Eq. 4 inputs and cached top-2: one segment
//! of a channel-major slot array, and each item knows its slot. A move
//! walks the item's entry across the segment bounds between `p` and
//! `q*` (one swap and one bound shift per bound, at most `K − 1`, never
//! an allocation). Everything an item's repair reads besides its
//! own entry is a property of its source channel `c`, so it is hoisted
//! out of the member loop:
//!
//! * on `p` and `q*` the source aggregates changed, which shifts
//!   *every* candidate: the difference row `(Z_c − Z_q, F_c − F_q)` is
//!   computed once over all `q`, and each member rescans all `K`
//!   destinations as `f·dz[q] + z·df[q] − 2fz`;
//! * on every other channel `c` the four differences
//!   `Z_c − Z_p, F_c − F_p, Z_c − Z_q*, F_c − F_q*` are computed once.
//!   Destination `p` improved for everyone (both aggregates strictly
//!   shrank), so it is merged against the cached top-2 in O(1);
//!   destination `q*` worsened, so a cached entry pointing at it is
//!   re-evaluated and, when it falls behind candidates we can no
//!   longer bound, the second-best slot is *invalidated* rather than
//!   repaired. A later demotion with an invalid runner-up triggers the
//!   full rescan lazily.
//!
//! A hoisted difference is the same IEEE subtraction of the same two
//! aggregates the exhaustive scan performs per candidate, and every
//! cached reduction is the scan's canonical expression over aggregate
//! values maintained by the same update operations, so the engine's
//! move sequence is **bit-for-bit identical** to the reference scan's —
//! the differential battery in `dbcast-conformance` pins that
//! equivalence. Members are not visited in item order, so the global
//! best is folded with the explicit rule the ascending strict-`>` scan
//! implies: larger reduction first, then smaller item id.

/// Sentinel channel id: an empty candidate slot. In the second-best
/// slot it means "unknown" — either fewer than two destinations exist
/// or lazy invalidation discarded the runner-up.
const NONE_CH: u32 = u32::MAX;

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

/// One item's entry in its channel's member list: the Eq. 4 inputs
/// (`2fz` precomputed; IEEE multiplication is deterministic, so the
/// bits match the scan's) and the cached top-2 destinations.
#[derive(Debug, Clone, Copy)]
struct Member {
    item: u32,
    q1: u32,
    q2: u32,
    f: f64,
    z: f64,
    t2fz: f64,
    r1: f64,
    r2: f64,
}

impl Member {
    /// Canonical Eq. 4 evaluation against hoisted source-minus-
    /// destination differences — the exact expression shape
    /// `f·(Z_c − Z_q) + z·(F_c − F_q) − 2fz` the exhaustive scan computes.
    #[inline]
    fn eval(&self, dz: f64, df: f64) -> f64 {
        self.f * dz + self.z * df - self.t2fz
    }

    /// Recomputes the exact top-2 over every destination but the
    /// source `c`, from `c`'s difference row.
    #[inline]
    fn rescan(&mut self, c: usize, row: &[(f64, f64)]) {
        let mut b1q = NONE_CH;
        let mut b1r = f64::NEG_INFINITY;
        let mut b2q = NONE_CH;
        let mut b2r = f64::NEG_INFINITY;
        for (q, &(dz, df)) in row.iter().enumerate() {
            if q == c {
                continue;
            }
            let r = self.eval(dz, df);
            // The common case: strictly below the runner-up, hence
            // below both.
            if r < b2r {
                continue;
            }
            if lex_gt(r, q as u32, b1r, b1q) {
                b2q = b1q;
                b2r = b1r;
                b1q = q as u32;
                b1r = r;
            } else if lex_gt(r, q as u32, b2r, b2q) {
                b2q = q as u32;
                b2r = r;
            }
        }
        (self.q1, self.r1, self.q2, self.r2) = (b1q, b1r, b2q, b2r);
    }
}

/// The reference scan's candidate order: larger reduction wins, equal
/// reductions go to the smaller channel id (ascending `q` with strict
/// `>` keeps the first).
#[inline]
fn lex_gt(r: f64, q: u32, best_r: f64, best_q: u32) -> bool {
    r > best_r || (r == best_r && q < best_q)
}

/// Fills `row[q] = (Z_c − Z_q, F_c − F_q)`: the differences every
/// candidate of an item on channel `c` reads.
fn fill_row(row: &mut [(f64, f64)], c: usize, freq: &[f64], size: &[f64]) {
    let (zc, fc) = (size[c], freq[c]);
    for (d, (&zq, &fq)) in row.iter_mut().zip(size.iter().zip(freq)) {
        *d = (zc - zq, fc - fq);
    }
}

/// The running global best of a pass plus the rescans it performed.
#[derive(Debug, Clone, Copy)]
struct Local {
    item: usize,
    r: f64,
    rescans: u64,
}

impl Local {
    /// Seeded at `threshold`: a candidate must clear it strictly.
    fn new(threshold: f64) -> Self {
        Local { item: usize::MAX, r: threshold, rescans: 0 }
    }

    /// The reference scan's global order, made explicit because
    /// members are not visited in item order: larger reduction first,
    /// then smaller item id — the winner the ascending strict-`>` scan
    /// keeps.
    #[inline]
    fn offer(&mut self, item: usize, r: f64) {
        if r > self.r || (r == self.r && item < self.item && self.item != usize::MAX) {
            self.item = item;
            self.r = r;
        }
    }
}

/// Read-only inputs of one pass.
struct Pass<'a> {
    freq: &'a [f64],
    size: &'a [f64],
    threshold: f64,
    /// The applied move's `(p, q*)`; `None` for the init scan, which
    /// rescans every channel.
    moved: Option<(u32, u32)>,
}

impl Pass<'_> {
    /// Runs the pass over every channel (channel `c` owns the slot range
    /// `start[c]..start[c + 1]`), using `row` (length `K`) as
    /// difference-row scratch.
    fn run(&self, start: &[usize], slots: &mut [Member], row: &mut [(f64, f64)]) -> Local {
        let mut best = Local::new(self.threshold);
        for (c, seg) in start.windows(2).enumerate() {
            let members = &mut slots[seg[0]..seg[1]];
            if members.is_empty() {
                continue;
            }
            match self.moved {
                Some((p, qs)) if c != p as usize && c != qs as usize => {
                    self.repair(c, members, row, p, qs, &mut best);
                }
                moved => {
                    fill_row(row, c, self.freq, self.size);
                    for m in members.iter_mut() {
                        m.rescan(c, row);
                        if m.q1 != NONE_CH {
                            best.offer(m.item as usize, m.r1);
                        }
                    }
                    if moved.is_some() {
                        best.rescans += members.len() as u64;
                    }
                }
            }
        }
        best
    }

    /// Repairs the members of a channel `c ∉ {p, q*}` after the move
    /// `p → q*` (aggregates already updated).
    fn repair(
        &self,
        c: usize,
        members: &mut [Member],
        row: &mut [(f64, f64)],
        p: u32,
        qs: u32,
        best: &mut Local,
    ) {
        let (zc, fc) = (self.size[c], self.freq[c]);
        let (dzp, dfp) = (zc - self.size[p as usize], fc - self.freq[p as usize]);
        let (dzq, dfq) = (zc - self.size[qs as usize], fc - self.freq[qs as usize]);
        let mut row_ready = false;
        for m in members.iter_mut() {
            let (q1, q2) = (m.q1, m.q2);
            if q1 == qs && q2 == NONE_CH {
                // The cached best worsened with no exact runner-up left
                // to bound the untouched candidates: recompute exactly.
                if !row_ready {
                    fill_row(row, c, self.freq, self.size);
                    row_ready = true;
                }
                m.rescan(c, row);
                best.rescans += 1;
            } else if q1 != NONE_CH {
                let rp = m.eval(dzp, dfp);
                if q1 != p && q1 != qs && q2 != p && q2 != qs {
                    // Fast path (the overwhelmingly common case): the
                    // cached pair kept its exact values, and `p` — the
                    // only destination that improved — is the sole
                    // candidate that can break into the top-2. One
                    // evaluation decides.
                    if q2 != NONE_CH {
                        if lex_gt(rp, p, m.r2, q2) {
                            if lex_gt(rp, p, m.r1, q1) {
                                (m.q2, m.r2) = (q1, m.r1);
                                (m.q1, m.r1) = (p, rp);
                            } else {
                                (m.q2, m.r2) = (p, rp);
                            }
                        }
                    } else if lex_gt(rp, p, m.r1, q1) {
                        // The dethroned best was strictly lex-above
                        // every other destination and none of them
                        // moved, so the promotion recovers an exact
                        // runner-up.
                        (m.q2, m.r2) = (q1, m.r1);
                        (m.q1, m.r1) = (p, rp);
                    }
                } else {
                    merge_touched(m, p, qs, rp, m.eval(dzq, dfq));
                }
            }
            if m.q1 != NONE_CH {
                best.offer(m.item as usize, m.r1);
            }
        }
    }
}

/// General merge for a member whose cached pair points at `p` or `q*`
/// (`rp`, `rq` are its exact post-move reductions to them): revalue the
/// touched entries (aggregate changes are monotone per destination, so
/// re-evaluation is exact), add `p`, and rank. The pre-move runner-up
/// entry is a strict lex upper bound on every untouched third candidate
/// — the merged top is therefore exact, and the merged second is kept
/// only when it clears that bound.
#[inline]
fn merge_touched(m: &mut Member, p: u32, qs: u32, rp: f64, rq: f64) {
    let (q1, q2) = (m.q1, m.q2);
    let revalue = |q: u32, cached: f64| {
        if q == p {
            rp
        } else if q == qs {
            rq
        } else {
            cached
        }
    };
    let mut eq = [NONE_CH; 3];
    let mut er = [f64::NEG_INFINITY; 3];
    eq[0] = q1;
    er[0] = revalue(q1, m.r1);
    let mut n = 1;
    if q2 != NONE_CH {
        eq[1] = q2;
        er[1] = revalue(q2, m.r2);
        n = 2;
    }
    if q1 != p && q2 != p {
        eq[n] = p;
        er[n] = rp;
        n += 1;
    }
    let mut ti = 0;
    for i in 1..n {
        if lex_gt(er[i], eq[i], er[ti], eq[ti]) {
            ti = i;
        }
    }
    let mut si = usize::MAX;
    for i in 0..n {
        if i != ti && (si == usize::MAX || lex_gt(er[i], eq[i], er[si], eq[si])) {
            si = i;
        }
    }
    (m.q1, m.r1) = (eq[ti], er[ti]);
    let keep = si != usize::MAX
        && q2 != NONE_CH
        && (er[si] > m.r2 || (er[si] == m.r2 && eq[si] <= q2));
    (m.q2, m.r2) = if keep { (eq[si], er[si]) } else { (NONE_CH, f64::NEG_INFINITY) };
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
    /// Each item's index in `slots`.
    pos: Vec<u32>,
    /// Every item's [`Member`] entry, channel-major: channel `c`'s
    /// member list is `slots[start[c]..start[c + 1]]`.
    slots: Vec<Member>,
    /// `K + 1` segment bounds into `slots`.
    start: Vec<usize>,
    freq: Vec<f64>,
    size: Vec<f64>,
    /// Difference-row scratch of the serial pass, length `K`.
    row: Vec<(f64, f64)>,
    best_item: usize,
    rescans: u64,
}

impl std::fmt::Debug for BestMoveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BestMoveEngine")
            .field("items", &self.assign.len())
            .field("channels", &self.channels)
            .field("threshold", &self.threshold)
            .field("rescans", &self.rescans)
            .finish_non_exhaustive()
    }
}

impl BestMoveEngine {
    /// Builds the engine and runs the initial `O(NK)` scan.
    ///
    /// `freq`/`size` are the *current* per-channel aggregates the
    /// caller maintains; the engine takes them over verbatim (it does
    /// **not** re-accumulate) so its reductions match the caller's
    /// exhaustive scan bit-for-bit. `threshold` seeds the global best
    /// (strict `>`), mirroring the scan's `min_reduction`.
    ///
    /// # Panics
    ///
    /// Panics on column length mismatches, an assignment outside
    /// `0..channels`, `channels == 0`, or more than `u32::MAX` items or
    /// channels.
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
        assert!(channels <= NONE_CH as usize, "channel count exceeds engine range");
        let n = assign.len();
        assert!(n <= u32::MAX as usize, "item count exceeds engine range");
        assert_eq!(f.len(), n, "frequency column length mismatch");
        assert_eq!(z.len(), n, "size column length mismatch");
        assert_eq!(freq.len(), channels, "aggregate frequency length mismatch");
        assert_eq!(size.len(), channels, "aggregate size length mismatch");
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
        let empty = Member {
            item: 0,
            q1: NONE_CH,
            q2: NONE_CH,
            f: 0.0,
            z: 0.0,
            t2fz: 0.0,
            r1: f64::NEG_INFINITY,
            r2: f64::NEG_INFINITY,
        };
        let mut slots = vec![empty; n];
        for (x, &c) in assign.iter().enumerate() {
            let i = next[c as usize];
            next[c as usize] += 1;
            pos[x] = i as u32;
            slots[i] = Member {
                item: x as u32,
                f: f[x],
                z: z[x],
                t2fz: 2.0 * f[x] * z[x],
                ..empty
            };
        }
        let mut engine = BestMoveEngine {
            channels,
            threshold,
            assign,
            pos,
            slots,
            start,
            freq,
            size,
            row: vec![(0.0, 0.0); channels],
            best_item: usize::MAX,
            rescans: 0,
        };
        engine.init_scan();
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

    /// Full `O(K)` rescans performed so far (members of the move's two
    /// channels plus the lazy-invalidation slow path; everything else
    /// is O(1) per item per move).
    pub fn rescans(&self) -> u64 {
        self.rescans
    }

    /// The best strictly-improving move above the threshold, if any —
    /// the same `(item, to, Δc)` the exhaustive reference scan returns,
    /// bit-for-bit.
    pub fn best(&self) -> Option<EngineMove> {
        if self.best_item == usize::MAX {
            return None;
        }
        let x = self.best_item;
        let m = &self.slots[self.pos[x] as usize];
        Some(EngineMove {
            item: x,
            from: self.assign[x] as usize,
            to: m.q1 as usize,
            reduction: m.r1,
        })
    }

    /// Applies the current best move (if any), updates the aggregates
    /// with the same operations an exhaustive caller would use, moves
    /// the item into its new channel's member list, and repairs the
    /// candidate caches in one `O(N)` pass.
    pub fn apply_best(&mut self) -> Option<EngineMove> {
        let mv = self.best()?;
        let (x, p, q) = (mv.item, mv.from, mv.to);
        let Member { f, z, .. } = self.slots[self.pos[x] as usize];
        self.freq[p] -= f;
        self.size[p] -= z;
        self.freq[q] += f;
        self.size[q] += z;
        self.assign[x] = q as u32;
        self.relocate(x, p, q);
        self.run_pass(Some((p as u32, q as u32)));
        Some(mv)
    }

    /// Moves item `x`'s entry from segment `p` to segment `q` by
    /// walking it across the segment bounds in between: one swap and
    /// one bound shift per bound, `|p − q| < K` in all, and never an
    /// allocation.
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
        self.pos[x] = i as u32;
    }

    /// Swaps slots `i` and `j`, re-pointing the entry that lands in `i`.
    fn swap_slots(&mut self, i: usize, j: usize) {
        self.slots.swap(i, j);
        self.pos[self.slots[i].item as usize] = i as u32;
    }

    fn init_scan(&mut self) {
        self.run_pass(None);
    }

    fn run_pass(&mut self, moved: Option<(u32, u32)>) {
        let pass =
            Pass { freq: &self.freq, size: &self.size, threshold: self.threshold, moved };
        let local = pass.run(&self.start, &mut self.slots, &mut self.row);
        self.best_item = local.item;
        self.rescans += local.rescans;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn aggregates(k: usize, f: &[f64], z: &[f64], assign: &[u32]) -> (Vec<f64>, Vec<f64>) {
        let mut freq = vec![0.0; k];
        let mut size = vec![0.0; k];
        for (x, &c) in assign.iter().enumerate() {
            freq[c as usize] += f[x];
            size[c as usize] += z[x];
        }
        (freq, size)
    }

    /// The exhaustive scan the engine must reproduce bit-for-bit.
    fn brute_best(
        k: usize,
        threshold: f64,
        f: &[f64],
        z: &[f64],
        assign: &[u32],
        freq: &[f64],
        size: &[f64],
    ) -> Option<(usize, usize, f64)> {
        let mut best = None;
        let mut best_r = threshold;
        for (x, &p) in assign.iter().enumerate() {
            let p = p as usize;
            for q in 0..k {
                if q == p {
                    continue;
                }
                let r = f[x] * (size[p] - size[q]) + z[x] * (freq[p] - freq[q])
                    - 2.0 * f[x] * z[x];
                if r > best_r {
                    best_r = r;
                    best = Some((x, q, r));
                }
            }
        }
        best
    }

    /// Exact top-2 `(q1, r1, q2, r2)` for item `x`, evaluated straight
    /// from the aggregates without any hoisting.
    fn exact_top2(engine: &BestMoveEngine, x: usize) -> (u32, f64, u32, f64) {
        let m = &engine.slots[engine.pos[x] as usize];
        let p = engine.assign[x] as usize;
        let (freq, size) = (&engine.freq, &engine.size);
        let mut top = (NONE_CH, f64::NEG_INFINITY, NONE_CH, f64::NEG_INFINITY);
        for q in (0..engine.channels).filter(|&q| q != p) {
            let r = m.f * (size[p] - size[q]) + m.z * (freq[p] - freq[q]) - 2.0 * m.f * m.z;
            if lex_gt(r, q as u32, top.1, top.0) {
                top = (q as u32, r, top.0, top.1);
            } else if lex_gt(r, q as u32, top.3, top.2) {
                top = (top.0, top.1, q as u32, r);
            }
        }
        top
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
            let brute = brute_best(
                engine.channels,
                engine.threshold,
                &f,
                &z,
                &engine.assign,
                &engine.freq,
                &engine.size,
            );
            let got = engine.best().map(|m| (m.item, m.to, m.reduction.to_bits()));
            assert_eq!(
                got,
                brute.map(|(x, q, r)| (x, q, r.to_bits())),
                "n {n} k {k} seed {seed} step {step}"
            );
            if engine.apply_best().is_none() {
                break;
            }
        }
        assert!(engine.best().is_none(), "descent must terminate");
    }

    /// Every channel's member list is exactly `{x : assign[x] == c}`
    /// and every stored position points back at its item.
    fn assert_members_consistent(engine: &BestMoveEngine) {
        let (start, n) = (&engine.start, engine.len());
        assert_eq!(start.len(), engine.channels + 1);
        assert_eq!((start[0], start[engine.channels]), (0, n), "segments cover the slots");
        assert!(start.windows(2).all(|w| w[0] <= w[1]), "segment bounds ascend");
        assert_eq!((engine.slots.len(), engine.pos.len()), (n, n));
        let mut seen = vec![false; n];
        for c in 0..engine.channels {
            for slot in start[c]..start[c + 1] {
                let x = engine.slots[slot].item as usize;
                assert!(!seen[x], "item {x} listed twice");
                seen[x] = true;
                assert_eq!(engine.assign[x] as usize, c, "item {x} listed on channel {c}");
                assert_eq!(engine.pos[x] as usize, slot, "item {x} position");
            }
        }
        assert!(seen.iter().all(|&s| s), "an item is on no member list");
    }

    #[test]
    fn matches_brute_force_along_full_descent() {
        for seed in [3u64, 17, 99] {
            assert_descent_matches_brute_force(60, 5, seed);
        }
    }

    #[test]
    fn cached_top2_is_exact_where_known() {
        let mut engine = engine_for(40, 6, 8);
        for _ in 0..25 {
            for x in 0..engine.len() {
                let (q1, r1, q2, r2) = exact_top2(&engine, x);
                let m = &engine.slots[engine.pos[x] as usize];
                assert_eq!(m.q1, q1, "item {x} best destination");
                assert_eq!(m.r1.to_bits(), r1.to_bits(), "item {x} best value");
                if m.q2 != NONE_CH {
                    assert_eq!(m.q2, q2, "item {x} runner-up destination");
                    assert_eq!(m.r2.to_bits(), r2.to_bits(), "item {x} runner-up value");
                }
            }
            if engine.apply_best().is_none() {
                break;
            }
        }
    }

    #[test]
    fn member_lists_track_the_assignment() {
        let mut engine = engine_for(70, 6, 44);
        assert_members_consistent(&engine);
        let mut moves = 0;
        while engine.apply_best().is_some() {
            moves += 1;
            assert_members_consistent(&engine);
        }
        assert!(moves > 0, "the descent must walk entries across segment bounds");
        let single = engine_for(10, 1, 5);
        assert_members_consistent(&single);
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
        assert_members_consistent(&empty);
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
    fn two_channels_keep_exactness_through_source_rescans() {
        // K = 2 puts every item on a source channel: every move rescans
        // all of them over the hoisted difference rows.
        assert_descent_matches_brute_force(32, 2, 13);
    }

    #[test]
    fn equal_reductions_go_to_the_smaller_item_id() {
        // Identical items on one channel tie on every candidate; the
        // slot swaps of the descent reorder the member lists, so only
        // the explicit rule picks the smallest id.
        let n = 8;
        let f = vec![0.5; n];
        let z = vec![2.0; n];
        let assign = vec![0u32; n];
        let (freq, size) = aggregates(3, &f, &z, &assign);
        let mut engine =
            BestMoveEngine::new(3, 1e-9, f.clone(), z.clone(), assign, freq, size);
        loop {
            let brute =
                brute_best(3, 1e-9, &f, &z, &engine.assign, &engine.freq, &engine.size);
            let got = engine.best().map(|m| (m.item, m.to, m.reduction.to_bits()));
            assert_eq!(got, brute.map(|(x, q, r)| (x, q, r.to_bits())));
            if engine.apply_best().is_none() {
                break;
            }
        }
    }
}
