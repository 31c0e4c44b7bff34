//! Concrete broadcast programs: the cyclic per-channel schedules a server
//! actually transmits, derived from an [`Allocation`].
//!
//! Every Eq. 1 question ("when does item j next air, and on which
//! channel?") is answered by one kernel: a per-item placement table,
//! built once with the program, that maps each item to its slot on every
//! channel carrying it. Lookups are O(1) and allocation-free; the wait
//! arithmetic itself lives in one function shared with
//! [`ChannelSchedule::next_start`], so every engine gets bit-identical
//! waits.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::allocation::{Allocation, ChannelId};
use crate::database::Database;
use crate::error::ModelError;
use crate::item::ItemId;

/// One item's slot within a channel cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledItem {
    /// The item occupying this slot.
    pub item: ItemId,
    /// Offset of the slot start from the cycle start, in size units.
    pub offset: f64,
    /// The item's size (slot length) in size units.
    pub size: f64,
}

/// The cyclic schedule of one broadcast channel.
///
/// Slots are laid out back-to-back in the given item order; the cycle
/// repeats every [`cycle_size`](Self::cycle_size) size units. With
/// bandwidth `b`, wall-clock cycle time is `cycle_size / b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelSchedule {
    channel: ChannelId,
    slots: Vec<ScheduledItem>,
    cycle_size: f64,
}

impl ChannelSchedule {
    /// The channel this schedule belongs to.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// The slots of one cycle, in broadcast order.
    pub fn slots(&self) -> &[ScheduledItem] {
        &self.slots
    }

    /// Total size of one cycle in size units (`Z_i`).
    pub fn cycle_size(&self) -> f64 {
        self.cycle_size
    }

    /// Whether the channel broadcasts nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slot for `item`, if it is broadcast on this channel.
    pub fn slot_of(&self, item: ItemId) -> Option<&ScheduledItem> {
        self.slots.iter().find(|s| s.item == item)
    }

    /// The next time `>= now` (in seconds) at which `item` *starts*
    /// broadcasting, given channel bandwidth `bandwidth`.
    ///
    /// Returns `None` if the item is not on this channel or the channel
    /// is empty.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `bandwidth <= 0` or `now < 0`.
    pub fn next_start(&self, item: ItemId, now: f64, bandwidth: f64) -> Option<f64> {
        let slot = self.slot_of(item)?;
        Some(next_slot_start(slot.offset, self.cycle_size, now, bandwidth))
    }
}

/// The Eq. 1 kernel: the first time `>= now` (seconds) at which a slot
/// starting `offset` size units into a cycle of `cycle_size` units
/// begins, at `bandwidth` units per second.
///
/// The only place the wait arithmetic lives; its operation order is
/// part of the contract, since the simulator, the serving runtime, the
/// fleet planner and the air index all compare waits bit for bit.
///
/// # Panics
///
/// Panics (debug) if `bandwidth <= 0` or `now < 0`.
#[inline]
pub fn next_slot_start(offset: f64, cycle_size: f64, now: f64, bandwidth: f64) -> f64 {
    debug_assert!(bandwidth > 0.0 && now >= 0.0);
    let cycle_time = cycle_size / bandwidth;
    let offset_time = offset / bandwidth;
    // Number of whole cycles completed before `now`.
    let k = ((now - offset_time) / cycle_time).ceil().max(0.0);
    let mut t = offset_time + k * cycle_time;
    // Guard against floating-point rounding putting t just below now.
    if t < now {
        t += cycle_time;
    }
    t
}

/// Where one item airs: a channel index and the item's first slot on
/// that channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    channel: u32,
    slot: u32,
}

/// Packed entry of an item no channel carries.
const ABSENT: u32 = u32::MAX;

/// The per-item placement table behind every Eq. 1 lookup. Within a
/// channel only an item's first slot counts, as with
/// [`ChannelSchedule::slot_of`]; replicas are listed lowest channel
/// first, so ties go to the lowest channel.
#[derive(Debug, Clone, PartialEq)]
enum PlacementTable {
    /// Every item on at most one channel: item j's placement packed as
    /// `channel << shift | slot`, 4 bytes per item.
    Single { shift: u32, packed: Vec<u32> },
    /// Some item on several channels, or indices too wide to pack: item
    /// j's placements are `all[start[j]..start[j + 1]]`.
    Spread { start: Vec<u32>, all: Vec<Placement> },
}

impl PlacementTable {
    /// Indexes `channels`. Sized by the largest item id, which must be
    /// below the total slot count (every program built from a database
    /// satisfies this), so a hostile id cannot size the table.
    fn build(channels: &[ChannelSchedule]) -> Result<Self, ModelError> {
        let slots: usize = channels.iter().map(|c| c.slots.len()).sum();
        if channels.len() >= u32::MAX as usize || slots > u32::MAX as usize {
            return Err(ModelError::ProgramTooLarge { channels: channels.len(), slots });
        }
        let items = match placements(channels).map(|(item, _)| item).max() {
            Some(max) if max >= slots => {
                return Err(ModelError::ItemOutOfRange { item: max, items: slots })
            }
            Some(max) => max + 1,
            None => 0,
        };
        let longest = channels.iter().map(|c| c.slots.len()).max().unwrap_or(0) as u64;
        let shift = u64::BITS - longest.saturating_sub(1).leading_zeros();
        let widest = ((channels.len() as u64).saturating_sub(1) << shift)
            | longest.saturating_sub(1);
        if shift < 32 && widest < u64::from(ABSENT) {
            let mut packed = vec![ABSENT; items];
            let mut single = true;
            for (item, p) in placements(channels) {
                let entry = &mut packed[item];
                if *entry == ABSENT {
                    *entry = p.channel << shift | p.slot;
                } else if *entry >> shift != p.channel {
                    single = false;
                    break;
                }
            }
            if single {
                return Ok(PlacementTable::Single { shift, packed });
            }
        }
        // First slot per (item, channel), in (item, channel) order.
        let mut all: Vec<(usize, Placement)> = placements(channels).collect();
        all.sort_by_key(|&(item, p)| (item, p.channel, p.slot));
        all.dedup_by_key(|&mut (item, p)| (item, p.channel));
        let mut start = vec![0u32; items + 1];
        for &(item, _) in &all {
            start[item + 1] += 1;
        }
        for j in 0..items {
            start[j + 1] += start[j];
        }
        Ok(PlacementTable::Spread { start, all: all.into_iter().map(|(_, p)| p).collect() })
    }

    /// Every placement of `item`, lowest channel first (none when no
    /// channel carries it).
    #[inline]
    fn of(&self, item: ItemId) -> Placements<'_> {
        let j = item.index();
        match self {
            PlacementTable::Single { shift, packed } => {
                Placements::One(packed.get(j).filter(|&&e| e != ABSENT).map(|&e| {
                    Placement { channel: e >> shift, slot: e & ((1 << shift) - 1) }
                }))
            }
            PlacementTable::Spread { start, all } => {
                let range = match (start.get(j), start.get(j + 1)) {
                    (Some(&a), Some(&b)) => &all[a as usize..b as usize],
                    _ => &[],
                };
                Placements::Many(range.iter())
            }
        }
    }
}

/// An item's placements, as [`PlacementTable::of`] yields them.
enum Placements<'a> {
    One(Option<Placement>),
    Many(std::slice::Iter<'a, Placement>),
}

impl Iterator for Placements<'_> {
    type Item = Placement;

    #[inline]
    fn next(&mut self) -> Option<Placement> {
        match self {
            Placements::One(p) => p.take(),
            Placements::Many(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            Placements::One(p) => usize::from(p.is_some()),
            Placements::Many(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Placements<'_> {}

/// Every slot of `channels` as `(item index, placement)`, in channel
/// then slot order. [`PlacementTable::build`] checks first that channel
/// and slot indices fit `u32`.
fn placements(
    channels: &[ChannelSchedule],
) -> impl Iterator<Item = (usize, Placement)> + '_ {
    channels.iter().enumerate().flat_map(|(c, schedule)| {
        schedule.slots.iter().enumerate().map(move |(s, slot)| {
            (slot.item.index(), Placement { channel: c as u32, slot: s as u32 })
        })
    })
}

/// A complete broadcast program: one [`ChannelSchedule`] per channel plus
/// the shared channel bandwidth.
///
/// The program fixes the *intra-channel order* of items (the allocation
/// only fixes the grouping). Waiting-time expectations (Eq. 1–2) are
/// order-independent, but a concrete order is needed to actually
/// broadcast — and for the discrete-event simulator.
///
/// Serializes as `{channels, bandwidth}`; the placement table is rebuilt
/// on deserialization, which rejects a non-finite or non-positive
/// bandwidth and any item id at or above the program's slot count.
///
/// # Example
///
/// ```
/// use dbcast_model::{Allocation, BroadcastProgram, Database, ItemSpec};
/// # fn main() -> Result<(), dbcast_model::ModelError> {
/// let db = Database::try_from_specs(vec![
///     ItemSpec::new(0.6, 2.0),
///     ItemSpec::new(0.4, 3.0),
/// ])?;
/// let alloc = Allocation::from_assignment(&db, 1, vec![0, 0])?;
/// let program = BroadcastProgram::new(&db, &alloc, 10.0)?;
/// assert_eq!(program.channels().len(), 1);
/// assert!((program.channels()[0].cycle_size() - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastProgram {
    channels: Vec<ChannelSchedule>,
    bandwidth: f64,
    /// Derived from `channels`; never serialized.
    table: PlacementTable,
}

/// The serialized shape of a [`BroadcastProgram`].
#[derive(Deserialize)]
struct ProgramRepr {
    channels: Vec<ChannelSchedule>,
    bandwidth: f64,
}

impl Serialize for BroadcastProgram {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("channels".to_string(), self.channels.to_value()),
            ("bandwidth".to_string(), self.bandwidth.to_value()),
        ])
    }
}

impl Deserialize for BroadcastProgram {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let ProgramRepr { channels, bandwidth } = ProgramRepr::from_value(v)?;
        BroadcastProgram::from_channels(channels, bandwidth)
            .map_err(|e| DeError::custom(format!("invalid broadcast program: {e}")))
    }
}

impl BroadcastProgram {
    /// Builds a program from an allocation, placing each channel's items
    /// in item-id order.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidBandwidth`] for non-positive bandwidth.
    /// * [`ModelError::AssignmentLength`] if `alloc` does not cover `db`.
    pub fn new(
        db: &Database,
        alloc: &Allocation,
        bandwidth: f64,
    ) -> Result<Self, ModelError> {
        if alloc.items() != db.len() {
            return Err(ModelError::AssignmentLength {
                expected: db.len(),
                actual: alloc.items(),
            });
        }
        let mut channels = Vec::with_capacity(alloc.channels());
        for (ch, group) in alloc.groups().into_iter().enumerate() {
            let mut slots = Vec::with_capacity(group.len());
            let mut offset = 0.0;
            for id in group {
                let size = db.items()[id.index()].size();
                slots.push(ScheduledItem { item: id, offset, size });
                offset += size;
            }
            channels.push(ChannelSchedule {
                channel: ChannelId::new(ch),
                slots,
                cycle_size: offset,
            });
        }
        BroadcastProgram::from_channels(channels, bandwidth)
    }

    /// Builds a program from explicit per-channel groups that may
    /// **overlap** (an item broadcast on several channels — the
    /// replication extension). Every item must appear on at least one
    /// channel; within a channel, slots follow the given order.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidBandwidth`] for non-positive bandwidth.
    /// * [`ModelError::ZeroChannels`] for an empty group list.
    /// * [`ModelError::ItemOutOfRange`] for unknown item ids.
    /// * [`ModelError::AssignmentLength`] if some item appears on no
    ///   channel.
    pub fn from_overlapping_groups(
        db: &Database,
        groups: &[Vec<ItemId>],
        bandwidth: f64,
    ) -> Result<Self, ModelError> {
        if groups.is_empty() {
            return Err(ModelError::ZeroChannels);
        }
        let mut covered = vec![false; db.len()];
        let mut channels = Vec::with_capacity(groups.len());
        for (ch, group) in groups.iter().enumerate() {
            let mut slots = Vec::with_capacity(group.len());
            let mut offset = 0.0;
            for &id in group {
                if id.index() >= db.len() {
                    return Err(ModelError::ItemOutOfRange {
                        item: id.index(),
                        items: db.len(),
                    });
                }
                covered[id.index()] = true;
                let size = db.items()[id.index()].size();
                slots.push(ScheduledItem { item: id, offset, size });
                offset += size;
            }
            channels.push(ChannelSchedule {
                channel: ChannelId::new(ch),
                slots,
                cycle_size: offset,
            });
        }
        let missing = covered.iter().filter(|&&c| !c).count();
        if missing > 0 {
            return Err(ModelError::AssignmentLength {
                expected: db.len(),
                actual: db.len() - missing,
            });
        }
        BroadcastProgram::from_channels(channels, bandwidth)
    }

    /// Validates the bandwidth and every schedule's geometry, then
    /// indexes `channels`. The decoder shares this path, so a peer's
    /// program can never carry a cycle or slot the Eq. 1 kernel cannot
    /// wait on.
    fn from_channels(
        channels: Vec<ChannelSchedule>,
        bandwidth: f64,
    ) -> Result<Self, ModelError> {
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            return Err(ModelError::InvalidBandwidth { value: bandwidth });
        }
        let positive = |v: f64| v.is_finite() && v > 0.0;
        for (ch, schedule) in channels.iter().enumerate() {
            let cycle = schedule.cycle_size;
            let cycle_ok =
                if schedule.slots.is_empty() { cycle == 0.0 } else { positive(cycle) };
            if !cycle_ok {
                return Err(ModelError::InvalidSchedule {
                    channel: ch,
                    slot: None,
                    value: cycle,
                });
            }
            for (i, slot) in schedule.slots.iter().enumerate() {
                let bad = if !positive(slot.size) {
                    Some(slot.size)
                } else if !(0.0..cycle).contains(&slot.offset) {
                    Some(slot.offset)
                } else {
                    None
                };
                if let Some(value) = bad {
                    return Err(ModelError::InvalidSchedule {
                        channel: ch,
                        slot: Some(i),
                        value,
                    });
                }
            }
        }
        let table = PlacementTable::build(&channels)?;
        Ok(BroadcastProgram { channels, bandwidth, table })
    }

    /// All channel schedules, indexed by channel id.
    pub fn channels(&self) -> &[ChannelSchedule] {
        &self.channels
    }

    /// The shared channel bandwidth in size units per second.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// The schedule and slot a placement points at.
    #[inline]
    fn resolve(&self, p: Placement) -> (&ChannelSchedule, &ScheduledItem) {
        let schedule = &self.channels[p.channel as usize];
        (schedule, &schedule.slots[p.slot as usize])
    }

    /// The first schedule carrying `item`, with its slot. With
    /// replication, prefer [`locate_all`](Self::locate_all) or
    /// [`best_start`](Self::best_start).
    pub fn locate(&self, item: ItemId) -> Option<(&ChannelSchedule, &ScheduledItem)> {
        self.table.of(item).next().map(|p| self.resolve(p))
    }

    /// Every schedule carrying `item` (more than one under replication),
    /// lowest channel first, each with the item's first slot there.
    pub fn locate_all(
        &self,
        item: ItemId,
    ) -> impl ExactSizeIterator<Item = (&ChannelSchedule, &ScheduledItem)> + '_ {
        self.table.of(item).map(|p| self.resolve(p))
    }

    /// The earliest upcoming broadcast of `item` at or after `now`,
    /// across all channels carrying it: `(channel, start time, size)`.
    /// Ties go to the lowest channel.
    ///
    /// Returns `None` if no channel broadcasts the item.
    #[inline]
    pub fn best_start(&self, item: ItemId, now: f64) -> Option<(ChannelId, f64, f64)> {
        let start_on = |p: Placement| {
            let (schedule, slot) = self.resolve(p);
            let t = next_slot_start(slot.offset, schedule.cycle_size, now, self.bandwidth);
            (schedule.channel, t, slot.size)
        };
        let mut placements = self.table.of(item);
        let mut best = start_on(placements.next()?);
        for p in placements {
            let candidate = start_on(p);
            if candidate.1.total_cmp(&best.1).is_lt() {
                best = candidate;
            }
        }
        Some(best)
    }

    /// Time (seconds) a request for `item` issued at `now` waits until
    /// the *download completes*: wait for the item's next slot start
    /// (on whichever channel broadcasts it soonest), then download it.
    /// This is the quantity whose expectation Eq. 1 describes (for the
    /// unreplicated case).
    ///
    /// Returns `None` if no channel broadcasts the item.
    #[inline]
    pub fn response_time(&self, item: ItemId, now: f64) -> Option<f64> {
        let (_, start, size) = self.best_start(item, now)?;
        Some(start - now + size / self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemSpec;

    fn setup() -> (Database, BroadcastProgram) {
        let db = Database::try_from_specs(vec![
            ItemSpec::new(0.4, 2.0), // d0 -> c0
            ItemSpec::new(0.3, 3.0), // d1 -> c0
            ItemSpec::new(0.2, 5.0), // d2 -> c1
            ItemSpec::new(0.1, 1.0), // d3 -> c1
        ])
        .unwrap();
        let alloc = Allocation::from_assignment(&db, 2, vec![0, 0, 1, 1]).unwrap();
        let program = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
        (db, program)
    }

    #[test]
    fn slots_are_contiguous_and_cycle_is_aggregate_size() {
        let (_, p) = setup();
        let c0 = &p.channels()[0];
        assert_eq!(c0.slots().len(), 2);
        assert_eq!(c0.slots()[0].offset, 0.0);
        assert_eq!(c0.slots()[1].offset, 2.0);
        assert!((c0.cycle_size() - 5.0).abs() < 1e-12);
        let c1 = &p.channels()[1];
        assert!((c1.cycle_size() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn next_start_wraps_cycles() {
        let (_, p) = setup();
        let c0 = &p.channels()[0];
        // d1 occupies offsets [2, 5) size units => [0.2s, 0.5s) each 0.5s cycle.
        assert!((c0.next_start(ItemId::new(1), 0.0, 10.0).unwrap() - 0.2).abs() < 1e-12);
        assert!((c0.next_start(ItemId::new(1), 0.2, 10.0).unwrap() - 0.2).abs() < 1e-12);
        assert!((c0.next_start(ItemId::new(1), 0.21, 10.0).unwrap() - 0.7).abs() < 1e-12);
        assert!((c0.next_start(ItemId::new(1), 1.7, 10.0).unwrap() - 1.7).abs() < 1e-9);
    }

    #[test]
    fn next_start_unknown_item_is_none() {
        let (_, p) = setup();
        assert!(p.channels()[0].next_start(ItemId::new(2), 0.0, 10.0).is_none());
    }

    #[test]
    fn response_time_includes_download() {
        let (_, p) = setup();
        // Request d0 at t = 0: starts immediately, download 2/10 = 0.2s.
        assert!((p.response_time(ItemId::new(0), 0.0).unwrap() - 0.2).abs() < 1e-12);
        // Request d0 just after its slot started: wait rest of cycle.
        let r = p.response_time(ItemId::new(0), 0.01).unwrap();
        assert!((r - (0.5 - 0.01 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn response_time_unknown_item_is_none() {
        let (db, _) = setup();
        let alloc = Allocation::from_assignment(&db, 2, vec![0, 0, 0, 0]).unwrap();
        let p = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
        // Channel 1 is empty; every item still on channel 0.
        assert!(p.channels()[1].is_empty());
        assert!(p.response_time(ItemId::new(3), 0.3).is_some());
    }

    #[test]
    fn average_response_time_over_cycle_matches_eq1() {
        // Integrate the response time of one item over a full cycle of
        // request times; the mean must equal Eq. 1.
        let (db, p) = setup();
        let alloc = Allocation::from_assignment(&db, 2, vec![0, 0, 1, 1]).unwrap();
        let item = ItemId::new(1);
        let analytical =
            crate::waiting::item_waiting_time(&db, &alloc, item, 10.0).unwrap();
        let cycle = 0.5; // channel 0: 5 units / 10 per sec
        let steps = 100_000;
        let mut sum = 0.0;
        for i in 0..steps {
            let t = cycle * (i as f64 + 0.5) / steps as f64;
            sum += p.response_time(item, t).unwrap();
        }
        let empirical = sum / steps as f64;
        assert!(
            (empirical - analytical).abs() < 1e-3,
            "empirical {empirical} vs analytical {analytical}"
        );
    }

    #[test]
    fn rejects_bad_bandwidth() {
        let (db, _) = setup();
        let alloc = Allocation::from_assignment(&db, 1, vec![0; 4]).unwrap();
        assert!(BroadcastProgram::new(&db, &alloc, 0.0).is_err());
        assert!(BroadcastProgram::new(&db, &alloc, f64::NAN).is_err());
    }

    #[test]
    fn overlapping_groups_build_replicated_programs() {
        let (db, _) = setup();
        // d0 replicated onto both channels.
        let groups = vec![
            vec![ItemId::new(0), ItemId::new(1)],
            vec![ItemId::new(0), ItemId::new(2), ItemId::new(3)],
        ];
        let p = BroadcastProgram::from_overlapping_groups(&db, &groups, 10.0).unwrap();
        assert_eq!(p.locate_all(ItemId::new(0)).len(), 2);
        assert_eq!(p.locate_all(ItemId::new(2)).len(), 1);
    }

    #[test]
    fn overlapping_groups_reject_uncovered_items() {
        let (db, _) = setup();
        let groups = vec![vec![ItemId::new(0)], vec![ItemId::new(1)]];
        assert!(matches!(
            BroadcastProgram::from_overlapping_groups(&db, &groups, 10.0),
            Err(ModelError::AssignmentLength { .. })
        ));
        let unknown = vec![vec![ItemId::new(9)]];
        assert!(BroadcastProgram::from_overlapping_groups(&db, &unknown, 10.0).is_err());
        assert!(BroadcastProgram::from_overlapping_groups(&db, &[], 10.0).is_err());
    }

    #[test]
    fn replication_never_increases_response_time() {
        let (db, _) = setup();
        let base_groups = vec![
            vec![ItemId::new(0), ItemId::new(1)],
            vec![ItemId::new(2), ItemId::new(3)],
        ];
        let repl_groups = vec![
            vec![ItemId::new(0), ItemId::new(1)],
            vec![ItemId::new(2), ItemId::new(3), ItemId::new(0)],
        ];
        let base =
            BroadcastProgram::from_overlapping_groups(&db, &base_groups, 10.0).unwrap();
        let repl =
            BroadcastProgram::from_overlapping_groups(&db, &repl_groups, 10.0).unwrap();
        // The replicated item's response never worsens at any probe time;
        // (its own channel-0 schedule is unchanged, and channel 1 only
        // adds an extra opportunity).
        for i in 0..200 {
            let t = i as f64 * 0.013;
            let b = base.response_time(ItemId::new(0), t).unwrap();
            let r = repl.response_time(ItemId::new(0), t).unwrap();
            assert!(r <= b + 1e-9, "at t = {t}: {r} > {b}");
        }
    }

    #[test]
    fn best_start_picks_the_sooner_replica() {
        let (db, _) = setup();
        let groups = vec![
            vec![ItemId::new(1), ItemId::new(0)], // d0 at offset 3 of cycle 5
            vec![ItemId::new(0), ItemId::new(2), ItemId::new(3)], // d0 at offset 0 of cycle 8
        ];
        let p = BroadcastProgram::from_overlapping_groups(&db, &groups, 10.0).unwrap();
        // At t = 0, channel 1 starts d0 immediately.
        let (ch, start, _) = p.best_start(ItemId::new(0), 0.0).unwrap();
        assert_eq!(ch.index(), 1);
        assert_eq!(start, 0.0);
        // Just after, channel 0's copy at 0.3s beats channel 1's next
        // cycle at 0.8s.
        let (ch, start, _) = p.best_start(ItemId::new(0), 0.05).unwrap();
        assert_eq!(ch.index(), 0);
        assert!((start - 0.3).abs() < 1e-12);
    }
}
