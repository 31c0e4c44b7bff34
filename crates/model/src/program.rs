//! Concrete broadcast programs: the cyclic per-channel schedules a server
//! actually transmits, derived from an [`Allocation`].
//!
//! A program is a partition: every item airs in at most one
//! `(channel, slot)`. Every Eq. 1 question ("when does item j next air,
//! and on which channel?") is answered by one kernel: a per-item
//! placement table, built once with the program, that maps each item to
//! its one slot. Lookups are O(1) and allocation-free; the wait
//! arithmetic itself lives in [`next_slot_start`], so every engine gets
//! bit-identical waits.

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

/// Where one item airs: a channel index and the item's slot on that
/// channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    channel: u32,
    slot: u32,
}

/// Table entry of an item no channel carries.
const ABSENT: Placement = Placement { channel: u32::MAX, slot: u32::MAX };

/// Builds the placement table behind every Eq. 1 lookup: entry j is item
/// j's one placement, 8 bytes per item. Sized by the total slot count,
/// which every item id must stay below (every program built from a
/// database satisfies this), so a hostile id cannot size the table.
///
/// # Errors
///
/// * [`ModelError::ProgramTooLarge`] if a channel or slot index does
///   not fit `u32`.
/// * [`ModelError::ItemOutOfRange`] for an id at or above the slot count.
/// * [`ModelError::ItemPlacedTwice`] for an item in more than one slot.
fn placement_table(channels: &[ChannelSchedule]) -> Result<Vec<Placement>, ModelError> {
    let slots: usize = channels.iter().map(|c| c.slots.len()).sum();
    if channels.len() >= u32::MAX as usize || slots > u32::MAX as usize {
        return Err(ModelError::ProgramTooLarge { channels: channels.len(), slots });
    }
    let mut table = vec![ABSENT; slots];
    for (c, schedule) in channels.iter().enumerate() {
        for (s, slot) in schedule.slots.iter().enumerate() {
            let item = slot.item.index();
            let entry = table
                .get_mut(item)
                .ok_or(ModelError::ItemOutOfRange { item, items: slots })?;
            if *entry != ABSENT {
                return Err(ModelError::ItemPlacedTwice { item });
            }
            *entry = Placement { channel: c as u32, slot: s as u32 };
        }
    }
    Ok(table)
}

/// A complete broadcast program: one [`ChannelSchedule`] per channel plus
/// the shared channel bandwidth.
///
/// The program fixes the *intra-channel order* of items (the allocation
/// only fixes the grouping). Waiting-time expectations (Eq. 1–2) are
/// order-independent, but a concrete order is needed to actually
/// broadcast — and for the simulator, which replays it request by
/// request.
///
/// Serializes as `{channels, bandwidth}`; the placement table is rebuilt
/// on deserialization, which rejects a non-finite or non-positive
/// bandwidth, a schedule whose channel id is not its position, any item
/// id at or above the program's slot count and any item placed in more
/// than one slot.
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
    /// Item j's one placement, derived from `channels`; never
    /// serialized.
    table: Vec<Placement>,
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

    /// Validates the bandwidth and every schedule's channel id and
    /// geometry, then indexes `channels`, one placement per item. The
    /// decoder shares this path, so a peer's program can never carry a
    /// channel id that indexes past or into another schedule, a cycle or
    /// slot the Eq. 1 kernel cannot wait on, nor an item placed twice.
    fn from_channels(
        channels: Vec<ChannelSchedule>,
        bandwidth: f64,
    ) -> Result<Self, ModelError> {
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            return Err(ModelError::InvalidBandwidth { value: bandwidth });
        }
        let positive = |v: f64| v.is_finite() && v > 0.0;
        for (ch, schedule) in channels.iter().enumerate() {
            if schedule.channel.index() != ch {
                return Err(ModelError::ChannelOutOfPlace {
                    position: ch,
                    channel: schedule.channel.index(),
                });
            }
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
        let table = placement_table(&channels)?;
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

    /// The schedule carrying `item`, with the item's slot on it.
    #[inline]
    pub fn locate(&self, item: ItemId) -> Option<(&ChannelSchedule, &ScheduledItem)> {
        let p = self.table.get(item.index()).filter(|&&p| p != ABSENT)?;
        let schedule = &self.channels[p.channel as usize];
        Some((schedule, &schedule.slots[p.slot as usize]))
    }

    /// The next broadcast of `item` at or after `now`:
    /// `(channel, start time, size)`.
    ///
    /// Returns `None` if no channel broadcasts the item.
    #[inline]
    pub fn best_start(&self, item: ItemId, now: f64) -> Option<(ChannelId, f64, f64)> {
        let (schedule, slot) = self.locate(item)?;
        let t = next_slot_start(slot.offset, schedule.cycle_size, now, self.bandwidth);
        Some((schedule.channel, t, slot.size))
    }

    /// Time (seconds) a request for `item` issued at `now` waits until
    /// the *download completes*: wait for the item's next slot start,
    /// then download it. This is the quantity whose expectation Eq. 1
    /// describes.
    ///
    /// Returns `None` if no channel broadcasts the item.
    #[inline]
    pub fn response_time(&self, item: ItemId, now: f64) -> Option<f64> {
        let (_, start, size) = self.best_start(item, now)?;
        Some(start - now + size / self.bandwidth)
    }

    /// Eq. 1: the expected [`response_time`](Self::response_time) of a
    /// request for `item` arriving uniformly in phase, half its channel's
    /// cycle plus its own download, `Z_c/(2b) + z/b`. The one place this
    /// expectation is computed from a program.
    ///
    /// Returns `None` if no channel broadcasts the item.
    #[inline]
    pub fn expected_response_time(&self, item: ItemId) -> Option<f64> {
        let (schedule, slot) = self.locate(item)?;
        Some(schedule.cycle_size / (2.0 * self.bandwidth) + slot.size / self.bandwidth)
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
    fn best_start_wraps_cycles() {
        let (_, p) = setup();
        // d1 occupies offsets [2, 5) size units => [0.2s, 0.5s) each 0.5s cycle.
        let start = |now| {
            let (channel, t, size) = p.best_start(ItemId::new(1), now).unwrap();
            assert_eq!((channel.index(), size), (0, 3.0));
            t
        };
        assert!((start(0.0) - 0.2).abs() < 1e-12);
        assert!((start(0.2) - 0.2).abs() < 1e-12);
        assert!((start(0.21) - 0.7).abs() < 1e-12);
        assert!((start(1.7) - 1.7).abs() < 1e-9);
    }

    #[test]
    fn best_start_unknown_item_is_none() {
        let (_, p) = setup();
        assert!(p.best_start(ItemId::new(4), 0.0).is_none());
        assert!(p.locate(ItemId::new(4)).is_none());
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
}
