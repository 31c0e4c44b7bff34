use std::fmt;

/// Errors produced when constructing or validating model types.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// The database would contain no items.
    EmptyDatabase,
    /// An item frequency is not finite and strictly positive.
    InvalidFrequency {
        /// Index of the offending item in construction order.
        index: usize,
        /// The rejected frequency value.
        value: f64,
    },
    /// An item size is not finite and strictly positive.
    InvalidSize {
        /// Index of the offending item in construction order.
        index: usize,
        /// The rejected size value.
        value: f64,
    },
    /// Frequencies do not sum to 1 (within tolerance) and normalization
    /// was not requested.
    UnnormalizedFrequencies {
        /// The actual frequency sum.
        sum: f64,
    },
    /// A channel count of zero was requested.
    ZeroChannels,
    /// More channels than items were requested where the operation
    /// requires every channel to be non-empty.
    TooManyChannels {
        /// Requested channel count.
        channels: usize,
        /// Number of items available.
        items: usize,
    },
    /// An assignment vector has the wrong length.
    AssignmentLength {
        /// Expected length (number of items).
        expected: usize,
        /// Actual length supplied.
        actual: usize,
    },
    /// An assignment refers to a channel that does not exist.
    ChannelOutOfRange {
        /// The offending channel index.
        channel: usize,
        /// Number of channels in the allocation.
        channels: usize,
    },
    /// An item id is out of range for the database.
    ItemOutOfRange {
        /// The offending item index.
        item: usize,
        /// Number of items in the database.
        items: usize,
    },
    /// Bandwidth must be finite and strictly positive.
    InvalidBandwidth {
        /// The rejected bandwidth value.
        value: f64,
    },
    /// A broadcast program too large to index: the placement table
    /// stores channel and slot indices as `u32`.
    ProgramTooLarge {
        /// Number of channels in the program.
        channels: usize,
        /// Total number of slots across all channels.
        slots: usize,
    },
    /// A broadcast program places an item in more than one slot, on two
    /// channels or twice on one: a program is a partition, so every item
    /// airs in at most one `(channel, slot)`.
    ItemPlacedTwice {
        /// The item placed twice.
        item: usize,
    },
    /// A channel schedule names a channel other than its own position
    /// in the program: schedule `i` must be channel `i`.
    ChannelOutOfPlace {
        /// The schedule's position in the program.
        position: usize,
        /// The channel id the schedule names.
        channel: usize,
    },
    /// A move's source channel does not currently hold the item.
    ItemNotOnChannel {
        /// The item being moved.
        item: usize,
        /// The claimed source channel.
        channel: usize,
    },
    /// A channel schedule is malformed: a cycle size that is not finite
    /// and positive (exactly 0 on an empty channel), a slot size that is
    /// not finite and positive, or a slot offset outside
    /// `[0, cycle_size)`.
    InvalidSchedule {
        /// Index of the offending channel.
        channel: usize,
        /// Index of the offending slot; `None` when the cycle size is.
        slot: Option<usize>,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModelError::EmptyDatabase => write!(f, "broadcast database must contain items"),
            ModelError::InvalidFrequency { index, value } => write!(
                f,
                "item {index} has invalid access frequency {value}; must be finite and > 0"
            ),
            ModelError::InvalidSize { index, value } => write!(
                f,
                "item {index} has invalid size {value}; must be finite and > 0"
            ),
            ModelError::UnnormalizedFrequencies { sum } => write!(
                f,
                "access frequencies sum to {sum}, expected 1 (use try_from_specs to normalize)"
            ),
            ModelError::ZeroChannels => write!(f, "at least one broadcast channel is required"),
            ModelError::TooManyChannels { channels, items } => write!(
                f,
                "{channels} channels requested but only {items} items available"
            ),
            ModelError::AssignmentLength { expected, actual } => write!(
                f,
                "assignment length {actual} does not match database size {expected}"
            ),
            ModelError::ChannelOutOfRange { channel, channels } => write!(
                f,
                "channel index {channel} out of range for {channels} channels"
            ),
            ModelError::ItemOutOfRange { item, items } => {
                write!(f, "item index {item} out of range for {items} items")
            }
            ModelError::InvalidBandwidth { value } => write!(
                f,
                "channel bandwidth {value} is invalid; must be finite and > 0"
            ),
            ModelError::ProgramTooLarge { channels, slots } => write!(
                f,
                "program of {channels} channels and {slots} slots exceeds the u32 index range"
            ),
            ModelError::ItemPlacedTwice { item } => {
                write!(f, "item {item} is placed in more than one broadcast slot")
            }
            ModelError::ChannelOutOfPlace { position, channel } => write!(
                f,
                "channel schedule at position {position} names channel {channel}"
            ),
            ModelError::ItemNotOnChannel { item, channel } => {
                write!(f, "item {item} is not allocated to channel {channel}")
            }
            ModelError::InvalidSchedule { channel, slot: None, value } => {
                write!(f, "channel {channel} has invalid cycle size {value}")
            }
            ModelError::InvalidSchedule { channel, slot: Some(slot), value } => write!(
                f,
                "channel {channel} slot {slot} has invalid size or offset {value}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = [
            ModelError::EmptyDatabase,
            ModelError::InvalidFrequency { index: 3, value: -1.0 },
            ModelError::InvalidSize { index: 1, value: f64::NAN },
            ModelError::UnnormalizedFrequencies { sum: 0.5 },
            ModelError::ZeroChannels,
            ModelError::TooManyChannels { channels: 9, items: 4 },
            ModelError::AssignmentLength { expected: 5, actual: 2 },
            ModelError::ChannelOutOfRange { channel: 7, channels: 3 },
            ModelError::ItemOutOfRange { item: 10, items: 10 },
            ModelError::InvalidBandwidth { value: 0.0 },
            ModelError::ProgramTooLarge { channels: 1, slots: 1 << 33 },
            ModelError::ItemPlacedTwice { item: 2 },
            ModelError::ChannelOutOfPlace { position: 0, channel: 7 },
            ModelError::ItemNotOnChannel { item: 2, channel: 0 },
            ModelError::InvalidSchedule { channel: 1, slot: None, value: 0.0 },
            ModelError::InvalidSchedule { channel: 1, slot: Some(0), value: -1.0 },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
