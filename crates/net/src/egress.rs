//! Frame egress: turns the live program generation into wire frames.
//!
//! Virtual time advances in **windows** of one cycle of the fastest
//! non-empty channel. Within a window `[t0, t1)` the egress emits, in
//! global `(start, channel)` order, every frame that *finishes* by `t1`;
//! a frame straddling the boundary stays pending and is emitted in a
//! later window — unless a hot swap lands on the boundary first, in
//! which case the straddler is **dropped**: it never fully aired, so a
//! correct client must not count on it. The new generation starts its
//! phase 0 exactly at the boundary, and the swap is announced on the
//! wire by a fresh [`Directory`] frame. "Finishes by" is one function
//! (`world::airs_by`), which clients also call, on a planned fetch's
//! completion and the directory's `valid_until`. Sharing it, tolerance
//! included, is what makes hot swaps visible but never *torn* on the
//! wire.
//!
//! With the air index on, each generation's (1,m) layouts and index
//! tables come from one [`IndexedProgram`], built as the generation goes
//! on the air by the same call a client's
//! [`WorldView`](crate::WorldView) makes from the directory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use dbcast_index::{IndexParams, IndexedProgram, LayoutEntry};
use dbcast_model::{next_slot_start, BroadcastProgram};
use dbcast_serve::{EpochCell, ProgramGeneration};

use crate::frame::{
    encode_data_frame_into, encode_frame, encode_frame_into, encode_index_frame_into,
    DataFrame, Frame, IndexEntry,
};
use crate::world::{airs_by, Directory};
use crate::BroadcastServer;

/// A self-contained description of one generation to put on the air.
#[derive(Debug, Clone)]
pub struct SourceGeneration {
    /// Monotone generation counter.
    pub generation: u64,
    /// The cyclic program to stream.
    pub program: BroadcastProgram,
    /// Per-item access frequencies (by item index).
    pub frequencies: Vec<f64>,
}

/// Where the egress learns about generations and swaps.
///
/// `poll(window)` is called once before the first window and once at
/// every window boundary; it returns `Some` exactly when the generation
/// changed since the previous call (including the initial generation on
/// the first call).
pub trait ProgramSource: Send + Sync {
    /// Polls for a (new) generation at the given window boundary.
    fn poll(&self, window: u64) -> Option<SourceGeneration>;
}

/// [`ProgramSource`] following a live [`EpochCell`] published by the
/// serving runtime — hot swaps appear on the wire at the next boundary.
#[derive(Debug)]
pub struct EpochSource {
    cell: Arc<EpochCell<ProgramGeneration>>,
    last_seen: Mutex<Option<u64>>,
}

impl EpochSource {
    /// Wraps the serve runtime's epoch cell.
    pub fn new(cell: Arc<EpochCell<ProgramGeneration>>) -> Self {
        EpochSource { cell, last_seen: Mutex::new(None) }
    }
}

impl ProgramSource for EpochSource {
    fn poll(&self, _window: u64) -> Option<SourceGeneration> {
        let current = self.cell.current();
        let mut last = self.last_seen.lock().expect("source poisoned");
        if *last == Some(current.generation) {
            return None;
        }
        *last = Some(current.generation);
        Some(SourceGeneration {
            generation: current.generation,
            program: current.value.program.clone(),
            frequencies: current.value.frequencies.clone(),
        })
    }
}

/// Deterministic [`ProgramSource`]: a scripted sequence of generations,
/// each activating at a fixed window boundary. Used by tests and the
/// inline fleet server to make mid-run swaps reproducible.
#[derive(Debug)]
pub struct ScriptedSource {
    stages: Vec<(u64, SourceGeneration)>,
    next: Mutex<usize>,
}

impl ScriptedSource {
    /// Creates a scripted source. `stages` are `(activate_at_window,
    /// generation)` pairs in ascending activation order; the first must
    /// activate at window 0.
    pub fn new(stages: Vec<(u64, SourceGeneration)>) -> Self {
        assert!(!stages.is_empty(), "scripted source needs one stage");
        assert_eq!(stages[0].0, 0, "first stage must activate at window 0");
        ScriptedSource { stages, next: Mutex::new(0) }
    }
}

impl ProgramSource for ScriptedSource {
    fn poll(&self, window: u64) -> Option<SourceGeneration> {
        let mut next = self.next.lock().expect("source poisoned");
        if *next < self.stages.len() && self.stages[*next].0 <= window {
            let gen = self.stages[*next].1.clone();
            *next += 1;
            Some(gen)
        } else {
            None
        }
    }
}

/// Egress tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct EgressConfig {
    /// Air-index parameters; `Some` interleaves (1,m) index frames.
    pub index: Option<IndexParams>,
    /// Stop after this many windows (`None` = run until `stop`).
    pub max_windows: Option<u64>,
    /// Wall-clock pacing per window; `None` streams at full speed.
    pub pace: Option<std::time::Duration>,
}

/// What one egress run put on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EgressReport {
    /// Windows (virtual broadcast slices) emitted.
    pub windows: u64,
    /// Data + index frames broadcast.
    pub frames: u64,
    /// Directory frames broadcast (= generations aired).
    pub generations: u64,
    /// Straddling frames dropped at swap boundaries.
    pub truncated: u64,
}

/// One channel's emission cursor over an endless cyclic layout.
struct ChannelCursor {
    channel: u32,
    /// `(entry, offset_size_units, size)` of one cycle, in air order.
    layout: Vec<(LayoutEntry, f64, f64)>,
    cycle_size: f64,
    /// The layout's data slots as `(item, offset_size_units)`, in item
    /// order: an index frame's entries before they are timed.
    index_table: Vec<(u32, f64)>,
    cycle: u64,
    pos: usize,
}

impl ChannelCursor {
    /// Virtual `(start, end)` of the next frame, given origin/bandwidth.
    fn peek(&self, origin: f64, bandwidth: f64) -> (f64, f64) {
        let (_, offset, size) = self.layout[self.pos];
        let start = origin + (self.cycle as f64 * self.cycle_size + offset) / bandwidth;
        (start, start + size / bandwidth)
    }

    fn advance(&mut self) {
        self.pos += 1;
        if self.pos == self.layout.len() {
            self.pos = 0;
            self.cycle += 1;
        }
    }
}

/// One frame of the window being encoded: when it starts airing and
/// which layout entry of which cursor it carries.
#[derive(Clone, Copy)]
struct Airing {
    start: f64,
    channel: u32,
    cursor: u32,
    pos: u32,
}

/// The streaming state for one generation.
struct OnAir {
    /// What the generation airs; its `origin` is the virtual time of
    /// the generation's phase 0.
    directory: Directory,
    /// Window length: one cycle of the fastest non-empty channel.
    window: f64,
    cursors: Vec<ChannelCursor>,
}

fn derive_sizes(program: &BroadcastProgram, items: usize) -> Vec<f64> {
    let mut sizes = vec![0.0; items];
    for schedule in program.channels() {
        for slot in schedule.slots() {
            let idx = slot.item.index();
            if idx < sizes.len() {
                sizes[idx] = slot.size;
            }
        }
    }
    sizes
}

fn build_on_air(
    source: SourceGeneration,
    origin: f64,
    index: Option<IndexParams>,
) -> Result<OnAir, String> {
    let program = source.program;
    let bandwidth = program.bandwidth();
    let indexed = index
        .map(|params| IndexedProgram::with_optimal_segments(&program, params))
        .transpose()
        .map_err(|e| format!("index build failed: {e}"))?;
    let mut cursors = Vec::new();
    let mut fastest = f64::INFINITY;
    for schedule in program.channels().iter().filter(|s| !s.is_empty()) {
        let channel = schedule.channel().index();
        let (layout, cycle_size): (Vec<_>, _) = match &indexed {
            Some(indexed) => {
                let ic =
                    indexed.channels()[channel].as_ref().expect("non-empty, so indexed");
                (ic.layout().collect(), ic.cycle_size())
            }
            None => (
                (schedule.slots().iter())
                    .map(|s| (LayoutEntry::Item { item: s.item }, s.offset, s.size))
                    .collect(),
                schedule.cycle_size(),
            ),
        };
        // A program places each item once, so every item has exactly
        // one data slot.
        let mut index_table: Vec<(u32, f64)> = (layout.iter())
            .filter_map(|&(entry, offset, _)| match entry {
                LayoutEntry::Item { item } => Some((item.index() as u32, offset)),
                LayoutEntry::Index { .. } => None,
            })
            .collect();
        index_table.sort_unstable_by_key(|&(item, _)| item);
        fastest = fastest.min(cycle_size / bandwidth);
        cursors.push(ChannelCursor {
            channel: channel as u32,
            layout,
            cycle_size,
            index_table,
            cycle: 0,
            pos: 0,
        });
    }
    if cursors.is_empty() {
        return Err("program has no non-empty channel".into());
    }
    let items = source.frequencies.len();
    let directory = Directory {
        generation: source.generation,
        origin,
        bandwidth,
        sizes: derive_sizes(&program, items),
        frequencies: source.frequencies,
        index,
        program,
    };
    Ok(OnAir { directory, window: fastest, cursors })
}

impl OnAir {
    /// Encodes every frame finishing by `window_end`, in global
    /// `(start, channel)` order, onto the end of `out`, pushing each
    /// frame's end offset onto `ends`. Frames straddling `window_end`
    /// stay pending in their cursor. `airings` is scratch space.
    fn emit_until(
        &mut self,
        window_end: f64,
        airings: &mut Vec<Airing>,
        out: &mut Vec<u8>,
        ends: &mut Vec<usize>,
    ) {
        let Directory { generation, origin, bandwidth, .. } = self.directory;
        airings.clear();
        for (c, cursor) in self.cursors.iter_mut().enumerate() {
            loop {
                let (start, end) = cursor.peek(origin, bandwidth);
                if !airs_by(end, window_end) {
                    break;
                }
                let (channel, pos) = (cursor.channel, cursor.pos as u32);
                airings.push(Airing { start, channel, cursor: c as u32, pos });
                cursor.advance();
            }
        }
        // Deterministic on-air order across channels; a channel's
        // starts strictly increase, so no two keys tie.
        airings.sort_unstable_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .expect("finite starts")
                .then(a.channel.cmp(&b.channel))
        });
        for a in airings.iter() {
            let cursor = &self.cursors[a.cursor as usize];
            let (entry, _, size) = cursor.layout[a.pos as usize];
            let duration = size / bandwidth;
            match entry {
                LayoutEntry::Item { item } => encode_data_frame_into(
                    out,
                    &DataFrame {
                        channel: a.channel,
                        item: item.index() as u32,
                        generation,
                        start: a.start,
                        duration,
                    },
                ),
                LayoutEntry::Index { copy } => {
                    // Entries are timed from the index frame's end, as
                    // `IndexedChannel::next_item_start` times them.
                    let local_end = a.start + duration - origin;
                    let cycle = cursor.cycle_size;
                    let entries =
                        cursor.index_table.iter().map(|&(item, offset)| IndexEntry {
                            item,
                            next_start: next_slot_start(
                                offset, cycle, local_end, bandwidth,
                            ) + origin,
                        });
                    encode_index_frame_into(
                        out,
                        a.channel,
                        copy as u32,
                        generation,
                        a.start,
                        duration,
                        entries,
                    );
                }
            }
            ends.push(out.len());
        }
    }

    /// Counts frames already started before `boundary` but unfinished:
    /// exactly the straddlers a swap at `boundary` truncates.
    fn pending_straddlers(&self, boundary: f64) -> u64 {
        let Directory { origin, bandwidth, .. } = self.directory;
        self.cursors
            .iter()
            .filter(|c| {
                let (start, end) = c.peek(origin, bandwidth);
                start < boundary - 1e-12 && !airs_by(end, boundary)
            })
            .count() as u64
    }
}

/// Runs the egress loop until `stop` is raised or `max_windows` elapse,
/// then broadcasts an [`Frame::End`] carrying the covered horizon.
///
/// Each window is encoded once, straight into one buffer that every
/// subscriber queue shares; the buffer is reused whenever no queue
/// still holds the previous window.
///
/// # Errors
///
/// Returns a message when a generation cannot be put on the air (empty
/// program or inconsistent index parameters).
pub fn run_egress(
    server: &BroadcastServer,
    source: &dyn ProgramSource,
    config: &EgressConfig,
    stop: &AtomicBool,
) -> Result<EgressReport, String> {
    let mut report = EgressReport::default();
    let initial = source
        .poll(0)
        .ok_or_else(|| "program source yielded no initial generation".to_string())?;
    let mut on_air = build_on_air(initial, 0.0, config.index)?;
    let mut now = 0.0f64;
    publish_directory(server, &on_air, &mut report);

    let mut airings = Vec::new();
    let mut window = Arc::new(Vec::new());
    let mut ends = Vec::new();
    let mut window_index: u64 = 0;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if let Some(max) = config.max_windows {
            if window_index >= max {
                break;
            }
        }
        let window_end = now + on_air.window;
        if Arc::get_mut(&mut window).is_none() {
            // A subscriber still holds the previous window.
            window = Arc::new(Vec::with_capacity(window.len()));
        }
        let bytes = Arc::get_mut(&mut window).expect("the window buffer is unshared");
        bytes.clear();
        ends.clear();
        on_air.emit_until(window_end, &mut airings, bytes, &mut ends);
        server.broadcast(&window, &ends);
        report.frames += ends.len() as u64;
        now = window_end;
        window_index += 1;
        if let Some(pace) = config.pace {
            std::thread::sleep(pace);
        }
        if let Some(next) = source.poll(window_index) {
            // Swap at the boundary: straddlers are truncated, the new
            // generation starts its phase 0 exactly here.
            report.truncated += on_air.pending_straddlers(now);
            on_air = build_on_air(next, now, config.index)?;
            publish_directory(server, &on_air, &mut report);
        }
    }
    let end = Arc::new(encode_frame(&Frame::End { horizon: now }));
    server.broadcast(&end, &[end.len()]);
    report.windows = window_index;
    Ok(report)
}

fn publish_directory(server: &BroadcastServer, on_air: &OnAir, report: &mut EgressReport) {
    let json = serde_json::to_string(&on_air.directory)
        .expect("directory serializes")
        .into_bytes();
    let mut wire = Vec::with_capacity(json.len() + 32);
    encode_frame_into(&mut wire, &Frame::Directory(json));
    server.set_directory(Arc::new(wire));
    report.generations += 1;
}

#[cfg(test)]
mod tests {
    use std::io::Read;
    use std::net::TcpStream;

    use dbcast_alloc::DrpCds;
    use dbcast_index::{optimal_segments, IndexedChannel};
    use dbcast_model::{Allocation, ChannelAllocator, Database, ItemSpec};
    use dbcast_workload::{SizeDistribution, WorkloadBuilder};

    use super::*;
    use crate::client::{measure, AirLog, GeneratedRequest};
    use crate::fleet::FleetConfig;
    use crate::frame::{IndexFrame, HEADER_LEN, TRAILER_LEN};
    use crate::{NetConfig, OverflowPolicy};

    const WINDOWS: u64 = 90;
    const SWAP_AT: u64 = 37;
    const INDEX: IndexParams = IndexParams { index_size: 0.5, header_size: 0.05 };

    /// Two generations of one catalogue of diverse sizes, on 3 then 4
    /// channels, the second activating at window `SWAP_AT`.
    fn source() -> ScriptedSource {
        let db = WorkloadBuilder::new(40)
            .skewness(0.8)
            .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
            .seed(7)
            .build()
            .expect("workload builds");
        let frequencies: Vec<f64> = db.iter().map(|d| d.frequency()).collect();
        let stages = [(0, 3), (SWAP_AT, 4)]
            .into_iter()
            .enumerate()
            .map(|(generation, (at, channels))| {
                let alloc = DrpCds::new().allocate(&db, channels).expect("allocates");
                let program = BroadcastProgram::new(&db, &alloc, 10.0).expect("builds");
                let frequencies = frequencies.clone();
                (
                    at,
                    SourceGeneration {
                        generation: generation as u64,
                        program,
                        frequencies,
                    },
                )
            })
            .collect();
        ScriptedSource::new(stages)
    }

    fn push_frame(out: &mut Vec<u8>, ends: &mut Vec<usize>, frame: &Frame) {
        encode_frame_into(out, frame);
        ends.push(out.len());
    }

    fn push_directory(out: &mut Vec<u8>, ends: &mut Vec<usize>, on_air: &OnAir) {
        let json = serde_json::to_string(&on_air.directory).expect("directory serializes");
        push_frame(out, ends, &Frame::Directory(json.into_bytes()));
    }

    /// Reference emitter: every frame is built as a [`Frame`], with index
    /// entries timed by `IndexedChannel::next_item_start` and sorted by
    /// item; each window is put in `(start, channel)` order by a stable
    /// sort, and every frame is encoded by `encode_frame_into`. Returns
    /// the stream's bytes, each frame's end offset and the report.
    fn reference_stream(
        source: &dyn ProgramSource,
        index: Option<IndexParams>,
    ) -> (Vec<u8>, Vec<usize>, EgressReport) {
        let (mut out, mut ends) = (Vec::new(), Vec::new());
        let mut report = EgressReport { windows: WINDOWS, ..EgressReport::default() };
        let mut on_air = build_on_air(source.poll(0).expect("initial"), 0.0, index)
            .expect("goes on air");
        push_directory(&mut out, &mut ends, &on_air);
        report.generations += 1;
        let mut now = 0.0;
        for w in 1..=WINDOWS {
            let Directory { generation, origin, bandwidth, .. } = on_air.directory;
            let program = &on_air.directory.program;
            let window_end = now + on_air.window;
            let mut frames = Vec::new();
            for cursor in &mut on_air.cursors {
                let schedule = &program.channels()[cursor.channel as usize];
                let indexed = index.map(|p| {
                    let m =
                        optimal_segments(schedule.cycle_size(), p.index_size, usize::MAX);
                    IndexedChannel::new(schedule, m, p).expect("index builds")
                });
                loop {
                    let (start, end) = cursor.peek(origin, bandwidth);
                    if end > window_end + 1e-12 {
                        break;
                    }
                    let (entry, _, size) = cursor.layout[cursor.pos];
                    let (channel, duration) = (cursor.channel, size / bandwidth);
                    frames.push(match entry {
                        LayoutEntry::Item { item } => Frame::Data(DataFrame {
                            channel,
                            item: item.index() as u32,
                            generation,
                            start,
                            duration,
                        }),
                        LayoutEntry::Index { copy } => {
                            let ic = indexed.as_ref().expect("index layout implies index");
                            let mut entries: Vec<IndexEntry> = schedule
                                .slots()
                                .iter()
                                .map(|slot| IndexEntry {
                                    item: slot.item.index() as u32,
                                    next_start: ic
                                        .next_item_start(slot.item, end - origin, bandwidth)
                                        .expect("slot item is carried")
                                        + origin,
                                })
                                .collect();
                            entries.sort_by_key(|e| e.item);
                            Frame::Index(IndexFrame {
                                channel,
                                copy: copy as u32,
                                generation,
                                start,
                                duration,
                                entries,
                            })
                        }
                    });
                    cursor.advance();
                }
            }
            let key = |f: &Frame| match f {
                Frame::Data(d) => (d.start, d.channel),
                Frame::Index(ix) => (ix.start, ix.channel),
                _ => unreachable!("windows hold data and index frames"),
            };
            frames.sort_by(|a, b| key(a).partial_cmp(&key(b)).expect("finite starts"));
            for frame in &frames {
                push_frame(&mut out, &mut ends, frame);
            }
            report.frames += frames.len() as u64;
            now = window_end;
            if let Some(next) = source.poll(w) {
                report.truncated += on_air.pending_straddlers(now);
                on_air = build_on_air(next, now, index).expect("goes on air");
                push_directory(&mut out, &mut ends, &on_air);
                report.generations += 1;
            }
        }
        push_frame(&mut out, &mut ends, &Frame::End { horizon: now });
        (out, ends, report)
    }

    /// Runs the egress to one subscriber and returns what it received,
    /// each frame's end offset (read from the envelopes) and the report.
    fn egress_stream(
        source: &dyn ProgramSource,
        index: Option<IndexParams>,
    ) -> (Vec<u8>, Vec<usize>, EgressReport) {
        let net = NetConfig { overflow: OverflowPolicy::Block, ..NetConfig::default() };
        let server = BroadcastServer::bind("127.0.0.1:0", net).expect("bind");
        let client = TcpStream::connect(server.addr()).expect("connect");
        while server.subscriber_count() < 1 {
            std::thread::yield_now();
        }
        let reader = std::thread::spawn(move || {
            let mut bytes = Vec::new();
            (&client).read_to_end(&mut bytes).expect("read the stream");
            bytes
        });
        let config = EgressConfig { index, max_windows: Some(WINDOWS), pace: None };
        let report = run_egress(&server, source, &config, &AtomicBool::new(false))
            .expect("egress runs");
        server.shutdown();
        let bytes = reader.join().expect("reader");
        let mut ends = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let len =
                u32::from_le_bytes(bytes[at + 6..at + 10].try_into().expect("4 bytes"));
            at += HEADER_LEN + len as usize + TRAILER_LEN;
            ends.push(at);
        }
        (bytes, ends, report)
    }

    /// The frame that ends 5e-10 s past a swap is truncated by the
    /// egress, so a client that planned it must retune, not count it:
    /// a client tolerance looser than the egress's tore such frames.
    #[test]
    fn a_frame_ending_just_past_a_swap_is_retuned_not_torn() {
        let specs = [(0.4, 1.0), (0.3, 0.5), (0.3, 0.5 + 5e-10)];
        let db = Database::try_from_specs(specs.map(|(f, z)| ItemSpec::new(f, z)).to_vec())
            .expect("valid items");
        let alloc = Allocation::from_assignment(&db, 2, vec![0, 1, 1]).expect("valid");
        let program = BroadcastProgram::new(&db, &alloc, 1.0).expect("builds");
        // Channel 0 sets the 1 s window; channel 1's second frame ends
        // at 1 + 5e-10, just after the swap at window 1.
        let late = program.channels()[1].slots().last().expect("two slots").item;
        let frequencies: Vec<f64> = db.iter().map(|d| d.frequency()).collect();
        let stage = |generation| {
            let (program, frequencies) = (program.clone(), frequencies.clone());
            (generation, SourceGeneration { generation, program, frequencies })
        };
        let source = ScriptedSource::new(vec![stage(0), stage(1)]);
        let (bytes, _, report) = egress_stream(&source, None);
        assert_eq!(report.truncated, 1, "the late frame must be cut at the swap");
        let log = AirLog::record(&bytes[..]).expect("the stream records");
        assert_eq!(log.worlds[0].valid_until, 1.0);
        let request = GeneratedRequest { arrival: 0.25, items: vec![late] };
        let outcomes =
            measure(&FleetConfig::default().client(0), &log, &[request]).expect("measures");
        let outcome = &outcomes[0];
        assert_eq!((outcome.torn, outcome.retunes), (0, 1), "{outcome:?}");
        assert!(!outcome.incomplete);
    }

    #[test]
    fn window_encoding_matches_the_frame_path_byte_for_byte() {
        for index in [Some(INDEX), None] {
            let (bytes, ends, report) = egress_stream(&source(), index);
            let (ref_bytes, ref_ends, ref_report) = reference_stream(&source(), index);
            assert_eq!(report.generations, 2, "the scripted swap must air");
            assert!(report.truncated > 0, "the swap must cut a straddling frame");
            assert_eq!(ends, ref_ends, "frame boundaries (index {index:?})");
            assert!(bytes == ref_bytes, "wire bytes differ (index {index:?})");
            assert_eq!(report, ref_report, "index {index:?}");
        }
    }
}
