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
//! wire by a fresh [`Directory`] frame. Clients mirror
//! the same rule (a planned fetch only counts if it completes before the
//! directory's `valid_until`), which is what makes hot swaps visible but
//! never *torn* on the wire.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use dbcast_index::{optimal_segments, IndexedChannel, LayoutEntry};
use dbcast_model::BroadcastProgram;
use dbcast_serve::{EpochCell, ProgramGeneration};

use crate::frame::{encode_frame_into, DataFrame, Frame, IndexEntry, IndexFrame};
use crate::world::{Directory, IndexParams};
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

/// The streaming state for one generation.
struct OnAir {
    source: SourceGeneration,
    directory: Directory,
    /// Virtual time of the generation's phase 0.
    origin: f64,
    /// Window length: one cycle of the fastest non-empty channel.
    window: f64,
    cursors: Vec<ChannelCursor>,
    /// Per-channel indexed models (index mode only), for index entries.
    indexed: Vec<Option<IndexedChannel>>,
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
    let program = &source.program;
    let bandwidth = program.bandwidth();
    let mut cursors = Vec::new();
    let mut indexed = Vec::with_capacity(program.channels().len());
    let mut fastest = f64::INFINITY;
    for schedule in program.channels() {
        if schedule.is_empty() {
            indexed.push(None);
            continue;
        }
        let (layout, cycle_size, ic) = match index {
            Some(params) => {
                let m = optimal_segments(schedule.cycle_size(), params.index_size);
                let ic =
                    IndexedChannel::new(schedule, m, params.index_size, params.header_size)
                        .map_err(|e| format!("index build failed: {e}"))?;
                (ic.layout().collect::<Vec<_>>(), ic.cycle_size(), Some(ic))
            }
            None => (
                schedule
                    .slots()
                    .iter()
                    .map(|s| (LayoutEntry::Item { item: s.item }, s.offset, s.size))
                    .collect::<Vec<_>>(),
                schedule.cycle_size(),
                None,
            ),
        };
        fastest = fastest.min(cycle_size / bandwidth);
        cursors.push(ChannelCursor {
            channel: schedule.channel().index() as u32,
            layout,
            cycle_size,
            cycle: 0,
            pos: 0,
        });
        indexed.push(ic);
    }
    if cursors.is_empty() {
        return Err("program has no non-empty channel".into());
    }
    let items = source.frequencies.len();
    let directory = Directory {
        generation: source.generation,
        origin,
        bandwidth,
        frequencies: source.frequencies.clone(),
        sizes: derive_sizes(program, items),
        index,
        program: program.clone(),
    };
    Ok(OnAir { source, directory, origin, window: fastest, cursors, indexed })
}

impl OnAir {
    /// Emits every frame finishing by `window_end` into `frames`.
    /// Frames straddling `window_end` stay pending in their cursor.
    fn emit_until(&mut self, window_end: f64, frames: &mut Vec<Frame>) {
        let bandwidth = self.directory.bandwidth;
        let generation = self.source.generation;
        let mark = frames.len();
        for cursor in &mut self.cursors {
            loop {
                let (start, end) = cursor.peek(self.origin, bandwidth);
                if end > window_end + 1e-12 {
                    break;
                }
                let (entry, _, size) = cursor.layout[cursor.pos];
                match entry {
                    LayoutEntry::Item { item } => frames.push(Frame::Data(DataFrame {
                        channel: cursor.channel,
                        item: item.index() as u32,
                        generation,
                        start,
                        duration: size / bandwidth,
                    })),
                    LayoutEntry::Index { copy } => {
                        let ic = self.indexed[cursor.channel as usize]
                            .as_ref()
                            .expect("index layout implies indexed channel");
                        let local_end = end - self.origin;
                        let mut entries: Vec<IndexEntry> = self.source.program.channels()
                            [cursor.channel as usize]
                            .slots()
                            .iter()
                            .map(|slot| IndexEntry {
                                item: slot.item.index() as u32,
                                next_start: ic
                                    .next_item_start(slot.item, local_end, bandwidth)
                                    .expect("slot item is carried")
                                    + self.origin,
                            })
                            .collect();
                        entries.sort_by_key(|e| e.item);
                        frames.push(Frame::Index(IndexFrame {
                            channel: cursor.channel,
                            copy: copy as u32,
                            generation,
                            start,
                            duration: size / bandwidth,
                            entries,
                        }));
                    }
                }
                cursor.advance();
            }
        }
        // Deterministic on-air order across channels.
        frames[mark..].sort_by(|a, b| {
            let (sa, ca) = frame_order_key(a);
            let (sb, cb) = frame_order_key(b);
            sa.partial_cmp(&sb).expect("finite starts").then(ca.cmp(&cb))
        });
    }

    /// Counts frames already started before `boundary` but unfinished:
    /// exactly the straddlers a swap at `boundary` truncates.
    fn pending_straddlers(&self, boundary: f64) -> u64 {
        let bandwidth = self.directory.bandwidth;
        self.cursors
            .iter()
            .filter(|c| {
                let (start, end) = c.peek(self.origin, bandwidth);
                start < boundary - 1e-12 && end > boundary + 1e-12
            })
            .count() as u64
    }
}

fn frame_order_key(frame: &Frame) -> (f64, u32) {
    match frame {
        Frame::Data(d) => (d.start, d.channel),
        Frame::Index(ix) => (ix.start, ix.channel),
        Frame::Directory(_) => (f64::NEG_INFINITY, 0),
        Frame::End { horizon } => (*horizon, u32::MAX),
        // Telemetry never travels the downlink; sort it last if it did.
        Frame::Telemetry(_) => (f64::INFINITY, u32::MAX),
    }
}

/// Runs the egress loop until `stop` is raised or `max_windows` elapse,
/// then broadcasts an [`Frame::End`] carrying the covered horizon.
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

    let mut frames: Vec<Frame> = Vec::new();
    let mut wire = Vec::with_capacity(4096);
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
        frames.clear();
        on_air.emit_until(window_end, &mut frames);
        for frame in &frames {
            wire.clear();
            encode_frame_into(&mut wire, frame);
            server.broadcast(Arc::new(wire.clone()));
            report.frames += 1;
        }
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
    let mut end = Vec::new();
    encode_frame_into(&mut end, &Frame::End { horizon: now });
    server.broadcast(Arc::new(end));
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
