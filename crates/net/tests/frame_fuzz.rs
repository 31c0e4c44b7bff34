//! Fuzz-style property tests of the wire codec: arbitrary chunking
//! never loses a frame, and arbitrary corruption or truncation never
//! panics the decoder — it reports typed errors and resynchronises.

use dbcast_net::{
    encode_frame_into, DataFrame, Frame, FrameDecoder, IndexEntry, IndexFrame,
};
use dbcast_serve::{FleetDigest, GenerationSlice};
use proptest::prelude::*;

/// Builds a telemetry digest honestly — histogram cells populated via
/// `record` so the sparse encoding stays canonical.
fn build_telemetry(channel: u32, item: u32, generation: u64, a: f64, b: f64) -> Frame {
    let mut t = FleetDigest::ack(channel, item, generation);
    t.slice = item.is_multiple_of(2).then_some(GenerationSlice {
        generation,
        origin: a,
        requests: u64::from(item % 9),
        mean_access: a / 3.0,
        mean_tuning: b / 5.0,
        predicted_access: a / 2.0,
    });
    t.requests = u64::from(item);
    t.completed = u64::from(item / 2);
    t.cache_hits = u64::from(item % 3);
    t.conflicts = u64::from(item % 4);
    t.retunes = u64::from(item % 5);
    t.torn = u64::from(item % 2);
    for i in 0..(item % 6) {
        t.access.record((a as u64).wrapping_mul(u64::from(i + 1)));
        t.tuning.record((b as u64).wrapping_add(u64::from(i)));
    }
    t.coverage = (0..(item % 4)).map(|c| (c, u64::from(c) * 7 + generation)).collect();
    Frame::Telemetry(Box::new(t))
}

/// Builds a mixed frame sequence from primitive draws.
fn build_frames(specs: &[(u8, u32, u32, u64, f64, f64)]) -> Vec<Frame> {
    specs
        .iter()
        .map(|&(kind, channel, item, generation, a, b)| match kind % 5 {
            0 => {
                Frame::Data(DataFrame { channel, item, generation, start: a, duration: b })
            }
            1 => Frame::Index(IndexFrame {
                channel,
                copy: item % 7,
                generation,
                start: a,
                duration: b,
                entries: (0..(item % 5))
                    .map(|i| IndexEntry { item: i, next_start: a + f64::from(i) })
                    .collect(),
            }),
            2 => Frame::Directory(
                format!("{{\"generation\":{generation},\"channel\":{channel}}}")
                    .into_bytes(),
            ),
            3 => build_telemetry(channel, item, generation, a, b),
            _ => Frame::End { horizon: a },
        })
        .collect()
}

fn encode_all(frames: &[Frame]) -> Vec<u8> {
    let mut wire = Vec::new();
    for f in frames {
        encode_frame_into(&mut wire, f);
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever the read-chunk boundaries, every encoded frame decodes
    /// back, in order, with no residual bytes.
    #[test]
    fn round_trips_across_arbitrary_splits(
        specs in prop::collection::vec(
            (0u8..8, 0u32..16, 0u32..32, 0u64..4, 0.0f64..1e6, 0.0f64..1e3),
            1..24,
        ),
        cuts in prop::collection::vec(1usize..64, 0..32),
    ) {
        let frames = build_frames(&specs);
        let wire = encode_all(&frames);
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let mut pos = 0usize;
        let mut cut_iter = cuts.iter().copied().chain(std::iter::repeat(7)).cycle();
        while pos < wire.len() {
            let step = cut_iter.next().unwrap().min(wire.len() - pos);
            decoder.push(&wire[pos..pos + step]);
            pos += step;
            loop {
                match decoder.next_frame() {
                    Ok(Some(f)) => got.push(f),
                    Ok(None) => break,
                    Err(e) => prop_assert!(false, "clean stream errored: {e}"),
                }
            }
        }
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(decoder.pending(), 0);
    }

    /// Arbitrary byte flips and truncation never panic the decoder, and
    /// decoding always terminates with bounded buffering.
    #[test]
    fn corruption_never_panics(
        specs in prop::collection::vec(
            (0u8..8, 0u32..16, 0u32..32, 0u64..4, 0.0f64..1e6, 0.0f64..1e3),
            1..16,
        ),
        flips in prop::collection::vec((0usize..4096, 0u8..255), 0..24),
        truncate_to in 0usize..4096,
    ) {
        let frames = build_frames(&specs);
        let mut wire = encode_all(&frames);
        for &(pos, xor) in &flips {
            if !wire.is_empty() {
                let p = pos % wire.len();
                wire[p] ^= xor.wrapping_add(1);
            }
        }
        wire.truncate(truncate_to.min(wire.len()).max(1));
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        // Every call consumes at least one byte on error or returns a
        // frame/None, so this loop is bounded by the wire length plus
        // the frame count.
        let mut spins = 0usize;
        while !matches!(decoder.next_frame(), Ok(None)) {
            spins += 1;
            prop_assert!(
                spins <= wire.len() + frames.len() + 8,
                "decoder failed to make progress"
            );
        }
        prop_assert!(decoder.pending() <= wire.len());
    }

    /// A frame re-encoded from a decode is byte-identical: the format
    /// has a single canonical encoding.
    #[test]
    fn encoding_is_canonical(
        spec in (0u8..8, 0u32..16, 0u32..32, 0u64..4, 0.0f64..1e6, 0.0f64..1e3),
    ) {
        let frames = build_frames(std::slice::from_ref(&spec));
        let wire = encode_all(&frames);
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        let decoded = decoder.next_frame().unwrap().unwrap();
        let rewire = encode_all(std::slice::from_ref(&decoded));
        prop_assert_eq!(wire, rewire);
    }
}
