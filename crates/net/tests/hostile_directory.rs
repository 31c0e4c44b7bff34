//! A directory frame is peer input: a program inside it that names an
//! item far past its own slot count must fail to decode with an error,
//! never panic or size a table from the hostile id; so must one that
//! airs an item in two slots, since a program is a partition. Data
//! frames are peer input too: a non-finite start must never reach the
//! recorder's sort. So are a directory's bandwidth and air-index
//! parameters: a bandwidth that is not its program's, or parameters
//! that cannot lay out the program, must fail the recording, never
//! panic the client.

use dbcast_model::{Allocation, BroadcastProgram, Database, ItemSpec, ModelError};
use dbcast_net::{
    encode_data_frame_into, encode_frame_into, AirLog, DataFrame, Directory, Frame,
    IndexParams,
};

fn directory_json() -> String {
    indexed_directory_json(None)
}

fn indexed_directory_json(index: Option<IndexParams>) -> String {
    let db = Database::try_from_specs(vec![
        ItemSpec::new(0.5, 1.0),
        ItemSpec::new(0.3, 2.0),
        ItemSpec::new(0.2, 1.0),
    ])
    .unwrap();
    let alloc = Allocation::from_assignment(&db, 2, vec![0, 1, 1]).unwrap();
    let directory = Directory {
        generation: 0,
        origin: 0.0,
        bandwidth: 1.0,
        frequencies: db.iter().map(|d| d.frequency()).collect(),
        sizes: db.iter().map(|d| d.size()).collect(),
        index,
        program: BroadcastProgram::new(&db, &alloc, 1.0).unwrap(),
    };
    serde_json::to_string(&directory).unwrap()
}

fn stream_of(payload: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_frame_into(&mut bytes, &Frame::Directory(payload.as_bytes().to_vec()));
    encode_frame_into(&mut bytes, &Frame::End { horizon: 10.0 });
    bytes
}

#[test]
fn an_honest_directory_records() {
    let log = AirLog::record(&stream_of(&directory_json())[..]).unwrap();
    assert_eq!(log.worlds.len(), 1);
}

#[test]
fn index_params_that_cannot_lay_out_the_program_fail_the_recording() {
    let honest = IndexParams { index_size: 0.5, header_size: 0.05 };
    let log =
        AirLog::record(&stream_of(&indexed_directory_json(Some(honest)))[..]).unwrap();
    assert!(log.worlds[0].indexed.is_some());
    // A 1e-300 copy vanishes into channel 1's three size units of data.
    for (index_size, header_size) in
        [(0.0, 0.05), (-1.0, 0.05), (1e-300, 0.05), (0.5, -1.0)]
    {
        let params = IndexParams { index_size, header_size };
        let json = indexed_directory_json(Some(params));
        let err = AirLog::record(&stream_of(&json)[..]).unwrap_err();
        assert!(err.contains("index params"), "{params:?}: {err}");
    }
}

#[test]
fn a_program_naming_item_two_to_the_forty_fails_to_decode() {
    let honest = directory_json();
    let hostile = honest.replacen(r#"{"item":2,"#, r#"{"item":1099511627776,"#, 1);
    assert_ne!(honest, hostile, "the program must carry item 2");
    assert!(serde_json::from_str::<Directory>(&hostile).is_err());
    let err = AirLog::record(&stream_of(&hostile)[..]).unwrap_err();
    assert!(err.contains("bad directory payload"), "{err}");
    assert!(err.contains("out of range"), "{err}");
}

#[test]
fn a_program_with_a_non_positive_bandwidth_fails_to_decode() {
    let honest = directory_json();
    let hostile = honest.replacen(r#"}],"bandwidth":1}"#, r#"}],"bandwidth":0}"#, 1);
    assert_ne!(honest, hostile, "the program's bandwidth must be replaced");
    let err = AirLog::record(&stream_of(&hostile)[..]).unwrap_err();
    assert!(err.contains("bandwidth"), "{err}");
}

#[test]
fn a_directory_whose_bandwidth_is_not_its_programs_fails_the_recording() {
    let honest = directory_json();
    // The directory's own field precedes its program's.
    let hostile = honest.replacen(r#""bandwidth":1,"#, r#""bandwidth":0,"#, 1);
    assert_ne!(honest, hostile, "the directory's bandwidth must be replaced");
    let err = AirLog::record(&stream_of(&hostile)[..]).unwrap_err();
    assert!(err.contains("directory bandwidth 0"), "{err}");
}

#[test]
fn a_program_with_a_non_positive_cycle_size_fails_to_decode() {
    let honest = directory_json();
    for cycle_size in ["0", "-1"] {
        // Channel 0 carries item 0 alone, so its cycle size is 1.
        let hostile = honest.replacen(
            r#""cycle_size":1}"#,
            &format!(r#""cycle_size":{cycle_size}}}"#),
            1,
        );
        assert_ne!(honest, hostile, "channel 0's cycle size must be replaced");
        assert!(serde_json::from_str::<Directory>(&hostile).is_err());
        let err = AirLog::record(&stream_of(&hostile)[..]).unwrap_err();
        assert!(err.contains("bad directory payload"), "{cycle_size}: {err}");
        assert!(err.contains("cycle size"), "{cycle_size}: {err}");
    }
}

#[test]
fn a_program_airing_an_item_in_two_slots_fails_to_decode() {
    let honest = directory_json();
    // Channel 0 airs item 0; channel 1 airs items 1 and 2. Renaming
    // item 2 puts item 0 on a second channel, or item 1 twice on one.
    for item in [0, 1] {
        let hostile = honest.replacen(r#"{"item":2,"#, &format!(r#"{{"item":{item},"#), 1);
        assert_ne!(honest, hostile, "the program must carry item 2");
        assert!(serde_json::from_str::<Directory>(&hostile).is_err());
        let err = AirLog::record(&stream_of(&hostile)[..]).unwrap_err();
        assert!(err.contains("bad directory payload"), "item {item}: {err}");
        let placed_twice = ModelError::ItemPlacedTwice { item }.to_string();
        assert!(err.contains(&placed_twice), "item {item}: {err}");
    }
}

#[test]
fn a_program_whose_channel_id_is_out_of_place_fails_to_decode() {
    // One schedule, at position 0, that names channel 7: a client would
    // index its per-channel state past the program's one channel.
    let honest = directory_json();
    let program = r#"{"channels":[{"channel":7,"slots":[{"item":0,"offset":0,"size":1},{"item":1,"offset":1,"size":1}],"cycle_size":2}],"bandwidth":1}"#;
    // The program is the directory's last field.
    let start = honest.find(r#""program":"#).expect("the directory carries a program");
    let hostile = format!(r#"{}"program":{program}}}"#, &honest[..start]);
    assert!(serde_json::from_str::<Directory>(&hostile).is_err(), "{hostile}");
    let err = AirLog::record(&stream_of(&hostile)[..]).unwrap_err();
    assert!(err.contains("bad directory payload"), "{err}");
    let expected = ModelError::ChannelOutOfPlace { position: 0, channel: 7 }.to_string();
    assert!(err.contains(&expected), "{err}");
}

#[test]
fn a_data_frame_with_a_nan_start_counts_as_a_decode_error() {
    let frame =
        |start| DataFrame { channel: 0, item: 0, generation: 0, start, duration: 1.0 };
    let mut bytes = Vec::new();
    encode_frame_into(&mut bytes, &Frame::Directory(directory_json().into_bytes()));
    encode_data_frame_into(&mut bytes, &frame(2.0));
    encode_data_frame_into(&mut bytes, &frame(f64::NAN));
    encode_data_frame_into(&mut bytes, &frame(1.0));
    encode_frame_into(&mut bytes, &Frame::End { horizon: 10.0 });
    let log = AirLog::record(&bytes[..]).unwrap();
    assert_eq!(log.decode_errors, 1);
    let starts: Vec<f64> = log.frames.iter().map(|f| f.start).collect();
    assert_eq!(starts, [1.0, 2.0], "the honest frames record, in start order");
}
