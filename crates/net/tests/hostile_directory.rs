//! A directory frame is peer input: a program inside it that names an
//! item far past its own slot count must fail to decode with an error,
//! never panic or size a table from the hostile id.

use dbcast_model::{Allocation, BroadcastProgram, Database, ItemSpec};
use dbcast_net::{encode_frame_into, AirLog, Directory, Frame};

fn directory_json() -> String {
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
        index: None,
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
