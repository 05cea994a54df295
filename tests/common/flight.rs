//! Reading flight-recorder lines (docs/observability.md) in tests: the
//! CLI and serve suites check their records against the same field list.

use serde::Content;
use std::path::Path;

/// The top-level fields of a flight record, in the order it carries them.
pub const RECORD_FIELDS: [&str; 10] = [
    "kind",
    "outcome",
    "query",
    "elapsed_us",
    "trace_id",
    "governor_charged_bytes",
    "governor_peak_bytes",
    "dropped_spans",
    "trace",
    "nodes",
];

/// Every line of a recorder sink, parsed, after checking that it is a
/// flight record with exactly [`RECORD_FIELDS`].
pub fn read_records(sink: &Path) -> Vec<Content> {
    let text = std::fs::read_to_string(sink).unwrap_or_else(|e| panic!("{}: {e}", sink.display()));
    let records: Vec<Content> =
        text.lines().map(|line| serde_json::from_str(line).expect("a JSON line")).collect();
    for record in &records {
        let Content::Map(entries) = record else { panic!("expected an object, got {record:?}") };
        let names: Vec<&str> = entries.iter().map(|(key, _)| text_of(key)).collect();
        assert_eq!(names, RECORD_FIELDS);
        assert_eq!(text_of(get(record, "kind")), "nggc_flight_record");
    }
    records
}

/// Field `key` of a JSON object.
pub fn get<'a>(object: &'a Content, key: &str) -> &'a Content {
    let Content::Map(entries) = object else { panic!("expected an object for {key}") };
    let entry = entries.iter().find(|(k, _)| matches!(k, Content::Str(s) if s == key));
    &entry.unwrap_or_else(|| panic!("missing key {key}")).1
}

/// The elements of a JSON array.
pub fn items(array: &Content) -> &[Content] {
    let Content::Seq(items) = array else { panic!("expected an array, got {array:?}") };
    items
}

/// A JSON string.
pub fn text_of(value: &Content) -> &str {
    let Content::Str(text) = value else { panic!("expected a string, got {value:?}") };
    text
}

/// A JSON number that fits `u64`.
pub fn number(value: &Content) -> u64 {
    match value {
        Content::U64(n) => *n,
        Content::I64(n) => *n as u64,
        other => panic!("expected a number, got {other:?}"),
    }
}
