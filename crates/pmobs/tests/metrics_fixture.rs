//! Byte-level pins for the `hippo.metrics.v1` codec: a checked-in fixture
//! must parse and re-emit unchanged, so a change of JSON codec cannot move a
//! metrics file by a byte, and the checked-in bench baselines (written in
//! more than one layout) must parse.

use pmobs::{Hist, Snapshot, SpanRec};
use std::path::Path;

/// The snapshot `tests/fixtures/metrics_v1.json` holds: escaped names,
/// `-0.0`, `u64::MAX`, floats that print in exponent form, a root and a
/// nested span, and a histogram.
fn fixture_snapshot() -> Snapshot {
    let span = |id, parent, name: &str, start_us, dur_us| SpanRec {
        id,
        parent,
        name: name.into(),
        start_us,
        dur_us,
    };
    let mut snap = Snapshot {
        spans: vec![
            span(0, None, "repair.iteration", 3, 4567),
            span(1, Some(0), "vm.run \"quoted\"", 10, 0),
        ],
        ..Snapshot::default()
    };
    for (name, c) in [
        ("trace.ingest.events", u64::MAX),
        ("vm.instructions", 123_456),
        ("tab\there\\slash\ncontrol\u{1}emoji\u{1F600}", 0),
    ] {
        snap.counters.insert(name.into(), c);
    }
    for (name, g) in [
        ("bench.negative_zero", -0.0),
        ("bench.tiny", 1e-7),
        ("bench.avogadro", 6.02e23),
        ("bench.pass_rate", 1.0),
        ("bench.wall_ms", 1234.5678),
        ("bench.negative", -3.25),
    ] {
        snap.gauges.insert(name.into(), g);
    }
    let mut h = Hist::default();
    for v in [0.0, 0.5, 1.0, 3.5, 1e12, 6.02e23] {
        h.observe(v);
    }
    snap.histograms.insert("explore.oracle_boot_us".into(), h);
    snap
}

#[test]
fn fixture_parses_and_reemits_byte_identically() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/metrics_v1.json");
    let text = std::fs::read_to_string(path).unwrap();
    let back = Snapshot::from_json(&text).expect("fixture parses");
    assert_eq!(back, fixture_snapshot());
    // `-0.0 == 0.0`, so equality alone would not see a lost sign.
    assert!(back.gauges["bench.negative_zero"].is_sign_negative());
    assert_eq!(back.to_json(), text);
    assert_eq!(fixture_snapshot().to_json(), text);
}

#[test]
fn bench_baselines_parse_and_roundtrip() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/baselines");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("baselines directory") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            let snap = Snapshot::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            assert_eq!(
                Snapshot::from_json(&snap.to_json()).unwrap(),
                snap,
                "{path:?}"
            );
            seen += 1;
        }
    }
    assert!(seen >= 5, "only {seen} baselines under {dir:?}");
}
