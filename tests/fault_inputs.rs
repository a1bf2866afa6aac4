//! Fault-input corpus: truncated, bit-flipped, and duplicated trace files
//! plus corrupted pool images. The contract under test is the hardened
//! ingest surface: no corrupted input ever panics a parser, failures carry
//! structured context (line and byte offsets for trace logs), and the
//! diagnostic for a given corrupted input is stable across re-parses.

use pmem_sim::{CrashImage, FenceKind, FlushKind, Machine};
use pmfault::{bitflip_bytes, bitflip_text, duplicate_line, truncate_text};
use pmtrace::{log, Trace, TraceError};
use proptest::prelude::*;

const SRC: &str = r#"
    fn main() {
        var p: ptr = pmem_map(5, 4096);
        store8(p, 0, 7);
        clwb(p);
        sfence();
        store8(p, 64, 9);
        crashpoint();
        store8(p, 128, 11);
    }
    fn recover() -> int {
        var p: ptr = pmem_map(5, 4096);
        if (load8(p, 0) != 7) { return 1; }
        return 0;
    }
"#;

/// A real trace with every record family: register, store, flush, fence,
/// crash point, program end.
fn sample_trace() -> Trace {
    let m = pmlang::compile_one("corpus.pmc", SRC).expect("corpus compiles");
    pmcheck::run_and_check(&m, "main", pmvm::VmOptions::default())
        .expect("corpus runs")
        .trace
}

fn sample_image() -> CrashImage {
    let mut m = Machine::default();
    let p = m.map_pool(5, 4096).expect("pool maps");
    m.store_int(p, 8, 7).expect("store lands");
    m.flush(FlushKind::Clwb, p).expect("flush issues");
    m.fence(FenceKind::Sfence);
    m.crash_image()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a trace log anywhere yields either a shorter parse or a
    /// structured error naming the line — never a panic — and re-parsing
    /// the same bytes reproduces the same diagnostic.
    #[test]
    fn truncated_trace_logs_yield_stable_structured_errors(seed in any::<u64>()) {
        let text = log::to_log(&sample_trace());
        let cut = truncate_text(&text, seed);
        let first = log::from_log(&cut);
        let second = log::from_log(&cut);
        match (&first, &second) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.to_string(), b.to_string());
                prop_assert!(
                    a.to_string().contains("trace log line"),
                    "error must name the line: {}",
                    a
                );
                prop_assert!(
                    a.to_string().contains("byte"),
                    "error must carry a byte offset: {}",
                    a
                );
            }
            _ => prop_assert!(false, "parse must be deterministic"),
        }
    }

    /// A printable-byte flip anywhere in the log parses or fails with
    /// line/byte context, deterministically.
    #[test]
    fn bitflipped_trace_logs_never_panic(seed in any::<u64>()) {
        let text = log::to_log(&sample_trace());
        let flipped = bitflip_text(&text, seed);
        match log::from_log(&flipped) {
            Ok(t) => prop_assert!(t.len() <= sample_trace().len()),
            Err(e) => {
                prop_assert!(e.to_string().contains("trace log line"), "{e}");
                let again = log::from_log(&flipped).expect_err("deterministic");
                prop_assert_eq!(e.to_string(), again.to_string());
            }
        }
    }

    /// Raw single-bit corruption (possibly producing invalid UTF-8, routed
    /// through lossy decoding like a damaged file read) never panics.
    #[test]
    fn raw_bit_corruption_never_panics(seed in any::<u64>()) {
        let data = bitflip_bytes(log::to_log(&sample_trace()).as_bytes(), seed);
        let text = String::from_utf8_lossy(&data);
        let _ = log::from_log(&text);
    }

    /// A duplicated record parses (one extra event) and is caught by
    /// `Trace::validate` as a structured warning, stably.
    #[test]
    fn duplicated_records_are_flagged_not_fatal(seed in any::<u64>()) {
        let original = sample_trace();
        let text = log::to_log(&original);
        let dup = duplicate_line(&text, seed);
        let parsed = log::from_log(&dup).expect("a duplicated line still parses");
        prop_assert_eq!(parsed.len(), original.len() + 1);
        let w1 = parsed.validate();
        let w2 = parsed.validate();
        prop_assert_eq!(&w1, &w2, "validation is deterministic");
        // Duplicating anything but the crash point is flagged.
        for w in &w1 {
            prop_assert!(!w.to_string().is_empty());
        }
    }

    /// Truncated trace JSON maps into the structured error taxonomy.
    #[test]
    fn truncated_trace_json_is_structured(cut in any::<usize>()) {
        let json = sample_trace().to_json().expect("serializes");
        let end = (0..=cut % (json.len() + 1)).rev().find(|&i| json.is_char_boundary(i)).unwrap_or(0);
        match Trace::from_json(&json[..end]) {
            Ok(t) => prop_assert_eq!(t, sample_trace()),
            Err(TraceError::Json { message }) => prop_assert!(!message.is_empty()),
            Err(other) => prop_assert!(false, "unexpected taxonomy branch: {}", other),
        }
    }

    /// A corrupted serialized pool image either fails to deserialize with
    /// a structured error or deserializes into an image that recovery can
    /// be booted on without panicking.
    #[test]
    fn corrupted_pool_images_never_panic(seed in any::<u64>()) {
        let json = serde_json::to_string(&sample_image()).expect("image serializes");
        let corrupted = bitflip_text(&json, seed);
        match serde_json::from_str::<CrashImage>(&corrupted) {
            Err(e) => prop_assert!(!e.to_string().is_empty()),
            Ok(img) => {
                let m = pmlang::compile_one("corpus.pmc", SRC).expect("compiles");
                let opts = pmvm::VmOptions::default().with_media(img.into_media());
                match pmvm::Vm::new(opts).run(&m, "recover") {
                    Ok(res) => prop_assert!(res.return_value.is_some()),
                    Err(e) => prop_assert!(!e.to_string().is_empty()),
                }
            }
        }
    }
}

/// The corpus exercises real parse failures, not only benign corruptions:
/// cutting mid-record must produce at least one structured error across a
/// seed sweep.
#[test]
fn corpus_contains_real_parse_failures() {
    let text = log::to_log(&sample_trace());
    let mut failures = 0;
    for seed in 0..64u64 {
        if log::from_log(&truncate_text(&text, seed)).is_err() {
            failures += 1;
        }
        if log::from_log(&bitflip_text(&text, seed)).is_err() {
            failures += 1;
        }
    }
    assert!(failures > 0, "the sweep never produced a parse failure");
}
