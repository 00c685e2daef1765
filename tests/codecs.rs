//! One property harness over every registered record format.
//!
//! Each format registers its encoder, its decoder and seed values, and
//! the harness checks three properties on it:
//!
//! * **round trip** — every seed decodes back from its encoding;
//! * **canonical re-encode** — under seeded byte mutations (flip, insert,
//!   delete, truncate) of every encoding, a machine-written format either
//!   rejects the mutant or decodes it to a value whose encoding is exactly
//!   the mutant's bytes, so a corrupted record never parses as something
//!   else;
//! * **no panic** — on every mutant and on random input.
//!
//! Human-edited text (suites, histories, walk sequences, value literals,
//! t-specs) keeps the forgiving language it has always accepted —
//! comments, blank lines, whitespace — so it gets round trip and no-panic
//! only. Each format also lists inputs it must reject.
//!
//! A second test pins on-disk compatibility: the committed fixtures under
//! `tests/golden/records/` decode and re-encode byte-identically.

use concat::components::{
    bounded_stack_spec, coblist_spec, product_spec, sortable_spec, typed_spec,
};
use concat::core::WalkRecord;
use concat::driver::{
    generate_walk, load_history, load_sequence, load_suite, save_history, save_sequence,
    save_suite, DriverGenerator, FailureKind, TestSuite, TestingHistory, WalkConfig,
};
use concat::mutation::{
    campaign_header, decode_feature, decode_verdict, encode_feature, encode_shard_indices,
    encode_verdict, parse_campaign_header, parse_shard_indices, FeatureFingerprint, KillReason,
    MutantStatus, QuarantineReason, ShardFrame,
};
use concat::runtime::{
    encode_frame, parse_value_literal, scan_journal, CorpusEntry, Fields, FrameDecoder, Journal,
    ObjRef, Rng, Value,
};
use concat::tspec::{parse_tspec, print_tspec, ClassSpec};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

#[path = "../examples/mutation_demo/manifest.rs"]
mod manifest;
use manifest::ManifestEntry;

/// Seeded byte mutations per seed encoding.
const MUTATIONS: usize = 200;
/// Random inputs per format.
const RANDOM_INPUTS: usize = 200;

/// A registered format.
struct Format<T, E, D> {
    name: &'static str,
    seeds: Vec<T>,
    encode: E,
    decode: D,
    /// Machine-written: a decode that succeeds must re-encode to exactly
    /// the bytes it read.
    canonical: bool,
    /// Inputs that must not decode.
    rejects: &'static [&'static str],
}

/// Bytes records are made of, weighted toward the ones codecs care
/// about: digits, signs, separators, hex letters in both cases, escapes.
const ALPHABET: &[u8] = b"0123456789+- \t\n,:;[]\"\\&abcdefABCDEFgimnprstuvwxyz_~.#";

fn random_byte(rng: &mut Rng) -> u8 {
    if rng.index(4) == 0 {
        rng.int_in(0, 255) as u8
    } else {
        ALPHABET[rng.index(ALPHABET.len())]
    }
}

/// One seeded mutation of `bytes`: a bit flip, an inserted byte, a
/// deleted byte or a truncation.
fn mutate(rng: &mut Rng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = |rng: &mut Rng, len: usize| rng.index(len.max(1));
    match rng.index(4) {
        0 if !out.is_empty() => {
            let i = at(rng, out.len());
            out[i] ^= 1 << rng.index(8);
        }
        1 => {
            let i = at(rng, out.len() + 1).min(out.len());
            out.insert(i, random_byte(rng));
        }
        2 if !out.is_empty() => {
            out.remove(at(rng, out.len()));
        }
        _ => out.truncate(at(rng, out.len())),
    }
    out
}

/// Runs the harness on one format and prints how many inputs it tried.
fn check<T, E, D>(format: Format<T, E, D>)
where
    T: PartialEq + Debug,
    E: Fn(&T) -> String,
    D: Fn(&str) -> Option<T>,
{
    let name = format.name;
    let decode = |input: &str| {
        catch_unwind(AssertUnwindSafe(|| (format.decode)(input)))
            .unwrap_or_else(|_| panic!("{name}: decoder panicked on {input:?}"))
    };
    let canonical = |input: &str| {
        if let Some(value) = decode(input) {
            if format.canonical {
                assert_eq!(
                    (format.encode)(&value),
                    input,
                    "{name}: {input:?} decoded to {value:?}, which encodes differently"
                );
            }
        }
    };
    assert!(!format.seeds.is_empty(), "{name}: no seeds");
    let mut rng = Rng::seed_from_u64(0xC0DEC);
    let mut mutants = 0usize;
    for seed in &format.seeds {
        let encoded = (format.encode)(seed);
        assert_eq!(
            decode(&encoded).as_ref(),
            Some(seed),
            "{name}: round trip of {encoded:?}"
        );
        for _ in 0..MUTATIONS {
            if let Ok(input) = String::from_utf8(mutate(&mut rng, encoded.as_bytes())) {
                canonical(&input);
                mutants += 1;
            }
        }
    }
    for _ in 0..RANDOM_INPUTS {
        let len = rng.index(48);
        let bytes: Vec<u8> = (0..len).map(|_| random_byte(&mut rng)).collect();
        canonical(&String::from_utf8_lossy(&bytes));
    }
    for reject in format.rejects {
        assert_eq!(decode(reject), None, "{name}: {reject:?} must not decode");
    }
    println!(
        "{name}: {} seeds, {mutants} mutants, {RANDOM_INPUTS} random inputs, {} rejects",
        format.seeds.len(),
        format.rejects.len()
    );
}

fn all_statuses() -> Vec<MutantStatus> {
    let mut statuses = vec![
        MutantStatus::Killed {
            reason: KillReason::Crash,
            by_case: 3,
        },
        MutantStatus::Killed {
            reason: KillReason::Assertion,
            by_case: 0,
        },
        MutantStatus::Killed {
            reason: KillReason::OutputDiff,
            by_case: 17,
        },
        MutantStatus::Survived,
        MutantStatus::PresumedEquivalent,
    ];
    statuses.extend(
        [
            QuarantineReason::Timeout,
            QuarantineReason::Budget,
            QuarantineReason::RepeatedCrash,
            QuarantineReason::WorkerCrash,
            QuarantineReason::ShardAbort,
            QuarantineReason::ShardSignal,
            QuarantineReason::ShardUnresponsive,
        ]
        .map(|reason| MutantStatus::Quarantined { reason }),
    );
    statuses
}

fn specs() -> Vec<ClassSpec> {
    vec![
        bounded_stack_spec(),
        coblist_spec(),
        sortable_spec(),
        product_spec(),
        typed_spec(),
    ]
}

fn suites() -> Vec<TestSuite> {
    specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            DriverGenerator::with_seed(2001 + i as u64)
                .generate(spec)
                .expect("shipped specs generate")
        })
        .collect()
}

fn walks() -> Vec<concat::driver::WalkSequence> {
    let config = WalkConfig::new(7).with_calls_per_walk(24).with_objects(2);
    specs()
        .iter()
        .flat_map(|spec| (0..3).map(move |i| generate_walk(spec, &config, config.walk_seed(i))))
        .collect()
}

#[test]
fn verdict_records() {
    check(Format {
        name: "verdict",
        seeds: all_statuses()
            .into_iter()
            .zip([
                0,
                1,
                9,
                10,
                99,
                100,
                4096,
                65_535,
                7,
                12,
                123_456_789,
                usize::MAX,
            ])
            .map(|(status, id)| (id, status))
            .collect(),
        encode: |(id, status): &(usize, MutantStatus)| encode_verdict(*id, status),
        decode: decode_verdict,
        canonical: true,
        rejects: &[
            "",
            "verdict",
            "verdict x survived",
            "verdict 1",
            "verdict 1 killed",
            "verdict 1 killed crash",
            "verdict 1 killed crash x",
            "verdict 1 killed slowly 2",
            "verdict 1 quarantined",
            "verdict 1 quarantined vibes",
            "verdict 1 survived extra",
            "campaign deadbeef",
            "verdict +3 survived",
            "verdict 03 survived",
            "verdict 3 killed crash 07",
            "verdict 3  survived",
            "verdict 3 survived ",
            "verdict 18446744073709551616 survived",
        ],
    });
}

#[test]
fn feature_records() {
    check(Format {
        name: "feature",
        seeds: vec![
            FeatureFingerprint {
                method: "Scale".into(),
                fingerprint: 0xDEAD_BEEF,
                mutant_ids: vec![0, 1, 5],
            },
            FeatureFingerprint {
                method: "~CObList".into(),
                fingerprint: 0,
                mutant_ids: vec![],
            },
            FeatureFingerprint {
                method: "AddHead".into(),
                fingerprint: 0x0a1b_2c3d,
                mutant_ids: (16..40).collect(),
            },
        ],
        encode: encode_feature,
        decode: decode_feature,
        canonical: true,
        rejects: &[
            "",
            "feature",
            "feature Scale",
            "feature Scale nothex 1",
            "feature Scale 00ff00ff one",
            "feature Scale 00FF00FF 1",
            "feature Scale 00ff00ff +1",
            "feature Scale 00ff00ff 01",
            "feature Scale 00ff00ff 1 ",
            "verdict 1 survived",
        ],
    });
}

#[test]
fn campaign_headers() {
    check(Format {
        name: "campaign header",
        seeds: vec![0, 1, 0x8319_a4b8, u32::MAX],
        encode: |fp: &u32| campaign_header(*fp),
        decode: parse_campaign_header,
        canonical: true,
        rejects: &[
            "campaign",
            "campaign deadbee",
            "campaign DEADBEEF",
            "campaign +eadbeef",
            "campaign deadbeef ",
            "campaign  deadbeef",
        ],
    });
}

#[test]
fn walk_records() {
    let failures = [
        FailureKind::Invariant {
            message: "cached\tlen\ndrifted \\ badly".to_owned(),
        },
        FailureKind::SpecClause {
            id: "i1".to_owned(),
        },
        FailureKind::Panic {
            message: "boom: -".to_owned(),
        },
        FailureKind::Invariant {
            message: String::new(),
        },
    ];
    let mut seeds: Vec<WalkRecord> = walks()
        .into_iter()
        .zip(failures.iter().cycle())
        .enumerate()
        .map(|(index, (seq, failure))| WalkRecord {
            index,
            calls: seq.call_count() as u64,
            checks: 3 * index as u64,
            breaker: Some((failure.clone(), seq)),
        })
        .collect();
    seeds.push(WalkRecord {
        index: 40,
        calls: 120,
        checks: 411,
        breaker: None,
    });
    for seed in &seeds {
        assert!(
            !seed.encode().contains('\n'),
            "journal records are one line"
        );
    }
    check(Format {
        name: "walk record",
        seeds,
        encode: WalkRecord::encode,
        decode: WalkRecord::decode,
        canonical: true,
        rejects: &[
            "walk\tx\t1\t2\t-\t-",
            "walk\t0\t1\t2\tweird:oops\t-",
            "walk\t0\t1\t2\t-",
            "walk\t0\t1\t2\tclause:i1\t-",
            "mutant\t0\tkilled",
            "walk\t00\t1\t2\t-\t-",
            "walk\t0\t+1\t2\t-\t-",
            "walk\t0\t1\t2\t-\t-\t",
            "walk\t0\t1\t2\tclause:bad\\escape\twalk C\\nseed 1\\nend\\n",
            // A sequence `load_sequence` accepts but `save_sequence` would
            // not write: not a canonical record.
            "walk\t0\t1\t2\tclause:i1\twalk C\\n\\nseed 1\\nend\\n",
        ],
    });
}

#[test]
fn corpus_manifest_entries() {
    check(Format {
        name: "corpus manifest entry",
        seeds: vec![
            CorpusEntry {
                hash: 0x201d_e9be,
                fingerprint: 0xc039_5bf9,
                class: "CSortableObList.invariant".into(),
            },
            CorpusEntry {
                hash: 0,
                fingerprint: u32::MAX,
                class: "Stack".into(),
            },
        ],
        encode: CorpusEntry::encode,
        decode: CorpusEntry::decode,
        canonical: true,
        rejects: &[
            "case nothex 00000000 Acc",
            "not-a-case-record",
            "case 0000000A 00000000 Acc",
            "case 00000001 00000002 ",
            "case 00000001 00000002",
            "case 1 00000002 Acc",
        ],
    });
}

/// A frame line on the wire decodes when the frame verifies and its
/// payload is one of ours.
fn decode_frame_line(line: &str) -> Option<ShardFrame> {
    let mut decoder = FrameDecoder::new();
    match decoder.push(line.as_bytes()).as_slice() {
        [payload] if decoder.pending_bytes() == 0 && decoder.dropped() == 0 => {
            ShardFrame::decode(payload)
        }
        _ => None,
    }
}

#[test]
fn shard_frames() {
    let mut seeds = vec![
        ShardFrame::Hello(0x0a1b_2c3d),
        ShardFrame::Begin(0),
        ShardFrame::Begin(4711),
        ShardFrame::Done,
    ];
    seeds.extend(
        all_statuses()
            .into_iter()
            .enumerate()
            .map(|(i, status)| ShardFrame::Verdict(i * 7, status)),
    );
    check(Format {
        name: "shard frame",
        seeds,
        encode: |frame: &ShardFrame| encode_frame(&frame.encode()).expect("single-line payload"),
        decode: decode_frame_line,
        canonical: true,
        rejects: &[
            "running 2 tests\n",
            "0000000A e5a48d38 shard-done\n",
            "0000000a E5A48D38 shard-done\n",
            "0000000a e5a48d38 shard-done",
            "0000000e 0af1f282 shard-begin 01\n",
        ],
    });
}

#[test]
fn shard_index_lists() {
    check(Format {
        name: "CONCAT_SHARD_INDICES",
        seeds: vec![vec![], vec![0], vec![3, 0, 2], vec![63, 1, 7, 10, 20]],
        encode: |indices: &Vec<usize>| encode_shard_indices(indices),
        decode: |text: &str| parse_shard_indices(text, 64),
        canonical: true,
        rejects: &[
            "x", "1,x", "1,,2", "1,", ",1", "+1", "-1", " 1", "01", "64", "1,2,1",
        ],
    });
}

#[test]
fn server_manifest_lines() {
    let entry = |name: &str, subject: &str, priority, budget, phase: &str| ManifestEntry {
        name: name.into(),
        subject: subject.into(),
        priority,
        budget,
        phase: phase.into(),
    };
    check(Format {
        name: "server.manifest line",
        seeds: vec![
            entry("d1", "delay", 0, None, "queued"),
            entry("s1", "sortable", 2, Some(40), "completed"),
            entry("d2", "delay", u8::MAX, Some(0), "cancelled"),
            entry(
                "x",
                "sortable",
                1,
                Some(u64::MAX),
                "degraded(budget-exhausted)",
            ),
        ],
        encode: ManifestEntry::encode,
        decode: ManifestEntry::decode,
        canonical: true,
        rejects: &[
            "campaign d1 delay 0 - queued extra",
            "campaign d1 delay 0 - queued ",
            "campaign d1 delay 0 -",
            "campaign d1 delay x - queued",
            "campaign d1 delay 256 - queued",
            "campaign d1 delay 01 - queued",
            "campaign d1 delay 0 4x queued",
            "campaign d1 delay 0 +4 queued",
            "campaign d1 delay 0 -- queued",
            "campaign d1  delay 0 - queued",
            "task d1 delay 0 - queued",
        ],
    });
}

#[test]
fn persisted_suites() {
    check(Format {
        name: "suite",
        seeds: suites(),
        encode: save_suite,
        decode: |text: &str| load_suite(text).ok(),
        canonical: false,
        rejects: &[
            "",
            "suite C\ncase 0 0 [\"n1\"]\nctor m1 C - []",
            "seed 1",
            "suite C\ncase 0 0 [\"n1\"]\nendcase",
            "suite C\ncase 0 0 [\"n1\"]\nctor m1 C - []\nctor m2 C - []\nendcase",
        ],
    });
}

#[test]
fn persisted_histories() {
    check(Format {
        name: "history",
        seeds: suites().iter().map(TestingHistory::from_suite).collect(),
        encode: save_history,
        decode: |text: &str| load_history(text).ok(),
        canonical: false,
        rejects: &["", "entry 0 0 [\"C\"]", "history C\nentry x 0 []"],
    });
}

#[test]
fn walk_sequences() {
    check(Format {
        name: "walk sequence",
        seeds: walks(),
        encode: save_sequence,
        decode: |text: &str| load_sequence(text).ok(),
        canonical: false,
        rejects: &[
            "",
            "walk C\nseed 1\n",
            "walk C\nstep 0 x n1 m1 M - []\nend",
            "walk C\nstep 0 c n1 m1 M g []\nend",
            "walk C\nbogus line\nend",
        ],
    });
}

fn random_value(rng: &mut Rng, depth: usize) -> Value {
    match rng.index(if depth == 0 { 6 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.coin()),
        2 => Value::Int(rng.int_in(i64::MIN, i64::MAX)),
        3 => Value::Float(rng.int_in(-1_000_000, 1_000_000) as f64 / 64.0),
        4 => {
            let len = rng.index(8);
            Value::Str((0..len).map(|_| random_byte(rng) as char).collect())
        }
        5 => Value::Obj(ObjRef::new("Node", format!("k{}", rng.index(100)))),
        _ => Value::List(
            (0..rng.index(4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
    }
}

#[test]
fn value_literals() {
    let mut rng = Rng::seed_from_u64(0x11E2A1);
    let mut seeds: Vec<Value> = (0..48).map(|_| random_value(&mut rng, 3)).collect();
    seeds.push(Value::Float(f64::INFINITY));
    seeds.push(Value::Str("line\nbreak \"quoted\" \\ é".into()));
    check(Format {
        name: "value literal",
        seeds,
        encode: Value::to_literal,
        decode: |text: &str| parse_value_literal(text).ok(),
        canonical: false,
        rejects: &["", "nope", "\"open", "[1, 2", "1 trailing", "&:key", "@wat"],
    });
    // Nesting past the bound is refused, not recursed into until the
    // stack overflows.
    assert!(parse_value_literal(&"[".repeat(10_000)).is_err());
    assert!(parse_value_literal(&format!("{}{}", "[".repeat(10_000), "]".repeat(10_000))).is_err());
}

#[test]
fn tspec_text() {
    check(Format {
        name: "t-spec",
        seeds: specs(),
        encode: print_tspec,
        decode: |text: &str| parse_tspec(text).ok(),
        canonical: false,
        rejects: &["", "class"],
    });
}

// ---------------------------------------------------------------------
// Format goldens: fixtures written by earlier builds must decode and
// re-encode byte-identically.
// ---------------------------------------------------------------------

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/records")
        .join(name)
}

/// The verified records of a journal fixture, re-encoded by `reencode`
/// and written back through the journal's own framing, must reproduce
/// the fixture byte for byte.
fn assert_journal_round_trips(name: &str, reencode: impl Fn(usize, &str) -> Option<String>) {
    let path = golden(name);
    let scan = scan_journal(&path).expect("fixture readable");
    assert!(scan.is_clean(), "{name}: fixture verifies");
    let records: Vec<String> = scan
        .records
        .iter()
        .enumerate()
        .map(|(i, record)| {
            reencode(i, record).unwrap_or_else(|| panic!("{name}: record {i} decodes: {record:?}"))
        })
        .collect();
    let copy = std::env::temp_dir().join(format!("concat-golden-{}-{name}", std::process::id()));
    drop(Journal::rewrite(&copy, &records).expect("rewrite"));
    let rewritten = std::fs::read(&copy).expect("copy readable");
    let _ = std::fs::remove_file(&copy);
    assert!(
        rewritten == std::fs::read(&path).expect("fixture readable"),
        "{name}: re-encoding changed the bytes"
    );
}

#[test]
fn format_goldens_re_encode_byte_identically() {
    assert_journal_round_trips("verdicts.journal", |i, record| {
        if i == 0 {
            return parse_campaign_header(record).map(campaign_header);
        }
        decode_feature(record)
            .map(|feature| encode_feature(&feature))
            .or_else(|| decode_verdict(record).map(|(id, status)| encode_verdict(id, &status)))
    });
    assert_journal_round_trips("walks.journal", |i, record| {
        if i == 0 {
            let mut fields = Fields::new(record, ' ');
            fields.expect("invariant-campaign")?;
            let fingerprint = fields.hex()?;
            fields.end()?;
            return Some(format!("invariant-campaign {fingerprint:08x}"));
        }
        WalkRecord::decode(record).map(|walk| walk.encode())
    });
    assert_journal_round_trips("corpus.manifest.journal", |_, record| {
        CorpusEntry::decode(record).map(|entry| entry.encode())
    });

    let walks = scan_journal(golden("walks.journal")).expect("fixture readable");
    assert!(
        walks.records[1..]
            .iter()
            .filter_map(|record| WalkRecord::decode(record))
            .any(|walk| walk.breaker.is_some()),
        "the walk fixture carries a shrunk breaker"
    );

    let stream = std::fs::read(golden("shard.frames")).expect("fixture readable");
    let mut decoder = FrameDecoder::new();
    let payloads = decoder.push(&stream);
    assert_eq!((decoder.dropped(), decoder.pending_bytes()), (0, 0));
    let reencoded: String = payloads
        .iter()
        .map(|payload| {
            let frame = ShardFrame::decode(payload).expect("frame decodes");
            encode_frame(&frame.encode()).expect("single-line payload")
        })
        .collect();
    assert!(reencoded.as_bytes() == stream, "shard frames re-encode");
}
