//! Integration tests for the telemetry spine that need things the library
//! itself forbids or avoids: a counting global allocator (unsafe; the lib
//! is `#![forbid(unsafe_code)]`), spawned threads, and a hand-rolled JSON
//! parser checking that `JsonlSink` output survives a round trip.

use concat_obs::{Event, JsonlSink, MemorySink, NullSink, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

// ---------------------------------------------------------------------------
// Counting allocator: proves the disabled/NullSink paths allocate nothing.
// Each thread counts only its own allocations, so tests running beside
// the measuring thread cannot move its reading.
// ---------------------------------------------------------------------------

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator with the caller's
// pointer and layout unchanged. The counter update neither allocates nor
// panics (`try_with` skips it once the thread's storage is gone).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disabled_and_null_sink_paths_do_not_allocate() {
    let disabled = Telemetry::disabled();
    // Telemetry::new collapses a NullSink to the disabled representation.
    let null = Telemetry::new(Arc::new(NullSink));
    assert!(!null.is_enabled());

    for telemetry in [&disabled, &null] {
        let count = allocations_during(|| {
            for _ in 0..100 {
                let span = telemetry.span("case", "TC0");
                let positioned = telemetry.at(span.id());
                positioned.incr("case.passed");
                telemetry.incr_by("call.ok", 7);
                telemetry.gauge("gen.transactions", 42);
                telemetry.snapshot("campaign.progress", || vec![("never built".to_string(), 1)]);
                let lazy = telemetry.span_with("mutant", || "never built".to_string());
                span.finish();
                lazy.finish();
            }
        });
        assert_eq!(count, 0, "no allocation on the uninstrumented hot path");
    }
}

// ---------------------------------------------------------------------------
// Concurrency: counters from many threads land exactly.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_counter_increments_land_exactly() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 1_000;

    let sink = Arc::new(MemorySink::new());
    let telemetry = Telemetry::new(sink.clone());

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let telemetry = telemetry.clone();
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    telemetry.incr("case.passed");
                    telemetry.incr_by("call.ok", 2);
                    let span = telemetry.span_with("case", || format!("T{t}C{i}"));
                    span.finish();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(sink.counter_total("case.passed"), THREADS * PER_THREAD);
    assert_eq!(sink.counter_total("call.ok"), 2 * THREADS * PER_THREAD);
    assert_eq!(sink.span_count("case"), (THREADS * PER_THREAD) as usize);
    let summary = sink.summary();
    assert_eq!(summary.counter("case.passed"), THREADS * PER_THREAD);
    assert_eq!(summary.span("case").unwrap().count, THREADS * PER_THREAD);
}

// ---------------------------------------------------------------------------
// JSONL round trip through a hand-rolled parser.
// ---------------------------------------------------------------------------

/// A parsed JSON scalar — the only shapes `Event::to_json` emits.
#[derive(Debug, PartialEq)]
enum Json {
    Str(String),
    Num(i128),
}

/// Parses one flat JSON object (`{"k":"v","n":1,...}`) as emitted by
/// `Event::to_json`: string or integer values only, no nesting.
fn parse_flat_object(line: &str) -> BTreeMap<String, Json> {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or_else(|| panic!("not an object: {line}"));
    let mut out = BTreeMap::new();
    let mut chars = inner.chars().peekable();
    loop {
        match chars.peek() {
            None => break,
            Some(',') => {
                chars.next();
            }
            _ => {}
        }
        let key = parse_string(&mut chars);
        assert_eq!(chars.next(), Some(':'), "missing colon after {key}");
        let value = if chars.peek() == Some(&'"') {
            Json::Str(parse_string(&mut chars))
        } else {
            let mut digits = String::new();
            while matches!(chars.peek(), Some(c) if c.is_ascii_digit() || *c == '-') {
                digits.push(chars.next().unwrap());
            }
            Json::Num(
                digits
                    .parse()
                    .unwrap_or_else(|_| panic!("bad number {digits:?}")),
            )
        };
        out.insert(key, value);
    }
    out
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> String {
    assert_eq!(chars.next(), Some('"'), "expected opening quote");
    let mut out = String::new();
    loop {
        match chars.next().expect("unterminated string") {
            '"' => return out,
            '\\' => match chars.next().expect("dangling escape") {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).map(|_| chars.next().unwrap()).collect();
                    let code = u32::from_str_radix(&hex, 16).unwrap();
                    out.push(char::from_u32(code).unwrap());
                }
                other => panic!("unknown escape \\{other}"),
            },
            c => out.push(c),
        }
    }
}

fn get_str(obj: &BTreeMap<String, Json>, key: &str) -> String {
    match &obj[key] {
        Json::Str(s) => s.clone(),
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn get_num(obj: &BTreeMap<String, Json>, key: &str) -> i128 {
    match &obj[key] {
        Json::Num(n) => *n,
        other => panic!("{key} is not a number: {other:?}"),
    }
}

#[test]
fn jsonl_sink_output_round_trips() {
    let sink = Arc::new(JsonlSink::in_memory());
    let telemetry = Telemetry::new(sink.clone());

    let span = telemetry.span("case", "TC \"quoted\"\nnewline\tand\u{1}ctl");
    telemetry.incr_by("call.ok", 3);
    telemetry.gauge("mutant.equivalent", -4);
    span.finish();

    let text = sink.contents();
    assert!(text.ends_with('\n'), "jsonl output is newline-terminated");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "start, counter, gauge, end: {text}");

    let parsed: Vec<BTreeMap<String, Json>> = lines.iter().map(|l| parse_flat_object(l)).collect();

    assert_eq!(get_str(&parsed[0], "event"), "span_start");
    assert_eq!(get_str(&parsed[0], "kind"), "case");
    assert_eq!(
        get_str(&parsed[0], "label"),
        "TC \"quoted\"\nnewline\tand\u{1}ctl",
        "escapes decode back to the original label"
    );

    assert_eq!(get_str(&parsed[1], "event"), "counter");
    assert_eq!(get_str(&parsed[1], "name"), "call.ok");
    assert_eq!(get_num(&parsed[1], "delta"), 3);

    assert_eq!(get_str(&parsed[2], "event"), "gauge");
    assert_eq!(get_num(&parsed[2], "value"), -4);

    assert_eq!(get_str(&parsed[3], "event"), "span_end");
    assert_eq!(get_num(&parsed[3], "id"), get_num(&parsed[0], "id"));
    assert!(get_num(&parsed[3], "nanos") >= 0);
}

#[test]
fn every_event_variant_round_trips_through_its_json() {
    let events = [
        Event::SpanStart {
            kind: "suite",
            label: "CobList".into(),
            id: 9,
            parent: Some(3),
            ts_nanos: 100,
        },
        Event::SpanEnd {
            kind: "suite",
            label: "CobList".into(),
            id: 9,
            nanos: 12_345,
            ts_nanos: 12_445,
        },
        Event::Counter {
            name: "mutant.survived",
            delta: 2,
        },
        Event::Gauge {
            name: "gen.transactions",
            value: 25,
        },
    ];
    for event in &events {
        let obj = parse_flat_object(&event.to_json());
        match event {
            Event::SpanStart {
                kind,
                label,
                id,
                parent,
                ts_nanos,
            } => {
                assert_eq!(get_str(&obj, "event"), "span_start");
                assert_eq!(get_str(&obj, "kind"), *kind);
                assert_eq!(get_str(&obj, "label"), *label);
                assert_eq!(get_num(&obj, "id"), *id as i128);
                assert_eq!(get_num(&obj, "parent"), parent.unwrap() as i128);
                assert_eq!(get_num(&obj, "ts"), *ts_nanos as i128);
            }
            Event::SpanEnd {
                kind,
                nanos,
                ts_nanos,
                ..
            } => {
                assert_eq!(get_str(&obj, "event"), "span_end");
                assert_eq!(get_str(&obj, "kind"), *kind);
                assert_eq!(get_num(&obj, "nanos"), *nanos as i128);
                assert_eq!(get_num(&obj, "ts"), *ts_nanos as i128);
            }
            Event::Counter { name, delta } => {
                assert_eq!(get_str(&obj, "event"), "counter");
                assert_eq!(get_str(&obj, "name"), *name);
                assert_eq!(get_num(&obj, "delta"), *delta as i128);
            }
            Event::Gauge { name, value } => {
                assert_eq!(get_str(&obj, "event"), "gauge");
                assert_eq!(get_str(&obj, "name"), *name);
                assert_eq!(get_num(&obj, "value"), *value as i128);
            }
            Event::Snapshot { .. } => unreachable!("checked separately"),
        }
    }

    // A root span start omits the parent key entirely.
    let root = Event::SpanStart {
        kind: "mutation",
        label: "Acc".into(),
        id: 0,
        parent: None,
        ts_nanos: 0,
    };
    let obj = parse_flat_object(&root.to_json());
    assert!(!obj.contains_key("parent"));

    // Snapshots carry a nested readings object, beyond the flat parser;
    // check the envelope textually.
    let snap = Event::Snapshot {
        name: "campaign.progress",
        seq: 3,
        ts_nanos: 1_234,
        readings: vec![("done".into(), 10), ("w0.done".into(), 6)],
    };
    let json = snap.to_json();
    assert!(json.starts_with("{\"event\":\"snapshot\",\"name\":\"campaign.progress\""));
    assert!(json.contains("\"seq\":3"));
    assert!(json.contains("\"ts\":1234"));
    assert!(json.contains("\"readings\":{\"done\":10,\"w0.done\":6}"));
}
