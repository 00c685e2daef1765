//! The Chrome-trace flight recorder end to end: the offline exporter
//! emits valid, causally consistent JSON (begin/end events balance per
//! thread track, parent references resolve); the live sink's output
//! stays loadable after a SIGKILL-style truncation; a journaled
//! campaign resumed from its verdicts still records a well-formed
//! trace; and tracing never perturbs verdicts, tables or summaries.

use concat::core::Consumer;
use concat::driver::{Expansion, GeneratorConfig};
use concat::mutation::MutationRun;
use concat::obs::{chrome_trace, ChromeTraceSink, MemorySink, Telemetry};
use concat_bench::sortable_bundle_sharded;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

mod matrix;

fn small_consumer(seed: u64) -> Consumer {
    Consumer::with_config(GeneratorConfig {
        seed,
        expansion: Expansion::Covering { repeats: 1 },
        ..GeneratorConfig::default()
    })
}

const TARGETS: [&str; 2] = ["FindMax", "FindMin"];

fn run_campaign(workers: usize, telemetry: Telemetry) -> MutationRun {
    let bundle = sortable_bundle_sharded();
    let consumer = small_consumer(71)
        .with_workers(workers)
        .with_telemetry(telemetry);
    let suite = consumer.generate(&bundle).unwrap();
    consumer
        .evaluate_quality(&bundle, &suite, &TARGETS, &[72])
        .unwrap()
}

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON parser — enough to validate the trace
// (objects, arrays, strings, numbers; the shapes the encoder emits).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.bytes.get(self.pos).map(|b| *b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad codepoint")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

/// Parses a complete JSON document, requiring all input be consumed.
fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser::new(text);
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing garbage at byte {}", parser.pos));
    }
    Ok(value)
}

/// Structural checks over a parsed list of trace events: every `ph` is a
/// known type, B/E nest and balance per thread track, and every span
/// `parent` reference resolves to a span id that exists in the trace.
/// Returns the number of B events checked.
fn check_trace_events(items: &[Json], require_balanced: bool) -> usize {
    let mut open: HashMap<i64, Vec<f64>> = HashMap::new();
    let mut span_ids: HashSet<i64> = HashSet::new();
    let mut parents: Vec<i64> = Vec::new();
    let mut begins = 0usize;
    for item in items {
        let ph = item.str("ph").expect("event has a phase");
        match ph {
            "B" => {
                begins += 1;
                let tid = item.num("tid").expect("B has tid") as i64;
                let args = item.get("args").expect("B has args");
                let id = args.num("id").expect("B has span id") as i64;
                span_ids.insert(id);
                if let Some(parent) = args.num("parent") {
                    parents.push(parent as i64);
                }
                open.entry(tid).or_default().push(item.num("ts").unwrap());
            }
            "E" => {
                let tid = item.num("tid").expect("E has tid") as i64;
                let begin_ts = open
                    .get_mut(&tid)
                    .and_then(|stack| stack.pop())
                    .expect("E matches an open B on its track");
                let end_ts = item.num("ts").expect("E has ts");
                assert!(
                    end_ts >= begin_ts,
                    "span ends ({end_ts}) before it begins ({begin_ts})"
                );
            }
            "C" | "M" | "I" => {}
            other => panic!("unknown phase {other:?}"),
        }
    }
    for parent in parents {
        assert!(
            span_ids.contains(&parent),
            "parent {parent} does not resolve to any span id in the trace"
        );
    }
    if require_balanced {
        for (tid, stack) in open {
            assert!(
                stack.is_empty(),
                "track {tid} left {} span(s) open in a complete trace",
                stack.len()
            );
        }
    }
    begins
}

/// Parses the live sink's line-oriented output (array header, one event
/// per comma-terminated line, never closed), tolerating a truncated
/// final line exactly the way `chrome://tracing` does.
fn parse_live_lines(contents: &str, truncated: bool) -> Vec<Json> {
    let mut lines: Vec<&str> = contents.lines().collect();
    assert_eq!(lines.remove(0), "[", "live trace opens an array");
    if truncated {
        lines.pop();
    }
    lines
        .iter()
        .map(|line| {
            let line = line.strip_suffix(',').unwrap_or(line);
            parse_json(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"))
        })
        .collect()
}

#[test]
fn offline_export_is_valid_and_causally_consistent() {
    let sink = Arc::new(MemorySink::new());
    let run = run_campaign(2, Telemetry::new(sink.clone()));
    assert!(run.total() >= 60, "enough mutants to matter");

    let trace = chrome_trace(&sink.events());
    let json = parse_json(&trace).expect("the export is one valid JSON array");
    let Json::Arr(items) = json else {
        panic!("trace root is not an array");
    };

    // Process metadata names the campaign.
    let process = items
        .iter()
        .find(|i| i.str("name") == Some("process_name"))
        .expect("process_name metadata present");
    assert_eq!(
        process.get("args").and_then(|a| a.str("name")),
        Some("concat campaign")
    );

    let begins = check_trace_events(&items, true);
    assert!(begins > run.total(), "a span per mutant at minimum");

    // Worker spans sit on their own thread tracks, with thread_name
    // metadata, and mutant spans inherit those tracks.
    let worker_tids: HashSet<i64> = items
        .iter()
        .filter(|i| i.str("cat") == Some("worker"))
        .filter_map(|i| i.num("tid").map(|t| t as i64))
        .collect();
    assert_eq!(worker_tids.len(), 2, "one track per worker");
    assert!(!worker_tids.contains(&1), "workers are off the main track");
    let mutant_tids: HashSet<i64> = items
        .iter()
        .filter(|i| i.str("cat") == Some("mutant") && i.str("ph") == Some("B"))
        .filter_map(|i| i.num("tid").map(|t| t as i64))
        .collect();
    assert_eq!(
        mutant_tids, worker_tids,
        "mutant spans run on their worker's track"
    );
}

#[test]
fn live_sink_output_survives_sigkill_truncation() {
    let sink = Arc::new(ChromeTraceSink::in_memory());
    let _ = run_campaign(2, Telemetry::new(sink.clone()));
    let contents = sink.contents();
    assert!(
        !contents.trim_end().ends_with(']'),
        "the live array is never closed"
    );

    // The complete stream parses line by line (open spans allowed: the
    // absorb happens at merge, so a reader may see starts without ends).
    let items = parse_live_lines(&contents, false);
    check_trace_events(&items, false);
    assert!(items.iter().any(|i| i.str("ph") == Some("B")));

    // A SIGKILL mid-write cuts the file at an arbitrary byte. Everything
    // up to the last complete line must still parse.
    let cut = contents.len() * 2 / 3;
    let truncated = &contents[..cut];
    let items = parse_live_lines(truncated, true);
    assert!(
        items.iter().any(|i| i.str("ph") == Some("B")),
        "the truncated prefix still carries spans"
    );
    check_trace_events(&items, false);
}

#[test]
fn resumed_campaign_records_a_well_formed_trace() {
    let dir = std::env::temp_dir().join("concat-trace-resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("campaign.journal");

    // First run populates the journal with every verdict.
    let bundle = sortable_bundle_sharded();
    let consumer = small_consumer(71).with_workers(2).with_journal(&journal);
    let suite = consumer.generate(&bundle).unwrap();
    let first = consumer
        .evaluate_quality(&bundle, &suite, &TARGETS, &[72])
        .unwrap();

    // The rerun replays the journal under a live trace sink: the trace
    // must stay well-formed and the verdicts identical.
    let sink = Arc::new(ChromeTraceSink::in_memory());
    let consumer = small_consumer(71)
        .with_workers(2)
        .with_journal(&journal)
        .with_telemetry(Telemetry::new(sink.clone()));
    let suite = consumer.generate(&bundle).unwrap();
    let resumed = consumer
        .evaluate_quality(&bundle, &suite, &TARGETS, &[72])
        .unwrap();
    assert_eq!(first.results, resumed.results);

    let items = parse_live_lines(&sink.contents(), false);
    check_trace_events(&items, false);
    assert!(
        items.iter().any(|i| i.str("cat") == Some("journal")),
        "journal spans recorded on the resume path"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The untraced and traced four-worker cells of the qualification matrix
/// (`Q3-W4`, `Q3-TRACE-W4`): both yield the golden Table-3 verdicts and
/// the sequential engine's report, and the traced one records a span per
/// mutant. `Q3-TRACE-W1/W2/W8` cover the other worker counts.
#[test]
fn tracing_never_perturbs_verdicts_tables_or_summaries() {
    matrix::qualify("tracing_never_perturbs_verdicts_tables_or_summaries");
}
