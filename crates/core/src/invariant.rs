//! Stateful invariant-fuzzing campaigns over a self-testable bundle.
//!
//! Where [`Consumer::self_test`](crate::Consumer::self_test) realizes the
//! paper's transaction-coverage criterion (each birth→death TFM path once),
//! an *invariant campaign* complements it with long seeded random walks:
//! hundreds of method calls per walk, several live objects interleaved,
//! the BIT class invariant and every t-spec invariant clause re-checked
//! after each call. Failing walks are shrunk to a minimal reproducer
//! (delta debugging over calls, then boundary-value argument shrinking),
//! deposited into the persistent corpus so future sessions replay past
//! breakers first, and journaled so an interrupted campaign resumes
//! without re-executing finished walks.
//!
//! Determinism contract: for a fixed t-spec, [`WalkConfig`] and seed, the
//! generated walks, any discovered failure and its shrunk reproducer are
//! byte-identical across runs — walk generation never consults the
//! component, and each walk draws from its own derived seed.

use crate::bundle::SelfTestable;
use crate::consumer::Consumer;
use concat_bit::BitControl;
use concat_driver::{
    execute_sequence, generate_walk, load_sequence, save_sequence, shrink_sequence, FailureKind,
    InvariantBreaker, InvariantSummary, WalkConfig, WalkSequence,
};
use concat_runtime::{
    crc32, escape_field, open_headered, unescape_field, CancelToken, CorpusStore, Fields, Headered,
    Journal, Watchdog,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Everything an invariant campaign produced: aggregate statistics, the
/// distilled breakers (shrunk reproducers), and one transcript per walk.
///
/// The summary and breakers are deterministic for a given seed and
/// corpus/journal state; transcripts of journal-resumed walks are
/// placeholders (the journal stores results, not transcripts).
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantCampaign {
    /// Aggregate statistics, rendered by `concat-report`.
    pub summary: InvariantSummary,
    /// Failing sequences with their shrunk reproducers, corpus replays
    /// first, then walk discoveries in walk order.
    pub breakers: Vec<InvariantBreaker>,
    /// One transcript per executed walk (corpus replays excluded).
    pub transcripts: Vec<String>,
}

impl InvariantCampaign {
    /// True when no replayed or fuzzed sequence failed.
    pub fn clean(&self) -> bool {
        self.breakers.is_empty()
    }

    /// Breakers discovered by fuzzing this session (not corpus replays).
    pub fn fresh_breakers(&self) -> impl Iterator<Item = &InvariantBreaker> {
        self.breakers.iter().filter(|b| !b.from_corpus)
    }
}

/// One finished walk as the campaign journal records it, replayed on
/// resume instead of re-executed.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkRecord {
    /// Index of the walk in the campaign.
    pub index: usize,
    /// Steps the walk executed.
    pub calls: u64,
    /// Invariant and clause evaluations it performed.
    pub checks: u64,
    /// Why a failing walk failed, and its shrunk reproducer.
    pub breaker: Option<(FailureKind, WalkSequence)>,
}

impl Consumer {
    /// Runs an invariant-fuzzing campaign against `component`.
    ///
    /// Phases:
    ///
    /// 1. **Corpus replay** — when a corpus directory is configured, every
    ///    stored breaker of this class (key `<class>.invariant`) is
    ///    replayed first. Still-failing replays are reported as breakers;
    ///    passing ones are retained in the corpus (a fixed bug's breaker
    ///    is regression insurance, not garbage).
    /// 2. **Fuzzing** — `config.walks` seeded walks, each derived from
    ///    [`WalkConfig::walk_seed`], executed with invariants checked
    ///    after every call. Failures are shrunk and deposited into the
    ///    corpus.
    ///
    /// A configured journal makes the campaign resumable: finished walks
    /// are recorded (index, counts, failure, shrunk reproducer) and
    /// replayed on the next run with the same class/seed/shape — a run
    /// interrupted by the budget or watchdog picks up where it stopped.
    /// The budget's `max_calls` bounds the steps executed *this session*
    /// (journal-replayed walks are free, which is what makes a bigger
    /// budget able to finish a stopped campaign), and its `deadline` arms
    /// a watchdog whose firing marks the summary `stopped` without
    /// journaling the interrupted walk.
    ///
    /// Infallible by design: I/O degradation (unreadable corpus or
    /// journal) is counted under `harden.degraded` telemetry and the
    /// campaign proceeds without the degraded facility.
    ///
    /// # Examples
    ///
    /// ```
    /// use concat_core::{Consumer, SelfTestableBuilder};
    /// use concat_components::{bounded_stack_spec, BoundedStackFactory};
    /// use concat_driver::WalkConfig;
    /// use std::rc::Rc;
    ///
    /// let bundle = SelfTestableBuilder::new(bounded_stack_spec(), Rc::new(BoundedStackFactory))
    ///     .build();
    /// let config = WalkConfig::new(7).with_walks(2).with_calls_per_walk(64);
    /// let campaign = Consumer::with_seed(7).invariant_campaign(&bundle, &config);
    /// assert!(campaign.clean());
    /// assert_eq!(campaign.summary.walks, 2);
    /// ```
    pub fn invariant_campaign(
        &self,
        component: &SelfTestable,
        config: &WalkConfig,
    ) -> InvariantCampaign {
        let telemetry = self.telemetry().clone();
        let spec = component.spec();
        let class = spec.class_name.clone();
        let root = telemetry.span("invariant-campaign", &class);
        let scoped = telemetry.at(root.id());

        let ctl = BitControl::new_enabled();
        ctl.set_telemetry(telemetry.clone());

        let budget = self.budget();
        let token = CancelToken::new();
        let watchdog = budget.deadline.map(|deadline| {
            let wd = Watchdog::spawn();
            wd.arm(&token, deadline);
            wd
        });

        let fingerprint = campaign_fingerprint(&class, config);
        let (mut journal, mut journaled) =
            match self.journal().map(|path| resume_journal(path, fingerprint)) {
                Some(Ok((journal, walks))) => (Some(journal), walks),
                Some(Err(_)) => {
                    telemetry.incr("harden.degraded");
                    (None, BTreeMap::new())
                }
                None => (None, BTreeMap::new()),
            };

        let mut summary = InvariantSummary {
            class_name: class.clone(),
            seed: config.seed,
            ..InvariantSummary::default()
        };
        let mut breakers: Vec<InvariantBreaker> = Vec::new();
        let mut transcripts: Vec<String> = Vec::new();
        // Steps executed this session — journal replays are free, so a
        // resumed campaign with a fresh budget can finish.
        let mut session_calls: u64 = 0;
        let corpus_key = format!("{class}.invariant");

        // Phase 1: replay the corpus — past breakers run before any
        // fuzzing so a regression is the first thing the campaign reports.
        let payloads = match self.corpus() {
            Some(dir) => match CorpusStore::open(dir) {
                Ok(store) => {
                    let load = store.load(&corpus_key);
                    if load.missing + load.rejected > 0 {
                        telemetry.incr("harden.degraded");
                    }
                    load.payloads
                }
                Err(_) => {
                    telemetry.incr("harden.degraded");
                    Vec::new()
                }
            },
            None => Vec::new(),
        };
        for payload in &payloads {
            if token.is_cancelled() || over_call_budget(&budget, session_calls) {
                summary.stopped = true;
                break;
            }
            let seq = match load_sequence(payload) {
                Ok(seq) => seq,
                Err(_) => {
                    telemetry.incr("harden.degraded");
                    continue;
                }
            };
            let span = scoped.span("replay", &format!("r{}", summary.replayed));
            let outcome = execute_sequence(component.factory(), spec, &seq, &ctl, Some(&token));
            span.finish();
            if outcome.interrupted {
                summary.stopped = true;
                break;
            }
            summary.replayed += 1;
            summary.calls += outcome.executed_steps as u64;
            summary.checks += outcome.checks;
            session_calls += outcome.executed_steps as u64;
            telemetry.incr("invariant.replayed");
            if let Some(found) = outcome.failure {
                summary.replayed_failing += 1;
                summary.failures += 1;
                telemetry.incr("invariant.failures");
                breakers.push(InvariantBreaker {
                    walk: None,
                    from_corpus: true,
                    failure: found.kind,
                    original_calls: seq.call_count(),
                    shrunk: seq,
                });
            }
        }

        // Phase 2: fuzz. Journal-replayed walks contribute their recorded
        // counts; fresh walks execute, shrink on failure, and journal.
        for index in 0..config.walks {
            if summary.stopped {
                break;
            }
            let record = match journaled.remove(&index) {
                Some(done) => {
                    transcripts.push(format!("walk {index} replayed from journal\n"));
                    done
                }
                None => {
                    if token.is_cancelled() || over_call_budget(&budget, session_calls) {
                        summary.stopped = true;
                        break;
                    }
                    let seq = generate_walk(spec, config, config.walk_seed(index));
                    let span = scoped.span("walk", &format!("w{index}"));
                    let outcome =
                        execute_sequence(component.factory(), spec, &seq, &ctl, Some(&token));
                    if outcome.interrupted {
                        // Never journaled: the resumed campaign re-executes
                        // this walk from its derived seed, byte-identically.
                        span.finish();
                        summary.stopped = true;
                        break;
                    }
                    session_calls += outcome.executed_steps as u64;
                    telemetry.incr("invariant.walks");
                    telemetry.incr_by("invariant.calls", outcome.executed_steps as u64);
                    telemetry.incr_by("invariant.checks", outcome.checks);
                    transcripts.push(outcome.transcript);
                    let breaker = outcome.failure.map(|found| {
                        telemetry.incr("invariant.failures");
                        let shrunk = shrink_sequence(component.factory(), spec, &seq, &ctl);
                        (found.kind, shrunk)
                    });
                    span.finish();
                    let record = WalkRecord {
                        index,
                        calls: outcome.executed_steps as u64,
                        checks: outcome.checks,
                        breaker,
                    };
                    if let Some(j) = journal.as_mut() {
                        if j.append(&record.encode()).is_err() {
                            telemetry.incr("harden.degraded");
                        }
                    }
                    record
                }
            };
            summary.walks += 1;
            summary.calls += record.calls;
            summary.checks += record.checks;
            if let Some((failure, shrunk)) = record.breaker {
                summary.failures += 1;
                summary.original_calls += record.calls;
                summary.shrunk_calls += shrunk.call_count() as u64;
                breakers.push(InvariantBreaker {
                    walk: Some(index),
                    from_corpus: false,
                    failure,
                    original_calls: record.calls as usize,
                    shrunk,
                });
            }
        }

        if let Some(wd) = watchdog {
            wd.disarm();
        }

        // Deposit the shrunk reproducers of walk-discovered breakers so
        // future campaigns replay them first. Content-hash dedup makes
        // re-deposits (journal-resumed breakers) a no-op.
        if let Some(dir) = self.corpus() {
            let fresh: Vec<&InvariantBreaker> =
                breakers.iter().filter(|b| !b.from_corpus).collect();
            if !fresh.is_empty() {
                match CorpusStore::open(dir) {
                    Ok(mut store) => {
                        for breaker in fresh {
                            let payload = save_sequence(&breaker.shrunk);
                            match store.deposit(&corpus_key, fingerprint, &payload) {
                                Ok(true) => telemetry.incr("corpus.deposited"),
                                Ok(false) => {}
                                Err(_) => telemetry.incr("harden.degraded"),
                            }
                        }
                    }
                    Err(_) => telemetry.incr("harden.degraded"),
                }
            }
        }

        root.finish();
        InvariantCampaign {
            summary,
            breakers,
            transcripts,
        }
    }
}

fn over_call_budget(budget: &concat_runtime::Budget, session_calls: u64) -> bool {
    budget
        .max_calls
        .is_some_and(|max| session_calls >= max as u64)
}

/// Identity of a campaign for journal-resume purposes: class, seed and
/// walk shape. The budget is deliberately excluded — a stopped campaign
/// must be resumable under a *bigger* budget.
fn campaign_fingerprint(class: &str, config: &WalkConfig) -> u32 {
    let mut text = String::new();
    let _ = writeln!(text, "class {class}");
    let _ = writeln!(text, "seed {}", config.seed);
    let _ = writeln!(text, "walks {}", config.walks);
    let _ = writeln!(text, "calls-per-walk {}", config.calls_per_walk);
    let _ = writeln!(text, "objects {}", config.objects);
    let _ = writeln!(text, "policy {}", config.policy.keyword());
    crc32(text.as_bytes())
}

fn journal_header(fingerprint: u32) -> String {
    format!("invariant-campaign {fingerprint:08x}")
}

/// Opens (or creates) the campaign journal. A header matching this
/// campaign's fingerprint replays the recorded walks; anything else —
/// missing file, another campaign's header — replaces the journal with a
/// fresh header.
fn resume_journal(
    path: &Path,
    fingerprint: u32,
) -> std::io::Result<(Journal, BTreeMap<usize, WalkRecord>)> {
    let header = journal_header(fingerprint);
    Ok(match open_headered(path, &header)? {
        Headered::Matched(journal, records) => {
            let walks = records
                .iter()
                .filter_map(|record| WalkRecord::decode(record))
                .map(|walk| (walk.index, walk))
                .collect();
            (journal, walks)
        }
        Headered::Foreign(_) => (Journal::rewrite(path, &[header])?, BTreeMap::new()),
    })
}

fn encode_failure(kind: &FailureKind) -> String {
    match kind {
        FailureKind::Invariant { message } => format!("invariant:{}", escape_field(message)),
        FailureKind::SpecClause { id } => format!("clause:{}", escape_field(id)),
        FailureKind::Panic { message } => format!("panic:{}", escape_field(message)),
    }
}

fn decode_failure(text: &str) -> Option<FailureKind> {
    let (tag, rest) = text.split_once(':')?;
    let payload = unescape_field(rest)?;
    Some(match tag {
        "invariant" => FailureKind::Invariant { message: payload },
        "clause" => FailureKind::SpecClause { id: payload },
        "panic" => FailureKind::Panic { message: payload },
        _ => return None,
    })
}

impl WalkRecord {
    /// The journal record, tab-separated:
    /// `walk <index> <calls> <checks> <failure|-> <shrunk|->`.
    pub fn encode(&self) -> String {
        let (failure, shrunk) = match &self.breaker {
            Some((kind, seq)) => (encode_failure(kind), escape_field(&save_sequence(seq))),
            None => ("-".to_owned(), "-".to_owned()),
        };
        format!(
            "walk\t{}\t{}\t{}\t{failure}\t{shrunk}",
            self.index, self.calls, self.checks
        )
    }

    /// Decodes a walk record; `None` for anything [`WalkRecord::encode`]
    /// would not write, which makes the walk re-execute
    /// (deterministically) instead of poisoning the resume.
    pub fn decode(record: &str) -> Option<WalkRecord> {
        let mut fields = Fields::new(record, '\t');
        fields.expect("walk")?;
        let (index, calls, checks) = (fields.dec()?, fields.dec()?, fields.dec()?);
        let breaker = match (fields.word()?, fields.word()?) {
            ("-", "-") => None,
            ("-", _) | (_, "-") => return None,
            (failure, shrunk) => {
                let text = unescape_field(shrunk)?;
                let seq = load_sequence(&text).ok()?;
                // Sequence text is human-editable; only the form
                // `save_sequence` writes is a canonical record.
                (save_sequence(&seq) == text).then_some(())?;
                Some((decode_failure(failure)?, seq))
            }
        };
        fields.end()?;
        Some(WalkRecord {
            index,
            calls,
            checks,
            breaker,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::SelfTestableBuilder;
    use crate::consumer::Consumer;
    use concat_components::{sortable_spec, CSortableObListFactory};
    use concat_obs::{MemorySink, Telemetry};
    use concat_runtime::{recover_journal, Budget};
    use std::rc::Rc;
    use std::sync::Arc;
    use std::time::Duration;

    fn bundle() -> SelfTestable {
        let switch = concat_mutation::MutationSwitch::new();
        SelfTestableBuilder::new(
            sortable_spec(),
            Rc::new(CSortableObListFactory::new(switch)),
        )
        .build()
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let unique = format!(
            "concat-inv-{tag}-{}-{}",
            std::process::id(),
            concat_runtime::monotonic_nanos()
        );
        std::env::temp_dir().join(unique)
    }

    // Single-object walks: these tests exercise campaign mechanics on a
    // healthy subject and must stay green when the seeded cross-object
    // bug is compiled in (`--features seeded-bugs`).
    fn small_config() -> WalkConfig {
        WalkConfig::new(11)
            .with_walks(3)
            .with_calls_per_walk(40)
            .with_objects(1)
    }

    #[test]
    fn campaign_is_deterministic() {
        let bundle = bundle();
        let config = small_config();
        let one = Consumer::new().invariant_campaign(&bundle, &config);
        let two = Consumer::new().invariant_campaign(&bundle, &config);
        assert_eq!(one, two);
        assert_eq!(one.summary.walks, 3);
        assert!(one.clean(), "healthy component must not break");
        assert!(one.summary.checks > 0);
    }

    #[test]
    fn telemetry_counts_walks_and_calls() {
        let bundle = bundle();
        let sink = Arc::new(MemorySink::new());
        let campaign = Consumer::new()
            .with_telemetry(Telemetry::new(sink.clone()))
            .invariant_campaign(&bundle, &small_config());
        assert_eq!(sink.counter_total("invariant.walks"), 3);
        assert_eq!(
            sink.counter_total("invariant.calls"),
            campaign.summary.calls
        );
        assert_eq!(sink.span_count("invariant-campaign"), 1);
        assert_eq!(sink.span_count("walk"), 3);
    }

    #[test]
    fn journal_resume_skips_finished_walks() {
        let bundle = bundle();
        let config = small_config();
        let journal = temp_path("journal");
        // Budget stops the campaign partway through.
        let first = Consumer::new()
            .with_budget(Budget::unlimited().with_max_calls(30))
            .with_journal(&journal)
            .invariant_campaign(&bundle, &config);
        assert!(first.summary.stopped);
        assert!(first.summary.walks < 3);
        // Resume without a call budget: recorded walks replay, the rest
        // execute, and the result matches an uninterrupted campaign.
        let resumed = Consumer::new()
            .with_journal(&journal)
            .invariant_campaign(&bundle, &config);
        let uninterrupted = Consumer::new().invariant_campaign(&bundle, &config);
        assert!(!resumed.summary.stopped);
        assert_eq!(resumed.summary, uninterrupted.summary);
        assert_eq!(resumed.breakers, uninterrupted.breakers);
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn foreign_journal_header_is_reset() {
        let bundle = bundle();
        let config = small_config();
        let path = temp_path("foreign");
        std::fs::write(&path, "not a journal at all\n").unwrap();
        let campaign = Consumer::new()
            .with_journal(&path)
            .invariant_campaign(&bundle, &config);
        assert_eq!(campaign.summary.walks, 3);
        let (_, scan) = recover_journal(&path).unwrap();
        assert_eq!(
            scan.records.first(),
            Some(&journal_header(campaign_fingerprint(
                "CSortableObList",
                &config
            )))
        );
        assert_eq!(scan.records.len(), 4, "header + one record per walk");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deadline_stop_is_resumable() {
        let bundle = bundle();
        let config = WalkConfig::new(5)
            .with_walks(4)
            .with_calls_per_walk(60)
            .with_objects(1);
        let journal = temp_path("deadline");
        let stopped = Consumer::new()
            .with_budget(Budget::unlimited().with_deadline(Duration::from_nanos(1)))
            .with_journal(&journal)
            .invariant_campaign(&bundle, &config);
        assert!(stopped.summary.stopped);
        let resumed = Consumer::new()
            .with_journal(&journal)
            .invariant_campaign(&bundle, &config);
        let baseline = Consumer::new().invariant_campaign(&bundle, &config);
        assert_eq!(resumed.summary, baseline.summary);
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn fingerprint_tracks_shape_not_budget() {
        let a = campaign_fingerprint("C", &WalkConfig::new(1));
        assert_eq!(a, campaign_fingerprint("C", &WalkConfig::new(1)));
        assert_ne!(a, campaign_fingerprint("C", &WalkConfig::new(2)));
        assert_ne!(a, campaign_fingerprint("D", &WalkConfig::new(1)));
        assert_ne!(
            a,
            campaign_fingerprint("C", &WalkConfig::new(1).with_walks(9))
        );
    }

    #[test]
    fn corpus_deposit_and_replay_round_trip() {
        let bundle = bundle();
        let config = small_config();
        let corpus = temp_path("corpus");
        std::fs::create_dir_all(&corpus).unwrap();
        // A healthy component deposits nothing...
        let clean = Consumer::new()
            .with_corpus(&corpus)
            .invariant_campaign(&bundle, &config);
        assert!(clean.clean());
        // ...so seed the corpus by hand with a valid passing sequence to
        // prove the replay path runs it and retains it.
        let seq = generate_walk(bundle.spec(), &config, config.walk_seed(0));
        let mut store = CorpusStore::open(&corpus).unwrap();
        assert!(store
            .deposit(
                "CSortableObList.invariant",
                seq.fingerprint(),
                &save_sequence(&seq)
            )
            .unwrap());
        let replayed = Consumer::new()
            .with_corpus(&corpus)
            .invariant_campaign(&bundle, &config);
        assert_eq!(replayed.summary.replayed, 1);
        assert_eq!(replayed.summary.replayed_failing, 0);
        // Passing breakers are retained, not deleted.
        let store = CorpusStore::open(&corpus).unwrap();
        assert_eq!(store.load("CSortableObList.invariant").payloads.len(), 1);
        let _ = std::fs::remove_dir_all(&corpus);
    }

    #[test]
    fn unreadable_corpus_degrades_not_fails() {
        let bundle = bundle();
        let corpus = temp_path("degraded");
        std::fs::create_dir_all(&corpus).unwrap();
        let mut store = CorpusStore::open(&corpus).unwrap();
        store
            .deposit("CSortableObList.invariant", 1, "garbage payload")
            .unwrap();
        let sink = Arc::new(MemorySink::new());
        let campaign = Consumer::new()
            .with_telemetry(Telemetry::new(sink.clone()))
            .with_corpus(&corpus)
            .invariant_campaign(&bundle, &small_config());
        assert_eq!(campaign.summary.replayed, 0);
        assert_eq!(campaign.summary.walks, 3);
        assert!(sink.counter_total("harden.degraded") > 0);
        let _ = std::fs::remove_dir_all(&corpus);
    }
}
