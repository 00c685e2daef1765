//! Invariant fuzzing end to end: seeded TFM walks with per-call invariant
//! checking, delta-debugging sequence shrinking, journal resume and
//! corpus replay — and the two acceptance bars of the subsystem:
//!
//! * determinism — the same seed yields byte-identical transcripts,
//!   failures and shrunk reproducers across campaigns, processes and
//!   resumes;
//! * isolation — running invariant campaigns never perturbs mutation
//!   analysis in the same process (mirroring `tests/trace.rs`).
//!
//! With `--features seeded-bugs` the suite additionally proves the
//! paper-motivated gap the subsystem exists to close: a deliberately
//! seeded cross-object cache desync in `CSortableObList` that the
//! transaction-coverage suite can never trip (one object per case) is
//! found by the interleaved walks, shrunk to a minimal reproducer, and
//! replayed from the corpus on the next campaign.

use concat::components::*;
use concat::core::{Consumer, SelfTestable, SelfTestableBuilder};
use concat::driver::{generate_walk, save_sequence, WalkConfig};
use concat::mutation::{MutationMatrix, MutationRun, MutationSwitch};
use concat::obs::Telemetry;
use concat::report::{render_invariant_table, render_score_table, summarize_run};
use concat::runtime::{Budget, CorpusStore};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

fn sortable_bundle() -> SelfTestable {
    let switch = MutationSwitch::new();
    SelfTestableBuilder::new(
        sortable_spec(),
        Rc::new(CSortableObListFactory::new(switch)),
    )
    .build()
}

fn temp_path(tag: &str) -> PathBuf {
    let unique = format!(
        "concat-invtest-{tag}-{}-{}",
        std::process::id(),
        concat::runtime::monotonic_nanos()
    );
    std::env::temp_dir().join(unique)
}

// ---------------------------------------------------------------------------
// Determinism: same seed ⇒ identical transcripts, failures, reproducers.
// ---------------------------------------------------------------------------

#[test]
fn same_seed_campaigns_are_byte_identical() {
    let bundle = sortable_bundle();
    let config = WalkConfig::new(23)
        .with_walks(4)
        .with_calls_per_walk(90)
        .with_objects(2);
    let one = Consumer::new().invariant_campaign(&bundle, &config);
    let two = Consumer::new().invariant_campaign(&bundle, &config);
    assert_eq!(one, two, "summary, breakers and transcripts all match");
    assert_eq!(one.transcripts.len(), 4);
    assert!(one.transcripts.iter().all(|t| !t.is_empty()));
    assert_eq!(
        render_invariant_table(&one.summary, &one.breakers),
        render_invariant_table(&two.summary, &two.breakers)
    );

    // A different seed walks differently.
    let other = Consumer::new().invariant_campaign(
        &bundle,
        &WalkConfig::new(24).with_walks(4).with_calls_per_walk(90),
    );
    assert_ne!(one.transcripts, other.transcripts);
}

// ---------------------------------------------------------------------------
// Budget/watchdog stop leaves a resumable journal.
// ---------------------------------------------------------------------------

#[test]
fn budget_stop_leaves_resumable_journal() {
    let bundle = sortable_bundle();
    // One object per walk: these walks must stay healthy even when the
    // seeded cross-object bug is compiled in, so the budget (not an
    // early failure) is what stops the campaign.
    let config = WalkConfig::new(19)
        .with_walks(4)
        .with_calls_per_walk(50)
        .with_objects(1);
    let journal = temp_path("journal");

    let stopped = Consumer::new()
        .with_budget(Budget::unlimited().with_max_calls(60))
        .with_journal(&journal)
        .invariant_campaign(&bundle, &config);
    assert!(stopped.summary.stopped, "the call budget must bite");
    assert!(stopped.summary.walks < 4);

    // Resuming without a budget finishes, and lands exactly where an
    // uninterrupted campaign lands.
    let resumed = Consumer::new()
        .with_journal(&journal)
        .invariant_campaign(&bundle, &config);
    let baseline = Consumer::new().invariant_campaign(&bundle, &config);
    assert!(!resumed.summary.stopped);
    assert_eq!(resumed.summary, baseline.summary);
    assert_eq!(resumed.breakers, baseline.breakers);
    let _ = std::fs::remove_file(&journal);
}

// ---------------------------------------------------------------------------
// Corpus round trip on a healthy component: stored sequences replay
// before any fuzzing and passing breakers are retained (regression
// insurance, not garbage).
// ---------------------------------------------------------------------------

#[test]
fn passing_corpus_sequences_replay_and_are_retained() {
    let bundle = sortable_bundle();
    // Single-object walks stay healthy with or without seeded bugs.
    let config = WalkConfig::new(31)
        .with_walks(2)
        .with_calls_per_walk(40)
        .with_objects(1);
    let corpus = temp_path("corpus");
    std::fs::create_dir_all(&corpus).unwrap();

    let seq = generate_walk(bundle.spec(), &config, config.walk_seed(1));
    let mut store = CorpusStore::open(&corpus).unwrap();
    assert!(store
        .deposit(
            "CSortableObList.invariant",
            seq.fingerprint(),
            &save_sequence(&seq)
        )
        .unwrap());

    let campaign = Consumer::new()
        .with_corpus(&corpus)
        .invariant_campaign(&bundle, &config);
    assert_eq!(campaign.summary.replayed, 1);
    assert_eq!(campaign.summary.replayed_failing, 0);
    assert!(campaign.clean());

    let store = CorpusStore::open(&corpus).unwrap();
    assert_eq!(
        store.load("CSortableObList.invariant").payloads.len(),
        1,
        "a passing breaker is retained, not deleted"
    );
    let _ = std::fs::remove_dir_all(&corpus);
}

// ---------------------------------------------------------------------------
// Isolation: invariant fuzzing in the same process never perturbs
// mutation analysis (the same bar tests/trace.rs sets for tracing).
// ---------------------------------------------------------------------------

fn mutation_campaign() -> MutationRun {
    let switch = MutationSwitch::new();
    let bundle = SelfTestableBuilder::new(
        sortable_spec(),
        Rc::new(CSortableObListFactory::new(switch.clone())),
    )
    .mutation(sortable_inventory(), switch)
    .mutation_shards(Arc::new(CSortableObListFactory::default()))
    .inheritance(sortable_inheritance_map())
    .build();
    let consumer = Consumer::with_config(concat::driver::GeneratorConfig {
        seed: 71,
        expansion: concat::driver::Expansion::Covering { repeats: 1 },
        ..concat::driver::GeneratorConfig::default()
    })
    .with_workers(2)
    .with_telemetry(Telemetry::disabled());
    let suite = consumer.generate(&bundle).unwrap();
    consumer
        .evaluate_quality(&bundle, &suite, &["FindMax", "FindMin"], &[72])
        .unwrap()
}

#[test]
fn invariant_fuzzing_never_perturbs_mutation_analysis() {
    let before = mutation_campaign();

    // A full invariant campaign — corpus, journal, shrinking when the
    // seeded bug is compiled in — runs between two mutation campaigns.
    let corpus = temp_path("isolation-corpus");
    let journal = temp_path("isolation-journal");
    std::fs::create_dir_all(&corpus).unwrap();
    let bundle = sortable_bundle();
    let config = WalkConfig::new(42)
        .with_walks(3)
        .with_calls_per_walk(80)
        .with_objects(2);
    let campaign = Consumer::new()
        .with_corpus(&corpus)
        .with_journal(&journal)
        .invariant_campaign(&bundle, &config);
    assert_eq!(campaign.summary.walks, 3);

    let after = mutation_campaign();
    assert_eq!(
        before.results, after.results,
        "mutation verdicts must be identical before/after invariant fuzzing"
    );
    let targets = ["FindMax", "FindMin"];
    assert_eq!(
        render_score_table("Isolation", &MutationMatrix::from_run(&before, &targets)),
        render_score_table("Isolation", &MutationMatrix::from_run(&after, &targets)),
    );
    assert_eq!(summarize_run(&before), summarize_run(&after));

    let _ = std::fs::remove_dir_all(&corpus);
    let _ = std::fs::remove_file(&journal);
}

// ---------------------------------------------------------------------------
// The seeded cross-object bug: missed by transaction coverage, found by
// interleaved walks, shrunk to a minimal exact reproducer, replayed from
// the corpus.
// ---------------------------------------------------------------------------

#[cfg(feature = "seeded-bugs")]
mod seeded {
    use super::*;
    use concat::bit::BitControl;
    use concat::driver::{execute_sequence, shrink_sequence, FailureKind};

    /// The demo configuration: the one the CI job replays byte-for-byte.
    fn hunting_config() -> WalkConfig {
        WalkConfig::new(42)
            .with_walks(6)
            .with_calls_per_walk(120)
            .with_objects(2)
    }

    #[test]
    fn transaction_coverage_misses_the_seeded_bug() {
        let bundle = sortable_bundle();
        let report = Consumer::with_seed(7).self_test(&bundle).unwrap();
        // The suite's only failures are its deliberate boundary probes
        // tripping preconditions — the same three cases fail on the
        // unseeded build. One object per case means the cross-object
        // cache desync is unreachable: its invariant clause never fires.
        for case in &report.result.cases {
            match &case.status {
                concat::driver::CaseStatus::Passed => {}
                concat::driver::CaseStatus::AssertionViolated { message, .. } => {
                    assert!(
                        message.contains("pre-condition"),
                        "case {}: only boundary-probe precondition hits are \
                         expected, got {message:?}",
                        case.case_id
                    );
                    assert!(!message.contains("cached length"));
                }
                other => panic!("case {}: unexpected status {other:?}", case.case_id),
            }
        }
    }

    #[test]
    fn walks_find_and_shrink_the_seeded_bug() {
        let bundle = sortable_bundle();
        let one = Consumer::new().invariant_campaign(&bundle, &hunting_config());
        assert!(one.summary.failures > 0, "the walks must trip the bug");
        let fresh: Vec<_> = one.fresh_breakers().collect();
        assert!(!fresh.is_empty());
        for breaker in &fresh {
            assert!(
                breaker.shrunk.call_count() <= 10,
                "reproducer not minimal: {} calls\n{}",
                breaker.shrunk.call_count(),
                breaker.shrunk.render()
            );
            assert!(breaker.shrunk.call_count() <= breaker.original_calls);
            assert!(
                matches!(&breaker.failure, FailureKind::Invariant { message }
                    if message.contains("cached length")),
                "unexpected failure kind: {:?}",
                breaker.failure
            );
        }
        // Byte-identical across campaigns, transcripts included.
        let two = Consumer::new().invariant_campaign(&bundle, &hunting_config());
        assert_eq!(one, two);
    }

    #[test]
    fn shrunk_reproducer_is_exact_and_a_shrink_fixpoint() {
        let bundle = sortable_bundle();
        let campaign = Consumer::new().invariant_campaign(&bundle, &hunting_config());
        let breaker = campaign.fresh_breakers().next().expect("a breaker");

        // The exact minimal reproducer for seed 42 — committed literally
        // so any drift in generation, execution or shrinking is loud.
        // Four calls: construct both objects, remove on object 0 (which
        // marks it the thread's last remover), insert into object 1,
        // whose stale cached length then disagrees with its count.
        let expected = "\
walk CSortableObList
seed 11400714819323198527
step 0 c n1 m1 CSortableObList - []
step 1 c n1 m1 CSortableObList - []
step 0 i n13 m15 RemoveAll - []
step 1 i n2 m3 AddTail b [99]
end
";
        assert_eq!(save_sequence(&breaker.shrunk), expected);

        // Shrinking is a fixpoint: re-shrinking the reproducer changes
        // nothing, and the reproducer still fails the same way.
        let ctl = BitControl::new_enabled();
        let again = shrink_sequence(bundle.factory(), bundle.spec(), &breaker.shrunk, &ctl);
        assert_eq!(save_sequence(&again), save_sequence(&breaker.shrunk));
        let outcome =
            execute_sequence(bundle.factory(), bundle.spec(), &breaker.shrunk, &ctl, None);
        assert_eq!(
            outcome.failure.map(|f| f.kind),
            Some(breaker.failure.clone())
        );
    }

    #[test]
    fn breakers_replay_from_corpus_first_and_still_fail() {
        let bundle = sortable_bundle();
        let config = hunting_config();
        let corpus = temp_path("seeded-corpus");
        std::fs::create_dir_all(&corpus).unwrap();

        let first = Consumer::new()
            .with_corpus(&corpus)
            .invariant_campaign(&bundle, &config);
        let deposited: std::collections::BTreeSet<String> = first
            .fresh_breakers()
            .map(|b| save_sequence(&b.shrunk))
            .collect();
        assert!(!deposited.is_empty());

        let second = Consumer::new()
            .with_corpus(&corpus)
            .invariant_campaign(&bundle, &config);
        assert_eq!(
            second.summary.replayed as usize,
            deposited.len(),
            "every distinct reproducer replays exactly once"
        );
        assert_eq!(second.summary.replayed_failing, second.summary.replayed);
        let replays: Vec<_> = second.breakers.iter().filter(|b| b.from_corpus).collect();
        assert_eq!(replays.len(), deposited.len());
        assert!(
            second.breakers.first().is_some_and(|b| b.from_corpus),
            "corpus replays come before fresh discoveries"
        );
        for replay in replays {
            assert!(deposited.contains(&save_sequence(&replay.shrunk)));
        }
        let _ = std::fs::remove_dir_all(&corpus);
    }
}

// ---------------------------------------------------------------------------
// Pinned transcripts: every rendered byte of 12 fixed campaigns.
// ---------------------------------------------------------------------------

/// The transcripts, summaries and failures of fixed campaigns, pinned in
/// `tests/golden/invariant.transcripts` (`invariant.seeded.transcripts`
/// when the seeded bug is compiled in, whose walks also render `!
/// invariant` lines and shrink). One line per campaign: class, seed,
/// objects, CRC-32 and byte length of the concatenated transcripts, then
/// `summary.calls`, `checks` and `failures`. The goldens are never
/// regenerated: a mismatch means execution or rendering changed.
#[test]
fn campaign_transcripts_match_the_pinned_golden() {
    let coblist =
        SelfTestableBuilder::new(coblist_spec(), Rc::new(CObListFactory::default())).build();
    let mut got = String::new();
    for (class, bundle) in [("CSortableObList", sortable_bundle()), ("CObList", coblist)] {
        for seed in [1u64, 42, 8200] {
            for objects in [1usize, 2] {
                let config = WalkConfig::new(seed)
                    .with_walks(64)
                    .with_calls_per_walk(120)
                    .with_objects(objects);
                let campaign = Consumer::new().invariant_campaign(&bundle, &config);
                let all = campaign.transcripts.concat();
                let s = &campaign.summary;
                got.push_str(&format!(
                    "{class} seed {seed} objects {objects} crc {:08x} bytes {} calls {} checks {} failures {}\n",
                    concat::runtime::crc32(all.as_bytes()),
                    all.len(),
                    s.calls,
                    s.checks,
                    s.failures
                ));
            }
        }
    }
    let name = if cfg!(feature = "seeded-bugs") {
        "invariant.seeded.transcripts"
    } else {
        "invariant.transcripts"
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    assert_eq!(golden, got, "transcripts differ from {}", path.display());
}
