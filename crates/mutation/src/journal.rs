//! The durable verdict journal behind resumable mutation campaigns.
//!
//! The paper's test infrastructure mandates "test history creation and
//! maintenance" and "test retrieval" (§3.4): a consumer can stop testing
//! a component and pick it back up later. For mutation analysis the unit
//! of history is the per-mutant verdict, so the engine appends one
//! checksummed record to a [`concat_runtime::Journal`] as each mutant
//! finishes (write-ahead: the record is fsynced before the verdict is
//! merged). On restart the journal's verified prefix is replayed and only
//! unfinished mutants re-execute — with a deterministic engine the
//! resumed run is byte-identical to an uninterrupted one.
//!
//! Journal layout (each line checksum-framed by the runtime journal; see
//! `concat_runtime::scan_journal` for the `crc32 payload` framing):
//!
//! ```text
//! campaign <fingerprint, 8 hex digits>
//! verdict <mutant id> killed crash <case id>
//! verdict <mutant id> survived
//! verdict <mutant id> quarantined worker-crash
//! ...
//! ```
//!
//! The header fingerprint binds the journal to one campaign — subject
//! class, suite, probe suites, budget, mutant list. A journal whose
//! header does not match the resuming campaign is discarded wholesale
//! rather than replayed into the wrong run.

use crate::analysis::{KillReason, MutantStatus, MutationConfig, QuarantineReason};
use crate::enumerate::Mutant;
use concat_driver::TestSuite;
use concat_runtime::{open_headered, Crc32, Fields, Headered, Journal};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io;
use std::path::Path;

/// Computes the campaign fingerprint recorded in the journal header:
/// a CRC-32 over everything that determines the verdict vector — the
/// subject class, the killing suite, the probe suites, the BIT/budget/
/// threshold configuration, and the enumerated mutant list. The worker
/// count and the isolation mode are deliberately excluded (verdicts are
/// byte-identical for every worker count and for thread vs. process
/// shards, so a journal written by a 4-worker run resumes cleanly under
/// 1 worker — or under process isolation — and vice versa).
pub fn campaign_fingerprint(
    class_name: &str,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
) -> u32 {
    fingerprint_campaign(class_name, suite, mutants, config, false).0
}

/// The header naming a campaign: the first record of its verdict
/// journal.
pub fn campaign_header(fingerprint: u32) -> String {
    format!("campaign {fingerprint:08x}")
}

/// Decodes a [`campaign_header`] back to its fingerprint.
pub fn parse_campaign_header(record: &str) -> Option<u32> {
    let mut fields = Fields::new(record, ' ');
    fields.expect("campaign")?;
    let fingerprint = fields.hex()?;
    fields.end()?;
    Some(fingerprint)
}

/// One feature's share of the campaign: the mutated method, the
/// sub-fingerprint of everything that determines *its* mutants' verdicts,
/// and the campaign-global ids of those mutants (in enumeration order).
///
/// Incremental resume compares sub-fingerprints method by method: a
/// method whose sub-fingerprint is unchanged keeps its verdicts (remapped
/// positionally onto the new ids, which shift when an earlier method's
/// mutant inventory grows or shrinks); a changed method re-executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureFingerprint {
    /// The mutated interface method.
    pub method: String,
    /// CRC-32 over the method's mutants (id-free), the cases invoking it
    /// in the killing and probe suites, and the verdict-relevant
    /// configuration.
    pub fingerprint: u32,
    /// Campaign-global mutant ids belonging to this method, in order.
    pub mutant_ids: Vec<usize>,
}

/// Computes the per-method sub-fingerprints of a campaign (see
/// [`FeatureFingerprint`]). A method's sub-fingerprint covers exactly
/// what can change its mutants' verdicts: the method's own mutant list
/// (rendered without campaign-global ids, which are an artifact of
/// enumeration order), the cases that invoke the method
/// ([`concat_driver::TestCase::invokes`]) in the killing suite and in
/// each probe suite (the coverage contract says no other case can arm
/// its mutants), and the verdict-relevant
/// configuration. Suite seeds and campaign-global structure are
/// deliberately excluded so an unrelated method's change never
/// invalidates this one.
pub fn method_fingerprints(
    class_name: &str,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
) -> Vec<FeatureFingerprint> {
    fingerprint_campaign(class_name, suite, mutants, config, true).1
}

/// The campaign fingerprint and, when `features` is set, the per-method
/// sub-fingerprints, in one walk over the suite and probe cases. Each
/// case is rendered once into a reused buffer and fed to the campaign
/// hasher and to the hasher of every method it invokes; the hashed bytes
/// are exactly the line-per-item texts the two fingerprints are defined
/// over, but no text is ever built whole.
pub(crate) fn fingerprint_campaign(
    class_name: &str,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
    features: bool,
) -> (u32, Vec<FeatureFingerprint>) {
    let mut campaign = Crc32::new();
    let _ = writeln!(campaign, "class {class_name}");
    let _ = writeln!(campaign, "suite {} {}", suite.seed, suite.cases.len());
    // Mutants grouped by method, in first-appearance order; campaign-
    // global ids are an artifact of enumeration order and must not
    // influence a sub-fingerprint.
    let mut groups: Vec<(&str, Vec<&Mutant>, Crc32)> = Vec::new();
    if features {
        for mutant in mutants {
            match groups.iter_mut().find(|(m, ..)| *m == mutant.method()) {
                Some((_, group, _)) => group.push(mutant),
                None => {
                    let mut hasher = Crc32::new();
                    let _ = writeln!(hasher, "class {class_name}");
                    let _ = writeln!(hasher, "method {}", mutant.method());
                    groups.push((mutant.method(), vec![mutant], hasher));
                }
            }
        }
    }
    let mut rendered = String::new();
    let probes = config.probe_suites.iter().enumerate();
    let suites = std::iter::once((None, suite)).chain(probes.map(|(i, p)| (Some(i), p)));
    for (probe, cases) in suites {
        let tag = match probe {
            None => "case",
            Some(index) => {
                let _ = writeln!(campaign, "probe {} {}", cases.seed, cases.cases.len());
                for (.., hasher) in &mut groups {
                    let _ = writeln!(hasher, "probe {index}");
                }
                "probe-case"
            }
        };
        for case in &cases.cases {
            rendered.clear();
            let _ = writeln!(rendered, "{tag} {case:?}");
            campaign.update(rendered.as_bytes());
            for (method, _, hasher) in &mut groups {
                if case.invokes(method) {
                    hasher.update(rendered.as_bytes());
                }
            }
        }
    }
    write_config(&mut campaign, config);
    for mutant in mutants {
        let _ = writeln!(campaign, "mutant {mutant}");
    }
    if let Some(lineage) = config.lineage {
        let _ = writeln!(campaign, "lineage {lineage:08x}");
    }
    let features = groups
        .into_iter()
        .map(|(method, group, mut hasher)| {
            write_config(&mut hasher, config);
            if let Some(lineage) = config.lineage {
                let _ = writeln!(hasher, "lineage {lineage:08x}");
            }
            for mutant in &group {
                let _ = writeln!(hasher, "mutant [{}] {}", mutant.operator, mutant.plan);
            }
            FeatureFingerprint {
                method: method.to_owned(),
                fingerprint: hasher.finish(),
                mutant_ids: group.iter().map(|mutant| mutant.id).collect(),
            }
        })
        .collect();
    (campaign.finish(), features)
}

/// The verdict-relevant configuration both fingerprints cover.
fn write_config(out: &mut impl fmt::Write, config: &MutationConfig) {
    let _ = writeln!(out, "bit {}", config.bit_enabled);
    let threshold = config.crash_quarantine_threshold;
    let _ = writeln!(out, "crash_threshold {threshold:?}");
    let _ = writeln!(out, "budget {:?}", config.budget);
}

/// Encodes one feature record for the journal:
/// `feature <method> <sub-fingerprint> <mutant id…>`.
pub fn encode_feature(feature: &FeatureFingerprint) -> String {
    let mut record = format!("feature {} {:08x}", feature.method, feature.fingerprint);
    for id in &feature.mutant_ids {
        let _ = write!(record, " {id}");
    }
    record
}

/// Decodes a feature record; `None` for anything [`encode_feature`]
/// would not write (verdict records, the header, foreign payloads).
pub fn decode_feature(record: &str) -> Option<FeatureFingerprint> {
    let mut fields = Fields::new(record, ' ');
    fields.expect("feature")?;
    let method = fields.word()?.to_owned();
    let fingerprint = fields.hex()?;
    let mut mutant_ids = Vec::new();
    while fields.end().is_none() {
        mutant_ids.push(fields.dec()?);
    }
    Some(FeatureFingerprint {
        method,
        fingerprint,
        mutant_ids,
    })
}

/// Encodes one mutant verdict as a journal record payload.
pub fn encode_verdict(id: usize, status: &MutantStatus) -> String {
    match status {
        MutantStatus::Killed { reason, by_case } => {
            format!("verdict {id} killed {} {by_case}", reason.keyword())
        }
        MutantStatus::Survived => format!("verdict {id} survived"),
        MutantStatus::PresumedEquivalent => format!("verdict {id} equivalent"),
        MutantStatus::Quarantined { reason } => {
            format!("verdict {id} quarantined {}", reason.keyword())
        }
    }
}

/// Decodes a journal record payload back into `(mutant id, status)`;
/// `None` for anything [`encode_verdict`] would not write (the checksum
/// already passed, so this rejects foreign or non-canonical payloads).
pub fn decode_verdict(record: &str) -> Option<(usize, MutantStatus)> {
    let mut fields = Fields::new(record, ' ');
    fields.expect("verdict")?;
    let id = fields.dec()?;
    let status = match fields.word()? {
        "killed" => MutantStatus::Killed {
            reason: KillReason::from_keyword(fields.word()?)?,
            by_case: fields.dec()?,
        },
        "survived" => MutantStatus::Survived,
        "equivalent" => MutantStatus::PresumedEquivalent,
        "quarantined" => MutantStatus::Quarantined {
            reason: QuarantineReason::from_keyword(fields.word()?)?,
        },
        _ => return None,
    };
    fields.end()?;
    Some((id, status))
}

/// The verdicts among `records` for mutants this campaign has.
fn replay(records: &[String], mutant_count: usize) -> Vec<(usize, MutantStatus)> {
    records
        .iter()
        .filter_map(|record| decode_verdict(record))
        .filter(|(id, _)| *id < mutant_count)
        .collect()
}

/// A per-campaign verdict journal: opened (with recovery and replay) by
/// [`CampaignJournal::resume`], appended to as each mutant finishes.
#[derive(Debug)]
pub struct CampaignJournal {
    journal: Journal,
}

/// What [`CampaignJournal::resume_incremental`] recovered.
#[derive(Debug)]
pub struct IncrementalResume {
    /// The (re)opened journal, positioned for appends.
    pub journal: CampaignJournal,
    /// Verdicts recovered from the journal, in mutant-id order.
    pub replayed: Vec<(usize, MutantStatus)>,
    /// Whether a foreign journal was rebuilt by method-level salvage
    /// (as opposed to a clean header match or a fresh start).
    pub rebuilt: bool,
}

impl CampaignJournal {
    /// Opens the journal at `path`, repairing any torn/corrupt tail, and
    /// returns it with the verdicts to replay: every verified verdict for
    /// a known mutant id under a matching header. A missing journal, or
    /// one from a *different* campaign, is replaced by a fresh header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from recovery or the rewrite.
    pub fn resume(
        path: &Path,
        fingerprint: u32,
        mutant_count: usize,
    ) -> io::Result<(CampaignJournal, Vec<(usize, MutantStatus)>)> {
        let resume = CampaignJournal::open(path, fingerprint, None, mutant_count)?;
        Ok((resume.journal, resume.replayed))
    }

    /// Opens the journal at `path` in *incremental* mode: like
    /// [`CampaignJournal::resume`], but features are journaled and a
    /// journal from a *different* campaign is salvaged method by method.
    ///
    /// * Matching header: every verdict replays. A journal whose stored
    ///   feature records differ (e.g. one written by a plain run) is
    ///   rewritten with them, so a future change can salvage.
    /// * Missing file or mismatched header: a method whose
    ///   sub-fingerprint and mutant count are unchanged keeps its
    ///   verdicts, remapped positionally onto the new ids; the journal is
    ///   rewritten as header + features + salvaged verdicts.
    ///
    /// Every rewrite is atomic ([`Journal::rewrite`]): a kill mid-rewrite
    /// leaves the old journal.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from recovery or the rewrite.
    pub fn resume_incremental(
        path: &Path,
        fingerprint: u32,
        features: &[FeatureFingerprint],
        mutant_count: usize,
    ) -> io::Result<IncrementalResume> {
        CampaignJournal::open(path, fingerprint, Some(features), mutant_count)
    }

    /// [`CampaignJournal::resume_incremental`] when `features` is given,
    /// [`CampaignJournal::resume`] otherwise.
    pub(crate) fn open(
        path: &Path,
        fingerprint: u32,
        features: Option<&[FeatureFingerprint]>,
        mutant_count: usize,
    ) -> io::Result<IncrementalResume> {
        let header = campaign_header(fingerprint);
        let feature_records: Vec<String> = features
            .unwrap_or_default()
            .iter()
            .map(encode_feature)
            .collect();
        let (replayed, rebuilt) = match open_headered(path, &header)? {
            Headered::Matched(journal, records) => {
                let replayed = replay(&records, mutant_count);
                let stored = records.iter().filter(|r| r.starts_with("feature "));
                if features.is_none() || stored.eq(feature_records.iter()) {
                    return Ok(IncrementalResume {
                        journal: CampaignJournal { journal },
                        replayed,
                        rebuilt: false,
                    });
                }
                (replayed, false)
            }
            Headered::Foreign(records) => {
                let salvaged = features.map(|f| salvage(&records, f, mutant_count));
                let salvaged = salvaged.unwrap_or_default();
                let rebuilt = !salvaged.is_empty();
                (salvaged, rebuilt)
            }
        };
        let mut batch = vec![header];
        batch.extend(feature_records);
        batch.extend(replayed.iter().map(|(id, s)| encode_verdict(*id, s)));
        let journal = CampaignJournal {
            journal: Journal::rewrite(path, &batch)?,
        };
        Ok(IncrementalResume {
            journal,
            replayed,
            rebuilt,
        })
    }

    /// Durably appends one verdict; when this returns `Ok` the verdict
    /// survives a process kill.
    ///
    /// # Errors
    ///
    /// Propagates the append/fsync error.
    pub fn record(&mut self, id: usize, status: &MutantStatus) -> io::Result<()> {
        self.journal.append(&encode_verdict(id, status))
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }
}

/// The verdicts a foreign journal (`records`, header first) still holds
/// for this campaign's `features`, in new-id order.
fn salvage(
    records: &[String],
    features: &[FeatureFingerprint],
    mutant_count: usize,
) -> Vec<(usize, MutantStatus)> {
    let Some((header, records)) = records.split_first() else {
        return Vec::new();
    };
    if parse_campaign_header(header).is_none() {
        return Vec::new();
    }
    let mut old_features: BTreeMap<String, (u32, Vec<usize>)> = BTreeMap::new();
    let mut old_verdicts: BTreeMap<usize, MutantStatus> = BTreeMap::new();
    for record in records {
        if let Some(feature) = decode_feature(record) {
            old_features
                .entry(feature.method)
                .or_insert((feature.fingerprint, feature.mutant_ids));
        } else if let Some((id, status)) = decode_verdict(record) {
            old_verdicts.entry(id).or_insert(status);
        }
    }
    let mut salvaged: Vec<(usize, MutantStatus)> = Vec::new();
    for feature in features {
        let Some((old_fp, old_ids)) = old_features.get(&feature.method) else {
            continue;
        };
        if *old_fp != feature.fingerprint || old_ids.len() != feature.mutant_ids.len() {
            continue;
        }
        for (&new_id, old_id) in feature.mutant_ids.iter().zip(old_ids) {
            if new_id < mutant_count {
                if let Some(status) = old_verdicts.get(old_id) {
                    salvaged.push((new_id, status.clone()));
                }
            }
        }
    }
    salvaged.sort_by_key(|(id, _)| *id);
    salvaged
}

#[cfg(test)]
mod tests {
    use super::*;
    use concat_runtime::recover_journal;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("concat-mutation-journal-{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn resume_replays_matching_campaign_and_resets_foreign_one() {
        let dir = scratch("resume");
        let path = dir.join("campaign.journal");
        let (mut journal, replayed) = CampaignJournal::resume(&path, 0xABCD, 10).unwrap();
        assert!(replayed.is_empty());
        journal.record(2, &MutantStatus::Survived).unwrap();
        journal
            .record(
                5,
                &MutantStatus::Quarantined {
                    reason: QuarantineReason::WorkerCrash,
                },
            )
            .unwrap();
        // Out-of-range record is ignored on replay, not an error.
        journal.record(99, &MutantStatus::Survived).unwrap();
        drop(journal);

        let (_journal, replayed) = CampaignJournal::resume(&path, 0xABCD, 10).unwrap();
        assert_eq!(
            replayed,
            vec![
                (2, MutantStatus::Survived),
                (
                    5,
                    MutantStatus::Quarantined {
                        reason: QuarantineReason::WorkerCrash
                    }
                ),
            ]
        );

        // A different fingerprint discards the stored verdicts.
        let (_journal, replayed) = CampaignJournal::resume(&path, 0x1234, 10).unwrap();
        assert!(replayed.is_empty());
        let (_journal, replayed) = CampaignJournal::resume(&path, 0x1234, 10).unwrap();
        assert!(replayed.is_empty(), "old campaign's verdicts are gone");
        fs::remove_dir_all(&dir).unwrap();
    }

    use crate::fault::{FaultPlan, Replacement};
    use crate::operators::MutationOperator;
    use concat_driver::{MethodCall, TestCase};
    use concat_runtime::{Rng, Value};

    fn mutant(id: usize, method: &str, site: u32) -> Mutant {
        Mutant {
            id,
            operator: MutationOperator::IndVarBitNeg,
            plan: FaultPlan {
                method: method.into(),
                site,
                replacement: Replacement::BitNeg,
            },
        }
    }

    fn case(id: usize, methods: &[&str]) -> TestCase {
        TestCase {
            id,
            transaction_index: id,
            node_path: Vec::new(),
            constructor: MethodCall::generated("m0", "New", Vec::new()),
            calls: methods
                .iter()
                .map(|m| MethodCall::generated("m1", *m, Vec::new()))
                .collect(),
        }
    }

    fn suite(cases: Vec<TestCase>) -> TestSuite {
        let mut suite = TestSuite {
            class_name: "Acc".into(),
            seed: 7,
            cases,
            stats: Default::default(),
        };
        suite.stats.cases = suite.cases.len();
        suite
    }

    /// The two-render fingerprints this module computed before the
    /// one-pass walk: each builds its whole text, then checksums it. Kept
    /// as the reference every stored journal header and feature record
    /// was written under.
    fn campaign_fingerprint_oracle(
        class_name: &str,
        suite: &TestSuite,
        mutants: &[Mutant],
        config: &MutationConfig,
    ) -> u32 {
        let mut text = String::new();
        let _ = writeln!(text, "class {class_name}");
        let _ = writeln!(text, "suite {} {}", suite.seed, suite.cases.len());
        for case in &suite.cases {
            let _ = writeln!(text, "case {case:?}");
        }
        for probe in &config.probe_suites {
            let _ = writeln!(text, "probe {} {}", probe.seed, probe.cases.len());
            for case in &probe.cases {
                let _ = writeln!(text, "probe-case {case:?}");
            }
        }
        write_config(&mut text, config);
        for mutant in mutants {
            let _ = writeln!(text, "mutant {mutant}");
        }
        if let Some(lineage) = config.lineage {
            let _ = writeln!(text, "lineage {lineage:08x}");
        }
        concat_runtime::crc32(text.as_bytes())
    }

    fn method_fingerprints_oracle(
        class_name: &str,
        suite: &TestSuite,
        mutants: &[Mutant],
        config: &MutationConfig,
    ) -> Vec<FeatureFingerprint> {
        let mut groups: Vec<(&str, Vec<&Mutant>)> = Vec::new();
        for mutant in mutants {
            match groups
                .iter_mut()
                .find(|(method, _)| *method == mutant.method())
            {
                Some((_, group)) => group.push(mutant),
                None => groups.push((mutant.method(), vec![mutant])),
            }
        }
        groups
            .into_iter()
            .map(|(method, group)| {
                let mut text = String::new();
                let _ = writeln!(text, "class {class_name}");
                let _ = writeln!(text, "method {method}");
                for case in suite.cases.iter().filter(|c| c.invokes(method)) {
                    let _ = writeln!(text, "case {case:?}");
                }
                for (index, probe) in config.probe_suites.iter().enumerate() {
                    let _ = writeln!(text, "probe {index}");
                    for case in probe.cases.iter().filter(|c| c.invokes(method)) {
                        let _ = writeln!(text, "probe-case {case:?}");
                    }
                }
                write_config(&mut text, config);
                if let Some(lineage) = config.lineage {
                    let _ = writeln!(text, "lineage {lineage:08x}");
                }
                for mutant in &group {
                    let _ = writeln!(text, "mutant [{}] {}", mutant.operator, mutant.plan);
                }
                FeatureFingerprint {
                    method: method.to_owned(),
                    fingerprint: concat_runtime::crc32(text.as_bytes()),
                    mutant_ids: group.iter().map(|mutant| mutant.id).collect(),
                }
            })
            .collect()
    }

    /// A seeded random suite over `methods`; arguments mix every scalar
    /// kind, strings with escapes, and nested lists.
    fn random_suite(rng: &mut Rng, methods: &[&str]) -> TestSuite {
        fn value(rng: &mut Rng, depth: usize) -> Value {
            match rng.index(if depth < 2 { 6 } else { 5 }) {
                0 => Value::Null,
                1 => Value::Bool(rng.coin()),
                2 => Value::Int(rng.int_in(i64::MIN, i64::MAX)),
                3 => Value::Float(rng.float_in(-1e6, 1e6)),
                4 => Value::Str(["", "Mary", "a \"q\"\n", "ü"][rng.index(4)].to_owned()),
                _ => Value::List((0..rng.index(3)).map(|_| value(rng, depth + 1)).collect()),
            }
        }
        let cases = (0..rng.index(12))
            .map(|id| {
                let calls = (0..rng.index(5))
                    .map(|c| {
                        let args = (0..rng.index(3)).map(|_| value(rng, 0)).collect();
                        MethodCall::generated(
                            format!("m{c}"),
                            methods[rng.index(methods.len())],
                            args,
                        )
                    })
                    .collect();
                TestCase {
                    id,
                    transaction_index: rng.index(4),
                    node_path: (0..rng.index(3)).map(|n| format!("n{n}")).collect(),
                    constructor: MethodCall::generated("m0", "New", Vec::new()),
                    calls,
                }
            })
            .collect();
        suite(cases)
    }

    #[test]
    fn one_pass_fingerprints_equal_the_two_render_oracle_on_random_campaigns() {
        let methods = ["Scale", "Bump", "Reset", "New"];
        let mut rng = Rng::seed_from_u64(0xF19E12);
        for round in 0..300 {
            let base = random_suite(&mut rng, &methods);
            let mut config = MutationConfig {
                probe_suites: (0..rng.index(3))
                    .map(|_| random_suite(&mut rng, &methods))
                    .collect(),
                bit_enabled: rng.coin(),
                crash_quarantine_threshold: rng.coin().then(|| rng.index(4)),
                incremental: rng.coin(),
                lineage: rng.coin().then(|| rng.next_u64() as u32),
                ..MutationConfig::default()
            };
            config.budget.max_calls = rng.coin().then(|| rng.index(1000));
            // "Ghost" is mutated but invoked by no case.
            let mutated = ["Scale", "Bump", "Ghost", "New"];
            let mutants: Vec<Mutant> = (0..rng.index(8))
                .map(|id| mutant(id, mutated[rng.index(mutated.len())], rng.index(3) as u32))
                .collect();
            let expected_fp = campaign_fingerprint_oracle("Acc", &base, &mutants, &config);
            let expected_features = method_fingerprints_oracle("Acc", &base, &mutants, &config);
            let (fp, features) =
                fingerprint_campaign("Acc", &base, &mutants, &config, config.incremental);
            assert_eq!(fp, expected_fp, "round {round}");
            if config.incremental {
                assert_eq!(features, expected_features, "round {round}");
            } else {
                assert!(features.is_empty(), "round {round}");
            }
            assert_eq!(campaign_fingerprint("Acc", &base, &mutants, &config), fp);
            assert_eq!(
                method_fingerprints("Acc", &base, &mutants, &config),
                expected_features,
                "round {round}"
            );
        }
    }

    #[test]
    fn feature_records_round_trip_and_reject_malformed() {
        let feature = FeatureFingerprint {
            method: "Scale".into(),
            fingerprint: 0xDEAD_BEEF,
            mutant_ids: vec![0, 1, 5],
        };
        let record = encode_feature(&feature);
        assert_eq!(record, "feature Scale deadbeef 0 1 5");
        assert_eq!(decode_feature(&record), Some(feature));
        for bad in [
            "",
            "feature",
            "feature Scale",
            "feature Scale nothex 1",
            "feature Scale 00ff00ff one",
            "verdict 1 survived",
        ] {
            assert_eq!(decode_feature(bad), None, "{bad:?} must not decode");
        }
    }

    #[test]
    fn method_fingerprints_ignore_id_shifts_but_track_covering_cases() {
        let config = MutationConfig::default();
        let base = suite(vec![case(0, &["Scale"]), case(1, &["Bump"])]);
        let mutants = vec![mutant(0, "Scale", 0), mutant(1, "Bump", 0)];
        let features = method_fingerprints("Acc", &base, &mutants, &config);
        assert_eq!(features.len(), 2);
        assert_eq!(features[0].method, "Scale");
        assert_eq!(features[0].mutant_ids, vec![0]);
        assert_eq!(features[1].method, "Bump");
        assert_eq!(features[1].mutant_ids, vec![1]);

        // An extra Scale mutant shifts Bump's global id, but Bump's
        // sub-fingerprint must not move.
        let grown = vec![
            mutant(0, "Scale", 0),
            mutant(1, "Scale", 1),
            mutant(2, "Bump", 0),
        ];
        let regrown = method_fingerprints("Acc", &base, &grown, &config);
        assert_eq!(regrown[1].method, "Bump");
        assert_eq!(regrown[1].mutant_ids, vec![2]);
        assert_eq!(regrown[1].fingerprint, features[1].fingerprint);
        assert_ne!(regrown[0].fingerprint, features[0].fingerprint);

        // Changing a case that covers only Bump leaves Scale alone.
        let retouched = suite(vec![case(0, &["Scale"]), case(1, &["Bump", "Bump"])]);
        let touched = method_fingerprints("Acc", &retouched, &mutants, &config);
        assert_eq!(touched[0].fingerprint, features[0].fingerprint);
        assert_ne!(touched[1].fingerprint, features[1].fingerprint);
    }

    #[test]
    fn resume_incremental_salvages_unchanged_methods_across_id_shifts() {
        let dir = scratch("incremental-salvage");
        let path = dir.join("campaign.journal");
        let config = MutationConfig::default();
        let base = suite(vec![case(0, &["Scale"]), case(1, &["Bump"])]);
        let old_mutants = vec![mutant(0, "Scale", 0), mutant(1, "Bump", 0)];
        let old_fp = campaign_fingerprint("Acc", &base, &old_mutants, &config);
        let old_features = method_fingerprints("Acc", &base, &old_mutants, &config);

        let IncrementalResume {
            mut journal,
            replayed,
            rebuilt,
        } = CampaignJournal::resume_incremental(&path, old_fp, &old_features, 2).unwrap();
        assert!(replayed.is_empty());
        assert!(!rebuilt);
        journal
            .record(
                0,
                &MutantStatus::Killed {
                    reason: KillReason::Crash,
                    by_case: 0,
                },
            )
            .unwrap();
        journal.record(1, &MutantStatus::Survived).unwrap();
        drop(journal);

        // Warm re-run of the identical campaign: pure replay, no rewrite.
        let IncrementalResume {
            replayed, rebuilt, ..
        } = CampaignJournal::resume_incremental(&path, old_fp, &old_features, 2).unwrap();
        assert_eq!(replayed.len(), 2);
        assert!(!rebuilt);

        // Scale grows a mutant: Bump's ids shift 1 -> 2 but its verdict
        // must be salvaged; Scale's verdict is dropped.
        let new_mutants = vec![
            mutant(0, "Scale", 0),
            mutant(1, "Scale", 1),
            mutant(2, "Bump", 0),
        ];
        let new_fp = campaign_fingerprint("Acc", &base, &new_mutants, &config);
        assert_ne!(new_fp, old_fp);
        let new_features = method_fingerprints("Acc", &base, &new_mutants, &config);
        let IncrementalResume {
            replayed, rebuilt, ..
        } = CampaignJournal::resume_incremental(&path, new_fp, &new_features, 3).unwrap();
        assert_eq!(replayed, vec![(2, MutantStatus::Survived)]);
        assert!(rebuilt);

        // The rewritten journal replays cleanly as the new campaign.
        let IncrementalResume {
            replayed, rebuilt, ..
        } = CampaignJournal::resume_incremental(&path, new_fp, &new_features, 3).unwrap();
        assert_eq!(replayed, vec![(2, MutantStatus::Survived)]);
        assert!(!rebuilt);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_incremental_upgrades_a_plain_journal_in_place() {
        let dir = scratch("incremental-upgrade");
        let path = dir.join("campaign.journal");
        let config = MutationConfig::default();
        let base = suite(vec![case(0, &["Scale"])]);
        let mutants = vec![mutant(0, "Scale", 0)];
        let fp = campaign_fingerprint("Acc", &base, &mutants, &config);
        let features = method_fingerprints("Acc", &base, &mutants, &config);

        // A non-incremental run writes header + verdicts, no features.
        let (mut journal, _) = CampaignJournal::resume(&path, fp, 1).unwrap();
        journal.record(0, &MutantStatus::Survived).unwrap();
        drop(journal);

        let IncrementalResume {
            replayed, rebuilt, ..
        } = CampaignJournal::resume_incremental(&path, fp, &features, 1).unwrap();
        assert_eq!(replayed, vec![(0, MutantStatus::Survived)]);
        assert!(!rebuilt);

        // The upgrade persisted: the plain resume path still replays (it
        // skips feature records), and the feature records are now stored.
        let (_journal, replayed) = CampaignJournal::resume(&path, fp, 1).unwrap();
        assert_eq!(replayed, vec![(0, MutantStatus::Survived)]);
        let (_, scan) = recover_journal(&path).unwrap();
        assert!(scan.records.iter().any(|r| r.starts_with("feature Scale ")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_incremental_discards_changed_methods() {
        let dir = scratch("incremental-discard");
        let path = dir.join("campaign.journal");
        let config = MutationConfig::default();
        let base = suite(vec![case(0, &["Scale"]), case(1, &["Bump"])]);
        let mutants = vec![mutant(0, "Scale", 0), mutant(1, "Bump", 0)];
        let fp = campaign_fingerprint("Acc", &base, &mutants, &config);
        let features = method_fingerprints("Acc", &base, &mutants, &config);
        let IncrementalResume { mut journal, .. } =
            CampaignJournal::resume_incremental(&path, fp, &features, 2).unwrap();
        journal.record(0, &MutantStatus::Survived).unwrap();
        journal.record(1, &MutantStatus::Survived).unwrap();
        drop(journal);

        // A new covering case for Bump changes its sub-fingerprint: only
        // Scale's verdict survives the resume.
        let touched = suite(vec![case(0, &["Scale"]), case(1, &["Bump", "Bump"])]);
        let new_fp = campaign_fingerprint("Acc", &touched, &mutants, &config);
        let new_features = method_fingerprints("Acc", &touched, &mutants, &config);
        let IncrementalResume {
            replayed, rebuilt, ..
        } = CampaignJournal::resume_incremental(&path, new_fp, &new_features, 2).unwrap();
        assert_eq!(replayed, vec![(0, MutantStatus::Survived)]);
        assert!(rebuilt);
        fs::remove_dir_all(&dir).unwrap();
    }
}
