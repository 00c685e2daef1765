//! Incremental change-aware analysis: a warm rerun of an unchanged
//! campaign is pure journal replay, and a campaign widened by one method
//! re-executes only that method's mutants, salvaging the others' verdicts
//! across the campaign-global id shift, and a journal written in-thread
//! replays under process shards. These are the `Q3-INC-*` cells of the
//! qualification matrix (`tests/matrix/mod.rs`). The paper campaigns'
//! fingerprints, which every journal records, are pinned in a golden.

mod matrix;

use concat::core::Consumer;
use concat::driver::{Expansion, GeneratorConfig};
use concat::mutation::{campaign_fingerprint, method_fingerprints};
use concat_bench::{
    coblist_bundle_sharded, sortable_bundle_sharded, PROBE_SEEDS, SEED, TABLE2_METHODS,
    TABLE3_METHODS,
};
use std::fmt::Write as _;
use std::path::Path;

#[test]
fn warm_rerun_of_unchanged_campaign_is_pure_replay() {
    matrix::qualify("warm_rerun_of_unchanged_campaign_is_pure_replay");
}

#[test]
fn one_method_change_reexecutes_only_that_method() {
    matrix::qualify("one_method_change_reexecutes_only_that_method");
}

#[test]
fn incremental_campaign_replays_across_isolation_modes() {
    matrix::qualify("incremental_campaign_replays_across_isolation_modes");
}

/// The campaign fingerprint and every per-method sub-fingerprint of the
/// paper's Table-2 and Table-3 campaigns, pinned in
/// `tests/golden/campaign.fingerprints`. Journals record these values,
/// so a change to either fingerprint turns every journal written before
/// it into a cold run. The golden is never regenerated: a mismatch means
/// the fingerprints changed, not the golden.
#[test]
fn paper_campaign_fingerprints_match_the_pinned_golden() {
    let mut got = String::new();
    for (table, bundle, targets) in [
        (2, sortable_bundle_sharded(), &TABLE2_METHODS[..]),
        (3, coblist_bundle_sharded(), &TABLE3_METHODS[..]),
    ] {
        let consumer = Consumer::with_config(GeneratorConfig {
            seed: SEED,
            expansion: Expansion::Covering { repeats: 1 },
            ..GeneratorConfig::default()
        });
        let suite = consumer.generate(&bundle).expect("shipped spec generates");
        let req = consumer
            .campaign_request(&bundle, &suite, targets, &PROBE_SEEDS)
            .expect("bundle carries mutation support and shards");
        let fingerprint = campaign_fingerprint(&req.name, &req.suite, &req.mutants, &req.config);
        writeln!(got, "table{table} campaign {fingerprint:08x}").unwrap();
        for feature in method_fingerprints(&req.name, &req.suite, &req.mutants, &req.config) {
            write!(
                got,
                "table{table} method {} {:08x}",
                feature.method, feature.fingerprint
            )
            .unwrap();
            for id in &feature.mutant_ids {
                write!(got, " {id}").unwrap();
            }
            got.push('\n');
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/campaign.fingerprints");
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    assert_eq!(
        golden,
        got,
        "fingerprints differ from {}; journals written before would no longer replay",
        path.display()
    );
}
