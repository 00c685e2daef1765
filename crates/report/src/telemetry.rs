//! Renderers for the telemetry spine and model-size metrics.
//!
//! * [`render_telemetry_summary`] — timing/counter/gauge tables over a
//!   [`concat_obs::Summary`], the human-readable end of the pipeline
//!   instrumentation;
//! * [`render_harness_health`] — fail-safe counters, always rendered
//!   with explicit zeros;
//! * [`render_attribution`] — hot-path attribution over a recorded
//!   campaign event stream (phase breakdown, selection savings, hot
//!   mutants);
//! * [`render_model_metrics_table`] — per-subject-class TFM size figures
//!   (the paper reports its models as "16 nodes and 43 links").

use crate::table::AsciiTable;
use concat_obs::{Event, Histogram, Summary};
use concat_tfm::ModelMetrics;

/// Formats a nanosecond duration with a human-scale unit (`ns`, `us`,
/// `ms`, `s`), three significant-ish digits.
fn fmt_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}us", n / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", n / 1_000_000.0)
    } else {
        format!("{:.3}s", n / 1_000_000_000.0)
    }
}

/// Renders a telemetry [`Summary`] as up to three tables: span timings
/// (count/min/mean/p50/p95/max per kind), counter totals, and final
/// gauge values. Sections with no data are omitted; an empty summary
/// renders a single explanatory line.
pub fn render_telemetry_summary(title: &str, summary: &Summary) -> String {
    let mut out = format!("{title}\n");
    if summary.spans.is_empty() && summary.counters.is_empty() && summary.gauges.is_empty() {
        out.push_str("(no telemetry recorded)\n");
        return out;
    }
    if !summary.spans.is_empty() {
        let mut t = AsciiTable::new(vec![
            "Span".into(),
            "Count".into(),
            "Min".into(),
            "Mean".into(),
            "P50".into(),
            "P95".into(),
            "Max".into(),
        ]);
        t.numeric();
        for (kind, s) in &summary.spans {
            t.row(vec![
                (*kind).into(),
                s.count.to_string(),
                fmt_nanos(s.min_nanos),
                fmt_nanos(s.mean_nanos),
                fmt_nanos(s.p50_nanos),
                fmt_nanos(s.p95_nanos),
                fmt_nanos(s.max_nanos),
            ]);
        }
        out.push_str(&t.render());
    }
    if !summary.counters.is_empty() {
        let mut t = AsciiTable::new(vec!["Counter".into(), "Total".into()]);
        t.numeric();
        for (name, total) in &summary.counters {
            t.row(vec![(*name).into(), total.to_string()]);
        }
        out.push_str(&t.render());
    }
    if !summary.gauges.is_empty() {
        let mut t = AsciiTable::new(vec!["Gauge".into(), "Value".into()]);
        t.numeric();
        for (name, value) in &summary.gauges {
            t.row(vec![(*name).into(), value.to_string()]);
        }
        out.push_str(&t.render());
    }
    out
}

/// The hardening counters surfaced by [`render_harness_health`], with a
/// short description each. Listed explicitly (rather than filtering the
/// summary by prefix) so a healthy run still renders every row with an
/// explicit `0` — absence of evidence is made visible.
const HARNESS_COUNTERS: [(&str, &str); 27] = [
    ("orchestrator.admitted", "campaigns admitted to the fleet"),
    (
        "orchestrator.rejected",
        "campaign submits refused by admission control",
    ),
    ("orchestrator.cancelled", "campaigns cancelled on request"),
    (
        "orchestrator.resumed",
        "campaigns that replayed journal verdicts on admission",
    ),
    ("orchestrator.completed", "campaigns completed by the fleet"),
    (
        "orchestrator.degraded",
        "campaigns degraded (budget/harness) without touching neighbors",
    ),
    ("orchestrator.leases", "mutant leases handed to fleet slots"),
    ("harden.retry", "I/O retries after transient failures"),
    ("harden.degraded", "sinks degraded after retry exhaustion"),
    ("mutation.quarantined", "mutants excluded from the score"),
    (
        "case.deadline_exceeded",
        "test cases stopped by the watchdog",
    ),
    ("case.budget_exhausted", "test cases stopped by a budget"),
    (
        "mutation.worker_crash",
        "worker panics contained (#worker_crashes)",
    ),
    (
        "mutation.shard_kill",
        "process shards killed for missed heartbeats",
    ),
    (
        "mutation.shard_respawn",
        "process shards respawned after a death",
    ),
    (
        "mutation.restarts_exhausted",
        "campaigns that ran out of worker restarts",
    ),
    (
        "mutation.frames_dropped",
        "torn/corrupt verdict frames dropped",
    ),
    (
        "mutation.replayed",
        "journal verdicts replayed on resume (#replayed)",
    ),
    (
        "mutation.incremental_rebuild",
        "journals salvaged method-by-method after a change",
    ),
    (
        "selection.skipped",
        "case executions skipped by coverage selection",
    ),
    ("amplify.rounds", "amplification rounds executed"),
    (
        "amplify.kills",
        "surviving mutants killed by amplified cases",
    ),
    ("amplify.pruned", "stale round journals pruned"),
    (
        "corpus.seeded",
        "amplification candidates seeded from the corpus",
    ),
    ("corpus.deposited", "killer cases deposited into the corpus"),
    ("obs.dropped", "telemetry events dropped by degraded sinks"),
    (
        "obs.retries",
        "telemetry sink writes retried before success",
    ),
];

/// Renders the fail-safe execution health table: retry, degradation,
/// quarantine and budget counters from a telemetry [`Summary`]. Every
/// row is always present — a zero means the mechanism was armed and
/// never fired, which is the expected healthy reading. When the summary
/// carries a `mutation.workers` gauge (set by the parallel mutation
/// engine), a final row reports the worker-pool size of the run.
pub fn render_harness_health(title: &str, summary: &Summary) -> String {
    let mut t = AsciiTable::new(vec!["Counter".into(), "Total".into(), "Meaning".into()]);
    t.align(1, crate::table::Align::Right);
    for (name, meaning) in HARNESS_COUNTERS {
        let total = summary.counters.get(name).copied().unwrap_or(0);
        t.row(vec![name.into(), total.to_string(), meaning.into()]);
    }
    if let Some(workers) = summary.gauge("mutation.workers") {
        t.row(vec![
            "mutation.workers".into(),
            workers.to_string(),
            "mutation analysis worker pool size".into(),
        ]);
    }
    if let Some(slots) = summary.gauge("orchestrator.slots") {
        t.row(vec![
            "orchestrator.slots".into(),
            slots.to_string(),
            "campaign fleet slot-worker count".into(),
        ]);
    }
    format!("{title}\n{}", t.render())
}

/// One campaign's standing in the fleet table rendered by
/// [`render_fleet_table`]. A plain-data mirror of the orchestrator's
/// campaign status (this crate renders, it does not depend on the
/// mutation engine): identity, phase, merge progress, scheduling
/// priority, and the effective per-slot supervision deadlines the
/// campaign's process shards run under.
#[derive(Debug, Clone)]
pub struct FleetCampaignRow {
    /// Campaign id as displayed (e.g. `c3`).
    pub id: String,
    /// Campaign name (usually the subject class).
    pub name: String,
    /// Lifecycle phase (e.g. `running`, `degraded(budget-exhausted)`).
    pub phase: String,
    /// Mutants with a merged verdict.
    pub done: usize,
    /// Total mutants in the campaign.
    pub total: usize,
    /// Verdicts executed by fleet slots this service run.
    pub executed: u64,
    /// Verdicts replayed from the campaign journal on admission.
    pub replayed: u64,
    /// Scheduling priority (higher is served first).
    pub priority: u8,
    /// Startup grace before the first shard heartbeat is due (ms).
    pub startup_grace_ms: u64,
    /// Heartbeat silence tolerated before a shard is killed (ms).
    pub heartbeat_timeout_ms: u64,
    /// SIGTERM-to-SIGKILL escalation grace for shard teardown (ms).
    pub term_grace_ms: u64,
}

/// Renders the per-campaign fleet table: one row per campaign with its
/// phase, merge progress (`done/total` plus executed-vs-replayed
/// split), priority, and the effective slot supervision deadlines
/// (startup grace / heartbeat timeout / term grace) that campaign's
/// process shards run under. Rows render in the order given; an empty
/// fleet renders an explanatory line instead of a bare header.
pub fn render_fleet_table(title: &str, rows: &[FleetCampaignRow]) -> String {
    if rows.is_empty() {
        return format!("{title}\n(no campaigns)\n");
    }
    let mut t = AsciiTable::new(vec![
        "Id".into(),
        "Campaign".into(),
        "Phase".into(),
        "Done".into(),
        "Executed".into(),
        "Replayed".into(),
        "Prio".into(),
        "Startup".into(),
        "Heartbeat".into(),
        "TermGrace".into(),
    ]);
    t.align(3, crate::table::Align::Right);
    t.align(4, crate::table::Align::Right);
    t.align(5, crate::table::Align::Right);
    t.align(6, crate::table::Align::Right);
    t.align(7, crate::table::Align::Right);
    t.align(8, crate::table::Align::Right);
    t.align(9, crate::table::Align::Right);
    for row in rows {
        t.row(vec![
            row.id.clone(),
            row.name.clone(),
            row.phase.clone(),
            format!("{}/{}", row.done, row.total),
            row.executed.to_string(),
            row.replayed.to_string(),
            row.priority.to_string(),
            fmt_nanos(row.startup_grace_ms.saturating_mul(1_000_000)),
            fmt_nanos(row.heartbeat_timeout_ms.saturating_mul(1_000_000)),
            fmt_nanos(row.term_grace_ms.saturating_mul(1_000_000)),
        ]);
    }
    format!("{title}\n{}", t.render())
}

/// The campaign phases the attribution table breaks wall-clock into, in
/// display order, with a short description each. Only phases present in
/// the recorded stream are rendered.
const ATTRIBUTION_PHASES: [(&str, &str); 10] = [
    ("mutation", "whole campaign (wall)"),
    ("golden", "baseline suite and probe runs"),
    ("worker", "parallel worker lifetimes"),
    ("mutant", "mutant test execution"),
    ("probe", "oracle-validity probes"),
    ("suite", "suite dispatch"),
    ("case", "individual test cases"),
    ("merge", "verdict merge + telemetry absorb"),
    ("journal", "journal open/append I/O"),
    ("amplify.round", "amplification rounds"),
];

/// How many of the slowest mutants the attribution report lists.
const HOT_MUTANTS: usize = 5;

/// Per-label accumulation for the hot-mutant table.
#[derive(Default)]
struct HotSpot {
    runs: u64,
    total_nanos: u64,
    self_nanos: u64,
}

/// Walks the event stream once and accumulates, per `mutant` span label,
/// run count, total time and self time (total minus direct children).
/// Mirrors the open-span walk in [`Summary::from_events`], but keyed by
/// label rather than kind — the summary aggregates per kind, while the
/// hot-mutant table needs to say *which* mutant was slow.
fn hot_mutants(events: &[Event]) -> Vec<(String, HotSpot)> {
    struct Open {
        parent: Option<u64>,
        child_nanos: u64,
    }
    let mut open: std::collections::HashMap<u64, Vec<Open>> = std::collections::HashMap::new();
    let mut by_label: std::collections::HashMap<String, HotSpot> = std::collections::HashMap::new();
    for event in events {
        match event {
            Event::SpanStart { id, parent, .. } => {
                open.entry(*id).or_default().push(Open {
                    parent: *parent,
                    child_nanos: 0,
                });
            }
            Event::SpanEnd {
                kind,
                label,
                id,
                nanos,
                ..
            } => {
                let entry = open
                    .get_mut(id)
                    .and_then(|stack| stack.pop())
                    .unwrap_or(Open {
                        parent: None,
                        child_nanos: 0,
                    });
                if *kind == "mutant" {
                    let spot = by_label.entry(label.clone()).or_default();
                    spot.runs += 1;
                    spot.total_nanos = spot.total_nanos.saturating_add(*nanos);
                    spot.self_nanos = spot
                        .self_nanos
                        .saturating_add(nanos.saturating_sub(entry.child_nanos));
                }
                if let Some(parent_id) = entry.parent {
                    if let Some(parent) =
                        open.get_mut(&parent_id).and_then(|stack| stack.last_mut())
                    {
                        parent.child_nanos = parent.child_nanos.saturating_add(*nanos);
                    }
                }
            }
            _ => {}
        }
    }
    let mut spots: Vec<(String, HotSpot)> = by_label.into_iter().collect();
    // Slowest first; ties broken by label so the table is deterministic.
    spots.sort_by(|a, b| b.1.total_nanos.cmp(&a.1.total_nanos).then(a.0.cmp(&b.0)));
    spots
}

/// Formats `part` as a percentage of `whole`, one decimal place.
fn fmt_percent(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".into()
    } else {
        format!("{:.1}%", part as f64 * 100.0 / whole as f64)
    }
}

/// Renders the hot-path attribution report over a recorded campaign
/// event stream: a phase table breaking campaign wall-clock down by span
/// kind (total time, *self* time excluding children, and the share of
/// wall), a selection-savings line estimating the time the coverage
/// fast path avoided (`selection.skipped` × mean case duration), and
/// the slowest mutants by total time with self-vs-child split.
///
/// Takes the raw event stream rather than a [`Summary`] because the
/// hot-mutant table needs span *labels*, which the per-kind summary
/// deliberately discards.
///
/// Phase totals sum across workers, so on a parallel campaign a phase
/// can legitimately exceed 100% of wall — the wall share then reads as
/// CPU-time concentration (e.g. 195% ≈ two workers saturated by that
/// phase), which is exactly what hot-path hunting wants.
pub fn render_attribution(title: &str, events: &[Event]) -> String {
    let summary = Summary::from_events(events);
    let mut out = format!("{title}\n");
    if summary.spans.is_empty() {
        out.push_str("(no campaign telemetry recorded)\n");
        return out;
    }
    let wall = summary
        .histogram("mutation")
        .map(Histogram::sum_nanos)
        .unwrap_or(0);

    let mut t = AsciiTable::new(vec![
        "Phase".into(),
        "Count".into(),
        "Total".into(),
        "Self".into(),
        "% wall".into(),
        "What".into(),
    ]);
    t.align(1, crate::table::Align::Right);
    t.align(2, crate::table::Align::Right);
    t.align(3, crate::table::Align::Right);
    t.align(4, crate::table::Align::Right);
    for (kind, what) in ATTRIBUTION_PHASES {
        let Some(h) = summary.histogram(kind) else {
            continue;
        };
        let self_total = summary
            .self_histogram(kind)
            .map(Histogram::sum_nanos)
            .unwrap_or(0);
        t.row(vec![
            kind.into(),
            h.count().to_string(),
            fmt_nanos(h.sum_nanos()),
            fmt_nanos(self_total),
            fmt_percent(h.sum_nanos(), wall),
            what.into(),
        ]);
    }
    out.push_str(&t.render());

    let skipped = summary.counter("selection.skipped");
    if skipped > 0 {
        let mean_case = summary.span("case").map(|s| s.mean_nanos).unwrap_or(0);
        out.push_str(&format!(
            "selection fast path: {} case executions skipped, ~{} saved ({} mean case)\n",
            skipped,
            fmt_nanos(skipped.saturating_mul(mean_case)),
            fmt_nanos(mean_case),
        ));
    }

    let spots = hot_mutants(events);
    if !spots.is_empty() {
        let mut t = AsciiTable::new(vec![
            "Hot mutant".into(),
            "Runs".into(),
            "Total".into(),
            "Self".into(),
            "% wall".into(),
        ]);
        t.align(1, crate::table::Align::Right);
        t.align(2, crate::table::Align::Right);
        t.align(3, crate::table::Align::Right);
        t.align(4, crate::table::Align::Right);
        for (label, spot) in spots.iter().take(HOT_MUTANTS) {
            t.row(vec![
                label.clone(),
                spot.runs.to_string(),
                fmt_nanos(spot.total_nanos),
                fmt_nanos(spot.self_nanos),
                fmt_percent(spot.total_nanos, wall),
            ]);
        }
        out.push_str(&t.render());
        if spots.len() > HOT_MUTANTS {
            out.push_str(&format!(
                "({} more mutants below the top {HOT_MUTANTS})\n",
                spots.len() - HOT_MUTANTS
            ));
        }
    }
    out
}

/// Renders one row per subject class with its TFM size and complexity
/// figures: nodes, links, births/deaths, transaction count, cyclomatic
/// complexity, and transaction path lengths.
pub fn render_model_metrics_table(rows: &[(&str, ModelMetrics)]) -> String {
    let mut t = AsciiTable::new(vec![
        "Class".into(),
        "Nodes".into(),
        "Links".into(),
        "Births".into(),
        "Deaths".into(),
        "Transactions".into(),
        "Cyclomatic".into(),
        "Paths".into(),
    ]);
    t.numeric();
    for (class, m) in rows {
        let transactions = if m.transactions_capped {
            format!(">={}", m.transactions)
        } else {
            m.transactions.to_string()
        };
        t.row(vec![
            (*class).into(),
            m.nodes.to_string(),
            m.edges.to_string(),
            m.births.to_string(),
            m.deaths.to_string(),
            transactions,
            m.cyclomatic.to_string(),
            format!("{}..{}", m.shortest_transaction, m.longest_transaction),
        ]);
    }
    format!("Model metrics per subject class\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_durations_with_scaled_units() {
        assert_eq!(fmt_nanos(999), "999ns");
        assert_eq!(fmt_nanos(1_500), "1.5us");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.000s");
    }

    #[test]
    fn empty_summary_renders_placeholder() {
        let s = render_telemetry_summary("Telemetry", &Summary::default());
        assert!(s.starts_with("Telemetry\n"));
        assert!(s.contains("(no telemetry recorded)"));
    }

    #[test]
    fn summary_tables_show_spans_counters_gauges() {
        let events = vec![
            Event::SpanEnd {
                kind: "case",
                label: "TC0".into(),
                id: 1,
                nanos: 1_000,
                ts_nanos: 1_000,
            },
            Event::SpanEnd {
                kind: "case",
                label: "TC1".into(),
                id: 2,
                nanos: 3_000,
                ts_nanos: 3_000,
            },
            Event::Counter {
                name: "case.passed",
                delta: 2,
            },
            Event::Gauge {
                name: "gen.transactions",
                value: 7,
            },
        ];
        let summary = Summary::from_events(&events);
        let s = render_telemetry_summary("Telemetry summary", &summary);
        assert!(s.contains("| case"));
        assert!(s.contains("case.passed"));
        assert!(s.contains("gen.transactions"));
        assert!(s.contains("P95"));
        assert!(s.contains("1.0us"), "min duration rendered: {s}");
    }

    #[test]
    fn harness_health_lists_every_counter_with_explicit_zeros() {
        let s = render_harness_health("Harness health", &Summary::default());
        assert!(s.starts_with("Harness health\n"));
        for (name, _) in HARNESS_COUNTERS {
            assert!(s.contains(name), "{name} row missing: {s}");
        }
        assert!(s.contains(" 0 |"), "zeros rendered explicitly: {s}");
    }

    #[test]
    fn harness_health_shows_recorded_totals() {
        let events = vec![
            Event::Counter {
                name: "harden.retry",
                delta: 3,
            },
            Event::Counter {
                name: "mutation.quarantined",
                delta: 2,
            },
        ];
        let summary = Summary::from_events(&events);
        let s = render_harness_health("Harness health", &summary);
        assert!(s.contains(" 3 |"), "retry total: {s}");
        assert!(s.contains(" 2 |"), "quarantine total: {s}");
        assert!(s.contains("harden.degraded"), "zero rows kept: {s}");
        assert!(
            !s.contains("mutation.workers"),
            "no worker row without the gauge: {s}"
        );
    }

    #[test]
    fn harness_health_reports_worker_pool_size_when_gauged() {
        let events = vec![Event::Gauge {
            name: "mutation.workers",
            value: 4,
        }];
        let summary = Summary::from_events(&events);
        let s = render_harness_health("Harness health", &summary);
        assert!(s.contains("mutation.workers"), "{s}");
        assert!(s.contains(" 4 |"), "worker count rendered: {s}");
        assert!(s.contains("worker pool size"), "{s}");
    }

    #[test]
    fn harness_health_reports_fleet_slot_count_when_gauged() {
        let events = vec![Event::Gauge {
            name: "orchestrator.slots",
            value: 3,
        }];
        let summary = Summary::from_events(&events);
        let s = render_harness_health("Fleet health", &summary);
        assert!(s.contains("orchestrator.slots"), "{s}");
        assert!(s.contains(" 3 |"), "slot count rendered: {s}");
        assert!(s.contains("slot-worker count"), "{s}");
    }

    #[test]
    fn fleet_table_renders_campaign_rows_with_slot_deadlines() {
        let rows = vec![
            FleetCampaignRow {
                id: "c1".into(),
                name: "Delay".into(),
                phase: "running".into(),
                done: 3,
                total: 12,
                executed: 2,
                replayed: 1,
                priority: 4,
                startup_grace_ms: 30_000,
                heartbeat_timeout_ms: 10_000,
                term_grace_ms: 500,
            },
            FleetCampaignRow {
                id: "c2".into(),
                name: "Acc".into(),
                phase: "degraded(budget-exhausted)".into(),
                done: 12,
                total: 12,
                executed: 12,
                replayed: 0,
                priority: 0,
                startup_grace_ms: 5_000,
                heartbeat_timeout_ms: 2_000,
                term_grace_ms: 250,
            },
        ];
        let s = render_fleet_table("Fleet campaigns", &rows);
        assert!(s.starts_with("Fleet campaigns\n"), "{s}");
        assert!(s.contains("| c1"), "{s}");
        assert!(s.contains("3/12"), "merge progress: {s}");
        assert!(s.contains("degraded(budget-exhausted)"), "{s}");
        assert!(s.contains("30.000s"), "startup grace rendered: {s}");
        assert!(s.contains("500.00ms"), "term grace rendered: {s}");
        let c1 = s.find("| c1").expect("c1 listed");
        let c2 = s.find("| c2").expect("c2 listed");
        assert!(c1 < c2, "rows keep given order: {s}");
    }

    #[test]
    fn empty_fleet_table_renders_placeholder() {
        let s = render_fleet_table("Fleet campaigns", &[]);
        assert!(s.contains("(no campaigns)"), "{s}");
    }

    fn start(kind: &'static str, label: &str, id: u64, parent: Option<u64>) -> Event {
        Event::SpanStart {
            kind,
            label: label.into(),
            id,
            parent,
            ts_nanos: 0,
        }
    }

    fn end(kind: &'static str, label: &str, id: u64, nanos: u64) -> Event {
        Event::SpanEnd {
            kind,
            label: label.into(),
            id,
            nanos,
            ts_nanos: nanos,
        }
    }

    /// A small campaign tree: mutation(100_000) > golden(20_000) +
    /// three mutants (m0=40_000 with a 15_000 suite child, m1=25_000,
    /// m2=5_000) + merge(1_000), plus selection-skip counters.
    fn campaign_events() -> Vec<Event> {
        vec![
            start("mutation", "Acc", 0, None),
            start("golden", "Acc", 1, Some(0)),
            end("golden", "Acc", 1, 20_000),
            start("mutant", "m0", 2, Some(0)),
            start("suite", "S", 3, Some(2)),
            end("suite", "S", 3, 15_000),
            end("mutant", "m0", 2, 40_000),
            start("mutant", "m1", 4, Some(0)),
            end("mutant", "m1", 4, 25_000),
            start("mutant", "m2", 5, Some(0)),
            end("mutant", "m2", 5, 5_000),
            start("merge", "Acc", 6, Some(0)),
            end("merge", "Acc", 6, 1_000),
            end("mutation", "Acc", 0, 100_000),
            Event::Counter {
                name: "selection.skipped",
                delta: 10,
            },
        ]
    }

    #[test]
    fn attribution_breaks_wall_clock_down_by_phase() {
        let s = render_attribution("Hot-path attribution", &campaign_events());
        assert!(s.starts_with("Hot-path attribution\n"));
        // Phase rows present for recorded kinds, absent otherwise.
        assert!(s.contains("| mutation"), "{s}");
        assert!(s.contains("| golden"), "{s}");
        assert!(s.contains("| merge"), "{s}");
        assert!(!s.contains("| probe"), "unrecorded phases omitted: {s}");
        assert!(!s.contains("| journal"), "unrecorded phases omitted: {s}");
        // Wall share: mutation is 100% of itself, golden 20%.
        assert!(s.contains("100.0%"), "{s}");
        assert!(s.contains("20.0%"), "{s}");
        // Mutant totals 70_000 = 70% of wall; self excludes the suite
        // child (70_000 - 15_000 = 55_000 self).
        assert!(s.contains("70.0%"), "{s}");
        assert!(s.contains("55.0us"), "mutant self time: {s}");
    }

    #[test]
    fn attribution_lists_hot_mutants_slowest_first() {
        let s = render_attribution("Attribution", &campaign_events());
        let m0 = s.find("| m0").expect("m0 listed");
        let m1 = s.find("| m1").expect("m1 listed");
        let m2 = s.find("| m2").expect("m2 listed");
        assert!(m0 < m1 && m1 < m2, "slowest first: {s}");
        // m0 self = 40_000 - 15_000 (suite child).
        assert!(s.contains("25.0us"), "m0 self split out: {s}");
        // 3 mutants <= top 5: no truncation notice.
        assert!(!s.contains("more mutants"), "{s}");
    }

    #[test]
    fn attribution_reports_selection_savings() {
        let s = render_attribution("Attribution", &campaign_events());
        // No case spans recorded: savings line still renders with a
        // zero mean rather than dividing by nothing.
        assert!(s.contains("10 case executions skipped"), "{s}");

        let mut events = campaign_events();
        events.push(start("case", "TC0", 7, None));
        events.push(end("case", "TC0", 7, 2_000));
        let s = render_attribution("Attribution", &events);
        assert!(s.contains("~20.0us saved (2.0us mean case)"), "{s}");
    }

    #[test]
    fn attribution_on_empty_stream_renders_placeholder() {
        let s = render_attribution("Attribution", &[]);
        assert!(s.contains("(no campaign telemetry recorded)"), "{s}");
    }

    #[test]
    fn model_metrics_table_lists_classes() {
        let m = ModelMetrics {
            nodes: 16,
            edges: 43,
            births: 1,
            deaths: 1,
            transactions: 25,
            transactions_capped: false,
            cyclomatic: 29,
            max_out_degree: 5,
            total_alternatives: 20,
            longest_transaction: 9,
            shortest_transaction: 3,
        };
        let capped = ModelMetrics {
            transactions_capped: true,
            ..m
        };
        let s = render_model_metrics_table(&[("CobList", m), ("Sortable", capped)]);
        assert!(s.contains("CobList"));
        assert!(s.contains(" 43 |"), "links column present: {s}");
        assert!(s.contains(">=25"), "capped counts flagged: {s}");
        assert!(s.contains("3..9"));
    }
}
