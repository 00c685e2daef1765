//! The qualification matrix for the anchor invariant: the per-mutant
//! verdicts of the paper's two campaigns (Table 2 on `CSortableObList`,
//! Table 3 on `CObList`) stay byte-identical across worker count,
//! isolation mode, fleet interleaving, telemetry, resume and incremental
//! replay.
//!
//! Each row of [`MATRIX`] is one named cell: one combination of engine,
//! isolation, scheduler, telemetry and journal. The rows are grouped
//! under the integration test that runs them ([`qualify`]), so each cell
//! runs once. Every cell checks three things:
//!
//! 1. its verdict lines equal `tests/golden/table{2,3}.verdicts`;
//! 2. its rendered report (score table and run summary) equals the
//!    sequential engine's;
//! 3. its axis facts: the replayed count, `mutation.incremental_rebuild`,
//!    one mutant span per executed mutant, the `mutation.workers` gauge,
//!    the classification counters, the fleet's `orchestrator.*` counters
//!    and, for a journaled cell, that no file but the journal is left
//!    beside it.
//!
//! Every cell also checks the `NAIVE` fact: its verdicts equal those of
//! the naive oracle ([`naive`]), a classifier written from the paper's
//! definitions alone. It runs every whole suite on every mutant, with
//! no scopes, no selection, no early exit and no cache, so it checks
//! each optimisation of the engine's scope step independently of the
//! goldens. The [`Config`] column varies the campaign itself: the
//! paper's, a never-firing budget, a crash threshold, or a seeded random
//! draw of seed, suite size, budget, threshold and deadline. A cell whose
//! config is not the paper's expects the naive oracle's verdicts and
//! report (points 1 and 2) instead of the golden and the sequential
//! engine's. A cell whose config turns the engine's early exit off also
//! checks the `FULL` fact: it executes strictly more cases than its
//! early-exit twin, the same campaign without budget or threshold.
//!
//! A timing-free summary line (id, axes, mutant and case counts) of every
//! cell is compared byte for byte with its line in
//! `tests/golden/qualification.summary`, whose ids must be the matrix's.
//! Regenerate the goldens only for an intended verdict change:
//! `BLESS=1 cargo test`. Adding an axis value is one more column value
//! plus the rows that use it.
//!
//! Process-isolated cells re-execute the test binary with a libtest
//! filter naming the cell's own test, whose [`qualify`] call turns into
//! the shard worker; `CONCAT_QUALIFICATION_SHARD` (threaded through
//! [`ProcessIsolation::env`]) names the table whose campaign the shard
//! rebuilds.

use concat::core::{Consumer, SelfTestable};
use concat::driver::{CaseResult, CaseStatus, Expansion, GeneratorConfig, SuiteResult, TestRunner};
use concat::mutation::{
    run_mutation_analysis, run_mutation_analysis_parallel, CampaignEnd, CampaignPhase,
    CampaignRequest, IsolationMode, KillReason, MutantResult, MutantStatus, MutationMatrix,
    MutationRun, MutationSwitch, Orchestrator, OrchestratorConfig, ProcessIsolation,
    QuarantineReason,
};
use concat::obs::{MemorySink, SpanId, Summary, Telemetry};
use concat::report::{render_score_table, summarize_run};
use concat::runtime::{Budget, Rng};
use concat_bench::{
    coblist_bundle_sharded, sortable_bundle_sharded, PROBE_SEEDS, SEED, TABLE2_METHODS,
    TABLE3_METHODS,
};
use std::fmt::Write as _;
use std::mem::discriminant;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Env var naming the table a re-executed shard worker rebuilds.
const SHARD_ENV: &str = "CONCAT_QUALIFICATION_SHARD";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Table {
    T2,
    T3,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Engine {
    Seq,
    Workers(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Isolation {
    Thread,
    Process,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Scheduler {
    Solo,
    /// An [`Orchestrator`] that also runs neighbour campaigns.
    Fleet,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Journal {
    None,
    /// A completed journal cut back to its first half of verdicts.
    Cut,
    /// [`Journal::Cut`] plus a torn, half-written record.
    Torn,
    /// A completed journal: the rerun replays every verdict.
    Complete,
    /// An incremental rerun of the unchanged campaign.
    IncWarm,
    /// An incremental run over the journal of a narrower campaign.
    IncSalvage,
}

/// The campaign a cell runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Config {
    /// The paper's: seed 2001, one covering pass, no budget, no crash
    /// threshold. The engine stops each scope run at its first
    /// difference.
    Paper,
    /// The paper's campaign under a call budget no case reaches: early
    /// exit is off, and the verdicts stay the golden ones.
    NeverFires,
    /// The paper's campaign quarantining a mutant at this many
    /// mutant-only crashes: early exit is off, and a later crash can
    /// change a verdict.
    CrashThreshold(usize),
    /// A campaign drawn from this seed: generator seed, suite size, call
    /// budget or none, crash threshold or none, never-firing deadline or
    /// none ([`Config::inputs`]).
    Random(u64),
}

/// The inputs a [`Config`] stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Inputs {
    seed: u64,
    repeats: usize,
    max_transactions: usize,
    budget: Budget,
    threshold: Option<usize>,
}

impl Config {
    fn inputs(self) -> Inputs {
        let paper = Inputs {
            seed: SEED,
            repeats: 1,
            max_transactions: GeneratorConfig::default().max_transactions,
            budget: Budget::unlimited(),
            threshold: None,
        };
        match self {
            Config::Paper => paper,
            Config::NeverFires => Inputs {
                budget: Budget::unlimited().with_max_calls(1_000_000),
                ..paper
            },
            Config::CrashThreshold(n) => Inputs {
                threshold: Some(n),
                ..paper
            },
            Config::Random(seed) => {
                let mut rng = Rng::seed_from_u64(seed);
                let mut budget = Budget::unlimited();
                let threshold;
                if rng.coin() {
                    // Early exit stays on: a zero threshold never fires.
                    threshold = [None, Some(0)][rng.index(2)];
                } else {
                    // Small caps fire in some golden cases too (shared
                    // stops do not quarantine) and in the fuel-looping
                    // mutants.
                    if let Some(calls) = [None, Some(6), Some(12), Some(1_000_000)][rng.index(4)] {
                        budget = budget.with_max_calls(calls);
                    }
                    threshold = [None, Some(1), Some(2)][rng.index(3)];
                    if rng.coin() || (budget.is_unlimited() && threshold.is_none()) {
                        budget = budget.with_deadline(Duration::from_secs(120));
                    }
                }
                Inputs {
                    seed: rng.next_u64() % 100_000,
                    repeats: 1 + rng.index(2),
                    max_transactions: 3 + rng.index(10),
                    budget,
                    threshold,
                }
            }
        }
    }

    /// Whether the engine may stop a scope run at its first difference:
    /// no budget and no positive crash threshold.
    fn early_exit(self) -> bool {
        let inputs = self.inputs();
        inputs.budget.is_unlimited() && inputs.threshold.unwrap_or(0) == 0
    }

    /// The same campaign with early exit on.
    fn twin(self) -> Inputs {
        Inputs {
            budget: Budget::unlimited(),
            threshold: None,
            ..self.inputs()
        }
    }

    /// The summary line's suffix: empty for the paper's campaign, else
    /// the inputs, whether early exit is on and the verdict counts of
    /// `run` (killed, survived, presumed equivalent, quarantined).
    fn describe(self, run: &MutationRun) -> String {
        let name = match self {
            Config::Paper => return String::new(),
            Config::NeverFires => "never-fires".to_owned(),
            Config::CrashThreshold(n) => format!("crash-threshold-{n}"),
            Config::Random(seed) => format!("random-{seed}"),
        };
        let Inputs {
            seed,
            repeats,
            max_transactions,
            budget,
            threshold,
        } = self.inputs();
        let show = |value: Option<String>| value.unwrap_or_else(|| "-".to_owned());
        format!(
            " config={name} seed={seed} repeats={repeats} transactions={max_transactions} \
             calls={} deadline={} threshold={} early_exit={} verdicts={}/{}/{}/{}",
            show(budget.max_calls.map(|n| n.to_string())),
            show(budget.deadline.map(|d| format!("{}s", d.as_secs()))),
            show(threshold.map(|n| n.to_string())),
            if self.early_exit() { "on" } else { "off" },
            run.killed(),
            run.survived(),
            run.equivalent(),
            run.quarantined(),
        )
    }

    /// Whether the cell's verdicts are the paper campaign's golden ones.
    fn golden(self) -> bool {
        matches!(self, Config::Paper | Config::NeverFires)
    }
}

struct Cell {
    id: &'static str,
    table: Table,
    engine: Engine,
    isolation: Isolation,
    scheduler: Scheduler,
    telemetry: bool,
    journal: Journal,
    config: Config,
}

const fn cell(
    id: &'static str,
    table: Table,
    engine: Engine,
    isolation: Isolation,
    scheduler: Scheduler,
    telemetry: bool,
    journal: Journal,
) -> Cell {
    Cell {
        id,
        table,
        engine,
        isolation,
        scheduler,
        telemetry,
        journal,
        config: Config::Paper,
    }
}

impl Cell {
    /// The cell running `config` instead of the paper's campaign.
    const fn with(self, config: Config) -> Cell {
        Cell { config, ..self }
    }
}

use Config::Random;
use Engine::{Seq, Workers as W};
use Isolation::{Process as PROC, Thread as THREAD};
use Scheduler::{Fleet as FLEET, Solo as SOLO};
use Table::{T2, T3};
const OFF: bool = false;
const ON: bool = true;
const NEVER: Config = Config::NeverFires;
const CRASH1: Config = Config::CrashThreshold(1);

/// The matrix: its cells, grouped under the integration test that runs
/// them. The first sequential cell of each table is that table's
/// reference run, so it records telemetry when any paper-campaign cell of
/// its table does. Journal cells, and cells whose config turns early exit
/// off, record telemetry: their facts are read from it.
#[rustfmt::skip]
const MATRIX: &[(&str, &[Cell])] = &[
    ("table2_verdicts_match_golden", &[
        cell("Q2-SEQ",               T2, Seq,  THREAD, SOLO,  OFF, Journal::None),
        cell("Q2-W2",                T2, W(2), THREAD, SOLO,  OFF, Journal::None),
    ]),
    ("table3_verdicts_match_golden", &[
        cell("Q3-SEQ",               T3, Seq,  THREAD, SOLO,  ON,  Journal::None),
        cell("Q3-W2",                T3, W(2), THREAD, SOLO,  OFF, Journal::None),
    ]),
    ("verdicts_scores_and_tables_are_identical_across_worker_counts", &[
        cell("Q3-W1",                T3, W(1), THREAD, SOLO,  OFF, Journal::None),
        cell("Q3-W8",                T3, W(8), THREAD, SOLO,  OFF, Journal::None),
    ]),
    ("telemetry_totals_are_identical_across_worker_counts", &[
        cell("Q3-TRACE-W1",          T3, W(1), THREAD, SOLO,  ON,  Journal::None),
        cell("Q3-TRACE-W2",          T3, W(2), THREAD, SOLO,  ON,  Journal::None),
        cell("Q3-TRACE-W8",          T3, W(8), THREAD, SOLO,  ON,  Journal::None),
    ]),
    ("tracing_never_perturbs_verdicts_tables_or_summaries", &[
        cell("Q3-W4",                T3, W(4), THREAD, SOLO,  OFF, Journal::None),
        cell("Q3-TRACE-W4",          T3, W(4), THREAD, SOLO,  ON,  Journal::None),
    ]),
    ("qualification_matrix", &[
        cell("Q3-PROC1",             T3, W(1), PROC,   SOLO,  ON,  Journal::None),
        cell("Q3-PROC4",             T3, W(4), PROC,   SOLO,  ON,  Journal::None),
        cell("Q3-FLEET",             T3, W(4), THREAD, FLEET, ON,  Journal::None),
    ]),
    ("killed_campaign_resumes_byte_identical", &[
        cell("Q3-RESUME-CUT-W1",     T3, W(1), THREAD, SOLO,  ON,  Journal::Cut),
        cell("Q3-RESUME-CUT-W4",     T3, W(4), THREAD, SOLO,  ON,  Journal::Cut),
    ]),
    ("torn_journal_record_is_discarded_and_resume_stays_byte_identical", &[
        cell("Q3-RESUME-TORN-W1",    T3, W(1), THREAD, SOLO,  ON,  Journal::Torn),
        cell("Q3-RESUME-TORN-W4",    T3, W(4), THREAD, SOLO,  ON,  Journal::Torn),
    ]),
    ("completed_journal_replays_everything_without_reexecution", &[
        cell("Q3-RESUME-FULL-W2",    T3, W(2), THREAD, SOLO,  ON,  Journal::Complete),
    ]),
    ("journaled_process_campaign_replays_on_rerun", &[
        cell("Q3-RESUME-FULL-PROC2", T3, W(2), PROC,   SOLO,  ON,  Journal::Complete),
    ]),
    ("incremental_campaign_replays_across_isolation_modes", &[
        cell("Q3-INC-WARM-PROC2",    T3, W(2), PROC,   SOLO,  ON,  Journal::IncWarm),
    ]),
    ("warm_rerun_of_unchanged_campaign_is_pure_replay", &[
        cell("Q3-INC-WARM-W1",       T3, W(1), THREAD, SOLO,  ON,  Journal::IncWarm),
        cell("Q3-INC-WARM-W4",       T3, W(4), THREAD, SOLO,  ON,  Journal::IncWarm),
    ]),
    ("one_method_change_reexecutes_only_that_method", &[
        cell("Q3-INC-SALVAGE-W1",    T3, W(1), THREAD, SOLO,  ON,  Journal::IncSalvage),
        cell("Q3-INC-SALVAGE-W4",    T3, W(4), THREAD, SOLO,  ON,  Journal::IncSalvage),
    ]),
    ("full_scope_cells_execute_more_cases_than_their_early_exit_twins", &[
        cell("Q2-FULL",              T2, Seq,  THREAD, SOLO,  ON,  Journal::None).with(NEVER),
        cell("Q3-FULL",              T3, W(2), THREAD, SOLO,  ON,  Journal::None).with(NEVER),
        cell("Q3-CRASH1",            T3, Seq,  THREAD, SOLO,  ON,  Journal::None).with(CRASH1),
    ]),
    ("random_campaigns_match_the_naive_oracle", &[
        cell("Q2-RANDOM-1",          T2, Seq,  THREAD, SOLO,  ON,  Journal::None).with(Random(1)),
        cell("Q2-RANDOM-18",         T2, W(2), THREAD, SOLO,  ON,  Journal::None).with(Random(18)),
        cell("Q2-RANDOM-19",         T2, Seq,  THREAD, SOLO,  ON,  Journal::None).with(Random(19)),
        cell("Q3-RANDOM-7",          T3, Seq,  THREAD, SOLO,  ON,  Journal::None).with(Random(7)),
        cell("Q3-RANDOM-20",         T3, W(3), THREAD, SOLO,  ON,  Journal::None).with(Random(20)),
        cell("Q3-RANDOM-4",          T3, W(2), THREAD, SOLO,  ON,  Journal::None).with(Random(4)),
    ]),
];

/// Every cell of the matrix, in table order.
fn cells() -> impl Iterator<Item = &'static Cell> {
    MATRIX.iter().flat_map(|(_, cells)| cells.iter())
}

/// The name of the test that runs `cell`.
fn test_of(cell: &Cell) -> &'static str {
    MATRIX
        .iter()
        .find(|(_, cells)| cells.iter().any(|c| c.id == cell.id))
        .expect("every cell sits in the matrix")
        .0
}

fn blessing() -> bool {
    std::env::var_os("BLESS").is_some()
}

impl Table {
    fn bundle(self) -> SelfTestable {
        match self {
            T2 => sortable_bundle_sharded(),
            T3 => coblist_bundle_sharded(),
        }
    }

    fn targets(self) -> &'static [&'static str] {
        match self {
            T2 => &TABLE2_METHODS,
            T3 => &TABLE3_METHODS,
        }
    }

    fn number(self) -> u8 {
        match self {
            T2 => 2,
            T3 => 3,
        }
    }

    fn golden_path(self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/golden/table{}.verdicts", self.number()))
    }

    /// The table's first sequential cell of the paper's campaign.
    fn reference_cell(self) -> &'static Cell {
        cells()
            .find(|c| c.table == self && c.engine == Seq && c.config == Config::Paper)
            .expect("every table has a sequential cell")
    }

    /// The reference cell's run, which every cell's report is compared
    /// with.
    fn reference(self) -> &'static Outcome {
        static REFERENCES: [OnceLock<Outcome>; 2] = [OnceLock::new(), OnceLock::new()];
        REFERENCES[usize::from(self == T3)].get_or_init(|| {
            let outcome = run_cell(self.reference_cell());
            if blessing() {
                std::fs::write(self.golden_path(), verdict_lines(&outcome.run))
                    .expect("golden is writable");
            }
            outcome
        })
    }

    fn golden(self) -> String {
        std::fs::read_to_string(self.golden_path())
            .expect("verdict golden missing; run with BLESS=1 to create it")
    }
}

/// The consumer generating and running the campaign of `inputs`.
fn consumer_for(inputs: &Inputs) -> Consumer {
    Consumer::with_config(GeneratorConfig {
        seed: inputs.seed,
        expansion: Expansion::Covering {
            repeats: inputs.repeats,
        },
        max_transactions: inputs.max_transactions,
        ..GeneratorConfig::default()
    })
    .with_budget(inputs.budget)
}

/// The paper's campaign: one covering pass over the transactions keeps
/// the debug-build runs short while every target method keeps all its
/// mutants.
fn base_consumer() -> Consumer {
    consumer_for(&Config::Paper.inputs())
}

/// Shard children re-execute the cell's own test, whose [`qualify`]
/// call serves the shard.
fn shard_isolation(cell: &Cell) -> ProcessIsolation {
    ProcessIsolation::new([test_of(cell), "--exact", "--nocapture"])
        .env(SHARD_ENV, cell.table.number().to_string())
}

/// The consumer of a cell's campaign: its worker count and isolation,
/// plus the given telemetry and journal.
fn cell_consumer(cell: &Cell, telemetry: Telemetry, journal: Option<&Path>) -> Consumer {
    let mut consumer = consumer_for(&cell.config.inputs()).with_telemetry(telemetry);
    if let W(workers) = cell.engine {
        consumer = consumer.with_workers(workers);
    }
    if cell.isolation == PROC {
        consumer = consumer.with_isolation(IsolationMode::Process(shard_isolation(cell)));
    }
    if let Some(path) = journal {
        consumer = consumer.with_journal(path);
    }
    if matches!(cell.journal, Journal::IncWarm | Journal::IncSalvage) {
        consumer = consumer.incremental();
    }
    consumer
}

fn request(consumer: &Consumer, table: Table, targets: &[&str]) -> CampaignRequest {
    let bundle = table.bundle();
    let suite = consumer.generate(&bundle).expect("shipped spec generates");
    consumer
        .campaign_request(&bundle, &suite, targets, &PROBE_SEEDS)
        .expect("bundle carries mutation support and shards")
}

/// Runs `targets` of the cell's table on the cell's engine and scheduler.
fn campaign(cell: &Cell, consumer: &Consumer, targets: &[&str]) -> MutationRun {
    let mut req = request(consumer, cell.table, targets);
    req.config.crash_quarantine_threshold = cell.config.inputs().threshold;
    match (cell.scheduler, cell.engine) {
        (SOLO, Seq) => {
            let bundle = cell.table.bundle();
            let switch = bundle.switch().expect("bundle carries a switch");
            run_mutation_analysis(
                bundle.factory(),
                switch,
                &req.suite,
                &req.mutants,
                &req.config,
            )
        }
        (SOLO, W(_)) => run_mutation_analysis_parallel(
            req.shards.as_ref(),
            &req.suite,
            &req.mutants,
            &req.config,
        ),
        (FLEET, _) => fleet(cell, req),
    }
}

/// Runs the campaign under test on an [`Orchestrator`] with one slot per
/// worker of the cell, at the lowest priority, beside two neighbour
/// campaigns that split its targets; each neighbour must end with the
/// golden verdicts of its methods. The fleet's `orchestrator.*` counters
/// are checked here.
fn fleet(cell: &Cell, req: CampaignRequest) -> MutationRun {
    let W(slots) = cell.engine else {
        panic!("a fleet cell names its slot count as workers");
    };
    let sink = Arc::new(MemorySink::new());
    let service = Orchestrator::start(OrchestratorConfig {
        slots,
        lease_size: 2,
        telemetry: Telemetry::new(sink.clone()),
        ..OrchestratorConfig::default()
    });
    let targets = cell.table.targets();
    let neighbours = [(&targets[..1], 2), (&targets[1..], 1)];
    let mut ids = vec![service.submit(req).expect("admitted")];
    for (methods, priority) in neighbours {
        let mut neighbour = request(&base_consumer(), cell.table, methods);
        neighbour.priority = priority;
        ids.push(service.submit(neighbour).expect("admitted"));
    }
    let runs: Vec<MutationRun> = ids
        .iter()
        .map(|id| {
            let outcome = service.wait(*id).expect("campaign tracked");
            let status = service.status(*id).expect("status retained");
            assert_eq!(status.phase, CampaignPhase::Completed, "{}", status.name);
            assert_eq!(status.done, status.total, "{}", status.name);
            match outcome.end {
                CampaignEnd::Completed(run) => *run,
                other => panic!("campaign {} did not complete: {other:?}", status.name),
            }
        })
        .collect();
    // The service silences panics while it runs: check after it stops.
    drop(service);
    let golden = cell.table.golden();
    for ((methods, _), run) in neighbours.iter().zip(&runs[1..]) {
        check_lines(
            &format!("neighbour {methods:?}"),
            &unnumbered(&golden, methods),
            &unnumbered(&verdict_lines(run), methods),
        );
    }
    let summary = sink.summary();
    let count = |name| summary.counters.get(name).copied();
    assert_eq!(count("orchestrator.admitted"), Some(3));
    assert_eq!(count("orchestrator.completed"), Some(3));
    assert_eq!(count("orchestrator.degraded"), None);
    assert_eq!(summary.gauge("orchestrator.slots"), Some(slots as i64));
    runs.into_iter().next().expect("the campaign under test")
}

/// The naive oracle: each mutant's verdict from the paper's definitions
/// alone. The mutant is armed on a factory of its own, and the whole
/// suite runs, then each whole probe suite, and every case's full
/// transcript is compared with the original program's. There are no
/// scopes, no selection, no early exit and no cache.
///
/// The suite kills a mutant at its first differing case, by the paper's
/// three criteria: the mutant crashed, a built-in assertion fired in the
/// mutant but not in the original, or else the output differs. A
/// mutant the suite leaves alive survives when a probe suite tells it
/// apart, and is presumed equivalent when none does. Each run is first
/// checked for quarantine, from the config: a harness stop (budget,
/// deadline) the original's case does not share, or — with a positive
/// crash threshold — that many crashes the original does not share.
fn naive(req: &CampaignRequest) -> MutationRun {
    let config = &req.config;
    let switch = MutationSwitch::new();
    let factory = req.shards.build_factory(&switch);
    let runner = match config.bit_enabled {
        true => TestRunner::new(),
        false => TestRunner::without_bit(),
    }
    .with_budget(config.budget)
    .with_cancel_token(switch.cancel_token().clone());
    let suites: Vec<_> = std::iter::once(&req.suite)
        .chain(&config.probe_suites)
        .collect();
    let run = |suite| runner.run_suite_under(factory.as_ref(), suite, SpanId::NONE);
    let originals: Vec<SuiteResult> = suites.iter().map(|suite| run(suite)).collect();
    let status = || {
        for (k, (suite, original)) in suites.iter().zip(&originals).enumerate() {
            let observed = run(suite);
            if let Some(reason) =
                naive_quarantine(original, &observed, config.crash_quarantine_threshold)
            {
                return MutantStatus::Quarantined { reason };
            }
            let mut pairs = original.cases.iter().zip(&observed.cases);
            match pairs.find(|(o, m)| o.transcript != m.transcript) {
                None => {}
                Some(_) if k > 0 => return MutantStatus::Survived,
                Some((original, mutant)) => {
                    return MutantStatus::Killed {
                        reason: naive_kill_reason(original, mutant),
                        by_case: original.case_id,
                    }
                }
            }
        }
        MutantStatus::PresumedEquivalent
    };
    let results = req
        .mutants
        .iter()
        .map(|mutant| {
            switch.arm(mutant.plan.clone());
            let status = status();
            switch.disarm();
            MutantResult {
                mutant: mutant.clone(),
                status,
            }
        })
        .collect();
    let golden = originals.into_iter().next().expect("the suite's run");
    MutationRun { results, golden }
}

/// Quarantine from the config: the first harness stop of the mutant's
/// run that the original's case does not share, or — with a positive
/// threshold — at least that many crashes the original does not share.
fn naive_quarantine(
    original: &SuiteResult,
    observed: &SuiteResult,
    threshold: Option<usize>,
) -> Option<QuarantineReason> {
    let mut crashes = 0;
    for (o, m) in original.cases.iter().zip(&observed.cases) {
        let shared = discriminant(&o.status) == discriminant(&m.status);
        match m.status {
            CaseStatus::DeadlineExceeded { .. } if !shared => {
                return Some(QuarantineReason::Timeout)
            }
            CaseStatus::BudgetExhausted { .. } if !shared => return Some(QuarantineReason::Budget),
            CaseStatus::Panicked { .. } if !shared => crashes += 1,
            _ => {}
        }
    }
    threshold
        .filter(|&t| t > 0 && crashes >= t)
        .map(|_| QuarantineReason::RepeatedCrash)
}

/// The paper's three kill criteria for a differing case.
fn naive_kill_reason(original: &CaseResult, mutant: &CaseResult) -> KillReason {
    match (&mutant.status, &original.status) {
        (CaseStatus::Panicked { .. }, _) => KillReason::Crash,
        (CaseStatus::AssertionViolated { .. }, CaseStatus::AssertionViolated { .. }) => {
            KillReason::OutputDiff
        }
        (CaseStatus::AssertionViolated { .. }, _) => KillReason::Assertion,
        _ => KillReason::OutputDiff,
    }
}

/// The naive oracle's run of the table's campaign on `inputs`, computed
/// once per test binary however many cells ask for it.
fn oracle(table: Table, inputs: Inputs) -> &'static MutationRun {
    type Slot = &'static OnceLock<MutationRun>;
    static ORACLES: Mutex<Vec<(Table, Inputs, Slot)>> = Mutex::new(Vec::new());
    let slot = {
        let mut oracles = ORACLES.lock().unwrap_or_else(PoisonError::into_inner);
        match oracles.iter().find(|(t, i, _)| *t == table && *i == inputs) {
            Some(&(_, _, slot)) => slot,
            None => {
                let slot: Slot = Box::leak(Box::default());
                oracles.push((table, inputs, slot));
                slot
            }
        }
    };
    slot.get_or_init(|| {
        let mut req = request(&consumer_for(&inputs), table, table.targets());
        req.config.crash_quarantine_threshold = inputs.threshold;
        naive(&req)
    })
}

/// Cases executed (`case.*` counters): the golden runs plus every
/// mutant's.
fn cases_executed(summary: &Summary) -> u64 {
    summary
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("case."))
        .map(|(_, total)| *total)
        .sum()
}

/// A finished cell: its run and, with telemetry on, its summary.
struct Outcome {
    run: MutationRun,
    summary: Option<Summary>,
    /// Verdicts replayed from the journal instead of executed.
    replayed: u64,
    journal: Option<PathBuf>,
}

/// Prepares the cell's journal, then runs the cell's campaign.
fn run_cell(cell: &Cell) -> Outcome {
    let table = cell.table;
    let path = (cell.journal != Journal::None).then(|| {
        let dir = std::env::temp_dir().join(format!(
            "concat-qualification-{}-{}",
            std::process::id(),
            cell.id
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join("verdicts.journal")
    });
    let journal = path.as_deref();
    let replayed = match cell.journal {
        Journal::None => 0,
        Journal::Cut | Journal::Torn | Journal::Complete => {
            // The same campaign, journaled, runs to completion first;
            // then the journal is cut back to look like a kill at k.
            let consumer = cell_consumer(cell, Telemetry::disabled(), journal);
            let prior = campaign(cell, &consumer, table.targets());
            let path = journal.expect("journal cell");
            match cell.journal {
                Journal::Complete => prior.total(),
                torn => {
                    let k = prior.total() / 2;
                    truncate_to(path, k);
                    if torn == Journal::Torn {
                        use std::io::Write;
                        let mut file = std::fs::OpenOptions::new()
                            .append(true)
                            .open(path)
                            .expect("journal reopens");
                        write!(file, "0badc0de verdict 0 surv").expect("torn tail");
                    }
                    k
                }
            }
        }
        Journal::IncWarm | Journal::IncSalvage => {
            // A cold incremental campaign on the sequential reference
            // engine; the salvage cell's covers every target but the
            // first, whose mutants enumerate first, so all its ids shift.
            let targets = match cell.journal {
                Journal::IncWarm => table.targets(),
                _ => &table.targets()[1..],
            };
            let cold = Cell {
                engine: Seq,
                isolation: THREAD,
                scheduler: SOLO,
                ..*cell
            };
            let sink = Arc::new(MemorySink::new());
            let consumer = cell_consumer(&cold, Telemetry::new(sink.clone()), journal);
            let total = campaign(&cold, &consumer, targets).total();
            assert_eq!(
                sink.counter_total("mutation.replayed"),
                0,
                "a cold run replays nothing"
            );
            total
        }
    };
    let sink = cell.telemetry.then(|| Arc::new(MemorySink::new()));
    let telemetry = match &sink {
        Some(sink) => Telemetry::new(sink.clone()),
        None => Telemetry::disabled(),
    };
    let consumer = cell_consumer(cell, telemetry, journal);
    let run = campaign(cell, &consumer, table.targets());
    Outcome {
        run,
        summary: sink.map(|sink| sink.summary()),
        replayed: replayed as u64,
        journal: path,
    }
}

/// Cuts the journal back to its header plus the first `k` verdict
/// records: a process kill between two record writes.
fn truncate_to(path: &Path, k: usize) {
    let text = std::fs::read_to_string(path).expect("journal is readable");
    let kept: Vec<&str> = text.lines().take(1 + k).collect();
    std::fs::write(path, format!("{}\n", kept.join("\n"))).expect("truncate");
}

/// One line per mutant: its `Display`, then its status' `Debug`.
fn verdict_lines(run: &MutationRun) -> String {
    let mut out = String::new();
    for result in &run.results {
        writeln!(out, "{} => {:?}", result.mutant, result.status).unwrap();
    }
    out
}

/// The verdict lines of `methods`' mutants, without their campaign ids.
fn unnumbered(lines: &str, methods: &[&str]) -> String {
    let mut out = String::new();
    for line in lines.lines() {
        let (_, rest) = line.split_once(' ').expect("a numbered verdict line");
        let method = rest
            .split_once("] ")
            .and_then(|(_, tail)| tail.split(' ').next());
        if method.is_some_and(|m| methods.contains(&m)) {
            writeln!(out, "{rest}").unwrap();
        }
    }
    out
}

/// Panics with the first differing line.
fn check_lines(what: &str, expected: &str, got: &str) {
    if expected == got {
        return;
    }
    let (mut want, mut have) = (expected.lines(), got.lines());
    for line in 1.. {
        match (want.next(), have.next()) {
            (None, None) => break,
            (w, h) if w != h => {
                panic!("{what}: line {line} differs\n  want {w:?}\n  got  {h:?}")
            }
            _ => {}
        }
    }
    panic!("{what}: differs in line endings");
}

/// The score table plus the one-paragraph summary.
fn report(table: Table, run: &MutationRun) -> String {
    format!(
        "{}\n{}\n",
        render_score_table(
            &format!("Table {}", table.number()),
            &MutationMatrix::from_run(run, table.targets())
        ),
        summarize_run(run)
    )
}

/// Counter totals that depend only on the verdicts: classification
/// (`mutant.*`) and harness health (`mutation.*`), minus the journal
/// facts checked on their own and the foreign-frame count, which varies
/// with how many libtest banner lines shard children print.
fn classification(summary: &Summary) -> Vec<(&'static str, u64)> {
    summary
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("mutant.") || name.starts_with("mutation."))
        .filter(|(name, _)| {
            !matches!(
                **name,
                "mutation.replayed" | "mutation.incremental_rebuild" | "mutation.frames_dropped"
            )
        })
        .map(|(name, total)| (*name, *total))
        .collect()
}

/// The journal is the only file a journaled campaign leaves in its
/// directory: no `<journal>.coverage` sidecar or other companion.
fn check_journal_alone(journal: &Path) {
    let dir = journal.parent().expect("scratch dir");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("scratch dir readable")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    assert_eq!(names, ["verdicts.journal"], "files beside the journal");
}

/// Runs one cell and checks its verdicts, report and axis facts;
/// returns its summary line.
fn check(cell: &Cell) -> String {
    let table = cell.table;
    let config = cell.config;
    assert!(
        cell.isolation == THREAD || config == Config::Paper,
        "shard children rebuild the paper's campaign"
    );
    // The cell's own campaign runs beside the naive oracle, before it
    // waits for the reference.
    let (own, naive) = std::thread::scope(|scope| {
        let naive = scope.spawn(|| oracle(table, config.inputs()));
        let own = (table.reference_cell().id != cell.id).then(|| run_cell(cell));
        let naive = naive
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (own, naive)
    });
    // Another campaign's verdicts come from the naive oracle alone.
    let reference = config.golden().then(|| table.reference());
    let outcome = own.as_ref().or(reference).expect("the reference runs");
    let run = &outcome.run;
    for method in table.targets() {
        assert!(
            run.results.iter().any(|r| r.mutant.method() == *method),
            "no mutant of {method}"
        );
    }
    if config.golden() {
        check_lines("verdicts", &table.golden(), &verdict_lines(run));
    }
    check_lines("NAIVE", &verdict_lines(naive), &verdict_lines(run));
    let (expected, whose) = match reference {
        Some(reference) => (&reference.run, "the sequential engine's"),
        None => (naive, "the naive oracle's"),
    };
    assert_eq!(
        report(table, run),
        report(table, expected),
        "report differs from {whose}"
    );
    if !config.early_exit() {
        let summary = outcome
            .summary
            .as_ref()
            .expect("a full-scope cell records telemetry");
        let (full, twin) = (cases_executed(summary), twin_cases(table, config));
        assert!(
            full > twin,
            "FULL: {full} executed cases, early-exit twin {twin}"
        );
    }
    if let Some(summary) = &outcome.summary {
        let counter = |name| summary.counters.get(name).copied();
        assert_eq!(
            counter("mutation.replayed").unwrap_or(0),
            outcome.replayed,
            "replayed"
        );
        assert_eq!(
            counter("mutation.incremental_rebuild"),
            (cell.journal == Journal::IncSalvage).then_some(1),
            "incremental rebuilds"
        );
        // Process shards record their mutant spans in the child.
        let executed = run.total() as u64 - outcome.replayed;
        let spans = |kind| summary.span(kind).map_or(0, |s| s.count);
        assert_eq!(
            spans("mutant"),
            if cell.isolation == THREAD {
                executed
            } else {
                0
            },
            "one mutant span per mutant executed in this process"
        );
        let workers = match (cell.scheduler, cell.engine) {
            (_, Seq) => None,
            (FLEET, W(slots)) => Some(slots as i64),
            (SOLO, W(workers)) => {
                assert_eq!(
                    spans("worker"),
                    if executed > 0 { workers as u64 } else { 0 },
                    "a worker pool starts only when a mutant executes"
                );
                Some(workers as i64)
            }
        };
        assert_eq!(summary.gauge("mutation.workers"), workers, "workers gauge");
        // The Table-2 reference records none: its cells that do are
        // checked against the naive oracle and their twins instead.
        if let Some(expected) = reference.and_then(|r| r.summary.as_ref()) {
            assert_eq!(
                classification(summary),
                classification(expected),
                "classification counters"
            );
        }
    }
    if let Some(journal) = &outcome.journal {
        check_journal_alone(journal);
        let _ = std::fs::remove_dir_all(journal.parent().expect("scratch dir"));
    }
    format!(
        "{:<22} table{}  {:<5} {:<7} {:<6} telemetry={:<4} journal={:<11} mutants={} cases={} replayed={}",
        cell.id,
        table.number(),
        match cell.engine {
            Seq => "seq".to_owned(),
            W(workers) => format!("w{workers}"),
        },
        format!("{:?}", cell.isolation).to_lowercase(),
        format!("{:?}", cell.scheduler).to_lowercase(),
        if cell.telemetry { "on" } else { "off" },
        format!("{:?}", cell.journal).to_lowercase(),
        run.total(),
        run.golden.cases.len(),
        outcome.replayed,
    ) + &config.describe(run)
}

/// Cases the cell's campaign executes with early exit on: the same
/// campaign without budget or threshold, on the sequential engine.
fn twin_cases(table: Table, config: Config) -> u64 {
    let sink = Arc::new(MemorySink::new());
    let consumer = consumer_for(&config.twin()).with_telemetry(Telemetry::new(sink.clone()));
    let twin = cell("twin", table, Seq, THREAD, SOLO, ON, Journal::None);
    campaign(&twin, &consumer, table.targets());
    cases_executed(&sink.summary())
}

fn summary_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/qualification.summary")
}

/// The summary golden's line for `id`.
fn golden_line<'a>(golden: &'a str, id: &str) -> Option<&'a str> {
    golden
        .lines()
        .find(|line| line.split(' ').next() == Some(id))
}

/// Checks the cell's summary line against the golden's; under `BLESS=1`
/// writes it into the golden instead, keeping the matrix's order.
fn check_summary_line(cell: &Cell, line: &str) {
    static GOLDEN: Mutex<()> = Mutex::new(());
    let _lock = GOLDEN.lock().unwrap_or_else(PoisonError::into_inner);
    let golden = std::fs::read_to_string(summary_path()).unwrap_or_default();
    if blessing() {
        let blessed: String = cells()
            .filter_map(|c| match c.id == cell.id {
                true => Some(line),
                false => golden_line(&golden, c.id),
            })
            .map(|line| format!("{line}\n"))
            .collect();
        std::fs::write(summary_path(), blessed).expect("golden is writable");
        return;
    }
    assert_eq!(
        golden_line(&golden, cell.id),
        Some(line),
        "qualification.summary line; run with BLESS=1 to create it"
    );
}

/// Runs the cells of the named test, each on its own thread, and reports
/// every failing cell under its id. A shard child re-executing the test
/// serves its shard instead.
pub fn qualify(test: &str) {
    if let Ok(number) = std::env::var(SHARD_ENV) {
        let table = if number == "2" { T2 } else { T3 };
        let bundle = table.bundle();
        let consumer = base_consumer();
        let suite = consumer.generate(&bundle).expect("shipped spec generates");
        let code = consumer
            .run_shard_worker(&bundle, &suite, table.targets(), &PROBE_SEEDS)
            .expect("bundle carries shards");
        std::process::exit(code);
    }
    if !blessing() {
        let golden = std::fs::read_to_string(summary_path())
            .expect("summary golden missing; run with BLESS=1 to create it");
        let ids: Vec<&str> = golden.lines().filter_map(|l| l.split(' ').next()).collect();
        assert_eq!(
            ids,
            cells().map(|c| c.id).collect::<Vec<_>>(),
            "qualification.summary lists the matrix's cells"
        );
    }
    let (_, group) = MATRIX
        .iter()
        .find(|(name, _)| *name == test)
        .unwrap_or_else(|| panic!("no matrix cells run under {test}"));
    let failures: Vec<String> = std::thread::scope(|scope| {
        let runs: Vec<_> = group
            .iter()
            .map(|cell| {
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        check_summary_line(cell, &check(cell));
                    }))
                    .map_err(|payload| {
                        let message = payload
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| payload.downcast_ref::<&str>().copied())
                            .unwrap_or("panicked");
                        format!("{}: {message}", cell.id)
                    })
                })
            })
            .collect();
        runs.into_iter()
            .filter_map(|run| run.join().expect("panics are caught").err())
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} qualification cell(s) failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
