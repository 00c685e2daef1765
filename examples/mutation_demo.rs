//! End-to-end interface mutation analysis (paper §4) in miniature.
//!
//! Runs the full pipeline on one method of `CSortableObList`: enumerate
//! mutants with the Table-1 operators, execute the generated suite against
//! every mutant, classify kills (crash / assertion violation / output
//! difference), probe survivors for equivalence, and print the score
//! table. A second section demonstrates the `workers` knob on a
//! stall-prone subject: hanging mutants wait out their watchdog deadlines
//! concurrently, so the sharded analysis finishes measurably faster while
//! producing verdict-for-verdict identical results.
//!
//! Run with: `cargo run --release --example mutation_demo`
//!
//! A second mode exercises the durable, resumable campaign path:
//! `mutation_demo campaign <journal> <report>` runs a multi-second
//! analysis journaling every verdict to `<journal>`, then writes the
//! score table to `<report>` (atomically — a kill mid-campaign leaves no
//! report). Killed and rerun with the same journal, the campaign resumes
//! from the recorded verdicts and the final report is byte-identical to
//! an uninterrupted run; CI's `resume` job SIGKILLs this mode mid-flight
//! and diffs the reports.
//!
//! The campaign mode takes three optional flags: `--isolation
//! {thread,process}` selects how mutants are contained (process shards
//! are self-execs of this binary via the hidden `shard-worker campaign`
//! entry point, supervised with heartbeat liveness and respawn),
//! `--shards N` sets the worker/shard count, and `--incremental` turns
//! on change-aware resume (per-method sub-fingerprints in the journal;
//! the warm run prints `replayed N of M verdicts` to stdout). Verdicts
//! and the report are byte-identical across both modes and every shard
//! count; CI's `isolation` job SIGKILLs a process shard mid-run and
//! `cmp`s the report against the in-thread golden, and its
//! `incremental` job runs the campaign twice warm and `cmp`s the
//! reports.
//!
//! A long-running mode, `mutation_demo campaign-server <dir> [--fleet N]
//! [--isolation {thread,process}] [--resume]`, hosts the fault-tolerant
//! campaign orchestration service: one supervised fleet of `N` slot
//! workers multiplexing mutants from every active campaign. It speaks a
//! line-oriented control protocol on stdin (responses on stdout):
//!
//! ```text
//! submit <name> <subject> [--priority N] [--budget N]
//! cancel <name>
//! status <name>
//! list
//! shutdown
//! ```
//!
//! `<subject>` is `delay` or `sortable`. A `submit` whose flags do not
//! parse is refused with `err bad <flag> <value>` and submits nothing.
//! Each campaign journals to
//! `<dir>/<name>.journal` and, on completion, writes `<dir>/<name>.report`
//! — byte-identical to the solo `campaign` / `verdicts` mode report for
//! the same subject, regardless of fleet size, neighbors, or crash
//! schedule. `<dir>/server.manifest` tracks every campaign's phase
//! (rewritten atomically), so after a SIGTERM the journals are the
//! checkpoint and `--resume` re-submits every non-completed campaign.
//! On exit the service writes `<dir>/fleet.report`: the per-campaign
//! fleet table plus the harness-health counters
//! (`orchestrator.admitted/rejected/cancelled/resumed/...`). Process
//! isolation self-execs this binary via the hidden `shard-worker server`
//! entry, which rebuilds the campaign named by `CONCAT_SERVER_SUBJECT`.
//!
//! A third mode, `mutation_demo trace <trace.json> <report>`, runs the
//! campaign with the flight recorder attached: the recorded span tree is
//! exported as a Chrome-trace file (load it in `chrome://tracing` or
//! <https://ui.perfetto.dev>), the hot-path attribution and harness
//! health tables go to stdout, and `<report>` gets the verdicts (score
//! table + summary — deliberately timing-free). A fourth mode,
//! `mutation_demo verdicts <report>`, writes the same verdict report
//! from an *untraced* run of the identical campaign; CI's `bench-smoke`
//! job `cmp`s the two to prove the recorder perturbs nothing, and
//! uploads the trace as an artifact.
//!
//! A fifth mode, `mutation_demo invariant <transcript> <report> [--seed N]
//! [--corpus <dir>]`, runs the stateful invariant-fuzzing campaign on
//! `CSortableObList` (see `invariant_mode`); CI's `invariant` job builds
//! it with `--features seeded-bugs`, `cmp`s two same-seed runs, and
//! smoke-tests replay-from-corpus.

#[path = "mutation_demo/manifest.rs"]
mod manifest;

use concat::bit::{BitControl, BuiltInTest, ComponentFactory, StateReport, TestableComponent};
use concat::components::{sortable_inventory, sortable_spec, CSortableObListFactory};
use concat::core::{Consumer, SelfTestable, SelfTestableBuilder};
use concat::mutation::{
    AmplifyConfig, CampaignEnd, CampaignId, CampaignStatus, ClassInventory, ClonableFactory,
    IsolationMode, KillReason, MethodInventory, MutantStatus, MutationMatrix, MutationRun,
    MutationSwitch, Orchestrator, OrchestratorConfig, ProcessIsolation, VarEnv,
};
use concat::obs::{chrome_trace, MemorySink, Telemetry};
use concat::report::{
    render_amplification_table, render_attribution, render_fleet_table, render_harness_health,
    render_score_table, summarize_run, FleetCampaignRow,
};
use concat::runtime::{
    unknown_method, write_atomic, AssertionViolation, Budget, Component, InvokeResult,
    TestException, Value,
};
use concat::tspec::{ClassSpec, ClassSpecBuilder, MethodCategory};
use manifest::ManifestEntry;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Hidden entry point: this binary re-executed as one process shard of
    // the campaign below. Must be checked before anything else — the
    // supervisor controls the arguments.
    if args.len() >= 3 && args[1] == "shard-worker" && args[2] == "campaign" {
        std::process::exit(campaign_shard_worker());
    }
    if args.len() >= 3 && args[1] == "shard-worker" && args[2] == "server" {
        std::process::exit(server_shard_worker());
    }
    if args.len() >= 3 && args[1] == "campaign-server" {
        campaign_server_mode(&args[2], &args[3..]);
        return;
    }
    if args.len() >= 4 && args[1] == "campaign" {
        let (process, shards, incremental) = parse_campaign_flags(&args[4..]);
        campaign_mode(&args[2], &args[3], process, shards, incremental);
        return;
    }
    if args.len() == 4 && args[1] == "trace" {
        trace_mode(&args[2], &args[3]);
        return;
    }
    if args.len() == 3 && args[1] == "verdicts" {
        verdicts_mode(&args[2]);
        return;
    }
    if args.len() >= 4 && args[1] == "invariant" {
        let mut seed = 42u64;
        let mut corpus = None;
        let mut rest = args[4..].iter();
        while let Some(arg) = rest.next() {
            match arg.as_str() {
                "--seed" => {
                    seed = rest
                        .next()
                        .and_then(|n| n.parse().ok())
                        .expect("--seed takes a number");
                }
                "--corpus" => {
                    corpus = Some(rest.next().expect("--corpus takes a directory").clone());
                }
                other => panic!("unknown invariant flag {other:?}"),
            }
        }
        invariant_mode(&args[2], &args[3], seed, corpus.as_deref());
        return;
    }
    if args.len() >= 3 && args[1] == "amplify" {
        let mut workers = None;
        let mut corpus = None;
        let mut rest = args[3..].iter();
        while let Some(arg) = rest.next() {
            if arg == "--corpus" {
                corpus = Some(rest.next().expect("--corpus takes a directory").clone());
            } else {
                workers = Some(arg.parse().expect("workers is a number"));
            }
        }
        amplify_mode(&args[2], workers, corpus.as_deref());
        return;
    }
    let switch = MutationSwitch::new();
    let bundle = SelfTestableBuilder::new(
        sortable_spec(),
        Rc::new(CSortableObListFactory::new(switch.clone())),
    )
    .mutation(sortable_inventory(), switch)
    .build();

    let consumer = Consumer::with_seed(1999);
    let suite = consumer.generate(&bundle).expect("generation succeeds");
    let targets = ["Sort1"];
    println!(
        "Analyzing method {} with {} test case(s)…\n",
        targets[0],
        suite.len()
    );

    let run = consumer
        .evaluate_quality(&bundle, &suite, &targets, &[4242])
        .expect("bundle carries mutation support");

    println!(
        "{}",
        render_score_table(
            "Mutation analysis of Sort1",
            &MutationMatrix::from_run(&run, &targets)
        )
    );
    println!("{}\n", summarize_run(&run));

    println!("A few individual verdicts:");
    for result in run.results.iter().take(10) {
        let verdict = match &result.status {
            MutantStatus::Killed {
                reason: KillReason::Crash,
                by_case,
            } => {
                format!("KILLED by crash (TC{by_case})")
            }
            MutantStatus::Killed {
                reason: KillReason::Assertion,
                by_case,
            } => {
                format!("KILLED by assertion violation (TC{by_case})")
            }
            MutantStatus::Killed {
                reason: KillReason::OutputDiff,
                by_case,
            } => {
                format!("KILLED by output difference (TC{by_case})")
            }
            MutantStatus::Survived => "SURVIVED (a genuine test-suite escape)".to_owned(),
            MutantStatus::PresumedEquivalent => "presumed equivalent".to_owned(),
            MutantStatus::Quarantined { reason } => {
                format!("QUARANTINED ({reason}; excluded from score)")
            }
        };
        println!("  {:55} {verdict}", result.mutant.to_string());
    }

    parallel_section();
}

/// A component whose two methods each read a loop guard through the
/// mutation switch; mutants forcing a guard `<= 0` loop until the
/// watchdog deadline fires. That wait is wall-clock, not CPU, so shards
/// serve their deadlines concurrently even on a single core — the
/// workload where the `workers` knob pays off most.
struct Delay {
    ctl: BitControl,
    switch: MutationSwitch,
}

impl Delay {
    const CLASS: &'static str = "Delay";

    fn guarded_loop(&self, method: &'static str, var: &'static str) -> InvokeResult {
        loop {
            let guard = self.switch.read_int(method, 0, var, 1, VarEnv::new);
            if guard > 0 {
                return Ok(Value::Int(guard));
            }
            // Sleep between instrumented reads (each is a cancellation
            // point) so a hanging mutant waits rather than burns CPU.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Component for Delay {
    fn class_name(&self) -> &'static str {
        Self::CLASS
    }

    fn method_names(&self) -> Vec<&'static str> {
        vec!["Work", "Rest", "~Delay"]
    }

    fn invoke(&mut self, method: &str, _a: &[Value]) -> InvokeResult {
        match method {
            "Work" => self.guarded_loop("Work", "step"),
            "Rest" => self.guarded_loop("Rest", "pause"),
            "~Delay" => Ok(Value::Null),
            _ => Err(unknown_method(self.class_name(), method)),
        }
    }
}

impl BuiltInTest for Delay {
    fn bit_control(&self) -> &BitControl {
        &self.ctl
    }

    fn invariant_test(&self) -> Result<(), AssertionViolation> {
        Ok(())
    }

    fn reporter(&self) -> StateReport {
        StateReport::new()
    }
}

struct DelayFactory {
    switch: MutationSwitch,
}

impl ComponentFactory for DelayFactory {
    fn class_name(&self) -> &str {
        Delay::CLASS
    }

    fn construct(
        &self,
        constructor: &str,
        _a: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        match constructor {
            "Delay" => Ok(Box::new(Delay {
                ctl,
                switch: self.switch.clone(),
            })),
            other => Err(unknown_method(Delay::CLASS, other)),
        }
    }
}

struct DelayShards;

impl ClonableFactory for DelayShards {
    fn class_name(&self) -> &str {
        Delay::CLASS
    }

    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
        Box::new(DelayFactory {
            switch: switch.clone(),
        })
    }
}

fn delay_spec() -> ClassSpec {
    ClassSpecBuilder::new(Delay::CLASS)
        .constructor("m1", "Delay")
        .method("m2", "Work", MethodCategory::Update)
        .returns("int")
        .method("m3", "Rest", MethodCategory::Update)
        .returns("int")
        .destructor("m4", "~Delay")
        .birth_node("n1", ["m1"])
        .task_node("n2", ["m2"])
        .task_node("n3", ["m3"])
        .death_node("n4", ["m4"])
        .edge("n1", "n2")
        .edge("n2", "n3")
        .edge("n1", "n3")
        .edge("n2", "n4")
        .edge("n3", "n4")
        .edge("n1", "n4")
        .build()
        .expect("Delay spec is valid")
}

fn delay_inventory() -> ClassInventory {
    ClassInventory::new(Delay::CLASS)
        .method(
            MethodInventory::new("Work")
                .locals(["step"])
                .site(0, "step", "loop guard"),
        )
        .method(
            MethodInventory::new("Rest")
                .locals(["pause"])
                .site(0, "pause", "loop guard"),
        )
}

fn delay_bundle() -> SelfTestable {
    let switch = MutationSwitch::new();
    SelfTestableBuilder::new(
        delay_spec(),
        Rc::new(DelayFactory {
            switch: switch.clone(),
        }),
    )
    .mutation(delay_inventory(), switch)
    .mutation_shards(Arc::new(DelayShards))
    .build()
}

/// The `campaign <journal> <report>` mode: a deliberately slow, journaled
/// campaign on the `Delay` subject — its hanging mutants wait out watchdog
/// deadlines, stretching the run past the point where CI's `resume` job
/// SIGKILLs it. Verdicts are journaled as they land, so the rerun replays
/// the survivors and re-executes only unfinished mutants; the report is
/// written atomically at the end and must be byte-identical whether or
/// not the campaign was interrupted.
fn campaign_mode(journal: &str, report: &str, process: bool, shards: usize, incremental: bool) {
    // ~10 hanging mutants x one 300 ms deadline per reached case, over 2
    // workers: the uninterrupted campaign takes well over 5 s, so CI's
    // kill at 2 s lands mid-flight with verdicts already journaled.
    let bundle = delay_bundle();
    let sink = Arc::new(MemorySink::new());
    let mut consumer = campaign_consumer()
        .with_workers(shards)
        .with_journal(journal);
    if incremental {
        // The replay count goes to stdout only; the report stays
        // timing- and telemetry-free so warm and cold runs `cmp` equal.
        consumer = consumer
            .incremental()
            .with_telemetry(Telemetry::new(sink.clone()));
    }
    if process {
        consumer = consumer.with_isolation(IsolationMode::Process(ProcessIsolation::new([
            "shard-worker",
            "campaign",
        ])));
    }
    let suite = consumer.generate(&bundle).expect("generation succeeds");
    let targets = CAMPAIGN_TARGETS;
    let started = Instant::now();
    let run = consumer
        .evaluate_quality(&bundle, &suite, &targets, &[])
        .expect("bundle carries mutation support and shards");
    write_atomic(report, campaign_report(&run).as_bytes()).expect("report written atomically");
    if incremental {
        let summary = sink.summary();
        let replayed = summary
            .counters
            .get("mutation.replayed")
            .copied()
            .unwrap_or(0);
        println!("replayed {replayed} of {} verdicts", run.total());
    }
    println!(
        "campaign complete in {:?}: {}",
        started.elapsed(),
        summarize_run(&run)
    );
}

/// The targets the resumable campaign (and its shard workers) analyze.
const CAMPAIGN_TARGETS: [&str; 2] = ["Work", "Rest"];

/// Renders the timing-free report of the resumable `Delay` campaign —
/// shared by the solo `campaign` mode and the campaign server, which must
/// produce byte-identical text for the same verdicts.
fn campaign_report(run: &MutationRun) -> String {
    format!(
        "{}\n{}\n",
        render_score_table(
            "Delay campaign (resumable)",
            &MutationMatrix::from_run(run, &CAMPAIGN_TARGETS)
        ),
        summarize_run(run)
    )
}

/// The campaign's consumer, minus journal/workers/isolation — everything
/// that feeds the campaign fingerprint. The supervisor and every shard
/// worker must build it identically; journal path, worker count and
/// isolation mode are fingerprint-excluded and may differ.
fn campaign_consumer() -> Consumer {
    Consumer::with_seed(2024)
        .with_budget(Budget::unlimited().with_deadline(Duration::from_millis(300)))
}

/// Parses the campaign mode's optional `--isolation {thread,process}`,
/// `--shards N` and `--incremental` flags; defaults are thread isolation
/// over 2 shards without incremental resume (the historical `campaign`
/// behaviour).
fn parse_campaign_flags(rest: &[String]) -> (bool, usize, bool) {
    let mut process = false;
    let mut shards = 2usize;
    let mut incremental = false;
    let mut args = rest.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--isolation" => match args.next().map(String::as_str) {
                Some("process") => process = true,
                Some("thread") => process = false,
                other => panic!("--isolation takes thread|process, got {other:?}"),
            },
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("--shards takes a positive integer");
            }
            "--incremental" => incremental = true,
            other => panic!("unknown campaign flag {other:?}"),
        }
    }
    (process, shards.max(1), incremental)
}

/// The shard-worker half of the process-isolated campaign: rebuilds the
/// identical bundle and consumer, then runs the assigned mutant slice,
/// streaming verdicts to stdout for the supervising `campaign` process.
fn campaign_shard_worker() -> i32 {
    let bundle = delay_bundle();
    let consumer = campaign_consumer();
    let suite = consumer.generate(&bundle).expect("generation succeeds");
    consumer
        .run_shard_worker(&bundle, &suite, &CAMPAIGN_TARGETS, &[])
        .expect("bundle carries mutation support and shards")
}

/// The targets the trace/verdicts campaign analyzes.
const TRACE_TARGETS: [&str; 2] = ["Sort1", "FindMax"];

/// The sharded `CSortableObList` bundle behind the `trace`/`verdicts`
/// modes and the server's `sortable` subject.
fn sortable_server_bundle() -> SelfTestable {
    let switch = MutationSwitch::new();
    SelfTestableBuilder::new(
        sortable_spec(),
        Rc::new(CSortableObListFactory::new(switch.clone())),
    )
    .mutation(sortable_inventory(), switch)
    .mutation_shards(Arc::new(CSortableObListFactory::default()))
    .build()
}

/// The fixed campaign behind the `trace` and `verdicts` modes: the
/// `CSortableObList` subject over two workers, seed 1999, probe seed
/// 4242. Both modes must run the *identical* configuration — CI `cmp`s
/// their verdict reports to prove tracing changes nothing.
fn trace_campaign(telemetry: Telemetry) -> concat::mutation::MutationRun {
    let bundle = sortable_server_bundle();
    let consumer = Consumer::with_seed(1999)
        .with_telemetry(telemetry)
        .with_workers(2);
    let suite = consumer.generate(&bundle).expect("generation succeeds");
    consumer
        .evaluate_quality(&bundle, &suite, &TRACE_TARGETS, &[4242])
        .expect("bundle carries mutation support and shards")
}

/// Renders the timing-free verdict report both modes write.
fn verdict_report(run: &concat::mutation::MutationRun) -> String {
    format!(
        "{}\n{}\n",
        render_score_table(
            "Flight-recorder campaign (CSortableObList)",
            &MutationMatrix::from_run(run, &TRACE_TARGETS)
        ),
        summarize_run(run)
    )
}

// ---------------------------------------------------------------------
// campaign-server mode
// ---------------------------------------------------------------------

/// Environment variable through which the campaign server tells its
/// process shards which subject's campaign to rebuild.
const SERVER_SUBJECT_ENV: &str = "CONCAT_SERVER_SUBJECT";

/// State shared between the command loop and the per-campaign waiter
/// threads: the manifest, in order of first submission, mirrored
/// atomically to `<dir>/server.manifest` on every change.
struct ServerState {
    dir: PathBuf,
    manifest: Mutex<Vec<ManifestEntry>>,
}

impl ServerState {
    /// Upserts `entry` (keyed by name) and rewrites the manifest.
    fn record(&self, entry: ManifestEntry) {
        let mut manifest = self.manifest.lock().expect("manifest lock");
        match manifest.iter_mut().find(|e| e.name == entry.name) {
            Some(existing) => *existing = entry,
            None => manifest.push(entry),
        }
        self.rewrite(&manifest);
    }

    /// Flips one campaign's recorded phase and rewrites the manifest.
    fn set_phase(&self, name: &str, phase: &str) {
        let mut manifest = self.manifest.lock().expect("manifest lock");
        if let Some(entry) = manifest.iter_mut().find(|e| e.name == name) {
            entry.phase = phase.to_owned();
        }
        self.rewrite(&manifest);
    }

    /// Writes `server.manifest` atomically — the durable restart index a
    /// `--resume` run reads back. A SIGTERM needs no special handling:
    /// journals are write-ahead per verdict, so manifest + journals are
    /// always a consistent checkpoint.
    fn rewrite(&self, manifest: &[ManifestEntry]) {
        let text: String = manifest.iter().map(|e| e.encode() + "\n").collect();
        write_atomic(self.dir.join("server.manifest"), text.as_bytes())
            .expect("manifest written atomically");
    }
}

/// Reads `server.manifest` back, one [`ManifestEntry`] per line. A line
/// that does not decode exactly is skipped.
fn read_manifest(path: &Path) -> Vec<ManifestEntry> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines().filter_map(ManifestEntry::decode).collect()
}

/// Builds one subject's campaign request for the server: `delay` is the
/// resumable hanging-mutant campaign (the solo `campaign` mode's exact
/// inputs), `sortable` the `CSortableObList` campaign (the `verdicts`
/// mode's exact inputs) — so each finished campaign's report can be
/// `cmp`-verified against the corresponding solo mode. Returns `None`
/// for unknown subjects.
fn server_request(
    name: &str,
    subject: &str,
    process: bool,
    journal: PathBuf,
) -> Option<concat::mutation::CampaignRequest> {
    let (bundle, consumer, targets, probes): (SelfTestable, Consumer, &[&str], &[u64]) =
        match subject {
            "delay" => (delay_bundle(), campaign_consumer(), &CAMPAIGN_TARGETS, &[]),
            "sortable" => (
                sortable_server_bundle(),
                Consumer::with_seed(1999),
                &TRACE_TARGETS,
                &[4242],
            ),
            _ => return None,
        };
    let mut consumer = consumer.with_journal(journal);
    if process {
        consumer = consumer.with_isolation(IsolationMode::Process(
            ProcessIsolation::new(["shard-worker", "server"]).env(SERVER_SUBJECT_ENV, subject),
        ));
    }
    let suite = consumer.generate(&bundle).expect("generation succeeds");
    let mut request = consumer
        .campaign_request(&bundle, &suite, targets, probes)
        .expect("bundle carries mutation support and shards");
    request.name = name.to_owned();
    Some(request)
}

/// The shard-worker half of the process-isolated server: rebuilds the
/// subject named by `CONCAT_SERVER_SUBJECT` and runs the mutant slice
/// assigned through the `CONCAT_SHARD_*` environment.
fn server_shard_worker() -> i32 {
    let subject = std::env::var(SERVER_SUBJECT_ENV).expect("supervisor sets the subject");
    let (bundle, consumer, targets, probes): (SelfTestable, Consumer, &[&str], &[u64]) =
        match subject.as_str() {
            "delay" => (delay_bundle(), campaign_consumer(), &CAMPAIGN_TARGETS, &[]),
            "sortable" => (
                sortable_server_bundle(),
                Consumer::with_seed(1999),
                &TRACE_TARGETS,
                &[4242],
            ),
            other => panic!("unknown server subject {other:?}"),
        };
    let suite = consumer.generate(&bundle).expect("generation succeeds");
    consumer
        .run_shard_worker(&bundle, &suite, targets, probes)
        .expect("bundle carries mutation support and shards")
}

/// The report a finished server campaign writes — the same timing-free
/// text the solo mode for its subject produces.
fn server_report(subject: &str, run: &MutationRun) -> String {
    if subject == "sortable" {
        verdict_report(run)
    } else {
        campaign_report(run)
    }
}

/// Parses `campaign-server` flags: `--fleet N` (slot workers, default 2),
/// `--isolation {thread,process}` (default thread) and `--resume`
/// (resubmit every non-completed manifest campaign on startup).
fn parse_server_flags(rest: &[String]) -> (usize, bool, bool) {
    let mut fleet = 2usize;
    let mut process = false;
    let mut resume = false;
    let mut args = rest.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--fleet" => {
                fleet = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("--fleet takes a positive integer");
            }
            "--isolation" => match args.next().map(String::as_str) {
                Some("process") => process = true,
                Some("thread") => process = false,
                other => panic!("--isolation takes thread|process, got {other:?}"),
            },
            "--resume" => resume = true,
            other => panic!("unknown campaign-server flag {other:?}"),
        }
    }
    (fleet.max(1), process, resume)
}

/// Parses `submit`'s optional `--priority N` and `--budget N` flags.
/// A value that does not parse, a flag without a value and an unknown
/// token are each an error naming the offending flag and value (`bad
/// --budget x`, `bad --priority <missing>`, `bad flag --frob`): a typo
/// must not silently submit a campaign with another priority or no
/// budget.
fn parse_submit_flags(rest: &[&str]) -> Result<(u8, Option<u64>), String> {
    fn value<T: std::str::FromStr>(flag: &str, value: Option<&&str>) -> Result<T, String> {
        let value = value.ok_or_else(|| format!("bad {flag} <missing>"))?;
        value.parse().map_err(|_| format!("bad {flag} {value}"))
    }
    let mut priority = 0u8;
    let mut budget = None;
    let mut args = rest.iter();
    while let Some(&flag) = args.next() {
        match flag {
            "--priority" => priority = value(flag, args.next())?,
            "--budget" => budget = Some(value(flag, args.next())?),
            other => return Err(format!("bad flag {other}")),
        }
    }
    Ok((priority, budget))
}

/// One protocol response line, flushed immediately — the server's stdout
/// is usually a pipe, and the driving harness waits on these lines.
fn respond(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// The `status`/`list` response line for one campaign.
fn status_line(status: &CampaignStatus) -> String {
    format!(
        "status {} {} {} {}/{} executed={} replayed={} prio={}",
        status.id,
        status.name,
        status.phase,
        status.done,
        status.total,
        status.executed,
        status.replayed,
        status.priority
    )
}

/// Submits one campaign to the fleet: builds the subject's request,
/// applies the scheduling metadata, records the manifest entry, and
/// registers the waiter that writes the report when the campaign ends.
fn server_submit(
    state: &Arc<ServerState>,
    orch: &Arc<Orchestrator>,
    names: &mut HashMap<String, CampaignId>,
    waiters: &mut Vec<std::thread::JoinHandle<()>>,
    entry: ManifestEntry,
    process: bool,
    resumed: bool,
) {
    if let Some(&id) = names.get(&entry.name) {
        if orch.status(id).is_some_and(|s| !s.phase.is_terminal()) {
            // Two live campaigns must never share one journal.
            respond(&format!(
                "err campaign {} already active as {id}",
                entry.name
            ));
            return;
        }
    }
    let journal = state.dir.join(format!("{}.journal", entry.name));
    let Some(mut request) = server_request(&entry.name, &entry.subject, process, journal) else {
        respond(&format!("err unknown subject {:?}", entry.subject));
        return;
    };
    request.priority = entry.priority;
    request.mutant_budget = entry.budget;
    let total = request.mutants.len();
    match orch.submit(request) {
        Ok(id) => {
            names.insert(entry.name.clone(), id);
            let verb = if resumed { "resumed" } else { "submitted" };
            respond(&format!("ok {verb} {id} {} total={total}", entry.name));
            state.record(ManifestEntry {
                phase: "queued".to_owned(),
                ..entry.clone()
            });
            waiters.push(spawn_waiter(state, orch, id, entry));
        }
        Err(err) => respond(&format!("err {err}")),
    }
}

/// Waits for one campaign to end, then writes its report (completed and
/// degraded runs — a cancelled campaign's checkpoint is its journal),
/// flips its manifest phase, and announces the event on stdout.
fn spawn_waiter(
    state: &Arc<ServerState>,
    orch: &Arc<Orchestrator>,
    id: CampaignId,
    entry: ManifestEntry,
) -> std::thread::JoinHandle<()> {
    let state = Arc::clone(state);
    let orch = Arc::clone(orch);
    std::thread::spawn(move || {
        let Some(outcome) = orch.wait(id) else {
            return;
        };
        let report = state.dir.join(format!("{}.report", entry.name));
        let phase = match &outcome.end {
            CampaignEnd::Completed(run) => {
                write_atomic(&report, server_report(&entry.subject, run).as_bytes())
                    .expect("report written atomically");
                "completed".to_owned()
            }
            CampaignEnd::Cancelled => "cancelled".to_owned(),
            CampaignEnd::Degraded { reason, partial } => {
                write_atomic(&report, server_report(&entry.subject, partial).as_bytes())
                    .expect("report written atomically");
                format!("degraded({reason})")
            }
        };
        state.set_phase(&entry.name, &phase);
        respond(&format!("event {id} {} {phase}", entry.name));
    })
}

/// Writes `<dir>/fleet.report`: the per-campaign fleet table (phase,
/// merge progress, priority, effective slot supervision deadlines) plus
/// the fleet harness-health counters
/// (`orchestrator.admitted/rejected/cancelled/resumed/...`).
fn write_fleet_report(dir: &Path, statuses: &[CampaignStatus], sink: &MemorySink) {
    let rows: Vec<FleetCampaignRow> = statuses
        .iter()
        .map(|s| FleetCampaignRow {
            id: s.id.to_string(),
            name: s.name.clone(),
            phase: s.phase.to_string(),
            done: s.done,
            total: s.total,
            executed: s.executed,
            replayed: s.replayed,
            priority: s.priority,
            startup_grace_ms: s.slot.startup_grace.as_millis() as u64,
            heartbeat_timeout_ms: s.slot.heartbeat_timeout.as_millis() as u64,
            term_grace_ms: s.slot.term_grace.as_millis() as u64,
        })
        .collect();
    let text = format!(
        "{}\n{}",
        render_fleet_table("Fleet campaigns", &rows),
        render_harness_health("Fleet harness health", &sink.summary())
    );
    write_atomic(dir.join("fleet.report"), text.as_bytes())
        .expect("fleet report written atomically");
}

/// The `campaign-server <dir>` mode: the long-running orchestration
/// service. Reads control commands from stdin (see the module docs for
/// the grammar) and exits once stdin closes — or a `shutdown` command
/// arrives — and every campaign reached a terminal phase.
fn campaign_server_mode(dir: &str, flags: &[String]) {
    let (fleet, process, resume) = parse_server_flags(flags);
    std::fs::create_dir_all(dir).expect("server directory exists");
    let dir = PathBuf::from(dir);
    let fleet_sink = Arc::new(MemorySink::new());
    let orch = Arc::new(Orchestrator::start(OrchestratorConfig {
        slots: fleet,
        lease_size: 4,
        telemetry: Telemetry::new(fleet_sink.clone()),
        ..OrchestratorConfig::default()
    }));
    let state = Arc::new(ServerState {
        dir: dir.clone(),
        manifest: Mutex::new(read_manifest(&dir.join("server.manifest"))),
    });
    let mut names: HashMap<String, CampaignId> = HashMap::new();
    let mut waiters: Vec<std::thread::JoinHandle<()>> = Vec::new();
    respond(&format!(
        "ready fleet={fleet} isolation={}",
        if process { "process" } else { "thread" }
    ));

    if resume {
        let recorded: Vec<ManifestEntry> = state.manifest.lock().expect("manifest lock").clone();
        for entry in recorded {
            if entry.phase != "completed" {
                server_submit(
                    &state,
                    &orch,
                    &mut names,
                    &mut waiters,
                    entry,
                    process,
                    true,
                );
            }
        }
    }

    let stdin = std::io::stdin();
    let mut shutdown_requested = false;
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_default();
        let tok: Vec<&str> = line.split_whitespace().collect();
        match tok.first().copied() {
            None => {}
            Some("submit") if tok.len() >= 3 => {
                let (priority, budget) = match parse_submit_flags(&tok[3..]) {
                    Ok(flags) => flags,
                    Err(err) => {
                        respond(&format!("err {err}"));
                        continue;
                    }
                };
                let entry = ManifestEntry {
                    name: tok[1].to_owned(),
                    subject: tok[2].to_owned(),
                    priority,
                    budget,
                    phase: "queued".to_owned(),
                };
                server_submit(
                    &state,
                    &orch,
                    &mut names,
                    &mut waiters,
                    entry,
                    process,
                    false,
                );
            }
            Some("cancel") if tok.len() == 2 => match names.get(tok[1]) {
                Some(&id) if orch.cancel(id) => respond(&format!("ok cancelled {id} {}", tok[1])),
                Some(&id) => respond(&format!("err campaign {id} already terminal")),
                None => respond(&format!("err unknown campaign {}", tok[1])),
            },
            Some("status") if tok.len() == 2 => {
                match names.get(tok[1]).and_then(|&id| orch.status(id)) {
                    Some(status) => respond(&status_line(&status)),
                    None => respond(&format!("err unknown campaign {}", tok[1])),
                }
            }
            Some("list") => {
                let statuses = orch.list();
                for status in &statuses {
                    respond(&status_line(status));
                }
                respond(&format!("ok list {}", statuses.len()));
            }
            Some("shutdown") => {
                shutdown_requested = true;
                respond("ok shutdown");
                break;
            }
            Some(other) => respond(&format!("err unknown command {other:?}")),
        }
    }

    if shutdown_requested {
        // Graceful stop: cancel whatever is still running; the journals
        // keep every campaign's verified prefix for a `--resume`.
        for status in orch.list() {
            if !status.phase.is_terminal() {
                orch.cancel(status.id);
            }
        }
    }
    // Natural exit: stdin closed, so wait for every campaign to reach a
    // terminal phase (each waiter returns exactly then).
    for waiter in waiters {
        let _ = waiter.join();
    }
    write_fleet_report(&dir, &orch.list(), &fleet_sink);
    if let Ok(orch) = Arc::try_unwrap(orch) {
        orch.shutdown();
    }
    respond("server exit");
}

/// The `trace <trace.json> <report>` mode: the flight recorder end to
/// end. Runs the campaign with a `MemorySink` recording the causal span
/// tree, exports it as a Chrome-trace file for `chrome://tracing` /
/// Perfetto, prints the hot-path attribution and harness-health tables,
/// and writes the timing-free verdict report for CI to `cmp` against
/// the untraced `verdicts` mode.
fn trace_mode(trace_path: &str, report: &str) {
    let sink = Arc::new(MemorySink::new());
    let started = Instant::now();
    let run = trace_campaign(Telemetry::new(sink.clone()));

    let events = sink.events();
    concat::runtime::write_atomic(trace_path, chrome_trace(&events).as_bytes())
        .expect("trace written atomically");
    concat::runtime::write_atomic(report, verdict_report(&run).as_bytes())
        .expect("report written atomically");

    println!(
        "{}",
        render_attribution("Hot-path attribution (traced campaign)", &events)
    );
    println!(
        "{}",
        render_harness_health("Harness health", &sink.summary())
    );
    let heartbeats = sink
        .summary()
        .snapshots
        .iter()
        .filter(|s| s.name == "campaign.progress")
        .count();
    println!(
        "traced campaign complete in {:?}: {} events recorded, {heartbeats} heartbeat(s); \
         trace -> {trace_path}, verdicts -> {report}",
        started.elapsed(),
        events.len(),
    );
}

/// The `verdicts <report>` mode: the identical campaign with telemetry
/// fully detached, writing the same verdict report.
fn verdicts_mode(report: &str) {
    let started = Instant::now();
    let run = trace_campaign(Telemetry::disabled());
    concat::runtime::write_atomic(report, verdict_report(&run).as_bytes())
        .expect("report written atomically");
    println!(
        "untraced campaign complete in {:?}: verdicts -> {report}",
        started.elapsed()
    );
}

/// The `amplify <report> [workers] [--corpus <dir>]` mode:
/// mutation-driven test amplification on `CSortableObList`. A
/// deliberately thin base suite leaves survivors; the loop synthesizes
/// targeted candidates (boundary values, re-seeded draws, deeper TFM
/// paths) and keeps the killers. With `--corpus`, killers deposited by a
/// previous run replay as round-1 candidates before any synthesis, and
/// this run's killers are deposited back. The report (score table,
/// amplification rounds, summary) is written atomically and contains no
/// volatile counters, so CI `cmp`s it across worker counts and across
/// seeded reruns.
fn amplify_mode(report: &str, workers: Option<usize>, corpus: Option<&str>) {
    let switch = MutationSwitch::new();
    let bundle = SelfTestableBuilder::new(
        sortable_spec(),
        Rc::new(CSortableObListFactory::new(switch.clone())),
    )
    .mutation(sortable_inventory(), switch)
    .mutation_shards(Arc::new(CSortableObListFactory::default()))
    .build();
    let sink = Arc::new(MemorySink::new());
    let mut consumer = Consumer::with_config(concat::driver::GeneratorConfig {
        seed: 1999,
        expansion: concat::driver::Expansion::Covering { repeats: 1 },
        ..concat::driver::GeneratorConfig::default()
    });
    if let Some(workers) = workers {
        consumer = consumer.with_workers(workers);
    }
    if let Some(dir) = corpus {
        // Corpus accounting goes to stdout only, keeping the report
        // comparable across runs that seed different amounts.
        consumer = consumer
            .with_corpus(dir)
            .with_telemetry(Telemetry::new(sink.clone()));
    }
    let full = consumer.generate(&bundle).expect("generation succeeds");
    // A thin slice of the covering suite: weak enough to leave survivors.
    let ids: Vec<usize> = full.cases.iter().map(|c| c.id).take(6).collect();
    let base = full.filtered(&ids);
    let targets = ["Sort1", "FindMax"];
    let started = Instant::now();
    let outcome = consumer
        .amplify_quality(&bundle, &base, &targets, &[4242], &AmplifyConfig::default())
        .expect("bundle carries mutation support and shards");
    assert!(
        outcome.final_score() > outcome.baseline_score,
        "amplification must strictly improve the score: {:.3} -> {:.3}",
        outcome.baseline_score,
        outcome.final_score()
    );
    assert!(
        outcome.total_kills() >= 3,
        "amplification killed only {} previously surviving mutant(s): {:?}",
        outcome.total_kills(),
        outcome.rounds
    );
    let text = format!(
        "{}\n{}\n{}\n",
        render_score_table(
            "CSortableObList after amplification",
            &MutationMatrix::from_run(&outcome.run, &targets)
        ),
        render_amplification_table(
            "Amplification rounds",
            &outcome.rounds,
            outcome.baseline_score,
            outcome.final_score()
        ),
        summarize_run(&outcome.run)
    );
    concat::runtime::write_atomic(report, text.as_bytes()).expect("report written atomically");
    if corpus.is_some() {
        let summary = sink.summary();
        let seeded = summary.counters.get("corpus.seeded").copied().unwrap_or(0);
        let deposited = summary
            .counters
            .get("corpus.deposited")
            .copied()
            .unwrap_or(0);
        let examined: u64 = outcome.rounds.iter().map(|r| r.candidates as u64).sum();
        println!(
            "corpus: seeded {seeded} candidate(s), deposited {deposited} killer(s), \
             synthesized {} candidate(s)",
            examined.saturating_sub(seeded)
        );
    }
    println!(
        "amplification complete in {:?}: {} case(s) -> {} case(s), score {:.1}% -> {:.1}%",
        started.elapsed(),
        base.len(),
        outcome.suite.len(),
        outcome.baseline_score * 100.0,
        outcome.final_score() * 100.0
    );
}

/// The `invariant <transcript> <report> [--seed N] [--corpus <dir>]`
/// mode: a stateful invariant-fuzzing campaign on `CSortableObList`.
/// Seeded random walks over the TFM interleave two live lists, checking
/// the BIT class invariant and every t-spec invariant clause after each
/// call; failures are shrunk to a minimal reproducer. The transcript
/// (every walk's call-by-call log plus the shrunk breakers) and the
/// report are written atomically and are byte-identical for the same
/// seed against a fresh corpus — CI `cmp`s two same-seed runs. With
/// `--corpus`, breakers deposited by a previous run replay before any
/// fuzzing. Build with `--features seeded-bugs` to arm the deliberate
/// cross-object cache-desync fault this campaign exists to catch.
fn invariant_mode(transcript_path: &str, report: &str, seed: u64, corpus: Option<&str>) {
    let switch = MutationSwitch::new();
    let bundle = SelfTestableBuilder::new(
        sortable_spec(),
        Rc::new(CSortableObListFactory::new(switch.clone())),
    )
    .mutation(sortable_inventory(), switch)
    .build();
    let config = concat::driver::WalkConfig::new(seed)
        .with_walks(6)
        .with_calls_per_walk(120)
        .with_objects(2);
    let mut consumer = Consumer::with_seed(seed);
    if let Some(dir) = corpus {
        consumer = consumer.with_corpus(dir);
    }
    let started = Instant::now();
    let campaign = consumer.invariant_campaign(&bundle, &config);

    let mut transcript = format!("invariant campaign: CSortableObList seed {seed}\n");
    for (i, walk) in campaign.transcripts.iter().enumerate() {
        transcript.push_str(&format!("=== walk {i} ===\n{walk}"));
    }
    for breaker in &campaign.breakers {
        let source = match (breaker.from_corpus, breaker.walk) {
            (true, _) => "corpus".to_owned(),
            (false, Some(i)) => format!("walk {i}"),
            (false, None) => "-".to_owned(),
        };
        transcript.push_str(&format!(
            "=== breaker ({source}, {} -> {} calls) ===\n{}",
            breaker.original_calls,
            breaker.shrunk.call_count(),
            concat::driver::save_sequence(&breaker.shrunk)
        ));
    }
    write_atomic(transcript_path, transcript.as_bytes()).expect("transcript written atomically");
    write_atomic(
        report,
        concat::report::render_invariant_table(&campaign.summary, &campaign.breakers).as_bytes(),
    )
    .expect("report written atomically");

    if cfg!(feature = "seeded-bugs") {
        assert!(
            campaign.summary.failures > 0 || campaign.summary.replayed_failing > 0,
            "the seeded cross-object fault must be caught"
        );
        for breaker in campaign.fresh_breakers() {
            assert!(
                breaker.shrunk.call_count() <= 10,
                "reproducer must shrink to <= 10 calls, got {}",
                breaker.shrunk.call_count()
            );
        }
    } else {
        assert!(
            campaign.clean(),
            "unseeded CSortableObList must hold its invariants"
        );
    }
    println!(
        "invariant campaign complete in {:?}: {} walk(s), {} call(s), {} check(s), \
         {} failure(s), {} replay(s); transcript -> {transcript_path}, report -> {report}",
        started.elapsed(),
        campaign.summary.walks,
        campaign.summary.calls,
        campaign.summary.checks,
        campaign.summary.failures,
        campaign.summary.replayed,
    );
}

fn parallel_section() {
    println!("\n=== Parallel mutation analysis (the `workers` knob) ===\n");
    let deadline = Duration::from_millis(150);
    let bundle = delay_bundle();
    let suite = Consumer::with_seed(2024)
        .with_budget(Budget::unlimited().with_deadline(deadline))
        .generate(&bundle)
        .expect("generation succeeds");
    let targets = ["Work", "Rest"];

    let mut timed = Vec::new();
    for workers in [1usize, 4] {
        let consumer = Consumer::with_seed(2024)
            .with_budget(Budget::unlimited().with_deadline(deadline))
            .with_workers(workers);
        let started = Instant::now();
        let run = consumer
            .evaluate_quality(&bundle, &suite, &targets, &[])
            .expect("bundle carries mutation support and shards");
        let elapsed = started.elapsed();
        println!(
            "workers = {workers}: {} mutants ({} quarantined by watchdog) in {elapsed:?}",
            run.total(),
            run.quarantined(),
        );
        timed.push((run, elapsed));
    }
    let (sequential, sequential_elapsed) = &timed[0];
    let (parallel, parallel_elapsed) = &timed[1];
    assert_eq!(
        sequential.results, parallel.results,
        "verdicts must be byte-identical for every worker count"
    );
    let speedup = sequential_elapsed.as_secs_f64() / parallel_elapsed.as_secs_f64();
    println!(
        "\nIdentical verdicts, mutation score {:.2} both ways; speedup {speedup:.1}x",
        parallel.score()
    );
    assert!(
        speedup >= 2.0,
        "expected >= 2x from overlapping deadline waits, measured {speedup:.2}x"
    );
}

#[cfg(test)]
mod tests {
    use super::parse_submit_flags;

    #[test]
    fn submit_flags_parse_good_input() {
        assert_eq!(parse_submit_flags(&[]), Ok((0, None)));
        assert_eq!(
            parse_submit_flags(&["--priority", "2", "--budget", "40"]),
            Ok((2, Some(40)))
        );
        assert_eq!(parse_submit_flags(&["--budget", "0"]), Ok((0, Some(0))));
    }

    #[test]
    fn submit_flags_reject_a_bad_value() {
        for (rest, err) in [
            (&["--priority", "x"][..], "bad --priority x"),
            (&["--priority", "256"][..], "bad --priority 256"),
            (
                &["--priority", "1", "--budget", "-3"][..],
                "bad --budget -3",
            ),
        ] {
            assert_eq!(parse_submit_flags(rest), Err(err.to_owned()));
        }
    }

    #[test]
    fn submit_flags_reject_a_missing_value() {
        assert_eq!(
            parse_submit_flags(&["--budget"]),
            Err("bad --budget <missing>".to_owned())
        );
        assert_eq!(
            parse_submit_flags(&["--budget", "5", "--priority"]),
            Err("bad --priority <missing>".to_owned())
        );
    }

    #[test]
    fn submit_flags_reject_an_unknown_flag() {
        assert_eq!(
            parse_submit_flags(&["--prio", "2"]),
            Err("bad flag --prio".to_owned())
        );
        assert_eq!(
            parse_submit_flags(&["--priority", "2", "extra"]),
            Err("bad flag extra".to_owned())
        );
    }
}
