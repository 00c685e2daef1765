//! Resume determinism: a mutation campaign killed mid-run and resumed
//! from its verdict journal must produce a byte-identical report.
//!
//! The paper's test infrastructure mandates test-history maintenance and
//! retrieval (§3.4): a consumer can stop testing a component and pick it
//! back up later. Here the history is the per-campaign verdict journal —
//! these tests simulate the two ways a campaign dies mid-write (a clean
//! kill between records and a torn, half-written record) by truncating
//! and corrupting the journal file directly, then assert the resumed
//! run's verdicts, score, rendered tables and classification telemetry
//! are byte-identical to an uninterrupted run, for workers ∈ {1, 4}.

use concat::bit::{BitControl, BuiltInTest, ComponentFactory, StateReport, TestableComponent};
use concat::core::{Consumer, SelfTestable, SelfTestableBuilder};
use concat::mutation::{ClassInventory, MethodInventory, MutationRun, MutationSwitch, VarEnv};
use concat::obs::{MemorySink, Summary, Telemetry};
use concat::report::{render_score_table, summarize_run};
use concat::runtime::{
    args, unknown_method, AssertionViolation, Component, InvokeResult, TestException, Value,
};
use concat::tspec::{ClassSpec, ClassSpecBuilder, Domain, MethodCategory};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

/// A meter whose `Bump(q)` adds an instrumented step twice; enough sites
/// for a few dozen mutants with a healthy verdict mix.
#[derive(Debug)]
struct Meter {
    total: i64,
    ctl: BitControl,
    switch: MutationSwitch,
}

impl Meter {
    const CLASS: &'static str = "Meter";
}

impl Component for Meter {
    fn class_name(&self) -> &'static str {
        Self::CLASS
    }

    fn method_names(&self) -> Vec<&'static str> {
        vec!["Bump", "Total", "~Meter"]
    }

    fn invoke(&mut self, method: &str, a: &[Value]) -> InvokeResult {
        match method {
            "Bump" => {
                let q = args::int(method, a, 0)?;
                let total = self.total;
                let env = move || VarEnv::new().bind("step", q).bind("total", total);
                let s1 = self.switch.read_int("Bump", 0, "step", q, env);
                self.total = self.total.saturating_add(s1);
                let s2 = self.switch.read_int("Bump", 1, "step", q, env);
                self.total = self.total.saturating_add(s2);
                Ok(Value::Int(self.total))
            }
            "Total" => Ok(Value::Int(self.total)),
            "~Meter" => Ok(Value::Null),
            _ => Err(unknown_method(self.class_name(), method)),
        }
    }
}

impl BuiltInTest for Meter {
    fn bit_control(&self) -> &BitControl {
        &self.ctl
    }

    fn invariant_test(&self) -> Result<(), AssertionViolation> {
        Ok(())
    }

    fn reporter(&self) -> StateReport {
        let mut r = StateReport::new();
        r.set("total", Value::Int(self.total));
        r
    }
}

#[derive(Debug)]
struct MeterFactory {
    switch: MutationSwitch,
}

impl ComponentFactory for MeterFactory {
    fn class_name(&self) -> &str {
        Meter::CLASS
    }

    fn construct(
        &self,
        constructor: &str,
        _a: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        match constructor {
            "Meter" => Ok(Box::new(Meter {
                total: 0,
                ctl,
                switch: self.switch.clone(),
            })),
            other => Err(unknown_method(Meter::CLASS, other)),
        }
    }
}

struct MeterShards;

impl concat::mutation::ClonableFactory for MeterShards {
    fn class_name(&self) -> &str {
        Meter::CLASS
    }

    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
        Box::new(MeterFactory {
            switch: switch.clone(),
        })
    }
}

fn meter_spec() -> ClassSpec {
    ClassSpecBuilder::new(Meter::CLASS)
        .constructor("m1", "Meter")
        .method("m2", "Bump", MethodCategory::Update)
        .param("q", Domain::int_range(1, 9))
        .returns("int")
        .method("m3", "Total", MethodCategory::Access)
        .returns("int")
        .destructor("m4", "~Meter")
        .birth_node("n1", ["m1"])
        .task_node("n2", ["m2", "m3"])
        .death_node("n3", ["m4"])
        .edge("n1", "n2")
        .edge("n2", "n3")
        .edge("n1", "n3")
        .build()
        .expect("Meter spec is valid")
}

fn meter_bundle() -> SelfTestable {
    let switch = MutationSwitch::new();
    let inventory = ClassInventory::new(Meter::CLASS).globals(["total"]).method(
        MethodInventory::new("Bump")
            .locals(["step"])
            .globals_used(["total"])
            .site(0, "step", "first add")
            .site(1, "step", "second add"),
    );
    SelfTestableBuilder::new(
        meter_spec(),
        Rc::new(MeterFactory {
            switch: switch.clone(),
        }),
    )
    .mutation(inventory, switch)
    .mutation_shards(Arc::new(MeterShards))
    .build()
}

/// One campaign over the meter bundle; `journal` optionally points the
/// run at a verdict journal.
fn campaign(workers: usize, journal: Option<&Path>) -> (MutationRun, Summary) {
    let sink = Arc::new(MemorySink::new());
    let mut consumer = Consumer::with_seed(61)
        .with_workers(workers)
        .with_telemetry(Telemetry::new(sink.clone()));
    if let Some(path) = journal {
        consumer = consumer.with_journal(path);
    }
    let bundle = meter_bundle();
    let suite = consumer.generate(&bundle).expect("generation succeeds");
    let run = consumer
        .evaluate_quality(&bundle, &suite, &["Bump"], &[])
        .expect("campaign completes");
    (run, sink.summary())
}

/// The user-facing report a campaign produces: the Table 2/3-shaped
/// score table plus the one-paragraph summary.
fn render_report(run: &MutationRun) -> String {
    format!(
        "{}\n{}\n",
        render_score_table(
            "Meter mutation analysis",
            &concat::mutation::MutationMatrix::from_run(run, &["Bump"])
        ),
        summarize_run(run)
    )
}

/// The mutant-classification counter totals — the telemetry that must be
/// identical between an uninterrupted run and a resumed one (replayed
/// verdicts re-record their classification counters).
fn classification_totals(summary: &Summary) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = summary
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("mutant."))
        .map(|(name, total)| (*name, *total))
        .collect();
    totals.sort();
    totals
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("concat-resume-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Cuts the journal back to its header plus the first `k` verdict
/// records — a process kill between two record writes.
fn truncate_to(path: &Path, k: usize) {
    let text = std::fs::read_to_string(path).expect("journal is readable");
    let kept: Vec<&str> = text.lines().take(1 + k).collect();
    std::fs::write(path, format!("{}\n", kept.join("\n"))).expect("truncate");
}

fn assert_resumed_run_is_byte_identical(tear_record: bool) {
    for workers in [1, 4] {
        let dir = scratch(&format!(
            "{}-w{workers}",
            if tear_record { "torn" } else { "clean" }
        ));
        let path = dir.join("verdicts.journal");

        // The golden, uninterrupted campaign (no journal at all).
        let (golden, golden_summary) = campaign(workers, None);
        assert!(golden.total() > 10, "enough mutants to interrupt");

        // A journaled campaign runs to completion, then the journal is
        // cut back to look like a kill at mutant k...
        let (_, _) = campaign(workers, Some(&path));
        let k = golden.total() / 2;
        truncate_to(&path, k);
        if tear_record {
            // ...and optionally a torn, half-written record after it.
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("journal reopens");
            write!(file, "0badc0de verdict 0 surv").expect("torn tail");
        }

        // The resumed campaign replays k verdicts and re-executes the
        // rest: verdicts, score, report and classification telemetry all
        // byte-identical to the uninterrupted run.
        let (resumed, resumed_summary) = campaign(workers, Some(&path));
        assert_eq!(
            resumed.results, golden.results,
            "workers = {workers}: resumed verdict vector must be byte-identical"
        );
        assert_eq!(resumed.score(), golden.score(), "workers = {workers}");
        assert_eq!(
            render_report(&resumed),
            render_report(&golden),
            "workers = {workers}: rendered report must be byte-identical"
        );
        assert_eq!(
            classification_totals(&resumed_summary),
            classification_totals(&golden_summary),
            "workers = {workers}: classification telemetry must match"
        );
        assert_eq!(
            resumed_summary.counters.get("mutation.replayed").copied(),
            Some(k as u64),
            "workers = {workers}: exactly the surviving journal prefix replays"
        );
        assert_eq!(
            golden_summary.counters.get("mutation.replayed"),
            None,
            "uninterrupted run replays nothing"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn killed_campaign_resumes_byte_identical() {
    assert_resumed_run_is_byte_identical(false);
}

#[test]
fn torn_journal_record_is_discarded_and_resume_stays_byte_identical() {
    assert_resumed_run_is_byte_identical(true);
}

#[test]
fn completed_journal_replays_everything_without_reexecution() {
    let dir = scratch("complete");
    let path = dir.join("verdicts.journal");
    let (first, _) = campaign(2, Some(&path));
    let (again, summary) = campaign(2, Some(&path));
    assert_eq!(again.results, first.results);
    assert_eq!(
        summary.counters.get("mutation.replayed").copied(),
        Some(first.total() as u64)
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
