//! Incremental change-aware analysis: a warm re-run of an unchanged
//! campaign is pure journal replay (zero mutants re-execute), and when
//! one method's mutant inventory changes, only that method's mutants
//! re-execute — the other methods' verdicts are salvaged from the old
//! journal across the campaign-global id shift. In every case the
//! resumed run's verdicts, score and rendered report are byte-identical
//! to a cold run, for workers ∈ {1, 4}.
//!
//! The subject is a two-method `Gauge` whose component always reads two
//! instrumented sites in `Scale` — only the *inventory* differs between
//! the narrow (site 0) and wide (sites 0 and 1) campaigns, so widening
//! it changes which mutants exist without changing execution. `Scale`
//! enumerates before `Bump`, so widening also shifts every `Bump`
//! mutant's campaign-global id: the salvage path must remap, not just
//! match.

use concat::bit::{BitControl, BuiltInTest, ComponentFactory, StateReport, TestableComponent};
use concat::core::{Consumer, SelfTestable, SelfTestableBuilder};
use concat::mutation::{
    load_campaign_coverage, ClassInventory, MethodInventory, MutationRun, MutationSwitch, VarEnv,
};
use concat::obs::{MemorySink, Summary, Telemetry};
use concat::report::{render_score_table, summarize_run};
use concat::runtime::{
    args, unknown_method, AssertionViolation, Component, InvokeResult, TestException, Value,
};
use concat::tspec::{ClassSpec, ClassSpecBuilder, Domain, MethodCategory};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

#[derive(Debug)]
struct Gauge {
    total: i64,
    ctl: BitControl,
    switch: MutationSwitch,
}

impl Gauge {
    const CLASS: &'static str = "Gauge";
}

impl Component for Gauge {
    fn class_name(&self) -> &'static str {
        Self::CLASS
    }

    fn method_names(&self) -> Vec<&'static str> {
        vec!["Scale", "Bump", "~Gauge"]
    }

    fn invoke(&mut self, method: &str, a: &[Value]) -> InvokeResult {
        match method {
            "Scale" => {
                let q = args::int(method, a, 0)?;
                let total = self.total;
                let env = move || VarEnv::new().bind("factor", q).bind("total", total);
                let s1 = self.switch.read_int("Scale", 0, "factor", q, env);
                self.total = self.total.saturating_mul(s1);
                let s2 = self.switch.read_int("Scale", 1, "factor", 1, env);
                self.total = self.total.saturating_mul(s2);
                Ok(Value::Int(self.total))
            }
            "Bump" => {
                let q = args::int(method, a, 0)?;
                let total = self.total;
                let env = move || VarEnv::new().bind("step", q).bind("total", total);
                let s = self.switch.read_int("Bump", 0, "step", q, env);
                self.total = self.total.saturating_add(s);
                Ok(Value::Int(self.total))
            }
            "~Gauge" => Ok(Value::Null),
            _ => Err(unknown_method(self.class_name(), method)),
        }
    }
}

impl BuiltInTest for Gauge {
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
struct GaugeFactory {
    switch: MutationSwitch,
}

impl ComponentFactory for GaugeFactory {
    fn class_name(&self) -> &str {
        Gauge::CLASS
    }

    fn construct(
        &self,
        constructor: &str,
        _a: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        match constructor {
            "Gauge" => Ok(Box::new(Gauge {
                total: 1,
                ctl,
                switch: self.switch.clone(),
            })),
            other => Err(unknown_method(Gauge::CLASS, other)),
        }
    }
}

struct GaugeShards;

impl concat::mutation::ClonableFactory for GaugeShards {
    fn class_name(&self) -> &str {
        Gauge::CLASS
    }

    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
        Box::new(GaugeFactory {
            switch: switch.clone(),
        })
    }
}

fn gauge_spec() -> ClassSpec {
    ClassSpecBuilder::new(Gauge::CLASS)
        .constructor("m1", "Gauge")
        .method("m2", "Scale", MethodCategory::Update)
        .param("q", Domain::int_range(1, 5))
        .returns("int")
        .method("m3", "Bump", MethodCategory::Update)
        .param("q", Domain::int_range(1, 9))
        .returns("int")
        .destructor("m4", "~Gauge")
        .birth_node("n1", ["m1"])
        .task_node("n2", ["m2", "m3"])
        .death_node("n3", ["m4"])
        .edge("n1", "n2")
        .edge("n2", "n3")
        .edge("n1", "n3")
        .build()
        .expect("Gauge spec is valid")
}

/// The bundle under its narrow (`Scale` site 0) or wide (`Scale` sites
/// 0 and 1) inventory. The component is identical either way; only the
/// enumerated mutant list — and with it every `Bump` mutant's
/// campaign-global id — differs.
fn gauge_bundle(wide_scale: bool) -> SelfTestable {
    let switch = MutationSwitch::new();
    let mut scale = MethodInventory::new("Scale")
        .locals(["factor"])
        .globals_used(["total"])
        .site(0, "factor", "first mul");
    if wide_scale {
        scale = scale.site(1, "factor", "second mul");
    }
    let inventory = ClassInventory::new(Gauge::CLASS)
        .globals(["total"])
        .method(scale)
        .method(
            MethodInventory::new("Bump")
                .locals(["step"])
                .globals_used(["total"])
                .site(0, "step", "add"),
        );
    SelfTestableBuilder::new(
        gauge_spec(),
        Rc::new(GaugeFactory {
            switch: switch.clone(),
        }),
    )
    .mutation(inventory, switch)
    .mutation_shards(Arc::new(GaugeShards))
    .build()
}

/// One incremental campaign over the gauge bundle.
fn campaign(wide_scale: bool, workers: usize, journal: Option<&Path>) -> (MutationRun, Summary) {
    let sink = Arc::new(MemorySink::new());
    let mut consumer = Consumer::with_seed(61)
        .with_workers(workers)
        .with_telemetry(Telemetry::new(sink.clone()))
        .incremental();
    assert!(consumer.is_incremental());
    if let Some(path) = journal {
        consumer = consumer.with_journal(path);
    }
    let bundle = gauge_bundle(wide_scale);
    let suite = consumer.generate(&bundle).expect("generation succeeds");
    let run = consumer
        .evaluate_quality(&bundle, &suite, &["Scale", "Bump"], &[])
        .expect("campaign completes");
    (run, sink.summary())
}

fn render_report(run: &MutationRun) -> String {
    format!(
        "{}\n{}\n",
        render_score_table(
            "Gauge mutation analysis",
            &concat::mutation::MutationMatrix::from_run(run, &["Scale", "Bump"])
        ),
        summarize_run(run)
    )
}

fn replayed(summary: &Summary) -> u64 {
    summary
        .counters
        .get("mutation.replayed")
        .copied()
        .unwrap_or(0)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("concat-incremental-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn warm_rerun_of_unchanged_campaign_is_pure_replay() {
    for workers in [1, 4] {
        let dir = scratch(&format!("warm-w{workers}"));
        let path = dir.join("verdicts.journal");
        let (cold, cold_summary) = campaign(true, workers, Some(&path));
        assert!(cold.total() > 4, "enough mutants to matter");
        assert_eq!(replayed(&cold_summary), 0, "cold run replays nothing");

        let (warm, warm_summary) = campaign(true, workers, Some(&path));
        assert_eq!(
            warm.results, cold.results,
            "workers = {workers}: warm verdicts must be byte-identical"
        );
        assert_eq!(
            render_report(&warm),
            render_report(&cold),
            "workers = {workers}: warm report must be byte-identical"
        );
        assert_eq!(
            replayed(&warm_summary),
            cold.total() as u64,
            "workers = {workers}: every verdict replays — zero mutants re-execute"
        );
        assert_eq!(
            warm_summary.counters.get("mutation.incremental_rebuild"),
            None,
            "an unchanged campaign is a clean match, not a salvage"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn one_method_change_reexecutes_only_that_method() {
    for workers in [1, 4] {
        let dir = scratch(&format!("change-w{workers}"));
        let path = dir.join("verdicts.journal");
        // Cold campaign under the narrow inventory.
        let (narrow, _) = campaign(false, workers, Some(&path));
        let bump_mutants = narrow
            .results
            .iter()
            .filter(|r| r.mutant.method() == "Bump")
            .count();
        assert!(bump_mutants > 0, "Bump contributes mutants");

        // The golden: a cold wide campaign with no journal history.
        let (golden, _) = campaign(true, workers, None);
        assert!(
            golden.total() > narrow.total(),
            "widening Scale adds mutants and shifts Bump's ids"
        );

        // Widen Scale against the narrow journal: Bump's verdicts are
        // salvaged (remapped across the id shift) and only Scale's
        // mutants re-execute.
        let (widened, summary) = campaign(true, workers, Some(&path));
        assert_eq!(
            widened.results, golden.results,
            "workers = {workers}: salvaged run must be byte-identical to cold"
        );
        assert_eq!(
            render_report(&widened),
            render_report(&golden),
            "workers = {workers}: report must be byte-identical to cold"
        );
        assert_eq!(
            replayed(&summary),
            bump_mutants as u64,
            "workers = {workers}: exactly the unchanged method's verdicts replay"
        );
        assert_eq!(
            summary
                .counters
                .get("mutation.incremental_rebuild")
                .copied(),
            Some(1),
            "workers = {workers}: the foreign journal was salvaged, not discarded"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn coverage_sidecar_is_fingerprint_stamped_and_refuses_stale_loads() {
    let dir = scratch("sidecar");
    let path = dir.join("verdicts.journal");
    let (_, _) = campaign(true, 2, Some(&path));

    // The journal's first line is `<crc> campaign <fingerprint>`.
    let head = std::fs::read_to_string(&path).expect("journal readable");
    let header = head.lines().next().expect("journal has a header");
    let fingerprint = u32::from_str_radix(
        header
            .rsplit(' ')
            .next()
            .expect("header carries fingerprint"),
        16,
    )
    .expect("fingerprint is hex");

    let sidecar = PathBuf::from(format!("{}.coverage", path.display()));
    let text = std::fs::read_to_string(&sidecar).expect("coverage sidecar written");
    assert!(
        text.starts_with(&format!("campaign {fingerprint:08x}\n")),
        "sidecar carries the campaign stamp: {}",
        text.lines().next().unwrap_or("")
    );

    let coverage = load_campaign_coverage(&sidecar, fingerprint).expect("stamped sidecar loads");
    assert!(coverage.covers(0, "Scale") || coverage.covers(0, "Bump"));
    let err = load_campaign_coverage(&sidecar, fingerprint ^ 1).expect_err("stale stamp refused");
    assert!(err.contains("stale"), "{err}");

    // An unstamped (pre-fingerprint) sidecar is refused outright.
    let body = text.split_once('\n').expect("stamp line").1;
    std::fs::write(&sidecar, body).expect("strip stamp");
    let err = load_campaign_coverage(&sidecar, fingerprint).expect_err("unstamped refused");
    assert!(err.contains("stamp"), "{err}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
