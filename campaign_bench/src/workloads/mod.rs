//! The four workloads and what they share: campaign set-up from the
//! workload seed, the sequential reference, the measured loop, and the
//! per-layer metrics read from a traced round.

pub mod cold;
pub mod fleet;
pub mod walk;
pub mod warm;

use campaign_bench::probes::{ProbeTotals, Probes, TimedShards};
use campaign_bench::report::Report;
use campaign_bench::spans::SpanIndex;
use campaign_bench::stats::{median, nanos_in, tail_percentile};
use campaign_bench::{calib, derive_seed, host};
use concat_bench::{
    coblist_bundle_sharded, sortable_bundle_sharded, TABLE2_METHODS, TABLE3_METHODS,
};
use concat_core::{Consumer, SelfTestable};
use concat_driver::TestSuite;
use concat_mutation::{
    run_mutation_analysis, run_mutation_analysis_parallel, ClonableFactory, Mutant, MutantStatus,
    MutationConfig, MutationRun,
};
use concat_obs::{Collector, MemorySink, Telemetry};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Report per-layer metrics from traced rounds instead of end-to-end
    /// metrics.
    pub trace: bool,
}

/// Every per-layer metric, in output order, with its unit. A traced run
/// prints all of them; a layer a workload does not exercise reads 0.
///
/// The last four are a workload's own throughput and turnaround figures,
/// read from the untraced rounds of the traced run. They are recorded
/// without a bound, because they exist on only one or two workloads and
/// the gated end-to-end metrics must exist on all four.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("generate.ms", "ms"),
    ("generate.cases", "count"),
    ("invoke.calls", "count"),
    ("invoke.busy_s", "s"),
    ("invoke.p50_us", "us"),
    ("invoke.p99_us", "us"),
    ("construct.calls", "count"),
    ("construct.busy_s", "s"),
    ("bit.checks", "count"),
    ("bit.check_busy_s", "s"),
    ("bit.reports", "count"),
    ("bit.report_busy_s", "s"),
    ("case.count", "count"),
    ("case.busy_s", "s"),
    ("runner.self_s", "s"),
    ("golden.ms", "ms"),
    ("mutant.count", "count"),
    ("mutant.p50_ms", "ms"),
    ("mutant.p95_ms", "ms"),
    ("mutant.max_ms", "ms"),
    ("mutant.top10_share", "ratio"),
    ("cases.executed", "count"),
    ("cases.skipped", "count"),
    ("cases.per_kill", "ratio"),
    ("probe.ms", "ms"),
    ("merge.ms", "ms"),
    ("journal.busy_s", "s"),
    ("journal.records", "count"),
    ("journal.append_s", "s"),
    ("journal.bytes", "bytes"),
    ("rerun_p90_ms", "ms"),
    ("lease.count", "count"),
    ("lease.busy_s", "s"),
    ("slot.util", "ratio"),
    ("prepare.ms", "ms"),
    ("submit.us", "us"),
    ("walk.count", "count"),
    ("walk.calls", "count"),
    ("walk.checks", "count"),
    ("walk.gen_ms", "ms"),
    ("walk.exec_ms", "ms"),
    ("obs.events", "count"),
    ("obs.overhead_pct", "%"),
    ("mutants_per_s", "1/s"),
    ("campaign_p50_s", "s"),
    ("campaign_p75_s", "s"),
    ("calls_per_s", "1/s"),
];

/// Per-layer values of one traced round (or their mean over rounds).
pub type Layers = BTreeMap<&'static str, f64>;

/// The two mutation subjects of the paper's experiments.
#[derive(Debug, Clone, Copy)]
pub enum Subject {
    /// `CSortableObList`, mutated in its five new methods (Table 2).
    Sortable,
    /// `CObList`, mutated in three base methods (Table 3).
    CObList,
}

impl Subject {
    fn methods(self) -> &'static [&'static str] {
        match self {
            Subject::Sortable => &TABLE2_METHODS,
            Subject::CObList => &TABLE3_METHODS,
        }
    }

    /// The packaged bundle with its mutation switch and sharding seam.
    fn bundle(self) -> SelfTestable {
        match self {
            Subject::Sortable => sortable_bundle_sharded(),
            Subject::CObList => coblist_bundle_sharded(),
        }
    }
}

/// One campaign's inputs, exactly as `Consumer::campaign_request`
/// packages them: the same suite, mutants, probe suites and worker count
/// a solo `Consumer::evaluate_quality` would use.
pub struct Campaign {
    bundle: SelfTestable,
    /// The generated suite.
    pub suite: TestSuite,
    shards: Arc<dyn ClonableFactory>,
    /// The enumerated mutants.
    pub mutants: Vec<Mutant>,
    config: MutationConfig,
    /// Wall time of the `Consumer::generate` call that built the suite.
    pub generate_nanos: u64,
}

impl Campaign {
    /// Builds the campaign of `subject` whose suite and probe seeds derive
    /// from `seed`.
    pub fn prepare(subject: Subject, seed: u64) -> Campaign {
        let bundle = subject.bundle();
        let consumer = Consumer::with_seed(derive_seed(seed, 0));
        let start = Instant::now();
        let suite = consumer.generate(&bundle).expect("shipped spec generates");
        let generate_nanos = elapsed_nanos(start);
        let probe_seeds = [derive_seed(seed, 1), derive_seed(seed, 2)];
        let request = consumer
            .campaign_request(&bundle, &suite, subject.methods(), &probe_seeds)
            .expect("bundle carries mutation support and shards");
        Campaign {
            bundle,
            suite,
            shards: request.shards,
            mutants: request.mutants,
            config: request.config,
            generate_nanos,
        }
    }

    /// Worker count of the solo parallel engine (the `Consumer` default).
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// The campaign's configuration with a journal and telemetry set.
    pub fn config(&self, journal: Option<PathBuf>, telemetry: Telemetry) -> MutationConfig {
        let c = &self.config;
        MutationConfig {
            probe_suites: c.probe_suites.clone(),
            silence_panics: c.silence_panics,
            bit_enabled: c.bit_enabled,
            telemetry,
            budget: c.budget,
            crash_quarantine_threshold: c.crash_quarantine_threshold,
            workers: c.workers,
            journal_path: journal,
            worker_restarts: c.worker_restarts,
            coverage_selection: c.coverage_selection,
            isolation: c.isolation.clone(),
            incremental: c.incremental,
            lineage: c.lineage,
        }
    }

    /// The sharding seam, decorated when `probes` is given.
    pub fn shards(&self, probes: Option<&Arc<Probes>>) -> Arc<dyn ClonableFactory> {
        match probes {
            Some(p) => Arc::new(TimedShards::new(Arc::clone(&self.shards), Arc::clone(p))),
            None => Arc::clone(&self.shards),
        }
    }

    /// Runs the campaign on the solo parallel engine.
    pub fn run(&self, shards: &dyn ClonableFactory, config: &MutationConfig) -> MutationRun {
        run_mutation_analysis_parallel(shards, &self.suite, &self.mutants, config)
    }

    /// The sequential reference verdicts every measured run must match.
    pub fn reference(&self) -> MutationRun {
        let switch = self.bundle.switch().expect("bundle carries a switch");
        let config = self.config(None, Telemetry::disabled());
        run_mutation_analysis(
            self.bundle.factory(),
            switch,
            &self.suite,
            &self.mutants,
            &config,
        )
    }
}

/// Mutants of `run` that are quarantined or whose verdict differs from
/// `reference`; a missing verdict counts as failed.
pub fn failed_verdicts(run: &MutationRun, reference: &MutationRun) -> u64 {
    let wrong = reference
        .results
        .iter()
        .zip(&run.results)
        .filter(|(want, got)| {
            matches!(got.status, MutantStatus::Quarantined { .. }) || want.status != got.status
        })
        .count();
    let missing = reference.results.len().saturating_sub(run.results.len());
    (wrong + missing) as u64
}

/// Nanoseconds elapsed since `start`.
pub fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Wall and process-CPU time of one timed call, and how much slower than
/// the reference host the host ran meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall seconds.
    pub wall: f64,
    /// User plus system CPU seconds of the whole process.
    pub cpu: f64,
    /// The host's slowdown over the call (`calib::slowdown`); 1 until
    /// [`measure`] sets it.
    pub slowdown: f64,
}

impl Default for Timing {
    fn default() -> Timing {
        Timing {
            wall: 0.0,
            cpu: 0.0,
            slowdown: 1.0,
        }
    }
}

impl Timing {
    /// Wall seconds on the reference host.
    pub fn wall_ref(&self) -> f64 {
        self.wall / self.slowdown
    }

    /// CPU seconds on the reference host.
    pub fn cpu_ref(&self) -> f64 {
        self.cpu / self.slowdown
    }
}

/// Runs `f`, timing wall and process CPU around it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds() - cpu0;
    (
        out,
        Timing {
            wall,
            cpu,
            ..Timing::default()
        },
    )
}

/// How long one run repeats its set-up; `setup_s` is the median of the
/// repetitions.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Set-ups timed between two host calibrations.
const SETUP_CHUNK: Duration = Duration::from_millis(100);

/// Fewest set-ups a run times, however slow one is.
const MIN_SETUPS: usize = 15;

/// Most set-ups a run times, however fast one is.
const MAX_SETUPS: usize = 20_000;

/// The outcome of [`repeated_setup`].
pub struct Setup<T> {
    /// The last set-up's result.
    pub value: T,
    /// Median set-up seconds on the reference host.
    pub seconds: f64,
    /// Set-ups the median was taken over.
    pub samples: usize,
}

/// Repeats `setup` for [`SETUP_BUDGET`] (at least [`MIN_SETUPS`] times,
/// at most [`MAX_SETUPS`]), with a host calibration every
/// [`SETUP_CHUNK`], and returns the last result with the median set-up
/// time on the reference host.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> Setup<T> {
    let start = Instant::now();
    let mut scaled = Vec::new();
    let mut last = None;
    let mut before = calib::calibrate(1);
    while scaled.len() < MIN_SETUPS || (scaled.len() < MAX_SETUPS && start.elapsed() < SETUP_BUDGET)
    {
        let chunk = Instant::now();
        let mut raw = Vec::new();
        while raw.is_empty()
            || (chunk.elapsed() < SETUP_CHUNK && scaled.len() + raw.len() < MAX_SETUPS)
        {
            let t = Instant::now();
            last = Some(setup());
            raw.push(t.elapsed().as_secs_f64());
        }
        let after = calib::calibrate(1);
        let slowdown = calib::slowdown(before, after);
        scaled.extend(raw.iter().map(|t| t / slowdown));
        before = after;
    }
    Setup {
        value: last.expect("set-up ran at least once"),
        seconds: median(&scaled).expect("at least one set-up time"),
        samples: scaled.len(),
    }
}

/// Timings of the measured phase, split by traced and untraced rounds.
#[derive(Debug, Default)]
pub struct Measured {
    /// Untraced rounds.
    pub plain: Vec<Timing>,
    /// Traced rounds (only with `--trace 1`).
    pub traced: Vec<Timing>,
}

impl Measured {
    /// Wall seconds of the untraced rounds on the reference host.
    pub fn walls(&self) -> Vec<f64> {
        self.plain.iter().map(Timing::wall_ref).collect()
    }

    /// Median process CPU seconds of an untraced round on the reference
    /// host.
    pub fn cpu_per_round(&self) -> f64 {
        median(&self.plain.iter().map(Timing::cpu_ref).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    /// Traced-over-untraced median round wall, as a percentage overhead.
    pub fn overhead_pct(&self) -> f64 {
        let walls = |ts: &[Timing]| median(&ts.iter().map(Timing::wall_ref).collect::<Vec<_>>());
        match (walls(&self.plain), walls(&self.traced)) {
            (Some(plain), Some(traced)) if plain > 0.0 => (traced / plain - 1.0) * 100.0,
            _ => 0.0,
        }
    }
}

/// Repeats `round` until `seconds` have passed. With tracing, rounds
/// alternate untraced and traced (at least one of each), so both see the
/// same host conditions. `round(traced)` times only the work it measures.
/// A host calibration on `threads` threads runs before the first round
/// and after every round; each round's slowdown is the mean of the two
/// around it.
pub fn measure(
    seconds: Duration,
    trace: bool,
    threads: usize,
    mut round: impl FnMut(bool) -> Timing,
) -> Measured {
    let start = Instant::now();
    let mut measured = Measured::default();
    let mut before = calib::calibrate(threads);
    for i in 0.. {
        let traced = trace && i % 2 == 1;
        let mut timing = round(traced);
        let after = calib::calibrate(threads);
        timing.slowdown = calib::slowdown(before, after);
        before = after;
        if traced {
            measured.traced.push(timing);
        } else {
            measured.plain.push(timing);
        }
        let enough = !trace || !measured.traced.is_empty();
        if enough && start.elapsed() >= seconds {
            break;
        }
    }
    measured
}

/// A memory sink plus timing decorators for traced rounds.
pub struct Tracer {
    sink: Arc<MemorySink>,
    /// The decorators' shared sink.
    pub probes: Arc<Probes>,
}

impl Tracer {
    /// A fresh tracer.
    pub fn new() -> Tracer {
        Tracer {
            sink: Arc::new(MemorySink::new()),
            probes: Probes::new(),
        }
    }

    /// Telemetry recording into this tracer's sink.
    pub fn telemetry(&self) -> Telemetry {
        Telemetry::new(Arc::clone(&self.sink) as Arc<dyn Collector>)
    }

    /// Drains the spans and probe samples recorded since the last call.
    pub fn drain(&self) -> (SpanIndex, ProbeTotals) {
        let events = self.sink.events();
        self.sink.clear();
        (SpanIndex::new(&events), self.probes.take())
    }
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// The layer metrics every workload reads the same way, per unit of work:
/// spans and decorator samples of a traced round, with counts and busy
/// times divided by `units` (the round's campaigns, bursts or reruns).
///
/// Every decorated call made by the runner lies inside a case span, so
/// `runner.self_s` (case busy minus decorated busy) cannot be negative
/// unless the split lost time outside case spans. Each traced round is
/// one attempted check of that, failed when it comes out negative.
pub fn common_layers(
    report: &mut Report,
    index: &SpanIndex,
    probes: &ProbeTotals,
    units: f64,
) -> Layers {
    let mut l = Layers::new();
    let per = |v: f64| v / units;

    let invoke_us = nanos_in(&probes.invoke_nanos, 1e3);
    let invoke_busy = secs(probes.invoke_busy_nanos());
    l.insert("invoke.calls", per(invoke_us.len() as f64));
    l.insert("invoke.busy_s", per(invoke_busy));
    l.insert("invoke.p50_us", median(&invoke_us).unwrap_or(0.0));
    l.insert(
        "invoke.p99_us",
        tail_percentile(&invoke_us, 99).map_or(0.0, |t| t.value),
    );
    l.insert("construct.calls", per(probes.constructs as f64));
    l.insert("construct.busy_s", per(secs(probes.construct_nanos)));
    l.insert("bit.checks", per(probes.checks as f64));
    l.insert("bit.check_busy_s", per(secs(probes.check_nanos)));
    l.insert("bit.reports", per(probes.reports as f64));
    l.insert("bit.report_busy_s", per(secs(probes.report_nanos)));

    let cases = index.count("case");
    let case_busy = secs(index.busy("case"));
    l.insert("case.count", per(cases as f64));
    l.insert("case.busy_s", per(case_busy));
    // Outside test cases (invariant walks) components are driven
    // directly, so the runner has no share to report.
    let runner_self = if cases == 0 {
        0.0
    } else {
        case_busy
            - invoke_busy
            - secs(probes.construct_nanos + probes.check_nanos + probes.report_nanos)
    };
    l.insert("runner.self_s", per(runner_self));
    report.attempted += 1;
    if runner_self < 0.0 {
        report.failed += 1;
        report.number("runner.self_s.negative", runner_self);
    }
    l.insert("golden.ms", per(ms(index.busy("golden"))));

    let mut mutant_ms = nanos_in(&index.nanos("mutant"), 1e6);
    l.insert("mutant.count", per(mutant_ms.len() as f64));
    l.insert("mutant.p50_ms", median(&mutant_ms).unwrap_or(0.0));
    l.insert(
        "mutant.p95_ms",
        tail_percentile(&mutant_ms, 95).map_or(0.0, |t| t.value),
    );
    mutant_ms.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = mutant_ms.iter().sum();
    l.insert("mutant.max_ms", mutant_ms.first().copied().unwrap_or(0.0));
    l.insert(
        "mutant.top10_share",
        if total > 0.0 {
            mutant_ms.iter().take(10).sum::<f64>() / total
        } else {
            0.0
        },
    );
    l.insert(
        "cases.executed",
        per(index.count_under("case", "mutant") as f64),
    );
    l.insert(
        "cases.skipped",
        per(index.counter("selection.skipped") as f64),
    );
    l.insert("probe.ms", per(ms(index.busy("probe"))));
    l.insert("merge.ms", per(ms(index.busy("merge"))));
    l.insert("journal.busy_s", per(secs(index.busy("journal"))));
    l.insert(
        "journal.records",
        per(index.count_labelled("journal", "append") as f64),
    );
    l.insert("lease.count", per(index.count("lease") as f64));
    l.insert("lease.busy_s", per(secs(index.busy("lease"))));
    l.insert("obs.events", per(index.events as f64));
    l
}

/// The element-wise mean of per-round layer values.
pub fn mean_layers(rounds: &[Layers]) -> Layers {
    let mut out = Layers::new();
    for layers in rounds {
        for (k, v) in layers {
            *out.entry(k).or_default() += v / rounds.len() as f64;
        }
    }
    out
}

/// Prints every per-layer metric; layers the workload never reached read 0.
pub fn emit_layers(report: &mut Report, layers: &Layers) {
    for (name, unit) in PER_LAYER {
        report.metric(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Records the host facts and run parameters every result carries.
pub fn describe(report: &mut Report, args: &Args) {
    report.text("workload", args.workload.as_str());
    report.number("seed", args.seed as f64);
    report.number("seconds", args.seconds.as_secs_f64());
    report.number("trace", f64::from(u8::from(args.trace)));
    report.number("nproc", host::nproc() as f64);
    report.text("cpu_model", host::cpu_model());
    report.text("rustc", host::rustc_version());
    report.text("profile", host::profile());
}

/// A per-run scratch directory under the working directory, removed on
/// drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.campaign_bench_work/<workload>-<pid>`.
    pub fn new(workload: &str) -> WorkDir {
        let dir = PathBuf::from(".campaign_bench_work")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        WorkDir(dir)
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too once no other run is using it.
        let _ = std::fs::remove_dir(".campaign_bench_work");
    }
}

/// Records the end-to-end metrics every workload reports, in the same
/// order: `wall_s` (the median wall time of one unit of work, which each
/// workload measures its own way), CPU per unit of work, median set-up
/// time and peak memory, plus the round and calibration facts behind
/// them. `units` is how many units of work (campaigns, bursts, reruns)
/// one round holds.
pub fn emit_common(
    report: &mut Report,
    measured: &Measured,
    wall_s: f64,
    setup_s: f64,
    setup_samples: usize,
    units: f64,
) {
    report.metric("wall_s", wall_s, "s");
    report.metric("cpu_s", measured.cpu_per_round() / units, "s");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    report.number("setup_s.samples", setup_samples as f64);
    let walls = measured.walls();
    report.number("rounds", walls.len() as f64);
    report.number(
        "round_wall_min_s",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.number(
        "round_wall_max_s",
        walls.iter().copied().fold(0.0, f64::max),
    );
    let raw: Vec<f64> = measured.plain.iter().map(|t| t.wall).collect();
    report.number("round_wall_raw_median_s", median(&raw).unwrap_or(0.0));
    let slowdowns: Vec<f64> = measured.plain.iter().map(|t| t.slowdown).collect();
    report.number("slowdown_median", median(&slowdowns).unwrap_or(1.0));
    report.number(
        "slowdown_min",
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.number(
        "slowdown_max",
        slowdowns.iter().copied().fold(0.0, f64::max),
    );
}
