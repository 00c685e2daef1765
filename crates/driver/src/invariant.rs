//! Stateful invariant fuzzing: seeded random walks over the TFM.
//!
//! Transaction-coverage generation ([`crate::DriverGenerator`]) exercises
//! each birth→death path once with a fresh object — which can never reach
//! bugs that need *long* histories or *interleaved* lifecycles. The walk
//! engine complements it: a seeded random traversal of the transaction
//! flow model drives hundreds of method calls across several concurrently
//! live objects, invoking the BIT class invariant (and the t-spec's
//! declarative invariant clauses) after every call.
//!
//! When a walk fails, [`shrink_sequence`] delta-debugs the call sequence
//! down to a shortest reproducer — dropping calls chunk-wise, then
//! shrinking generated argument values toward domain boundaries — and the
//! result is an ordinary [`WalkSequence`] that replays byte-identically
//! from its text form ([`save_sequence`] / [`load_sequence`]) and converts
//! to plain [`TestCase`]s for the committed regression suite.
//!
//! Everything is deterministic in the seed: generation never consults the
//! component, so the same seed produces the same walk, the same failure
//! and the same shrunk reproducer on every run.

use crate::inputs::InputGenerator;
use crate::persist::{keyed_lines, parse_call, perr, write_call, PersistError};
use crate::runner::{guarded, Guarded};
use crate::testcase::{ArgOrigin, MethodCall, TestCase};
use concat_bit::{BitControl, ComponentFactory};
use concat_runtime::{crc32, CancelToken, Rng, TestException, Value};
use concat_tfm::{NodeKind, WalkPolicy};
use concat_tspec::{ClassSpec, MethodCategory, MethodSpec};
use std::fmt;
use std::fmt::Write as _;

/// Configuration of an invariant-fuzzing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkConfig {
    /// Master seed; each walk derives its own seed from it.
    pub seed: u64,
    /// Number of independent walks.
    pub walks: usize,
    /// Steps (constructor and method calls) per walk.
    pub calls_per_walk: usize,
    /// Concurrently live objects interleaved by one walk.
    pub objects: usize,
    /// Edge-selection policy.
    pub policy: WalkPolicy,
}

impl WalkConfig {
    /// Defaults: 8 walks × 256 calls over 2 interleaved objects with the
    /// coverage-guaranteeing least-visited policy.
    pub fn new(seed: u64) -> Self {
        WalkConfig {
            seed,
            walks: 8,
            calls_per_walk: 256,
            objects: 2,
            policy: WalkPolicy::LeastVisited,
        }
    }

    /// Sets the number of walks.
    pub fn with_walks(mut self, walks: usize) -> Self {
        self.walks = walks.max(1);
        self
    }

    /// Sets the per-walk step count.
    pub fn with_calls_per_walk(mut self, calls: usize) -> Self {
        self.calls_per_walk = calls.max(1);
        self
    }

    /// Sets the number of interleaved objects.
    pub fn with_objects(mut self, objects: usize) -> Self {
        self.objects = objects.max(1);
        self
    }

    /// Sets the edge-selection policy.
    pub fn with_policy(mut self, policy: WalkPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The derived seed of walk `index`. Walks are independent streams:
    /// resuming a campaign at walk *k* reproduces walks *k..* exactly,
    /// whatever happened before.
    pub fn walk_seed(&self, index: usize) -> u64 {
        self.seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1))
    }
}

/// What a walk step does to its object slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Create the object through a birth-node constructor.
    Construct,
    /// Invoke a task/death-node method on the live object.
    Invoke,
}

concat_runtime::keyword_table!(StepKind {
    Construct => "c",
    Invoke => "i",
});

/// One step of a walk: which object slot, what call, at which TFM node.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkStep {
    /// Object slot index (walks interleave several live objects).
    pub object: usize,
    /// Construct or invoke.
    pub kind: StepKind,
    /// Label of the TFM node the call was drawn from.
    pub node: String,
    /// The concrete call.
    pub call: MethodCall,
}

/// A complete generated walk: the unit of execution, shrinking, corpus
/// persistence and replay.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkSequence {
    /// Class under test.
    pub class_name: String,
    /// The derived seed this walk was generated from (0 for shrunk or
    /// hand-built sequences — the steps, not the seed, are authoritative).
    pub seed: u64,
    /// The steps, in execution order.
    pub steps: Vec<WalkStep>,
}

impl WalkSequence {
    /// Number of steps (constructors included).
    pub fn call_count(&self) -> usize {
        self.steps.len()
    }

    /// True when the sequence has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Canonical text rendering, one line per step:
    /// `s2 o0 . n3 AddHead(17)` (`+` marks constructors). Byte-equal
    /// renderings mean byte-equal sequences — the fingerprint hashes this.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            let mark = match s.kind {
                StepKind::Construct => '+',
                StepKind::Invoke => '.',
            };
            let _ = writeln!(out, "s{i} o{} {mark} {} {}", s.object, s.node, s.call);
        }
        out
    }

    /// Content fingerprint of the rendered sequence, for corpus
    /// deduplication.
    pub fn fingerprint(&self) -> u32 {
        crc32(self.render().as_bytes())
    }

    /// Splits the walk into ordinary per-lifecycle [`TestCase`]s: each
    /// `Construct` opens a case for its slot, subsequent `Invoke`s on the
    /// slot append to it. Cases are ordered by their constructor step and
    /// numbered sequentially — ready to join a committed regression suite.
    pub fn to_test_cases(&self) -> Vec<TestCase> {
        let mut open: Vec<Option<TestCase>> = Vec::new();
        let mut done: Vec<TestCase> = Vec::new();
        let mut next_id = 0usize;
        for step in &self.steps {
            if step.object >= open.len() {
                open.resize_with(step.object + 1, || None);
            }
            match step.kind {
                StepKind::Construct => {
                    if let Some(finished) = open[step.object].take() {
                        done.push(finished);
                    }
                    open[step.object] = Some(TestCase {
                        id: next_id,
                        transaction_index: next_id,
                        node_path: vec![step.node.clone()],
                        constructor: step.call.clone(),
                        calls: Vec::new(),
                    });
                    next_id += 1;
                }
                StepKind::Invoke => {
                    if let Some(case) = open[step.object].as_mut() {
                        case.node_path.push(step.node.clone());
                        case.calls.push(step.call.clone());
                    }
                }
            }
        }
        for case in open.into_iter().flatten() {
            done.push(case);
        }
        done.sort_by_key(|c| c.id);
        done
    }
}

/// Generates one walk of `config.calls_per_walk` steps from `walk_seed`.
///
/// Generation only reads the t-spec (graph shape, method signatures,
/// parameter domains) — never the component — so a sequence regenerates
/// byte-identically from its seed regardless of how past executions went.
/// Parameters whose domains need manual completion (object/pointer kinds
/// without a provider) get a `Null` placeholder with [`ArgOrigin::Manual`].
pub fn generate_walk(spec: &ClassSpec, config: &WalkConfig, walk_seed: u64) -> WalkSequence {
    let mut rng = Rng::seed_from_u64(walk_seed);
    // A separate input stream, so adding a parameter to one method cannot
    // reshuffle every later structural choice.
    let mut inputs = InputGenerator::new(walk_seed ^ 0x5DEE_CE66_DAB0_F00Du64);
    let mut walkers: Vec<concat_tfm::EdgeWalker> = (0..config.objects)
        .map(|_| concat_tfm::EdgeWalker::new(config.policy))
        .collect();
    let mut alive = vec![false; config.objects];
    let mut steps = Vec::with_capacity(config.calls_per_walk);
    let mut stalls = 0usize;
    while steps.len() < config.calls_per_walk {
        let object = rng.index(config.objects);
        if alive[object] {
            let next = {
                let rng = &mut rng;
                let mut pick = |n: usize| rng.index(n);
                walkers[object].step(&spec.tfm, &mut pick)
            };
            match next {
                Some(node_id) => {
                    let node = spec.tfm.node(node_id);
                    let method_id = &node.methods[rng.index(node.methods.len())];
                    let Some(m) = spec.method(method_id) else {
                        // Spec validation rejects dangling ids; skip
                        // defensively rather than panic mid-fuzz.
                        continue;
                    };
                    let call = draw_call(&mut inputs, m);
                    if node.kind == NodeKind::Death {
                        alive[object] = false;
                    }
                    steps.push(WalkStep {
                        object,
                        kind: StepKind::Invoke,
                        node: node.label.clone(),
                        call,
                    });
                }
                None => {
                    // Dead end without a death node: the lifecycle simply
                    // ends and the slot is reborn on its next selection.
                    alive[object] = false;
                    stalls += 1;
                    if stalls > config.calls_per_walk * 4 {
                        break;
                    }
                }
            }
        } else {
            let birth = {
                let rng = &mut rng;
                let mut pick = |n: usize| rng.index(n);
                walkers[object].restart(&spec.tfm, &mut pick)
            };
            let node = spec.tfm.node(birth);
            let method_id = &node.methods[rng.index(node.methods.len())];
            let Some(m) = spec.method(method_id) else {
                continue;
            };
            let call = draw_call(&mut inputs, m);
            alive[object] = true;
            steps.push(WalkStep {
                object,
                kind: StepKind::Construct,
                node: node.label.clone(),
                call,
            });
        }
    }
    WalkSequence {
        class_name: spec.class_name.clone(),
        seed: walk_seed,
        steps,
    }
}

fn draw_call(inputs: &mut InputGenerator, m: &MethodSpec) -> MethodCall {
    let mut args = Vec::with_capacity(m.params.len());
    let mut origins = Vec::with_capacity(m.params.len());
    for p in &m.params {
        match inputs.generate(&p.domain) {
            Ok((v, o)) => {
                args.push(v);
                origins.push(o);
            }
            Err(_) => {
                args.push(Value::Null);
                origins.push(ArgOrigin::Manual);
            }
        }
    }
    MethodCall {
        method_id: m.id.clone(),
        method: m.name.clone(),
        args,
        origins,
    }
}

/// Why a walk failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The BIT class invariant fired.
    Invariant {
        /// The violation's message.
        message: String,
    },
    /// A declarative t-spec invariant clause evaluated to false.
    SpecClause {
        /// Id of the violated clause (`i1`, …).
        id: String,
    },
    /// The component panicked (exceptions are tolerated; panics are not).
    Panic {
        /// Rendered panic payload.
        message: String,
    },
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Invariant { message } => write!(f, "invariant violated: {message}"),
            FailureKind::SpecClause { id } => write!(f, "spec clause {id} violated"),
            FailureKind::Panic { message } => write!(f, "panicked: {message}"),
        }
    }
}

/// A failure localized to one step of a walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkFailure {
    /// Index of the step after which the failure surfaced.
    pub step: usize,
    /// Object slot the failing check belongs to.
    pub object: usize,
    /// What failed.
    pub kind: FailureKind,
}

/// Everything observable about one executed walk.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkOutcome {
    /// Deterministic per-step transcript (byte-comparable across runs).
    pub transcript: String,
    /// Invariant + clause evaluations performed.
    pub checks: u64,
    /// Steps actually executed (≤ sequence length on failure/interrupt).
    pub executed_steps: usize,
    /// The first failure, if any; execution stops at it.
    pub failure: Option<WalkFailure>,
    /// True when a cancellation/deadline interrupted the walk — the walk
    /// is then neither a pass nor a failure and must not be journaled.
    pub interrupted: bool,
}

/// How a walk step's construct or invoke ended, before it is rendered.
enum Stepped {
    /// A constructor returned.
    Built,
    /// The slot held no live object.
    Skipped,
    /// A method returned this value.
    Returned(Value),
    /// The component raised an exception.
    Raised(TestException),
}

/// Executes `seq` against `factory`: construct/invoke per step, then the
/// BIT class invariant of every live object (slot order) and every t-spec
/// invariant clause against the fields it names
/// ([`concat_bit::BuiltInTest::observe`]).
///
/// Component *exceptions* are tolerated and recorded — a random walk
/// legitimately calls `RemoveHead` on an empty list. Panics, invariant
/// violations and false clauses are failures and stop the walk. A fired
/// `cancel` token (or a watchdog's deadline unwind) marks the outcome
/// interrupted instead; a step a deadline unwinds leaves no line.
pub fn execute_sequence(
    factory: &dyn ComponentFactory,
    spec: &ClassSpec,
    seq: &WalkSequence,
    ctl: &BitControl,
    cancel: Option<&CancelToken>,
) -> WalkOutcome {
    let slots_needed = seq.steps.iter().map(|s| s.object + 1).max().unwrap_or(0);
    let mut slots: Vec<Option<Box<dyn concat_bit::TestableComponent>>> = Vec::new();
    slots.resize_with(slots_needed, || None);
    let mut transcript = String::new();
    let mut checks = 0u64;
    let mut executed_steps = 0usize;
    let mut failure: Option<WalkFailure> = None;
    let mut interrupted = false;

    'steps: for (i, step) in seq.steps.iter().enumerate() {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            interrupted = true;
            break;
        }
        let (method, args) = (&step.call.method, &step.call.args);
        let stepped = match (step.kind, &mut slots[step.object]) {
            (StepKind::Construct, slot) => {
                guarded(|| match factory.construct(method, args, ctl.clone()) {
                    Ok(c) => {
                        *slot = Some(c);
                        Stepped::Built
                    }
                    Err(exc) => {
                        *slot = None;
                        Stepped::Raised(exc)
                    }
                })
            }
            (StepKind::Invoke, Some(component)) => {
                guarded(|| match component.invoke(method, args) {
                    Ok(v) => Stepped::Returned(v),
                    Err(exc) => Stepped::Raised(exc),
                })
            }
            (StepKind::Invoke, None) => Guarded::Done(Stepped::Skipped),
        };
        let head = format_args!("s{i} o{} {} -> ", step.object, step.call);
        let _ = match stepped {
            Guarded::Done(Stepped::Built) => writeln!(transcript, "{head}ok"),
            Guarded::Done(Stepped::Skipped) => writeln!(transcript, "{head}skipped"),
            Guarded::Done(Stepped::Returned(v)) => writeln!(transcript, "{head}{v}"),
            Guarded::Done(Stepped::Raised(exc)) => {
                writeln!(transcript, "{head}raised [{}] {exc}", exc.tag())
            }
            Guarded::Deadline => {
                interrupted = true;
                break;
            }
            Guarded::Panicked(message) => {
                let _ = writeln!(transcript, "{head}panicked: {message}");
                failure = Some(WalkFailure {
                    step: i,
                    object: step.object,
                    kind: FailureKind::Panic { message },
                });
                executed_steps = i + 1;
                break;
            }
        };
        if step.kind == StepKind::Invoke
            && spec
                .method(&step.call.method_id)
                .is_some_and(|m| m.category == MethodCategory::Destructor)
        {
            slots[step.object] = None;
        }
        executed_steps = i + 1;
        // Check every live object after every step: the paper's "invariant
        // around every call", widened to interleaved lifecycles.
        for (oi, slot) in slots.iter().enumerate() {
            let Some(component) = slot else { continue };
            checks += 1;
            if let Err(v) = component.invariant_test() {
                let message = v.to_string();
                let _ = writeln!(transcript, "s{i} o{oi} ! invariant: {message}");
                failure = Some(WalkFailure {
                    step: i,
                    object: oi,
                    kind: FailureKind::Invariant { message },
                });
                break 'steps;
            }
            for inv in &spec.invariants {
                checks += 1;
                if inv.eval(&|name| component.observe(name)) == Some(false) {
                    let _ = writeln!(transcript, "s{i} o{oi} ! clause {inv}");
                    failure = Some(WalkFailure {
                        step: i,
                        object: oi,
                        kind: FailureKind::SpecClause { id: inv.id.clone() },
                    });
                    break 'steps;
                }
            }
        }
    }

    WalkOutcome {
        transcript,
        checks,
        executed_steps,
        failure,
        interrupted,
    }
}

/// Bound on shrink fixpoint rounds — each round only keeps a candidate
/// that still fails, so this is a safety valve, not a tuning knob.
const MAX_SHRINK_ROUNDS: usize = 8;

/// Delta-debugs a failing sequence to a (locally) minimal reproducer.
///
/// Pipeline, repeated to a fixpoint: truncate at the failing step → ddmin
/// chunk removal (halving chunk sizes) with orphan-invoke normalization →
/// per-argument shrinking toward domain boundary values. The oracle is
/// "still fails with the same [`FailureKind`]". A passing sequence is
/// returned unchanged, and shrinking a shrunk sequence is the identity
/// (the fixpoint property the test suite asserts).
pub fn shrink_sequence(
    factory: &dyn ComponentFactory,
    spec: &ClassSpec,
    seq: &WalkSequence,
    ctl: &BitControl,
) -> WalkSequence {
    let first = execute_sequence(factory, spec, seq, ctl, None);
    let Some(target) = first.failure else {
        return seq.clone();
    };
    let target_kind = target.kind;
    let still_fails = |steps: &[WalkStep]| -> bool {
        if steps.is_empty() {
            return false;
        }
        let cand = WalkSequence {
            class_name: seq.class_name.clone(),
            seed: seq.seed,
            steps: steps.to_vec(),
        };
        execute_sequence(factory, spec, &cand, ctl, None)
            .failure
            .map(|f| f.kind)
            == Some(target_kind.clone())
    };

    let mut steps = seq.steps.clone();
    steps.truncate(target.step + 1);

    for _ in 0..MAX_SHRINK_ROUNDS {
        let before = steps.clone();

        // ddmin: remove chunks, largest first.
        let mut chunk = (steps.len() / 2).max(1);
        loop {
            let mut i = 0;
            while i < steps.len() {
                let mut cand: Vec<WalkStep> = Vec::with_capacity(steps.len());
                cand.extend_from_slice(&steps[..i]);
                cand.extend_from_slice(&steps[(i + chunk).min(steps.len())..]);
                normalize(&mut cand);
                if still_fails(&cand) {
                    steps = cand;
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // Argument shrinking: replace generated values with domain
        // boundary values where the failure survives.
        for si in 0..steps.len() {
            let Some(m) = spec.method(&steps[si].call.method_id) else {
                continue;
            };
            let params = m.params.clone();
            for (ai, p) in params.iter().enumerate() {
                if ai >= steps[si].call.args.len() {
                    break;
                }
                for b in p.domain.boundary_values() {
                    if b == steps[si].call.args[ai] {
                        continue;
                    }
                    let mut cand = steps.clone();
                    cand[si].call.args[ai] = b;
                    cand[si].call.origins[ai] = ArgOrigin::Boundary;
                    if still_fails(&cand) {
                        steps = cand;
                        break;
                    }
                }
            }
        }

        if steps == before {
            break;
        }
    }

    WalkSequence {
        class_name: seq.class_name.clone(),
        seed: seq.seed,
        steps,
    }
}

/// Drops invoke steps whose object slot cannot be live at that point: no
/// preceding construct, or a destructor already ran. Keeps candidates
/// honest — a "skipped" invoke contributes nothing to a reproducer.
fn normalize(steps: &mut Vec<WalkStep>) {
    let mut live: Vec<bool> = Vec::new();
    steps.retain(|s| {
        if s.object >= live.len() {
            live.resize(s.object + 1, false);
        }
        match s.kind {
            StepKind::Construct => {
                live[s.object] = true;
                true
            }
            StepKind::Invoke => live[s.object],
        }
    });
}

/// Serializes a sequence to the corpus/journal text form.
///
/// ```text
/// walk CSortableObList
/// seed 42
/// step 0 c n1 m1 CSortableObList - []
/// step 0 i n2 m2 AddHead g [3]
/// end
/// ```
pub fn save_sequence(seq: &WalkSequence) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "walk {}", seq.class_name);
    let _ = writeln!(out, "seed {}", seq.seed);
    for s in &seq.steps {
        let _ = write!(out, "step {} {} {}", s.object, s.kind.keyword(), s.node);
        write_call(&mut out, &s.call);
    }
    let _ = writeln!(out, "end");
    out
}

/// Parses the [`save_sequence`] form back; `save_sequence(load_sequence(t))
/// == t` for any saved `t`.
pub fn load_sequence(text: &str) -> Result<WalkSequence, PersistError> {
    let mut class_name: Option<String> = None;
    let mut seed = 0u64;
    let mut steps: Vec<WalkStep> = Vec::new();
    let mut ended = false;
    for (line_no, keyword, rest) in keyed_lines(text) {
        if ended {
            return Err(perr(line_no, "content after `end`"));
        }
        match keyword {
            "walk" if rest.is_empty() => return Err(perr(line_no, "walk needs a class name")),
            "walk" => class_name = Some(rest.to_owned()),
            "seed" => seed = rest.parse().map_err(|_| perr(line_no, "bad seed"))?,
            "step" => {
                let mut parts = rest.splitn(4, ' ');
                let (Some(object), Some(kind), Some(node), Some(call)) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    return Err(perr(line_no, "step needs: <obj> <c|i> <node> <call>"));
                };
                steps.push(WalkStep {
                    object: object.parse().map_err(|_| perr(line_no, "bad object"))?,
                    kind: StepKind::from_keyword(kind)
                        .ok_or_else(|| perr(line_no, format!("unknown step kind `{kind}`")))?,
                    node: node.to_owned(),
                    call: parse_call(call, line_no)?,
                });
            }
            "end" => ended = true,
            other => return Err(perr(line_no, format!("unknown keyword `{other}`"))),
        }
    }
    let Some(class_name) = class_name else {
        return Err(perr(1, "missing `walk <class>` header"));
    };
    if !ended {
        return Err(perr(text.lines().count().max(1), "missing `end`"));
    }
    Ok(WalkSequence {
        class_name,
        seed,
        steps,
    })
}

/// Aggregate statistics of an invariant campaign, rendered by the report
/// crate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InvariantSummary {
    /// Class under test.
    pub class_name: String,
    /// Master seed.
    pub seed: u64,
    /// Walks executed (journal-resumed walks included).
    pub walks: u64,
    /// Steps executed across all walks.
    pub calls: u64,
    /// Invariant + clause evaluations performed.
    pub checks: u64,
    /// Walks that failed.
    pub failures: u64,
    /// Corpus sequences replayed before fuzzing.
    pub replayed: u64,
    /// Replayed sequences that still fail.
    pub replayed_failing: u64,
    /// Total steps of failing walks before shrinking.
    pub original_calls: u64,
    /// Total steps of the shrunk reproducers.
    pub shrunk_calls: u64,
    /// True when budget/deadline stopped the campaign early (resumable
    /// from the journal).
    pub stopped: bool,
}

/// One failing sequence distilled by an invariant campaign: where it came
/// from, why it failed, and its minimized reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantBreaker {
    /// Index of the walk that discovered it; `None` for corpus replays.
    pub walk: Option<usize>,
    /// True when the sequence was replayed from the persistent corpus.
    pub from_corpus: bool,
    /// Why the sequence failed.
    pub failure: FailureKind,
    /// Steps executed by the original failing sequence.
    pub original_calls: usize,
    /// The shrunk reproducer (for corpus replays, the replayed sequence
    /// itself — it was already shrunk when deposited).
    pub shrunk: WalkSequence,
}

#[cfg(test)]
mod tests {
    use super::*;
    use concat_bit::{BuiltInTest, StateReport, TestableComponent};
    use concat_runtime::{
        args, unknown_method, AssertionViolation, Component, InvokeResult, TestException,
    };
    use concat_tspec::{ClassSpecBuilder, Domain, InvariantOp, InvariantTerm};

    /// A counter whose invariant (`n >= 0`) breaks only after `Sub` drives
    /// it below zero — which random walks will eventually do.
    struct Counter {
        n: i64,
        ctl: BitControl,
    }

    impl Component for Counter {
        fn class_name(&self) -> &'static str {
            "Counter"
        }
        fn method_names(&self) -> Vec<&'static str> {
            vec!["Add", "Sub", "Total", "~Counter"]
        }
        fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
            match m {
                "Add" => {
                    self.n += args::int(m, a, 0)?;
                    Ok(Value::Null)
                }
                "Sub" => {
                    self.n -= args::int(m, a, 0)?;
                    Ok(Value::Null)
                }
                "Total" => Ok(Value::Int(self.n)),
                "~Counter" => Ok(Value::Null),
                _ => Err(unknown_method(self.class_name(), m)),
            }
        }
    }

    impl BuiltInTest for Counter {
        fn bit_control(&self) -> &BitControl {
            &self.ctl
        }
        fn invariant_test(&self) -> Result<(), AssertionViolation> {
            concat_bit::check(
                &self.ctl,
                concat_runtime::AssertionKind::Invariant,
                "Counter",
                "",
                "n >= 0",
                self.n >= 0,
            )
        }
        fn reporter(&self) -> StateReport {
            let mut r = StateReport::new();
            r.set("n", Value::Int(self.n));
            r
        }
    }

    struct CounterFactory;
    impl ComponentFactory for CounterFactory {
        fn class_name(&self) -> &str {
            "Counter"
        }
        fn construct(
            &self,
            constructor: &str,
            _args: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            match constructor {
                "Counter" => Ok(Box::new(Counter { n: 0, ctl })),
                other => Err(unknown_method("Counter", other)),
            }
        }
    }

    fn counter_spec() -> ClassSpec {
        ClassSpecBuilder::new("Counter")
            .attribute("n", Domain::int_range(-99, 99))
            .constructor("m1", "Counter")
            .method("m2", "Add", concat_tspec::MethodCategory::Update)
            .param("q", Domain::int_range(0, 9))
            .method("m3", "Sub", concat_tspec::MethodCategory::Update)
            .param("q", Domain::int_range(0, 9))
            .method("m4", "Total", concat_tspec::MethodCategory::Access)
            .destructor("m5", "~Counter")
            .invariant(
                "i1",
                "total is capped",
                InvariantTerm::field("n"),
                InvariantOp::Le,
                InvariantTerm::int(99),
            )
            .birth_node("n1", ["m1"])
            .task_node("n2", ["m2", "m3"])
            .task_node("n3", ["m4"])
            .death_node("n4", ["m5"])
            .edge("n1", "n2")
            .edge("n2", "n2")
            .edge("n2", "n3")
            .edge("n3", "n2")
            .edge("n2", "n4")
            .edge("n3", "n4")
            .build()
            .unwrap()
    }

    fn find_failing_walk(spec: &ClassSpec, config: &WalkConfig) -> (WalkSequence, WalkOutcome) {
        let ctl = BitControl::new_enabled();
        for w in 0..config.walks {
            let seq = generate_walk(spec, config, config.walk_seed(w));
            let out = execute_sequence(&CounterFactory, spec, &seq, &ctl, None);
            if out.failure.is_some() {
                return (seq, out);
            }
        }
        panic!("no failing walk found — enlarge the config");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = counter_spec();
        let config = WalkConfig::new(7);
        let a = generate_walk(&spec, &config, config.walk_seed(0));
        let b = generate_walk(&spec, &config, config.walk_seed(0));
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.call_count(), config.calls_per_walk);
        let c = generate_walk(&spec, &config, config.walk_seed(1));
        assert_ne!(a.render(), c.render(), "distinct walks differ");
    }

    #[test]
    fn execution_is_deterministic_and_finds_the_bug() {
        let spec = counter_spec();
        let config = WalkConfig::new(11).with_walks(16);
        let (seq, out) = find_failing_walk(&spec, &config);
        let ctl = BitControl::new_enabled();
        let again = execute_sequence(&CounterFactory, &spec, &seq, &ctl, None);
        assert_eq!(out, again, "same sequence, byte-identical outcome");
        assert!(matches!(
            out.failure.as_ref().map(|f| &f.kind),
            Some(FailureKind::Invariant { .. })
        ));
        assert!(out.transcript.contains("! invariant"));
    }

    #[test]
    fn shrinking_minimizes_and_is_idempotent() {
        let spec = counter_spec();
        let config = WalkConfig::new(11).with_walks(16);
        let (seq, _) = find_failing_walk(&spec, &config);
        let ctl = BitControl::new_enabled();
        let shrunk = shrink_sequence(&CounterFactory, &spec, &seq, &ctl);
        assert!(shrunk.call_count() < seq.call_count());
        // Minimal Counter repro: construct + one Sub. (The invariant fires
        // after any negative excursion; the boundary shrink drives the Sub
        // argument to the domain edge.)
        assert!(shrunk.call_count() <= 3, "{}", shrunk.render());
        let again = shrink_sequence(&CounterFactory, &spec, &shrunk, &ctl);
        assert_eq!(again, shrunk, "shrinking is a fixpoint");
        // Shrunk sequence still fails with the same kind.
        let out = execute_sequence(&CounterFactory, &spec, &shrunk, &ctl, None);
        assert!(matches!(
            out.failure.map(|f| f.kind),
            Some(FailureKind::Invariant { .. })
        ));
    }

    #[test]
    fn passing_sequences_shrink_to_themselves() {
        let spec = counter_spec();
        let seq = WalkSequence {
            class_name: "Counter".into(),
            seed: 0,
            steps: vec![WalkStep {
                object: 0,
                kind: StepKind::Construct,
                node: "n1".into(),
                call: MethodCall::generated("m1", "Counter", vec![]),
            }],
        };
        let ctl = BitControl::new_enabled();
        assert_eq!(shrink_sequence(&CounterFactory, &spec, &seq, &ctl), seq);
    }

    #[test]
    fn save_load_round_trip() {
        let spec = counter_spec();
        let config = WalkConfig::new(3).with_calls_per_walk(20);
        let seq = generate_walk(&spec, &config, config.walk_seed(0));
        let text = save_sequence(&seq);
        let back = load_sequence(&text).unwrap();
        assert_eq!(back, seq);
        assert_eq!(save_sequence(&back), text);
    }

    #[test]
    fn load_rejects_malformed_input() {
        assert!(load_sequence("").is_err());
        assert!(load_sequence("walk C\nseed 1\n").is_err(), "missing end");
        assert!(load_sequence("walk C\nstep 0 x n1 m1 M - []\nend").is_err());
        assert!(load_sequence("walk C\nstep 0 c n1 m1 M g []\nend").is_err());
        let err = load_sequence("walk C\nbogus line\nend").unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn spec_clause_failures_are_detected() {
        // The i1 clause caps n at 99; the BIT invariant only checks n >= 0.
        let spec = counter_spec();
        let mut steps = vec![WalkStep {
            object: 0,
            kind: StepKind::Construct,
            node: "n1".into(),
            call: MethodCall::generated("m1", "Counter", vec![]),
        }];
        for _ in 0..12 {
            steps.push(WalkStep {
                object: 0,
                kind: StepKind::Invoke,
                node: "n2".into(),
                call: MethodCall::generated("m2", "Add", vec![Value::Int(9)]),
            });
        }
        let seq = WalkSequence {
            class_name: "Counter".into(),
            seed: 0,
            steps,
        };
        let ctl = BitControl::new_enabled();
        let out = execute_sequence(&CounterFactory, &spec, &seq, &ctl, None);
        assert_eq!(
            out.failure.map(|f| f.kind),
            Some(FailureKind::SpecClause { id: "i1".into() })
        );
        assert!(out.transcript.contains("! clause i1"));
    }

    /// The line-building body `execute_sequence` had before it wrote
    /// straight into one transcript buffer: the oracle of the streaming
    /// form.
    fn execute_sequence_oracle(
        factory: &dyn ComponentFactory,
        spec: &ClassSpec,
        seq: &WalkSequence,
        ctl: &BitControl,
        cancel: Option<&CancelToken>,
    ) -> WalkOutcome {
        let slots_needed = seq.steps.iter().map(|s| s.object + 1).max().unwrap_or(0);
        let mut slots: Vec<Option<Box<dyn TestableComponent>>> = Vec::new();
        slots.resize_with(slots_needed, || None);
        let mut lines: Vec<String> = Vec::with_capacity(seq.steps.len());
        let mut checks = 0u64;
        let mut executed_steps = 0usize;
        let mut failure: Option<WalkFailure> = None;
        let mut interrupted = false;

        'steps: for (i, step) in seq.steps.iter().enumerate() {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                interrupted = true;
                break;
            }
            let head = format!("s{i} o{} {}", step.object, step.call.render());
            let (method, args) = (&step.call.method, &step.call.args);
            let stepped = match (step.kind, &mut slots[step.object]) {
                (StepKind::Construct, slot) => {
                    guarded(|| match factory.construct(method, args, ctl.clone()) {
                        Ok(c) => {
                            *slot = Some(c);
                            "ok".to_owned()
                        }
                        Err(exc) => {
                            *slot = None;
                            format!("raised [{}] {exc}", exc.tag())
                        }
                    })
                }
                (StepKind::Invoke, Some(component)) => {
                    guarded(|| match component.invoke(method, args) {
                        Ok(v) => v.to_literal(),
                        Err(exc) => format!("raised [{}] {exc}", exc.tag()),
                    })
                }
                (StepKind::Invoke, None) => Guarded::Done("skipped".to_owned()),
            };
            match stepped {
                Guarded::Done(text) => lines.push(format!("{head} -> {text}")),
                Guarded::Deadline => {
                    interrupted = true;
                    break;
                }
                Guarded::Panicked(message) => {
                    lines.push(format!("{head} -> panicked: {message}"));
                    failure = Some(WalkFailure {
                        step: i,
                        object: step.object,
                        kind: FailureKind::Panic { message },
                    });
                    executed_steps = i + 1;
                    break;
                }
            }
            if step.kind == StepKind::Invoke
                && spec
                    .method(&step.call.method_id)
                    .is_some_and(|m| m.category == MethodCategory::Destructor)
            {
                slots[step.object] = None;
            }
            executed_steps = i + 1;
            for (oi, slot) in slots.iter().enumerate() {
                let Some(component) = slot else { continue };
                checks += 1;
                if let Err(v) = component.invariant_test() {
                    let message = v.to_string();
                    lines.push(format!("s{i} o{oi} ! invariant: {message}"));
                    failure = Some(WalkFailure {
                        step: i,
                        object: oi,
                        kind: FailureKind::Invariant { message },
                    });
                    break 'steps;
                }
                if !spec.invariants.is_empty() {
                    let report = component.reporter();
                    for inv in &spec.invariants {
                        checks += 1;
                        if inv.eval(&|name| report.get(name).cloned()) == Some(false) {
                            lines.push(format!("s{i} o{oi} ! clause {}: {}", inv.id, inv.render()));
                            failure = Some(WalkFailure {
                                step: i,
                                object: oi,
                                kind: FailureKind::SpecClause { id: inv.id.clone() },
                            });
                            break 'steps;
                        }
                    }
                }
            }
        }

        let mut transcript = lines.join("\n");
        if !transcript.is_empty() {
            transcript.push('\n');
        }
        WalkOutcome {
            transcript,
            checks,
            executed_steps,
            failure,
            interrupted,
        }
    }

    /// What a [`Trapped`] counter does on `Total` once its count reached 5.
    #[derive(Clone)]
    enum Trap {
        /// Panics: a component failure.
        Panic,
        /// Unwinds with the deadline payload, as a watchdog checkpoint does.
        Deadline,
        /// Cancels the walk's token and returns normally.
        Cancel(CancelToken),
    }

    /// A [`Counter`] that springs its trap on `Total` once `n >= 5`.
    struct Trapped {
        inner: Counter,
        trap: Trap,
    }

    impl Component for Trapped {
        fn class_name(&self) -> &'static str {
            self.inner.class_name()
        }
        fn method_names(&self) -> Vec<&'static str> {
            self.inner.method_names()
        }
        fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
            if m == "Total" && self.inner.n >= 5 {
                match &self.trap {
                    Trap::Panic => panic!("trapped at {}", self.inner.n),
                    Trap::Deadline => std::panic::panic_any(concat_runtime::DEADLINE_PANIC_PAYLOAD),
                    Trap::Cancel(token) => token.cancel(),
                }
            }
            self.inner.invoke(m, a)
        }
    }

    impl BuiltInTest for Trapped {
        fn bit_control(&self) -> &BitControl {
            self.inner.bit_control()
        }
        fn invariant_test(&self) -> Result<(), AssertionViolation> {
            self.inner.invariant_test()
        }
        fn reporter(&self) -> StateReport {
            self.inner.reporter()
        }
    }

    struct TrapFactory(Trap);
    impl ComponentFactory for TrapFactory {
        fn class_name(&self) -> &str {
            "Counter"
        }
        fn construct(
            &self,
            constructor: &str,
            _args: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            match constructor {
                "Counter" => Ok(Box::new(Trapped {
                    inner: Counter { n: 0, ctl },
                    trap: self.0.clone(),
                })),
                other => Err(unknown_method("Counter", other)),
            }
        }
    }

    /// Runs `seq` through both bodies, each with a fresh token and the
    /// factory `factory` builds around it, and returns the one outcome.
    fn assert_matches_oracle(
        factory: &dyn Fn(&CancelToken) -> Box<dyn ComponentFactory>,
        spec: &ClassSpec,
        seq: &WalkSequence,
    ) -> WalkOutcome {
        let ctl = BitControl::new_enabled();
        let token = CancelToken::new();
        let got = execute_sequence(&*factory(&token), spec, seq, &ctl, Some(&token));
        let token = CancelToken::new();
        let expected = execute_sequence_oracle(&*factory(&token), spec, seq, &ctl, Some(&token));
        assert_eq!(got, expected, "{}", seq.render());
        got
    }

    #[test]
    fn streaming_execution_equals_the_line_building_oracle() {
        let spec = counter_spec();
        let plain = |_: &CancelToken| -> Box<dyn ComponentFactory> { Box::new(CounterFactory) };
        let mut seen = [0usize; 3];
        for seed in 0..300u64 {
            let config = WalkConfig::new(seed)
                .with_walks(1)
                .with_calls_per_walk(1 + (seed as usize * 7) % 90)
                .with_objects(1 + seed as usize % 3);
            let seq = generate_walk(&spec, &config, config.walk_seed(0));
            let out = assert_matches_oracle(&plain, &spec, &seq);
            seen[usize::from(out.failure.is_some())] += 1;
            if seed % 10 == 0 {
                let cancel = |token: &CancelToken| -> Box<dyn ComponentFactory> {
                    Box::new(TrapFactory(Trap::Cancel(token.clone())))
                };
                let out = assert_matches_oracle(&cancel, &spec, &seq);
                seen[2] += usize::from(out.interrupted && out.executed_steps > 0);
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "passing, failing, cancelled: {seen:?}"
        );

        // Generated walks never skip or raise: an invoke on an empty
        // slot, a constructor and a method the component rejects.
        let step = |object, kind, id: &str, name: &str| WalkStep {
            object,
            kind,
            node: "n1".into(),
            call: MethodCall::generated(id, name, vec![]),
        };
        let rejected = WalkSequence {
            class_name: "Counter".into(),
            seed: 0,
            steps: vec![
                step(1, StepKind::Invoke, "m4", "Total"),
                step(1, StepKind::Construct, "m1", "Nope"),
                step(0, StepKind::Construct, "m1", "Counter"),
                step(0, StepKind::Invoke, "m9", "Bogus"),
                step(1, StepKind::Invoke, "m4", "Total"),
            ],
        };
        let out = assert_matches_oracle(&plain, &spec, &rejected);
        assert_eq!(out.transcript.matches("skipped").count(), 2);
        assert_eq!(out.transcript.matches("raised [UNKNOWN_METHOD]").count(), 2);

        // A spec clause (n <= 99) fails while the BIT invariant holds.
        let mut steps = vec![WalkStep {
            object: 0,
            kind: StepKind::Construct,
            node: "n1".into(),
            call: MethodCall::generated("m1", "Counter", vec![]),
        }];
        steps.extend((0..12).map(|_| WalkStep {
            object: 0,
            kind: StepKind::Invoke,
            node: "n2".into(),
            call: MethodCall::generated("m2", "Add", vec![Value::Int(9)]),
        }));
        let clause = WalkSequence {
            class_name: "Counter".into(),
            seed: 0,
            steps,
        };
        let out = assert_matches_oracle(&plain, &spec, &clause);
        assert!(matches!(
            out.failure.map(|f| f.kind),
            Some(FailureKind::SpecClause { .. })
        ));
    }

    /// Add 9 then `Total`, twice: the second `Total` springs the trap.
    fn trap_walk() -> WalkSequence {
        let step = |kind, node: &str, id: &str, name: &str, args| WalkStep {
            object: 0,
            kind,
            node: node.into(),
            call: MethodCall::generated(id, name, args),
        };
        let mut steps = vec![step(StepKind::Construct, "n1", "m1", "Counter", vec![])];
        for _ in 0..2 {
            steps.push(step(
                StepKind::Invoke,
                "n2",
                "m2",
                "Add",
                vec![Value::Int(3)],
            ));
            steps.push(step(StepKind::Invoke, "n3", "m4", "Total", vec![]));
        }
        steps.push(step(
            StepKind::Invoke,
            "n2",
            "m2",
            "Add",
            vec![Value::Int(1)],
        ));
        WalkSequence {
            class_name: "Counter".into(),
            seed: 0,
            steps,
        }
    }

    #[test]
    fn panics_and_deadlines_render_like_the_oracle() {
        let spec = counter_spec();
        let seq = trap_walk();
        let panics =
            |_: &CancelToken| -> Box<dyn ComponentFactory> { Box::new(TrapFactory(Trap::Panic)) };
        let out = assert_matches_oracle(&panics, &spec, &seq);
        assert_eq!(out.executed_steps, 5);
        assert!(out
            .transcript
            .ends_with("s4 o0 Total() -> panicked: trapped at 6\n"));
        assert!(matches!(
            out.failure.map(|f| f.kind),
            Some(FailureKind::Panic { .. })
        ));

        // A deadline unwind mid-walk interrupts without a partial line:
        // the transcript holds exactly the steps before it.
        let deadline = |_: &CancelToken| -> Box<dyn ComponentFactory> {
            Box::new(TrapFactory(Trap::Deadline))
        };
        let out = assert_matches_oracle(&deadline, &spec, &seq);
        assert!(out.interrupted && out.failure.is_none());
        assert_eq!(out.executed_steps, 4);
        assert_eq!(
            out.transcript,
            "s0 o0 Counter() -> ok\ns1 o0 Add(3) -> NULL\ns2 o0 Total() -> 3\n\
             s3 o0 Add(3) -> NULL\n"
        );

        // A token fired during a step stops the walk before the next.
        let cancel = |token: &CancelToken| -> Box<dyn ComponentFactory> {
            Box::new(TrapFactory(Trap::Cancel(token.clone())))
        };
        let out = assert_matches_oracle(&cancel, &spec, &seq);
        assert!(out.interrupted);
        assert_eq!(out.executed_steps, 5);
        assert!(out.transcript.ends_with("s4 o0 Total() -> 6\n"));
    }

    #[test]
    fn to_test_cases_groups_lifecycles() {
        let mk = |object, kind, node: &str, id: &str, name: &str| WalkStep {
            object,
            kind,
            node: node.into(),
            call: MethodCall::generated(id, name, vec![]),
        };
        let seq = WalkSequence {
            class_name: "Counter".into(),
            seed: 0,
            steps: vec![
                mk(0, StepKind::Construct, "n1", "m1", "Counter"),
                mk(1, StepKind::Construct, "n1", "m1", "Counter"),
                mk(0, StepKind::Invoke, "n3", "m4", "Total"),
                mk(1, StepKind::Invoke, "n4", "m5", "~Counter"),
                mk(1, StepKind::Construct, "n1", "m1", "Counter"),
            ],
        };
        let cases = seq.to_test_cases();
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].calls.len(), 1);
        assert_eq!(cases[0].calls[0].method, "Total");
        assert_eq!(cases[1].calls[0].method, "~Counter");
        assert_eq!(cases[2].calls.len(), 0);
        assert_eq!(cases[0].node_path, vec!["n1", "n3"]);
    }

    #[test]
    fn cancel_token_interrupts_cleanly() {
        let spec = counter_spec();
        let config = WalkConfig::new(5).with_calls_per_walk(50);
        let seq = generate_walk(&spec, &config, config.walk_seed(0));
        let ctl = BitControl::new_enabled();
        let token = CancelToken::new();
        token.cancel();
        let out = execute_sequence(&CounterFactory, &spec, &seq, &ctl, Some(&token));
        assert!(out.interrupted);
        assert_eq!(out.executed_steps, 0);
        assert!(out.failure.is_none());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let spec = counter_spec();
        let config = WalkConfig::new(9).with_calls_per_walk(10);
        let a = generate_walk(&spec, &config, config.walk_seed(0));
        let b = generate_walk(&spec, &config, config.walk_seed(1));
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn walk_config_derives_distinct_seeds() {
        let c = WalkConfig::new(1);
        let seeds: std::collections::BTreeSet<u64> = (0..100).map(|i| c.walk_seed(i)).collect();
        assert_eq!(seeds.len(), 100);
    }
}
