//! Outside-in timing decorators over the component seams.
//!
//! [`TimedShards`] wraps a [`ClonableFactory`], [`TimedFactory`] wraps a
//! [`ComponentFactory`], and every component they construct is wrapped so
//! that `invoke`, `invariant_test` and `reporter` are timed. Nothing inside
//! the program changes: the decorators sit between the engine and the
//! subject, forward every call unchanged, and only read the clock.
//!
//! A component keeps its samples locally and hands them to the shared
//! [`Probes`] when it is dropped (once per test case), so parallel workers
//! do not contend on a lock per call. Calls that unwind (a mutant's panic,
//! a cancelled fuel loop) are timed too.

use concat_bit::{BitControl, BuiltInTest, ComponentFactory, StateReport, TestableComponent};
use concat_mutation::{ClonableFactory, MutationSwitch};
use concat_runtime::{AssertionViolation, Component, InvokeResult, TestException, Value};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

#[derive(Debug, Default)]
struct Tally {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Tally {
    fn add(&self, calls: u64, nanos: u64) {
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn take(&self) -> (u64, u64) {
        (
            self.calls.swap(0, Ordering::Relaxed),
            self.nanos.swap(0, Ordering::Relaxed),
        )
    }
}

/// Shared sink of every decorator built from one [`Probes`] handle.
#[derive(Debug, Default)]
pub struct Probes {
    invoke_nanos: Mutex<Vec<u64>>,
    construct: Tally,
    check: Tally,
    report: Tally,
}

/// What the decorators measured since the last [`Probes::take`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeTotals {
    /// Raw wall time of every `invoke`, in nanoseconds.
    pub invoke_nanos: Vec<u64>,
    /// `ComponentFactory::construct` calls.
    pub constructs: u64,
    /// Their summed wall time, in nanoseconds.
    pub construct_nanos: u64,
    /// `invariant_test` calls (BIT checks).
    pub checks: u64,
    /// Their summed wall time, in nanoseconds.
    pub check_nanos: u64,
    /// `reporter` calls (BIT state reports).
    pub reports: u64,
    /// Their summed wall time, in nanoseconds.
    pub report_nanos: u64,
}

impl ProbeTotals {
    /// Summed `invoke` wall time, in nanoseconds.
    pub fn invoke_busy_nanos(&self) -> u64 {
        self.invoke_nanos.iter().sum()
    }
}

impl Probes {
    /// A fresh, shareable probe sink.
    pub fn new() -> Arc<Probes> {
        Arc::new(Probes::default())
    }

    /// Drains everything recorded so far.
    pub fn take(&self) -> ProbeTotals {
        let invoke_nanos = std::mem::take(
            &mut *self
                .invoke_nanos
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        let (constructs, construct_nanos) = self.construct.take();
        let (checks, check_nanos) = self.check.take();
        let (reports, report_nanos) = self.report.take();
        ProbeTotals {
            invoke_nanos,
            constructs,
            construct_nanos,
            checks,
            check_nanos,
            reports,
            report_nanos,
        }
    }
}

/// Adds the elapsed time since `start` to a local counter pair when
/// dropped, so unwinding calls are timed as well.
struct CellTimer<'a> {
    start: Instant,
    tally: &'a Cell<(u64, u64)>,
}

impl Drop for CellTimer<'_> {
    fn drop(&mut self) {
        let (calls, nanos) = self.tally.get();
        self.tally
            .set((calls + 1, nanos + elapsed_nanos(self.start)));
    }
}

struct VecTimer<'a> {
    start: Instant,
    samples: &'a mut Vec<u64>,
}

impl Drop for VecTimer<'_> {
    fn drop(&mut self) {
        self.samples.push(elapsed_nanos(self.start));
    }
}

fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A component whose public and built-in-test calls are timed.
struct TimedComponent {
    inner: Box<dyn TestableComponent>,
    probes: Arc<Probes>,
    invokes: Vec<u64>,
    checks: Cell<(u64, u64)>,
    reports: Cell<(u64, u64)>,
}

impl Component for TimedComponent {
    fn class_name(&self) -> &'static str {
        self.inner.class_name()
    }

    fn invoke(&mut self, method: &str, args: &[Value]) -> InvokeResult {
        let _timer = VecTimer {
            start: Instant::now(),
            samples: &mut self.invokes,
        };
        self.inner.invoke(method, args)
    }

    fn method_names(&self) -> Vec<&'static str> {
        self.inner.method_names()
    }

    fn has_method(&self, method: &str) -> bool {
        self.inner.has_method(method)
    }
}

impl BuiltInTest for TimedComponent {
    fn bit_control(&self) -> &BitControl {
        self.inner.bit_control()
    }

    fn invariant_test(&self) -> Result<(), AssertionViolation> {
        let _timer = CellTimer {
            start: Instant::now(),
            tally: &self.checks,
        };
        self.inner.invariant_test()
    }

    fn reporter(&self) -> StateReport {
        let _timer = CellTimer {
            start: Instant::now(),
            tally: &self.reports,
        };
        self.inner.reporter()
    }
}

impl Drop for TimedComponent {
    fn drop(&mut self) {
        self.probes
            .invoke_nanos
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(&self.invokes);
        let (calls, nanos) = self.checks.get();
        self.probes.check.add(calls, nanos);
        let (calls, nanos) = self.reports.get();
        self.probes.report.add(calls, nanos);
    }
}

/// A [`ComponentFactory`] whose constructions, and the components they
/// produce, are timed into a shared [`Probes`].
pub struct TimedFactory {
    inner: Box<dyn ComponentFactory>,
    probes: Arc<Probes>,
}

impl TimedFactory {
    /// Decorates `inner`.
    pub fn new(inner: Box<dyn ComponentFactory>, probes: Arc<Probes>) -> TimedFactory {
        TimedFactory { inner, probes }
    }
}

impl ComponentFactory for TimedFactory {
    fn class_name(&self) -> &str {
        self.inner.class_name()
    }

    fn construct(
        &self,
        constructor: &str,
        args: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        let tally = Cell::new((0, 0));
        let built = {
            let _timer = CellTimer {
                start: Instant::now(),
                tally: &tally,
            };
            self.inner.construct(constructor, args, ctl)
        };
        let (calls, nanos) = tally.get();
        self.probes.construct.add(calls, nanos);
        let inner = built?;
        Ok(Box::new(TimedComponent {
            inner,
            probes: Arc::clone(&self.probes),
            invokes: Vec::new(),
            checks: Cell::new((0, 0)),
            reports: Cell::new((0, 0)),
        }))
    }
}

/// A [`ClonableFactory`] whose built factories are [`TimedFactory`]s, so
/// parallel workers and orchestrator leases are timed too.
pub struct TimedShards {
    inner: Arc<dyn ClonableFactory>,
    probes: Arc<Probes>,
}

impl TimedShards {
    /// Decorates `inner`.
    pub fn new(inner: Arc<dyn ClonableFactory>, probes: Arc<Probes>) -> TimedShards {
        TimedShards { inner, probes }
    }
}

impl ClonableFactory for TimedShards {
    fn class_name(&self) -> &str {
        self.inner.class_name()
    }

    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
        Box::new(TimedFactory::new(
            self.inner.build_factory(switch),
            Arc::clone(&self.probes),
        ))
    }
}
