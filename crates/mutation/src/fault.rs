//! Fault activation: how one mutant is "compiled in" at runtime.
//!
//! The paper compiled each mutant as a separate class. Our substitution
//! activates exactly one [`FaultPlan`] at a time through a shared
//! [`MutationSwitch`]; instrumented method bodies read their non-interface
//! variables through [`MutationSwitch::read_int`] /
//! [`MutationSwitch::read_value`], which apply the active replacement when
//! the (method, site) matches and are identity otherwise. With no plan
//! active the component *is* the original program.

use crate::operators::ReqConst;
use concat_bit::ComponentFactory;
use concat_runtime::{CancelToken, Value};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What to substitute at the matched use site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Replacement {
    /// Bitwise-negate the value read (`IndVarBitNeg`).
    BitNeg,
    /// Read another variable (local or attribute) instead
    /// (`IndVarRepGlob` / `IndVarRepLoc` / `IndVarRepExt`).
    Var(String),
    /// Use a required constant (`IndVarRepReq`).
    Const(ReqConst),
}

impl fmt::Display for Replacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Replacement::BitNeg => f.write_str("~(value)"),
            Replacement::Var(v) => write!(f, "use `{v}` instead"),
            Replacement::Const(c) => write!(f, "use constant {c}"),
        }
    }
}

/// One injected fault: method + use site + replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Method the fault lives in.
    pub method: String,
    /// Use-site id within the method.
    pub site: u32,
    /// The substitution applied when the site is reached.
    pub replacement: Replacement,
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ site {}: {}",
            self.method, self.site, self.replacement
        )
    }
}

/// The live variables visible at a use site, for `Var` replacements.
///
/// Components build one only inside the `env` closure of an instrumented
/// read, which the switch calls only when the armed replacement is `Var`
/// at that very site. Names are `'static` and bindings live in fixed
/// inline storage, so building one never touches the heap. Lookup order
/// is locals first, then globals (attributes), matching the C++ scoping
/// the operators assume.
#[derive(Debug, Clone)]
pub struct VarEnv {
    len: usize,
    entries: [(&'static str, Value); VarEnv::CAPACITY],
}

impl VarEnv {
    /// Most bindings one environment holds: four class attributes plus
    /// the locals of the widest instrumented method, with room to spare.
    pub const CAPACITY: usize = 12;

    /// Creates an empty environment.
    pub fn new() -> Self {
        VarEnv {
            len: 0,
            entries: [const { ("", Value::Null) }; VarEnv::CAPACITY],
        }
    }

    /// Binds a variable (later bindings shadow earlier ones on lookup from
    /// the back).
    ///
    /// # Panics
    ///
    /// Panics when the environment already holds [`VarEnv::CAPACITY`]
    /// bindings — an instrumentation bug, not a runtime condition.
    pub fn bind(mut self, name: &'static str, value: impl Into<Value>) -> Self {
        assert!(
            self.len < Self::CAPACITY,
            "VarEnv holds at most {} bindings",
            Self::CAPACITY
        );
        self.entries[self.len] = (name, value.into());
        self.len += 1;
        self
    }

    /// Looks a variable up, innermost binding first.
    pub fn lookup(&self, name: &str) -> Option<&Value> {
        self.entries[..self.len]
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for VarEnv {
    fn default() -> Self {
        Self::new()
    }
}

/// Coerces a dynamic value into the integer context of a use site.
///
/// `NULL` coerces to 0 (C semantics); booleans to 0/1; floats truncate;
/// anything else (strings, lists, object handles) coerces to 0 — a maximal
/// disturbance in an index/counter context.
pub fn coerce_int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        Value::Bool(b) => i64::from(*b),
        Value::Float(x) => *x as i64,
        Value::Null | Value::Str(_) | Value::List(_) | Value::Obj(_) => 0,
    }
}

/// The per-worker factory seam of the sharded mutation engine.
///
/// A [`MutationSwitch`] holds exactly one armed plan, so concurrent
/// workers cannot share one: each worker needs its own switch and a
/// component factory whose instrumented reads go through *that* switch.
/// A `ClonableFactory` is the prototype that rebinds the component
/// family to a worker-local switch.
///
/// The builder crosses threads (hence `Send + Sync`); the factory it
/// builds never leaves its worker, so `build_factory` can return plain
/// single-threaded factories — including ones that are not `Send`.
pub trait ClonableFactory: Send + Sync {
    /// Class name of the components the built factories construct.
    fn class_name(&self) -> &str;

    /// Builds a fresh factory whose components read their instrumented
    /// variables through `switch`.
    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory>;
}

/// Value of the armed-site gate while no plan is armed.
const DISARMED: u64 = u64::MAX;

/// The armed-site gate key of a use site: the site id in the low half and
/// an FNV-1a hash of the method name in the high half. Equal keys are
/// necessary but not sufficient for a match; the armed plan decides.
fn site_key(method: &str, site: u32) -> u64 {
    let hash = method.bytes().fold(0x811c_9dc5_u32, |h, b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    });
    (u64::from(hash) << 32) | u64::from(site)
}

#[derive(Debug)]
struct SwitchShared {
    /// [`site_key`] of the armed plan, or [`DISARMED`]. `arm`/`disarm`
    /// store it with `Release` after writing the plan; reads load it with
    /// `Acquire`, so a read that sees a key also sees the plan behind it.
    armed_key: AtomicU64,
    /// The armed plan itself, consulted only by reads whose key matches.
    plan: Mutex<Option<FaultPlan>>,
    /// The token every read polls; runners adopt it.
    cancel: CancelToken,
}

/// Shared mutation switch: the engine arms a plan, instrumented components
/// consult it. Cloning shares the switch.
///
/// A read at any site other than the armed one costs the cancellation
/// check, an atomic load and a compare (plus a hash of the method name
/// when the site number alone matches): no lock, no clone, no allocation.
/// Only a read at the armed `(method, site)` takes the plan's lock, and
/// only a `Var` replacement there builds the site's [`VarEnv`].
///
/// Every instrumented read is also a cooperative cancellation point: the
/// switch owns a [`CancelToken`] ([`MutationSwitch::cancel_token`]) that
/// runners adopt through `TestRunner::with_cancel_token`. When it trips —
/// the runner's watchdog at a deadline — the next read unwinds via
/// [`CancelToken::checkpoint`] instead of returning, which is what lets an
/// infinite-loop mutant be interrupted and quarantined: any mutant-induced
/// loop re-reads the mutated site each iteration.
#[derive(Debug, Clone)]
pub struct MutationSwitch {
    shared: Arc<SwitchShared>,
}

impl Default for MutationSwitch {
    fn default() -> Self {
        Self::new()
    }
}

impl MutationSwitch {
    /// Creates a switch with no active fault (original program) and a
    /// fresh root cancellation token.
    pub fn new() -> Self {
        Self::with_cancel_token(CancelToken::new())
    }

    /// Creates a switch whose reads poll `token` — typically a
    /// [`CancelToken::child`] of a campaign token, so cancelling the
    /// campaign interrupts the reads of every switch derived from it.
    pub fn with_cancel_token(token: CancelToken) -> Self {
        MutationSwitch {
            shared: Arc::new(SwitchShared {
                armed_key: AtomicU64::new(DISARMED),
                plan: Mutex::new(None),
                cancel: token,
            }),
        }
    }

    /// The cancellation token instrumented reads poll. A runner that
    /// executes components reading through this switch adopts it
    /// (`TestRunner::with_cancel_token`), so its watchdog deadlines can
    /// interrupt mutant-induced infinite loops.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.shared.cancel
    }

    fn lock(&self) -> MutexGuard<'_, Option<FaultPlan>> {
        // The state is a plain plan slot, valid after every write; the
        // lock recovers from poisoning to keep the switch usable after a
        // panicking case.
        self.shared
            .plan
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms a fault plan (replacing any previous one).
    pub fn arm(&self, plan: FaultPlan) {
        let key = site_key(&plan.method, plan.site);
        let mut slot = self.lock();
        *slot = Some(plan);
        // Release pairs with the Acquire load in `apply`. Storing under
        // the lock keeps key and plan in step across racing arms.
        self.shared.armed_key.store(key, Ordering::Release);
    }

    /// Disarms: back to the original program.
    pub fn disarm(&self) {
        let mut slot = self.lock();
        *slot = None;
        self.shared.armed_key.store(DISARMED, Ordering::Release);
    }

    /// The currently armed plan, if any.
    pub fn armed(&self) -> Option<FaultPlan> {
        self.lock().clone()
    }

    /// Instrumented *integer* read of local `var` at `(method, site)`.
    ///
    /// Returns `original` unless the armed plan targets this exact site, in
    /// which case the replacement is applied: bit-negation of the original,
    /// another variable from the environment `env` builds (missing
    /// variables coerce to 0 — the out-of-scope read the operators can
    /// produce), or a required constant. `env` runs only for a `Var`
    /// replacement at this site, at most once, while the switch holds its
    /// lock: it must not read through the switch itself.
    pub fn read_int(
        &self,
        method: &str,
        site: u32,
        _var: &str,
        original: i64,
        env: impl FnOnce() -> VarEnv,
    ) -> i64 {
        self.apply(
            method,
            site,
            original,
            |replacement, original| match replacement {
                Replacement::BitNeg => !original,
                Replacement::Var(name) => env().lookup(name).map_or(0, coerce_int),
                Replacement::Const(c) => c.as_int(),
            },
        )
    }

    /// Instrumented *dynamic-value* read, for sites holding non-integer
    /// data (e.g. the running maximum in `FindMax`). `env` runs as for
    /// [`MutationSwitch::read_int`].
    pub fn read_value(
        &self,
        method: &str,
        site: u32,
        _var: &str,
        original: Value,
        env: impl FnOnce() -> VarEnv,
    ) -> Value {
        self.apply(
            method,
            site,
            original,
            |replacement, original| match replacement {
                Replacement::BitNeg => match original {
                    Value::Int(i) => Value::Int(!i),
                    Value::Bool(b) => Value::Bool(!b),
                    other => other,
                },
                Replacement::Var(name) => env().lookup(name).cloned().unwrap_or(Value::Null),
                Replacement::Const(c) => c.as_value(),
            },
        )
    }

    /// The shared read path: a cancellation checkpoint, then the armed-site
    /// gate, and only on a matching key the plan itself.
    fn apply<T>(
        &self,
        method: &str,
        site: u32,
        original: T,
        replace: impl FnOnce(&Replacement, T) -> T,
    ) -> T {
        self.shared.cancel.checkpoint();
        let armed = self.shared.armed_key.load(Ordering::Acquire);
        // The site half is compared first (truncation intended), so most
        // reads never hash the method name.
        if armed as u32 != site || armed != site_key(method, site) {
            return original;
        }
        let slot = self.lock();
        match slot.as_ref() {
            Some(plan) if plan.site == site && plan.method == method => {
                replace(&plan.replacement, original)
            }
            _ => original,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn plan(method: &str, site: u32, replacement: Replacement) -> FaultPlan {
        FaultPlan {
            method: method.into(),
            site,
            replacement,
        }
    }

    /// An env closure that counts its calls.
    fn counted(calls: &Cell<u32>) -> impl Fn() -> VarEnv + '_ {
        move || {
            calls.set(calls.get() + 1);
            VarEnv::new().bind("count", 9i64)
        }
    }

    #[test]
    fn disarmed_switch_is_identity() {
        let sw = MutationSwitch::new();
        assert_eq!(sw.read_int("M", 0, "i", 42, VarEnv::new), 42);
        assert_eq!(
            sw.read_value("M", 0, "v", Value::Str("x".into()), VarEnv::new),
            Value::Str("x".into())
        );
        assert!(sw.armed().is_none());
    }

    #[test]
    fn env_closure_never_runs_off_the_armed_var_site() {
        let calls = Cell::new(0);
        let sw = MutationSwitch::new();
        assert_eq!(sw.read_int("M", 0, "i", 5, counted(&calls)), 5, "disarmed");
        sw.arm(plan("M", 1, Replacement::Var("count".into())));
        assert_eq!(
            sw.read_int("M", 0, "i", 5, counted(&calls)),
            5,
            "other site"
        );
        assert_eq!(
            sw.read_int("Other", 1, "i", 5, counted(&calls)),
            5,
            "other method"
        );
        sw.arm(plan("M", 1, Replacement::BitNeg));
        assert_eq!(sw.read_int("M", 1, "i", 5, counted(&calls)), !5);
        sw.arm(plan("M", 1, Replacement::Const(ReqConst::MaxInt)));
        assert_eq!(sw.read_int("M", 1, "i", 5, counted(&calls)), i64::MAX);
        assert_eq!(
            sw.read_value("M", 1, "v", Value::Int(5), counted(&calls)),
            Value::Int(i64::MAX)
        );
        assert_eq!(calls.get(), 0);
    }

    #[test]
    fn env_closure_runs_once_on_a_matching_var_read() {
        let calls = Cell::new(0);
        let sw = MutationSwitch::new();
        sw.arm(plan("M", 1, Replacement::Var("count".into())));
        assert_eq!(sw.read_int("M", 1, "i", 5, counted(&calls)), 9);
        assert_eq!(calls.get(), 1);
        assert_eq!(
            sw.read_value("M", 1, "v", Value::Null, counted(&calls)),
            Value::Int(9)
        );
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn bitneg_applies_only_at_matching_site() {
        let sw = MutationSwitch::new();
        sw.arm(plan("M", 1, Replacement::BitNeg));
        assert_eq!(sw.read_int("M", 1, "i", 5, VarEnv::new), !5);
        assert_eq!(
            sw.read_int("M", 0, "i", 5, VarEnv::new),
            5,
            "other site untouched"
        );
        assert_eq!(
            sw.read_int("Other", 1, "i", 5, VarEnv::new),
            5,
            "other method untouched"
        );
    }

    #[test]
    fn var_replacement_reads_environment() {
        let sw = MutationSwitch::new();
        sw.arm(plan("M", 0, Replacement::Var("count".into())));
        assert_eq!(
            sw.read_int("M", 0, "i", 5, || VarEnv::new().bind("count", 9i64)),
            9
        );
    }

    #[test]
    fn missing_variable_coerces_to_zero() {
        let sw = MutationSwitch::new();
        sw.arm(plan("M", 0, Replacement::Var("ghost".into())));
        assert_eq!(sw.read_int("M", 0, "i", 5, VarEnv::new), 0);
        assert_eq!(
            sw.read_value("M", 0, "v", Value::Int(5), VarEnv::new),
            Value::Null
        );
    }

    #[test]
    fn const_replacement() {
        let sw = MutationSwitch::new();
        sw.arm(plan("M", 2, Replacement::Const(ReqConst::MaxInt)));
        assert_eq!(sw.read_int("M", 2, "i", 5, VarEnv::new), i64::MAX);
    }

    #[test]
    fn disarm_restores_original_program() {
        let calls = Cell::new(0);
        let sw = MutationSwitch::new();
        sw.arm(plan("M", 0, Replacement::Var("count".into())));
        assert!(sw.armed().is_some());
        sw.disarm();
        assert!(sw.armed().is_none());
        assert_eq!(sw.read_int("M", 0, "i", 7, counted(&calls)), 7);
        assert_eq!(
            sw.read_value("M", 0, "v", Value::Bool(true), counted(&calls)),
            Value::Bool(true)
        );
        assert_eq!(calls.get(), 0);
    }

    #[test]
    fn clones_share_the_armed_plan() {
        let sw = MutationSwitch::new();
        let clone = sw.clone();
        sw.arm(plan("M", 0, Replacement::BitNeg));
        assert_eq!(clone.read_int("M", 0, "i", 0, VarEnv::new), !0);
    }

    #[test]
    fn plan_armed_on_one_thread_is_seen_by_a_clone_on_another() {
        let sw = MutationSwitch::new();
        let clone = sw.clone();
        let (armed_tx, armed_rx) = std::sync::mpsc::channel();
        let (read_tx, read_rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Ok(()) = armed_rx.recv() {
                seen.push(clone.read_int("M", 3, "i", 1, || VarEnv::new().bind("count", 40i64)));
                read_tx.send(()).unwrap();
            }
            seen
        });
        sw.arm(plan("M", 3, Replacement::Var("count".into())));
        armed_tx.send(()).unwrap();
        read_rx.recv().unwrap();
        sw.disarm();
        armed_tx.send(()).unwrap();
        read_rx.recv().unwrap();
        sw.arm(plan("M", 3, Replacement::BitNeg));
        armed_tx.send(()).unwrap();
        drop(armed_tx);
        assert_eq!(reader.join().unwrap(), vec![40, 1, !1]);
    }

    #[test]
    fn value_bitneg_on_bool_and_passthrough() {
        let sw = MutationSwitch::new();
        sw.arm(plan("M", 0, Replacement::BitNeg));
        assert_eq!(
            sw.read_value("M", 0, "v", Value::Bool(true), VarEnv::new),
            Value::Bool(false)
        );
        assert_eq!(
            sw.read_value("M", 0, "v", Value::Str("s".into()), VarEnv::new),
            Value::Str("s".into())
        );
    }

    #[test]
    fn env_shadowing_lookup() {
        let env = VarEnv::new().bind("x", 1i64).bind("x", 2i64);
        assert_eq!(env.lookup("x"), Some(&Value::Int(2)));
        assert_eq!(env.lookup("y"), None);
        assert_eq!(env.len(), 2);
        assert!(!env.is_empty());
        assert!(VarEnv::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "VarEnv holds at most")]
    fn env_past_capacity_is_an_instrumentation_bug() {
        let mut env = VarEnv::new();
        for _ in 0..=VarEnv::CAPACITY {
            env = env.bind("x", 0i64);
        }
    }

    #[test]
    fn coercions() {
        assert_eq!(coerce_int(&Value::Int(3)), 3);
        assert_eq!(coerce_int(&Value::Bool(true)), 1);
        assert_eq!(coerce_int(&Value::Float(2.9)), 2);
        assert_eq!(coerce_int(&Value::Null), 0);
        assert_eq!(coerce_int(&Value::Str("9".into())), 0);
    }

    #[test]
    fn cancelled_token_unwinds_instrumented_reads() {
        use concat_runtime::DEADLINE_PANIC_PAYLOAD;
        let campaign = CancelToken::new();
        let sw = MutationSwitch::with_cancel_token(campaign.child());
        // A runner adopts a clone of the switch's token; cancelling either
        // it or the campaign token above it interrupts the next read.
        let runner_token = sw.cancel_token().clone();
        assert_eq!(sw.read_int("M", 0, "i", 1, VarEnv::new), 1);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut payloads = Vec::new();
        for cancel in [&runner_token, &campaign] {
            cancel.cancel();
            let r = std::panic::catch_unwind(|| sw.read_int("M", 0, "i", 1, VarEnv::new));
            payloads.push(r.unwrap_err());
            cancel.reset();
        }
        std::panic::set_hook(prev);
        for payload in payloads {
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&DEADLINE_PANIC_PAYLOAD)
            );
        }
        // The switch survives the unwind (no poisoning) and stays usable.
        assert_eq!(sw.read_int("M", 0, "i", 1, VarEnv::new), 1);
        sw.arm(plan("M", 0, Replacement::BitNeg));
        assert_eq!(sw.read_int("M", 0, "i", 1, VarEnv::new), !1);
    }

    #[test]
    fn displays() {
        let p = plan("Sort1", 3, Replacement::Var("count".into()));
        let s = p.to_string();
        assert!(s.contains("Sort1"));
        assert!(s.contains("site 3"));
        assert!(s.contains("count"));
        assert!(Replacement::BitNeg.to_string().contains('~'));
        assert!(Replacement::Const(ReqConst::Null)
            .to_string()
            .contains("NULL"));
    }
}
