//! `CSortableObList`: the paper's derived subject — an ordered list adding
//! `Sort1`, `Sort2`, `ShellSort`, `FindMax` and `FindMin` to `CObList`.
//!
//! These five methods are the Table-2 mutation targets; each is
//! hand-written with instrumented loop counters and indices so the
//! interface mutation operators perturb real control flow. Rust has no
//! implementation inheritance, so the subclass holds its base by
//! composition and delegates every inherited method unchanged — the
//! [`sortable_inheritance_map`] records exactly that relationship for the
//! incremental-reuse analysis of §3.4.2.

use crate::oblist::{coblist_inventory, CObList, WATCHDOG};
use concat_bit::{BitControl, BuiltInTest, ComponentFactory, StateReport, TestableComponent};
use concat_driver::InheritanceMap;
use concat_mutation::{ClassInventory, ClonableFactory, MethodInventory, MutationSwitch};
use concat_runtime::{
    args, unknown_method, AssertionViolation, Component, InvokeResult, TestException, Value,
};
use concat_tspec::{ClassSpec, ClassSpecBuilder, Domain, MethodCategory};

/// Bounds-checked vector access in the integer world of the sort loops.
///
/// A mutated index lands here; out-of-range reads become deterministic
/// domain errors (the moral equivalent of the C++ mutant's wild read
/// crashing), identical in debug and release profiles.
fn at<'v>(method: &str, vals: &'v [Value], idx: i64) -> Result<&'v Value, TestException> {
    usize::try_from(idx)
        .ok()
        .and_then(|i| vals.get(i))
        .ok_or_else(|| TestException::domain(method, format!("index {idx} out of bounds")))
}

fn at_mut<'v>(
    method: &str,
    vals: &'v mut [Value],
    idx: i64,
) -> Result<&'v mut Value, TestException> {
    let len = vals.len();
    usize::try_from(idx)
        .ok()
        .filter(|i| *i < len)
        .map(|i| &mut vals[i])
        .ok_or_else(|| TestException::domain(method, format!("index {idx} out of bounds")))
}

/// Sum of the integer elements — the cheap "same multiset" proxy the
/// sorts' partial postcondition checks (a lost or duplicated element
/// almost always changes it; a mere mis-ordering never does, which keeps
/// the assertion a *partial* oracle as in the paper).
fn int_sum(vals: &[Value]) -> i64 {
    vals.iter()
        .map(|v| match v {
            Value::Int(i) => i.wrapping_mul(31),
            _ => 1,
        })
        .fold(0i64, |acc, x| acc.wrapping_add(x))
}

/// A deliberately seeded cross-object fault, compiled in only under the
/// `seeded-bugs` feature: the invariant-fuzzing subject.
///
/// The bug models a botched shared-free-list optimization: each list
/// keeps a cached element count, and an insert skips the cache update
/// when the *most recent removal on this thread* was performed by a
/// different list instance. Every single-object method sequence keeps the
/// cache coherent — the constructor clears the cross-object marker, and a
/// removal by the same instance is harmless — so the transaction-coverage
/// suite (one object per test case) can never trip it. Only an
/// interleaved insert-after-foreign-remove across two live objects
/// desyncs the cache, which the BIT class invariant then reports.
#[cfg(feature = "seeded-bugs")]
mod seeded {
    use std::cell::Cell;
    thread_local! {
        /// Instance-id source for lists constructed on this thread.
        pub static NEXT_INSTANCE: Cell<u64> = const { Cell::new(0) };
        /// Which instance performed the last removal on this thread.
        pub static LAST_REMOVE_BY: Cell<Option<u64>> = const { Cell::new(None) };
    }
}

/// The `CSortableObList` component.
#[derive(Debug)]
pub struct CSortableObList {
    base: CObList,
    switch: MutationSwitch,
    ctl: BitControl,
    #[cfg(feature = "seeded-bugs")]
    instance: u64,
    #[cfg(feature = "seeded-bugs")]
    cached_len: std::cell::Cell<i64>,
}

impl CSortableObList {
    /// Class name used in specs and dispatch.
    pub const CLASS: &'static str = "CSortableObList";

    /// The five methods this subclass introduces.
    pub const NEW_METHODS: [&'static str; 5] =
        ["Sort1", "Sort2", "ShellSort", "FindMax", "FindMin"];

    /// Creates an empty sortable list with the default block size.
    pub fn new(ctl: BitControl, switch: MutationSwitch) -> Self {
        CSortableObList {
            base: CObList::new(ctl.clone(), switch.clone()),
            switch,
            ctl,
            #[cfg(feature = "seeded-bugs")]
            instance: Self::seeded_register(),
            #[cfg(feature = "seeded-bugs")]
            cached_len: std::cell::Cell::new(0),
        }
    }

    /// Creates an empty sortable list with an explicit `m_nBlockSize`.
    pub fn with_block_size(block_size: i64, ctl: BitControl, switch: MutationSwitch) -> Self {
        CSortableObList {
            base: CObList::with_block_size(block_size, ctl.clone(), switch.clone()),
            switch,
            ctl,
            #[cfg(feature = "seeded-bugs")]
            instance: Self::seeded_register(),
            #[cfg(feature = "seeded-bugs")]
            cached_len: std::cell::Cell::new(0),
        }
    }

    /// Hands out a fresh instance id and clears the cross-object removal
    /// marker — constructing a list resets the (buggy) shared state, which
    /// is exactly why every one-object-per-case suite stays green.
    #[cfg(feature = "seeded-bugs")]
    fn seeded_register() -> u64 {
        seeded::LAST_REMOVE_BY.with(|c| c.set(None));
        seeded::NEXT_INSTANCE.with(|c| {
            let id = c.get();
            c.set(id + 1);
            id
        })
    }

    /// Post-call cache accounting carrying the seeded fault: removals mark
    /// this instance as the thread's last remover and refresh the cache;
    /// inserts skip the refresh when a *different* instance removed last.
    #[cfg(feature = "seeded-bugs")]
    fn seeded_track(&self, method: &str) {
        match method {
            "RemoveHead" | "RemoveTail" | "RemoveAt" | "RemoveAll" => {
                seeded::LAST_REMOVE_BY.with(|c| c.set(Some(self.instance)));
                self.cached_len.set(self.base.count());
            }
            // The destructor empties the list, so it refreshes its own
            // cache — but deliberately does NOT mark: driver-provided
            // helper objects die inside single-object test cases, and the
            // bug must stay out of reach of every such case.
            "~CSortableObList" => self.cached_len.set(self.base.count()),
            "AddHead" | "AddTail" | "InsertAfter" => {
                let foreign_remove = seeded::LAST_REMOVE_BY
                    .with(std::cell::Cell::get)
                    .is_some_and(|id| id != self.instance);
                if !foreign_remove {
                    self.cached_len.set(self.base.count());
                }
            }
            _ => {}
        }
    }

    /// Read-only access to the base list.
    pub fn base(&self) -> &CObList {
        &self.base
    }

    fn load_values(&self, method: &str) -> Result<Vec<Value>, TestException> {
        self.base
            .values()
            .ok_or_else(|| TestException::domain(method, "corrupt chain"))
    }

    fn store_values(&mut self, method: &str, vals: &[Value]) -> Result<(), TestException> {
        let nodes = self.base.node_indices(method)?;
        if nodes.len() != vals.len() {
            return Err(TestException::domain(
                method,
                format!(
                    "write-back mismatch: {} nodes, {} values",
                    nodes.len(),
                    vals.len()
                ),
            ));
        }
        for (node, v) in nodes.iter().zip(vals.iter()) {
            self.base.set_node_value(method, *node, v.clone())?;
        }
        Ok(())
    }

    /// `Sort1()` — bubble sort, ascending. Locals: `i`, `j`, `n`.
    /// Use sites 0–4.
    ///
    /// # Errors
    ///
    /// Domain errors when injected faults drive indices out of range or
    /// the loop watchdog fires; a postcondition violation when the element
    /// count changes.
    pub fn sort1(&mut self) -> Result<(), TestException> {
        const M: &str = "Sort1";
        let before = self.base.count();
        let mut vals = self.load_values(M)?;
        let sum_before = int_sum(&vals);
        let n = vals.len() as i64;
        let mut i = 0i64;
        let mut fuel = WATCHDOG;
        // The sort works on `vals`; the attributes stay put until write-back.
        // Arithmetic on switch-read values uses `strict_*` ops, so an
        // injected MAXINT/MININT overflows into the same panic in debug and
        // release builds.
        let globals = self.base.globals();
        loop {
            let env = move || globals.env().bind("n", n).bind("i", i);
            // Site 0: outer loop comparison on i.
            if self.switch.read_int(M, 0, "i", i, env) >= n {
                break;
            }
            let mut j = 0i64;
            loop {
                let env = move || globals.env().bind("n", n).bind("i", i).bind("j", j);
                // Site 1: inner loop bound (n - i - 1) read through i.
                let bound = n
                    .strict_sub(self.switch.read_int(M, 1, "i", i, env))
                    .strict_sub(1);
                if j >= bound {
                    break;
                }
                // Site 2: the left index of the compared pair.
                let left = self.switch.read_int(M, 2, "j", j, env);
                let a = at(M, &vals, left)?.clone();
                let b = at(M, &vals, left.strict_add(1))?.clone();
                if a.total_cmp(&b) == std::cmp::Ordering::Greater {
                    // Site 3: the swap position.
                    let swap_at = self.switch.read_int(M, 3, "j", j, env);
                    *at_mut(M, &mut vals, swap_at)? = b;
                    *at_mut(M, &mut vals, swap_at.strict_add(1))? = a;
                }
                j += 1;
                fuel -= 1;
                if fuel == 0 {
                    return Err(TestException::domain(M, "watchdog: loop budget exceeded"));
                }
            }
            // Site 4: the outer increment source.
            i = self.switch.read_int(M, 4, "i", i, env).strict_add(1);
            fuel -= 1;
            if fuel == 0 {
                return Err(TestException::domain(M, "watchdog: loop budget exceeded"));
            }
        }
        self.store_values(M, &vals)?;
        let after = self.load_values(M)?;
        concat_bit::post_condition!(
            &self.ctl,
            Self::CLASS,
            M,
            self.base.count() == before && int_sum(&after) == sum_before
        );
        Ok(())
    }

    /// `Sort2()` — selection sort, ascending. Locals: `i`, `j`, `minIdx`,
    /// `n`. Use sites 0–4.
    ///
    /// # Errors
    ///
    /// As for [`CSortableObList::sort1`].
    pub fn sort2(&mut self) -> Result<(), TestException> {
        const M: &str = "Sort2";
        let before = self.base.count();
        let mut vals = self.load_values(M)?;
        let sum_before = int_sum(&vals);
        let n = vals.len() as i64;
        let mut i = 0i64;
        let mut fuel = WATCHDOG;
        let globals = self.base.globals();
        loop {
            let env = move || globals.env().bind("n", n).bind("i", i);
            // Site 0: outer loop comparison on i.
            if self.switch.read_int(M, 0, "i", i, env) >= n {
                break;
            }
            // Site 1: the initial minimum candidate.
            let mut min_idx = self.switch.read_int(M, 1, "i", i, env);
            let mut j = i + 1;
            loop {
                let env = move || {
                    globals
                        .env()
                        .bind("n", n)
                        .bind("i", i)
                        .bind("j", j)
                        .bind("minIdx", min_idx)
                };
                // Site 2: inner loop comparison on j.
                if self.switch.read_int(M, 2, "j", j, env) >= n {
                    break;
                }
                // Site 3: the candidate index compared against the minimum.
                let cand = self.switch.read_int(M, 3, "j", j, env);
                if at(M, &vals, cand)?.total_cmp(at(M, &vals, min_idx)?) == std::cmp::Ordering::Less
                {
                    min_idx = cand;
                }
                j += 1;
                fuel -= 1;
                if fuel == 0 {
                    return Err(TestException::domain(M, "watchdog: loop budget exceeded"));
                }
            }
            if min_idx != i {
                let env = move || {
                    globals
                        .env()
                        .bind("n", n)
                        .bind("i", i)
                        .bind("j", j)
                        .bind("minIdx", min_idx)
                };
                // Site 4: the swap target.
                let target = self.switch.read_int(M, 4, "i", i, env);
                let a = at(M, &vals, target)?.clone();
                let b = at(M, &vals, min_idx)?.clone();
                *at_mut(M, &mut vals, target)? = b;
                *at_mut(M, &mut vals, min_idx)? = a;
            }
            i += 1;
            fuel -= 1;
            if fuel == 0 {
                return Err(TestException::domain(M, "watchdog: loop budget exceeded"));
            }
        }
        self.store_values(M, &vals)?;
        let after = self.load_values(M)?;
        concat_bit::post_condition!(
            &self.ctl,
            Self::CLASS,
            M,
            self.base.count() == before && int_sum(&after) == sum_before
        );
        Ok(())
    }

    /// `ShellSort()` — diminishing-gap insertion sort. Locals: `gap`, `i`,
    /// `j`, `n`. Use sites 0–5.
    ///
    /// # Errors
    ///
    /// As for [`CSortableObList::sort1`].
    pub fn shell_sort(&mut self) -> Result<(), TestException> {
        const M: &str = "ShellSort";
        let before = self.base.count();
        let mut vals = self.load_values(M)?;
        let sum_before = int_sum(&vals);
        let n = vals.len() as i64;
        let mut gap = n / 2;
        let mut fuel = WATCHDOG;
        let globals = self.base.globals();
        loop {
            let env = move || globals.env().bind("n", n).bind("gap", gap);
            // Site 0: the gap-loop guard.
            if self.switch.read_int(M, 0, "gap", gap, env) <= 0 {
                break;
            }
            let mut i = gap;
            loop {
                let env = move || globals.env().bind("n", n).bind("gap", gap).bind("i", i);
                // Site 1: the scan comparison on i.
                if self.switch.read_int(M, 1, "i", i, env) >= n {
                    break;
                }
                // Site 2: the element lifted out.
                let lifted_idx = self.switch.read_int(M, 2, "i", i, env);
                let lifted = at(M, &vals, lifted_idx)?.clone();
                let mut j = i;
                loop {
                    let env = move || {
                        globals
                            .env()
                            .bind("n", n)
                            .bind("gap", gap)
                            .bind("i", i)
                            .bind("j", j)
                    };
                    // Site 3: the insertion-loop comparison on j.
                    let jj = self.switch.read_int(M, 3, "j", j, env);
                    if jj < gap {
                        break;
                    }
                    // Site 4: the compared slot (j - gap).
                    let back = self.switch.read_int(M, 4, "j", j, env).strict_sub(gap);
                    if at(M, &vals, back)?.total_cmp(&lifted) != std::cmp::Ordering::Greater {
                        break;
                    }
                    let moved = at(M, &vals, back)?.clone();
                    *at_mut(M, &mut vals, j)? = moved;
                    j -= gap;
                    fuel -= 1;
                    if fuel == 0 {
                        return Err(TestException::domain(M, "watchdog: loop budget exceeded"));
                    }
                }
                // Site 5: the landing slot, read through the scan-level
                // environment, which binds no `j`.
                let landing = self.switch.read_int(M, 5, "j", j, env);
                *at_mut(M, &mut vals, landing)? = lifted;
                i += 1;
                fuel -= 1;
                if fuel == 0 {
                    return Err(TestException::domain(M, "watchdog: loop budget exceeded"));
                }
            }
            gap /= 2;
        }
        self.store_values(M, &vals)?;
        let after = self.load_values(M)?;
        concat_bit::post_condition!(
            &self.ctl,
            Self::CLASS,
            M,
            self.base.count() == before && int_sum(&after) == sum_before
        );
        Ok(())
    }

    /// `FindMax()` — returns the largest element. Locals: `idx`, `best`,
    /// `n`. Use sites 0–2 (site 2 is value-typed).
    ///
    /// # Errors
    ///
    /// A precondition violation on an empty list; domain errors under
    /// injected faults.
    pub fn find_max(&self) -> InvokeResult {
        self.scan_extreme("FindMax", std::cmp::Ordering::Greater)
    }

    /// `FindMin()` — returns the smallest element. Same shape as
    /// [`CSortableObList::find_max`].
    ///
    /// # Errors
    ///
    /// A precondition violation on an empty list; domain errors under
    /// injected faults.
    pub fn find_min(&self) -> InvokeResult {
        self.scan_extreme("FindMin", std::cmp::Ordering::Less)
    }

    fn scan_extreme(&self, method: &str, keep: std::cmp::Ordering) -> InvokeResult {
        concat_bit::pre_condition!(&self.ctl, Self::CLASS, method, self.base.count() > 0);
        let vals = self.load_values(method)?;
        let n = vals.len() as i64;
        let mut best = vals[0].clone();
        let mut idx = 1i64;
        let mut fuel = WATCHDOG;
        let globals = self.base.globals();
        loop {
            // Borrows `best`, which changes only after the last read below.
            let env = || {
                globals
                    .env()
                    .bind("n", n)
                    .bind("idx", idx)
                    .bind("best", best.clone())
            };
            // Site 0: the scan comparison on idx.
            if self.switch.read_int(method, 0, "idx", idx, env) >= n {
                break;
            }
            // Site 1: the element index read.
            let probe = self.switch.read_int(method, 1, "idx", idx, env);
            let candidate = at(method, &vals, probe)?.clone();
            // Site 2: the running best (value-typed site).
            let current_best = self.switch.read_value(method, 2, "best", best.clone(), env);
            if candidate.total_cmp(&current_best) == keep {
                best = candidate;
            }
            idx += 1;
            fuel -= 1;
            if fuel == 0 {
                return Err(TestException::domain(
                    method,
                    "watchdog: loop budget exceeded",
                ));
            }
        }
        Ok(best)
    }
}

impl Component for CSortableObList {
    fn class_name(&self) -> &'static str {
        Self::CLASS
    }

    fn method_names(&self) -> Vec<&'static str> {
        let mut names = vec![
            "Sort1",
            "Sort2",
            "ShellSort",
            "FindMax",
            "FindMin",
            "~CSortableObList",
        ];
        names.extend(
            self.base
                .method_names()
                .into_iter()
                .filter(|m| *m != "~CObList"),
        );
        names
    }

    fn invoke(&mut self, method: &str, a: &[Value]) -> InvokeResult {
        let result = self.dispatch(method, a);
        #[cfg(feature = "seeded-bugs")]
        if result.is_ok() {
            self.seeded_track(method);
        }
        result
    }
}

impl CSortableObList {
    fn dispatch(&mut self, method: &str, a: &[Value]) -> InvokeResult {
        match method {
            "Sort1" => {
                args::expect_arity(method, a, 0)?;
                self.sort1()?;
                Ok(Value::Null)
            }
            "Sort2" => {
                args::expect_arity(method, a, 0)?;
                self.sort2()?;
                Ok(Value::Null)
            }
            "ShellSort" => {
                args::expect_arity(method, a, 0)?;
                self.shell_sort()?;
                Ok(Value::Null)
            }
            "FindMax" => {
                args::expect_arity(method, a, 0)?;
                self.find_max()
            }
            "FindMin" => {
                args::expect_arity(method, a, 0)?;
                self.find_min()
            }
            "~CSortableObList" => {
                self.base.remove_all();
                Ok(Value::Null)
            }
            // Everything else is inherited unmodified from CObList.
            inherited => self.base.invoke(inherited, a),
        }
    }
}

impl BuiltInTest for CSortableObList {
    fn bit_control(&self) -> &BitControl {
        &self.ctl
    }

    fn invariant_test(&self) -> Result<(), AssertionViolation> {
        // The subclass inherits the structural invariant unchanged.
        self.base.invariant_test()?;
        #[cfg(feature = "seeded-bugs")]
        concat_bit::check(
            &self.ctl,
            concat_runtime::AssertionKind::Invariant,
            Self::CLASS,
            "",
            "cached length agrees with m_nCount",
            self.cached_len.get() == self.base.count(),
        )?;
        Ok(())
    }

    fn reporter(&self) -> StateReport {
        // Deliberately the parent's exact report: retargeted parent
        // suites compare transcripts across the hierarchy.
        self.base.reporter()
    }

    fn observe(&self, name: &str) -> Option<Value> {
        self.base.observe(name)
    }
}

/// Factory for [`CSortableObList`] instances sharing one
/// [`MutationSwitch`].
#[derive(Debug, Clone, Default)]
pub struct CSortableObListFactory {
    switch: MutationSwitch,
}

impl CSortableObListFactory {
    /// Creates a factory wired to `switch`.
    pub fn new(switch: MutationSwitch) -> Self {
        CSortableObListFactory { switch }
    }

    /// The shared mutation switch.
    pub fn switch(&self) -> &MutationSwitch {
        &self.switch
    }
}

impl ComponentFactory for CSortableObListFactory {
    fn class_name(&self) -> &str {
        CSortableObList::CLASS
    }

    fn construct(
        &self,
        constructor: &str,
        a: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        match constructor {
            "CSortableObList" => match a.len() {
                0 => Ok(Box::new(CSortableObList::new(ctl, self.switch.clone()))),
                1 => Ok(Box::new(CSortableObList::with_block_size(
                    args::int(constructor, a, 0)?,
                    ctl,
                    self.switch.clone(),
                ))),
                got => Err(TestException::ArityMismatch {
                    method: constructor.to_owned(),
                    expected: 1,
                    got,
                }),
            },
            other => Err(unknown_method(CSortableObList::CLASS, other)),
        }
    }
}

impl ClonableFactory for CSortableObListFactory {
    fn class_name(&self) -> &str {
        CSortableObList::CLASS
    }

    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
        Box::new(CSortableObListFactory::new(switch.clone()))
    }
}

/// The t-spec of `CSortableObList`: the inherited interface plus the five
/// new methods, and the extended transaction flow model.
pub fn sortable_spec() -> ClassSpec {
    let value = || Domain::int_range(-99, 99);
    let index = || Domain::int_range(0, 1);
    ClassSpecBuilder::new(CSortableObList::CLASS)
        .superclass("CObList")
        .source_file("csortableoblist.cpp")
        .attribute("m_nCount", Domain::int_range(0, 99_999))
        .attribute(
            "m_pNodeHead",
            Domain::Pointer {
                class_name: "CNode".into(),
            },
        )
        .attribute(
            "m_pNodeTail",
            Domain::Pointer {
                class_name: "CNode".into(),
            },
        )
        .attribute("m_nBlockSize", Domain::int_range(1, 64))
        .constructor("m1", "CSortableObList")
        .constructor("m1b", "CSortableObList")
        .param("nBlockSize", Domain::int_range(1, 64))
        .method("m2", "AddHead", MethodCategory::Update)
        .param("newElement", value())
        .method("m3", "AddTail", MethodCategory::Update)
        .param("newElement", value())
        .method("m4", "RemoveHead", MethodCategory::Update)
        .returns("Value")
        .method("m5", "RemoveTail", MethodCategory::Update)
        .returns("Value")
        .method("m6", "GetHead", MethodCategory::Access)
        .returns("Value")
        .method("m7", "GetTail", MethodCategory::Access)
        .returns("Value")
        .method("m8", "GetAt", MethodCategory::Access)
        .param("index", index())
        .returns("Value")
        .method("m9", "SetAt", MethodCategory::Update)
        .param("index", index())
        .param("newElement", value())
        .method("m10", "InsertAfter", MethodCategory::Update)
        .param("index", index())
        .param("newElement", value())
        .method("m11", "Find", MethodCategory::Access)
        .param("searchValue", value())
        .returns("int")
        .method("m12", "RemoveAt", MethodCategory::Update)
        .param("index", index())
        .returns("Value")
        .method("m13", "GetCount", MethodCategory::Access)
        .returns("int")
        .method("m14", "IsEmpty", MethodCategory::Access)
        .returns("bool")
        .method("m15", "RemoveAll", MethodCategory::Update)
        .method("m17", "Sort1", MethodCategory::Update)
        .method("m18", "Sort2", MethodCategory::Update)
        .method("m19", "ShellSort", MethodCategory::Update)
        .method("m20", "FindMax", MethodCategory::Access)
        .returns("Value")
        .method("m21", "FindMin", MethodCategory::Access)
        .returns("Value")
        .invariant(
            "i1",
            "element count never goes negative",
            concat_tspec::InvariantTerm::field("m_nCount"),
            concat_tspec::InvariantOp::Ge,
            concat_tspec::InvariantTerm::int(0),
        )
        .destructor("m16", "~CSortableObList")
        .birth_node("n1", ["m1", "m1b"])
        .task_node("n2", ["m2", "m3"])
        .task_node("n3", ["m2", "m3"])
        .task_node("n4", ["m2", "m3"])
        .task_node("n5", ["m17", "m18", "m19"])
        .task_node("n6", ["m20", "m21"])
        .task_node("n7", ["m6", "m7"])
        .task_node("n8", ["m8", "m11"])
        .task_node("n9", ["m9", "m10"])
        .task_node("n10", ["m17", "m18", "m19"])
        .task_node("n11", ["m4", "m5", "m12"])
        .task_node("n12", ["m13", "m14"])
        .task_node("n13", ["m15"])
        .task_node("n15", ["m20", "m21"])
        .task_node("n16", ["m4"]) // sorted lists are consumed from the head
        .death_node("n14", ["m16"])
        // Common trunk: build the list up.
        .edge("n1", "n2")
        .edge("n2", "n3")
        .edge("n3", "n4")
        // Maintenance branch: inherited methods only, including shrink —
        // exactly the transactions the reuse rule of §3.4.2 will skip.
        .edge("n2", "n11")
        .edge("n4", "n7")
        .edge("n7", "n8")
        .edge("n7", "n11")
        .edge("n4", "n8")
        .edge("n8", "n9")
        .edge("n8", "n11")
        .edge("n9", "n12")
        .edge("n11", "n12")
        .edge("n11", "n13")
        .edge("n12", "n13")
        .edge("n12", "n14")
        .edge("n13", "n14")
        // Sorted-usage branch: contains the new methods, never shrinks.
        .edge("n3", "n5")
        .edge("n4", "n5")
        .edge("n5", "n6")
        .edge("n5", "n12")
        .edge("n6", "n12")
        .edge("n6", "n9")
        .edge("n6", "n16")
        .edge("n9", "n10")
        .edge("n10", "n15")
        .edge("n15", "n16")
        .edge("n15", "n14")
        .edge("n16", "n14")
        .build()
        .expect("CSortableObList spec is valid")
}

/// The mutation inventory of the five Table-2 target methods; the base
/// class's instrumented methods are inherited into the same inventory so
/// one inventory serves both experiments.
pub fn sortable_inventory() -> ClassInventory {
    let mut inv = ClassInventory::new(CSortableObList::CLASS)
        .globals(["m_nCount", "m_pNodeHead", "m_pNodeTail", "m_nBlockSize"])
        .method(
            MethodInventory::new("Sort1")
                .locals(["i", "j", "n"])
                .globals_used(["m_nCount", "m_pNodeHead"])
                .site(0, "i", "outer loop comparison")
                .site(1, "i", "inner loop bound")
                .site(2, "j", "compared pair index")
                .site(3, "j", "swap position")
                .site(4, "i", "outer increment source"),
        )
        .method(
            MethodInventory::new("Sort2")
                .locals(["i", "j", "minIdx", "n"])
                .globals_used(["m_nCount", "m_pNodeHead"])
                .site(0, "i", "outer loop comparison")
                .site(1, "i", "initial minimum candidate")
                .site(2, "j", "inner loop comparison")
                .site(3, "j", "candidate index")
                .site(4, "i", "swap target"),
        )
        .method(
            MethodInventory::new("ShellSort")
                .locals(["gap", "i", "j", "n"])
                .globals_used(["m_nCount", "m_pNodeHead"])
                .site(0, "gap", "gap loop guard")
                .site(1, "i", "scan comparison")
                .site(2, "i", "lifted element index")
                .site(3, "j", "insertion loop comparison")
                .site(4, "j", "compared slot")
                .site(5, "j", "landing slot"),
        )
        .method(
            MethodInventory::new("FindMax")
                .locals(["idx", "best", "n"])
                .globals_used(["m_nCount", "m_pNodeHead"])
                .site(0, "idx", "scan comparison")
                .site(1, "idx", "element index read")
                .site(2, "best", "running best (value site)"),
        )
        .method(
            MethodInventory::new("FindMin")
                .locals(["idx", "best", "n"])
                .globals_used(["m_nCount", "m_pNodeHead"])
                .site(0, "idx", "scan comparison")
                .site(1, "idx", "element index read")
                .site(2, "best", "running best (value site)"),
        );
    // Inherited instrumented methods participate through delegation.
    for m in coblist_inventory().methods {
        inv = inv.method(m);
    }
    inv
}

/// The inheritance relationship between `CObList` and `CSortableObList`
/// for the reuse analysis: everything inherited unmodified, five new
/// methods, no redefinitions (exactly the situation Table 3 warns about).
pub fn sortable_inheritance_map() -> InheritanceMap {
    InheritanceMap::new()
        .lifecycle(["CObList", "~CObList", "CSortableObList", "~CSortableObList"])
        .inherit([
            "AddHead",
            "AddTail",
            "RemoveHead",
            "RemoveTail",
            "GetHead",
            "GetTail",
            "GetAt",
            "SetAt",
            "RemoveAt",
            "InsertAfter",
            "Find",
            "GetCount",
            "IsEmpty",
            "RemoveAll",
        ])
        .add_new(CSortableObList::NEW_METHODS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use concat_mutation::{FaultPlan, Replacement, ReqConst};

    fn filled(values: &[i64]) -> CSortableObList {
        let mut l = CSortableObList::new(BitControl::new_enabled(), MutationSwitch::new());
        for v in values {
            l.invoke("AddTail", &[Value::Int(*v)]).unwrap();
        }
        l
    }

    fn ints(l: &CSortableObList) -> Vec<i64> {
        l.base()
            .values()
            .unwrap()
            .into_iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    #[test]
    fn sort1_sorts() {
        let mut l = filled(&[5, -2, 9, 0, 3]);
        l.sort1().unwrap();
        assert_eq!(ints(&l), vec![-2, 0, 3, 5, 9]);
        assert!(l.invariant_test().is_ok());
    }

    #[test]
    fn sort2_sorts() {
        let mut l = filled(&[4, 4, -7, 12]);
        l.sort2().unwrap();
        assert_eq!(ints(&l), vec![-7, 4, 4, 12]);
    }

    #[test]
    fn shell_sort_sorts() {
        let mut l = filled(&[8, 1, 6, -3, 6, 0, 42, -9]);
        l.shell_sort().unwrap();
        assert_eq!(ints(&l), vec![-9, -3, 0, 1, 6, 6, 8, 42]);
    }

    #[test]
    fn sorts_agree_with_each_other() {
        for alg in 0..3 {
            let mut l = filled(&[3, 3, 1, -5, 99, 0, 2]);
            match alg {
                0 => l.sort1().unwrap(),
                1 => l.sort2().unwrap(),
                _ => l.shell_sort().unwrap(),
            }
            assert_eq!(ints(&l), vec![-5, 0, 1, 2, 3, 3, 99], "algorithm {alg}");
        }
    }

    #[test]
    fn empty_and_singleton_sorts_are_noops() {
        let mut l = filled(&[]);
        l.sort1().unwrap();
        l.sort2().unwrap();
        l.shell_sort().unwrap();
        assert_eq!(ints(&l), Vec::<i64>::new());
        let mut l = filled(&[7]);
        l.shell_sort().unwrap();
        assert_eq!(ints(&l), vec![7]);
    }

    #[test]
    fn find_max_and_min() {
        let l = filled(&[4, -9, 23, 0]);
        assert_eq!(l.find_max().unwrap(), Value::Int(23));
        assert_eq!(l.find_min().unwrap(), Value::Int(-9));
    }

    #[test]
    fn find_on_empty_violates_precondition() {
        let l = filled(&[]);
        assert_eq!(l.find_max().unwrap_err().tag(), "PRECONDITION");
        assert_eq!(l.find_min().unwrap_err().tag(), "PRECONDITION");
    }

    #[test]
    fn inherited_methods_delegate() {
        let mut l = filled(&[1, 2]);
        assert_eq!(l.invoke("GetCount", &[]).unwrap(), Value::Int(2));
        assert_eq!(l.invoke("GetHead", &[]).unwrap(), Value::Int(1));
        assert_eq!(l.invoke("RemoveHead", &[]).unwrap(), Value::Int(1));
        assert_eq!(l.invoke("Find", &[Value::Int(2)]).unwrap(), Value::Int(0));
        assert!(l.has_method("AddTail"));
        assert!(l.has_method("Sort1"));
        assert!(!l.has_method("~CObList"), "base destructor is replaced");
    }

    #[test]
    fn destructor_dispatch() {
        let mut l = filled(&[1]);
        assert_eq!(l.invoke("~CSortableObList", &[]).unwrap(), Value::Null);
        assert_eq!(l.invoke("IsEmpty", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn fault_in_sort1_changes_output() {
        let switch = MutationSwitch::new();
        let mut l = CSortableObList::new(BitControl::new_enabled(), switch.clone());
        for v in [3, 1, 2] {
            l.invoke("AddTail", &[Value::Int(v)]).unwrap();
        }
        // Outer comparison frozen at MAXINT: the sort never runs a pass.
        switch.arm(FaultPlan {
            method: "Sort1".into(),
            site: 0,
            replacement: Replacement::Const(ReqConst::MaxInt),
        });
        l.sort1().unwrap();
        assert_eq!(ints(&l), vec![3, 1, 2], "no pass ran: list unsorted");
    }

    #[test]
    fn fault_in_sort2_candidate_is_caught_or_changes_output() {
        let switch = MutationSwitch::new();
        let mut l = CSortableObList::new(BitControl::new_enabled(), switch.clone());
        for v in [5, 4, 3, 2, 1] {
            l.invoke("AddTail", &[Value::Int(v)]).unwrap();
        }
        // Candidate index replaced by the head link (an arena index):
        // wrong but in-range values change the result; wild ones error.
        switch.arm(FaultPlan {
            method: "Sort2".into(),
            site: 3,
            replacement: Replacement::Var("m_pNodeHead".into()),
        });
        match l.sort2() {
            Ok(()) => assert_ne!(ints(&l), vec![1, 2, 3, 4, 5]),
            Err(e) => assert_eq!(e.tag(), "DOMAIN"),
        }
    }

    #[test]
    fn watchdog_stops_mutated_shell_sort() {
        let switch = MutationSwitch::new();
        let mut l = CSortableObList::new(BitControl::new_enabled(), switch.clone());
        for v in [2, 1, 4, 3] {
            l.invoke("AddTail", &[Value::Int(v)]).unwrap();
        }
        // Gap guard frozen at 1: the gap loop never terminates.
        switch.arm(FaultPlan {
            method: "ShellSort".into(),
            site: 0,
            replacement: Replacement::Const(ReqConst::One),
        });
        let err = l.shell_sort().unwrap_err();
        assert_eq!(err.tag(), "DOMAIN");
    }

    #[test]
    fn fault_in_find_max_best_site_changes_result() {
        let switch = MutationSwitch::new();
        let mut l = CSortableObList::new(BitControl::new_enabled(), switch.clone());
        for v in [10, 50, 20] {
            l.invoke("AddTail", &[Value::Int(v)]).unwrap();
        }
        // The running best replaced by MAXINT: nothing ever beats it, so
        // the stale initial best is returned.
        switch.arm(FaultPlan {
            method: "FindMax".into(),
            site: 2,
            replacement: Replacement::Const(ReqConst::MaxInt),
        });
        assert_eq!(l.find_max().unwrap(), Value::Int(10));
    }

    #[test]
    fn spec_validates_with_16_nodes() {
        let spec = sortable_spec();
        assert!(spec.validate().is_empty());
        assert_eq!(spec.tfm.node_count(), 16);
        assert_eq!(spec.superclass.as_deref(), Some("CObList"));
    }

    #[test]
    fn inventory_validates_and_includes_inherited_methods() {
        let inv = sortable_inventory();
        assert!(inv.validate().is_empty());
        assert!(inv.method_named("Sort1").is_some());
        assert!(
            inv.method_named("AddHead").is_some(),
            "inherited instrumentation"
        );
    }

    #[test]
    fn inheritance_map_classifies() {
        use concat_driver::MethodStatus;
        let map = sortable_inheritance_map();
        assert_eq!(map.classify("AddHead"), MethodStatus::Inherited);
        assert_eq!(map.classify("Sort1"), MethodStatus::New);
        assert_eq!(map.classify("CSortableObList"), MethodStatus::Lifecycle);
    }

    #[test]
    fn factory_constructs() {
        let f = CSortableObListFactory::default();
        let c = f
            .construct("CSortableObList", &[], BitControl::new_enabled())
            .unwrap();
        assert_eq!(c.class_name(), "CSortableObList");
        assert!(f
            .construct("CObList", &[], BitControl::new_enabled())
            .is_err());
        let _ = f.switch();
    }

    #[test]
    fn sorts_handle_mixed_value_kinds_totally() {
        let mut l = CSortableObList::new(BitControl::new_enabled(), MutationSwitch::new());
        l.invoke("AddTail", &[Value::Str("b".into())]).unwrap();
        l.invoke("AddTail", &[Value::Int(5)]).unwrap();
        l.invoke("AddTail", &[Value::Str("a".into())]).unwrap();
        l.sort1().unwrap();
        let vals = l.base().values().unwrap();
        assert_eq!(
            vals,
            vec![
                Value::Int(5),
                Value::Str("a".into()),
                Value::Str("b".into())
            ]
        );
    }
}
