//! `CObList`: the paper's base subject — a doubly linked list with the MFC
//! API surface, re-implemented over the [`NodeArena`] substrate.
//!
//! Three methods are *mutation-instrumented* — `AddHead`, `RemoveAt`,
//! `RemoveHead`, the Table-3 targets — performing their own link surgery
//! through [`MutationSwitch`] use sites, so the interface mutation
//! operators can corrupt indices, counters and link words exactly the way
//! the paper's hand-inserted C++ mutants did. The remaining methods are
//! conventional.
//!
//! Like the MFC original, the class "already contains assertions" (paper
//! §4): preconditions on empty-list access and a structural class
//! invariant (`chain_consistent`).

use crate::arena::{BadLink, NodeArena, NIL};
use concat_bit::{BitControl, BuiltInTest, ComponentFactory, StateReport, TestableComponent};
use concat_mutation::{ClassInventory, ClonableFactory, MethodInventory, MutationSwitch, VarEnv};
use concat_runtime::{
    args, unknown_method, AssertionViolation, Component, InvokeResult, TestException, Value,
};
use concat_tspec::{ClassSpec, ClassSpecBuilder, Domain, MethodCategory};

/// Iteration budget per instrumented loop: a mutated loop bound must hit a
/// deterministic watchdog instead of hanging the analysis.
pub(crate) const WATCHDOG: u32 = 4096;

/// Traversal budget for invariant/reporter walks (well above any list the
/// generated transactions build).
pub(crate) const WALK_BUDGET: usize = 1024;

fn bad_link(method: &str, e: BadLink) -> TestException {
    TestException::domain(method, e.to_string())
}

/// The class attributes of a [`CObList`] that `Var` replacements may
/// read, copied out where a method's use-site environment is defined so
/// that later writes to the list cannot change what a site sees.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Globals {
    count: i64,
    head: i64,
    tail: i64,
    block_size: i64,
}

impl Globals {
    /// The attributes as the globals of a use-site environment.
    pub(crate) fn env(self) -> VarEnv {
        VarEnv::new()
            .bind("m_nCount", self.count)
            .bind("m_pNodeHead", self.head)
            .bind("m_pNodeTail", self.tail)
            .bind("m_nBlockSize", self.block_size)
    }
}

/// The `CObList` component: MFC-style doubly linked list of [`Value`]s.
#[derive(Debug)]
pub struct CObList {
    arena: NodeArena,
    /// `m_pNodeHead` — arena index of the first node, or `-1`.
    head: i64,
    /// `m_pNodeTail` — arena index of the last node, or `-1`.
    tail: i64,
    /// `m_nCount` — claimed element count. A fault site can set it to
    /// MAXINT/MININT, so it changes by `strict_*` ops: an overflow panics
    /// the same way in debug and release builds.
    count: i64,
    /// `m_nBlockSize` — MFC's allocation granularity hint. Functionally
    /// inert here (the arena allocates node-by-node) but kept as a class
    /// attribute so the `E(R2)` operator set of the instrumented methods
    /// is non-empty, as in the paper's subject.
    block_size: i64,
    ctl: BitControl,
    switch: MutationSwitch,
}

impl CObList {
    /// Class name used in specs and dispatch.
    pub const CLASS: &'static str = "CObList";

    /// The fields [`BuiltInTest::reporter`] reports, each read through
    /// [`BuiltInTest::observe`].
    const OBSERVABLES: [&'static str; 2] = ["m_nCount", "elements"];

    /// Creates an empty list wired to the given BIT control and mutation
    /// switch, with the default block size of 10 (MFC's default).
    pub fn new(ctl: BitControl, switch: MutationSwitch) -> Self {
        Self::with_block_size(10, ctl, switch)
    }

    /// Creates an empty list with an explicit `m_nBlockSize` (the MFC
    /// `CObList(int nBlockSize)` constructor).
    pub fn with_block_size(block_size: i64, ctl: BitControl, switch: MutationSwitch) -> Self {
        CObList {
            arena: NodeArena::new(),
            head: NIL,
            tail: NIL,
            count: 0,
            block_size,
            ctl,
            switch,
        }
    }

    /// The attributes instrumented reads may substitute, for this class's
    /// and subclasses' use-site environments.
    pub(crate) fn globals(&self) -> Globals {
        Globals {
            count: self.count,
            head: self.head,
            tail: self.tail,
            block_size: self.block_size,
        }
    }

    /// `m_nCount` as seen by subclasses and reporters.
    pub fn count(&self) -> i64 {
        self.count
    }

    /// True when the list is empty.
    pub fn is_empty_list(&self) -> bool {
        self.count == 0
    }

    /// Values front-to-back, or `None` when the chain is corrupt.
    pub fn values(&self) -> Option<Vec<Value>> {
        self.arena.collect_forward(self.head, WALK_BUDGET)
    }

    /// Node indices front-to-back, or an error when the chain is corrupt.
    ///
    /// # Errors
    ///
    /// [`TestException::Domain`] when a link is invalid or the walk exceeds
    /// its budget.
    pub fn node_indices(&self, method: &str) -> Result<Vec<i64>, TestException> {
        let mut out = Vec::new();
        let mut cur = self.head;
        let mut steps = 0usize;
        while cur != NIL {
            if steps >= WALK_BUDGET {
                return Err(TestException::domain(
                    method,
                    "corrupt chain: walk budget exceeded",
                ));
            }
            out.push(cur);
            cur = self.arena.next(cur).map_err(|e| bad_link(method, e))?;
            steps += 1;
        }
        Ok(out)
    }

    /// Reads the value stored at an arena node.
    ///
    /// # Errors
    ///
    /// [`TestException::Domain`] on an invalid link.
    pub fn node_value(&self, method: &str, node: i64) -> Result<Value, TestException> {
        Ok(self
            .arena
            .value(node)
            .map_err(|e| bad_link(method, e))?
            .clone())
    }

    /// Overwrites the value stored at an arena node.
    ///
    /// # Errors
    ///
    /// [`TestException::Domain`] on an invalid link.
    pub fn set_node_value(
        &mut self,
        method: &str,
        node: i64,
        value: Value,
    ) -> Result<(), TestException> {
        self.arena
            .set_value(node, value)
            .map_err(|e| bad_link(method, e))
    }

    // ------------------------------------------------------------------
    // Instrumented methods (Table 3 targets).
    // ------------------------------------------------------------------

    /// `AddHead(v)` — instrumented link surgery at the front.
    ///
    /// Locals: `pNewNode`, `pOldHead`. Use sites 0–3.
    ///
    /// # Errors
    ///
    /// [`TestException::Domain`] when injected faults corrupt a link that
    /// the surgery itself must dereference.
    pub fn add_head(&mut self, value: Value) -> Result<(), TestException> {
        const M: &str = "AddHead";
        let p_new_node = self.arena.alloc(value);
        let p_old_head = self.head;
        // The closure copies the globals and locals as they are here; the
        // surgery below rewrites the attributes before the last read.
        let globals = self.globals();
        let env = move || {
            globals
                .env()
                .bind("pNewNode", p_new_node)
                .bind("pOldHead", p_old_head)
        };
        // Site 0: the new node's next link ← pOldHead.
        let next_link = self.switch.read_int(M, 0, "pOldHead", p_old_head, env);
        self.arena
            .set_next(p_new_node, next_link)
            .map_err(|e| bad_link(M, e))?;
        if p_old_head != NIL {
            // Site 1: the old head's prev link ← pNewNode.
            let prev_link = self.switch.read_int(M, 1, "pNewNode", p_new_node, env);
            self.arena
                .set_prev(p_old_head, prev_link)
                .map_err(|e| bad_link(M, e))?;
        } else {
            // Site 2: the tail update when the list was empty.
            self.tail = self.switch.read_int(M, 2, "pNewNode", p_new_node, env);
        }
        // Site 3: the head update.
        self.head = self.switch.read_int(M, 3, "pNewNode", p_new_node, env);
        self.count = self.count.strict_add(1);
        Ok(())
    }

    /// `RemoveHead()` — instrumented removal at the front.
    ///
    /// Locals: `pOldHead`, `pNext`, `nNewCount`. Use sites 0–2.
    ///
    /// # Errors
    ///
    /// A precondition violation on an empty list, or
    /// [`TestException::Domain`] when injected faults corrupt the links.
    pub fn remove_head(&mut self) -> InvokeResult {
        const M: &str = "RemoveHead";
        concat_bit::pre_condition!(&self.ctl, Self::CLASS, M, self.count > 0);
        let p_old_head = self.head;
        let p_next = self.arena.next(p_old_head).map_err(|e| bad_link(M, e))?;
        let n_new_count = self.count.strict_sub(1);
        let globals = self.globals();
        let env = move || {
            globals
                .env()
                .bind("pOldHead", p_old_head)
                .bind("pNext", p_next)
                .bind("nNewCount", n_new_count)
        };
        // Site 0: which node to free.
        let to_free = self.switch.read_int(M, 0, "pOldHead", p_old_head, env);
        let value = self.arena.free(to_free).map_err(|e| bad_link(M, e))?;
        // Site 1: the new head.
        self.head = self.switch.read_int(M, 1, "pNext", p_next, env);
        if self.head == NIL {
            self.tail = NIL;
        } else {
            self.arena
                .set_prev(self.head, NIL)
                .map_err(|e| bad_link(M, e))?;
        }
        // Site 2: the count update.
        self.count = self.switch.read_int(M, 2, "nNewCount", n_new_count, env);
        Ok(value)
    }

    /// `RemoveAt(index)` — instrumented traversal + unlink.
    ///
    /// Locals: `i`, `pCur`, `pPrev`, `pNext`. Use sites 0–4.
    ///
    /// # Errors
    ///
    /// A precondition violation on a bad index, or
    /// [`TestException::Domain`] when injected faults corrupt the
    /// traversal or the unlinking.
    pub fn remove_at(&mut self, index: i64) -> InvokeResult {
        const M: &str = "RemoveAt";
        concat_bit::pre_condition!(&self.ctl, Self::CLASS, M, index >= 0 && index < self.count);
        let mut p_cur = self.head;
        let mut i = 0i64;
        let mut fuel = WATCHDOG;
        loop {
            let globals = self.globals();
            let env = move || globals.env().bind("i", i).bind("pCur", p_cur);
            // Site 0: the loop comparison on i.
            if self.switch.read_int(M, 0, "i", i, env) >= index {
                break;
            }
            // Site 1: the traversal read of pCur.
            let step_from = self.switch.read_int(M, 1, "pCur", p_cur, env);
            p_cur = self.arena.next(step_from).map_err(|e| bad_link(M, e))?;
            if p_cur == NIL {
                return Err(TestException::domain(M, "ran off the end of the list"));
            }
            i += 1;
            fuel -= 1;
            if fuel == 0 {
                return Err(TestException::domain(M, "watchdog: loop budget exceeded"));
            }
        }
        let p_prev = self.arena.prev(p_cur).map_err(|e| bad_link(M, e))?;
        let p_next = self.arena.next(p_cur).map_err(|e| bad_link(M, e))?;
        let globals = self.globals();
        let env = move || {
            globals
                .env()
                .bind("i", i)
                .bind("pCur", p_cur)
                .bind("pPrev", p_prev)
                .bind("pNext", p_next)
        };
        // Site 2: the prev side of the unlink.
        let unlink_prev = self.switch.read_int(M, 2, "pPrev", p_prev, env);
        // Site 3: the next side of the unlink.
        let unlink_next = self.switch.read_int(M, 3, "pNext", p_next, env);
        if unlink_prev == NIL {
            self.head = unlink_next;
        } else {
            self.arena
                .set_next(unlink_prev, unlink_next)
                .map_err(|e| bad_link(M, e))?;
        }
        if unlink_next == NIL {
            self.tail = unlink_prev;
        } else {
            self.arena
                .set_prev(unlink_next, unlink_prev)
                .map_err(|e| bad_link(M, e))?;
        }
        // Site 4: which node to free.
        let to_free = self.switch.read_int(M, 4, "pCur", p_cur, env);
        let value = self.arena.free(to_free).map_err(|e| bad_link(M, e))?;
        self.count = self.count.strict_sub(1);
        Ok(value)
    }

    // ------------------------------------------------------------------
    // Conventional methods.
    // ------------------------------------------------------------------

    /// `AddTail(v)`.
    pub fn add_tail(&mut self, value: Value) {
        let node = self.arena.alloc(value);
        if self.tail == NIL {
            self.head = node;
        } else {
            let _ = self.arena.set_next(self.tail, node);
            let _ = self.arena.set_prev(node, self.tail);
        }
        self.tail = node;
        self.count = self.count.strict_add(1);
    }

    /// `RemoveTail()`.
    ///
    /// # Errors
    ///
    /// A precondition violation on an empty list; domain errors on a
    /// corrupt chain.
    pub fn remove_tail(&mut self) -> InvokeResult {
        const M: &str = "RemoveTail";
        concat_bit::pre_condition!(&self.ctl, Self::CLASS, M, self.count > 0);
        let old_tail = self.tail;
        let prev = self.arena.prev(old_tail).map_err(|e| bad_link(M, e))?;
        let value = self.arena.free(old_tail).map_err(|e| bad_link(M, e))?;
        self.tail = prev;
        if prev == NIL {
            self.head = NIL;
        } else {
            self.arena.set_next(prev, NIL).map_err(|e| bad_link(M, e))?;
        }
        self.count = self.count.strict_sub(1);
        Ok(value)
    }

    /// `GetHead()`.
    ///
    /// # Errors
    ///
    /// A precondition violation on an empty list.
    pub fn get_head(&self) -> InvokeResult {
        concat_bit::pre_condition!(&self.ctl, Self::CLASS, "GetHead", self.count > 0);
        self.node_value("GetHead", self.head)
    }

    /// `GetTail()`.
    ///
    /// # Errors
    ///
    /// A precondition violation on an empty list.
    pub fn get_tail(&self) -> InvokeResult {
        concat_bit::pre_condition!(&self.ctl, Self::CLASS, "GetTail", self.count > 0);
        self.node_value("GetTail", self.tail)
    }

    fn node_at(&self, method: &str, index: i64) -> Result<i64, TestException> {
        let nodes = self.node_indices(method)?;
        usize::try_from(index)
            .ok()
            .and_then(|i| nodes.get(i).copied())
            .ok_or_else(|| TestException::domain(method, format!("index {index} out of range")))
    }

    /// `GetAt(index)`.
    ///
    /// # Errors
    ///
    /// A precondition violation on a bad index.
    pub fn get_at(&self, index: i64) -> InvokeResult {
        const M: &str = "GetAt";
        concat_bit::pre_condition!(&self.ctl, Self::CLASS, M, index >= 0 && index < self.count);
        let node = self.node_at(M, index)?;
        self.node_value(M, node)
    }

    /// `SetAt(index, v)`.
    ///
    /// # Errors
    ///
    /// A precondition violation on a bad index.
    pub fn set_at(&mut self, index: i64, value: Value) -> Result<(), TestException> {
        const M: &str = "SetAt";
        concat_bit::pre_condition!(&self.ctl, Self::CLASS, M, index >= 0 && index < self.count);
        let node = self.node_at(M, index)?;
        self.set_node_value(M, node, value)
    }

    /// `InsertAfter(index, v)`.
    ///
    /// # Errors
    ///
    /// A precondition violation on a bad index; domain errors on a corrupt
    /// chain.
    pub fn insert_after(&mut self, index: i64, value: Value) -> Result<(), TestException> {
        const M: &str = "InsertAfter";
        concat_bit::pre_condition!(&self.ctl, Self::CLASS, M, index >= 0 && index < self.count);
        let node = self.node_at(M, index)?;
        let next = self.arena.next(node).map_err(|e| bad_link(M, e))?;
        let fresh = self.arena.alloc(value);
        self.arena
            .set_prev(fresh, node)
            .map_err(|e| bad_link(M, e))?;
        self.arena
            .set_next(fresh, next)
            .map_err(|e| bad_link(M, e))?;
        self.arena
            .set_next(node, fresh)
            .map_err(|e| bad_link(M, e))?;
        if next == NIL {
            self.tail = fresh;
        } else {
            self.arena
                .set_prev(next, fresh)
                .map_err(|e| bad_link(M, e))?;
        }
        self.count = self.count.strict_add(1);
        Ok(())
    }

    /// `Find(v)` — index of the first occurrence, or `-1`.
    ///
    /// # Errors
    ///
    /// Domain errors on a corrupt chain.
    pub fn find(&self, value: &Value) -> Result<i64, TestException> {
        let values = self
            .values()
            .ok_or_else(|| TestException::domain("Find", "corrupt chain"))?;
        Ok(values
            .iter()
            .position(|v| v == value)
            .map_or(-1, |i| i as i64))
    }

    /// `RemoveAll()`.
    pub fn remove_all(&mut self) {
        self.arena.clear();
        self.head = NIL;
        self.tail = NIL;
        self.count = 0;
    }
}

impl Component for CObList {
    fn class_name(&self) -> &'static str {
        Self::CLASS
    }

    fn method_names(&self) -> Vec<&'static str> {
        vec![
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
            "~CObList",
        ]
    }

    fn invoke(&mut self, method: &str, a: &[Value]) -> InvokeResult {
        match method {
            "AddHead" => {
                args::expect_arity(method, a, 1)?;
                self.add_head(a[0].clone())?;
                Ok(Value::Null)
            }
            "AddTail" => {
                args::expect_arity(method, a, 1)?;
                self.add_tail(a[0].clone());
                Ok(Value::Null)
            }
            "RemoveHead" => {
                args::expect_arity(method, a, 0)?;
                self.remove_head()
            }
            "RemoveTail" => {
                args::expect_arity(method, a, 0)?;
                self.remove_tail()
            }
            "GetHead" => {
                args::expect_arity(method, a, 0)?;
                self.get_head()
            }
            "GetTail" => {
                args::expect_arity(method, a, 0)?;
                self.get_tail()
            }
            "GetAt" => self.get_at(args::int(method, a, 0)?),
            "SetAt" => {
                args::expect_arity(method, a, 2)?;
                self.set_at(args::int(method, a, 0)?, a[1].clone())?;
                Ok(Value::Null)
            }
            "RemoveAt" => self.remove_at(args::int(method, a, 0)?),
            "InsertAfter" => {
                args::expect_arity(method, a, 2)?;
                self.insert_after(args::int(method, a, 0)?, a[1].clone())?;
                Ok(Value::Null)
            }
            "Find" => {
                args::expect_arity(method, a, 1)?;
                Ok(Value::Int(self.find(&a[0])?))
            }
            "GetCount" => Ok(Value::Int(self.count)),
            "IsEmpty" => Ok(Value::Bool(self.count == 0)),
            "RemoveAll" => {
                self.remove_all();
                Ok(Value::Null)
            }
            "~CObList" => {
                self.remove_all();
                Ok(Value::Null)
            }
            _ => Err(unknown_method(self.class_name(), method)),
        }
    }
}

impl BuiltInTest for CObList {
    fn bit_control(&self) -> &BitControl {
        &self.ctl
    }

    fn invariant_test(&self) -> Result<(), AssertionViolation> {
        concat_bit::check(
            &self.ctl,
            concat_runtime::AssertionKind::Invariant,
            Self::CLASS,
            "",
            "chain(head, tail, count) is consistent",
            self.arena
                .chain_consistent(self.head, self.tail, self.count),
        )
    }

    fn reporter(&self) -> StateReport {
        let mut r = StateReport::new();
        for name in Self::OBSERVABLES {
            if let Some(value) = self.observe(name) {
                r.set(name, value);
            }
        }
        r
    }

    /// Reads the one named field: `m_nCount` without walking the chain.
    fn observe(&self, name: &str) -> Option<Value> {
        match name {
            "m_nCount" => Some(Value::Int(self.count)),
            "elements" => Some(match self.values() {
                Some(values) => Value::List(values),
                None => Value::Str("<corrupt chain>".into()),
            }),
            _ => None,
        }
    }
}

/// Factory for [`CObList`] instances sharing one [`MutationSwitch`].
#[derive(Debug, Clone, Default)]
pub struct CObListFactory {
    switch: MutationSwitch,
}

impl CObListFactory {
    /// Creates a factory wired to `switch`.
    pub fn new(switch: MutationSwitch) -> Self {
        CObListFactory { switch }
    }

    /// The shared mutation switch.
    pub fn switch(&self) -> &MutationSwitch {
        &self.switch
    }
}

impl ComponentFactory for CObListFactory {
    fn class_name(&self) -> &str {
        CObList::CLASS
    }

    fn construct(
        &self,
        constructor: &str,
        a: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        match constructor {
            "CObList" => match a.len() {
                0 => Ok(Box::new(CObList::new(ctl, self.switch.clone()))),
                1 => Ok(Box::new(CObList::with_block_size(
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
            other => Err(unknown_method(CObList::CLASS, other)),
        }
    }
}

impl ClonableFactory for CObListFactory {
    fn class_name(&self) -> &str {
        CObList::CLASS
    }

    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
        Box::new(CObListFactory::new(switch.clone()))
    }
}

/// The t-spec of `CObList`: interface description plus the transaction
/// flow model the driver generator covers.
pub fn coblist_spec() -> ClassSpec {
    let value = || Domain::int_range(-99, 99);
    let index = || Domain::int_range(0, 1);
    ClassSpecBuilder::new(CObList::CLASS)
        .source_file("coblist.cpp")
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
        .constructor("m1", "CObList")
        .constructor("m1b", "CObList")
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
        .destructor("m16", "~CObList")
        .birth_node("n1", ["m1", "m1b"])
        .task_node("n2", ["m2", "m3"])
        .task_node("n3", ["m2", "m3"])
        .task_node("n4", ["m6", "m7"])
        .task_node("n5", ["m8", "m11"])
        .task_node("n6", ["m9", "m10"])
        .task_node("n7", ["m4", "m5", "m12"])
        .task_node("n8", ["m13", "m14"])
        .task_node("n9", ["m15"])
        .death_node("n10", ["m16"])
        .edge("n1", "n2")
        .edge("n2", "n3")
        .edge("n3", "n4")
        .edge("n3", "n5")
        .edge("n4", "n5")
        .edge("n4", "n7")
        .edge("n5", "n6")
        .edge("n6", "n7")
        .edge("n6", "n8")
        .edge("n7", "n8")
        .edge("n7", "n9")
        .edge("n8", "n9")
        .edge("n8", "n10")
        .edge("n9", "n10")
        .build()
        .expect("CObList spec is valid")
}

/// The mutation inventory of `CObList`'s instrumented methods.
pub fn coblist_inventory() -> ClassInventory {
    ClassInventory::new(CObList::CLASS)
        .globals(["m_nCount", "m_pNodeHead", "m_pNodeTail", "m_nBlockSize"])
        .method(
            MethodInventory::new("AddHead")
                .locals(["pNewNode", "pOldHead"])
                .globals_used(["m_nCount", "m_pNodeHead", "m_pNodeTail"])
                .site(0, "pOldHead", "next link of the new node")
                .site(1, "pNewNode", "prev link of the old head")
                .site(2, "pNewNode", "tail update when list was empty")
                .site(3, "pNewNode", "head update"),
        )
        .method(
            MethodInventory::new("RemoveHead")
                .locals(["pOldHead", "pNext", "nNewCount"])
                .globals_used(["m_nCount", "m_pNodeHead", "m_pNodeTail"])
                .site(0, "pOldHead", "node to free")
                .site(1, "pNext", "new head")
                .site(2, "nNewCount", "count update"),
        )
        .method(
            MethodInventory::new("RemoveAt")
                .locals(["i", "pCur", "pPrev", "pNext"])
                .globals_used(["m_nCount", "m_pNodeHead", "m_pNodeTail"])
                .site(0, "i", "traversal loop comparison")
                .site(1, "pCur", "traversal step")
                .site(2, "pPrev", "prev side of unlink")
                .site(3, "pNext", "next side of unlink")
                .site(4, "pCur", "node to free"),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use concat_mutation::{FaultPlan, Replacement};

    fn list() -> CObList {
        CObList::new(BitControl::new_enabled(), MutationSwitch::new())
    }

    #[test]
    fn add_and_remove_head_tail() {
        let mut l = list();
        l.add_head(Value::Int(2)).unwrap();
        l.add_head(Value::Int(1)).unwrap();
        l.add_tail(Value::Int(3));
        assert_eq!(
            l.values().unwrap(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        assert_eq!(l.remove_head().unwrap(), Value::Int(1));
        assert_eq!(l.remove_tail().unwrap(), Value::Int(3));
        assert_eq!(l.count(), 1);
        assert!(l.invariant_test().is_ok());
    }

    #[test]
    fn get_set_insert_find() {
        let mut l = list();
        l.add_tail(Value::Int(10));
        l.add_tail(Value::Int(20));
        assert_eq!(l.get_at(1).unwrap(), Value::Int(20));
        l.set_at(0, Value::Int(11)).unwrap();
        assert_eq!(l.get_head().unwrap(), Value::Int(11));
        l.insert_after(0, Value::Int(15)).unwrap();
        assert_eq!(
            l.values().unwrap(),
            vec![Value::Int(11), Value::Int(15), Value::Int(20)]
        );
        assert_eq!(l.find(&Value::Int(15)).unwrap(), 1);
        assert_eq!(l.find(&Value::Int(999)).unwrap(), -1);
        assert_eq!(l.get_tail().unwrap(), Value::Int(20));
        assert!(l.invariant_test().is_ok());
    }

    #[test]
    fn remove_at_each_position() {
        for pos in 0..3 {
            let mut l = list();
            for v in [1, 2, 3] {
                l.add_tail(Value::Int(v));
            }
            let removed = l.remove_at(pos).unwrap();
            assert_eq!(removed, Value::Int(pos + 1));
            assert_eq!(l.count(), 2);
            assert!(l.invariant_test().is_ok(), "position {pos}");
        }
    }

    #[test]
    fn preconditions_guard_empty_and_bad_index() {
        let mut l = list();
        assert_eq!(l.remove_head().unwrap_err().tag(), "PRECONDITION");
        assert_eq!(l.get_head().unwrap_err().tag(), "PRECONDITION");
        assert_eq!(l.remove_at(0).unwrap_err().tag(), "PRECONDITION");
        l.add_tail(Value::Int(1));
        assert_eq!(l.get_at(5).unwrap_err().tag(), "PRECONDITION");
        assert_eq!(l.remove_at(-1).unwrap_err().tag(), "PRECONDITION");
    }

    #[test]
    fn preconditions_silent_without_bit() {
        // With BIT off (deployment mode) the guard does not fire; the
        // method then fails on the broken structure instead.
        let mut l = CObList::new(BitControl::new(), MutationSwitch::new());
        let err = l.remove_head().unwrap_err();
        assert_eq!(err.tag(), "DOMAIN");
    }

    #[test]
    fn remove_all_and_destructor_reset() {
        let mut l = list();
        l.add_tail(Value::Int(1));
        l.add_tail(Value::Int(2));
        l.remove_all();
        assert!(l.is_empty_list());
        assert!(l.invariant_test().is_ok());
        assert_eq!(l.invoke("IsEmpty", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn dispatch_covers_all_methods() {
        let mut l = list();
        for (m, a) in [
            ("AddHead", vec![Value::Int(1)]),
            ("AddTail", vec![Value::Int(2)]),
            ("GetHead", vec![]),
            ("GetTail", vec![]),
            ("GetAt", vec![Value::Int(0)]),
            ("SetAt", vec![Value::Int(0), Value::Int(9)]),
            ("InsertAfter", vec![Value::Int(0), Value::Int(5)]),
            ("Find", vec![Value::Int(5)]),
            ("GetCount", vec![]),
            ("IsEmpty", vec![]),
            ("RemoveAt", vec![Value::Int(0)]),
            ("RemoveHead", vec![]),
            ("RemoveTail", vec![]),
            ("RemoveAll", vec![]),
            ("~CObList", vec![]),
        ] {
            assert!(l.invoke(m, &a).is_ok(), "method {m}");
        }
        assert_eq!(l.invoke("Bogus", &[]).unwrap_err().tag(), "UNKNOWN_METHOD");
        assert!(l.has_method("AddHead"));
    }

    #[test]
    fn reporter_shows_elements_and_count() {
        let mut l = list();
        l.add_tail(Value::Int(7));
        let r = l.reporter();
        assert_eq!(r.get("m_nCount"), Some(&Value::Int(1)));
        assert_eq!(r.get("elements"), Some(&Value::List(vec![Value::Int(7)])));
    }

    #[test]
    fn fault_in_add_head_breaks_invariant() {
        let switch = MutationSwitch::new();
        let mut l = CObList::new(BitControl::new_enabled(), switch.clone());
        l.add_head(Value::Int(1)).unwrap();
        // Corrupt the head-update site: head ← pOldHead instead of pNewNode.
        switch.arm(FaultPlan {
            method: "AddHead".into(),
            site: 3,
            replacement: Replacement::Var("pOldHead".into()),
        });
        l.add_head(Value::Int(2)).unwrap();
        assert!(
            l.invariant_test().is_err(),
            "corrupted chain must violate the invariant"
        );
    }

    #[test]
    fn fault_in_remove_head_count_is_caught() {
        let switch = MutationSwitch::new();
        let mut l = CObList::new(BitControl::new_enabled(), switch.clone());
        l.add_tail(Value::Int(1));
        l.add_tail(Value::Int(2));
        switch.arm(FaultPlan {
            method: "RemoveHead".into(),
            site: 2,
            replacement: Replacement::Var("m_nCount".into()),
        });
        let _ = l.remove_head().unwrap();
        // count was set to the *old* count: invariant mismatch.
        assert!(l.invariant_test().is_err());
    }

    #[test]
    fn fault_in_remove_at_traversal_changes_output() {
        let switch = MutationSwitch::new();
        let mut l = CObList::new(BitControl::new_enabled(), switch.clone());
        for v in [1, 2, 3] {
            l.add_tail(Value::Int(v));
        }
        // Freeze the loop counter at MAXINT: comparison is immediately
        // true, so RemoveAt(1) removes element 0 instead.
        switch.arm(FaultPlan {
            method: "RemoveAt".into(),
            site: 0,
            replacement: Replacement::Const(concat_mutation::ReqConst::MaxInt),
        });
        assert_eq!(l.remove_at(1).unwrap(), Value::Int(1));
    }

    #[test]
    fn watchdog_stops_mutated_infinite_loops() {
        let switch = MutationSwitch::new();
        let mut l = CObList::new(BitControl::new_enabled(), switch.clone());
        for v in 0..10 {
            l.add_tail(Value::Int(v));
        }
        // Freeze the loop counter at 0 with a target index > 0: the loop
        // walks off the chain and errors (or the watchdog fires).
        switch.arm(FaultPlan {
            method: "RemoveAt".into(),
            site: 0,
            replacement: Replacement::Const(concat_mutation::ReqConst::Zero),
        });
        let err = l.remove_at(5).unwrap_err();
        assert_eq!(err.tag(), "DOMAIN");
    }

    #[test]
    fn spec_validates_and_covers_every_method() {
        let spec = coblist_spec();
        assert!(spec.validate().is_empty());
        assert_eq!(spec.methods.len(), 17);
        assert_eq!(spec.tfm.node_count(), 10);
    }

    #[test]
    fn inventory_validates() {
        assert!(coblist_inventory().validate().is_empty());
    }

    #[test]
    fn factory_constructs_and_rejects() {
        let f = CObListFactory::default();
        let c = f
            .construct("CObList", &[], BitControl::new_enabled())
            .unwrap();
        assert_eq!(c.class_name(), "CObList");
        assert!(f.construct("Nope", &[], BitControl::new_enabled()).is_err());
        assert!(f
            .construct("CObList", &[Value::Int(8)], BitControl::new_enabled())
            .is_ok());
        assert!(f
            .construct(
                "CObList",
                &[Value::Int(8), Value::Int(9)],
                BitControl::new_enabled()
            )
            .is_err());
        let _ = f.switch();
    }
}
