"""RC001–RC008: the serving stack's static invariants as AST rules.

RC001–RC007 encode concurrency incidents; RC008 keeps the public
serving surface documented (the operator handbook links into it).

Each rule is a small class with ``rule_id``, ``title``, ``applies_to``
(path scoping, so e.g. the async-blocking rule only runs on the
gateway), and ``check(module) -> list[Finding]``.  The rules share a
vocabulary tuned to this repo's conventions:

* a *lock-held context* is the body of ``with <something named
  ...lock/...mutex>:`` — **or** the body of any function whose name
  ends in ``_locked``, the pool's convention for "caller holds
  ``self._lock``";
* *blocking* means pipe/socket receives, ``submit``/``submit_urgent``
  dispatch, thread/process joins (unless ``timeout=0``), ``subprocess``,
  ``time.sleep``, disk IO (``open``/``rmtree``/``export_flat``), and
  bare ``.acquire()``/``.result()``;
* RC002/RC003 additionally propagate through same-module helpers: a
  ``with self._lock:`` body that calls ``self._delete_bundle(...)`` is
  flagged if ``_delete_bundle`` itself hits the disk, with the chain in
  the message.  Suppressing the root site (the actual blocking line)
  clears the whole chain — one ``ignore`` comment, not one per caller.

See ``docs/concurrency-invariants.md`` for the incident behind each
rule, and ``tests/analysis/test_rules.py`` for a must-flag / near-miss
fixture pair per rule.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.checks import Finding, ModuleSource

_LOCK_NAME_RE = re.compile(r"(?:^|_)(?:lock|mutex)s?$", re.IGNORECASE)


# ----------------------------------------------------------------------
# Shared AST vocabulary
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str:
    """'time.sleep' for ``time.sleep(...)``, 'self._lock.acquire' for
    ``self._lock.acquire()``; '' for anything not a plain name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("<expr>")
    return ".".join(reversed(parts))


def final_attr(name: str) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


def is_lockish_expr(node: ast.AST) -> bool:
    """Does this ``with``-item expression look like a lock?  Matches
    ``self._lock``, ``self._arena_lock``, ``lock``, ``threading.Lock()``."""
    if isinstance(node, ast.Call):
        called = final_attr(dotted_name(node.func))
        return called in {"Lock", "RLock"}
    name = dotted_name(node)
    return bool(name) and bool(_LOCK_NAME_RE.search(final_attr(name)))


def lock_with_items(node: ast.With) -> list[str]:
    """Names of the lock-ish items of a ``with``, empty if none."""
    names = []
    for item in node.items:
        if is_lockish_expr(item.context_expr):
            names.append(dotted_name(item.context_expr) or "<lock>")
    return names


def iter_calls(body: list[ast.stmt]):
    """Every Call in ``body``, skipping nested function/class bodies
    (they define code, they don't run it here) but yielding their
    decorators and defaults.  Yields (call, awaited) pairs."""
    awaited: set[int] = set()

    def walk(node: ast.AST):
        if isinstance(node, ast.Await):
            value = node.value
            if isinstance(value, ast.Call):
                awaited.add(id(value))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for deco in getattr(node, "decorator_list", []):
                yield from _walk_expr(deco)
            return
        if isinstance(node, ast.Call):
            yield node
        for child in ast.iter_child_nodes(node):
            yield from walk(child)

    def _walk_expr(node: ast.AST):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                yield sub

    for stmt in body:
        for call in walk(stmt):
            yield call, id(call) in awaited


def _const_zero(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0


def _kwarg(call: ast.Call, name: str) -> ast.AST | None:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


#: Receivers whose ``.join()`` means "wait for a thread/process", as
#: opposed to ``", ".join(...)`` which is string formatting.
_JOINABLE_RE = re.compile(
    r"(thread|proc|process|worker|supervisor|pool|task)", re.IGNORECASE
)

#: Dotted prefixes that always mean "leaves the process / hits a device".
_BLOCKING_PREFIXES = ("subprocess.", "socket.", "shutil.")
_BLOCKING_EXACT = {
    "time.sleep",
    "os.system",
    "os.popen",
    "open",
    "rmtree",
    "export_flat",
    "connection_wait",  # multiprocessing.connection.wait alias
}
#: Final attributes that block regardless of receiver.
_BLOCKING_ATTRS = {
    "recv",
    "recv_bytes",
    "submit",
    "submit_urgent",
    "rmtree",
    "export_flat",
}


def blocking_reason(call: ast.Call) -> str | None:
    """Why this call blocks (human-readable), or None if it doesn't."""
    name = dotted_name(call.func)
    attr = final_attr(name)
    if name in _BLOCKING_EXACT or attr in _BLOCKING_EXACT:
        return f"`{name or attr}` blocks"
    if any(name.startswith(prefix) for prefix in _BLOCKING_PREFIXES):
        return f"`{name}` blocks"
    if attr in _BLOCKING_ATTRS:
        return f"`{name}` blocks (pipe/dispatch boundary)"
    if attr == "join":
        receiver = name[: -len(".join")] if name.endswith(".join") else ""
        if not _JOINABLE_RE.search(final_attr(receiver) or receiver):
            return None  # str.join and friends
        timeout = _kwarg(call, "timeout")
        if timeout is None and call.args:
            timeout = call.args[0]
        if timeout is not None and _const_zero(timeout):
            return None  # join(timeout=0) is a non-blocking poll
        return f"`{name}` waits on a thread/process"
    if attr == "acquire":
        blocking = _kwarg(call, "blocking")
        if blocking is not None and isinstance(blocking, ast.Constant):
            if blocking.value is False:
                return None
        if call.args and isinstance(call.args[0], ast.Constant):
            if call.args[0].value is False:
                return None
        return f"`{name}` can block on another lock"
    if attr == "result" and _kwarg(call, "timeout") is None and not call.args:
        return f"`{name}` waits on a future"
    return None


def _functions(tree: ast.AST) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    """Module + method functions keyed by bare name (last wins on
    collision — good enough for intra-module propagation)."""
    table: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table[node.name] = node
    return table


def _callee_local_name(call: ast.Call) -> str | None:
    """'_delete_bundle' for ``self._delete_bundle(...)`` or
    ``_delete_bundle(...)`` — a callee that may resolve in-module."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in {"self", "cls"}:
            return func.attr
    return None


class _Propagation:
    """Fixpoint 'this function (transitively) does X' map for one module.

    ``roots(fn)`` yields (call, reason) for direct hits; suppressed root
    lines (checked via ``module.is_suppressed``) don't count, so one
    inline ``ignore`` at the true site silences every caller.
    """

    def __init__(self, module: ModuleSource, rule_id: str, direct):
        self.module = module
        self.rule_id = rule_id
        self.direct = direct  # Call -> reason | None
        self.table = _functions(module.tree)
        self.reasons: dict[str, str] = {}
        self._solve()

    def _direct_reason(self, fn) -> str | None:
        for call, _awaited in iter_calls(fn.body):
            reason = self.direct(call)
            if reason and not self.module.is_suppressed(
                self.rule_id, getattr(call, "lineno", 0)
            ):
                return reason
        return None

    def _solve(self) -> None:
        for name, fn in self.table.items():
            reason = self._direct_reason(fn)
            if reason:
                self.reasons[name] = reason
        changed = True
        while changed:
            changed = False
            for name, fn in self.table.items():
                if name in self.reasons:
                    continue
                for call, _awaited in iter_calls(fn.body):
                    callee = _callee_local_name(call)
                    if callee and callee in self.reasons and callee != name:
                        self.reasons[name] = (
                            f"calls `{callee}`, which {self.reasons[callee]}"
                        )
                        changed = True
                        break

    def call_reason(self, call: ast.Call) -> str | None:
        """Reason for this call site: direct, or via an in-module callee."""
        reason = self.direct(call)
        if reason:
            return reason
        callee = _callee_local_name(call)
        if callee and callee in self.reasons:
            return f"`{callee}` {self.reasons[callee]}"
        return None


def _locked_contexts(module: ModuleSource):
    """Every lock-held region in the module: (label, body, header_node).

    Yields ``with <lock>:`` bodies and whole ``*_locked`` function bodies
    (the pool's caller-holds-the-lock convention).
    """
    for node in ast.walk(module.tree):
        if isinstance(node, ast.With):
            locks = lock_with_items(node)
            if locks:
                yield f"with {locks[0]}:", node.body, node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.endswith("_locked"):
                yield (
                    f"`{node.name}` (runs with the pool lock held "
                    "by naming convention)",
                    node.body,
                    node,
                )


# ----------------------------------------------------------------------
# RC001 — blocking call inside async def (gateway event loop)
# ----------------------------------------------------------------------
class BlockingInAsyncRule:
    rule_id = "RC001"
    title = "blocking call inside `async def` (gateway event loop stall)"

    def applies_to(self, rel: str) -> bool:
        return (
            "serving/gateway" in rel
            or "/gateway/" in rel
            or "serving/cluster" in rel
            or "/cluster/" in rel
        )

    def check(self, module: ModuleSource) -> list[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for call, awaited in iter_calls(node.body):
                if awaited:
                    continue
                reason = blocking_reason(call)
                if reason is None:
                    continue
                findings.append(
                    module.finding(
                        self.rule_id,
                        call,
                        f"{reason} inside `async def {node.name}` — it stalls "
                        "the event loop for every connected client; use the "
                        "asyncio equivalent or run_in_executor",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RC002 — lock held across a blocking / dispatch boundary
# ----------------------------------------------------------------------
class LockAcrossBlockingRule:
    rule_id = "RC002"
    title = "lock held across a blocking/dispatch boundary"

    def applies_to(self, rel: str) -> bool:
        return True

    def check(self, module: ModuleSource) -> list[Finding]:
        propagation = _Propagation(module, self.rule_id, blocking_reason)
        findings = []
        seen: set[int] = set()  # a with-block nested in a _locked fn: flag once
        for label, body, _header in _locked_contexts(module):
            for call, _awaited in iter_calls(body):
                reason = propagation.call_reason(call)
                if reason is None or id(call) in seen:
                    continue
                seen.add(id(call))
                findings.append(
                    module.finding(
                        self.rule_id,
                        call,
                        f"{reason} while a lock is held ({label}) — every "
                        "other thread contending on that lock stalls behind "
                        "this IO; collect work under the lock, perform it "
                        "after release",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RC003 — user-supplied callback invoked under a lock
# ----------------------------------------------------------------------
_CALLBACK_NAMES = {
    "callback",
    "_callback",
    "on_error",
    "on_change",
    "on_event",
    "on_done",
    "on_complete",
    "on_batch_complete",
    "error_callback",
}


def _callback_reason(call: ast.Call) -> str | None:
    attr = final_attr(dotted_name(call.func))
    if attr in _CALLBACK_NAMES:
        return f"invokes user callback `{dotted_name(call.func)}`"
    return None


class CallbackUnderLockRule:
    rule_id = "RC003"
    title = "user-supplied callback invoked while holding a lock"

    def applies_to(self, rel: str) -> bool:
        return True

    def check(self, module: ModuleSource) -> list[Finding]:
        propagation = _Propagation(module, self.rule_id, _callback_reason)
        findings = []
        seen: set[int] = set()
        for label, body, _header in _locked_contexts(module):
            for call, _awaited in iter_calls(body):
                reason = propagation.call_reason(call)
                if reason is None or id(call) in seen:
                    continue
                seen.add(id(call))
                findings.append(
                    module.finding(
                        self.rule_id,
                        call,
                        f"{reason} while a lock is held ({label}) — user code "
                        "can run arbitrarily long or re-enter the API and "
                        "deadlock; snapshot under the lock, call after release",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RC004 — wall clock in latency paths
# ----------------------------------------------------------------------
_WALL_CLOCKS = {
    "time.time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}


class WallClockRule:
    rule_id = "RC004"
    title = "wall clock (`time.time`/`datetime.now`) in a latency path"

    def applies_to(self, rel: str) -> bool:
        return "serving/" in rel

    def check(self, module: ModuleSource) -> list[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _WALL_CLOCKS:
                findings.append(
                    module.finding(
                        self.rule_id,
                        node,
                        f"`{name}` is wall clock — NTP steps and DST make "
                        "latency math go negative or jump; use "
                        "`time.monotonic()` / `time.perf_counter()` for "
                        "durations (PR 6's wall_window incident)",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RC005 — pickling / mutating arena-backed models in backend code
# ----------------------------------------------------------------------
_ARENA_LOADERS = {"load_system_flat", "load_flat_mmap", "attach_arena"}


class ArenaAbuseRule:
    rule_id = "RC005"
    title = "pickling or mutating an mmap-arena-backed model in backend code"

    def applies_to(self, rel: str) -> bool:
        return "serving/backends" in rel or "worker" in rel.rsplit("/", 1)[-1]

    def check(self, module: ModuleSource) -> list[Finding]:
        findings = []
        for fn in _functions(module.tree).values():
            arena_vars = self._arena_bindings(fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    findings.extend(self._check_call(module, node, arena_vars))
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    findings.extend(self._check_store(module, node, arena_vars))
        return findings

    @staticmethod
    def _arena_bindings(fn: ast.AST) -> set[str]:
        """Local names bound from an arena loader: ``system =
        load_system_flat(...)``."""
        bound: set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            if final_attr(dotted_name(node.value.func)) not in _ARENA_LOADERS:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        return bound

    def _check_call(self, module, call: ast.Call, arena_vars: set[str]):
        name = dotted_name(call.func)
        attr = final_attr(name)
        uses_arena = any(
            isinstance(arg, ast.Name) and arg.id in arena_vars
            for arg in list(call.args) + [kw.value for kw in call.keywords]
        )
        if name.startswith(("pickle.", "cPickle.", "marshal.")) and attr in {
            "dumps",
            "dump",
        }:
            if uses_arena or not arena_vars:
                # pickling anything in backend code is suspect; pickling a
                # known arena binding is the smoking gun.
                yield module.finding(
                    self.rule_id,
                    call,
                    f"`{name}` serializes full weight tensors — arena-backed "
                    "models must travel as (bundle path, key), never by "
                    "value; the mmap is the transport",
                )
        elif attr in {"send", "put"} and uses_arena:
            yield module.finding(
                self.rule_id,
                call,
                f"`{name}` ships an arena-backed model across a "
                "pipe/queue, which pickles every weight tensor by value — "
                "send the (bundle path, key) and re-attach via mmap",
            )

    def _check_store(self, module, node, arena_vars: set[str]):
        target = node.targets[0] if isinstance(node, ast.Assign) else node.target
        base = target
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            base = base.value
        if isinstance(base, ast.Name) and base.id in arena_vars and base is not target:
            yield module.finding(
                self.rule_id,
                node,
                f"writes through arena binding `{base.id}` — arena pages are "
                "mapped copy-on-write-shared across workers; in-place "
                "mutation silently forks pages (memory blowup) or corrupts "
                "shared state",
            )


# ----------------------------------------------------------------------
# RC006 — thread hygiene: implicit daemon, swallowed supervisor errors
# ----------------------------------------------------------------------
class ThreadHygieneRule:
    rule_id = "RC006"
    title = "Thread without explicit daemon=, bare/swallowed except in loops"

    def applies_to(self, rel: str) -> bool:
        return True

    def check(self, module: ModuleSource) -> list[Finding]:
        findings = []
        loop_handlers = self._handlers_in_loops(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if final_attr(name) == "Thread" and name in {
                    "Thread",
                    "threading.Thread",
                }:
                    if _kwarg(node, "daemon") is None:
                        findings.append(
                            module.finding(
                                self.rule_id,
                                node,
                                "`Thread(...)` without explicit `daemon=` — "
                                "an implicit non-daemon thread turns every "
                                "unjoined exit path into a hang; state the "
                                "lifetime intent",
                            )
                        )
            elif isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    findings.append(
                        module.finding(
                            self.rule_id,
                            node,
                            "bare `except:` — catches SystemExit/"
                            "KeyboardInterrupt and masks worker death; catch "
                            "`Exception` (at most) and record what happened",
                        )
                    )
                elif id(node) in loop_handlers and self._swallows(node):
                    findings.append(
                        module.finding(
                            self.rule_id,
                            node,
                            "exception swallowed (`except ...: pass`) inside "
                            "a loop — a supervisor that eats its own errors "
                            "spins dead; log, count, or re-raise",
                        )
                    )
        return findings

    @staticmethod
    def _handlers_in_loops(tree: ast.AST) -> set[int]:
        """ids of ExceptHandlers lexically inside a while/for loop."""
        inside: set[int] = set()

        def walk(node: ast.AST, in_loop: bool):
            if isinstance(node, (ast.While, ast.For, ast.AsyncFor)):
                in_loop = True
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_loop = False  # nested def: new execution context
            if isinstance(node, ast.ExceptHandler) and in_loop:
                inside.add(id(node))
            for child in ast.iter_child_nodes(node):
                walk(child, in_loop)

        walk(tree, False)
        return inside

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        caught = dotted_name(handler.type) if handler.type is not None else ""
        if final_attr(caught) not in {"Exception", "BaseException"}:
            return False
        body = handler.body
        return len(body) == 1 and isinstance(body[0], (ast.Pass, ast.Continue))


# ----------------------------------------------------------------------
# RC007 — ad-hoc telemetry: bare print(), unbounded list-append stats,
#         metric increments outside the exporter
# ----------------------------------------------------------------------
_DRAIN_ATTRS = {"clear", "pop", "popleft", "remove"}


class TelemetryRule:
    """Serving code must not improvise its own telemetry.

    Three shapes get flagged:

    * a bare ``print(...)`` — invisible to scrapers, unbounded on a hot
      path, and interleaved garbage under concurrency; use a metric or a
      trace record;
    * an append-only stats list: ``self.xs = []`` in ``__init__`` plus
      ``self.xs.append(...)`` with **no** drain anywhere in the class
      (no ``clear``/``pop``/``remove``, no ``del``, no reassignment, no
      slicing) — a long-lived server grows it forever.  Bounded
      structures (``deque(maxlen=...)``) and lists the class actually
      drains are fine;
    * an ``.inc(...)`` call outside ``serving/observability/`` — a
      counter incremented next to a stats field counts every event
      twice, and the two copies drift.  Counts live in the component's
      stats dataclass; the exporter publishes them (gauges use
      ``.set``).
    """

    rule_id = "RC007"
    title = "ad-hoc telemetry: bare print() / unbounded list-append stats / metric .inc()"

    def applies_to(self, rel: str) -> bool:
        return "serving/" in rel

    def check(self, module: ModuleSource) -> list[Finding]:
        findings = []
        exporter_home = "serving/observability/" in module.rel
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "inc"
                and not exporter_home
            ):
                findings.append(
                    module.finding(
                        self.rule_id,
                        node,
                        "metric `.inc()` in serving code — a counter bumped "
                        "beside a stats field counts the event twice; count "
                        "in the stats object; the exporter publishes it",
                    )
                )
            elif isinstance(node, ast.Call) and dotted_name(node.func) == "print":
                findings.append(
                    module.finding(
                        self.rule_id,
                        node,
                        "bare `print()` in serving code — stdout telemetry "
                        "is invisible to scrapers and interleaves under "
                        "concurrency; record a metric "
                        "(`repro.serving.observability.metrics`) or a trace "
                        "instead",
                    )
                )
            elif isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    def _check_class(self, module: ModuleSource, cls: ast.ClassDef):
        grown = self._init_list_attrs(cls)
        if not grown:
            return
        unbounded = grown - self._drained_attrs(cls)
        if not unbounded:
            return
        for fn in self._methods(cls):
            for call, _awaited in iter_calls(fn.body):
                attr = self._self_attr_method(call, {"append", "extend"})
                if attr in unbounded:
                    yield module.finding(
                        self.rule_id,
                        call,
                        f"`self.{attr}.append(...)` grows a list that is "
                        "never drained, cleared, or bounded anywhere in "
                        f"`{cls.name}` — a long-lived server leaks one entry "
                        "per event; use a bounded deque(maxlen=...), a "
                        "counter/histogram, or drain it",
                    )

    @staticmethod
    def _methods(cls: ast.ClassDef):
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield stmt

    @staticmethod
    def _self_attr_name(node: ast.AST) -> str | None:
        """'xs' for a ``self.xs`` expression, else None."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _self_attr_method(self, call: ast.Call, methods: set[str]) -> str | None:
        """'xs' for ``self.xs.append(...)`` when append is in ``methods``."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in methods:
            return self._self_attr_name(func.value)
        return None

    def _init_list_attrs(self, cls: ast.ClassDef) -> set[str]:
        """Attrs assigned a list literal/``list()`` in ``__init__``."""
        attrs: set[str] = set()
        for fn in self._methods(cls):
            if fn.name != "__init__":
                continue
            for node in ast.walk(fn):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                value = node.value
                is_list = isinstance(value, (ast.List, ast.ListComp)) or (
                    isinstance(value, ast.Call)
                    and dotted_name(value.func) == "list"
                )
                if not is_list:
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    name = self._self_attr_name(target)
                    if name is not None:
                        attrs.add(name)
        return attrs

    def _drained_attrs(self, cls: ast.ClassDef) -> set[str]:
        """Attrs the class bounds somewhere: drained, deleted, resliced,
        or reassigned outside ``__init__``."""
        drained: set[str] = set()
        for fn in self._methods(cls):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = self._self_attr_method(node, _DRAIN_ATTRS)
                    if name is not None:
                        drained.add(name)
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        base = target
                        if isinstance(base, ast.Subscript):
                            base = base.value
                        name = self._self_attr_name(base)
                        if name is not None:
                            drained.add(name)
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    if fn.name == "__init__" and not isinstance(node, ast.AugAssign):
                        continue
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        base = target
                        if isinstance(base, ast.Subscript):
                            base = base.value  # self.xs[...] = — a trim
                        name = self._self_attr_name(base)
                        if name is not None:
                            drained.add(name)
        return drained


# ----------------------------------------------------------------------
# RC008 — undocumented public serving surface
# ----------------------------------------------------------------------
class PublicDocstringRule:
    """The public serving surface is operator-facing API.

    Anything an operator or integrator can reach by name — module-level
    public functions and classes under ``serving/gateway/`` and
    ``serving/cluster/``, and the public methods of those public
    classes — must carry a docstring.  The handbook (``docs/index.md``)
    links into this surface; an undocumented def there is a dead end in
    the middle of a runbook.

    Underscore-prefixed names (including dunders: ``__init__`` params
    are documented in the class docstring, numpy style) and nested
    defs are private by convention and exempt.
    """

    rule_id = "RC008"
    title = "public serving def/class without a docstring"

    def applies_to(self, rel: str) -> bool:
        return "serving/gateway/" in rel or "serving/cluster/" in rel

    def check(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for node in module.tree.body:
            findings.extend(self._check_def(module, node, owner=None))
        return findings

    @staticmethod
    def _is_public(name: str) -> bool:
        return not name.startswith("_")

    def _check_def(self, module: ModuleSource, node: ast.stmt, owner: str | None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if self._is_public(node.name) and ast.get_docstring(node) is None:
                label = (
                    f"method `{owner}.{node.name}`"
                    if owner
                    else f"function `{node.name}`"
                )
                yield module.finding(
                    self.rule_id,
                    node,
                    f"public {label} has no docstring — the serving "
                    "surface is operator-facing API; say what it does, "
                    "what it returns, and how it fails (the handbook in "
                    "docs/ links straight into these defs)",
                )
        elif isinstance(node, ast.ClassDef) and self._is_public(node.name):
            if ast.get_docstring(node) is None:
                yield module.finding(
                    self.rule_id,
                    node,
                    f"public class `{node.name}` has no docstring — "
                    "document its role and (numpy style) its constructor "
                    "parameters",
                )
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_def(module, stmt, owner=node.name)


ALL_RULES = [
    BlockingInAsyncRule(),
    LockAcrossBlockingRule(),
    CallbackUnderLockRule(),
    WallClockRule(),
    ArenaAbuseRule(),
    ThreadHygieneRule(),
    TelemetryRule(),
    PublicDocstringRule(),
]

RULES_BY_ID = {rule.rule_id: rule for rule in ALL_RULES}


def _finding_sort_key(finding: Finding):
    return (finding.path, finding.line, finding.rule)
