"""Repo-specific rule classes: DET, HOT, PKL, TEL, LAY.

Every rule code is stable (suppressions reference it) and carries a
fix-it in its message.  The rule families enforce the invariants the
golden-report differential harness, ``merge_shards()`` fan-in, and the
vectorized hot path rely on:

* **DET** — determinism: reports must be a pure function of (spec,
  seed, code).  No module-level RNG, no wall clock in accounting, no
  ``hash()`` of strings (``PYTHONHASHSEED``), no iteration order leaking
  out of sets.
* **HOT** — hot-path purity: modules opted in with ``# repro:
  hot-path`` must not regress to per-element Python loops over
  page/entry arrays (the pre-vectorization shape of the epoch path).
* **PKL** — sweep picklability: JobSpec-style hooks
  (``policy_factory`` / ``extractor`` / ``runner``) cross process and
  cache boundaries, so dotted paths must resolve to module-level
  callables and live values must not be lambdas or local defs.
* **TEL** — telemetry discipline: phase spans only as context
  managers, metric objects only through the registry, MigrationStats
  drained only by its owner (everyone else reads ``stats``).
* **LAY** — layering: the README's architecture map as import rules.
  The simulation packages never import the experiment harnesses built
  on them, and telemetry, which every layer uses, imports no other
  ``repro`` package.
"""

from __future__ import annotations

import ast
import importlib

from repro.analysis.engine import ModuleContext, qualified_name

__all__ = ["ALL_RULES", "all_codes", "build_rules"]


class Rule:
    """Base: rules hold the context and declare ``visit_<Node>`` hooks."""

    #: code -> one-line description (the ``--list-rules`` table)
    codes: dict[str, str] = {}

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx

    @classmethod
    def applies(cls, ctx: ModuleContext) -> bool:
        return True


def _in_tree(rel: str, *fragments: str) -> bool:
    return any(fragment in rel for fragment in fragments)


# ----------------------------------------------------------------------
# DET — determinism
# ----------------------------------------------------------------------
#: numpy.random attributes that are part of the seeded Generator API
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: consumers whose iteration order would leak set ordering outward
_SET_ORDER_SINKS = {"list", "tuple", "enumerate", "iter"}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class DeterminismRule(Rule):
    codes = {
        "DET001": "module-level / unseeded RNG call — use an explicitly seeded "
        "np.random.default_rng(seed) or random.Random(seed)",
        "DET002": "wall-clock or OS entropy in simulation/accounting code — time "
        "belongs to the telemetry layer only",
        "DET003": "builtin hash() — string hashes vary per process "
        "(PYTHONHASHSEED); use hashlib or a stable key",
        "DET004": "iteration over a set — ordering can escape into reports; "
        "use sorted(...) or an ordered container",
    }

    def visit_Call(self, node: ast.Call) -> None:
        ctx = self.ctx
        full = qualified_name(ctx, node.func)
        if full:
            self._check_rng(node, full)
            self._check_clock(node, full)
        if isinstance(node.func, ast.Name):
            if node.func.id == "hash":
                ctx.report(
                    node,
                    "DET003",
                    "builtin hash() is salted per process (PYTHONHASHSEED) for "
                    "str/bytes — use hashlib.sha256 or a stable tuple key",
                )
            if (
                node.func.id in _SET_ORDER_SINKS
                and node.args
                and _is_set_expr(node.args[0])
            ):
                ctx.report(
                    node,
                    "DET004",
                    f"{node.func.id}() over a set leaks nondeterministic ordering "
                    "— wrap in sorted(...) before it can reach a report",
                )

    def _check_rng(self, node: ast.Call, full: str) -> None:
        ctx = self.ctx
        seeded = bool(node.args or node.keywords)
        if full.startswith("numpy.random."):
            attr = full[len("numpy.random.") :]
            if attr in _NP_RANDOM_OK:
                if attr == "default_rng" and not seeded:
                    ctx.report(
                        node,
                        "DET001",
                        "np.random.default_rng() without a seed draws OS entropy "
                        "— pass an explicit seed",
                    )
            else:
                ctx.report(
                    node,
                    "DET001",
                    f"np.random.{attr}() uses the legacy global RNG — build a "
                    "seeded np.random.default_rng(seed) Generator instead",
                )
        elif full.startswith("random."):
            attr = full[len("random.") :]
            if attr == "Random":
                if not seeded:
                    ctx.report(
                        node,
                        "DET001",
                        "random.Random() without a seed is nondeterministic — "
                        "pass an explicit seed",
                    )
            elif "." not in attr:  # methods on instances are fine; module fns are not
                ctx.report(
                    node,
                    "DET001",
                    f"random.{attr}() uses the process-global RNG — use a seeded "
                    "random.Random(seed) instance",
                )

    def _check_clock(self, node: ast.Call, full: str) -> None:
        if full not in _WALL_CLOCK:
            return
        if _in_tree(self.ctx.rel, "repro/telemetry"):
            return  # the telemetry layer owns the wall clock
        self.ctx.report(
            node,
            "DET002",
            f"{full}() reads the wall clock / OS entropy — simulation and "
            "accounting must be pure; route timing through repro.telemetry spans",
        )

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self.ctx.report(
                node,
                "DET004",
                "for-loop over a set iterates in hash order — iterate "
                "sorted(...) so downstream results are reproducible",
            )


# ----------------------------------------------------------------------
# HOT — hot-path purity (gated on the `# repro: hot-path` pragma)
# ----------------------------------------------------------------------
_NP_ARRAY_PRODUCERS = {
    "numpy.nonzero",
    "numpy.flatnonzero",
    "numpy.where",
    "numpy.unique",
    "numpy.argsort",
    "numpy.argwhere",
    "numpy.arange",
}


def _is_len_like(node: ast.AST) -> bool:
    """``len(x)``, ``x.size`` or ``x.shape[i]`` — an array extent."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "len"
    if isinstance(node, ast.Attribute):
        return node.attr == "size"
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Attribute) and node.value.attr == "shape"
    return False


def _nearest_augassign(loop: ast.For) -> ast.AugAssign | None:
    """First augmented assignment attributed to *this* loop (nested
    loops claim their own bodies)."""
    todo: list[ast.AST] = list(loop.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            continue
        if isinstance(node, ast.AugAssign):
            return node
        todo.extend(ast.iter_child_nodes(node))
    return None


class HotPathRule(Rule):
    codes = {
        "HOT001": "index loop over array elements (range over len()/.size/.shape) "
        "in a hot-path module — vectorize with whole-array numpy ops",
        "HOT002": ".item() inside a loop in a hot-path module — gather once with "
        "fancy indexing instead of scalarizing per element",
        "HOT003": "list.append accumulation inside a loop in a hot-path module — "
        "preallocate or build with vectorized numpy ops",
        "HOT004": "python loop directly over a numpy index/value array in a "
        "hot-path module — keep the work in array space",
        "HOT005": "loop-carried elementwise reduction (augmented assignment in a "
        "range() loop) in a hot-path module — use a vectorized reduction",
    }

    @classmethod
    def applies(cls, ctx: ModuleContext) -> bool:
        return ctx.hot_path

    def visit_For(self, node: ast.For) -> None:
        ctx = self.ctx
        iter_ = node.iter
        if (
            isinstance(iter_, ast.Call)
            and isinstance(iter_.func, ast.Name)
            and iter_.func.id == "range"
        ):
            if any(_is_len_like(arg) for arg in iter_.args):
                ctx.report(
                    node,
                    "HOT001",
                    "per-element index loop (range over an array extent) — this "
                    "is the shape the vectorized epoch path replaced; operate on "
                    "whole arrays",
                )
            elif _nearest_augassign(node) is not None:
                ctx.report(
                    node,
                    "HOT005",
                    "range() loop accumulating with an augmented assignment — "
                    "the pre-vectorization reduction shape; replace with a "
                    "table gather / whole-array reduction",
                )
            return
        base = iter_.value if isinstance(iter_, ast.Subscript) else iter_
        if isinstance(base, ast.Call):
            full = qualified_name(ctx, base.func)
            if full in _NP_ARRAY_PRODUCERS:
                ctx.report(
                    node,
                    "HOT004",
                    f"looping over {full}() scalarizes an index array — use "
                    "vectorized scatter/gather on it instead",
                )

    def visit_Call(self, node: ast.Call) -> None:
        if not self.ctx.loop_stack or not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr == "item":
            self.ctx.report(
                node,
                "HOT002",
                ".item() in a loop forces one python-object round trip per "
                "element — hoist the gather out of the loop",
            )
        elif node.func.attr == "append":
            self.ctx.report(
                node,
                "HOT003",
                ".append() accumulation in a loop — preallocate the buffer or "
                "produce the array with a vectorized op",
            )


# ----------------------------------------------------------------------
# PKL — sweep hook picklability
# ----------------------------------------------------------------------
_HOOK_KWARGS = {"policy_factory", "extractor", "runner"}

#: dotted-path resolution results, cached process-wide
_RESOLVE_CACHE: dict[str, str | None] = {}


def _resolve_error(path: str) -> str | None:
    """None when ``module:attr`` names a module-level callable, else why not."""
    if path in _RESOLVE_CACHE:
        return _RESOLVE_CACHE[path]
    error: str | None
    module_name, sep, attr = path.partition(":")
    if (
        not sep
        or not attr.isidentifier()
        or not all(seg.isidentifier() for seg in module_name.split("."))
    ):
        error = "hook paths must look like 'package.module:function'"
    else:
        try:
            module = importlib.import_module(module_name)
        except Exception as exc:  # ImportError, or anything import-time
            error = f"module {module_name!r} does not import ({exc})"
        else:
            obj = getattr(module, attr, None)
            if obj is None:
                error = f"module {module_name!r} has no attribute {attr!r}"
            elif not callable(obj):
                error = f"resolves to a non-callable {type(obj).__name__}"
            else:
                qualname = getattr(obj, "__qualname__", attr)
                if "<locals>" in qualname or "<lambda>" in qualname:
                    error = f"resolves to {qualname!r}, which is not module-level"
                else:
                    error = None
    _RESOLVE_CACHE[path] = error
    return error


class PicklabilityRule(Rule):
    codes = {
        "PKL001": "JobSpec hook path does not resolve to a module-level callable "
        "— fix the 'module:function' reference",
        "PKL002": "lambda/local def passed as a JobSpec-style hook — hooks cross "
        "process and cache boundaries; use a module-level callable or "
        "functools.partial of one",
    }

    def visit_Call(self, node: ast.Call) -> None:
        ctx = self.ctx
        for kw in node.keywords:
            if kw.arg not in _HOOK_KWARGS:
                continue
            value = kw.value
            if isinstance(value, ast.Lambda):
                ctx.report(
                    value,
                    "PKL002",
                    f"{kw.arg}= takes a lambda — lambdas do not pickle; pass a "
                    "module-level callable or functools.partial of one",
                )
            elif isinstance(value, ast.Name) and any(
                value.id in names for names in ctx.func_local_defs
            ):
                ctx.report(
                    value,
                    "PKL002",
                    f"{kw.arg}= takes {value.id!r}, a function defined inside "
                    "the enclosing function — local defs do not pickle; move it "
                    "to module level",
                )
            elif isinstance(value, ast.Constant) and isinstance(value.value, str):
                error = _resolve_error(value.value)
                if error is not None:
                    ctx.report(
                        value,
                        "PKL001",
                        f"{kw.arg}={value.value!r}: {error}",
                    )


# ----------------------------------------------------------------------
# TEL — telemetry discipline
# ----------------------------------------------------------------------
_METRIC_CLASSES = {"Counter", "Gauge", "Histogram"}

#: the only modules allowed to drain MigrationStats (owner + definition)
_DRAIN_OWNERS = ("repro/memsim/engine.py", "repro/memsim/migration.py")


class TelemetryRule(Rule):
    codes = {
        "TEL001": "telemetry span used outside a with-statement — spans must be "
        "context managers so exclusive-time accounting nests correctly",
        "TEL002": "telemetry metric class constructed directly — go through "
        "MetricsRegistry.counter/gauge/histogram so parent forwarding works",
        "TEL003": "MigrationStats drained outside its owner — the engine drains "
        "once per epoch; read-only observers read MigrationEngine.stats",
    }

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        self._with_exprs: set[int] = set()

    @classmethod
    def applies(cls, ctx: ModuleContext) -> bool:
        # the telemetry package implements the machinery it would trip
        return not _in_tree(ctx.rel, "repro/telemetry")

    def _note_with(self, node) -> None:
        for item in node.items:
            self._with_exprs.add(id(item.context_expr))

    def visit_With(self, node: ast.With) -> None:
        self._note_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._note_with(node)

    def visit_Call(self, node: ast.Call) -> None:
        ctx = self.ctx
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "span" and id(node) not in self._with_exprs:
                ctx.report(
                    node,
                    "TEL001",
                    "span() must be the context expression of a with-statement "
                    "(`with tel.span(name):`) — a loose span skews exclusive-"
                    "time accounting",
                )
            elif func.attr == "drain_stats" and not self.ctx.rel.endswith(_DRAIN_OWNERS):
                ctx.report(
                    node,
                    "TEL003",
                    "drain_stats() resets the per-window counters and is owned "
                    "by the engine's end-of-epoch accounting — read .stats here",
                )
        full = qualified_name(ctx, func) or ""
        head = full.rsplit(".", 1)[-1]
        if head in _METRIC_CLASSES and (
            full.startswith("repro.telemetry") or self._imported_metric(func)
        ):
            ctx.report(
                node,
                "TEL002",
                f"{head}() constructed directly — registry-owned metrics "
                "(registry.counter/gauge/histogram) forward to parents and "
                "appear in snapshots; bare instances silently do not",
            )

    def _imported_metric(self, func: ast.AST) -> bool:
        if not isinstance(func, ast.Name):
            return False
        origin = self.ctx.from_imports.get(func.id, "")
        return origin.startswith("repro.telemetry")


# ----------------------------------------------------------------------
# LAY — layering
# ----------------------------------------------------------------------
#: packages below the experiment harnesses in the architecture map
_BELOW_EXPERIMENTS = ("memsim", "core", "policies", "profilers", "workloads", "multitenant")


def _package_path(rel: str) -> list[str]:
    """Dotted-name parts of the package a module path sits in, from
    ``repro`` down (``[]`` outside the ``repro`` tree)."""
    parts = rel.split("/")[:-1]
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return parts[i:]
    return []


class LayeringRule(Rule):
    codes = {
        "LAY001": "simulation package imports repro.experiments — memsim, core, "
        "policies, profilers, workloads and multitenant sit below the harnesses",
        "LAY002": "repro.telemetry imports another repro package — every layer "
        "uses telemetry, so it must depend on none of them",
    }

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        self._package = _package_path(ctx.rel)

    @classmethod
    def applies(cls, ctx: ModuleContext) -> bool:
        path = _package_path(ctx.rel)
        return len(path) > 1 and path[1] in (*_BELOW_EXPERIMENTS, "telemetry")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:
            base = self._package[: len(self._package) - node.level + 1]
            module = ".".join([*base, module] if module else base)
        for alias in node.names:
            self._check(node, f"{module}.{alias.name}")

    def _check(self, node: ast.AST, name: str) -> None:
        parts = name.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return
        if self._package[1] == "telemetry":
            if parts[1] != "telemetry":
                self.ctx.report(
                    node,
                    "LAY002",
                    f"telemetry imports {'.'.join(parts[:2])} — telemetry sits "
                    "below every other package; pass the value in instead",
                )
        elif parts[1] == "experiments":
            self.ctx.report(
                node,
                "LAY001",
                f"repro.{self._package[1]} imports repro.experiments — the "
                "harnesses build on the simulator, never the reverse; move "
                "the shared code down or take it as a parameter",
            )


ALL_RULES = [
    DeterminismRule,
    HotPathRule,
    PicklabilityRule,
    TelemetryRule,
    LayeringRule,
]


def build_rules(ctx: ModuleContext) -> list[Rule]:
    """Instantiate every rule that applies to this module."""
    return [cls(ctx) for cls in ALL_RULES if cls.applies(ctx)]


def all_codes() -> dict[str, str]:
    """The full code table (rules + engine codes), for ``--list-rules``."""
    from repro.analysis.engine import ENGINE_CODES

    out: dict[str, str] = dict(ENGINE_CODES)
    for cls in ALL_RULES:
        out.update(cls.codes)
    return dict(sorted(out.items()))
