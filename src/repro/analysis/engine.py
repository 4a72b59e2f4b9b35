"""Single-pass AST analysis engine: findings, pragmas, rule dispatch.

The engine parses each file once and walks its AST once, dispatching
every node to the rule handlers registered for that node type (rules
declare ``visit_<NodeType>`` methods, mirroring :class:`ast.NodeVisitor`
naming).  While walking it maintains the structural context rules need —
the enclosing loop stack, locally-defined function names per enclosing
function — so individual rules stay stateless about traversal.

Repo pragmas, written as comments:

* ``# repro: hot-path`` — opts the module into the HOT rule family
  (per-element Python loops over page/entry arrays are findings there).
* ``# repro: noqa CODE[, CODE...] — reason`` — suppresses those codes on
  that line.  The justification is mandatory: a bare ``noqa`` (or one
  without codes) does not suppress anything and is itself reported as
  ``SUP001``.  Suppressions that never fire are reported as ``SUP002``
  so stale pragmas cannot accumulate.
* ``# repro: noqa-file CODE[, CODE...] — reason`` — same, file-wide
  (e.g. a test module that intentionally drains MigrationStats).

Files that fail to parse produce a single ``SYN001`` finding.  When a
directory is scanned, ``fixtures`` directories (and caches, VCS dirs,
virtualenvs) are skipped — the analyzer's own test fixtures are
deliberate rule violations.  Explicit file arguments are always
analyzed, which is how the fixture tests exercise them.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "EXCLUDED_DIRS",
    "Finding",
    "ModuleContext",
    "analyze_file",
    "analyze_paths",
    "iter_python_files",
]

#: directory names never descended into when scanning a tree
EXCLUDED_DIRS = {
    "__pycache__",
    ".git",
    ".venv",
    ".pytest_cache",
    ".ruff_cache",
    "build",
    "dist",
    "node_modules",
    "fixtures",
}

#: engine-level finding codes (rules carry their own tables)
ENGINE_CODES = {
    "SYN001": "file does not parse; nothing else can be checked",
    "SUP001": "malformed suppression: 'repro: noqa' needs rule codes and a justification",
    "SUP002": "unused suppression: the named rule does not fire here",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation: where, what, and the offending source line
    (``content``, stripped)."""

    path: str
    line: int
    col: int
    code: str
    message: str
    content: str = ""

    def sort_key(self):
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


# ----------------------------------------------------------------------
# pragma parsing
# ----------------------------------------------------------------------
_PRAGMA_RE = re.compile(r"#\s*repro:\s*(?P<kind>noqa-file|noqa|hot-path)\b(?P<rest>.*)")
_CODES_RE = re.compile(r"^\s*:?\s*(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)(?P<tail>.*)$")
_REASON_RE = re.compile(r"^\s*(?:—|--|-|:)\s*\S")


def _iter_comments(source: str):
    """Yield ``(line, comment_text)`` via the tokenizer, so ``#`` inside
    string literals never parses as a pragma."""
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return  # the file will fail ast.parse too and get its SYN001


class ModuleContext:
    """Per-file state shared by the walker and every rule instance."""

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.hot_path = False
        #: line -> set of codes suppressed on that line
        self.line_noqa: dict[int, set[str]] = {}
        #: code -> pragma line (file-wide suppressions)
        self.file_noqa: dict[str, int] = {}
        #: every well-formed suppression, for unused-pragma detection
        self._declared: list[tuple[int, str]] = []
        self._used: set[tuple[int, str]] = set()
        self.findings: list[Finding] = []
        self.suppressed = 0
        # traversal context maintained by the walker
        self.loop_stack: list[ast.AST] = []
        self.func_local_defs: list[set[str]] = []
        # import maps populated by the engine's import tracking
        self.aliases: dict[str, str] = {}
        self.from_imports: dict[str, str] = {}
        self._scan_pragmas()

    # ------------------------------------------------------------------
    def _scan_pragmas(self) -> None:
        for line, comment in _iter_comments(self.source):
            m = _PRAGMA_RE.search(comment)
            if not m:
                continue
            kind = m.group("kind")
            if kind == "hot-path":
                self.hot_path = True
                continue
            cm = _CODES_RE.match(m.group("rest"))
            if not cm or not _REASON_RE.match(cm.group("tail")):
                self._raw_report(
                    line,
                    1,
                    "SUP001",
                    "suppressions must name rule codes and justify themselves: "
                    "'# repro: noqa CODE — reason'",
                )
                continue
            codes = {c.strip() for c in cm.group("codes").split(",")}
            for code in codes:
                self._declared.append((line, code))
                if kind == "noqa-file":
                    self.file_noqa.setdefault(code, line)
                else:
                    self.line_noqa.setdefault(line, set()).add(code)

    # ------------------------------------------------------------------
    def _raw_report(self, line: int, col: int, code: str, message: str) -> None:
        content = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        self.findings.append(Finding(self.rel, line, col, code, message, content))

    def report(self, node: ast.AST, code: str, message: str) -> None:
        """Record a finding unless a pragma suppresses it."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        if code in self.line_noqa.get(line, ()):
            self._used.add((line, code))
            self.suppressed += 1
            return
        if code in self.file_noqa:
            self._used.add((self.file_noqa[code], code))
            self.suppressed += 1
            return
        self._raw_report(line, col, code, message)

    def finish(self) -> None:
        """Flag suppressions that never fired (stale pragmas)."""
        for line, code in self._declared:
            if (line, code) not in self._used:
                self._raw_report(
                    line,
                    1,
                    "SUP002",
                    f"unused suppression: {code} does not fire on this "
                    "line — remove the pragma or fix the code it describes",
                )


# ----------------------------------------------------------------------
# import tracking (shared context every rule can read)
# ----------------------------------------------------------------------
class _ImportTracker:
    """Populates ``ctx.aliases`` / ``ctx.from_imports`` during the walk."""

    codes: dict[str, str] = {}

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.ctx.aliases[alias.asname or alias.name.partition(".")[0]] = (
                alias.name if alias.asname else alias.name.partition(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or not node.module:
            return  # relative imports cannot be qualified reliably
        for alias in node.names:
            self.ctx.from_imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def qualified_name(ctx: ModuleContext, node: ast.AST) -> str | None:
    """The dotted name with its head resolved through the file's imports
    (``np.random.seed`` -> ``numpy.random.seed``)."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head in ctx.aliases:
        base = ctx.aliases[head]
    elif head in ctx.from_imports:
        base = ctx.from_imports[head]
    else:
        return dotted
    return f"{base}.{rest}" if rest else base


# ----------------------------------------------------------------------
# the single-pass walker
# ----------------------------------------------------------------------
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_def_names(func: ast.AST) -> set[str]:
    """Names of functions defined (at any depth) inside ``func``."""
    names: set[str] = set()
    for sub in ast.walk(func):
        if sub is not func and isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(sub.name)
    return names


class _Walker:
    """One traversal, dispatching each node to every interested rule."""

    def __init__(self, rules, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.handlers: dict[str, list] = {}
        for rule in rules:
            for attr in dir(rule):
                if attr.startswith("visit_"):
                    self.handlers.setdefault(attr[len("visit_") :], []).append(
                        getattr(rule, attr)
                    )

    def walk(self, node: ast.AST) -> None:
        for handler in self.handlers.get(type(node).__name__, ()):
            handler(node)
        is_loop = isinstance(node, _LOOP_NODES)
        is_func = isinstance(node, _FUNC_NODES)
        ctx = self.ctx
        if is_loop:
            ctx.loop_stack.append(node)
        if is_func:
            ctx.func_local_defs.append(_local_def_names(node))
        for child in ast.iter_child_nodes(node):
            self.walk(child)
        if is_loop:
            ctx.loop_stack.pop()
        if is_func:
            ctx.func_local_defs.pop()


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def iter_python_files(paths) -> list[Path]:
    """Expand files/directories into the sorted list of files to check.

    Directories are walked recursively with :data:`EXCLUDED_DIRS`
    pruned; paths given explicitly are always included.
    """
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not (set(p.parts) & EXCLUDED_DIRS)
            )
        else:
            candidates = [path]
        for p in candidates:
            key = p.resolve()
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


def _relative_label(path: Path) -> str:
    """Posix path relative to cwd when possible (stable finding paths)."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def analyze_file(path: Path, rel: str | None = None) -> ModuleContext:
    """Run every rule over one file; the returned context holds findings."""
    from repro.analysis.rules import build_rules

    rel = rel if rel is not None else _relative_label(path)
    source = path.read_text(encoding="utf-8")
    ctx = ModuleContext(path, rel, source)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        ctx._raw_report(exc.lineno or 1, 1, "SYN001", f"syntax error: {exc.msg}")
        return ctx
    rules = [_ImportTracker(ctx), *build_rules(ctx)]
    _Walker(rules, ctx).walk(tree)
    ctx.finish()
    return ctx


@dataclass
class AnalysisResult:
    """Everything one analyzer invocation learned."""

    findings: list[Finding]
    files_scanned: int
    suppressed: int

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.code] = out.get(finding.code, 0) + 1
        return dict(sorted(out.items()))


def analyze_paths(paths) -> AnalysisResult:
    """Analyze every python file under ``paths`` (files or directories)."""
    findings: list[Finding] = []
    suppressed = 0
    files = iter_python_files(paths)
    for path in files:
        ctx = analyze_file(path)
        findings.extend(ctx.findings)
        suppressed += ctx.suppressed
    findings.sort(key=Finding.sort_key)
    return AnalysisResult(findings, len(files), suppressed)
