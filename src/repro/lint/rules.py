"""The repo-specific rules (RPL001–RPL011; RPL005 is retired).

Each rule carries a one-line rationale and a pointer to the invariant
it guards (the "Enforced invariants" section of ``serve/README.md``
maps codes to the PRs that introduced them).  Rules operate on a
:class:`ModuleIndex` — every module under ``src/repro`` parsed once —
so cross-module rules (call-graph reachability, import cycles, the
``__all__`` contract) see the whole package.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.callgraph import CallGraph
from repro.lint.findings import Finding

# Modules whose per-token cost defines serving latency.  RPL001/002/003
# apply here: no wall clocks, no allocation-shaped numpy, __slots__.
HOT_PATH_MODULES = (
    "repro.serve.engine",
    "repro.llm.attention",
    "repro.llm.transformer",
)
HOT_PATH_PREFIXES = ("repro.serve.kvpool",)

STATS_GLOBALS = frozenset({"HOT_PATH_STATS", "ATTENTION_STATS"})
STATS_HOME = "repro.llm.attention"

ALLOC_NP_CALLS = frozenset({"concatenate", "append", "vstack", "hstack"})
NUMPY_ALIASES = frozenset({"np", "numpy"})
MATMUL_CALLS = frozenset({"matmul", "dot", "einsum"})


def is_hot_module(name: str) -> bool:
    return name in HOT_PATH_MODULES or name.startswith(HOT_PATH_PREFIXES)


@dataclass(slots=True)
class Module:
    """One parsed source file."""

    name: str  # dotted module name, e.g. "repro.serve.engine"
    path: str  # posix path recorded in findings, e.g. "src/repro/serve/engine.py"
    tree: ast.Module
    lines: list[str]


@dataclass(slots=True)
class ModuleIndex:
    modules: list[Module]
    slots_allowlist: dict[str, str] = field(default_factory=dict)

    def get(self, name: str) -> Module | None:
        for module in self.modules:
            if module.name == name:
                return module
        return None


def parse_slots_allowlist(path: Path) -> dict[str, str]:
    """``module:Class  # reason`` lines -> {"module:Class": "reason"}."""
    allowlist: dict[str, str] = {}
    if not path.exists():
        return allowlist
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entry, _, reason = line.partition("#")
        entry = entry.strip()
        if entry:
            allowlist[entry] = reason.strip()
    return allowlist


class _QualnameVisitor:
    """Iterate (node, enclosing-qualname) pairs for a module tree."""

    @staticmethod
    def walk(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
        stack: list[tuple[ast.AST, str]] = [(tree, "<module>")]
        while stack:
            node, qual = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    child_qual = (
                        child.name if qual == "<module>" else f"{qual}.{child.name}"
                    )
                else:
                    child_qual = qual
                yield child, child_qual
                stack.append((child, child_qual))


def _walk_with_context(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    return _QualnameVisitor.walk(tree)


class Rule:
    """Base class: code, one-line rationale, invariant pointer, check()."""

    code = "RPL000"
    title = ""
    rationale = ""
    invariant = ""
    explain = ""

    def check(self, index: ModuleIndex) -> list[Finding]:
        raise NotImplementedError

    def finding(self, module: Module, node: ast.AST, message: str, context: str) -> Finding:
        return Finding(
            code=self.code,
            path=module.path,
            line=getattr(node, "lineno", 1),
            message=message,
            context=context,
        )


class NoWallClock(Rule):
    code = "RPL001"
    title = "no wall-clock calls in hot-path modules"
    rationale = "step timing must come from the tracer's perf_counter, never the wall clock"
    invariant = "PR 7 telemetry: serve/README.md 'Telemetry' (monotonic step phases)"
    explain = (
        "Hot-path modules (engine.py, attention.py, transformer.py, kvpool/*)\n"
        "may not call time.time(), datetime.now()/utcnow()/today() or\n"
        "date.today().  Wall clocks jump under NTP slew and have ~ms\n"
        "granularity; every duration the serving stack reports is measured\n"
        "with time.perf_counter() through the step tracer so Chrome traces\n"
        "and ITL percentiles stay monotonic and comparable across engines."
    )

    _DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

    def check(self, index: ModuleIndex) -> list[Finding]:
        findings: list[Finding] = []
        for module in index.modules:
            if not is_hot_module(module.name):
                continue
            bare_time = any(
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and any(alias.name == "time" for alias in node.names)
                for node in ast.walk(module.tree)
            )
            for node, qual in _walk_with_context(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                spelled = None
                if isinstance(func, ast.Attribute):
                    base = func.value
                    if isinstance(base, ast.Name) and base.id == "time" and func.attr == "time":
                        spelled = "time.time()"
                    elif func.attr in self._DATETIME_ATTRS:
                        root = base
                        while isinstance(root, ast.Attribute):
                            root = root.value
                        if isinstance(root, ast.Name) and root.id in ("datetime", "date"):
                            spelled = f"{root.id}.{func.attr}()"
                elif isinstance(func, ast.Name) and func.id == "time" and bare_time:
                    spelled = "time()"
                if spelled is not None:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"wall-clock call {spelled} in hot-path module "
                            "(use the tracer's perf_counter)",
                            qual,
                        )
                    )
        return findings


class NoHotPathAllocation(Rule):
    code = "RPL002"
    title = "no allocation-shaped numpy calls on the decode hot path"
    rationale = "the PR 5 zero-copy rebuild made Engine.step O(new tokens); one stray concatenate reverts it"
    invariant = "PR 5 zero-copy: serve/README.md 'Decode hot path' (preallocated buffers, in-place views)"
    explain = (
        "Functions marked '# hot-path' or reachable from Engine.step via a\n"
        "conservative intra-package call graph may not call np.concatenate /\n"
        "np.append / np.vstack / np.hstack, nor .astype() on a stored buffer\n"
        "attribute (which copies the whole thing).  The decode hot path works\n"
        "on preallocated capacity-doubling KV buffers and persistent gather\n"
        "scratch; per-token reallocation is exactly what PR 5 removed (2.2-3.4x\n"
        "step latency).  The call graph is name-based and over-approximate by\n"
        "design -- intentional findings (reference oracles used only by parity\n"
        "tests, finish-time result assembly) are grandfathered in\n"
        "lint_baseline.json with a tracking note each."
    )

    ROOTS = ["repro.serve.engine:Engine.step"]

    def check(self, index: ModuleIndex) -> list[Finding]:
        graph = CallGraph()
        for module in index.modules:
            graph.add_module(module.name, module.tree)
        graph.resolve()

        roots = list(self.ROOTS)
        # Functions explicitly marked hot: "# hot-path" on the def line or
        # the line directly above it.
        for module in index.modules:
            for info in graph.functions.values():
                if info.module != module.name:
                    continue
                def_line = info.node.lineno
                for lineno in (def_line, def_line - 1):
                    if 1 <= lineno <= len(module.lines) and "# hot-path" in module.lines[lineno - 1]:
                        roots.append(info.qualname)
                        break
        reachable = graph.reachable(roots)

        findings: list[Finding] = []
        modules_by_name = {module.name: module for module in index.modules}
        for qual in sorted(reachable):
            info = graph.functions[qual]
            module = modules_by_name[info.module]
            context = qual.split(":", 1)[1]
            for call in info.calls:
                func = call.func
                if not isinstance(func, ast.Attribute):
                    continue
                base = func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in NUMPY_ALIASES
                    and func.attr in ALLOC_NP_CALLS
                ):
                    findings.append(
                        self.finding(
                            module,
                            call,
                            f"allocation-shaped call np.{func.attr} reachable "
                            "from Engine.step (zero-copy hot path)",
                            context,
                        )
                    )
                elif func.attr == "astype" and isinstance(base, ast.Attribute):
                    findings.append(
                        self.finding(
                            module,
                            call,
                            f"full-buffer .astype() on attribute '{base.attr}' "
                            "reachable from Engine.step (zero-copy hot path)",
                            context,
                        )
                    )
        return findings


class HotClassesDeclareSlots(Rule):
    code = "RPL003"
    title = "classes in hot-path modules declare __slots__"
    rationale = "per-instance dicts on hot objects cost memory and attribute-lookup time at serving scale"
    invariant = "PR 5 zero-copy: serve/README.md 'Decode hot path' (slotted per-request state)"
    explain = (
        "Every class defined in a hot-path module must declare __slots__\n"
        "(directly or via @dataclass(slots=True)).  Exception classes are\n"
        "exempt, and once-per-engine objects with documented reasons live in\n"
        "src/repro/lint/slots_allowlist.txt -- the allowlist is part of the\n"
        "rule: removing an entry re-arms enforcement for that class."
    )

    def check(self, index: ModuleIndex) -> list[Finding]:
        findings: list[Finding] = []
        for module in index.modules:
            if not is_hot_module(module.name):
                continue
            for node, qual in _walk_with_context(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if self._is_exception(node) or self._has_slots(node):
                    continue
                entry = f"{module.name}:{node.name}"
                if entry in index.slots_allowlist:
                    continue
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"class {node.name} in hot-path module lacks __slots__ "
                        "(add it, or allowlist with a reason)",
                        qual,
                    )
                )
        return findings

    @staticmethod
    def _is_exception(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
            if name.endswith(("Error", "Exception", "Warning")):
                return True
        return False

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call):
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
        return False


class StatsScopedToAttention(Rule):
    code = "RPL004"
    title = "module-global stats touched only inside attention's StatScope machinery"
    rationale = "the PR 7 counter-bleed fix routes all stats through contextvar scopes; direct global access reintroduces cross-engine bleed"
    invariant = "PR 7 scoping: serve/README.md 'Telemetry' (contextvar-scoped hot-path stats)"
    explain = (
        "HOT_PATH_STATS and ATTENTION_STATS are attention.py's module-global\n"
        "fallback scopes.  Engine code reading or writing them directly sees\n"
        "(and corrupts) counters from whichever engine last ran -- the exact\n"
        "cross-engine bleed PR 7 fixed with contextvar-scoped StatScope.  Use\n"
        "stats_scope() instead."
    )

    def check(self, index: ModuleIndex) -> list[Finding]:
        findings: list[Finding] = []
        for module in index.modules:
            if module.name == STATS_HOME:
                continue
            for node, qual in _walk_with_context(module.tree):
                name = None
                if isinstance(node, ast.Name) and node.id in STATS_GLOBALS:
                    name = node.id
                elif isinstance(node, ast.Attribute) and node.attr in STATS_GLOBALS:
                    name = node.attr
                elif isinstance(node, ast.ImportFrom) and any(
                    alias.name in STATS_GLOBALS for alias in node.names
                ):
                    name = next(
                        alias.name for alias in node.names if alias.name in STATS_GLOBALS
                    )
                if name is not None:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"direct access to module-global {name} outside "
                            "attention's StatScope machinery (use stats_scope())",
                            qual,
                        )
                    )
        return findings


class FrozenFieldsOnlyInPostInit(Rule):
    code = "RPL006"
    title = "object.__setattr__ only inside a __post_init__ on self"
    rationale = "frozen specs (SamplingParams, KVFormat, TelemetryConfig) are hashed and shared; back-door mutation breaks prefix signatures and scheduling"
    invariant = "PR 4/8 frozen specs: serve/README.md 'Requests' (immutable per-request params)"
    explain = (
        "The frozen dataclasses are mutated via object.__setattr__ exactly\n"
        "once: inside their own __post_init__, to normalize fields before the\n"
        "instance escapes.  Anywhere else it silently bypasses frozen=True on\n"
        "objects the engine has already hashed into prefix-cache signatures\n"
        "and scheduler plans.  This rule flags any object.__setattr__ call\n"
        "outside a __post_init__, or one whose target is not self."
    )

    def check(self, index: ModuleIndex) -> list[Finding]:
        findings: list[Finding] = []
        for module in index.modules:
            for node, qual in _walk_with_context(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "object"
                ):
                    continue
                in_post_init = qual.split(".")[-1] == "__post_init__"
                on_self = bool(
                    node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == "self"
                )
                if not (in_post_init and on_self):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "object.__setattr__ outside its own __post_init__ "
                            "(frozen specs are immutable once constructed)",
                            qual,
                        )
                    )
        return findings


class NoSwallowedExceptions(Rule):
    code = "RPL007"
    title = "no bare except / blanket except without re-raise in serve/"
    rationale = "a swallowed exception mid-step leaves engine state (block refcounts, request queues) silently corrupted"
    invariant = "PR 2/4 rollback paths: serve/README.md 'Preemption & abort' (failures must propagate or roll back)"
    explain = (
        "src/repro/serve may not contain bare 'except:' handlers, nor\n"
        "'except Exception:' / 'except BaseException:' handlers that do not\n"
        "re-raise.  The engine's mid-step failure contract is\n"
        "rollback-then-reraise (block refcounts, wave queues, handle states\n"
        "are restored before the exception propagates); a blanket handler\n"
        "that absorbs the failure instead — whether its body is 'pass' or\n"
        "does real work — leaves the pool and scheduler silently\n"
        "inconsistent.  Blanket handlers containing a 'raise' remain fine;\n"
        "handlers naming a specific exception class are the engine's own\n"
        "failure-semantics business (RPL011 covers what they may raise)."
    )

    def check(self, index: ModuleIndex) -> list[Finding]:
        findings: list[Finding] = []
        for module in index.modules:
            if not module.name.startswith("repro.serve"):
                continue
            for node, qual in _walk_with_context(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "bare 'except:' in serve/ (name the exception; "
                            "mid-step failures must roll back, not vanish)",
                            qual,
                        )
                    )
                    continue
                type_name = (
                    node.type.attr
                    if isinstance(node.type, ast.Attribute)
                    else getattr(node.type, "id", "")
                )
                if type_name not in ("Exception", "BaseException"):
                    continue
                swallows = all(
                    isinstance(stmt, ast.Pass)
                    or (
                        isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant)
                        and stmt.value.value is Ellipsis
                    )
                    for stmt in node.body
                )
                reraises = any(
                    isinstance(sub, ast.Raise)
                    for stmt in node.body
                    for sub in ast.walk(stmt)
                )
                if swallows:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"'except {type_name}: pass' swallows mid-step failures "
                            "(roll back and re-raise instead)",
                            qual,
                        )
                    )
                elif not reraises:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"blanket 'except {type_name}:' without a re-raise "
                            "absorbs unknown failure classes (roll back what "
                            "you can, then propagate)",
                            qual,
                        )
                    )
        return findings


class AllMatchesBindings(Rule):
    code = "RPL008"
    title = "serve.__all__ exactly matches the bound public names"
    rationale = "a drifted __all__ either advertises imports that fail or hides supported API; this replaces the ad-hoc CI import check"
    invariant = "PR 1 packaging: serve/__init__.py is the public serving surface"
    explain = (
        "repro.serve.__init__ must export exactly what it binds: every entry\n"
        "of __all__ is a name actually imported/defined at module top level,\n"
        "and every public (non-underscore) top-level binding appears in\n"
        "__all__.  This statically subsumes the old bench-smoke 'import lint'\n"
        "step that imported the package and hasattr-checked each export."
    )

    TARGET = "repro.serve"

    def check(self, index: ModuleIndex) -> list[Finding]:
        module = index.get(self.TARGET)
        if module is None:
            return []
        declared: list[str] | None = None
        bound: set[str] = set()
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    bound.add(alias.asname or alias.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__all__" and isinstance(stmt, ast.Assign):
                            value = stmt.value
                            if isinstance(value, (ast.List, ast.Tuple)):
                                declared = [
                                    elt.value
                                    for elt in value.elts
                                    if isinstance(elt, ast.Constant)
                                    and isinstance(elt.value, str)
                                ]
                        else:
                            bound.add(target.id)
        findings: list[Finding] = []
        public = {name for name in bound if not name.startswith("_")}
        if declared is None:
            if public:
                findings.append(
                    self.finding(
                        module,
                        module.tree,
                        "serve/__init__.py binds public names but has no __all__ list",
                        "<module>",
                    )
                )
            return findings
        declared_set = set(declared)
        for name in sorted(declared_set - bound):
            findings.append(
                self.finding(
                    module,
                    module.tree,
                    f"__all__ entry '{name}' is not bound at top level of serve/__init__",
                    "<module>",
                )
            )
        for name in sorted(public - declared_set):
            findings.append(
                self.finding(
                    module,
                    module.tree,
                    f"public top-level name '{name}' missing from serve/__init__.__all__",
                    "<module>",
                )
            )
        if len(declared) != len(declared_set):
            findings.append(
                self.finding(
                    module, module.tree, "__all__ contains duplicate entries", "<module>"
                )
            )
        return findings


class NoImportCycles(Rule):
    code = "RPL009"
    title = "no import cycles between repro modules"
    rationale = "import-time cycles make module initialization order-dependent; the one historical cycle was broken with a lazy accessor, which stays the allowed pattern"
    invariant = "PR 8 formats: kv_quant's lazy _mx_module() accessor is the documented cycle break"
    explain = (
        "The top-level (import-time) module graph of src/repro must stay\n"
        "acyclic.  Function-level lazy imports -- the _mx_module() pattern\n"
        "that broke the kv_quant <-> mx cycle -- are deliberately not edges:\n"
        "they run after both modules initialize, which is exactly why that\n"
        "pattern is the sanctioned break.  'if TYPE_CHECKING:' imports are\n"
        "also excluded (they never execute at runtime), and importing a\n"
        "sibling *submodule* through its package (from repro.core import\n"
        "fp16) is an edge to the submodule, not the package __init__."
    )

    def check(self, index: ModuleIndex) -> list[Finding]:
        names = {module.name for module in index.modules}
        graph: dict[str, set[str]] = {name: set() for name in names}
        for module in index.modules:
            for target in self._top_level_imports(module):
                resolved = self._resolve(target, names)
                if resolved is not None and resolved != module.name:
                    graph[module.name].add(resolved)
        findings: list[Finding] = []
        for cycle in self._cycles(graph):
            anchor = index.get(cycle[0])
            if anchor is None:
                continue
            chain = " -> ".join([*cycle, cycle[0]])
            findings.append(
                self.finding(
                    anchor,
                    anchor.tree,
                    f"import cycle: {chain} (break it with a lazy function-level "
                    "import like kv_quant._mx_module)",
                    "<module>",
                )
            )
        return findings

    @staticmethod
    def _top_level_imports(module: Module) -> list[str]:
        """Runtime import targets: module body + top-level try blocks,
        excluding `if TYPE_CHECKING:` bodies."""
        targets: list[str] = []
        stmts: list[ast.stmt] = list(module.tree.body)
        while stmts:
            stmt = stmts.pop()
            if isinstance(stmt, ast.Try):
                stmts.extend(stmt.body)
                for handler in stmt.handlers:
                    stmts.extend(handler.body)
            elif isinstance(stmt, ast.Import):
                targets.extend(alias.name for alias in stmt.names)
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.level:
                    parts = module.name.split(".")
                    # level=1 from a module means its parent package.
                    base = ".".join(parts[: len(parts) - stmt.level])
                    prefix = f"{base}.{stmt.module}" if stmt.module else base
                else:
                    prefix = stmt.module or ""
                for alias in stmt.names:
                    targets.append(f"{prefix}.{alias.name}" if prefix else alias.name)
        return [t for t in targets if t]

    @staticmethod
    def _resolve(target: str, names: set[str]) -> str | None:
        # `from repro.x import y` may name a submodule (repro.x.y) or an
        # attribute of repro.x; prefer the deepest scanned module.
        candidate = target
        while candidate:
            if candidate in names:
                return candidate
            candidate = candidate.rpartition(".")[0]
        return None

    @staticmethod
    def _cycles(graph: dict[str, set[str]]) -> list[list[str]]:
        # Tarjan SCC; report components with >1 node (or a self-edge).
        index_counter = [0]
        stack: list[str] = []
        lowlink: dict[str, int] = {}
        number: dict[str, int] = {}
        on_stack: set[str] = set()
        components: list[list[str]] = []

        def strongconnect(v: str) -> None:
            number[v] = lowlink[v] = index_counter[0]
            index_counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            for w in sorted(graph[v]):
                if w not in number:
                    strongconnect(w)
                    lowlink[v] = min(lowlink[v], lowlink[w])
                elif w in on_stack:
                    lowlink[v] = min(lowlink[v], number[w])
            if lowlink[v] == number[v]:
                component: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1 or v in graph[v]:
                    components.append(sorted(component))

        for node in sorted(graph):
            if node not in number:
                strongconnect(node)
        return components


class MatmulsRouteThroughAttention(Rule):
    code = "RPL010"
    title = "no raw matmuls in serve/, no raw weight products in llm/ (lane discipline)"
    rationale = "a row's bits stay a function of its own request only if every kernel shape is fixed: projections run in Linear.step (4-row GEMM tiles while four rows remain, then 2-row ones, or one flat GEMM of at least min_rows rows), attention in _attention_core (one launch per decode row or ATTN_TILE chunk tile)"
    invariant = "lane discipline: serve/README.md 'Decode attention & lane discipline' (bitwise kernel-lane contract)"
    explain = (
        "BLAS picks its kernel by operand shape, and a row's bits can change\n"
        "with the kernel: OpenBLAS gives a row different bits as M == 1 (GeMV)\n"
        "than inside a GeMM, and a K = 768 projection changes bits between\n"
        "M <= 5 and M >= 6.  Inside a GeMM of fixed M a row's bits depend on\n"
        "neither its co-rows nor its position.  So a row's bits depend on its\n"
        "own request alone only where the serving math runs at shapes fixed\n"
        "by construction:\n"
        "  * every inference projection goes through Linear.step\n"
        "    (repro.llm.layers), which runs one-token rows as 4-row GeMM\n"
        "    tiles while four rows remain and 2-row tiles after (heights at\n"
        "    which a row gets the same bits, checked per weight), whether the\n"
        "    batch holds one request or many, and the flat prompt lane as one\n"
        "    GeMM of at least the weight's min_rows;\n"
        "  * attention math goes through _attention_core, one M == 1 launch\n"
        "    per decode row over its own history, one launch per\n"
        "    position-aligned ATTN_TILE tile of a prompt chunk.\n"
        "Findings: any @ / np.matmul / np.dot / np.einsum inside\n"
        "src/repro/serve (serve/ orchestrates, repro.llm computes), and any\n"
        "matmul with a '<...>.weight.data' operand in repro.llm outside\n"
        "repro.llm.layers (a hand-written projection that skips the tile)."
    )

    LAYERS_MODULE = "repro.llm.layers"

    @staticmethod
    def _matmul(node: ast.AST) -> tuple[str, list[ast.expr]] | None:
        """``(spelling, operands)`` when ``node`` multiplies matrices."""
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            return "the @ operator", [node.left, node.right]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MATMUL_CALLS:
                return f".{node.func.attr}()", [node.func.value, *node.args]
        return None

    @staticmethod
    def _is_weight_data(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "data"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "weight"
        )

    def check(self, index: ModuleIndex) -> list[Finding]:
        findings: list[Finding] = []
        for module in index.modules:
            in_serve = module.name.startswith("repro.serve")
            in_llm = (
                module.name.startswith("repro.llm")
                and module.name != self.LAYERS_MODULE
            )
            if not (in_serve or in_llm):
                continue
            for node, qual in _walk_with_context(module.tree):
                matmul = self._matmul(node)
                if matmul is None:
                    continue
                spelled, operands = matmul
                if in_serve:
                    message = (
                        f"raw matmul via {spelled} in serve/ (route through "
                        "MultiHeadAttention._attention_core)"
                    )
                elif any(self._is_weight_data(operand) for operand in operands):
                    message = (
                        f"raw weight product via {spelled} in repro.llm "
                        "(route through Linear.step)"
                    )
                else:
                    continue
                findings.append(self.finding(module, node, message, qual))
        return findings


class RaisesModelErrors(Rule):
    code = "RPL011"
    title = "serve/ and llm/ raise ModelError subclasses only"
    rationale = "clients catch ReproError/ModelError at the LLM boundary; a stray ValueError from deep in the engine or the model it steps escapes every typed handler"
    invariant = "PR 11 failure semantics: serve/README.md 'Failure semantics' (one fault taxonomy rooted at ModelError)"
    explain = (
        "Every 'raise' in src/repro/serve and src/repro/llm must raise a\n"
        "subclass of repro.errors.ModelError, so callers can catch the\n"
        "serving stack's entire failure surface with one typed handler and\n"
        "RequestHandle.result() can re-wrap any stored failure as a\n"
        "RequestFailedError.  repro.llm is part of that surface: the engine\n"
        "steps the model's inference entries (forward_mixed_step and the\n"
        "lanes below it) inside its failure handling, and generate() calls\n"
        "them directly.  The member set is computed as a fixpoint over\n"
        "every ClassDef in the package (seeded with ModelError itself), so\n"
        "locally defined fault types count.  Bare 're-raise' statements and\n"
        "raises of lowercase-named variables (e.g. 'raise cls(...)') are\n"
        "not statically resolvable and are skipped."
    )

    SEED = "ModelError"

    @staticmethod
    def _base_names(node: ast.ClassDef) -> list[str]:
        names = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                names.append(base.id)
            elif isinstance(base, ast.Attribute):
                names.append(base.attr)
        return names

    def _members(self, index: ModuleIndex) -> frozenset[str]:
        """Fixpoint: class names transitively based on ModelError."""
        bases_by_class: dict[str, list[str]] = {}
        for module in index.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    bases_by_class.setdefault(node.name, []).extend(
                        self._base_names(node)
                    )
        members = {self.SEED}
        changed = True
        while changed:
            changed = False
            for name, bases in bases_by_class.items():
                if name not in members and any(base in members for base in bases):
                    members.add(name)
                    changed = True
        return frozenset(members)

    def check(self, index: ModuleIndex) -> list[Finding]:
        members = self._members(index)
        findings: list[Finding] = []
        for module in index.modules:
            if module.name.startswith("repro.serve"):
                where = "serve/"
            elif module.name.startswith("repro.llm"):
                where = "llm/"
            else:
                continue
            for node, qual in _walk_with_context(module.tree):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Attribute):
                    name = exc.attr
                elif isinstance(exc, ast.Name):
                    name = exc.id
                else:
                    continue
                if not name[:1].isupper():
                    continue  # a variable holding the class, not a class name
                if name not in members:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"raise {name} in {where} (not a ModelError subclass; "
                            "clients catch the stack via ModelError)",
                            qual,
                        )
                    )
        return findings


RULES: tuple[Rule, ...] = (
    NoWallClock(),
    NoHotPathAllocation(),
    HotClassesDeclareSlots(),
    StatsScopedToAttention(),
    FrozenFieldsOnlyInPostInit(),
    NoSwallowedExceptions(),
    AllMatchesBindings(),
    NoImportCycles(),
    MatmulsRouteThroughAttention(),
    RaisesModelErrors(),
)


def get_rule(code: str) -> Rule | None:
    for rule in RULES:
        if rule.code == code.upper():
            return rule
    return None
