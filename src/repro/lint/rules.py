"""The REP rule set: determinism and process-safety checks.

Every rule is a small, self-contained AST pass.  Rules are *pluggable*:
subclass :class:`Rule`, decorate with :func:`register`, and the engine
picks the rule up automatically.  Rules never look at raw text -- pragma
suppression and baselining happen in the engine, so a rule only has to
emit every violation it sees.

Why these rules exist (the one-paragraph version; docs/DEVELOPMENT.md
has the full rationale): the ECRIPSE estimator's eq. 16-19 failure
probabilities are extreme statistics -- a single stray draw from the
global NumPy RNG, a wall-clock read inside a task, or a lambda that
silently demotes the process backend to serial changes results or
performance without any test failing loudly.  The linter turns those
conventions into hard errors.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from pathlib import PurePosixPath
from typing import Iterator

from repro.lint.config import scope_for
from repro.lint.findings import Finding, Related

#: legacy global-state entry points of ``numpy.random``.
_NP_LEGACY = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_state", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald",
    "weibull", "zipf", "RandomState",
})

#: wall-clock / entropy call targets (canonical dotted names).
_IMPURE_CALLS = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
})

#: executor methods whose task callable must survive pickling.
_EXECUTOR_METHODS = frozenset({"map_chunks", "iter_tasks"})

RULES: list["Rule"] = []


def register(cls: type["Rule"]) -> type["Rule"]:
    """Class decorator adding a rule to the default rule set."""
    RULES.append(cls())
    return cls


def default_rules() -> list["Rule"]:
    """Fresh copy of the registered rule set (engine-mutable)."""
    return list(RULES)


class Rule:
    """One static check.

    Subclasses set ``id``/``slug``/``title``/``rationale`` and implement
    :meth:`check`.  Scoping is declarative: ``applies_to`` consults the
    scope table in :mod:`repro.lint.config` (one place for every
    rule's path globs and their rationale); rules without a table entry
    run everywhere, and the legacy class-level ``include``/``exclude``
    attributes remain as a fallback for ad-hoc rule instances.
    """

    id: str = "REP000"
    slug: str = "base"
    title: str = ""
    rationale: str = ""
    include: tuple[str, ...] = ("*",)
    exclude: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        scope = scope_for(self.id)
        include = scope.include if scope is not None else self.include
        exclude = scope.exclude if scope is not None else self.exclude
        posix = PurePosixPath(path).as_posix()
        if any(fnmatch(posix, pattern) for pattern in exclude):
            return False
        return any(fnmatch(posix, pattern) for pattern in include)

    def check(self, tree: ast.AST,
              ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "FileContext", node: ast.AST,
                message: str,
                related: tuple[Related, ...] = ()) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.id, slug=self.slug, path=ctx.path, line=line,
            col=getattr(node, "col_offset", 0), message=message,
            source_line=ctx.line_text(line),
            end_line=getattr(node, "end_lineno", None) or line,
            related=related)


class ProjectRule(Rule):
    """A cross-module check over the whole-program model.

    Project rules skip the per-file pass (:meth:`check` yields nothing)
    and instead implement :meth:`check_project` against the
    :class:`~repro.lint.project.ProjectModel` the engine builds after
    every file is parsed.  ``applies_to`` still scopes them: the engine
    feeds every file into the model, and the rule filters the classes
    it judges by their defining file's path.
    """

    def check(self, tree: ast.AST,
              ctx: "FileContext") -> Iterator[Finding]:
        return iter(())

    def check_project(self, model) -> Iterator[Finding]:
        raise NotImplementedError


class FileContext:
    """Per-file facts shared by all rules: source lines, import table."""

    def __init__(self, path: str, source: str, tree: ast.AST):
        self.path = PurePosixPath(path).as_posix()
        self.lines = source.splitlines()
        self.imports = _import_table(tree)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def resolve_call(self, node: ast.Call) -> str | None:
        """Canonical dotted name of the call target, if resolvable.

        ``np.random.normal(...)`` -> ``"numpy.random.normal"`` under
        ``import numpy as np``; unresolvable targets return ``None``.
        """
        return self.resolve_name(node.func)

    def resolve_name(self, node: ast.AST) -> str | None:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))


def _import_table(tree: ast.AST) -> dict[str, str]:
    """Local alias -> canonical dotted module/object path."""
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                table[name] = alias.name if alias.asname else name
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{node.module}.{alias.name}"
    return table


def _contains_none(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Constant) and sub.value is None
               for sub in ast.walk(node))


@register
class GlobalRngRule(Rule):
    """REP001: randomness must arrive as a ``numpy.random.Generator``.

    Flags legacy global-state draws (``np.random.normal``, stdlib
    ``random.*``) and unseeded ``default_rng()`` -- each one breaks the
    fixed-seed bit-reproducibility the runtime guarantees.
    """

    id = "REP001"
    slug = "global-rng"
    title = "global-state or unseeded RNG"
    rationale = ("all randomness must flow through an explicitly seeded "
                 "numpy.random.Generator passed as an argument (spawn "
                 "children with repro.rng.spawn)")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve_call(node)
            if name is None:
                continue
            if name.startswith("numpy.random."):
                leaf = name.removeprefix("numpy.random.")
                if leaf in _NP_LEGACY:
                    yield self.finding(
                        ctx, node,
                        f"legacy global-state RNG call np.random.{leaf}; "
                        "pass a numpy.random.Generator argument instead")
                elif leaf == "default_rng" and self._unseeded(node):
                    yield self.finding(
                        ctx, node,
                        "default_rng() without a deterministic seed; "
                        "seed it explicitly or accept a Generator "
                        "argument (repro.rng.as_generator)")
            elif name == "random" or name.startswith("random."):
                yield self.finding(
                    ctx, node,
                    f"stdlib random call {name}; use a seeded "
                    "numpy.random.Generator instead")

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if node.keywords:
            return any(kw.arg in (None, "seed")
                       and _contains_none(kw.value)
                       for kw in node.keywords)
        if not node.args:
            return True
        return _contains_none(node.args[0])


@register
class WallClockRule(Rule):
    """REP002: no wall-clock or OS-entropy reads in deterministic code.

    ``time.perf_counter``/``monotonic`` stay legal: they feed telemetry
    only and never influence results.
    """

    id = "REP002"
    slug = "wall-clock"
    title = "wall-clock/entropy call in deterministic code"
    rationale = ("estimator outputs must be pure functions of "
                 "(inputs, seed); wall-clock and OS entropy make runs "
                 "unrepeatable")
    # scope (deterministic packages, two sanctioned wall-clock files)
    # lives in the declarative table: repro/lint/config.py RULE_SCOPES.

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve_call(node)
            if name is None:
                continue
            if name in _IMPURE_CALLS or name.startswith("secrets."):
                yield self.finding(
                    ctx, node,
                    f"non-deterministic call {name}; results must depend "
                    "only on inputs and the seed (perf_counter is fine "
                    "for telemetry)")


@register
class ExecutorPicklingRule(Rule):
    """REP003: task callables handed to the Executor must pickle.

    A lambda or locally-defined function silently breaks the process
    backend (every chunk falls back to the parent process), so parallel
    runs degrade to serial without failing a single test.
    """

    id = "REP003"
    slug = "exec-lambda"
    title = "unpicklable callable passed to Executor"
    rationale = ("the process backend pickles the task callable; "
                 "lambdas/closures demote the whole run to the serial "
                 "fallback")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        yield from self._walk(tree, ctx, local_defs=[])

    def _walk(self, node: ast.AST, ctx: FileContext,
              local_defs: list[set[str]]) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if local_defs:
                    local_defs[-1].add(child.name)
                yield from self._walk(child, ctx,
                                      local_defs + [self._bound(child)])
                continue
            if isinstance(child, ast.Lambda):
                yield from self._walk(child, ctx,
                                      local_defs + [set()])
                continue
            if isinstance(child, ast.Call):
                yield from self._check_call(child, ctx, local_defs)
            yield from self._walk(child, ctx, local_defs)

    @staticmethod
    def _bound(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Lambda):
                names.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
        return names

    def _check_call(self, call: ast.Call, ctx: FileContext,
                    local_defs: list[set[str]]) -> Iterator[Finding]:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _EXECUTOR_METHODS and call.args):
            return
        task = call.args[0]
        if isinstance(task, ast.Lambda):
            yield self.finding(
                ctx, task,
                f"lambda passed to Executor.{func.attr}; the process "
                "backend cannot pickle it -- use a module-level function")
        elif isinstance(task, ast.Name) \
                and any(task.id in scope for scope in local_defs):
            yield self.finding(
                ctx, task,
                f"locally-defined function {task.id!r} passed to "
                f"Executor.{func.attr}; the process backend cannot "
                "pickle it -- move it to module level")


@register
class FloatEqualityRule(Rule):
    """REP004: no ``==``/``!=`` against float literals.

    Exact float comparison is almost always a tolerance bug in numeric
    code.  Comparisons inside ``assert`` statements are exempt: an
    exact-value assertion *is* the bit-reproducibility check (use
    ``pytest.approx``/``np.isclose`` when a tolerance is intended).
    """

    id = "REP004"
    slug = "float-eq"
    title = "float equality without explicit tolerance"
    rationale = ("compare floats with an explicit tolerance "
                 "(np.isclose/math.isclose) or justify exactness with "
                 "a pragma")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        yield from self._walk(tree, ctx)

    def _walk(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                continue
            if isinstance(child, ast.Compare):
                yield from self._check_compare(child, ctx)
            yield from self._walk(child, ctx)

    def _check_compare(self, node: ast.Compare,
                       ctx: FileContext) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            literal = next(
                (operand for operand in (left, right)
                 if isinstance(operand, ast.Constant)
                 and isinstance(operand.value, float)), None)
            if literal is not None:
                yield self.finding(
                    ctx, node,
                    f"float equality against {literal.value!r}; use an "
                    "explicit tolerance (np.isclose) or justify with "
                    "'# repro: allow-float-eq'")


@register
class MutableDefaultRule(Rule):
    """REP005: no mutable default arguments."""

    id = "REP005"
    slug = "mutable-default"
    title = "mutable default argument"
    rationale = ("a mutable default is created once and shared across "
                 "calls -- state leaks between estimator runs")

    _FACTORY_NAMES = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = [*node.args.defaults,
                        *(d for d in node.args.kw_defaults
                          if d is not None)]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx, default,
                        "mutable default argument; default to None and "
                        "create the object inside the function")

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._FACTORY_NAMES)


@register
class BroadExceptRule(Rule):
    """REP006: no ``except Exception`` / bare ``except``.

    The runtime retry layer (``repro/runtime/executor.py``) is exempt:
    catching everything is its job -- any chunk failure must be retried
    or demoted to the serial fallback, never swallowed silently
    elsewhere.
    """

    id = "REP006"
    slug = "broad-except"
    title = "overbroad exception handler"
    rationale = ("broad handlers hide real failures; outside the "
                 "runtime retry layer, catch the narrowest exception "
                 "that the code can actually handle")
    # the executor exemption lives in config.RULE_SCOPES.

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare 'except:'; catch a concrete exception type")
            else:
                for name in self._names(node.type):
                    if name in ("Exception", "BaseException"):
                        yield self.finding(
                            ctx, node,
                            f"'except {name}' outside the runtime retry "
                            "layer; catch the narrowest type the code "
                            "can handle")
                        break

    @staticmethod
    def _names(node: ast.AST) -> list[str]:
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Tuple):
            return [e.id for e in node.elts if isinstance(e, ast.Name)]
        return []


# The cross-module rules (REP007-REP009) live in their own module but
# register into the same default rule set; importing here guarantees
# registration wherever default_rules() is used.
from repro.lint import project_rules as _project_rules  # noqa: E402,F401
