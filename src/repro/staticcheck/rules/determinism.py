"""Determinism rules (NEON2xx) — bit-reproducible trajectories.

The simulation's contract is that the same seed yields the same
trajectory, event for event (tests/integration/test_determinism.py).
That breaks the moment any component reads a wall clock, draws from an
unseeded or process-global RNG, or lets Python's unordered ``set``
decide the order in which events are scheduled or channels served.

* **NEON201** — ``time.time()``/``monotonic()``/``perf_counter()``/
  ``datetime.now()`` and friends anywhere in simulation code; bare
  references (``clock = time.perf_counter``) count too.  Host-side
  orchestration modules listed in ``host_clock_modules`` (the parallel
  cell farm, which measures *host* wall time per cell) are exempt.
* **NEON202** — ``import random``: the stdlib generator is process
  global; all randomness must come from the named, seeded streams of
  :mod:`repro.sim.rng`.
* **NEON203** — unseeded ``numpy.random.default_rng()`` or the legacy
  global samplers (``np.random.seed``, ``np.random.shuffle`` …) outside
  :mod:`repro.sim.rng`.
* **NEON204** — ``for``-loops/comprehensions iterating directly over a
  set expression; hash order varies across runs and interpreter
  versions, so anything it feeds (event scheduling, channel selection,
  kill order) becomes nondeterministic.  Wrap the set in ``sorted()``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from repro.staticcheck.core import ModuleContext, Violation, scope_statements
from repro.staticcheck.graph import dotted_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.staticcheck.config import Config

#: Fully qualified callables that read the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Legacy numpy global-state RNG entry points (shared across components).
NUMPY_GLOBAL_RNG = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "exponential",
        "poisson",
        "RandomState",
    }
)


class _ImportAliases(ast.NodeVisitor):
    """Map local names to the fully qualified names they import."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            target = alias.name if alias.asname else alias.name.split(".", 1)[0]
            self.aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or not node.module:
            return
        for alias in node.names:
            local = alias.asname or alias.name
            self.aliases[local] = f"{node.module}.{alias.name}"


def _is_setlike(node: ast.expr, local_sets: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_setlike(node.left, local_sets) or _is_setlike(
            node.right, local_sets
        )
    if isinstance(node, ast.Name):
        return node.id in local_sets
    return False


class DeterminismChecker:
    """NEON201–NEON204."""

    rule_ids = ("NEON201", "NEON202", "NEON203", "NEON204")

    def check(self, ctx: ModuleContext, config: "Config") -> Iterator[Violation]:
        aliases = _ImportAliases()
        aliases.visit(ctx.tree)
        rng_module = config.is_rng_module(ctx.module)
        host_clock = config.is_host_clock_module(ctx.module)
        call_funcs = {
            id(node.func)
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not rng_module:
                yield from self._check_random_import(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(
                    ctx, node, aliases.aliases, rng_module, host_clock
                )
            elif (
                isinstance(node, (ast.Attribute, ast.Name))
                and id(node) not in call_funcs
                and not host_clock
            ):
                # A bare reference (``clock = time.perf_counter``) is as
                # much of a wall-clock read as the direct call — the alias
                # just delays it past AST call matching.
                yield from self._check_clock_reference(ctx, node, aliases.aliases)
        yield from self._check_set_iteration(ctx)

    def _check_clock_reference(
        self, ctx: ModuleContext, node: ast.expr, aliases: dict[str, str]
    ) -> Iterator[Violation]:
        resolved = self._resolve(node, aliases)
        if resolved in WALL_CLOCK_CALLS:
            yield Violation(
                path=str(ctx.path),
                line=node.lineno,
                col=node.col_offset,
                rule_id="NEON201",
                message=(
                    f"reference to wall-clock '{resolved}' aliases "
                    "nondeterministic time into simulation code; use "
                    "virtual time (sim.now)"
                ),
            )

    # ------------------------------------------------------------------
    # NEON201 / NEON202 / NEON203
    # ------------------------------------------------------------------
    def _check_random_import(
        self, ctx: ModuleContext, node: ast.stmt
    ) -> Iterator[Violation]:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = [node.module or ""]
        for module in modules:
            if module == "random" or module.startswith("random."):
                yield Violation(
                    path=str(ctx.path),
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id="NEON202",
                    message=(
                        "stdlib random is process-global state; draw from a "
                        "named seeded stream (repro.sim.rng.RngRegistry) instead"
                    ),
                )

    def _resolve(self, node: ast.expr, aliases: dict[str, str]) -> Optional[str]:
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        head = aliases.get(head, head)
        return f"{head}.{rest}" if rest else head

    def _check_call(
        self,
        ctx: ModuleContext,
        node: ast.Call,
        aliases: dict[str, str],
        rng_module: bool,
        host_clock: bool = False,
    ) -> Iterator[Violation]:
        resolved = self._resolve(node.func, aliases)
        if resolved is None:
            return
        if resolved in WALL_CLOCK_CALLS:
            if host_clock:
                return
            yield Violation(
                path=str(ctx.path),
                line=node.lineno,
                col=node.col_offset,
                rule_id="NEON201",
                message=(
                    f"'{resolved}()' reads the wall clock; simulation code "
                    "must use virtual time (sim.now)"
                ),
            )
            return
        if rng_module:
            return
        if resolved == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                yield Violation(
                    path=str(ctx.path),
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id="NEON203",
                    message=(
                        "unseeded numpy.random.default_rng(); derive streams "
                        "from repro.sim.rng.RngRegistry so runs are reproducible"
                    ),
                )
        elif resolved.startswith("numpy.random."):
            tail = resolved.rsplit(".", 1)[1]
            if tail in NUMPY_GLOBAL_RNG:
                yield Violation(
                    path=str(ctx.path),
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id="NEON203",
                    message=(
                        f"numpy global RNG '{resolved}' is shared mutable "
                        "state; use a named stream from repro.sim.rng"
                    ),
                )

    # ------------------------------------------------------------------
    # NEON204
    # ------------------------------------------------------------------
    def _check_set_iteration(self, ctx: ModuleContext) -> Iterator[Violation]:
        scopes: list[ast.AST] = [ctx.tree]
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        for scope in scopes:
            local_sets: set[str] = set()
            for node in scope_statements(scope):
                if isinstance(node, ast.Assign) and _is_setlike(
                    node.value, local_sets
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_sets.add(target.id)
            for node in scope_statements(scope):
                iters: list[ast.expr] = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    iters.extend(comp.iter for comp in node.generators)
                for iter_expr in iters:
                    if _is_setlike(iter_expr, local_sets):
                        yield Violation(
                            path=str(ctx.path),
                            line=iter_expr.lineno,
                            col=iter_expr.col_offset,
                            rule_id="NEON204",
                            message=(
                                "iterating a set directly: hash order is "
                                "nondeterministic; iterate sorted(...) so "
                                "scheduling decisions are reproducible"
                            ),
                        )
