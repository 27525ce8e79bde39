"""The whole-program project model — neonlint's view of the entire package.

Per-file rules (NEON0xx–4xx) judge one module at a time and therefore
cannot see a violation laundered through a helper: a scheduler that calls
``helpers.relay()`` which calls ``repro.gpu.device.queue_depth()`` crosses
the disengagement boundary in two hops, each of which looks innocent on
its own.  The :class:`ProjectModel` built here parses every module once
and links them into

* a **module/import graph** — who imports whom, at runtime vs under
  ``TYPE_CHECKING`` (annotations are free, ground truth is not);
* a **name-resolved call graph** — module-level functions, methods
  (including single-inheritance ``self.method()`` resolution through
  project base classes), aliased imports, ``from x import y`` re-exports
  followed transitively;
* **symbol reference tables** — which runtime-imported external symbols
  each function touches, module-level constant definitions (the registry
  pattern ``NAME = register_event_kind(...)``), and a used-name census
  per module (for unused-import detection).

The model is deliberately conservative: anything it cannot resolve by
name (calls on computed receivers, dynamic dispatch beyond one level of
inheritance) becomes an *unresolved* call site rather than a guess, so
rules built on top (NEON301/302, NEON5xx) report only provable chains.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.staticcheck.core import (
    ModuleContext,
    collect_files,
    parse_module,
    scope_statements,
)

#: Synthetic function name for a module's top-level statements.
MODULE_NODE = "<module>"


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` attribute chain → ``"a.b.c"``; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def is_type_checking_test(test: ast.expr) -> bool:
    """``TYPE_CHECKING`` or ``typing.TYPE_CHECKING`` as an ``if`` test."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


@dataclasses.dataclass(frozen=True)
class ImportBinding:
    """One name bound into a module namespace by an import statement."""

    local: str
    #: Fully qualified target: a module (``repro.gpu``) for plain
    #: imports, ``module.symbol`` for ``from module import symbol``.
    target: str
    kind: str  # "module" | "symbol"
    lineno: int
    col: int
    runtime: bool  # False inside ``if TYPE_CHECKING:`` bodies


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    raw: str  # the dotted text as written ("self.drain", "np.random.default_rng")
    #: ``raw`` with its head expanded through the module's import
    #: bindings ("np.random.default_rng" → "numpy.random.default_rng").
    #: Meaningful even when the target is outside the project.
    external: str
    lineno: int
    col: int
    #: Qualified name of the resolved project function/class, or None.
    callee: Optional[str]


@dataclasses.dataclass(frozen=True)
class SymbolRef:
    """A runtime reference from a function body to an imported symbol."""

    target: str  # fully qualified ("repro.gpu.device.GpuDevice" or module)
    lineno: int


@dataclasses.dataclass
class FunctionInfo:
    """One call-graph node: a function, method, or module top level."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]
    lineno: int
    node: ast.AST
    calls: list[CallSite] = dataclasses.field(default_factory=list)
    refs: list[SymbolRef] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class ClassInfo:
    name: str
    module: str
    lineno: int
    #: Base-class expressions as written (resolved lazily through bindings).
    bases: tuple[str, ...]
    #: method name -> qualified function name.
    methods: dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


@dataclasses.dataclass(frozen=True)
class ConstantDef:
    """A module-level ``NAME = <call>(...)`` assignment."""

    name: str
    module: str
    lineno: int
    #: Alias-expanded dotted name of the RHS call, or None for plain values.
    call: Optional[str]


class ModuleInfo:
    """Everything the model knows about one parsed module."""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.name = ctx.module
        self.path = ctx.path
        self.bindings: dict[str, ImportBinding] = {}
        #: Modules whose top level executes when this module is imported.
        self.runtime_imports: set[str] = set()
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.constants: dict[str, ConstantDef] = {}
        self.exported: Optional[set[str]] = None  # __all__, when present
        self.used_names: set[str] = set()

    # -- import bindings ------------------------------------------------
    def add_import(self, node: ast.stmt, runtime: bool) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                self._bind(node, local, target, "module", runtime)
                if runtime:
                    # ``import a.b`` executes a and a.b.
                    parts = alias.name.split(".")
                    for depth in range(1, len(parts) + 1):
                        self.runtime_imports.add(".".join(parts[:depth]))
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                return  # relative imports are not used in this repo
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self._bind(
                    node, local, f"{node.module}.{alias.name}", "symbol", runtime
                )
            if runtime:
                self.runtime_imports.add(node.module)

    def _bind(
        self, node: ast.stmt, local: str, target: str, kind: str, runtime: bool
    ) -> None:
        self.bindings[local] = ImportBinding(
            local=local,
            target=target,
            kind=kind,
            lineno=node.lineno,
            col=node.col_offset,
            runtime=runtime,
        )

    # -- name resolution -------------------------------------------------
    def expand(self, dotted: str) -> str:
        """Expand the head of a dotted name through the import bindings.

        ``np.random.default_rng`` → ``numpy.random.default_rng`` when the
        module did ``import numpy as np``; unbound heads pass through.
        """
        head, _, rest = dotted.partition(".")
        binding = self.bindings.get(head)
        if binding is None:
            return dotted
        return f"{binding.target}.{rest}" if rest else binding.target


def _add_function(
    info: ModuleInfo,
    qualname: str,
    cls: Optional[str],
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> None:
    """Index one definition as a call-graph node.

    The qualified name resolves to the last definition, as the name does
    at runtime; an earlier one of the same name (a property getter before
    its ``@x.setter``, a redefinition) stays a node as ``qualname@line``,
    so its body is linked and checked too.
    """
    earlier = info.functions.pop(qualname, None)
    if earlier is not None:
        earlier.qualname = f"{qualname}@{earlier.lineno}"
        info.functions[earlier.qualname] = earlier
    info.functions[qualname] = FunctionInfo(
        qualname=qualname,
        module=info.name,
        name=node.name,
        cls=cls,
        lineno=node.lineno,
        node=node,
    )


class ProjectModel:
    """The linked whole-program model; see the module docstring."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: qualified name -> FunctionInfo for every call-graph node.
        self.functions: dict[str, FunctionInfo] = {}
        #: qualified name -> ClassInfo.
        self.classes: dict[str, ClassInfo] = {}
        #: Files that failed to parse: path -> error text.
        self.unparsed: dict[Path, str] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        contexts: Iterable[ModuleContext] = (),
        paths: Iterable[Path] = (),
    ) -> "ProjectModel":
        """Build from parsed contexts and/or files (parsed here)."""
        model = cls()
        contexts = list(contexts)
        for path in collect_files(paths):
            parsed = parse_module(path)
            if isinstance(parsed, ModuleContext):
                contexts.append(parsed)
            else:
                model.unparsed[path] = parsed.message
        for ctx in contexts:
            model._index_module(ctx)
        for info in model.modules.values():
            model._link_module(info)
        return model

    def _index_module(self, ctx: ModuleContext) -> None:
        info = ModuleInfo(ctx)
        # Last definition wins on duplicate module names; the engine
        # splits such inputs with :func:`split_projects` first.
        self.modules[info.name] = info
        self._collect_imports(info, ctx.tree, runtime=True)
        self._collect_defs(info)
        self._collect_used_names(info)
        for function in info.functions.values():
            self.functions[function.qualname] = function
        for klass in info.classes.values():
            self.classes[klass.qualname] = klass

    def _collect_imports(
        self, info: ModuleInfo, node: ast.AST, runtime: bool
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and is_type_checking_test(child.test):
                for stmt in child.body:
                    self._collect_imports(info, stmt, runtime=False)
                    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                        info.add_import(stmt, runtime=False)
                for stmt in child.orelse:
                    self._collect_imports(info, stmt, runtime=runtime)
                    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                        info.add_import(stmt, runtime=runtime)
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                info.add_import(child, runtime=runtime)
            self._collect_imports(info, child, runtime=runtime)

    def _collect_defs(self, info: ModuleInfo) -> None:
        module_fn = FunctionInfo(
            qualname=f"{info.name}.{MODULE_NODE}",
            module=info.name,
            name=MODULE_NODE,
            cls=None,
            lineno=1,
            node=info.ctx.tree,
        )
        info.functions[module_fn.qualname] = module_fn
        for stmt in info.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _add_function(info, f"{info.name}.{stmt.name}", None, stmt)
            elif isinstance(stmt, ast.ClassDef):
                bases = tuple(
                    name
                    for name in (dotted_name(base) for base in stmt.bases)
                    if name is not None
                )
                klass = ClassInfo(
                    name=stmt.name,
                    module=info.name,
                    lineno=stmt.lineno,
                    bases=bases,
                )
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{info.name}.{stmt.name}.{item.name}"
                        klass.methods[item.name] = qual
                        _add_function(info, qual, stmt.name, item)
                info.classes[stmt.name] = klass
            elif isinstance(stmt, ast.Assign):
                self._collect_constant(info, stmt)
                self._collect_all(info, stmt)

    def _collect_constant(self, info: ModuleInfo, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return
        name = stmt.targets[0].id
        call: Optional[str] = None
        if isinstance(stmt.value, ast.Call):
            raw = dotted_name(stmt.value.func)
            if raw is not None:
                call = info.expand(raw)
        info.constants[name] = ConstantDef(
            name=name, module=info.name, lineno=stmt.lineno, call=call
        )

    def _collect_all(self, info: ModuleInfo, stmt: ast.Assign) -> None:
        if (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "__all__"
            and isinstance(stmt.value, (ast.List, ast.Tuple))
        ):
            info.exported = {
                element.value
                for element in stmt.value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            }

    def _collect_used_names(self, info: ModuleInfo) -> None:
        """Every name the module might reference at runtime or in types.

        Quoted annotations (``x: "Channel"``) are parsed so that
        TYPE_CHECKING imports used only in string annotations still count
        as used.
        """
        for node in ast.walk(info.ctx.tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                info.used_names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # Conservative: harvest identifier heads from string
                # constants that parse as expressions (covers quoted
                # annotations and typing.cast strings).
                text = node.value.strip()
                if text.isidentifier():
                    info.used_names.add(text)
                elif (
                    0 < len(text) < 200
                    and "." in text
                    and text.replace(".", "").replace("_", "").isalnum()
                ):
                    info.used_names.add(text.split(".", 1)[0])
        if info.exported:
            info.used_names.update(info.exported)

    # ------------------------------------------------------------------
    # Linking — resolve call sites and symbol references
    # ------------------------------------------------------------------
    def _link_module(self, info: ModuleInfo) -> None:
        for function in info.functions.values():
            if function.name == MODULE_NODE:
                body_nodes = list(scope_statements(info.ctx.tree))
            else:
                body_nodes = list(ast.walk(function.node))
            cls = info.classes.get(function.cls) if function.cls else None
            seen_refs: set[tuple[str, int]] = set()
            for node in body_nodes:
                if isinstance(node, ast.Call):
                    site = self._resolve_call(info, node, cls)
                    if site is not None:
                        function.calls.append(site)
                elif isinstance(node, ast.Name) and not isinstance(
                    node.ctx, ast.Store
                ):
                    binding = info.bindings.get(node.id)
                    if binding is not None and binding.runtime:
                        key = (binding.target, node.lineno)
                        if key not in seen_refs:
                            seen_refs.add(key)
                            function.refs.append(
                                SymbolRef(binding.target, node.lineno)
                            )
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    # Function-local runtime imports are references too.
                    if function.name == MODULE_NODE:
                        continue
                    names = (
                        [alias.name for alias in node.names]
                        if isinstance(node, ast.Import)
                        else [node.module or ""]
                    )
                    for name in names:
                        if name:
                            function.refs.append(SymbolRef(name, node.lineno))
            # Module-level: importing a module executes its top level.
            if function.name == MODULE_NODE:
                for target in sorted(info.runtime_imports):
                    if target in self.modules and target != info.name:
                        lineno = 1
                        for binding in info.bindings.values():
                            if binding.runtime and (
                                binding.target == target
                                or binding.target.startswith(target + ".")
                            ):
                                lineno = binding.lineno
                                break
                        function.calls.append(
                            CallSite(
                                raw=f"import {target}",
                                external=target,
                                lineno=lineno,
                                col=0,
                                callee=f"{target}.{MODULE_NODE}",
                            )
                        )

    def _resolve_call(
        self, info: ModuleInfo, node: ast.Call, cls: Optional[ClassInfo]
    ) -> Optional[CallSite]:
        raw = dotted_name(node.func)
        if raw is None:
            return None  # call on a computed expression; not resolvable
        external = info.expand(raw)
        callee = None
        parts = raw.split(".")
        if parts[0] == "self" and cls is not None and len(parts) == 2:
            callee = self._resolve_method(cls, parts[1])
        elif parts[0] in info.bindings:
            callee = self.resolve_symbol(external)
        else:
            callee = self.resolve_symbol(f"{info.name}.{raw}")
        if callee is not None and callee in self.classes:
            # Instantiation: charge the constructor when the project
            # defines one, else keep the class node itself.
            init = self.classes[callee].methods.get("__init__")
            callee = init or callee
        return CallSite(
            raw=raw,
            external=external,
            lineno=node.lineno,
            col=node.col_offset,
            callee=callee,
        )

    def _resolve_method(self, cls: ClassInfo, method: str) -> Optional[str]:
        """Resolve ``self.method()`` through the project's base classes."""
        queue = [cls]
        visited: set[str] = set()
        while queue:
            current = queue.pop(0)
            if current.qualname in visited:
                continue
            visited.add(current.qualname)
            if method in current.methods:
                return current.methods[method]
            owner = self.modules.get(current.module)
            if owner is None:
                continue
            for base in current.bases:
                base_qual = self._resolve_class(owner, base)
                if base_qual is not None and base_qual in self.classes:
                    queue.append(self.classes[base_qual])
        return None

    def _resolve_class(self, info: ModuleInfo, base: str) -> Optional[str]:
        head = base.split(".", 1)[0]
        if head in info.bindings:
            resolved = self.resolve_symbol(info.expand(base))
        else:
            resolved = self.resolve_symbol(f"{info.name}.{base}")
        if resolved is not None and resolved in self.classes:
            return resolved
        return None

    def resolve_symbol(self, candidate: str) -> Optional[str]:
        """Qualified function/class for a fully expanded dotted name.

        Follows ``from x import y`` re-export chains (``repro.core.
        SchedulerBase`` → ``repro.core.base.SchedulerBase``) with a
        visited guard so import cycles terminate.
        """
        return self._resolve(candidate, set())

    def _resolve(self, candidate: str, visited: set[str]) -> Optional[str]:
        if candidate in visited:
            return None
        visited.add(candidate)
        if candidate in self.functions or candidate in self.classes:
            return candidate
        parts = candidate.split(".")
        for split in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:split])
            if prefix not in self.modules:
                continue
            info = self.modules[prefix]
            remainder = parts[split:]
            direct = f"{prefix}.{'.'.join(remainder)}"
            if direct in self.functions or direct in self.classes:
                return direct
            head = remainder[0]
            # Class attribute: Cls.method
            if head in info.classes and len(remainder) == 2:
                method = self._resolve_method(info.classes[head], remainder[1])
                if method is not None:
                    return method
            binding = info.bindings.get(head)
            if binding is not None:
                rest = remainder[1:]
                target = ".".join([binding.target, *rest]) if rest else binding.target
                return self._resolve(target, visited)
            return None
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node_module(self, qualname: str) -> Optional[str]:
        if qualname in self.functions:
            return self.functions[qualname].module
        if qualname in self.classes:
            return self.classes[qualname].module
        return None

    def import_graph(self) -> dict[str, set[str]]:
        """module -> set of runtime-imported modules (project-internal)."""
        return {
            name: {
                target for target in info.runtime_imports if target in self.modules
            }
            for name, info in self.modules.items()
        }

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for module in sorted(self.modules):
            info = self.modules[module]
            for qual in sorted(info.functions):
                yield info.functions[qual]


def _source_root(ctx: ModuleContext) -> Path:
    """The directory a file's dotted module name is relative to."""
    depth = ctx.module.count(".") + (ctx.path.name == "__init__.py")
    return Path(ctx.path).resolve().parents[depth]


def split_projects(
    contexts: Sequence[ModuleContext],
) -> list[tuple[list[ModuleContext], set[str]]]:
    """Split parsed files into projects whose module names are unique.

    Each project is ``(contexts to link, paths it reports on)``.  With no
    dotted name shared by two files that is one project of everything.
    Otherwise there is one per source root (``a`` for ``a/pkg/mod.py``):
    its own files, plus the last file of every module name it lacks, so
    calls into other roots still resolve; it reports on its own files
    only, so each file is checked once, against its own package.
    """
    by_name: dict[str, ModuleContext] = {}
    for ctx in contexts:
        by_name[ctx.module] = ctx
    if len(by_name) == len(contexts):
        return [(list(contexts), {str(ctx.path) for ctx in contexts})]
    roots: dict[Path, list[ModuleContext]] = {}
    for ctx in contexts:
        roots.setdefault(_source_root(ctx), []).append(ctx)
    projects = []
    for own in roots.values():
        names = {ctx.module for ctx in own}
        guests = [ctx for name, ctx in by_name.items() if name not in names]
        projects.append((own + guests, {str(ctx.path) for ctx in own}))
    return projects


__all__ = [
    "MODULE_NODE",
    "CallSite",
    "ClassInfo",
    "ConstantDef",
    "FunctionInfo",
    "ImportBinding",
    "ModuleInfo",
    "ProjectModel",
    "SymbolRef",
    "dotted_name",
    "split_projects",
]
