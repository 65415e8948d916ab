"""Project-wide symbol table and call graph over a linted file set.

The per-file rules of :mod:`repro.lint.rules` see one AST at a time;
the parallel-runner invariants (worker purity, pickle safety) are
properties of *paths through the program* — ``execute_cell`` calls
``ctx.run`` calls ``self.workload`` calls ``build_workload`` — so they
need a resolver that can follow a call from one module into another.

This module builds that resolver from nothing but the linted ASTs:

:class:`ModuleTable`
    Maps every linted file to a module record (dotted name, imports,
    top-level functions, classes with methods, module-level assigns).
    Import targets resolve by exact dotted name first and then by path
    suffix, so a fixture tree that spells ``from repro.runner.cells
    import Cell`` but lives under ``tmp/runner/cells.py`` still links.
:class:`CallGraph`
    One node per function or method (qualified as
    ``module.Class.method``), one edge per statically resolvable call:
    direct names, imported names, module-attribute chains,
    ``self.``/``cls.`` methods (including inherited ones), annotated
    parameters, locally constructed instances, constructor calls, and
    function references passed as call arguments (a referenced callee
    may be invoked by the receiver, so reachability treats it as
    called).  Unresolvable calls — stdlib, dynamic dispatch — simply
    produce no edge: the graph under-approximates edges out of the
    analyzed set and over-approximates within it, which is the right
    bias for "nothing reachable from a worker writes a global".

Everything is deterministic: modules, functions, and edges iterate in
sorted order, so lint output (and the analysis cache keyed on it) never
depends on filesystem enumeration order.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext, ProjectContext

__all__ = ["FunctionInfo", "ClassInfo", "ModuleInfo", "ModuleTable", "CallGraph"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_for(ctx: "FileContext") -> str:
    """Dotted module name of a linted file.

    Walks up from the file while the directory is a package (has an
    ``__init__.py``); a file outside any package is just its stem.
    """
    path = ctx.path.resolve()
    parts = [path.stem if path.stem != "__init__" else None]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        if parent.parent == parent:  # pragma: no cover - filesystem root
            break
        parent = parent.parent
    return ".".join(reversed([p for p in parts if p]))


class FunctionInfo:
    """One function, method, nested function, or lambda in the graph."""

    __slots__ = ("qualname", "module", "ctx", "node", "cls")

    def __init__(self, qualname: str, module: str, ctx: "FileContext",
                 node: ast.AST, cls: str | None = None):
        self.qualname = qualname
        self.module = module
        self.ctx = ctx
        self.node = node
        self.cls = cls

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname!r})"


class ClassInfo:
    """One class definition: methods plus (resolvable) base names."""

    __slots__ = ("name", "qualname", "module", "node", "methods", "bases")

    def __init__(self, name: str, qualname: str, module: str,
                 node: ast.ClassDef):
        self.name = name
        self.qualname = qualname
        self.module = module
        self.node = node
        self.methods: dict[str, FunctionInfo] = {}
        #: Base expressions as dotted strings (resolved later, best effort).
        self.bases: list[str] = [
            dotted for dotted in (_dotted(b) for b in node.bases)
            if dotted is not None
        ]


class ModuleInfo:
    """Symbol table of one linted module."""

    __slots__ = ("name", "ctx", "imports", "import_froms", "functions",
                 "classes", "assigns")

    def __init__(self, name: str, ctx: "FileContext"):
        self.name = name
        self.ctx = ctx
        #: ``import a.b.c [as m]`` -> {local head or alias: "a.b.c"}.
        self.imports: dict[str, str] = {}
        #: ``from mod import x [as y]`` -> {y: ("mod", "x")}.
        self.import_froms: dict[str, tuple[str, str]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: Module-level simple ``NAME = <expr>`` assignments.
        self.assigns: dict[str, ast.expr] = {}


def _dotted(node: ast.AST) -> str | None:
    """Flatten a ``Name``/``Attribute`` chain to ``a.b.c`` (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ModuleTable:
    """Every linted module's symbol table, with an import resolver."""

    def __init__(self, modules: dict[str, ModuleInfo]):
        self.modules = modules
        self._by_path = {
            info.ctx.path.resolve().as_posix(): info
            for info in modules.values()
        }

    @classmethod
    def build(cls, project: "ProjectContext") -> "ModuleTable":
        modules: dict[str, ModuleInfo] = {}
        for ctx in sorted(project.files, key=lambda c: c.path.as_posix()):
            info = ModuleInfo(module_name_for(ctx), ctx)
            cls._index_module(info)
            # Last writer wins on name collisions (two fixture trees with
            # the same stem); paths disambiguate via find_by_suffix.
            modules[info.name] = info
        return cls(modules)

    @staticmethod
    def _index_module(info: ModuleInfo) -> None:
        for stmt in info.ctx.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name
                    info.imports[local] = target
            elif isinstance(stmt, ast.ImportFrom):
                module = ("." * stmt.level) + (stmt.module or "")
                for alias in stmt.names:
                    info.import_froms[alias.asname or alias.name] = (
                        module, alias.name
                    )
            elif isinstance(stmt, _FUNC_NODES):
                qual = f"{info.name}.{stmt.name}"
                info.functions[stmt.name] = FunctionInfo(
                    qual, info.name, info.ctx, stmt
                )
            elif isinstance(stmt, ast.ClassDef):
                cls_info = ClassInfo(
                    stmt.name, f"{info.name}.{stmt.name}", info.name, stmt
                )
                for member in stmt.body:
                    if isinstance(member, _FUNC_NODES):
                        cls_info.methods[member.name] = FunctionInfo(
                            f"{cls_info.qualname}.{member.name}",
                            info.name, info.ctx, member, cls=stmt.name,
                        )
                info.classes[stmt.name] = cls_info
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info.assigns[target.id] = stmt.value
            elif (isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)
                  and stmt.value is not None):
                info.assigns[stmt.target.id] = stmt.value

    # -- resolution ------------------------------------------------------

    def resolve_module(self, dotted: str,
                       importer: ModuleInfo | None = None) -> ModuleInfo | None:
        """The linted module a dotted import target refers to, if any.

        Exact name match wins; otherwise the longest path-suffix match
        (``repro.runner.cells`` finds a fixture's ``runner/cells.py``).
        Relative targets (leading dots) resolve against the importer.
        """
        if dotted.startswith("."):
            if importer is None:
                return None
            return self._resolve_relative(dotted, importer)
        info = self.modules.get(dotted)
        if info is not None:
            return info
        parts = dotted.split(".")
        for start in range(len(parts)):
            tail = parts[start:]
            for suffix in (
                "/".join(tail) + ".py",
                "/".join(tail) + "/__init__.py",
            ):
                matches = sorted(
                    path for path in self._by_path
                    if path.endswith("/" + suffix) or path == suffix
                )
                if matches:
                    return self._by_path[matches[0]]
        return None

    def _resolve_relative(self, dotted: str,
                          importer: ModuleInfo) -> ModuleInfo | None:
        level = len(dotted) - len(dotted.lstrip("."))
        module = dotted[level:]
        base = importer.ctx.path.resolve().parent
        for _ in range(level - 1):
            base = base.parent
        if module:
            candidate = base.joinpath(*module.split("."))
        else:
            candidate = base
        for path in (candidate.with_suffix(".py"),
                     candidate / "__init__.py"):
            info = self._by_path.get(path.as_posix())
            if info is not None:
                return info
        return None

    def resolve_class(self, dotted: str,
                      importer: ModuleInfo) -> ClassInfo | None:
        """Resolve a class reference (bare or module-qualified) to a record."""
        if "." not in dotted:
            local = importer.classes.get(dotted)
            if local is not None:
                return local
            origin = importer.import_froms.get(dotted)
            if origin is not None:
                target = self.resolve_module(origin[0], importer)
                if target is not None:
                    return target.classes.get(origin[1])
            return None
        head, attr = dotted.rsplit(".", 1)
        module = self._resolve_value_module(head, importer)
        if module is not None:
            return module.classes.get(attr)
        return None

    def _resolve_value_module(self, dotted: str,
                              importer: ModuleInfo) -> ModuleInfo | None:
        """The module a dotted *value* expression names, via imports."""
        target = importer.imports.get(dotted)
        if target is not None:
            return self.resolve_module(target, importer)
        # ``import a.b.c`` binds ``a``; ``a.b.c`` in an expression walks
        # attribute access down the real package path.
        head = dotted.split(".", 1)[0]
        if head in importer.imports:
            return self.resolve_module(dotted, importer)
        origin = importer.import_froms.get(dotted)
        if origin is not None:
            # ``from pkg import mod`` used as ``mod.f()``.
            module, name = origin
            return self.resolve_module(
                (module + "." + name) if module else name, importer
            )
        return None


class CallGraph:
    """Functions and resolved call edges over a :class:`ModuleTable`."""

    def __init__(self, table: ModuleTable):
        self.table = table
        self.functions: dict[str, FunctionInfo] = {}
        self.edges: dict[str, set[str]] = {}

    @classmethod
    def build(cls, project: "ProjectContext") -> "CallGraph":
        graph = cls(ModuleTable.build(project))
        for name in sorted(graph.table.modules):
            module = graph.table.modules[name]
            for fn in sorted(module.functions.values(),
                             key=lambda f: f.qualname):
                graph._add_function(module, fn)
            for cls_info in sorted(module.classes.values(),
                                   key=lambda c: c.qualname):
                for method in sorted(cls_info.methods.values(),
                                     key=lambda f: f.qualname):
                    graph._add_function(module, method)
        return graph

    # -- queries ---------------------------------------------------------

    def function(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def functions_named(self, name: str,
                        path_suffix: str | None = None) -> list[FunctionInfo]:
        """Functions with a given bare name, optionally filtered by file."""
        return [
            fn for qual, fn in sorted(self.functions.items())
            if fn.name == name
            and (path_suffix is None or fn.ctx.matches(path_suffix))
        ]

    def callees(self, qualname: str) -> tuple[str, ...]:
        return tuple(sorted(self.edges.get(qualname, ())))

    def reachable_from(self, roots: Iterable[str]) -> list[FunctionInfo]:
        """Every function reachable from ``roots`` (roots included), sorted."""
        seen: set[str] = set()
        stack = sorted(set(roots))
        while stack:
            qual = stack.pop()
            if qual in seen or qual not in self.functions:
                continue
            seen.add(qual)
            stack.extend(self.edges.get(qual, ()))
        return [self.functions[q] for q in sorted(seen)]

    # -- construction ----------------------------------------------------

    def _add_function(self, module: ModuleInfo, fn: FunctionInfo) -> None:
        self.functions[fn.qualname] = fn
        edges = self.edges.setdefault(fn.qualname, set())
        param_types = self._param_types(module, fn)
        local_types = dict(param_types)
        body = fn.node.body if hasattr(fn.node, "body") else [fn.node]

        for stmt in body if isinstance(body, list) else [body]:
            for node in ast.walk(stmt):
                if isinstance(node, _FUNC_NODES) and node is not fn.node:
                    # A nested def: model "defined here" as "may run here"
                    # (closures escape through returns and callbacks).
                    nested = FunctionInfo(
                        f"{fn.qualname}.<locals>.{node.name}",
                        fn.module, fn.ctx, node, cls=fn.cls,
                    )
                    if nested.qualname not in self.functions:
                        self._add_function(module, nested)
                    edges.add(nested.qualname)
                elif isinstance(node, ast.Lambda):
                    nested = FunctionInfo(
                        f"{fn.qualname}.<locals>.<lambda:L{node.lineno}>",
                        fn.module, fn.ctx, node, cls=fn.cls,
                    )
                    if nested.qualname not in self.functions:
                        self._add_function(module, nested)
                    edges.add(nested.qualname)
                elif isinstance(node, ast.Assign):
                    self._track_local_type(module, node, local_types)
                elif isinstance(node, ast.Call):
                    self._add_call_edges(module, fn, node, local_types, edges)

    def _param_types(self, module: ModuleInfo,
                     fn: FunctionInfo) -> dict[str, ClassInfo]:
        """Annotated parameters resolved to linted classes."""
        types: dict[str, ClassInfo] = {}
        args_node = getattr(fn.node, "args", None)
        if args_node is None:
            return types
        for arg in (args_node.posonlyargs + args_node.args
                    + args_node.kwonlyargs):
            annotation = arg.annotation
            if annotation is None:
                continue
            if (isinstance(annotation, ast.Constant)
                    and isinstance(annotation.value, str)):
                dotted = annotation.value.strip().split("|")[0].strip()
            else:
                dotted = _dotted(annotation)
            if dotted:
                resolved = self.table.resolve_class(dotted, module)
                if resolved is not None:
                    types[arg.arg] = resolved
        return types

    def _track_local_type(self, module: ModuleInfo, node: ast.Assign,
                          local_types: dict[str, ClassInfo]) -> None:
        """``x = ClassName(...)`` gives ``x`` a resolvable type."""
        if not (isinstance(node.value, ast.Call) and len(node.targets) == 1):
            return
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            return
        dotted = _dotted(node.value.func)
        if dotted is None:
            return
        resolved = self.table.resolve_class(dotted, module)
        if resolved is not None:
            local_types[target.id] = resolved

    def _add_call_edges(self, module: ModuleInfo, fn: FunctionInfo,
                        call: ast.Call, local_types: dict[str, ClassInfo],
                        edges: set[str]) -> None:
        target = self._resolve_callee(module, fn, call.func, local_types)
        if target is not None:
            edges.add(target)
        # A call through a module-level dispatch table
        # (``TABLE[key](...)``, ``TABLE[key].execute(...)``) may reach
        # any function the table's literal references.
        head = call.func
        while isinstance(head, ast.Attribute):
            head = head.value
        if (isinstance(head, ast.Subscript)
                and isinstance(head.value, ast.Name)
                and head.value.id in module.assigns):
            for node in ast.walk(module.assigns[head.value.id]):
                if isinstance(node, ast.Name):
                    referenced = self._resolve_callee(
                        module, fn, node, local_types
                    )
                    if referenced is not None:
                        edges.add(referenced)
        # A function *referenced* in an argument (``pool.submit(worker,
        # cell)``, ``initializer=_worker_init``) may be called by the
        # receiver; treat the reference as a call for reachability.
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                referenced = self._resolve_callee(
                    module, fn, arg, local_types
                )
                if referenced is not None:
                    edges.add(referenced)

    def _resolve_callee(self, module: ModuleInfo, fn: FunctionInfo,
                        func: ast.AST,
                        local_types: dict[str, ClassInfo]) -> str | None:
        dotted = _dotted(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")

        if not rest:
            # Bare name: local function, imported function, or constructor.
            local = module.functions.get(head)
            if local is not None:
                return local.qualname
            cls_info = self.table.resolve_class(head, module)
            if cls_info is not None:
                init = cls_info.methods.get("__init__")
                return init.qualname if init is not None else None
            origin = module.import_froms.get(head)
            if origin is not None:
                target = self.table.resolve_module(origin[0], module)
                if target is not None:
                    imported = target.functions.get(origin[1])
                    if imported is not None:
                        return imported.qualname
            return None

        if head in ("self", "cls") and fn.cls is not None:
            return self._resolve_method(
                module.classes.get(fn.cls), rest, module
            )
        bound = local_types.get(head)
        if bound is not None:
            return self._resolve_method(bound, rest, module)
        # ``ClassName.method`` (e.g. ``Cell.make``).
        cls_info = self.table.resolve_class(head, module)
        if cls_info is not None:
            return self._resolve_method(cls_info, rest, module)
        # ``module.path.func``: strip the trailing attribute, resolve the
        # rest as a module value.
        mod_part, _, attr = dotted.rpartition(".")
        target = self.table._resolve_value_module(mod_part, module)
        if target is not None:
            imported = target.functions.get(attr)
            if imported is not None:
                return imported.qualname
            cls_info = target.classes.get(attr)
            if cls_info is not None:
                init = cls_info.methods.get("__init__")
                return init.qualname if init is not None else None
        return None

    def _resolve_method(self, cls_info: ClassInfo | None, rest: str,
                        module: ModuleInfo,
                        _depth: int = 0) -> str | None:
        """Resolve ``<attr chain>`` against a class, walking bases."""
        if cls_info is None or _depth > 8:
            return None
        name = rest.split(".", 1)[0]
        method = cls_info.methods.get(name)
        if method is not None:
            return method.qualname
        owner = self.table.modules.get(cls_info.module, module)
        for base in cls_info.bases:
            base_info = self.table.resolve_class(base, owner)
            if base_info is not None:
                found = self._resolve_method(
                    base_info, rest, owner, _depth + 1
                )
                if found is not None:
                    return found
        return None


def iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    """All call nodes of a tree, in source order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node
