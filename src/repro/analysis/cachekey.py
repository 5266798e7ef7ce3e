"""CACHE001: cache-key completeness dataflow.

The content-addressed :class:`~repro.harness.jobs.ResultCache` keys runs
on ``JobSpec.canonical()``, which encodes every ``JobSpec`` dataclass
field by construction.  The cache is only sound if every piece of
:class:`~repro.config.SimulationConfig` state the simulation *reads* is
reachable from those fields — otherwise two runs that differ in behavior
share a hash and the cache serves wrong results.  This rule checks the
*consumption* side:

1. every attribute read off a config-typed binding in SIM_PACKAGES must
   name a real ``SimulationConfig`` field/property/method (a stale or
   typo'd read is exactly the drift that silently decouples behavior
   from the hash);
2. ``JobSpec`` must carry the generic ``config`` catch-all field — that
   is what makes every scalar config field spec-expressible, so fields
   beyond the lifted set stay cache-visible;
3. with no catch-all, any read field that is not itself a spec field is
   reported as unreachable from the cache key.

Config-typed bindings are recognized conservatively, by annotation and
construction only: parameters annotated ``SimulationConfig``, variables
assigned from a ``SimulationConfig(...)`` call, and ``self.<attr>``
stored from such a parameter in ``__init__``.  Objects that merely
*look* similar (``FaultConfig``, ``ChaosConfig`` — also reached via
``.config`` attributes) never participate, so the rule has no opinion
about them.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.analysis.core import Finding, Project, Rule, SourceFile

__all__ = ["Cache001KeyCompleteness"]

_CONFIG_CLASS = "SimulationConfig"
_SPEC_CLASS = "JobSpec"
_CATCH_ALL_FIELD = "config"
#: Attribute names every dataclass instance answers without drift risk.
_DATACLASS_BUILTINS = frozenset({"__dict__", "__class__"})


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = (
            target.id
            if isinstance(target, ast.Name)
            else target.attr if isinstance(target, ast.Attribute) else ""
        )
        if name == "dataclass":
            return True
    return False


def _class_surface(node: ast.ClassDef) -> Tuple[Set[str], Set[str]]:
    """(dataclass fields, properties/methods) declared on *node*."""
    fields: Set[str] = set()
    members: Set[str] = set()
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            fields.add(item.target.id)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    members.add(target.id)
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(item.name)
    return fields, members


def _find_class(
    project: Project, name: str, dataclass_only: bool = True
) -> Optional[Tuple[SourceFile, ast.ClassDef]]:
    for source in project:
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name == name
                and (not dataclass_only or _is_dataclass(node))
            ):
                return source, node
    return None


def _annotation_is_config(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id == _CONFIG_CLASS
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == _CONFIG_CLASS
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        return annotation.value.split(".")[-1] == _CONFIG_CLASS
    return False


def _is_config_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = (
        func.id
        if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute) else ""
    )
    return name == _CONFIG_CLASS


class _BindingCollector(ast.NodeVisitor):
    """Find names (and ``self.<attr>`` slots) bound to a SimulationConfig."""

    def __init__(self) -> None:
        #: plain variable names bound to a config, per enclosing function
        self.names: Set[str] = set()
        #: ``self.<attr>`` slots bound to a config anywhere in the class
        self.self_attrs: Set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: ast.AST) -> None:
        args = node.args  # type: ignore[attr-defined]
        config_params: Set[str] = set()
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if _annotation_is_config(arg.annotation):
                config_params.add(arg.arg)
                self.names.add(arg.arg)
        for stmt in ast.walk(node):  # type: ignore[arg-type]
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            value = stmt.value
            bound = (
                isinstance(value, ast.Name) and value.id in config_params
            ) or _is_config_call(value)
            if not bound:
                continue
            if isinstance(target, ast.Name):
                self.names.add(target.id)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.self_attrs.add(target.attr)
        self.generic_visit(node)


def _config_reads(source: SourceFile) -> Iterator[Tuple[str, ast.Attribute]]:
    """(attribute name, node) for every config-typed attribute Load."""
    collector = _BindingCollector()
    collector.visit(source.tree)
    if not collector.names and not collector.self_attrs:
        return
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Attribute) or not isinstance(
            node.ctx, ast.Load
        ):
            continue
        receiver = node.value
        if isinstance(receiver, ast.Name) and receiver.id in collector.names:
            yield node.attr, node
        elif (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and receiver.attr in collector.self_attrs
        ):
            yield node.attr, node


class Cache001KeyCompleteness(Rule):
    """Config state read by the simulation is reachable from the cache key."""

    id = "CACHE001"
    summary = (
        "every SimulationConfig field read in SIM_PACKAGES is reachable "
        "from the JobSpec fields"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        config = _find_class(project, _CONFIG_CLASS)
        if config is None:
            return  # partial run without the config class: nothing to check
        _config_source, config_class = config
        fields, members = _class_surface(config_class)
        known = fields | members | _DATACLASS_BUILTINS

        spec = _find_class(project, _SPEC_CLASS)
        spec_fields: Set[str] = set()
        if spec is not None:
            spec_source, spec_class = spec
            spec_fields, _ = _class_surface(spec_class)
            if _CATCH_ALL_FIELD not in spec_fields:
                yield spec_source.finding(
                    self.id,
                    spec_class,
                    f"JobSpec has no generic {_CATCH_ALL_FIELD!r} "
                    f"catch-all field: {_CONFIG_CLASS} fields beyond the "
                    "lifted spec fields are invisible to the cache key",
                )

        for source in project.sim_files():
            for attr, node in _config_reads(source):
                if attr not in known:
                    yield Finding(
                        path=source.path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        rule=self.id,
                        message=(
                            f"read of {_CONFIG_CLASS}.{attr}, which is not "
                            "a declared field, property, or method "
                            "(stale read decoupled from the config "
                            "dataclass?)"
                        ),
                    )
                    continue
                reachable = (
                    _CATCH_ALL_FIELD in spec_fields or attr in spec_fields
                )
                if spec is None or attr not in fields or reachable:
                    continue  # no spec, or derived state, or reachable
                yield Finding(
                    path=source.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule=self.id,
                    message=(
                        f"config field {attr!r} is read here but "
                        "unreachable from the JobSpec fields: runs "
                        "differing in it would share a cache hash"
                    ),
                )
