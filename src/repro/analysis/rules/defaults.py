"""``no-restated-defaults``: solver knobs have exactly one home.

PR 4 centralised every solver knob (tolerance, node limits, worker
count, ...) in :class:`repro.api.config.VerifyConfig`, whose module also
exports the canonical ``DEFAULT_*`` constants.  A function signature or
dataclass field elsewhere that restates a knob's default as a *literal*
(``workers: int = 1``) silently forks the default: bump the constant and
the restated copy keeps the old value.  This rule superseded the
runtime ``inspect``-based gate that used to live in ``tests/test_api.py``.

Flagged: a parameter or class-body annotated field whose name is a knob
and whose default is a literal constant *equal to the knob's canonical
default* -- the drift hazard.  A literal that *differs* from the
canonical value is a deliberate per-entry-point override (``method=
"symbolic"`` for Proposition 6) and stays legal; so do ``None`` (resolved
at use) and name references (``DEFAULT_WORKERS``, ``config.workers``).
The canonical values are read live from ``VerifyConfig()``, so the rule
can never itself drift out of sync.

Also flagged, whatever its default: a knob-named parameter (or dataclass
field) beside a ``config`` one -- a second channel for a setting the
config carries.  Callers derive one config instead.
"""

from __future__ import annotations

import ast
import dataclasses
from functools import lru_cache
from typing import Dict, Iterator, Optional

from repro.analysis.core import Finding, ModuleContext, Rule

__all__ = ["NoRestatedDefaultsRule", "canonical_defaults"]


@lru_cache(maxsize=1)
def canonical_defaults() -> Dict[str, object]:
    """Knob name -> canonical default, read live from ``VerifyConfig``
    so the rule tracks the single source of truth by construction."""
    from repro.api.config import VerifyConfig

    instance = VerifyConfig()
    return {field.name: getattr(instance, field.name)
            for field in dataclasses.fields(VerifyConfig)}


class NoRestatedDefaultsRule(Rule):
    name = "no-restated-defaults"
    description = ("solver-knob defaults must reference "
                   "repro.api.config, not restate literals")
    # Solver modules plus the API layer that fronts them; serve/ ships
    # knobs only as config_json wire strings, so it has nothing to
    # restate, and test/bench code legitimately pins literals.
    scope = ("repro.exact", "repro.core", "repro.api", "repro.netabs")
    # The single source of truth defines the literals, by definition.
    exempt = ("repro.api.config",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_signature(ctx, node)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_class_body(ctx, node)

    def _check_signature(self, ctx: ModuleContext,
                         node: ast.AST) -> Iterator[Finding]:
        args = node.args
        positional = args.posonlyargs + args.args
        params = positional + args.kwonlyargs
        yield from self._check_channels(
            ctx, f"{node.name}()", [(arg.arg, arg) for arg in params])
        # Defaults right-align against the positional parameters.
        for arg, default in zip(positional[len(positional)
                                           - len(args.defaults):],
                                args.defaults):
            yield from self._check_default(ctx, arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield from self._check_default(ctx, arg.arg, default)

    def _check_class_body(self, ctx: ModuleContext,
                          node: ast.ClassDef) -> Iterator[Finding]:
        # Annotated fields: a dataclass's generated __init__ takes them.
        fields = [(stmt.target.id, stmt) for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)]
        yield from self._check_channels(ctx, node.name, fields)
        for name, stmt in fields:
            if stmt.value is not None:
                yield from self._check_default(ctx, name, stmt.value)

    def _check_channels(self, ctx: ModuleContext, owner: str,
                        params) -> Iterator[Finding]:
        """Flag each knob-named parameter beside a ``config`` one."""
        if not any(name == "config" for name, _ in params):
            return
        canonical = canonical_defaults()
        for name, node in params:
            if name in canonical:
                yield self.finding(
                    ctx, node,
                    f"{owner} takes both 'config' and the knob {name!r}; "
                    "read it from the config (a caller wanting another "
                    "value derives one with config.replace) so a setting "
                    "has one channel")

    def _check_default(self, ctx: ModuleContext, name: str,
                       default: ast.expr) -> Iterator[Finding]:
        canonical = canonical_defaults()
        if name not in canonical:
            return
        literal = self._literal_value(default)
        if literal is None:
            return
        value = literal[0]
        if not self._same_value(value, canonical[name]):
            return  # a deliberate override, not a restated default
        yield self.finding(
            ctx, default,
            f"knob {name!r} restates its canonical default "
            f"({value!r}) as a literal; reference the DEFAULT_* "
            "constant (or resolve from VerifyConfig at use) so a "
            "config change cannot silently fork it")

    @staticmethod
    def _literal_value(node: ast.expr) -> Optional[tuple]:
        """``(value,)`` for a non-``None`` literal constant (unary minus
        included), else ``None`` -- wrapped so a literal ``False``/``0``
        survives the None-test."""
        sign = 1
        if isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, (ast.USub, ast.UAdd)):
            sign = -1 if isinstance(node.op, ast.USub) else 1
            node = node.operand
        if isinstance(node, ast.Constant) and node.value is not None:
            value = node.value
            if sign == -1 and isinstance(value, (int, float)):
                value = -value
            return (value,)
        return None

    @staticmethod
    def _same_value(literal: object, canonical: object) -> bool:
        # bool-vs-int discipline: True must not match workers=1.
        if isinstance(literal, bool) != isinstance(canonical, bool):
            return False
        try:
            return bool(literal == canonical)
        except Exception:
            return False
