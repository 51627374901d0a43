"""Wire rules: the executor boundary speaks strings, and only the codec
reads wire documents.

``wire-discipline``: the executor boundary speaks strings, not objects.

PR 5's serving design keeps every executor behind one contract --
``execute(spec_json, config_json, timeout=None) -> verdict dict`` -- so
that swapping an in-process thread for a subprocess or a remote machine
(PR 7) changes nothing above it.  The contract only holds if *both*
sides stay on the wire: an ``execute()`` implementation that accepts a
``Spec`` object, or a call site that passes one, works in-process today
and breaks the moment the job crosses a process boundary.

Two checks, both scoped to ``repro.serve``:

* every ``def execute`` parameter (beyond ``self`` and ``timeout``) must
  be named ``*_json`` -- the naming convention *is* the contract;
* every ``.execute(...)`` call-site argument must be wire-shaped: a
  ``*_json`` name/attribute, a serializer call (``*_to_json``/
  ``json.dumps``), a string constant, or a plain string variable already
  on the wire.  Database cursors (``conn.execute(sql)``) are a different
  protocol and are left to ``store-discipline``.

``wire-scalars``: every wire document is decoded by the table-driven
codec in ``repro.api.serialize``, which checks each value's kind once,
as it is read.  A hand-written ``data["key"]`` or ``data.get("key")``
elsewhere in ``repro.api`` is a decoder with no kind check -- the
pass-through that let ``"false"`` decode as a true flag.  Receivers
named like a wire document (``data``, ``doc``, ``document``,
``payload``, ``body``, ``wire``) may not be subscripted or ``.get``-read
outside the codec module.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, Rule

__all__ = ["WireDisciplineRule", "WireScalarsRule"]

#: Receivers whose ``.execute`` is the DB-API, not the executor contract.
_DB_RECEIVERS = frozenset({"conn", "_conn", "connection", "cursor", "cur",
                           "db"})

#: Call-site names that produce wire strings.
_SERIALIZERS = ("to_json", "dumps")


class WireDisciplineRule(Rule):
    name = "wire-discipline"
    description = ("executor execute() boundaries pass only wire "
                   "strings (spec_json/config_json), never objects")
    scope = ("repro.serve",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == "execute":
                yield from self._check_definition(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    # ------------------------------------------------------------ def side
    def _check_definition(self, ctx: ModuleContext,
                          node: ast.AST) -> Iterator[Finding]:
        args = node.args
        params = [arg for arg in args.posonlyargs + args.args
                  + args.kwonlyargs if arg.arg not in ("self", "cls")]
        for param in params:
            if param.arg == "timeout" or param.arg.endswith("_json"):
                continue
            yield self.finding(
                ctx, param,
                f"execute() parameter {param.arg!r} is not wire-shaped; "
                "executor boundaries take *_json strings (plus an "
                "optional timeout)")

    # ----------------------------------------------------------- call side
    def _check_call(self, ctx: ModuleContext,
                    node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "execute":
            return
        hint = ctx.receiver_hint(func)
        if hint in _DB_RECEIVERS:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords
                                      if kw.arg != "timeout"]:
            if not self._wire_shaped(arg):
                yield self.finding(
                    ctx, arg,
                    "argument to .execute() is not wire-shaped "
                    f"({ast.unparse(arg)}); serialize to a *_json "
                    "string before crossing the executor boundary")

    @staticmethod
    def _wire_shaped(arg: ast.expr) -> bool:
        if isinstance(arg, ast.Constant):
            return isinstance(arg.value, (str, int, float, type(None)))
        if isinstance(arg, ast.Starred):
            arg = arg.value
        if isinstance(arg, ast.Name):
            return arg.id.endswith("_json") or arg.id == "timeout" \
                or arg.id.endswith("timeout")
        if isinstance(arg, ast.Attribute):
            return arg.attr.endswith("_json") \
                or arg.attr.endswith("timeout")
        if isinstance(arg, ast.Call):
            callee = arg.func
            terminal = callee.attr if isinstance(callee, ast.Attribute) \
                else callee.id if isinstance(callee, ast.Name) else ""
            return terminal.endswith(_SERIALIZERS[0]) \
                or terminal == _SERIALIZERS[1] \
                or terminal.endswith("_json")
        if isinstance(arg, ast.Subscript):
            # job["spec_json"] / row["config_json"]: a wire field lookup.
            index = arg.slice
            return isinstance(index, ast.Constant) \
                and isinstance(index.value, str) \
                and index.value.endswith("_json")
        return False


#: Names that mark a variable as a wire document.
_DOCUMENT_NAMES = frozenset({"data", "doc", "document", "payload", "body",
                             "wire"})


class WireScalarsRule(Rule):
    name = "wire-scalars"
    description = ("wire documents in repro.api are read only by the "
                   "codec (no data[...] or data.get(...) outside "
                   "repro.api.serialize)")
    scope = ("repro.api",)
    exempt = ("repro.api.serialize",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, ast.Load):
                receiver = node.value
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get":
                receiver = node.func.value
            else:
                continue
            if isinstance(receiver, ast.Name) \
                    and receiver.id in _DOCUMENT_NAMES:
                yield self.finding(
                    ctx, node,
                    f"wire document read by hand ({ast.unparse(node)}); "
                    "describe the field in a repro.api.serialize table "
                    "so its kind is checked when it is read")
