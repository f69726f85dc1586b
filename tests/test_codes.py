"""Every diagnostic code that ucdoc mints is documented, and every documented
code is minted.

The codes are read from the package's source with :mod:`ast`, at each place
that makes a finding: the lexer's problem tuples, the parser's ``error``
calls, ``error`` in ``model._validate``, ``Diagnostic(...)`` in ``catalog``
and ``risk``, and ``diagram._warn``.  A code is documented in the table of
``ucdoc.model``'s docstring (the validation codes) or in the README's
Diagnostics table.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import ucdoc
from conftest import TESTS_DIR
from test_model import validation_codes

SOURCE = Path(ucdoc.__file__).parent

# The functions that construct a ``Diagnostic``, by module.  Each one is
# either a place that mints a code, or the sink of the calls that do.
MAKERS = {
    ("catalog", "build_catalog"),
    ("diagram", "_warn"),
    ("lexer", "_diagnostics"),
    ("model", "error"),
    ("risk", "misuse_diagnostics"),
}


def tree(name: str) -> ast.Module:
    return ast.parse((SOURCE / f"{name}.py").read_text(encoding="utf-8"))


def functions(node: ast.AST) -> list[ast.FunctionDef]:
    return [n for n in ast.walk(node) if isinstance(n, ast.FunctionDef)]


def own_nodes(fn: ast.FunctionDef):
    """``fn`` and its nodes, leaving out those of nested functions."""
    stack = [fn]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, ast.FunctionDef))


def is_call(node: ast.AST, name: str) -> bool:
    """Whether ``node`` calls ``name``, or a method ``name``."""
    return isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) == name


def calls(node: ast.AST, name: str) -> list[ast.Call]:
    return [n for n in ast.walk(node) if is_call(n, name)]


def values(node: ast.expr, scope: ast.AST) -> set[str]:
    """The strings ``node`` can hold: a literal, either branch of a
    conditional, or a name that ``scope`` binds by assignment or by a
    ``for`` over a literal tuple of tuples."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return values(node.body, scope) | values(node.orelse, scope)
    found: set[str] = set()
    if isinstance(node, ast.Name):
        for n in ast.walk(scope):
            if isinstance(n, ast.Assign) and any(
                    getattr(t, "id", None) == node.id for t in n.targets):
                found |= values(n.value, scope)
            elif isinstance(n, ast.For) and isinstance(n.target, ast.Tuple):
                names = [getattr(t, "id", None) for t in n.target.elts]
                if node.id in names:
                    found |= {code for row in n.iter.elts for code in
                              values(row.elts[names.index(node.id)], scope)}
    assert found, f"line {node.lineno}: no code in {ast.unparse(node)}"
    return found


def minted_codes() -> set[str]:
    codes: set[str] = set()
    # A lexer problem is a (code, message, offset, length) tuple.
    lexer = tree("lexer")
    for n in ast.walk(lexer):
        if isinstance(n, ast.Tuple) and len(n.elts) == 4 and isinstance(
                n.elts[0], ast.Constant):
            codes |= values(n.elts[0], lexer)
    # A parser error takes its code from ``code=``, or the default.
    parser = tree("parser")
    error = next(fn for fn in functions(parser) if fn.name == "error")
    names = [a.arg for a in error.args.args][-len(error.args.defaults):]
    codes |= values(dict(zip(names, error.args.defaults))["code"], error)
    for call in calls(parser, "error"):
        codes |= {code for kw in call.keywords if kw.arg == "code"
                  for code in values(kw.value, parser)}
    validate = next(fn for fn in functions(tree("model"))
                    if fn.name == "_validate")
    for call in calls(validate, "error"):
        codes |= values(call.args[0], validate)
    for name in ("catalog", "risk"):
        module = tree(name)
        for call in calls(module, "Diagnostic"):
            codes |= values(call.args[1], module)
    diagram = tree("diagram")
    for call in calls(diagram, "_warn"):
        codes |= values(call.args[0], diagram)
    return codes


def readme_codes() -> set[str]:
    """The codes in the first column of the README's Diagnostics table."""
    text = (TESTS_DIR.parent / "README.md").read_text(encoding="utf-8")
    table = text.split("| Codes | Reported by |\n", 1)[1].split("\n\n", 1)[0]
    return {code for row in table.splitlines()[1:]
            for code in re.findall(r"`([^`]+)`", row.split(" | ")[0])}


def test_diagnostics_are_made_only_where_codes_are_read():
    makers = {(path.stem, fn.name) for path in SOURCE.glob("*.py")
              for fn in functions(tree(path.stem))
              if any(is_call(n, "Diagnostic") for n in own_nodes(fn))}
    assert makers == MAKERS


def test_every_minted_code_is_documented():
    minted = minted_codes()
    documented = validation_codes() | readme_codes()
    assert sorted(minted - documented) == []
    assert sorted(documented - minted) == []
