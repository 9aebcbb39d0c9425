"""A guard against settable values no caller sets.

A parameter with a default, of a module-level function in ``src/fogbandit``,
is a setting only if some call in ``src/``, ``tests/`` or ``perfbench/``
gives it another value, by keyword or by position.  Otherwise it is a
constant kept in a signature, and this test names it.  A call that forwards
a parameter of its own package function (``f(x=x)``) gives it that
parameter's values.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fogbandit"
CALLERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")

_SET = ("set",)  # a value that is no literal: a variable, a call, an unpacked sequence


def _literal(node: ast.expr, other: tuple = _SET) -> tuple:
    """``node``'s value if it is a literal, else ``other``."""
    try:
        return ("literal", repr(ast.literal_eval(node)))
    except ValueError:
        return other


def fixed_parameters() -> list[str]:
    """``module.function(parameter)`` for every parameter with a default that
    every call leaves at it or passes one and the same literal."""
    functions = {node.name: (path.stem, node) for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}
    positional, defaults = {}, {}
    for name, (_, fn) in functions.items():
        args = fn.args
        positional[name] = [p.arg for p in args.posonlyargs + args.args]
        defaults[name] = dict(zip(positional[name][len(positional[name]) - len(args.defaults):], args.defaults))
        defaults[name].update((p.arg, d) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    given = {(name, param): set() for name, params in defaults.items() for param in params}

    def value(node, outer) -> tuple:
        if isinstance(node, ast.Name) and (outer, node.id) in given:
            return ("forward", outer, node.id)
        return _literal(node)

    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for top in ast.parse(path.read_text()).body:
                outer = top.name if path.parent == PACKAGE and isinstance(top, ast.FunctionDef) else None
                for call in ast.walk(top):
                    if not isinstance(call, ast.Call):
                        continue
                    name = getattr(call.func, "id", getattr(call.func, "attr", None))
                    if name not in defaults:
                        continue
                    unpacked = any(isinstance(a, ast.Starred) for a in call.args) or any(
                        kw.arg is None for kw in call.keywords)
                    passed = dict(zip(positional[name], call.args))
                    passed.update((kw.arg, kw.value) for kw in call.keywords if kw.arg is not None)
                    for param, default in defaults[name].items():
                        if param in passed:
                            given[name, param].add(value(passed[param], outer))
                        else:
                            given[name, param].add(_SET if unpacked else _literal(default, ("default",)))

    def values(key, seen=()) -> set:
        out = set()
        for v in given[key] or {("default",)}:
            out |= ({_SET} if v[1:] in seen else values(v[1:], seen + (key,))) if v[0] == "forward" else {v}
        return out

    return sorted(f"{functions[key[0]][0]}.{key[0]}({key[1]})" for key in given
                  if len(values(key)) == 1 and _SET not in values(key))


def test_every_parameter_with_a_default_is_set_by_some_caller():
    # find_pure_nash(eps) and async_condition_check(activations, threshold)
    # pass: tests set them
    assert fixed_parameters() == []
