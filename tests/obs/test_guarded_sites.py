"""Every recorder call in ``src/`` sits under an ``if ….enabled`` test.

``test_noop_overhead.py`` shows, on a sample, that the guard makes a
disabled recorder free: the event's keyword dictionary is never built.
That only holds where the guard is written, so this test reads every
module and checks each ``.event(...)`` call for one — exhaustively.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: Calls reached only through a guarded call site, with the reason.
SCHEDULED_UNDER_A_GUARD = {
    # ``SimNetwork.send`` schedules it from inside ``if self.obs.enabled``.
    ("net/sim_transport.py", "_deliver_traced"),
}


def _tests_enabled(test: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "enabled" for node in ast.walk(test)
    )


def _unguarded_event_calls(tree: ast.AST):
    """``(function name, line)`` of each ``<x>.event(...)`` call that no
    enclosing ``if`` body guards with an ``.enabled`` test."""
    found = []

    def visit(node: ast.AST, guarded: bool, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            guarded, function = False, node.name  # a guard does not reach into a nested def
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "event"
            and not guarded
        ):
            found.append((function, node.lineno))
        if isinstance(node, ast.If):
            visit(node.test, guarded, function)
            for child in node.body:
                visit(child, guarded or _tests_enabled(node.test), function)
            for child in node.orelse:
                visit(child, guarded, function)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, guarded, function)

    visit(tree, False, "<module>")
    return found


def test_every_event_call_is_guarded():
    unguarded, sites = [], 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        sites += source.count(".event(")
        relative = path.relative_to(SRC).as_posix()
        for function, line in _unguarded_event_calls(ast.parse(source)):
            if (relative, function) not in SCHEDULED_UNDER_A_GUARD:
                unguarded.append(f"{relative}:{line} in {function}()")
    assert sites, "the scan found no recorder call: is it looking at src/?"
    assert unguarded == []


def test_the_scan_sees_an_unguarded_call():
    """Sanity: the walker flags what it should and honours the guard."""
    tree = ast.parse(
        "def f(obs):\n"
        "    obs.event('a', 'n')\n"
        "    if obs.enabled:\n"
        "        obs.event('b', 'n')\n"
        "        def later():\n"
        "            obs.event('c', 'n')\n"
        "    else:\n"
        "        obs.event('d', 'n')\n"
    )
    assert _unguarded_event_calls(tree) == [("f", 2), ("later", 6), ("f", 8)]
