"""Exactness, loop and precondition ledger: an AST walk over `src/ucfreq/*.py`.

- Exactness: no `/` operator, no float literal, and `float(...)` only in
  `lpmodel.render_bound`, where `--approx` prints an exact bound as a float.
- Loops: every `while`, and every `for` over `itertools.count`, is listed in
  `LOOPS` under its enclosing function, one line each, in source order, with
  what bounds it.
- User-input work: every CLI command that reads a family file is listed in
  `USER_INPUT` with its `MAX_OUTPUT` refusals (the text after the cap in each
  message), and `OPEN` names the work on such a file that no refusal bounds
  yet, with the commands that run it.
- Preconditions: `setfam.flexible_pairs`, `setfam.covered_set` and
  `search.spot_check_lemmas` do not check that their base is 2-good (the one
  statement of 2-goodness is `setfam.minimal_two_good_sets`).  Every call of
  them in `src/ucfreq/*.py` and `demos/*.py` is listed in `PRECONDITIONS`
  under its enclosing function ("module" at a module's top level), one line
  each, in source order, with why its base meets the precondition.

`python tests/test_ledger.py` prints the ledger.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

from ucfreq import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ucfreq"

FLOAT_CALLERS = {"lpmodel.render_bound"}

LOOPS = {
    "search._walk_union_closed": (
        "one push or pop per node, and each union-closed family over n <= ENUMERATION_LIMIT is one node",
    ),
    "search.run_lemma_corpus": (
        "at most CORPUS_DRAWS_PER_INSTANCE * instances draws, then RuntimeError",
    ),
    "setfam.elements_of": ("one step per set bit",),
    "setfam.submasks": ("one step per subset of the mask",),
    "setfam.element_frequencies": ("one step per set bit of each member",),
    "setfam.minimal_transversals": ("one step per set bit of a 32-bit word",),
    "setfam._mmcs": (
        "one step per element of each edge",
        "one step per branch: a branch adds an element of `allowed` to its parent's, "
        "so the tree is at most |allowed| deep; `limit` stops it early",
        "one step per candidate of the edge picked",
        "one step per unmet edge",
    ),
}

USER_INPUT = {
    "analyze": ("member sets", "minimal 2-good sets", "subsets to list"),
    "covers": ("member sets", "minimal covers"),
    "check-lemmas": ("member sets", "minimal 2-good sets"),
}

# work on a family file that no refusal bounds yet: the callee, the commands
# whose handlers run it, and the ROADMAP item that is to bound it
OPEN = {
    "setfam.minimal_covers": (("covers",), "the involution re-check minimal_covers(mc) has no time bound (item 3)"),
    "setfam.is_union_closed": (("analyze", "check-lemmas"), "quadratic in the member count (item 12)"),
}


# callee -> the call sites, each (where, why the base meets the precondition)
PRECONDITIONS = {
    "flexible_pairs": (
        ("cli._cmd_check_lemmas", "the base is refused unless it is in minimal_two_good_sets(fam)"),
        ("search.run_lemma_corpus", "S is taken from minimal_two_good_sets(fam)"),
        ("family_anatomy.module", "the demo asserts that its base is in minimal_two_good_sets(flex)"),
    ),
    "covered_set": (
        ("family_anatomy.module", "the demo asserts that its base is in minimal_two_good_sets(fam)"),
    ),
    "spot_check_lemmas": (
        ("cli._cmd_check_lemmas", "the base is refused unless it is in good = minimal_two_good_sets(fam)"),
        ("search.run_lemma_corpus", "S is taken from good = minimal_two_good_sets(fam)"),
    ),
}


def _nodes(paths=None):
    """(module, tree, enclosing function or class path, node) over every
    node of every module, `src/ucfreq/*.py` unless `paths` are given."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            yield inner, child
            yield from walk(child, inner)

    for path in paths or sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for where, node in walk(tree, path.stem):
            yield path.stem, tree, where, node


def _is_count(call, tree) -> bool:
    """True iff `call` calls `itertools.count`, by any name the module binds it to."""
    counts = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and node.module == "itertools" for a in node.names if a.name == "count"}
    modules = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "itertools"}
    func = call.func if isinstance(call, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id in counts) or (
        isinstance(func, ast.Attribute) and func.attr == "count"
        and isinstance(func.value, ast.Name) and func.value.id in modules)


def inexact() -> list[str]:
    """Where a `/`, a float literal or a stray `float(...)` appears."""
    found = []
    for module, _, where, node in _nodes():
        at = f"{module}.py:{getattr(node, 'lineno', '?')} in {where}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"/ at {at}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"float literal {node.value!r} at {at}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
              and where not in FLOAT_CALLERS):
            found.append(f"float(...) at {at}")
    return found


def loops() -> Counter:
    """The number of `while` loops, `for` over `itertools.count` included,
    in each function."""
    return Counter(where for _, tree, where, node in _nodes()
                   if isinstance(node, ast.While) or (isinstance(node, ast.For) and _is_count(node.iter, tree)))


def precondition_sites() -> dict[str, tuple[str, ...]]:
    """For each callee in `PRECONDITIONS`, where it is called in
    `src/ucfreq/*.py` and `demos/*.py`, in source order, by any name an
    import binds it to."""
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    found: dict[str, list[str]] = {callee: [] for callee in PRECONDITIONS}
    aliases: dict[str, dict[str, str]] = {}
    for module, tree, where, node in _nodes(paths):
        if module not in aliases:
            aliases[module] = {a.asname: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                               for a in n.names if a.asname}
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            callee = aliases[module].get(name, name)
            if callee in found:
                found[callee].append(where if "." in where else f"{module}.module")
    return {callee: tuple(sites) for callee, sites in found.items()}


def _cli_functions() -> dict[str, ast.FunctionDef]:
    tree = ast.parse((SRC / "cli.py").read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _handlers() -> dict[str, ast.FunctionDef]:
    defs = _cli_functions()
    return {name: defs[handler.__name__] for name, (_, _, handler) in cli._COMMANDS.items()}


def _calls(fn: ast.FunctionDef) -> set[str]:
    """The names `fn` calls, dotted when called as an attribute of a name."""
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                out.add(f.id)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                out.add(f"{f.value.id}.{f.attr}")
    return out


def _refusals(fn: ast.FunctionDef) -> list[str]:
    """The text after `{MAX_OUTPUT}` in each message that `fn` words with it."""
    out = []
    for node in ast.walk(fn):
        if isinstance(node, ast.JoinedStr):
            parts = node.values
            for i, part in enumerate(parts[:-1]):
                if (isinstance(part, ast.FormattedValue) and isinstance(part.value, ast.Name)
                        and part.value.id == "MAX_OUTPUT" and isinstance(parts[i + 1], ast.Constant)):
                    out.append(parts[i + 1].value.strip())
    return out


def user_input() -> dict[str, tuple[str, ...]]:
    """Each command that reads a family, with its `MAX_OUTPUT` refusals:
    `_load_family`'s, then its handler's own."""
    load = _refusals(_cli_functions()["_load_family"])
    return {
        name: tuple((load if "_load_family" in _calls(fn) else []) + _refusals(fn))
        for name, fn in _handlers().items()
        if any(a.dest == "family" for a in cli.command_parser(name)._actions)
    }


def open_work() -> dict[str, tuple[str, ...]]:
    """For each callee in `OPEN`, the commands whose handlers call it."""
    handlers = _handlers()
    return {callee: tuple(name for name, fn in handlers.items() if callee in _calls(fn)) for callee in OPEN}


class TestLedger:
    def test_no_division_float_literal_or_stray_float_call(self):
        assert inexact() == []

    def test_every_while_is_listed_with_its_bound(self):
        assert loops() == Counter({where: len(bounds) for where, bounds in LOOPS.items()})

    def test_every_family_reading_command_is_listed_with_its_refusals(self):
        assert user_input() == USER_INPUT

    def test_open_entries_name_the_commands_that_run_them(self):
        assert open_work() == {callee: commands for callee, (commands, _) in OPEN.items()}

    def test_every_unchecked_two_good_base_is_listed_with_its_reason(self):
        assert precondition_sites() == {
            callee: tuple(where for where, _ in sites) for callee, sites in PRECONDITIONS.items()
        }


def main() -> int:
    print("exactness:", "; ".join(inexact()) or f"no /, no float literal, float(...) only in {sorted(FLOAT_CALLERS)}")
    found = loops()
    for where in sorted(set(found) | set(LOOPS)):
        bounds = LOOPS.get(where, ())
        print(f"{where}: {found[where]} loop(s)" + ("" if found[where] == len(bounds) else ", LISTED " + str(len(bounds))))
        for bound in bounds:
            print(f"  - {bound}")
    for name, refusals in user_input().items():
        print(f"{name}: refuses more than MAX_OUTPUT " + ", ".join(refusals))
    for callee, commands in open_work().items():
        print(f"OPEN {callee} in {', '.join(commands)}: {OPEN[callee][1]}")
    found = precondition_sites()
    for callee, sites in PRECONDITIONS.items():
        listed = tuple(where for where, _ in sites)
        print(f"{callee}: a 2-good base, unchecked" + ("" if found[callee] == listed else f"; FOUND {found[callee]}"))
        for where, why in sites:
            print(f"  - {where}: {why}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
