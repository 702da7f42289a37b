"""Reach ledger: `src/ucfreq` defines only functions that the product runs.

A fresh interpreter runs the product under a call-only `sys.settrace`:
every CLI subcommand and its flags on a text and a JSON family, the
top-level help, two usage errors (a bad flag value, and a flag that only
the top level refuses), the refusals of a family that is not union-closed
(`analyze` and `check-lemmas`) and of a base that is 2-good but not
minimal, the five demos, and one small call of each verification suite.  The module-level
functions and methods of `src/ucfreq/*.py` that no call reached (a nested
closure counts as part of its parent) must be exactly `ALLOWLIST`, each
with its reason.  A function that only tests call fails here: it belongs
in `oracle_models`.

The run needs its own process because `functools.cache` on `build_parser`
(the full tree, which only the top-level help and errors build),
`command_parser`, `all_subsets`, `_shared_program` and the small-input
search memo `setfam._small_mmcs` hides the calls that earlier tests have
already cached.  `python tests/test_reach.py` prints the full ledger.
"""

from __future__ import annotations

import ast
import io
import json
import runpy
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ucfreq"

ALLOWLIST = {
    "ratlp.verify_ray": "no solver outcome carries a ray; bench/tracing.py binds it by name; "
                        "it goes with ROADMAP item 2",
    "setfam.SetFamily.__repr__": "runs only when a suite reports a violation",
}

# the union closure of {2}, {2, 4}, {3} and {1}: S = {2, 3} is minimal
# 2-good with a flexible pair
FAMILY = [[1], [2], [3], [1, 2], [1, 3], [2, 3], [2, 4], [1, 2, 3], [1, 2, 4], [2, 3, 4], [1, 2, 3, 4]]


def _cli_runs(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, exit code) for each CLI call of the ledger."""
    text, js, bad = tmp / "family.txt", tmp / "family.json", tmp / "not_closed.txt"
    text.write_text("".join(" ".join(map(str, s)) + "\n" for s in FAMILY))
    js.write_text(json.dumps({"n": 5, "sets": FAMILY}))
    bad.write_text("2\n3\n")  # no {2, 3}
    runs = [
        (["table"], 0),
        (["table", "--approx", "--out", str(tmp / "table.csv")], 0),
        (["table", "--format", "json", "--certificates"], 0),
        (["solve-case", "--s", "4", "--c", "1"], 0),
        (["solve-case", "--s", "5", "--c", "3", "--approx"], 0),
        (["solve-case", "--s", "5", "--c", "aux", "--dump-lp"], 0),
        (["solve-base", "--s", "5", "--approx"], 0),
        (["min-objective", "--s", "4", "--objective", "q_singleton"], 0),
        (["min-objective", "--s", "5", "--objective", "sum_singletons", "--approx"], 0),
        (["min-objective", "--s", "4", "--objective", "q_a+q_ab"], 0),
        (["search-nagel", "--n", "3", "--require-empty", "--max-family-size", "6", "--max-witnesses", "2"], 0),
        (["solve-case", "--s", "4", "--c", "9"], 1),
        (["--help"], 0),
        (["table", "--jobs", "2"], 1),
        (["analyze", str(bad)], 2),
        (["check-lemmas", str(bad), "--base", "2"], 2),
        (["check-lemmas", str(text), "--base", "2,3,4"], 2),  # 2-good, not minimal
    ]
    for path, fmt in ((text, "text"), (js, "json")):
        runs += [
            (["analyze", str(path), "--base", "2,3"], 0),
            (["analyze", str(path), "--format", fmt, "--add-empty", "--normalize", "--approx"], 0),
            (["covers", str(path)], 0),
            (["check-lemmas", str(path), "--base", "2,3", "--add-empty"], 0),
        ]
    return runs


def run_product() -> None:
    """Every product path of the ledger, with its output captured."""
    from ucfreq import cli, search

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        for argv, expected in _cli_runs(Path(tmp)):
            code = cli.main(argv)
            if code != expected:
                raise AssertionError(f"ucfreq {' '.join(argv)}: exit {code}, expected {expected}\n{err.getvalue()}")
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    search.verify_cover_theorem(n_max=2, n5_samples=5)
    search.run_lemma_corpus(5)


def reached_code() -> set:
    """The code objects that `run_product` calls, from call events only."""
    seen = set()

    def tracer(frame, event, arg):
        seen.add(frame.f_code)  # returning None traces no lines

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run_product()
    finally:
        sys.settrace(previous)
    return seen


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module-qualified name of each module-level
    function and method in `src/ucfreq`.  A decorated def starts at its
    first decorator, as its code object's `co_firstlineno` does."""
    found = {}

    def visit(body, path: Path, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                found[(str(path), line)] = prefix + node.name

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()).body, path, f"{path.stem}.")
    return found


def main() -> int:
    sys.path.insert(0, str(SRC.parent))  # the checkout's package, not an installed one
    defined = defined_functions()
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in reached_code()}
    unreached = {name for key, name in defined.items() if key not in reached}
    for name in sorted(defined.values()):
        if name in unreached:
            print(f"unreached  {name}  ({ALLOWLIST.get(name, 'NOT ALLOWLISTED')})")
        else:
            print(f"reached    {name}")
    print(f"{len(defined) - len(unreached)} of {len(defined)} functions reached")
    for label, names in (("unreached, not allowlisted", unreached - set(ALLOWLIST)),
                         ("allowlisted, but reached or gone", set(ALLOWLIST) - unreached)):
        if names:
            print(f"{label}: {', '.join(sorted(names))}")
    return 0


def test_unreached_functions_are_the_allowlist():
    done = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    unreached = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("unreached ")}
    assert unreached == set(ALLOWLIST), "run `python tests/test_reach.py` for the ledger"


if __name__ == "__main__":
    sys.exit(main())
