"""The two workloads: inputs made from the seed, and the operations of one round.

A round is a fixed list of operations, the same in every round of a run,
so a run of any length attempts whole rounds and the share of failed
operations never changes.  Each operation is one call into a public
function of ucfreq; its check runs after the timed call and reads only the
returned value or the printed text.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Callable

import census_counts
from checks import (
    CheckFailed,
    check_infeasible,
    check_minimal_transversal,
    check_optimal,
    closure,
    elements,
    is_union_closed,
    kth_frequency,
    mask,
    parse_set,
    require,
)


class OpFailed(Exception):
    """The call ended in a way the operation does not allow (an exit code)."""


@dataclass
class Op:
    name: str                       # span name of the call
    call: Callable[[], object]
    check: Callable[[object], None]
    kind: str = "other"             # "pass" and "items" feed the end-to-end metrics
    items: Callable[[object], int] = lambda result: 1


def cli_op(mods, argv: list[str], check: Callable[[str], None], kind: str = "pass",
           expect_exit: int = 0) -> Op:
    def call() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mods.cli.main(argv)
        if code != expect_exit:
            raise OpFailed(f"ucfreq {' '.join(argv)} exited {code}, expected {expect_exit}")
        return out.getvalue()

    return Op("cli." + argv[0], call, check, kind)


# ---------------------------------------------------------------------------
# bounds: the published numbers through the CLI, plus small box programs
# ---------------------------------------------------------------------------

# The paper's table of family-size bounds, keyed by (s, |C| column).
PUBLISHED_TABLE = {
    (4, "0"): "81", (4, "1"): "81", (4, "2"): "114", (4, "3+"): "infeasible",
    (5, "0"): "237/2", (5, "1"): "231/2", (5, "2"): "122", (5, "3+"): "114",
}
PUBLISHED_SINGLE = (
    (["solve-base", "--s", "4"], "45"),
    (["solve-base", "--s", "5"], "141/2"),
    (["solve-case", "--s", "5", "--c", "aux"], "129"),
    (["min-objective", "--s", "4", "--objective", "q_singleton"], "8"),
    (["min-objective", "--s", "5", "--objective", "sum_singletons"], "85/2"),
)

BOX_VARIABLES = range(1, 5)
BOX_EXTRA_ROWS = range(0, 5)


def box_program(ratlp, rng: random.Random, nvars: int, nrows: int):
    """A box-bounded program with a few extra rows, as the test oracles draw
    them: always a polytope, so it is optimal or infeasible, never unbounded."""
    names = tuple(f"x{j}" for j in range(nvars))
    lp = ratlp.LinearProgram(names, rng.choice(("min", "max")))
    lp.objective = {name: Fraction(rng.randint(-3, 3)) for name in names}
    for name in names:
        lo = Fraction(rng.randint(-6, 4), rng.choice((1, 2)))
        lp.lower[name] = lo
        lp.upper[name] = lo + Fraction(rng.randint(0, 8), rng.choice((1, 2)))
    for _ in range(nrows):
        coeffs = {name: Fraction(rng.randint(-3, 3)) for name in names}
        if all(c == 0 for c in coeffs.values()):
            coeffs[names[0]] = Fraction(1)
        rel = rng.choice(("<=", ">=", "<=", ">=", "=="))
        lp.add(coeffs, rel, Fraction(rng.randint(-8, 8), rng.choice((1, 2))))
    return lp


def bounds_ops(mods, seed: int, work: Path, small: bool) -> list[Op]:
    lpmodel, ratlp = mods.lpmodel, mods.ratlp
    programs: dict[tuple[int, str], object] = {}

    def cell_program(s: int, column: str):
        if (s, column) not in programs:
            scenario = lpmodel.GRID[lpmodel.COLUMN_KEYS.index(column)]
            programs[(s, column)] = lpmodel.case_program(lpmodel.CaseSpec(s, scenario))
        return programs[(s, column)]

    def check_table(text: str) -> None:
        doc = json.loads(text)
        require(doc.get("schema") == 1, "table JSON lost schema 1")
        cells = {(c["s"], c["c"]): c for c in doc["cells"]}
        require(len(cells) == len(doc["cells"]) == 8, "table does not have the eight cells")
        for key, published in PUBLISHED_TABLE.items():
            cell = cells[key]
            require(cell["bound"] == published, f"cell {key} reads {cell['bound']}, published {published}")
            cert, lp = cell["certificate"], cell_program(*key)
            if published == "infeasible":
                require(cell["status"] == "infeasible", f"cell {key} status {cell['status']}")
                check_infeasible(lp, cert["farkas"])
            else:
                require(cell["status"] == "optimal", f"cell {key} status {cell['status']}")
                check_optimal(lp, Fraction(published), cert["assignment"], cert["dual"])

    def expect_text(published: str) -> Callable[[str], None]:
        def check(text: str) -> None:
            require(text.strip() == published, f"read {text.strip()!r}, published {published}")
        return check

    ops = [cli_op(mods, ["table", "--format", "json", "--certificates"], check_table)]
    ops += [cli_op(mods, argv, expect_text(value)) for argv, value in PUBLISHED_SINGLE]

    def check_box(lp):
        def check(outcome) -> None:
            if isinstance(outcome, ratlp.Optimal):
                check_optimal(lp, outcome.value, outcome.assignment, outcome.dual)
            elif isinstance(outcome, ratlp.Infeasible):
                check_infeasible(lp, outcome.farkas)
            else:
                raise CheckFailed("a box program was reported unbounded")
        return check

    # Every shape gets the same number of programs, so the batch costs about
    # the same whatever the seed.
    rng = random.Random(seed)
    per_shape = 1 if small else 20
    for _ in range(per_shape):
        for nvars in BOX_VARIABLES:
            for nrows in BOX_EXTRA_ROWS:
                lp = box_program(ratlp, rng, nvars, nrows)
                ops.append(Op("ratlp.solve.small", lambda lp=lp: ratlp.solve(lp), check_box(lp), "items"))
    return ops


# ---------------------------------------------------------------------------
# census: the exhaustive f_2 >= 1/3 check
# ---------------------------------------------------------------------------

def census_ops(mods, seed: int, work: Path, small: bool) -> list[Op]:
    search = mods.search
    expected = census_counts.load()
    sizes = [(n, cap) for n, cap in census_counts.CENSUS_SIZES if not (small and n == 5)]

    def op(n: int, cap: int | None) -> Op:
        spec = search.EnumerationSpec(n, require_ground_coverage=True, max_family_size=cap)
        want = expected[census_counts.size_key(n, cap)]

        def check(report) -> None:
            require(report.families_checked == want,
                    f"n={n}: {report.families_checked} families, the recount has {want}")
            require(report.min_f2 == Fraction(1, 3), f"n={n}: min f_2 = {report.min_f2}")
            require(not report.violations, f"n={n}: {len(report.violations)} violations")
            require(report.witnesses, f"n={n}: no witness reported")
            ground = (1 << n) - 1
            for fam in report.witnesses:
                members = list(fam.sets)
                require(fam.n == n and is_union_closed(members), f"witness {fam!r} is not union-closed")
                union = 0
                for a in members:
                    union |= a
                require(union == ground, f"witness {fam!r} misses an element")
                require(cap is None or len(members) <= cap, f"witness {fam!r} is over the cap")
                require(kth_frequency(n, members, 2) == Fraction(1, 3), f"witness {fam!r} has f_2 != 1/3")

        kind = "items" if cap is not None else "other"
        return Op("search.verify_nagel_k2", lambda: search.verify_nagel_k2(spec), check, kind,
                  lambda report: report.families_checked)

    ops = [op(n, cap) for n, cap in sizes]
    random.Random(seed).shuffle(ops)  # the census is exhaustive: the seed only orders it
    return ops


# ---------------------------------------------------------------------------
# transversals: cover laws, the lemma corpus, and wide analyze/covers calls
# ---------------------------------------------------------------------------

COVER_EXHAUSTIVE = {3: 1 + 7 + 127, 4: 1 + 7 + 127 + 32767}  # nonempty subfamilies, n = 1..n_max
MALFORMED = (
    '{"n": 3, "sets": [1]}',
    '{"n": 3, "sets": [[1.5]]}',
    '{"n": 3, "sets": "12"}',
    '{"n": true, "sets": [[1]]}',
)


@dataclass(frozen=True)
class WideFamily:
    label: str
    n: int
    members: tuple[int, ...]
    blocks: tuple[int, ...] = ()    # block sizes of a block partition


def wide_families(rng: random.Random, small: bool) -> list[WideFamily]:
    """Chains {1},{n},{1,n}; union closures of five random sets; and block
    partitions under a random labelling, whose minimal covers are the
    transversals picking one element per block."""
    chains = (12,) if small else (12, 16, 20)
    random_ns = (12,) if small else (12, 13, 14)
    partitions = ((12, (3, 3, 3, 3)),) if small else ((12, (3, 3, 3, 3)), (14, (4, 4, 3, 3)), (16, (8, 8)))
    out = [WideFamily(f"chain{n}", n, (1, 1 << (n - 1), 1 | 1 << (n - 1))) for n in chains]
    for n in random_ns:
        gens = rng.sample(range(1, 1 << n), 5)
        out.append(WideFamily(f"closure{n}", n, tuple(closure(gens))))
    for n, sizes in partitions:
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        members, start = [], 0
        for size in sizes:
            members.append(mask(labels[start:start + size]))
            start += size
        out.append(WideFamily(f"blocks{n}", n, tuple(members), sizes))
    return out


def check_analyze(fam: WideFamily) -> Callable[[str], None]:
    members = fam.members
    targets = [a & ~1 for a in members if a not in (0, 1)]

    def check(text: str) -> None:
        lines = text.splitlines()
        require(lines[0] == f"m = {len(members)}", f"{fam.label}: {lines[0]}")
        freqs = " ".join(f"{e + 1}={sum(1 for a in members if a >> e & 1)}" for e in range(fam.n))
        require(lines[1] == "frequencies: " + freqs, f"{fam.label}: {lines[1]}")
        require(lines[2] == f"f_1 = {kth_frequency(fam.n, members, 1)}", f"{fam.label}: {lines[2]}")
        require(lines[3] == f"f_2 = {kth_frequency(fam.n, members, 2)}", f"{fam.label}: {lines[3]}")
        require(lines[4] == "minimal 2-good sets:", f"{fam.label}: unexpected line {lines[4]!r}")
        found = []
        for line in lines[5:]:
            text_set, _, incidence = line.strip().partition(" incidence=")
            s = parse_set(text_set)
            require(not s & 1, f"{fam.label}: 2-good set {text_set} holds element 1")
            check_minimal_transversal(s, targets, f"{fam.label}: 2-good set")
            require(int(incidence) == sum((a & s).bit_count() for a in members),
                    f"{fam.label}: wrong incidence for {text_set}")
            found.append(s)
        if fam.label.startswith("chain"):
            require(found == [1 << (fam.n - 1)], f"{fam.label}: minimal 2-good sets {found}, not [{{{fam.n}}}]")
        else:
            require(found, f"{fam.label}: no minimal 2-good set")

    return check


def check_covers(fam: WideFamily) -> Callable[[str], None]:
    members = fam.members
    antichain = all(a == b or a & ~b and b & ~a for a in members for b in members)

    def check(text: str) -> None:
        lines = text.splitlines()
        require(lines[0] == "minimal covers:", f"{fam.label}: unexpected line {lines[0]!r}")
        covers = [parse_set(line) for line in lines[1:-2]]
        require(len(set(covers)) == len(covers), f"{fam.label}: a cover is listed twice")
        for s in covers:
            check_minimal_transversal(s, members, f"{fam.label}: cover")
        if fam.blocks:
            require(len(covers) == prod(fam.blocks),
                    f"{fam.label}: {len(covers)} covers, blocks give {prod(fam.blocks)}")
        if fam.label.startswith("chain"):
            require(covers == [1 | 1 << (fam.n - 1)], f"{fam.label}: covers {covers}")
        require(lines[-2] == f"input is antichain: {'yes' if antichain else 'no'}", f"{fam.label}: {lines[-2]}")
        require(lines[-1].endswith(": yes"), f"{fam.label}: {lines[-1]}")

    return check


def transversals_ops(mods, seed: int, work: Path, small: bool) -> list[Op]:
    search = mods.search
    rng = random.Random(seed)
    n_max, samples, instances = (3, 50, 20) if small else (4, 1000, 300)
    cover_seed, corpus_seed = rng.randrange(2**31), rng.randrange(2**31)
    cover_total = COVER_EXHAUSTIVE[n_max] + 2 * samples  # each sample is checked with its minimal elements

    def check_cover_suite(report) -> None:
        require(report.families_checked == cover_total,
                f"cover suite checked {report.families_checked} families, expected {cover_total}")
        require(not report.violations, f"cover suite: {len(report.violations)} violations")

    def check_corpus(report) -> None:
        require(report.families_checked == instances,
                f"lemma corpus checked {report.families_checked} instances, expected {instances}")
        require(not report.violations, f"lemma corpus: {len(report.violations)} violations")

    ops = [
        Op("search.verify_cover_theorem",
           lambda: search.verify_cover_theorem(n_max, samples, seed=cover_seed),
           check_cover_suite, "items", lambda report: report.families_checked),
        Op("search.run_lemma_corpus",
           lambda: search.run_lemma_corpus(instances, seed=corpus_seed, n_low=4, n_high=9),
           check_corpus, "other", lambda report: report.families_checked),
    ]
    work.mkdir(parents=True, exist_ok=True)
    for fam in wide_families(rng, small):
        path = work / f"{fam.label}.json"
        path.write_text(json.dumps({"n": fam.n, "sets": [elements(a) for a in fam.members]}))
        if not fam.blocks:
            ops.append(cli_op(mods, ["analyze", str(path)], check_analyze(fam)))
        if fam.n <= 16:
            ops.append(cli_op(mods, ["covers", str(path)], check_covers(fam)))
    # Malformed files must be refused with exit code 2.  Today the first three
    # raise TypeError out of cli.main and the last is read as n = 1, so these
    # four count as failed operations until family loading validates its input.
    # The small form, a probe for per-layer metrics, leaves them out.
    for i, text in enumerate(() if small else MALFORMED):
        path = work / f"malformed{i}.json"
        path.write_text(text)
        ops.append(cli_op(mods, ["analyze", str(path)], lambda out: None, expect_exit=2))
    return ops


def sets_ops(mods, seed: int, work: Path, small: bool) -> list[Op]:
    """The census and the transversal calls in one round: search and setfam
    do all the work and no LP code runs."""
    return census_ops(mods, seed, work, small) + transversals_ops(mods, seed, work, small)


WORKLOADS = {"bounds": bounds_ops, "sets": sets_ops}
