"""Shared test oracles: symmetry-reduced LP models, random program generators,
the subset scan for minimal transversals, the pairwise scan for minimal
elements, and the recursive union-closed enumerator with its f_2 check.

The reduced models are companions to the full base program, solved only by
`brute_force_optimum` (basic-point enumeration), never by the simplex path,
so agreement between the two is a genuine cross-check.  The reduction is
sound because program and objective are invariant under permuting the
collapsed roles: averaging an optimal point over the orbit preserves
feasibility and objective, so some optimum is orbit-constant.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import Iterator

from ucfreq.ratlp import LinearProgram
from ucfreq.search import (
    ENUMERATION_LIMIT,
    F2_FLOOR,
    PROGRESS_STRIDE,
    EnumerationSpec,
    Progress,
    VerificationReport,
)
from ucfreq.setfam import SetFamily, elements_of, kth_frequency, submasks

F = Fraction


def reduced_full_symmetry(s: int) -> LinearProgram:
    """Orbit model under all role permutations: one variable per trace size."""
    sizes = [comb(s, k) for k in range(s + 1)]
    zs = tuple(f"z{k}" for k in range(s + 1))
    lp = LinearProgram(zs, "min", {zs[k]: F(sizes[k]) for k in range(s + 1)})
    cap = {zs[k]: 3 * comb(s - 1, k - 1) - sizes[k] for k in range(s + 1) if k}
    cap[zs[0]] = -sizes[0]
    lp.add(cap, "<=", 0)
    for k in range(s + 1):
        lp.add({zs[k]: 1}, ">=", 1)
    lp.add({zs[0]: 1}, "<=", 2)
    return lp


def reduced_one_marked_role(s: int) -> LinearProgram:
    """Orbit model fixing one role: variables z<in><k> with `in` marking
    membership of the fixed role and k counting the other elements."""
    zs = tuple(f"z{m}{k}" for m in (0, 1) for k in range(s))
    size = {f"z{m}{k}": comb(s - 1, k) for m in (0, 1) for k in range(s)}
    lp = LinearProgram(zs, "min", {})
    m_coeffs = {z: F(size[z]) for z in zs}
    cap = {z: -m_coeffs[z] for z in zs}
    for k in range(s):
        cap[f"z1{k}"] += 3 * comb(s - 1, k)
    lp.add(cap, "<=", 0)
    cap2 = {z: -m_coeffs[z] for z in zs}
    for m in (0, 1):
        for k in range(1, s):
            cap2[f"z{m}{k}"] += 3 * comb(s - 2, k - 1)
    lp.add(cap2, "<=", 0)
    for z in zs:
        lp.add({z: 1}, ">=", 1)
    lp.add({"z00": 1}, "<=", 2)
    return lp


def random_box_program(rng: random.Random) -> LinearProgram:
    """Box-constrained program with a few extra rows: always a polytope,
    so the basic-point oracle is sound and unboundedness is impossible."""
    n = rng.randint(1, 4)
    names = tuple(f"x{j}" for j in range(n))
    lp = LinearProgram(names, rng.choice(("min", "max")))
    lp.objective = {name: F(rng.randint(-3, 3)) for name in names}
    for name in names:
        lo = F(rng.randint(-6, 4), rng.choice((1, 2)))
        lp.lower[name] = lo
        lp.upper[name] = lo + F(rng.randint(0, 8), rng.choice((1, 2)))
    for _ in range(rng.randint(0, 4)):
        coeffs = {name: F(rng.randint(-3, 3)) for name in names}
        if all(c == 0 for c in coeffs.values()):
            coeffs[names[0]] = F(1)
        rel = rng.choice(("<=", ">=", "<=", ">=", "=="))
        lp.add(coeffs, rel, F(rng.randint(-8, 8), rng.choice((1, 2))))
    return lp


def scan_minimal_transversals(targets, allowed: int) -> tuple[int, ...]:
    """Minimal transversals by scanning all 2^|allowed| subsets of `allowed`,
    each tested against every target with one element dropped at a time.

    This is the scan `minimal_covers` and `minimal_two_good_sets` ran before
    `setfam.minimal_transversals` replaced it; it stays as the reference.
    """
    out = []
    for s in submasks(allowed):
        if all(s & a for a in targets):
            if all(not all((s & ~(1 << (e - 1))) & a for a in targets) for e in elements_of(s)):
                out.append(s)
    return tuple(sorted(out, key=elements_of))


def scan_minimal_elements(masks) -> tuple[int, ...]:
    """The masks with no proper subset among `masks`, each tested against
    every other, in canonical order.

    This is the body `setfam.minimal_elements` had before it shared the
    reduction of `setfam.minimal_transversals`; it stays as the reference.
    """
    members = set(masks)
    out = [
        s
        for s in members
        if not any(t != s and t & ~s == 0 for t in members)
    ]
    return tuple(sorted(out, key=elements_of))


# The enumerator and the f_2 check as they were before `search` walked the
# families with one explicit-stack DFS and incremental element counts; they
# stay as the reference for its families, their order and its reports.

def recursive_enumerate_union_closed(spec: EnumerationSpec) -> Iterator[SetFamily]:
    """Every nonempty union-closed family matching the spec, exactly once.

    Candidate sets are examined in descending bitmask order, so any union
    of an accepted set with earlier members already had its fate decided;
    a branch survives only if those unions were all accepted, which keeps
    every interior state union-closed and prunes early.
    """
    n = spec.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"full enumeration is limited to n <= {ENUMERATION_LIMIT}")
    ground = (1 << n) - 1

    chosen: list[int] = []
    members: set[int] = set()

    def admissible() -> bool:
        if spec.require_empty and 0 not in members:
            return False
        if spec.require_ground_coverage:
            union = 0
            for s in chosen:
                union |= s
            if union != ground:
                return False
        return True

    def walk(s: int) -> Iterator[SetFamily]:
        if s < 0:
            if chosen and admissible():
                yield SetFamily(n, tuple(sorted(chosen)))
            return
        yield from walk(s - 1)
        room = spec.max_family_size is None or len(chosen) < spec.max_family_size
        if room and all(s | t in members for t in chosen):
            chosen.append(s)
            members.add(s)
            yield from walk(s - 1)
            chosen.pop()
            members.remove(s)

    yield from walk(ground)


def recursive_verify_nagel_k2(spec: EnumerationSpec, progress: Progress = None) -> VerificationReport:
    """Check f_2 >= 1/3 over every enumerated family.

    Requires ground coverage and n >= 2, so each family's ground set
    really has two elements to rank.  Violations would contradict a
    proved statement at these sizes, so any entry in `violations` means
    an implementation bug.
    """
    if spec.n < 2 or not spec.require_ground_coverage:
        raise ValueError("the k=2 check needs require_ground_coverage and n >= 2")
    report = VerificationReport()
    for fam in recursive_enumerate_union_closed(spec):
        report.families_checked += 1
        if progress and report.families_checked % PROGRESS_STRIDE == 0:
            progress(report.families_checked)
        value = kth_frequency(fam, 2)[2]
        if report.min_f2 is None or value < report.min_f2:
            report.min_f2 = value
            report.witnesses = [fam]
        elif value == report.min_f2:
            report.witnesses.append(fam)
        if value < F2_FLOOR:
            report.violations.append(f"f_2 = {value} < 1/3 for {fam!r}")
    return report
