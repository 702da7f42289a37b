"""Shared test oracles: symmetry-reduced LP models, random program generators,
the subset scan for minimal transversals and the pairwise scan for minimal
elements.

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

from ucfreq.ratlp import LinearProgram
from ucfreq.setfam import elements_of, submasks

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
