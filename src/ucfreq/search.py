"""Desk-scale brute-force verification suites.

Three independent checks live here:

* exhaustive enumeration of small union-closed families and the second
  frequency floor f_2 >= 1/3 over them;
* the minimal-cover theorem (antichain output, the involution
  MC(MC(F)) = F on antichains, and MC(F) = MC(minimal elements));
* per-instance recounts of the doubled-trace, frequency-cap and
  incidence-count lower bounds on concrete families, via
  `spot_check_lemmas`.

A reported violation is an implementation-bug signal, never a
mathematical discovery: every checked statement is proved for the inputs
these suites admit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .setfam import (
    Mask,
    SetFamily,
    _minimal_masks,
    covered_set,
    element_frequencies,
    elements_of,
    flexible_pairs,
    format_mask,
    incidence,
    is_antichain,
    is_minimal_two_good,
    is_two_good,
    is_union_closed,
    kth_frequency,
    minimal_covers,
    minimal_transversals,
    minimal_two_good_sets,
    submasks,
    trace_counts,
    union_closure,
)

ENUMERATION_LIMIT = 5  # full union-closed enumeration is guarded above this

Progress = Callable[[int], None] | None
PROGRESS_STRIDE = 4096


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate: ground size plus membership filters."""

    n: int
    require_empty: bool = False
    require_ground_coverage: bool = False
    max_family_size: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground-set size must be at least 1")
        if self.max_family_size is not None and self.max_family_size < 1:
            raise ValueError("max_family_size must be at least 1 (or None for no cap)")


@dataclass
class VerificationReport:
    families_checked: int = 0
    min_f2: Fraction | None = None
    witnesses: list[SetFamily] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self, max_witnesses: int | None = None) -> dict:
        shown = self.witnesses if max_witnesses is None else self.witnesses[:max_witnesses]
        return {
            "families_checked": self.families_checked,
            "min_f2": None if self.min_f2 is None else str(self.min_f2),
            "witnesses": [
                {"n": fam.n, "sets": [list(elements_of(s)) for s in fam.sets]}
                for fam in shown
            ],
            "witnesses_total": len(self.witnesses),
            "violations": list(self.violations),
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _walk_union_closed(spec: EnumerationSpec) -> Iterator[tuple[list[Mask], list[int]]]:
    """The one DFS behind `enumerate_union_closed` and `verify_nagel_k2`.

    A node is a union-closed family, its children add one set below its
    smallest member, and each family is reached exactly once: dropping the
    smallest member of a union-closed family leaves one.  A node keeps the
    nonempty sets that may still join it (in ascending order), so a child's
    candidates are its parent's that lie below the new set and whose union
    with it is a member.  The empty set joins every family; as the least
    set it is a node's first child and a leaf, and the walk adds it inline.
    Nodes come in pre-order with children ascending, which is ascending
    order of the sum of 2^s over the members s.

    Yields `(chosen, counts)` for every family matching the spec: the
    members in descending order and, for each element e, the number of
    members containing it at index e - 1.  Both lists are updated in place
    on each push and pop, so a caller that keeps them must copy them.
    """
    n = spec.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"full enumeration is limited to n <= {ENUMERATION_LIMIT}")
    ground = (1 << n) - 1
    cap = spec.max_family_size or ground + 1
    every = not spec.require_empty  # else only the families with the empty set
    bits = [[e - 1 for e in elements_of(s)] for s in range(ground + 1)]
    member = [False] * (ground + 1)
    chosen: list[Mask] = []
    counts = [0] * n
    # A union-closed family's union is its largest member, so the families
    # that cover the ground set are exactly those whose first set is `ground`.
    if spec.require_ground_coverage:
        frames = [[list(range(1, ground + 1)), ground - 1]]  # [candidates, index of the next one]
    else:
        frames = [[list(range(1, ground + 1)), 0]]
        chosen.append(0)
        yield chosen, counts  # the family {}: the root's first child
        chosen.pop()
    while frames:
        frame = frames[-1]
        candidates, i = frame
        if i == len(candidates):
            frames.pop()
            if frames:
                s = chosen.pop()
                member[s] = False
                for e in bits[s]:
                    counts[e] -= 1
            continue
        frame[1] = i + 1
        s = candidates[i]
        chosen.append(s)
        member[s] = True
        for e in bits[s]:
            counts[e] += 1
        if every:
            yield chosen, counts
        if len(chosen) < cap:
            chosen.append(0)
            yield chosen, counts
            chosen.pop()
            frames.append([[t for t in candidates[:i] if member[t | s]], 0])
        else:
            frames.append([(), 0])


def enumerate_union_closed(spec: EnumerationSpec) -> Iterator[SetFamily]:
    """Every nonempty union-closed family matching the spec, exactly once,
    with members in ascending bitmask order.

    The order is that of including-or-not each set from the ground set down
    to the empty set, leaving it out first: ascending order of the sum of
    2^s over the members s.
    """
    for chosen, _ in _walk_union_closed(spec):
        yield SetFamily(spec.n, tuple(reversed(chosen)))


# ---------------------------------------------------------------------------
# second-frequency floor over small families
# ---------------------------------------------------------------------------

F2_FLOOR = Fraction(1, 3)


def verify_nagel_k2(spec: EnumerationSpec, progress: Progress = None) -> VerificationReport:
    """Check f_2 >= 1/3 over every enumerated family.

    Requires ground coverage and n >= 2, so each family's ground set
    really has two elements to rank.  Violations would contradict a
    proved statement at these sizes, so any entry in `violations` means
    an implementation bug.

    f_2 is the second largest element count over the family size, taken
    from the walk's incremental counts and compared in integers; each final
    witness is re-checked with `kth_frequency`.
    """
    if spec.n < 2 or not spec.require_ground_coverage:
        raise ValueError("the k=2 check needs require_ground_coverage and n >= 2")
    n = spec.n
    report = VerificationReport()
    checked = 0
    low, low_size = 0, 0  # the least f_2 so far is low / low_size
    floor, floor_size = F2_FLOOR.numerator, F2_FLOOR.denominator
    witnesses: list[tuple[Mask, ...]] = []
    for chosen, counts in _walk_union_closed(spec):
        checked += 1
        if progress and checked % PROGRESS_STRIDE == 0:
            progress(checked)
        size = len(chosen)
        c2 = sorted(counts)[-2]
        if not witnesses or c2 * low_size < low * size:
            low, low_size, witnesses = c2, size, []
        if c2 * low_size == low * size:
            witnesses.append(tuple(reversed(chosen)))
        if c2 * floor_size < floor * size:
            fam = SetFamily(n, tuple(reversed(chosen)))
            report.violations.append(f"f_2 = {Fraction(c2, size)} < 1/3 for {fam!r}")
    report.families_checked = checked
    if witnesses:
        report.min_f2 = Fraction(low, low_size)
        report.witnesses = [SetFamily(n, sets) for sets in witnesses]
    for fam in report.witnesses:
        value = kth_frequency(fam, 2)[2]
        if value != report.min_f2:
            report.violations.append(f"f_2 = {value} for witness {fam!r}, not {report.min_f2}")
    return report


# ---------------------------------------------------------------------------
# minimal-cover theorem
# ---------------------------------------------------------------------------

def _subtuples(masks: range) -> list[tuple[Mask, ...]]:
    """Every subfamily of `masks`; the i-th holds masks[j] when bit j of i is set."""
    out: list[tuple[Mask, ...]] = [()]
    for m in masks:
        out += [t + (m,) for t in out]
    return out


def _nonempty_subfamilies(n: int) -> Iterator[tuple[Mask, ...]]:
    """Every nonempty family of nonempty subsets of {1..n}, members ascending, in
    order of the bitmask over 1..2^n - 1 that picks it, made of a low and a high half."""
    half = 1 << (n - 1)
    low = _subtuples(range(1, half))
    for high in _subtuples(range(half, 1 << n)):
        for sets in low:
            if sets or high:
                yield sets + high


def _random_nonempty_family(rng: random.Random, n: int) -> tuple[Mask, ...]:
    ground = (1 << n) - 1
    count = rng.randint(1, min(12, ground))
    return tuple(rng.sample(range(1, ground + 1), count))


def _check_cover_laws(n: int, sets: tuple[Mask, ...], memo: dict, report: VerificationReport) -> tuple[Mask, ...]:
    """Check the cover laws on a family of distinct nonempty subsets of {1..n}
    and return its minimal members A in canonical order.

    MC(F) is computed afresh.  `memo` holds, under (n, A ascending), what is
    worked out once per A through `minimal_covers`: (A, MC(A), MC(A) is an
    antichain, MC(MC(A)) == A); it stands for MC(F) only where MC(F) == MC(A).
    """
    report.families_checked += 1
    mc = minimal_transversals(sets, (1 << n) - 1)
    low = _minimal_masks(sets)
    key = (n, tuple(sorted(low)))
    if key not in memo:
        anti = SetFamily(n, tuple(sorted(low, key=elements_of)))
        mc_anti = minimal_covers(anti)
        memo[key] = (anti.sets, mc_anti.sets, is_antichain(mc_anti), minimal_covers(mc_anti) == anti)
    canon, mc_anti, antichain, involution = memo[key]
    same = mc == mc_anti
    if not same:
        mc_fam = SetFamily(n, mc)
        antichain = is_antichain(mc_fam)
    if not antichain:
        report.violations.append(f"MC not an antichain for {SetFamily(n, sets)!r}")
    if not same:
        report.violations.append(f"MC differs from MC of minimal elements for {SetFamily(n, sets)!r}")
    if len(low) == len(sets):  # F is an antichain
        if not (involution if same else minimal_covers(mc_fam).sets == canon):
            report.violations.append(f"MC(MC(F)) != F for antichain {SetFamily(n, sets)!r}")
    return canon


def verify_cover_theorem(
    n_max: int = 4,
    n5_samples: int = 100_000,
    seed: int = 2024,
    progress: Progress = None,
) -> VerificationReport:
    """Cover-theorem suite: exhaustive on n <= n_max, sampled on n = 5.

    Checks, for families of nonempty sets: MC(F) is an antichain,
    MC(F) = MC(minimal elements of F), and MC(MC(F)) = F when F is an
    antichain.  Exhaustive enumeration is capped at n_max <= 4; the n = 5
    layer draws `n5_samples` random families with a fixed seed.
    """
    if not 1 <= n_max <= 4:
        raise ValueError("exhaustive cover checking is limited to n_max <= 4")
    report = VerificationReport()
    memo: dict = {}
    for n in range(1, n_max + 1):
        for sets in _nonempty_subfamilies(n):
            _check_cover_laws(n, sets, memo, report)
            if progress and report.families_checked % PROGRESS_STRIDE == 0:
                progress(report.families_checked)
    rng = random.Random(seed)
    for _ in range(n5_samples):
        anti = _check_cover_laws(5, _random_nonempty_family(rng, 5), memo, report)
        # exercise the involution on the derived antichain as well
        _check_cover_laws(5, anti, memo, report)
        if progress and report.families_checked % PROGRESS_STRIDE == 0:
            progress(report.families_checked)
    return report


# ---------------------------------------------------------------------------
# lemma spot checks on concrete families
# ---------------------------------------------------------------------------

def spot_check_lemmas(fam: SetFamily, s: int) -> VerificationReport:
    """Recount every counting bound for each flexible pair of (fam, s).

    `s` must be a minimal 2-good set of the union-closed `fam`.  For each
    flexible pair (a, x) with covered set C this checks:

    * q_T >= 2 whenever a is in T and T avoids C;
    * q_T >= 2 whenever T meets C twice, provided no pair b, c of C
      leaves s + x - b - c 2-good (the witness-set condition);
    * frequency(x) >= 2^|S| - 2^(|S|-1-|C|) + sum of covered singleton
      traces - |C|;
    * with exactly one covered element b, |S| >= 4 and s of maximal
      incidence among its size class: frequency(b) >= frequency(x) and
      the three member counts (trace size >= 2, 3, 4 with b but not x)
      of at least 2^(|S|-2), 2^(|S|-2)-1, 2^(|S|-3)-1.

    Violations signal implementation bugs; all bounds are proved for
    admissible inputs.
    """
    if not is_union_closed(fam):
        raise ValueError("family must be union-closed")
    if not is_minimal_two_good(fam, s):
        raise ValueError(f"base set {format_mask(s)} is not minimal 2-good")
    report = VerificationReport(families_checked=1)
    size = s.bit_count()
    counts = trace_counts(fam, s).counts
    freqs = element_frequencies(fam)

    maximal_incidence = None
    witnesses = flexible_pairs(fam, s)
    covered_by_x: dict[int, tuple[int, ...]] = {}
    for w in witnesses:
        if w.x not in covered_by_x:
            covered_by_x[w.x] = covered_set(fam, s, w.x)
        cov = covered_by_x[w.x]
        cov_mask = 0
        for c in cov:
            cov_mask |= 1 << (c - 1)

        def complain(text: str) -> None:
            report.violations.append(f"(a={w.a}, x={w.x}): {text}")

        # doubled traces, first pattern
        for t in submasks(s):
            if t & (1 << (w.a - 1)) and not t & cov_mask:
                if counts[t] < 2:
                    complain(f"q_{format_mask(t)} = {counts[t]} < 2")

        # doubled traces, second pattern (needs the witness-set condition)
        if len(cov) >= 2:
            xbit = 1 << (w.x - 1)
            pairs_blocked = all(
                not is_two_good(fam, (s | xbit) & ~(1 << (b - 1)) & ~(1 << (c - 1)))
                for i, b in enumerate(cov)
                for c in cov[i + 1:]
            )
            if pairs_blocked:
                for t in submasks(s):
                    if (t & cov_mask).bit_count() >= 2 and counts[t] < 2:
                        complain(f"q_{format_mask(t)} = {counts[t]} < 2 (pair pattern)")

        # frequency floor for x
        floor = (
            2**size
            - 2 ** (size - 1 - len(cov))
            + sum(counts[1 << (c - 1)] for c in cov)
            - len(cov)
        )
        if freqs[w.x] < floor:
            complain(f"frequency({w.x}) = {freqs[w.x]} < {floor}")

        # incidence-driven counts for a single covered element
        if len(cov) == 1 and size >= 4:
            if maximal_incidence is None:
                same_size = [
                    t for t in minimal_two_good_sets(fam) if t.bit_count() == size
                ]
                maximal_incidence = max(incidence(fam, t) for t in same_size)
            if incidence(fam, s) == maximal_incidence:
                b = cov[0]
                if freqs[b] < freqs[w.x]:
                    complain(f"frequency({b}) < frequency({w.x})")
                bbit, xbit = 1 << (b - 1), 1 << (w.x - 1)
                tallies = {2: 0, 3: 0, 4: 0}
                for member in fam.sets:
                    if member & bbit and not member & xbit:
                        hits = (member & s).bit_count()
                        for j in tallies:
                            if hits >= j:
                                tallies[j] += 1
                needs = {2: 2 ** (size - 2), 3: 2 ** (size - 2) - 1, 4: 2 ** (size - 3) - 1}
                for j, need in needs.items():
                    if tallies[j] < need:
                        complain(f"count(trace >= {j}, with {b}, without {w.x}) = {tallies[j]} < {need}")
    return report


# ---------------------------------------------------------------------------
# randomized corpus
# ---------------------------------------------------------------------------

def random_union_closed(
    rng: random.Random, n: int, min_generators: int = 3, max_generators: int = 10
) -> SetFamily:
    """Union closure of a few uniformly random nonempty generator sets."""
    count = rng.randint(min_generators, max_generators)
    ground = (1 << n) - 1
    gens: list[int] = []
    for _ in range(count):
        g = rng.randint(1, ground)
        if g not in gens:
            gens.append(g)
    return union_closure(SetFamily(n, tuple(gens)))


def run_lemma_corpus(
    instances: int = 1000,
    seed: int = 7,
    n_low: int = 4,
    n_high: int = 9,
    progress: Progress = None,
) -> VerificationReport:
    """Spot-check the counting bounds on randomly generated instances.

    An instance is a pair (family, S) with S a minimal 2-good set of size
    at least 2 admitting a flexible pair; random union-closed families are
    drawn (fixed seed) until `instances` of them have been checked.  Such
    an S and an x outside S + {1} need n >= 4, so `n_high` must be at least 4.
    """
    if n_high < 4 or n_low > n_high:
        raise ValueError(f"need n_low <= n_high and n_high >= 4, got n = {n_low}..{n_high}")
    rng = random.Random(seed)
    report = VerificationReport()
    while report.families_checked < instances:
        fam = random_union_closed(rng, rng.randint(n_low, n_high))
        for s in minimal_two_good_sets(fam):
            if report.families_checked >= instances:
                break
            if s.bit_count() < 2 or not flexible_pairs(fam, s):
                continue
            sub = spot_check_lemmas(fam, s)
            report.families_checked += 1
            report.violations.extend(
                f"{fam!r} S={format_mask(s)}: {v}" for v in sub.violations
            )
            if progress and report.families_checked % 100 == 0:
                progress(report.families_checked)
    return report
