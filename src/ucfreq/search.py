"""Desk-scale brute-force verification suites.

Three independent checks live here:

* exhaustive enumeration of small union-closed families and the second
  frequency floor f_2 >= 1/3 over them;
* the minimal-cover theorem (antichain output, the involution
  MC(MC(F)) = F on antichains, and MC(F) = MC(minimal elements));
* per-instance recounts of the doubled-trace, frequency-cap and
  incidence-count lower bounds on concrete families, via
  `spot_check_lemmas`, whose doubled traces come from the LP model's
  `lpmodel.doubled_pattern`: the trace counts q_T, covered sets, the
  witness-set condition and the incidence batch are read from one grouping
  of the members by their trace on S (`setfam.members_by_trace`).  The
  caller establishes its preconditions: the family is union-closed, S is
  one of its minimal 2-good sets, and the caller passes all those sets and
  S's flexible pairs, each found already.

A reported violation is an implementation-bug signal, never a
mathematical discovery: every checked statement is proved for the inputs
these suites admit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .lpmodel import INCIDENCE_EXTRA, doubled_pattern, frequency_cap_constant
from .setfam import (
    FlexibleWitness,
    Mask,
    SetFamily,
    _minimal_masks,
    canonical_key,
    element_frequencies,
    elements_of,
    flexible_pairs,
    format_mask,
    incidence,
    is_antichain,
    keeps_two_good,
    kth_frequency,
    mask_of,
    members_by_trace,
    minimal_covers,
    minimal_transversals,
    minimal_two_good_sets,
    submasks,
    union_closure,
)

ENUMERATION_LIMIT = 5  # full union-closed enumeration is guarded above this


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

def _count_base(spec: EnumerationSpec) -> int:
    """The radix of the walk's count word.  An element lies in at most 2^(n-1)
    sets and `max_family_size` members, so no count reaches it: no digit carries."""
    return min(spec.max_family_size or 1 << spec.n, 1 << spec.n - 1) + 1


def _walk_union_closed(spec: EnumerationSpec) -> Iterator[tuple[list[Mask], int, bool, bool]]:
    """The one DFS behind `enumerate_union_closed` and `verify_nagel_k2`.

    A node is a union-closed family of nonempty sets, its children add one
    set below its smallest member, and each family is reached exactly once:
    dropping the smallest member of a union-closed family leaves one.  A
    node keeps the nonempty sets that may still join it (in ascending
    order), so a child's candidates are its parent's that lie below the new
    set and whose union with it is a member.  The empty set joins every
    family and changes no count, so the node plus it rides on the node's
    yield.  Nodes come in pre-order with children ascending, the node plus
    the empty set right after the node: ascending order of the sum of 2^s
    over the members s.

    Yields `(chosen, word, bare, empty)` once per node (the memberless root
    too, unless ground coverage is required): the members in descending
    order, updated in place, so a caller that keeps it must copy it; the
    element counts as one int, the count of element e being its digit e - 1
    in base `_count_base(spec)`; whether the node's family matches the
    spec; and whether the node plus the empty set does.
    """
    n = spec.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"full enumeration is limited to n <= {ENUMERATION_LIMIT}")
    ground = (1 << n) - 1
    cap = spec.max_family_size or ground + 1
    bare = not spec.require_empty  # else only the families with the empty set
    base = _count_base(spec)
    inc = [sum(base ** (e - 1) for e in elements_of(s)) for s in range(ground + 1)]
    member = [False] * (ground + 1)
    chosen: list[Mask] = []
    word = 0
    # A union-closed family's union is its largest member, so the families
    # that cover the ground set are exactly those whose first set is `ground`.
    candidates, i = list(range(1, ground + 1)), ground - 1 if spec.require_ground_coverage else 0
    above: list[tuple[list[Mask], int]] = []  # (candidates, index of the next one) of each node above
    if not spec.require_ground_coverage:
        yield chosen, word, False, True  # the root, whose family plus the empty set is {}
    while True:
        if i == len(candidates):
            if not above:
                return
            candidates, i = above.pop()
            s = chosen.pop()
            member[s] = False
            word -= inc[s]
            continue
        s = candidates[i]
        i += 1
        chosen.append(s)
        word += inc[s]
        if len(chosen) < cap:
            yield chosen, word, bare, True
            member[s] = True
            above.append((candidates, i))
            candidates, i = [t for t in candidates[:i - 1] if member[t | s]], 0
        else:
            yield chosen, word, bare, False
            chosen.pop()  # a leaf at the cap is undone in place
            word -= inc[s]


def enumerate_union_closed(spec: EnumerationSpec) -> Iterator[SetFamily]:
    """Every nonempty union-closed family matching the spec, exactly once,
    with members in ascending bitmask order.

    The order is that of including-or-not each set from the ground set down
    to the empty set, leaving it out first: ascending order of the sum of
    2^s over the members s.
    """
    for chosen, _, bare, empty in _walk_union_closed(spec):
        if bare:
            yield SetFamily(spec.n, tuple(reversed(chosen)))
        if empty:
            yield SetFamily(spec.n, (0, *reversed(chosen)))


# ---------------------------------------------------------------------------
# second-frequency floor over small families
# ---------------------------------------------------------------------------

F2_FLOOR = Fraction(1, 3)


def verify_nagel_k2(spec: EnumerationSpec) -> VerificationReport:
    """Check f_2 >= 1/3 over every enumerated family.

    Requires ground coverage and n >= 2, so each family's ground set
    really has two elements to rank.  Violations would contradict a
    proved statement at these sizes, so any entry in `violations` means
    an implementation bug.

    f_2 is the second largest element count over the family size: the
    count is read off the walk's count word through a table filled on first
    use, and f_2 is compared in integers; each final witness is re-checked
    with `kth_frequency`.
    """
    if spec.n < 2 or not spec.require_ground_coverage:
        raise ValueError("the k=2 check needs require_ground_coverage and n >= 2")
    n = spec.n
    base = _count_base(spec)
    places = [base ** e for e in range(n)]
    second = bytearray(base ** n)  # by count word; 0 until read, as the ground set makes every count >= 1
    report = VerificationReport()
    checked = 0
    low, low_size = 1, 0  # the least f_2 so far is low / low_size; 1/0 before the first family
    floor, floor_size = F2_FLOOR.numerator, F2_FLOOR.denominator
    witnesses: list[tuple[Mask, ...]] = []
    for chosen, word, bare, empty in _walk_union_closed(spec):
        c2 = second[word]
        if not c2:
            c2 = second[word] = sorted([word // p % base for p in places])[-2]
        k = len(chosen)
        checked += bare + empty
        # The node plus the empty set has the lesser f_2 of the two families.
        if c2 * low_size > low * (k + empty) and c2 * floor_size >= floor * (k + empty):
            continue
        for size in range(k + (not bare), k + 1 + empty):
            sets = (0, *reversed(chosen))[k + 1 - size:]  # with the empty set when it is counted
            if c2 * low_size <= low * size:
                if c2 * low_size < low * size:
                    low, low_size, witnesses = c2, size, []
                witnesses.append(sets)
            if c2 * floor_size < floor * size:
                report.violations.append(f"f_2 = {Fraction(c2, size)} < {F2_FLOOR} for {SetFamily(n, sets)!r}")
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


def _cover_families(n: int) -> Iterator[tuple[tuple[Mask, ...], tuple[Mask, ...]]]:
    """Every nonempty family F of nonempty subsets of {1..n}, in order of the bitmask over
    1..2^n - 1 that picks it, with min F; both ascending.  No mask of the high half H lies in
    the low half L (below 2^(n-1)), so min F is min L, then each h of min H holding no l of it."""
    half = 1 << (n - 1)
    low = [(sets, tuple(sorted(_minimal_masks(sets)))) for sets in _subtuples(range(1, half))]
    distinct = {least for _, least in low}
    for high in _subtuples(range(half, 1 << n)):
        top = sorted(_minimal_masks(high))
        merged = {least: least + tuple([h for h in top if all(h & m != m for m in least)]) for least in distinct}
        for sets, least in low:
            if sets or high:
                yield sets + high, merged[least]


def _random_nonempty_family(rng: random.Random, n: int) -> tuple[Mask, ...]:
    ground = (1 << n) - 1
    count = rng.randint(1, min(12, ground))
    return tuple(rng.sample(range(1, ground + 1), count))


def _check_cover_laws(
    n: int, sets: tuple[Mask, ...], least: tuple[Mask, ...], memo: dict, report: VerificationReport
) -> tuple[Mask, ...]:
    """Check the cover laws on a family F of distinct nonempty subsets of {1..n},
    given its minimal members A ascending, and return A in canonical order.
    The kernel is called for MC(F) on every family; at n <= 4 it reduces F
    to the antichain word of A and answers a repeated one from its memo.
    `memo` holds, under (n, A), what is worked out once per A through
    `minimal_covers`: (A, MC(A), MC(A) is an antichain, MC(MC(A)) == A); it
    stands for MC(F) only where MC(F) == MC(A)."""
    report.families_checked += 1
    mc = minimal_transversals(sets, (1 << n) - 1)
    key = (n, least)
    if key not in memo:
        anti = SetFamily(n, tuple(sorted(least, key=canonical_key)))
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
    if len(least) == len(sets):  # F is an antichain
        if not (involution if same else minimal_covers(mc_fam).sets == canon):
            report.violations.append(f"MC(MC(F)) != F for antichain {SetFamily(n, sets)!r}")
    return canon


def verify_cover_theorem(
    n_max: int = 4,
    n5_samples: int = 100_000,
    seed: int = 2024,
) -> VerificationReport:
    """Cover-theorem suite: exhaustive on n <= n_max, sampled on n = 5.

    Checks, for families of nonempty sets: MC(F) is an antichain,
    MC(F) = MC(minimal elements of F), and MC(MC(F)) = F when F is an
    antichain.  Exhaustive enumeration is capped at n_max <= 4 and takes
    min F from each family's two halves (`_cover_families`); the n = 5 layer
    draws `n5_samples` random families with a fixed seed and reduces each.
    """
    if not 1 <= n_max <= 4:
        raise ValueError("exhaustive cover checking is limited to n_max <= 4")
    report = VerificationReport()
    memo: dict = {}
    for n in range(1, n_max + 1):
        for sets, least in _cover_families(n):
            _check_cover_laws(n, sets, least, memo, report)
    rng = random.Random(seed)
    for _ in range(n5_samples):
        sets = _random_nonempty_family(rng, 5)
        least = tuple(sorted(_minimal_masks(sets)))
        anti = _check_cover_laws(5, sets, least, memo, report)
        # exercise the involution on the derived antichain, whose minimal members are the sample's
        _check_cover_laws(5, anti, least, memo, report)
    return report


# ---------------------------------------------------------------------------
# lemma spot checks on concrete families
# ---------------------------------------------------------------------------

def spot_check_lemmas(fam: SetFamily, s: int, good: tuple[Mask, ...],
                      pairs: tuple[FlexibleWitness, ...]) -> VerificationReport:
    """Recount every counting bound for each flexible pair of (fam, s).

    Preconditions, not checked here: `fam` is union-closed (the CLI checks
    a family file once; the corpus builds union closures), `good` is all its
    minimal 2-good sets, `s` is one of them (the CLI refuses any other base),
    and `pairs` is `flexible_pairs(fam, s)`, found once by the caller.
    The groups of `members_by_trace(fam, s)` give the trace counts q_T and
    each pair (a, x) its covered set C, witness-set condition and incidence
    batch.  This checks:

    * q_T >= 2 for each T of `lpmodel.doubled_pattern`, taking its
      ``"pair"`` pattern only when no pair b, c of C leaves s + x - b - c
      2-good (the witness-set condition);
    * frequency(x) >= `lpmodel.frequency_cap_constant(|S|, |C|)` plus the
      covered singleton traces (the count behind `frequency_cap_constraint`);
    * with exactly one covered element b, |S| >= 4 and s of maximal
      incidence among its size class: frequency(b) >= frequency(x), and for
      j = 2, 3, 4 at least `lpmodel.INCIDENCE_EXTRA[j](|S|)` members with b
      but not x whose trace has size >= j (the batch behind
      `incidence_count_constraints`).
    """
    report = VerificationReport(families_checked=1)
    size = s.bit_count()
    groups = members_by_trace(fam, s)
    freqs = element_frequencies(fam)

    maximal_incidence = None
    for w in pairs:
        xbit = 1 << (w.x - 1)
        cov = tuple(y for y in elements_of(s) if keeps_two_good(groups, 1 << (y - 1), xbit))
        cov_mask = mask_of(cov)

        def complain(text: str) -> None:
            report.violations.append(f"(a={w.a}, x={w.x}): {text}")

        # doubled traces; the pair pattern needs the witness-set condition
        cov_pairs = [p for p in submasks(cov_mask) if p.bit_count() == 2]
        witness_set = not any(keeps_two_good(groups, p, xbit) for p in cov_pairs)
        for t in submasks(s):
            pattern = doubled_pattern(t, 1 << (w.a - 1), cov_mask)
            if len(groups[t]) < 2 and (pattern == "first" or pattern == "pair" and witness_set):
                tag = " (pair pattern)" if pattern == "pair" else ""
                complain(f"q_{format_mask(t)} = {len(groups[t])} < 2{tag}")

        # frequency floor for x
        floor = frequency_cap_constant(size, len(cov)) + sum(len(groups[1 << (c - 1)]) for c in cov)
        if freqs[w.x] < floor:
            complain(f"frequency({w.x}) = {freqs[w.x]} < {floor}")

        # incidence-driven counts for a single covered element
        if len(cov) == 1 and size >= 4:
            if maximal_incidence is None:
                maximal_incidence = max(incidence(freqs, t) for t in good if t.bit_count() == size)
            if incidence(freqs, s) == maximal_incidence:
                b = cov[0]
                if freqs[b] < freqs[w.x]:
                    complain(f"frequency({b}) < frequency({w.x})")
                hits = [t.bit_count() for t in submasks(s) if t & cov_mask for m in groups[t] if not m & xbit]
                for j, extra in INCIDENCE_EXTRA.items():
                    have, need = sum(h >= j for h in hits), extra(size)
                    if have < need:
                        complain(f"count(trace >= {j}, with {b}, without {w.x}) = {have} < {need}")
    return report


# ---------------------------------------------------------------------------
# randomized corpus
# ---------------------------------------------------------------------------

# `run_lemma_corpus` gives up after this many draws per instance asked for
CORPUS_DRAWS_PER_INSTANCE = 100


def random_union_closed(rng: random.Random, n: int) -> SetFamily:
    """Union closure of 3 to 10 uniformly random nonempty generator sets."""
    count = rng.randint(3, 10)
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
) -> VerificationReport:
    """Spot-check the counting bounds on randomly generated instances.

    An instance is a pair (family, S) with S a minimal 2-good set of size
    at least 2 admitting a flexible pair; random union-closed families are
    drawn (fixed seed) until `instances` of them have been checked.  Such
    an S and an x outside S + {1} need n >= 4, so `n_high` must be at least
    4; a ground set needs n >= 1, so `n_low` must be at least 1.  After
    `CORPUS_DRAWS_PER_INSTANCE * instances` draws without enough instances
    it raises `RuntimeError` instead of drawing on.
    """
    if n_high < 4 or not 1 <= n_low <= n_high:
        raise ValueError(f"need 1 <= n_low <= n_high and n_high >= 4, got n = {n_low}..{n_high}")
    rng = random.Random(seed)
    report = VerificationReport()
    budget, draws = CORPUS_DRAWS_PER_INSTANCE * instances, 0
    while report.families_checked < instances:
        if draws == budget:
            raise RuntimeError(
                f"lemma corpus: {report.families_checked} of {instances} instances"
                f" found in {budget} draws at n = {n_low}..{n_high}"
            )
        draws += 1
        fam = random_union_closed(rng, rng.randint(n_low, n_high))
        good = minimal_two_good_sets(fam)
        for s in good:
            if report.families_checked >= instances:
                break
            if s.bit_count() < 2 or not (pairs := flexible_pairs(fam, s)):
                continue
            sub = spot_check_lemmas(fam, s, good, pairs)
            report.families_checked += 1
            report.violations.extend(
                f"{fam!r} S={format_mask(s)}: {v}" for v in sub.violations
            )
    return report
