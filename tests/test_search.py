"""Verification-suite tests.

Enumeration is validated against a from-scratch filter oracle (generate
every subfamily, keep the union-closed ones), and the report suites run in
miniature here; the full-scale runs live in the acceptance module.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from fractions import Fraction

import pytest
from oracle_models import (
    is_minimal_two_good,
    is_two_good,
    pairwise_is_union_closed,
    recursive_enumerate_union_closed,
    recursive_verify_nagel_k2,
    scan_flexible_pairs,
    setfamily_nonempty_subfamilies,
    setfamily_verify_cover_theorem,
)

from ucfreq import lpmodel, search, setfam
from ucfreq.search import (
    EnumerationSpec,
    VerificationReport,
    enumerate_union_closed,
    random_union_closed,
    run_lemma_corpus,
    spot_check_lemmas,
    verify_cover_theorem,
    verify_nagel_k2,
)
from ucfreq.setfam import (
    SetFamily,
    family,
    flexible_pairs,
    is_union_closed,
    kth_frequency,
    mask_of,
    minimal_two_good_sets,
    union_closure,
)


def count_calls(monkeypatch, name: str, *modules) -> list:
    """Record every call of the function `name` in each of `modules` that
    still defines it; the calls' arguments, in order."""
    calls = []
    for module in modules:
        if hasattr(module, name):
            def counted(*args, _real=getattr(module, name), **kwargs):
                calls.append(args)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def filter_oracle_count(n: int) -> int:
    """Count union-closed families by checking every subfamily of 2^[n]."""
    full = 1 << n
    count = 0
    for bits in range(1, 1 << full):
        fam = [m for m in range(full) if bits >> m & 1]
        ok = True
        for i, a in enumerate(fam):
            for b in fam[i:]:
                if not bits >> (a | b) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


class TestEnumeration:
    def test_n1_families(self):
        got = list(enumerate_union_closed(EnumerationSpec(1)))
        assert got == [
            SetFamily(1, (0,)),
            SetFamily(1, (1,)),
            SetFamily(1, (0, 1)),
        ]

    def test_n1_require_empty(self):
        got = list(enumerate_union_closed(EnumerationSpec(1, require_empty=True)))
        assert len(got) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_match_filter_oracle(self, n):
        got = sum(1 for _ in enumerate_union_closed(EnumerationSpec(n)))
        assert got == filter_oracle_count(n)

    def test_every_yield_is_union_closed_and_unique(self):
        fams = list(enumerate_union_closed(EnumerationSpec(3)))
        assert len(fams) == len({f.sets for f in fams})
        assert all(is_union_closed(f) for f in fams)

    def test_max_family_size(self):
        fams = list(enumerate_union_closed(EnumerationSpec(3, max_family_size=2)))
        assert all(len(f) <= 2 for f in fams)
        assert SetFamily(3, (0b011, 0b111)) in [SetFamily(3, f.sets) for f in fams]

    def test_ground_coverage_filter(self):
        fams = list(
            enumerate_union_closed(EnumerationSpec(2, require_ground_coverage=True))
        )
        assert len(fams) == 8
        for f in fams:
            union = 0
            for s in f.sets:
                union |= s
            assert union == 0b11

    def test_large_ground_guarded(self):
        with pytest.raises(ValueError, match="limited"):
            next(enumerate_union_closed(EnumerationSpec(6)))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            EnumerationSpec(0)
        with pytest.raises(ValueError, match="max_family_size"):
            EnumerationSpec(3, max_family_size=0)


class TestNagelK2:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_nagel_k2(EnumerationSpec(2))
        with pytest.raises(ValueError):
            verify_nagel_k2(EnumerationSpec(1, require_ground_coverage=True))

    def test_n2(self):
        rep = verify_nagel_k2(EnumerationSpec(2, require_ground_coverage=True))
        assert rep.families_checked == 8
        assert rep.min_f2 == Fraction(1, 3)
        assert family(2, [[], [1], [1, 2]]) in rep.witnesses
        assert rep.passed

    def test_n3(self):
        rep = verify_nagel_k2(EnumerationSpec(3, require_ground_coverage=True))
        assert rep.families_checked == 90
        assert rep.min_f2 == Fraction(1, 3)
        assert rep.passed

    def test_json_dict(self):
        rep = verify_nagel_k2(EnumerationSpec(2, require_ground_coverage=True))
        doc = rep.to_json_dict(max_witnesses=1)
        assert doc["min_f2"] == "1/3"
        assert doc["passed"] is True
        assert len(doc["witnesses"]) == 1
        assert doc["witnesses_total"] == len(rep.witnesses)

    def test_witnesses_are_rechecked(self, monkeypatch):
        # the f_2 read off the count word of each final witness is checked against kth_frequency
        monkeypatch.setattr(search, "kth_frequency", lambda fam, k: (1, 1, Fraction(1, 2)))
        rep = verify_nagel_k2(EnumerationSpec(2, require_ground_coverage=True))
        assert rep.min_f2 == Fraction(1, 3)
        assert len(rep.violations) == len(rep.witnesses) == 2
        assert rep.violations[0].startswith("f_2 = 1/2 for witness SetFamily(n=2")
        assert not rep.passed

    def test_floor_violations_are_reported(self, monkeypatch):
        # no family of the census falls below 1/3, so the floor branch is
        # reached only with the floor raised
        monkeypatch.setattr(search, "F2_FLOOR", Fraction(1, 2))
        rep = verify_nagel_k2(EnumerationSpec(2, require_ground_coverage=True))
        assert rep.families_checked == 8
        assert rep.violations == [
            "f_2 = 1/3 < 1/2 for SetFamily(n=2, {{}, {1}, {1,2}})",
            "f_2 = 1/3 < 1/2 for SetFamily(n=2, {{}, {2}, {1,2}})",
        ]

    def test_floor_violations_with_and_without_the_empty_set(self, monkeypatch):
        # Reported in walk order on both sides of the walk's one yield per
        # node: a node's own family and the node plus the empty set.  At n = 3
        # no family without the empty set has f_2 below 1/2, so the floor is
        # raised to 3/5, which seven of them miss.
        floor = Fraction(3, 5)
        monkeypatch.setattr(search, "F2_FLOOR", floor)
        spec = EnumerationSpec(3, require_ground_coverage=True)
        below = [(fam, value) for fam in recursive_enumerate_union_closed(spec)
                 if (value := kth_frequency(fam, 2)[2]) < floor]
        assert sum(0 not in fam for fam, _ in below) == 7 and any(0 in fam for fam, _ in below)
        rep = verify_nagel_k2(spec)
        assert rep.violations == [f"f_2 = {value} < 3/5 for {fam!r}" for fam, value in below]


def all_specs(n: int):
    for require_empty, coverage, cap in itertools.product(
        (False, True), (False, True), (None, 1, 2, 3, 5, 8)
    ):
        yield EnumerationSpec(n, require_empty, coverage, cap)


def assert_same_census(spec: EnumerationSpec) -> None:
    got = verify_nagel_k2(spec)
    want = recursive_verify_nagel_k2(spec)
    assert got.to_json_dict() == want.to_json_dict(), spec
    assert got.witnesses == want.witnesses, spec


class TestMatchesRecursiveOracle:
    """The DFS against the recursive enumerator and f_2 check it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_spec(self, n):
        for spec in all_specs(n):
            assert list(enumerate_union_closed(spec)) == list(recursive_enumerate_union_closed(spec)), spec
            if n >= 2 and spec.require_ground_coverage:
                assert_same_census(spec)

    def test_n5_capped_census(self):
        # 101 654 families
        assert_same_census(EnumerationSpec(5, require_ground_coverage=True, max_family_size=8))


class TestCountWord:
    """The walk's element counts, one base-`_count_base` digit per element."""

    @pytest.mark.parametrize("spec, base", [
        (EnumerationSpec(5), 17),
        (EnumerationSpec(5, require_ground_coverage=True, max_family_size=8), 9),
        (EnumerationSpec(4), 9),
        (EnumerationSpec(4, max_family_size=1), 2),
    ])
    def test_base(self, spec, base):
        assert search._count_base(spec) == base

    @pytest.mark.parametrize("specs", [
        *([*all_specs(n)] for n in (1, 2, 3, 4)),
        [EnumerationSpec(5, require_ground_coverage=True, max_family_size=8)],
    ], ids=["n1", "n2", "n3", "n4", "n5-cap8"])
    def test_digits_are_the_counts(self, specs):
        # a digit that carried into the next would corrupt f_2 silently
        for spec in specs:
            base = search._count_base(spec)
            for chosen, word, _, _ in search._walk_union_closed(spec):
                digits = []
                for _ in range(spec.n):
                    word, digit = divmod(word, base)
                    digits.append(digit)
                assert word == 0, (spec, chosen)
                assert digits == [sum(s >> e & 1 for s in chosen) for e in range(spec.n)], (spec, chosen)


class TestCoverTheorem:
    def test_exhaustive_small(self):
        rep = verify_cover_theorem(n_max=3, n5_samples=0)
        # all nonempty families of nonempty sets on n = 1, 2, 3
        assert rep.families_checked == 1 + 7 + 127
        assert rep.passed

    def test_sampled_layer(self):
        rep = verify_cover_theorem(n_max=1, n5_samples=500, seed=11)
        assert rep.families_checked == 1 + 1000
        assert rep.passed

    def test_sampling_is_reproducible(self):
        a = verify_cover_theorem(n_max=1, n5_samples=200, seed=3)
        b = verify_cover_theorem(n_max=1, n5_samples=200, seed=3)
        assert a == b

    def test_guard(self):
        with pytest.raises(ValueError):
            verify_cover_theorem(n_max=5, n5_samples=0)

    @staticmethod
    def n5_families(monkeypatch, seed, samples=200):
        """The families `_check_cover_laws` receives at n = 5: each draw,
        then its derived antichain."""
        seen, check = [], search._check_cover_laws

        def recorded(n, sets, *rest):
            if n == 5:
                seen.append(sets)
            return check(n, sets, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(search, "_check_cover_laws", recorded)
            verify_cover_theorem(n_max=1, n5_samples=samples, seed=seed)
        return seen

    def test_sampled_families_follow_the_seed(self, monkeypatch):
        # the report shows only counts and violations, so it cannot tell two
        # draws apart; the checked families can
        first = self.n5_families(monkeypatch, 1)
        assert len(first) == 400
        assert first != self.n5_families(monkeypatch, 2)
        assert first == self.n5_families(monkeypatch, 1)

    def test_sampled_families_are_pinned(self, monkeypatch):
        seen = self.n5_families(monkeypatch, 2024)
        assert seen[:4] == [(6, 24, 19, 10, 7, 30, 14, 23), (19, 6, 10, 24), (18, 8, 21, 27, 24), (21, 18, 8)]
        digest = hashlib.sha256(repr(seen).encode()).hexdigest()
        assert digest == "44cb636d0e39f90791ee1f901fbcbbee119f27b52ab1c6ba0029848147391e84"

    def test_halves_merge_gives_every_family_and_its_minimal_members(self):
        # all 32 902 families of n = 1..4, in the oracle's order, each with
        # min F as one reduction of the whole family gives it
        for n in range(1, 5):
            pairs = zip(search._cover_families(n), setfamily_nonempty_subfamilies(n), strict=True)
            for (sets, least), fam in pairs:
                assert sets == fam.sets
                assert least == tuple(sorted(setfam._minimal_masks(sets)))

    @pytest.mark.parametrize("seed", [1, 2024])
    def test_matches_setfamily_oracle(self, seed):
        got = verify_cover_theorem(n_max=3, n5_samples=400, seed=seed)
        assert got == setfamily_verify_cover_theorem(3, 400, seed)
        assert got.families_checked == 1 + 7 + 127 + 800 and got.passed


# Kernel faults for the cover laws, each a deterministic function of its input,
# installed wherever the suite and its oracle reach the kernel.

def superset_added(real):
    """Law 1: every answer gains `allowed` itself, a superset of its other members."""
    def kernel(targets, allowed, limit=None):
        out = real(targets, allowed, limit)
        return out if allowed in out else out + (allowed,)
    return kernel


def short_on_nested_targets(real):
    """Law 2: the answer loses its last member when one target contains another."""
    def kernel(targets, allowed, limit=None):
        targets = tuple(targets)
        out = real(targets, allowed, limit)
        nested = any(a != b and a & b == a for a in targets for b in targets)
        return out[:-1] if nested and len(out) > 1 else out
    return kernel


def short(real):
    """Law 3: every answer of two or more members loses its last one."""
    def kernel(targets, allowed, limit=None):
        out = real(targets, allowed, limit)
        return out[:-1] if len(out) > 1 else out
    return kernel


class TestCoverFaults:
    """A faulty kernel is reported family by family, worded with the family's
    `SetFamily` repr, exactly as by the oracle that recomputes every law for
    every family: the per-antichain memo hides no check."""

    @pytest.mark.parametrize("fault, law", [
        (superset_added, "MC not an antichain for "),
        (short_on_nested_targets, "MC differs from MC of minimal elements for "),
        (short, "MC(MC(F)) != F for antichain "),
    ])
    def test_fault_reported_like_the_oracle(self, monkeypatch, fault, law):
        kernel = fault(setfam.minimal_transversals)
        monkeypatch.setattr(setfam, "minimal_transversals", kernel)
        monkeypatch.setattr(search, "minimal_transversals", kernel)
        got = verify_cover_theorem(n_max=3, n5_samples=300, seed=5)
        assert got == setfamily_verify_cover_theorem(3, 300, 5)
        hits = [v for v in got.violations if v.startswith(law)]
        assert hits
        assert all(re.fullmatch(re.escape(law) + r"SetFamily\(n=\d, \{.*\}\)", v) for v in hits)


FLEX_FIXTURE = union_closure(family(5, [[2], [2, 4], [3], [1]]))
COVER_FIXTURE = union_closure(family(5, [[2, 5], [3], [4], [1]]))


class TestSpotCheck:
    def test_fixture_passes(self):
        fam, s = FLEX_FIXTURE, mask_of([2, 3])
        rep = spot_check_lemmas(fam, s, minimal_two_good_sets(fam), flexible_pairs(fam, s))
        assert rep.families_checked == 1
        assert rep.passed

    def test_vacuous_without_flexible_pairs(self):
        fam, s = COVER_FIXTURE, mask_of([2, 3, 4])
        rep = spot_check_lemmas(fam, s, minimal_two_good_sets(fam), flexible_pairs(fam, s))
        assert rep.passed

    def test_one_grouping_per_recount(self, monkeypatch):
        # the trace counts are read off the groups that give C, the
        # witness-set condition and the incidence batch
        fam, s = INCIDENCE_CASE
        good, pairs = minimal_two_good_sets(fam), flexible_pairs(fam, s)
        calls = count_calls(monkeypatch, "members_by_trace", search, setfam)
        assert spot_check_lemmas(fam, s, good, pairs).passed
        assert calls == [(fam, s)]
        assert not hasattr(search, "trace_counts")

    def test_larger_seeded_example(self):
        fam = random_union_closed(__import__("random").Random(123), 7)
        good = minimal_two_good_sets(fam)
        for s in good:
            if s.bit_count() >= 2:
                assert spot_check_lemmas(fam, s, good, flexible_pairs(fam, s)).passed
                break


# Instances each given by its join-irreducible members: the first two from
# the seed-7 lemma corpus, the last two planted (a member of trace exactly
# {y} for each y in S, holding x when y is covered; two of trace {a}, one
# with x; one of trace {b, c} without x for each pair of C).  Floor-tight:
# frequency(x) equals the floor, without and with a covered element at
# |S| = 2, without one at |S| = 4 and with C = {4, 7} at |S| = 5.
FLOOR_TIGHT = [
    (union_closure(family(4, [[2], [2, 3], [4]])), mask_of([2, 4]), "(a=2, x=3): frequency(3) = 2 < 3"),
    (union_closure(family(5, [[2], [2, 3], [2, 3, 5], [3, 4, 5]])), mask_of([2, 4]), "(a=2, x=5): frequency(5) = 3 < 4"),
    (union_closure(family(6, [[], [2], [3], [3, 4], [5], [6]])), mask_of([2, 3, 5, 6]), "(a=3, x=4): frequency(4) = 8 < 9"),
    (
        union_closure(family(7, [[], [2], [3], [3, 5], [4, 5], [4, 7], [5, 7], [6]])),
        mask_of([2, 3, 4, 6, 7]),
        "(a=3, x=5): frequency(5) = 28 < 29",
    ),
]
# |S| = 4 with one covered element b = 2 for (a, x) = (7, 8), and S of
# maximal incidence: the incidence block runs
INCIDENCE_CASE = (
    union_closure(family(8, [
        [1, 2, 3, 6], [1, 2, 5, 6, 7], [1, 4, 5, 6, 7, 8], [1, 4, 7, 8],
        [2, 3, 8], [2, 4, 5, 6], [3, 4, 5], [4, 6], [7],
    ])),
    mask_of([2, 5, 6, 7]),
)
# |S| = 5, planted like FLOOR_TIGHT's last two, with one covered element
# b = 2 for (a, x) = (4, 6), and S of maximal incidence
INCIDENCE_CASE_5 = (
    union_closure(family(8, [[], [2, 3, 8], [2, 6], [3], [4], [4, 6, 8], [4, 8], [5, 8], [7, 8]])),
    mask_of([2, 3, 4, 5, 7]),
)
# Each incidence instance with its flexible pair (a, x) whose C is {b}, the
# pairs whose C fails the witness-set condition, and how many doubled traces
# the recount flags with every trace counted once.  At |S| = 4, C = {5, 6}
# for (a, x) = (7, 4), and that pair leaves {2, 4, 7} 2-good; at |S| = 5,
# C = {5, 7} for (a, x) = (4, 8), and that pair leaves {2, 3, 4, 8} 2-good.
INCIDENCE = [(*INCIDENCE_CASE, 7, 8, 2, [(7, 4)], 6), (*INCIDENCE_CASE_5, 4, 6, 2, [(4, 8)], 12)]
# C = {3, 6} for (a, x) = (4, 5), and no pair of C leaves S + x - pair 2-good
PAIR_CASE = (
    union_closure(family(6, [[1, 2, 3, 5], [1, 4, 5], [1, 5, 6], [2, 3, 4], [2, 3, 4, 5, 6], [3, 6], [4]])),
    mask_of([3, 4, 6]),
)

# C = {3, 5} for (a, x) = (2, 4), and that pair leaves S + x - 3 - 5 = {2, 4}
# 2-good, so the pair pattern does not apply
WITNESS_SET_CASE = (
    union_closure(family(8, [
        [1, 2, 3, 4, 8], [1, 2, 4, 7], [1, 2, 6], [1, 3, 4], [1, 4, 5, 6],
        [2, 4, 5, 6, 7, 8], [3, 4], [3, 4, 5, 7, 8], [3, 4, 6, 7],
    ])),
    mask_of([2, 3, 5]),
)
RECOUNT_FIXTURES = {
    "flex": (FLEX_FIXTURE, mask_of([2, 3])),
    "cover": (COVER_FIXTURE, mask_of([2, 3, 4])),
    **{f"floor-{i}": (fam, s) for i, (fam, s, _) in enumerate(FLOOR_TIGHT)},
    "incidence": INCIDENCE_CASE,
    "incidence-5": INCIDENCE_CASE_5,
    "pair": PAIR_CASE,
    "witness-set": WITNESS_SET_CASE,
}


class Group(list):
    """A group of `members_by_trace` whose `len`, its trace count, is
    `count`; its members stay, so C, the witness-set condition and the
    incidence batch still read the real family."""

    def __init__(self, members, count):
        super().__init__(members)
        self.q = count

    def __len__(self):
        return self.q


def with_trace_count(t, value):
    """`members_by_trace` with the count of trace `t` replaced by `value`."""
    def grouped(fam, s):
        groups = setfam.members_by_trace(fam, s)
        groups[t] = Group(groups[t], value)
        return groups
    return grouped


class TestSpotCheckFaults:
    """Each recount block, with its bound moved one past what the instance
    has, reports exactly that: a check weakened by one would stay silent."""

    def test_bounds_come_from_lpmodel(self):
        assert search.frequency_cap_constant is lpmodel.frequency_cap_constant
        assert search.INCIDENCE_EXTRA is lpmodel.INCIDENCE_EXTRA

    @pytest.mark.parametrize("fam, s", RECOUNT_FIXTURES.values(), ids=RECOUNT_FIXTURES)
    def test_fixtures_meet_the_preconditions(self, fam, s):
        # `spot_check_lemmas` checks none of them, and a fixture that missed
        # one would leave its fault test vacuous
        assert pairwise_is_union_closed(fam)
        assert is_minimal_two_good(fam, s)
        assert flexible_pairs(fam, s) == scan_flexible_pairs(fam, s)

    @pytest.mark.parametrize("fam, s, violation", FLOOR_TIGHT, ids=["uncovered", "covered", "s4-uncovered", "s5-covered"])
    def test_frequency_floor(self, monkeypatch, fam, s, violation):
        assert spot_check_lemmas(fam, s, minimal_two_good_sets(fam), flexible_pairs(fam, s)).passed
        monkeypatch.setattr(search, "frequency_cap_constant", lambda size, c: lpmodel.frequency_cap_constant(size, c) + 1)
        assert spot_check_lemmas(fam, s, minimal_two_good_sets(fam), flexible_pairs(fam, s)).violations == [violation]

    @pytest.mark.parametrize("case, j", [
        pytest.param(case, j, id=f"{tag}{j}") for case, tag in zip(INCIDENCE, ["", "s5-"]) for j in (2, 3, 4)
    ])
    def test_incidence_counts(self, monkeypatch, case, j):
        fam, s, a, x, b = case[:5]
        bbit, xbit = mask_of([b]), mask_of([x])
        have = sum(1 for m in fam.sets if m & bbit and not m & xbit and (m & s).bit_count() >= j)
        monkeypatch.setitem(lpmodel.INCIDENCE_EXTRA, j, lambda size: have)
        assert spot_check_lemmas(fam, s, minimal_two_good_sets(fam), flexible_pairs(fam, s)).passed
        monkeypatch.setitem(lpmodel.INCIDENCE_EXTRA, j, lambda size: have + 1)
        assert spot_check_lemmas(fam, s, minimal_two_good_sets(fam), flexible_pairs(fam, s)).violations == [
            f"(a={a}, x={x}): count(trace >= {j}, with {b}, without {x}) = {have} < {have + 1}"
        ]

    @pytest.mark.parametrize("case, excess", [
        pytest.param(case, excess, id=f"{tag}{name}")
        for case, tag in zip(INCIDENCE, ["", "s5-"]) for excess, name in [(0, "tight"), (1, "over")]
    ])
    def test_incidence_frequency_order(self, monkeypatch, case, excess):
        fam, s, a, x, b = case[:5]
        violations = [f"(a={a}, x={x}): frequency({b}) < frequency({x})"] * excess

        def frequencies(fam):
            freqs = setfam.element_frequencies(fam)
            freqs[x] = freqs[b] + excess
            return freqs

        monkeypatch.setattr(search, "element_frequencies", frequencies)
        # every set ties for maximal incidence, so the block runs whatever
        # the frequencies
        monkeypatch.setattr(search, "incidence", lambda freqs, t: 0)
        assert spot_check_lemmas(fam, s, minimal_two_good_sets(fam), flexible_pairs(fam, s)).violations == violations

    def test_doubled_trace(self, monkeypatch):
        monkeypatch.setattr(search, "members_by_trace", with_trace_count(mask_of([2]), 1))
        fam, s = FLEX_FIXTURE, mask_of([2, 3])
        got = spot_check_lemmas(fam, s, minimal_two_good_sets(fam), flexible_pairs(fam, s)).violations
        assert got == ["(a=2, x=4): q_{2} = 1 < 2"]

    def test_doubled_trace_pair_pattern(self, monkeypatch):
        fam, s = PAIR_CASE
        monkeypatch.setattr(search, "members_by_trace", with_trace_count(mask_of([3, 6]), 1))
        got = spot_check_lemmas(fam, s, minimal_two_good_sets(fam), flexible_pairs(fam, s)).violations
        assert "(a=4, x=5): q_{3,6} = 1 < 2 (pair pattern)" in got
        assert all(v.endswith(": q_{3,6} = 1 < 2 (pair pattern)") for v in got)

    @pytest.mark.parametrize("fam, s, pinned_unmet, flagged", [case[:2] + case[5:] for case in INCIDENCE], ids=["s4", "s5"])
    def test_doubled_traces_are_the_lp_targets(self, monkeypatch, fam, s, pinned_unmet, flagged):
        # every trace counted once: for each flexible pair (a, x) the recount
        # flags the LP model's doubled targets carried from the roles a, b, c,
        # ... to S in ascending order, the pair pattern where the witness-set
        # condition holds
        role = dict(zip(setfam.elements_of(s), "abcde"))
        monkeypatch.setattr(
            search, "members_by_trace", lambda fam, s: {t: Group(g, 1) for t, g in setfam.members_by_trace(fam, s).items()}
        )
        report = spot_check_lemmas(fam, s, minimal_two_good_sets(fam), flexible_pairs(fam, s))
        got = [v for v in report.violations if ": q_" in v]
        want, unmet = [], []
        for w in setfam.flexible_pairs(fam, s):
            cov = setfam.covered_set(fam, s, w.x)
            sx = s | mask_of([w.x])
            if any(is_two_good(fam, sx & ~mask_of(p)) for p in itertools.combinations(cov, 2)):
                unmet.append((w.a, w.x))
            for t in lpmodel.doubled_trace_targets(s.bit_count(), role[w.a], [role[c] for c in cov]):
                t_mask = mask_of([e for e in role if role[e] in t])
                pair = lpmodel.doubled_pattern(t_mask, mask_of([w.a]), mask_of(cov)) == "pair"
                if not (pair and (w.a, w.x) in unmet):
                    tag = " (pair pattern)" if pair else ""
                    want.append(f"(a={w.a}, x={w.x}): q_{setfam.format_mask(t_mask)} = 1 < 2{tag}")
        assert sorted(got) == sorted(want)
        assert unmet == pinned_unmet and len(want) == flagged

    def test_pair_pattern_needs_the_witness_set_condition(self, monkeypatch):
        fam, s = WITNESS_SET_CASE
        assert setfam.covered_set(fam, s, 4) == (3, 5)
        assert is_two_good(fam, mask_of([2, 4]))
        monkeypatch.setattr(search, "members_by_trace", with_trace_count(mask_of([3, 5]), 1))
        # only the first pattern of (a, x) = (3, 7), whose C is empty, sees q_{3,5}
        got = spot_check_lemmas(fam, s, minimal_two_good_sets(fam), flexible_pairs(fam, s)).violations
        assert got == ["(a=3, x=7): q_{3,5} = 1 < 2"]


class TestLemmaCorpus:
    def test_small_corpus_passes(self):
        rep = run_lemma_corpus(instances=120, seed=7)
        assert rep.families_checked == 120
        assert rep.passed

    def test_reproducible(self):
        a = run_lemma_corpus(instances=30, seed=9)
        b = run_lemma_corpus(instances=30, seed=9)
        assert a == b

    @pytest.mark.parametrize("n_low, n_high", [(2, 2), (2, 3), (5, 4), (0, 5), (-3, 5)])
    def test_sizes_without_instances_rejected(self, n_low, n_high):
        # an instance needs |S| >= 2 and x outside S + {1}, so n >= 4, and
        # every draw needs a ground set, so n >= 1
        with pytest.raises(ValueError, match="n_high"):
            run_lemma_corpus(instances=1, n_low=n_low, n_high=n_high)

    def test_smallest_admissible_size(self):
        assert run_lemma_corpus(instances=20, seed=3, n_low=4, n_high=4).passed

    def test_gives_up_after_the_draw_budget(self, monkeypatch):
        # {{1}} has the one minimal 2-good set {} and so no instance: without
        # a budget the loop would draw for ever
        drawn = []

        def barren(rng, n):
            drawn.append(n)
            return family(n, [[1]])

        monkeypatch.setattr(search, "random_union_closed", barren)
        with pytest.raises(RuntimeError, match=r"^lemma corpus: 0 of 3 instances found in 300 draws at n = 4\.\.9$"):
            run_lemma_corpus(instances=3)
        assert len(drawn) == 3 * search.CORPUS_DRAWS_PER_INSTANCE == 300

    def test_rechecks_neither_closure_nor_minimality(self, monkeypatch):
        # the corpus's families are union closures and its bases come from
        # `minimal_two_good_sets`: neither is checked again per instance
        closure = count_calls(monkeypatch, "is_union_closed", setfam, search)
        minimality = count_calls(monkeypatch, "is_minimal_two_good", setfam, search)
        assert run_lemma_corpus(instances=50, seed=3).families_checked == 50
        assert (len(closure), len(minimality)) == (0, 0)

    def test_hands_flexible_pairs_only_minimal_two_good_bases(self, monkeypatch):
        # `flexible_pairs` does not check that its base is 2-good: each base
        # the corpus hands it must be minimal 2-good, by the oracle too
        bases = []

        def checked(fam, s, _real=search.flexible_pairs):
            assert s in minimal_two_good_sets(fam) and is_two_good(fam, s)
            bases.append(s)
            return _real(fam, s)

        monkeypatch.setattr(search, "flexible_pairs", checked)
        assert run_lemma_corpus(instances=300, seed=7).families_checked == 300
        assert len(bases) >= 300

    def test_flexible_pairs_once_per_base(self, monkeypatch):
        # the corpus finds the flexible pairs of each base it looks at once,
        # and hands them to the recount, which finds none of its own
        drawn = []

        def listed(fam, *args, _real=search.minimal_two_good_sets, **kwargs):
            good = _real(fam, *args, **kwargs)
            drawn.append((fam, good))
            return good

        monkeypatch.setattr(search, "minimal_two_good_sets", listed)
        calls, inside = count_calls(monkeypatch, "flexible_pairs", setfam, search), []

        def recount(*args, _real=search.spot_check_lemmas):
            before = len(calls)
            report = _real(*args)
            inside.append(len(calls) - before)
            return report

        monkeypatch.setattr(search, "spot_check_lemmas", recount)
        assert run_lemma_corpus(instances=50, seed=3).families_checked == 50
        # the bases of size >= 2, in the corpus's order, up to its 50th instance
        looked, found = [], 0
        for fam, good in drawn:
            for s in good:
                if found == 50:
                    break
                if s.bit_count() >= 2:
                    looked.append((fam, s))
                    found += bool(scan_flexible_pairs(fam, s))
        assert inside == [0] * 50
        assert calls == looked

    def test_budget_leaves_the_draws_unchanged(self, monkeypatch):
        # 362 draws for 1000 instances at seed 7, as before the budget existed
        drawn = []

        def counted(rng, n):
            drawn.append(n)
            return random_union_closed(rng, n)

        monkeypatch.setattr(search, "random_union_closed", counted)
        assert run_lemma_corpus(instances=1000, seed=7).families_checked == 1000
        assert len(drawn) == 362


class TestReport:
    def test_default_report_passes(self):
        assert VerificationReport().passed
        assert VerificationReport(violations=["boom"]).passed is False
