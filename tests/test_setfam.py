"""Set-family engine tests.

Expected values for non-trivial cases are computed by the brute-force
oracles at the top of this file (definition-level scans, independent of the
library implementations) and frozen into the assertions.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st
from oracle_models import (
    family_to_json,
    family_to_text,
    frontier_union_closure,
    is_minimal_transversal,
    is_minimal_two_good,
    pairwise_is_union_closed,
    scan_covered_set,
    scan_element_frequencies,
    scan_flexible_pairs,
    scan_is_antichain,
    scan_is_two_good,
    scan_minimal_elements,
    scan_minimal_transversals,
    shift_elements_of,
    sorted_family,
    swap_normalize,
)

from ucfreq import search, setfam
from ucfreq.setfam import (
    FlexibleWitness,
    SetFamily,
    _minimal_masks,
    _mmcs,
    canonical_key,
    covered_set,
    element_frequencies,
    elements_of,
    family,
    family_from_json,
    family_from_text,
    flexible_pairs,
    format_mask,
    incidence,
    is_antichain,
    is_two_good,
    is_union_closed,
    keeps_two_good,
    kth_frequency,
    mask_of,
    members_by_trace,
    minimal_covers,
    minimal_elements,
    minimal_transversals,
    minimal_two_good_sets,
    normalize,
    submasks,
    trace_counts,
    union_closure,
)

from test_search import WITNESS_SET_CASE


# ---------------------------------------------------------------------------
# oracles: definition-level reimplementations used to derive expected values
# ---------------------------------------------------------------------------

def oracle_closure(n: int, gens: set[int]) -> set[int]:
    """Fixed-point union closure."""
    fam = set(gens)
    while True:
        new = {a | b for a in fam for b in fam} - fam
        if not new:
            return fam
        fam |= new


def oracle_two_good(sets, s: int, d: int = 1) -> bool:
    dbit = 1 << (d - 1)
    if s & dbit:
        return False
    return all(a & s for a in sets if a not in (0, dbit))


def oracle_minimal_two_good(sets, n: int) -> list[int]:
    """Exhaustive scan of every subset of {2..n} against every proper subset."""
    allowed = ((1 << n) - 1) & ~1
    good = {s for s in range(1 << n) if s & ~allowed == 0 and oracle_two_good(sets, s)}
    return sorted(
        (s for s in good if not any(t != s and t & ~s == 0 for t in good)),
        key=elements_of,
    )


def oracle_minimal_covers(sets, n: int) -> list[int]:
    covers = [s for s in range(1 << n) if all(s & a for a in sets)]
    cset = set(covers)
    return sorted(
        (s for s in covers if not any(t != s and t & ~s == 0 for t in cset)),
        key=elements_of,
    )


# hypothesis strategies ------------------------------------------------------

def raw_families(max_n: int = 5, max_sets: int = 8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.integers(0, (1 << n) - 1), min_size=1, max_size=max_sets, unique=True
        ).map(lambda sets: SetFamily(n, tuple(sets)))
    )


def closed_families(max_n: int = 5, max_gens: int = 5):
    return raw_families(max_n, max_gens).map(union_closure)


def wide_masks():
    """Masks up to the widest ground: random ones, and sparse ones that often
    share their low elements."""
    return st.integers(0, (1 << 63) - 1) | st.sets(st.integers(1, 63), max_size=4).map(mask_of)


def transversal_problems(max_n: int = 6, max_targets: int = 8):
    """(targets, allowed) over {1..n}: targets may repeat or be empty, there
    may be none, and `allowed` may leave out part of the ground set."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, (1 << n) - 1), max_size=max_targets),
            st.integers(0, (1 << n) - 1),
        )
    )


# ---------------------------------------------------------------------------
# construction / invariants
# ---------------------------------------------------------------------------

class TestSetFamily:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SetFamily(2, (1, 1))

    def test_rejects_out_of_range_elements(self):
        with pytest.raises(ValueError, match="outside"):
            SetFamily(1, (2,))

    def test_rejects_wide_ground(self):
        with pytest.raises(ValueError):
            SetFamily(64, ())

    def test_mask_roundtrip(self):
        assert elements_of(mask_of([3, 1])) == (1, 3)
        assert format_mask(0) == "{}"
        assert format_mask(mask_of([2, 3])) == "{2,3}"

    def test_elements_of_matches_the_shift_loop_on_every_small_mask(self):
        for mask in range(1 << 10):
            assert elements_of(mask) == shift_elements_of(mask)

    @given(st.integers(0, (1 << 63) - 1))
    @example((1 << 63) - 1)
    @example(1 << 62)
    def test_elements_of_matches_the_shift_loop_on_wide_masks(self, mask):
        assert elements_of(mask) == shift_elements_of(mask)

    def test_canonical_key_orders_every_small_mask_as_elements_of(self):
        masks = list(range(1 << 10))[::-1]
        assert sorted(masks, key=canonical_key) == sorted(masks, key=elements_of)
        assert canonical_key(0) == "" and canonical_key(mask_of([1, 3])) == "aba"

    @given(st.lists(wide_masks(), max_size=40), wide_masks())
    @example([], 0)
    @example([(1 << 63) - 1, 1 << 62, 0], 1)
    def test_canonical_key_orders_wide_masks_as_elements_of(self, masks, other):
        assert sorted(masks, key=canonical_key) == sorted(masks, key=elements_of)
        for mask in masks:
            assert (canonical_key(mask) < canonical_key(other)) == (elements_of(mask) < elements_of(other))

    def test_mask_of_rejects_elements_off_the_widest_ground(self):
        for bad in (0, 64, 10**12):
            with pytest.raises(ValueError, match="1..63"):
                mask_of([1, bad])
        with pytest.raises(ValueError, match="1..63"):
            family_from_text("1 1000000000000\n")

    def test_contains(self):
        f = family(2, [[], [1, 2]])
        assert 0 in f and mask_of([1, 2]) in f
        assert mask_of([1]) not in f

    def test_submasks_order(self):
        assert list(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]


class TestUnionClosed:
    def test_chain(self):
        assert is_union_closed(family(2, [[], [1], [1, 2]]))

    def test_missing_union(self):
        assert not is_union_closed(family(2, [[1], [2]]))

    def test_powerset_of_two(self):
        f = family(2, [[], [1], [2], [1, 2]])
        # exhaustive pair check, independently of the library loop
        members = set(f.sets)
        assert all(a | b in members for a in f.sets for b in f.sets)
        assert is_union_closed(f)

    @given(closed_families())
    def test_closure_output_is_union_closed(self, f):
        assert is_union_closed(f)

    @given(raw_families())
    def test_agrees_with_the_pairwise_check(self, f):
        assert is_union_closed(f) == pairwise_is_union_closed(f)

    def test_stops_at_the_first_missing_union(self):
        # the closure of 63 singletons has 2^63 - 1 sets; {1,2} is missing at once
        f = SetFamily(63, tuple(1 << i for i in range(63)))
        start = time.perf_counter()
        assert not is_union_closed(f)
        assert time.perf_counter() - start < 0.5


class TestUnionClosure:
    def test_two_singletons(self):
        got = union_closure(family(2, [[1], [2]]))
        assert got == sorted_family(family(2, [[1], [2], [1, 2]]))
        assert set(got.sets) == oracle_closure(2, {0b01, 0b10})

    def test_single_empty_set(self):
        assert union_closure(family(1, [[]])) == family(1, [[]])

    def test_three_pairs(self):
        got = union_closure(family(3, [[1, 2], [2, 3], [1, 3]]))
        assert set(got.sets) == oracle_closure(3, {0b011, 0b110, 0b101})
        assert sorted(elements_of(s) for s in got.sets) == [
            (1, 2), (1, 2, 3), (1, 3), (2, 3),
        ]

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            union_closure(SetFamily(1, ()))

    @given(raw_families())
    def test_agrees_with_the_frontier_closure(self, f):
        assert union_closure(f) == frontier_union_closure(f)

    @given(raw_families())
    def test_idempotent_and_contains_generators(self, f):
        closed = union_closure(f)
        assert union_closure(closed) == closed
        assert set(f.sets) <= set(closed.sets)

    @given(raw_families(max_n=4, max_sets=5), st.integers(0, 15))
    def test_monotone_in_generators(self, f, extra):
        extra &= f.ground
        bigger = SetFamily(f.n, f.sets + ((extra,) if extra not in f.member_set() else ()))
        assert set(union_closure(f).sets) <= set(union_closure(bigger).sets)


class TestFrequencies:
    def test_direct_counts(self):
        assert element_frequencies(family(2, [[], [1], [1, 2]])) == {1: 2, 2: 1}
        assert element_frequencies(family(2, [[1], [2], [1, 2]])) == {1: 2, 2: 2}

    def test_empty_set_only(self):
        assert element_frequencies(family(1, [[]])) == {1: 0}

    @given(raw_families(max_n=8, max_sets=12) | st.lists(wide_masks(), min_size=1, max_size=8, unique=True).map(
        lambda sets: SetFamily(63, tuple(sets))))
    def test_matches_element_scan(self, f):
        assert list(element_frequencies(f).items()) == list(scan_element_frequencies(f).items())

    def test_kth(self):
        f = family(2, [[], [1], [1, 2]])
        assert kth_frequency(f, 1) == (1, 2, Fraction(2, 3))
        assert kth_frequency(f, 2) == (2, 1, Fraction(1, 3))
        assert kth_frequency(family(1, [[]]), 1) == (1, 0, Fraction(0))

    def test_kth_tie_breaks_to_smaller_id(self):
        f = family(2, [[1], [2], [1, 2]])
        assert kth_frequency(f, 1) == (1, 2, Fraction(2, 3))
        assert kth_frequency(f, 2) == (2, 2, Fraction(2, 3))

    def test_kth_out_of_range(self):
        with pytest.raises(ValueError):
            kth_frequency(family(1, [[1]]), 2)

    def test_kth_of_empty_family(self):
        with pytest.raises(ValueError) as info:
            kth_frequency(SetFamily(2, ()), 1)
        assert str(info.value) == "kth_frequency of an empty family"

    def test_normalize_moves_top_to_one(self):
        f = family(3, [[2], [2, 3], [1, 2, 3]])
        g = normalize(f)
        assert kth_frequency(g, 1)[0] == 1
        assert sorted(element_frequencies(g).values()) == sorted(
            element_frequencies(f).values()
        )

    @given(closed_families(max_n=7))
    @example(family(3, [[], [1], [1, 2]]))  # top = 1
    @example(family(4, [[4], [1, 4], [2, 3, 4]]))  # top = n
    @example(family(1, [[], [1]]))
    def test_normalize_matches_the_bit_swap(self, f):
        assert normalize(f) == swap_normalize(f)

    @given(closed_families())
    def test_normalize_preserves_f2(self, f):
        if f.n < 2:
            return
        assert kth_frequency(normalize(f), 2)[2] == kth_frequency(f, 2)[2]


# ---------------------------------------------------------------------------
# 2-good machinery
# ---------------------------------------------------------------------------

class TestTwoGood:
    def test_singleton_base(self):
        f = family(2, [[], [1], [2], [1, 2]])
        assert is_two_good(f, mask_of([2]))

    def test_vacuous_empty_base(self):
        # only excluded members: the condition holds vacuously for S = {}
        assert is_two_good(family(1, [[], [1]]), 0)

    def test_contains_distinguished(self):
        f = family(2, [[], [1], [2], [1, 2]])
        assert not is_two_good(f, mask_of([1, 2]))

    @given(closed_families(max_n=6))
    def test_matches_the_member_scan(self, f):
        for s in submasks(f.ground & ~1):
            assert is_two_good(f, s) == scan_is_two_good(f, s)

    def test_refuses_elements_above_n(self):
        # {2} is 2-good; {2, 4} reaches outside the ground set {1, 2, 3}
        f = family(3, [[], [1], [2], [1, 2], [2, 3], [1, 2, 3]])
        s = mask_of([2])
        assert is_two_good(f, s) and is_minimal_two_good(f, s)
        for out in (s | 1 << f.n, 1 << f.n, s | 1 << 62):
            assert not is_two_good(f, out)
            assert not is_minimal_two_good(f, out)
            with pytest.raises(ValueError, match="not 2-good"):
                flexible_pairs(f, out)
            with pytest.raises(ValueError, match="not 2-good"):
                covered_set(f, out, 3)

    @given(closed_families(max_n=5))
    def test_monotone_under_supersets(self, f):
        ground_no1 = f.ground & ~1
        for s in submasks(ground_no1):
            if is_two_good(f, s):
                for extra in elements_of(ground_no1 & ~s):
                    assert is_two_good(f, s | 1 << (extra - 1))
                break


class TestMinimalTwoGood:
    def test_powerset_of_two(self):
        f = family(2, [[], [1], [2], [1, 2]])
        assert minimal_two_good_sets(f) == (mask_of([2]),)

    def test_degenerate_family_has_empty_base(self):
        assert minimal_two_good_sets(family(1, [[], [1]])) == (0,)

    def test_closure_of_three_singletons(self):
        # every non-excluded member must be met, so {2,3} is forced
        f = union_closure(family(3, [[1], [2], [3]]))
        expect = oracle_minimal_two_good(f.sets, 3)
        assert expect == [mask_of([2, 3])]
        assert list(minimal_two_good_sets(f)) == expect

    @given(closed_families())
    def test_matches_oracle_and_antichain(self, f):
        got = list(minimal_two_good_sets(f))
        assert got == oracle_minimal_two_good(f.sets, f.n)
        assert is_antichain(SetFamily(f.n, tuple(got)))

    @given(closed_families())
    def test_membership_test_matches_oracle(self, f):
        expect = set(oracle_minimal_two_good(f.sets, f.n))
        for s in submasks(f.ground):
            assert is_minimal_two_good(f, s) == (s in expect)

    @given(closed_families(max_n=6))
    def test_spot_check_refuses_exactly_the_non_minimal_bases(self, f):
        # `spot_check_lemmas` reads minimality off `good`: every S of the
        # ground set, and one mask with a bit above n, against the oracle
        good = minimal_two_good_sets(f)
        for s in [*submasks(f.ground), good[0] | 1 << f.n]:
            if is_minimal_two_good(f, s):
                search.spot_check_lemmas(f, s, good)
            else:
                with pytest.raises(ValueError, match=r"^base set \{[\d,]*\} is not minimal 2-good$"):
                    search.spot_check_lemmas(f, s, good)

    def test_wide_chain_is_output_sensitive(self):
        # 2^62 candidate sets, one minimal 2-good set
        assert minimal_two_good_sets(family(63, [[1], [63], [1, 63]])) == (mask_of([63]),)


@pytest.fixture
def searches(monkeypatch):
    """Every (edges, allowed, limit) that `setfam._mmcs` is asked to search."""
    seen = []

    def record(edges, allowed, limit):
        seen.append((edges, allowed, limit))
        return _mmcs(edges, allowed, limit)

    monkeypatch.setattr(setfam, "_mmcs", record)
    return seen


class TestMinimalTransversals:
    @given(transversal_problems())
    @example(([0b011, 0b011, 0b110], 0b111))  # duplicate targets
    @example(([0b011, 0], 0b111))  # an empty target
    @example(([0b0011, 0b1100], 0b0101))  # allowed smaller than the ground set
    @example(([0b0011, 0b1000], 0b0111))  # a target with no allowed element
    @example(([], 0b11))  # no targets
    def test_matches_scan(self, problem):
        targets, allowed = problem
        got = minimal_transversals(targets, allowed)
        assert got == scan_minimal_transversals(targets, allowed)
        for s in submasks(allowed):
            assert is_minimal_transversal(s, targets) == (s in got)

    @given(transversal_problems(), st.integers(0, 6))
    def test_limit_stops_one_past(self, problem, limit):
        targets, allowed = problem
        full = minimal_transversals(targets, allowed)
        got = minimal_transversals(targets, allowed, limit)
        if len(full) <= limit:
            assert got == full
        else:
            assert len(got) == limit + 1 and set(got) <= set(full)

    def test_edge_cases(self):
        assert minimal_transversals([], 0b111) == (0,)
        assert minimal_transversals([0b01, 0], 0b11) == ()
        assert minimal_transversals([0b10], 0b01) == ()
        assert minimal_transversals([0b011, 0b110], 0b111) == (0b101, 0b010)
        # a limit reached among the root's children, and one level below them,
        # answers in the order found
        assert minimal_transversals([0b110], 0b111, 0) == (0b010,)
        assert minimal_transversals([0b110, 0b011], 0b111, 1) == (0b010, 0b101)
        # one answer comes back as a 1-tuple, with or without a limit
        assert minimal_transversals([0b100, 0b110], 0b111) == (0b100,)
        assert minimal_transversals([0b100, 0b110], 0b111, 3) == (0b100,)
        # root children that meet every target at once, and one that does not
        assert minimal_transversals([0b011, 0b111], 0b111) == (0b001, 0b010)
        assert minimal_transversals([0b0011, 0b0110, 0b1011], 0b1111) == (0b0101, 0b0010)

    def test_tie_order_does_not_depend_on_the_targets(self):
        # one antichain {0b0101, 0b1010} in two listings, on the small and the
        # wide path: a limited answer is the first transversal of one search
        for allowed in (0b1111, 0b11111):
            assert minimal_transversals([5, 10, 13, 13, 7, 10], allowed, 0) == (0b0110,)
            assert minimal_transversals([13, 5, 10, 10, 13, 7], allowed, 0) == (0b0110,)

    @given(transversal_problems(max_n=9, max_targets=12), st.randoms(use_true_random=False))
    def test_answer_ignores_target_order_and_repeats(self, problem, rnd):
        targets, allowed = problem
        listed = targets + [rnd.choice(targets) for _ in range(len(targets) // 2)]
        rnd.shuffle(listed)
        for limit in range(7):
            assert minimal_transversals(listed, allowed, limit) == minimal_transversals(targets, allowed, limit)

    def test_above_lists_proper_supersets(self):
        for m in range(16):
            for s in range(16):
                assert (setfam._ABOVE[m] >> s & 1) == (s != m and s & m == m)

    def test_memo_answers_as_a_cold_search(self, searches):
        """Every antichain of subsets of {1..4} under every `allowed`, listed
        as itself ascending and as its up-set descending, with each limit
        before and after an unlimited call: a warm answer is the cold search
        of the canonical edge list, so the memo keeps `limit` in its key and
        is keyed on the antichain, not on how the targets are listed."""
        antichains = [()]
        for m in range(16):
            antichains += [a + (m,) for a in antichains if all(x & m not in (x, m) for x in a)]
        assert len(antichains) == 168
        memo = setfam._small_mmcs
        for anti in antichains:
            upset = [s for s in range(15, -1, -1) if any(s & t == t for t in anti)]
            for allowed in range(16):
                inside = {t & allowed for t in anti}
                least = [t for t in inside if not any(u & t == u != t for u in inside)]
                edges = tuple(sorted(least, key=lambda t: (t.bit_count(), t)))
                for limit in (0, 1, 2, 5):
                    for order in ((limit, None), (None, limit)):
                        memo.cache_clear()
                        # cold, then warm from the other listing
                        for targets, lim in zip((anti, anti, upset, upset), order + order):
                            assert minimal_transversals(targets, allowed, lim) == _mmcs(edges, allowed, lim)
                assert minimal_transversals(anti, allowed) == scan_minimal_transversals(anti, allowed)
                # a limit that stops nothing on a 4-set shares the unlimited entry
                memo.cache_clear()
                for lim in (None, -1, 6, 100_000):
                    assert minimal_transversals(upset, allowed, lim) == _mmcs(edges, allowed, lim)
                assert memo.cache_info().currsize == 1
        # every miss searched a canonical antichain inside `allowed` < 16, with a folded limit
        for edges, allowed, limit in searches:
            assert 0 <= allowed < 16 and limit in (None, 0, 1, 2, 5)
            assert list(edges) == sorted(set(edges), key=lambda t: (t.bit_count(), t))
            assert all(t & ~allowed == 0 and not any(u & t == u != t for u in edges) for t in edges)

    def test_cover_suite_searches_each_antichain_once(self, searches):
        """The exhaustive n <= 4 cover suite meets 189 distinct (antichain,
        `allowed`) pairs and searches each exactly once."""
        setfam._small_mmcs.cache_clear()
        search.verify_cover_theorem(4, 0)
        assert len(searches) == len(set(searches)) == 189
        assert setfam._small_mmcs.cache_info().currsize == 189

    def test_wide_calls_leave_the_memo_alone(self):
        memo = setfam._small_mmcs
        before = memo.cache_info().currsize
        blocks = SetFamily(12, (0b111, 0b111 << 3, 0b111 << 6, 0b111 << 9))
        assert len(minimal_covers(blocks)) == 3**4
        assert minimal_two_good_sets(family(20, [[1], [20], [1, 20]])) == (mask_of([20]),)
        assert memo.cache_info().currsize == before


class TestIncidenceAndTraces:
    def test_incidence_examples(self):
        assert incidence(element_frequencies(family(2, [[], [1], [1, 2]])), mask_of([2])) == 1
        assert incidence(element_frequencies(family(3, [[1, 2], [2, 3]])), mask_of([2])) == 2
        assert incidence(element_frequencies(family(3, [[1, 2], [2, 3]])), 0) == 0

    @given(raw_families(), st.integers(0, 31))
    def test_incidence_is_the_member_sum(self, f, s):
        # oracle: the definition, one pass over the members
        s &= f.ground
        assert incidence(element_frequencies(f), s) == sum((a & s).bit_count() for a in f.sets)

    def test_trace_counts_examples(self):
        assert trace_counts(family(2, [[], [1], [2], [1, 2]]), mask_of([2])) == {0: 2, 0b10: 2}
        assert trace_counts(family(2, [[]]), mask_of([2])) == {0: 1, 0b10: 0}
        tc = trace_counts(family(3, [[1, 2], [2, 3]]), mask_of([2, 3]))
        assert tc == {0: 0, 0b010: 1, 0b100: 0, 0b110: 1}

    @given(raw_families(), st.integers(0, 31))
    def test_totals_match(self, f, s):
        s &= f.ground
        tc = trace_counts(f, s)
        assert len(tc) == 1 << s.bit_count()
        assert sum(tc.values()) == len(f)
        assert sum(q * t.bit_count() for t, q in tc.items()) == incidence(element_frequencies(f), s)


# fixture with a covered element: closure of {2,5},{3},{4},{1}
COVER_FIXTURE = union_closure(family(5, [[2, 5], [3], [4], [1]]))
# fixture with a flexible pair: closure of {2},{2,4},{3},{1}
FLEX_FIXTURE = union_closure(family(5, [[2], [2, 4], [3], [1]]))


class TestCoveredSet:
    def test_fixture(self):
        s = mask_of([2, 3, 4])
        assert covered_set(COVER_FIXTURE, s, 5) == (2,)

    def test_dual_characterization_on_fixture(self):
        s = mask_of([2, 3, 4])
        xbit = 1 << 4
        via_witnesses = tuple(
            y
            for y in elements_of(s)
            if all(a & xbit for a in COVER_FIXTURE.sets if a & s == 1 << (y - 1))
        )
        assert covered_set(COVER_FIXTURE, s, 5) == via_witnesses

    def test_absent_x_covers_nothing(self):
        # no member contains 4, so removing any base element breaks 2-goodness
        h = family(4, [[2], [3], [2, 3]])
        assert covered_set(h, mask_of([2, 3]), 4) == ()

    def test_witness_blocks_coverage(self):
        # {3} meets S exactly in {3} and lacks 4, so 3 is not covered by 4
        assert 3 not in covered_set(FLEX_FIXTURE, mask_of([2, 3]), 4)

    def test_preconditions(self):
        s = mask_of([2, 3, 4])
        with pytest.raises(ValueError):
            covered_set(COVER_FIXTURE, s, 1)
        with pytest.raises(ValueError):
            covered_set(COVER_FIXTURE, s, 3)
        with pytest.raises(ValueError, match="not 2-good"):
            covered_set(COVER_FIXTURE, mask_of([2]), 5)

    @pytest.mark.parametrize("x", [0, -1, 6])
    def test_x_outside_the_ground_set(self, x):
        assert COVER_FIXTURE.n == 5
        with pytest.raises(ValueError, match=f"x must be in 2..5 outside the base set, got x={x}"):
            covered_set(COVER_FIXTURE, mask_of([2, 3, 4]), x)

    @given(closed_families(max_n=5))
    def test_dual_characterization_everywhere(self, f):
        for s in submasks(f.ground & ~1):
            if not is_two_good(f, s):
                continue
            for x in range(2, f.n + 1):
                if s & 1 << (x - 1):
                    continue
                xbit = 1 << (x - 1)
                got = covered_set(f, s, x)
                expect = tuple(
                    y
                    for y in elements_of(s)
                    if all(a & xbit for a in f.sets if a & s == 1 << (y - 1))
                )
                assert got == expect
            break


class TestFlexiblePairs:
    def test_cover_fixture_has_none(self):
        # every member containing 5 also contains 2, so no {a,5} trace exists
        assert flexible_pairs(COVER_FIXTURE, mask_of([2, 3, 4])) == ()

    def test_flex_fixture_witness(self):
        got = flexible_pairs(FLEX_FIXTURE, mask_of([2, 3]))
        assert got == (
            FlexibleWitness(a=2, x=4, fa=mask_of([1, 2]), fa_prime=mask_of([1, 2, 4])),
        )

    def test_minimal_witness_configuration(self):
        f = family(3, [[2], [2, 3], [1]])
        got = flexible_pairs(f, mask_of([2]))
        assert got == (FlexibleWitness(a=2, x=3, fa=mask_of([2]), fa_prime=mask_of([2, 3])),)

    def test_no_witness_when_sets_identical_outside_one(self):
        # traces {2} on {2,3}: {2} and {1,2} differ only at element 1
        f = family(3, [[2], [1, 2], [3], [2, 3]])
        assert flexible_pairs(f, mask_of([2, 3])) == ()

    def test_covered_elements_are_never_flexible(self):
        s = mask_of([2, 3, 4])
        covered = set(covered_set(COVER_FIXTURE, s, 5))
        for w in flexible_pairs(COVER_FIXTURE, s):
            if w.x == 5:
                assert w.a not in covered


class TestMembersByTrace:
    def test_example(self):
        f = family(3, [[1, 2], [2, 3], [3], [], [2]])
        assert members_by_trace(f, mask_of([2, 3])) == {
            0: [0], 0b010: [0b011, 0b010], 0b100: [0b100], 0b110: [0b110],
        }

    @given(closed_families(max_n=7, max_gens=6))
    @example(WITNESS_SET_CASE[0])  # a pair b, c of S with S + x - b - c 2-good
    def test_grouped_reads_match_the_scans(self, f):
        # every minimal 2-good set of a union closure, and every x and pair
        # b, c of it: the grouped reads against the member scans
        for s in minimal_two_good_sets(f):
            groups = members_by_trace(f, s)
            assert trace_counts(f, s) == {t: sum(a & s == t for a in f.sets) for t in submasks(s)}
            assert flexible_pairs(f, s) == scan_flexible_pairs(f, s)
            # witnesses are the least members, whatever the member order
            backwards = SetFamily(f.n, f.sets[::-1])
            assert flexible_pairs(backwards, s) == scan_flexible_pairs(backwards, s)
            for x in elements_of(f.ground & ~s & ~1):
                xbit = 1 << (x - 1)
                assert covered_set(f, s, x) == scan_covered_set(f, s, x)
                for pair in submasks(s):
                    if pair.bit_count() == 2:
                        assert keeps_two_good(groups, pair, xbit) == is_two_good(f, (s | xbit) & ~pair)


class TestCovers:
    def test_two_edges(self):
        got = minimal_covers(family(3, [[1, 2], [2, 3]]))
        assert [elements_of(s) for s in got.sets] == [(1, 3), (2,)]
        assert list(got.sets) == oracle_minimal_covers([0b011, 0b110], 3)

    def test_single_edge(self):
        assert minimal_covers(family(1, [[1]])) == family(1, [[1]])

    def test_triangle_is_self_dual(self):
        f = sorted_family(family(3, [[1, 2], [2, 3], [1, 3]]))
        assert minimal_covers(f) == f
        assert list(f.sets) == oracle_minimal_covers(f.sets, 3)

    def test_empty_member_rejected(self):
        with pytest.raises(ValueError, match="no covers"):
            minimal_covers(family(2, [[], [1]]))

    @given(raw_families(max_n=4))
    def test_antichain_and_oracle(self, f):
        if 0 in f.member_set():
            f = SetFamily(f.n, tuple(s for s in f.sets if s) or (f.ground,))
        mc = minimal_covers(f)
        assert is_antichain(mc)
        assert list(mc.sets) == oracle_minimal_covers(f.sets, f.n)

    @given(raw_families(max_n=4))
    def test_involution_on_antichains(self, f):
        nonempty = tuple(s for s in f.sets if s) or (f.ground,)
        anti = minimal_elements(SetFamily(f.n, nonempty))
        assert minimal_covers(minimal_covers(anti)) == sorted_family(anti)

    @given(raw_families(max_n=4))
    def test_covers_ignore_non_minimal_members(self, f):
        nonempty = SetFamily(f.n, tuple(s for s in f.sets if s) or (f.ground,))
        assert minimal_covers(nonempty) == minimal_covers(minimal_elements(nonempty))

    @given(raw_families(max_n=6), st.data())
    def test_antitone(self, g, data):
        # F <= G: a transversal of G is one of F, so it holds a minimal one
        nonempty = tuple(s for s in g.sets if s) or (g.ground,)
        sub = data.draw(st.lists(st.sampled_from(nonempty), min_size=1, unique=True))
        mc_f = minimal_covers(SetFamily(g.n, tuple(sub))).sets
        for t in minimal_covers(SetFamily(g.n, nonempty)).sets:
            assert any(f & t == f for f in mc_f)


class TestMinimalElements:
    def test_examples(self):
        assert minimal_elements(family(2, [[1], [1, 2]])) == family(2, [[1]])
        assert minimal_elements(family(2, [[], [1], [2], [1, 2]])) == family(2, [[]])

    @given(raw_families())
    def test_antichain_fixed_point(self, f):
        anti = minimal_elements(f)
        assert minimal_elements(anti) == anti

    @given(st.lists(st.integers(0, 63), max_size=12))
    @example([0b011, 0b011, 0b001])  # a repeat and a proper subset
    @example([0b101, 0b011, 0b110])  # an antichain
    @example([0, 0b1])  # the empty set is below everything
    def test_shared_reduction_matches_scan(self, masks):
        kept = _minimal_masks(masks)
        assert kept == sorted(kept, key=lambda m: (m.bit_count(), m))
        assert tuple(sorted(kept, key=elements_of)) == scan_minimal_elements(masks)

    @given(raw_families())
    def test_matches_scan(self, f):
        assert minimal_elements(f).sets == scan_minimal_elements(f.sets)
        assert is_antichain(f) == scan_is_antichain(f.sets)


class TestShattering:
    @given(closed_families(max_n=5))
    def test_unions_of_singleton_witnesses_shatter(self, f):
        for s in submasks(f.ground):
            witnesses = {}
            for y in elements_of(s):
                w = [a for a in f.sets if a & s == 1 << (y - 1)]
                if w:
                    witnesses[y] = w[0]
            if len(witnesses) != s.bit_count() or not s:
                continue
            members = f.member_set()
            for t in submasks(s):
                u = 0
                for y in elements_of(t):
                    u |= witnesses[y]
                if t:
                    assert u in members
                    assert u & s == t
            counts = trace_counts(f, s)
            assert all(q >= 1 for t, q in counts.items() if t)
            # the nonempty traces alone force 2^|S| - 1 members; a member
            # with empty trace (e.g. the empty set) raises that to 2^|S|
            floor = (1 << s.bit_count()) - (0 if counts[0] >= 1 else 1)
            assert floor <= len(f)
            break


class TestFileFormats:
    def test_json_roundtrip(self):
        f = family(3, [[], [1], [1, 3]])
        assert family_from_json(family_to_json(f)) == f
        assert family_to_json(f) == '{"n": 3, "sets": [[], [1], [1, 3]]}'

    def test_json_errors(self):
        with pytest.raises(ValueError):
            family_from_json("[1,2]")
        with pytest.raises(ValueError):
            family_from_json('{"n": "x", "sets": []}')

    def test_text_roundtrip(self):
        f = family(3, [[], [1], [1, 3]])
        text = family_to_text(f)
        assert text == "-\n1\n1 3\n"
        assert family_from_text(text) == f

    @given(raw_families(max_n=63, max_sets=8))
    def test_json_roundtrip_property(self, f):
        assert family_from_json(family_to_json(f)) == f

    @given(raw_families(max_n=63, max_sets=8))
    def test_text_roundtrip_property(self, f):
        # the text form does not record n: it is read back as the largest element
        n = max(max(f.sets).bit_length(), 1)
        assert family_from_text(family_to_text(f)) == SetFamily(n, f.sets)

    def test_text_skips_comments(self):
        f = family_from_text("# header\n\n2 3\n-\n")
        assert f == family(3, [[2, 3], []])

    def test_text_errors(self):
        with pytest.raises(ValueError):
            family_from_text("")
        with pytest.raises(ValueError):
            family_from_text("1 x\n")
