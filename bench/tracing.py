"""Spans around the calls into ucfreq, and the per-layer metrics made from them.

A span is (name, start, end, parent) plus an item count.  Spans are kept in
flat arrays while the run lasts and written out when it ends.  Wrappers are
installed from here, never inside ucfreq: each one replaces a public
function in the namespace of the module that calls it, the way that module
binds it (cli reaches lpmodel and setfam through module attributes; lpmodel
and search import their functions by name), and is removed again before
any untraced round.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

WIDE_N = 12  # families on at least this many elements count as wide


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")
        self.stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.items.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()


class SpanSummary:
    """Durations, self times, call counts and item counts per span name."""

    def __init__(self, tracer: Tracer) -> None:
        n = len(tracer.name)
        dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self.dur: dict[str, list[float]] = defaultdict(list)
        self.self: dict[str, list[float]] = defaultdict(list)
        self.items: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = tracer.names[tracer.name[i]]
            self.dur[name].append(dur[i])
            self.self[name].append(dur[i] - child[i])
            self.items[name] += tracer.items[i]

    def calls(self, *names: str) -> int:
        return sum(len(self.dur[name]) for name in names)


def _by_size(name: str):
    def classify(args) -> str:
        return f"{name}.wide" if args[0].n >= WIDE_N else f"{name}.small"
    return classify


def _by_program(name: str):
    """Paper programs have 16 (s = 4) or 32 (s = 5) variables; box programs at most 4."""
    def classify(args) -> str:
        return name + {16: ".s4", 32: ".s5"}.get(len(args[0].variables), ".small")
    return classify


# (module, attribute, span name or classifier of the arguments, count the result's length)
def _bindings(mods):
    out = [(mods.lpmodel, "solve", _by_program("ratlp.solve"), False)]
    out += [(mods.lpmodel, fn, _by_program("ratlp.verify"), False)
            for fn in ("verify_optimality", "verify_infeasibility")]
    out += [(mods.ratlp, fn, _by_program("ratlp.verify"), False)
            for fn in ("verify_optimality", "verify_infeasibility", "verify_ray")]
    # cli reaches lpmodel and setfam through module attributes
    for fn in ("bounds_table", "solve_case", "case_program", "recheck", "table_to_json", "min_objective"):
        out.append((mods.lpmodel, fn, f"lpmodel.{fn}", False))
    for mod in (mods.setfam, mods.search):
        out += [
            (mod, "kth_frequency", "setfam.kth_frequency", False),
            (mod, "minimal_covers", _by_size("setfam.minimal_covers"), True),
            (mod, "minimal_two_good_sets", _by_size("setfam.minimal_two_good_sets"), True),
            (mod, "union_closure", "setfam.union_closure", False),
        ]
    out += [
        (mods.search, "spot_check_lemmas", "search.spot_check_lemmas", False),
        (mods.search, "random_union_closed", "search.random_union_closed", False),
    ]
    return out


class Instrumentation:
    """Installs and removes the wrappers; `tracer` is where spans go."""

    def __init__(self, mods) -> None:
        self.tracer = Tracer()
        self.saved = []
        for mod, attr, name, sized in _bindings(mods):
            self.saved.append((mod, attr, getattr(mod, attr), self._wrap(getattr(mod, attr), name, sized)))

    def _wrap(self, fn, name, sized):
        named = isinstance(name, str)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer = self.tracer
            idx = tracer.open(name if named else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if sized:
                tracer.items[idx] = len(result)
            return result

        return traced

    def install(self) -> None:
        for mod, attr, _, traced in self.saved:
            setattr(mod, attr, traced)

    def remove(self) -> None:
        for mod, attr, original, _ in self.saved:
            setattr(mod, attr, original)

    def call(self, name: str, fn, items=None):
        """A span around one call the benchmark makes."""
        tracer = self.tracer
        idx = tracer.open(name)
        try:
            result = fn()
        finally:
            tracer.close(idx)
        if items is not None:
            tracer.items[idx] = items(result)
        return result


def write_spans(path: Path, segments: dict[str, Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as out:
        out.write("segment\tspan\tname\tparent\tstart_s\tend_s\titems\n")
        for segment, t in segments.items():
            for i in range(len(t.name)):
                out.write(f"{segment}\t{i}\t{t.names[t.name[i]]}\t{t.parent[i]}\t"
                          f"{t.start[i]:.9f}\t{t.end[i]:.9f}\t{t.items[i]}\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ms(xs):
    return 1e3 * median(xs)


def _us(xs):
    return 1e6 * median(xs)


# name -> (unit, the workload whose rounds measure it, value from (summary, rounds))
PER_LAYER = {
    "cli.table_ms": ("ms", "bounds", lambda s, r: _ms(s.dur["cli.table"])),
    "cli.table_self_ms": ("ms", "bounds", lambda s, r: _ms(s.self["cli.table"])),
    "cli.analyze_ms": ("ms", "sets", lambda s, r: 1e3 * sum(s.dur["cli.analyze"]) / r),
    "cli.covers_ms": ("ms", "sets", lambda s, r: 1e3 * sum(s.dur["cli.covers"]) / r),
    "lpmodel.case_program_ms": ("ms", "bounds", lambda s, r: _ms(s.dur["lpmodel.case_program"])),
    "lpmodel.recheck_ms": ("ms", "bounds", lambda s, r: _ms(s.dur["lpmodel.recheck"])),
    "lpmodel.table_to_json_ms": ("ms", "bounds", lambda s, r: _ms(s.dur["lpmodel.table_to_json"])),
    "ratlp.solve_ms.s4": ("ms", "bounds", lambda s, r: _ms(s.dur["ratlp.solve.s4"])),
    "ratlp.solve_ms.s5": ("ms", "bounds", lambda s, r: _ms(s.dur["ratlp.solve.s5"])),
    "ratlp.verify_ms": ("ms", "bounds", lambda s, r: _ms(s.dur["ratlp.verify.s4"] + s.dur["ratlp.verify.s5"])),
    "ratlp.small_solve_us": ("us", "bounds", lambda s, r: _us(s.dur["ratlp.solve.small"])),
    "ratlp.solve_calls": ("count", "bounds", lambda s, r: s.calls(
        "ratlp.solve.s4", "ratlp.solve.s5", "ratlp.solve.small") / r),
    "ratlp.verify_calls": ("count", "bounds", lambda s, r: s.calls(
        "ratlp.verify.s4", "ratlp.verify.s5", "ratlp.verify.small") / r),
    "search.enumerate_families_per_s": ("1/s", "sets", lambda s, r: s.items["search.verify_nagel_k2"]
                                        / sum(s.self["search.verify_nagel_k2"])),
    "search.verify_nagel_s": ("s", "sets", lambda s, r: sum(s.dur["search.verify_nagel_k2"]) / r),
    "search.cover_suite_s": ("s", "sets", lambda s, r: median(s.dur["search.verify_cover_theorem"])),
    "search.lemma_corpus_s": ("s", "sets", lambda s, r: median(s.dur["search.run_lemma_corpus"])),
    "search.spot_check_us": ("us", "sets", lambda s, r: _us(s.dur["search.spot_check_lemmas"])),
    "search.corpus_yield": ("ratio", "sets", lambda s, r: s.items["search.run_lemma_corpus"]
                            / s.calls("search.random_union_closed")),
    "setfam.kth_frequency_us": ("us", "sets", lambda s, r: _us(s.dur["setfam.kth_frequency"])),
    "setfam.minimal_covers_us.small": ("us", "sets", lambda s, r: _us(s.dur["setfam.minimal_covers.small"])),
    "setfam.minimal_covers_us.wide": ("us", "sets", lambda s, r: _us(s.dur["setfam.minimal_covers.wide"])),
    "setfam.minimal_two_good_us.small": ("us", "sets",
                                         lambda s, r: _us(s.dur["setfam.minimal_two_good_sets.small"])),
    "setfam.minimal_two_good_us.wide": ("us", "sets",
                                        lambda s, r: _us(s.dur["setfam.minimal_two_good_sets.wide"])),
    "setfam.union_closure_us": ("us", "sets", lambda s, r: _us(s.dur["setfam.union_closure"])),
    "setfam.minimal_covers_calls": ("count", "sets", lambda s, r: s.calls(
        "setfam.minimal_covers.small", "setfam.minimal_covers.wide") / r),
    "setfam.transversals_out": ("count", "sets", lambda s, r: sum(
        s.items[name] for name in ("setfam.minimal_covers.small", "setfam.minimal_covers.wide",
                                   "setfam.minimal_two_good_sets.small",
                                   "setfam.minimal_two_good_sets.wide")) / r),
}
