"""Command-line front end. Batch commands, exact rational output.

Exit codes: 0 success, 1 usage error (a bad flag or flag combination),
2 invalid input family or base set (or over MAX_OUTPUT sets to read or list),
3 internal consistency failure (a certificate that does not re-verify,
or a verification suite reporting violations - both always bugs).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import lpmodel, search, setfam
from .ratlp import CertificateError, Optimal, format_certificate, format_lp

OK, USAGE_ERROR, BAD_FAMILY, INTERNAL_ERROR = 0, 1, 2, 3

# minimal covers or 2-good sets listed at most (there can be 3^(n/3)), and
# member sets read at most from a family file
MAX_OUTPUT = 100_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to status 2; keep 1 for usage
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


class FamilyInputError(Exception):
    pass


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_family(path: str, fmt: str | None, add_empty: bool) -> setfam.SetFamily:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FamilyInputError(f"cannot read {path}: {exc}") from exc
    kind = fmt or ("json" if path.endswith(".json") else "text")
    try:
        if kind == "json":
            fam = setfam.family_from_json(text)
        else:
            fam = setfam.family_from_text(text)
    except ValueError as exc:
        raise FamilyInputError(f"{path}: {exc}") from exc
    if len(fam) > MAX_OUTPUT:
        raise FamilyInputError(f"{path}: more than {MAX_OUTPUT} member sets")
    if add_empty and 0 not in fam:
        fam = setfam.SetFamily(fam.n, (0,) + fam.sets)
    return fam


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low` (a usage error otherwise)."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _parse_base(text: str, n: int) -> int:
    try:
        elements = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise FamilyInputError(f"bad base set {text!r}") from exc
    if not all(1 <= e <= n for e in elements):
        raise FamilyInputError(f"base set {text!r} leaves the ground set 1..{n}")
    return setfam.mask_of(elements)


def _parse_objective(text: str, s: int) -> dict[str, Fraction]:
    roles = lpmodel.role_letters(s)
    if text == "q_singleton":
        return {"q_a": Fraction(1)}
    if text == "sum_singletons":
        return {f"q_{y}": Fraction(1) for y in roles}
    names = {lpmodel.subset_name(t) for t in lpmodel.all_subsets(s)}
    objective: dict[str, Fraction] = {}
    for token in text.split("+"):
        name = token.strip()
        if name not in names:
            raise UsageError(
                f"unknown objective term {name!r} (try q_singleton, sum_singletons, or q_<roles>)"
            )
        objective[name] = objective.get(name, Fraction(0)) + 1
    return objective


def _rechecked(res: lpmodel.CaseResult) -> lpmodel.CaseResult:
    """`res`, once its certificate re-verifies against its spec's program."""
    if not lpmodel.recheck(res):
        raise CertificateError(f"certificate for {res.spec} failed re-verification")
    return res


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_table(args) -> int:
    if args.certificates and args.format != "json":
        raise UsageError("--certificates needs --format json")
    if args.approx and args.format == "json":
        raise UsageError("--approx needs --format csv")
    results = [_rechecked(res) for res in lpmodel.bounds_table()]
    if args.format == "csv":
        _emit(lpmodel.table_to_csv(results, args.approx), args.out)
    else:
        doc = lpmodel.table_to_json(results, certificates=args.certificates)
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return OK


_SCENARIOS = {**{str(c): sc for c, sc in enumerate(lpmodel.GRID)}, "aux": lpmodel.Scenario.PAIR_CAP}


def _cmd_solve_case(args) -> int:
    if args.c == "aux" and args.s != 5:
        raise UsageError("--c aux exists only for --s 5")
    if args.approx and args.dump_lp:
        raise UsageError("--approx does not apply to --dump-lp")
    spec = lpmodel.CaseSpec(args.s, _SCENARIOS.get(args.c, lpmodel.Scenario.BASE))
    res = _rechecked(lpmodel.solve_case(spec))
    if args.dump_lp:
        lp = lpmodel.case_program(spec)
        _emit(format_lp(lp) + "\n" + format_certificate(lp, res.outcome), args.out)
    else:
        _emit(lpmodel.render_bound(res.bound, args.approx) + "\n", args.out)
    return OK


def _cmd_min_objective(args) -> int:
    objective = _parse_objective(args.objective, args.s)
    outcome = lpmodel.min_objective(args.s, objective)
    if not isinstance(outcome, Optimal):
        raise CertificateError("objective minimization did not reach an optimum")
    _emit(lpmodel.render_bound(outcome.value, args.approx) + "\n", args.out)
    return OK


def _cmd_analyze(args) -> int:
    fam = _load_family(args.family, args.format, args.add_empty)
    if not setfam.is_union_closed(fam):
        raise FamilyInputError(f"{args.family}: family is not union-closed")
    if args.normalize:
        fam = setfam.normalize(fam)
    lines = [f"m = {len(fam)}"]
    freqs = setfam.element_frequencies(fam)
    lines.append("frequencies: " + " ".join(f"{e}={freqs[e]}" for e in sorted(freqs)))
    for k in (1, 2):
        if k <= fam.n:
            _, _, ratio = setfam.kth_frequency(fam, k)
            lines.append(f"f_{k} = " + lpmodel.render_bound(ratio, args.approx))
    good = setfam.minimal_two_good_sets(fam, limit=MAX_OUTPUT)
    if len(good) > MAX_OUTPUT:
        raise FamilyInputError(f"{args.family}: more than {MAX_OUTPUT} minimal 2-good sets")
    lines.append("minimal 2-good sets:")
    for s in good:
        lines.append(f"  {setfam.format_mask(s)} incidence={setfam.incidence(freqs, s)}")
    if args.base is not None:
        base = _parse_base(args.base, fam.n)
        if 1 << base.bit_count() > MAX_OUTPUT:
            raise FamilyInputError(f"base set {args.base!r} has more than {MAX_OUTPUT} subsets to list")
        counts = setfam.trace_counts(fam, base)
        lines.append(f"trace counts for S = {setfam.format_mask(base)}:")
        for t in setfam.submasks(base):
            lines.append(f"  {setfam.format_mask(t)} -> {counts[t]}")
    _emit("\n".join(lines) + "\n", args.out)
    return OK


def _cmd_covers(args) -> int:
    fam = _load_family(args.family, args.format, add_empty=False)
    try:
        mc = setfam.minimal_covers(fam, limit=MAX_OUTPUT)
    except ValueError as exc:
        raise FamilyInputError(f"{args.family}: {exc}") from exc
    if len(mc) > MAX_OUTPUT:
        raise FamilyInputError(f"{args.family}: more than {MAX_OUTPUT} minimal covers")
    low = setfam.minimal_elements(fam)
    if setfam.minimal_covers(mc) != low:
        raise CertificateError("MC(MC(F)) differs from the minimal elements of F")
    antichain = len(low) == len(fam)
    lines = ["minimal covers:"]
    lines.extend(f"  {setfam.format_mask(s)}" for s in mc.sets)
    lines.append(f"input is antichain: {'yes' if antichain else 'no'}")
    lines.append(f"MC(MC(F)) == {'F' if antichain else 'minimal elements of F'}: yes")
    _emit("\n".join(lines) + "\n", args.out)
    return OK


def _cmd_search_nagel(args) -> int:
    if args.require_empty and args.max_family_size == 1:  # the parser refuses caps below 1
        raise UsageError("--require-empty needs --max-family-size at least 2 (the empty set and a cover)")
    spec = search.EnumerationSpec(
        args.n,
        require_empty=args.require_empty,
        require_ground_coverage=True,
        max_family_size=args.max_family_size,
    )
    report = search.verify_nagel_k2(spec)
    _emit(json.dumps(report.to_json_dict(max_witnesses=args.max_witnesses), indent=2) + "\n", args.out)
    return OK if report.passed else INTERNAL_ERROR


def _cmd_check_lemmas(args) -> int:
    fam = _load_family(args.family, args.format, args.add_empty)
    base = _parse_base(args.base, fam.n)
    if not setfam.is_union_closed(fam):
        raise FamilyInputError(f"{args.family}: family is not union-closed")
    good = setfam.minimal_two_good_sets(fam, limit=MAX_OUTPUT)
    if len(good) > MAX_OUTPUT:
        raise FamilyInputError(f"{args.family}: more than {MAX_OUTPUT} minimal 2-good sets")
    if base not in good:
        raise FamilyInputError(f"{args.family}: base set {setfam.format_mask(base)} is not minimal 2-good")
    report = search.spot_check_lemmas(fam, base, good, setfam.flexible_pairs(fam, base))
    _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    return OK if report.passed else INTERNAL_ERROR


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _common(p, family_input=False):
    p.add_argument("--out", help="write output to a file instead of stdout")
    if family_input:
        p.add_argument("family", help="family file (JSON or plain text)")
        p.add_argument("--format", choices=("json", "text"), help="override format autodetection")


def _table(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--certificates", action="store_true", help="embed certificates (JSON only)")
    p.add_argument("--approx", action="store_true")
    _common(p)


def _solve_case(p):
    p.add_argument("--s", type=int, choices=(4, 5), required=True)
    p.add_argument("--c", choices=tuple(_SCENARIOS), required=True)
    p.add_argument("--dump-lp", action="store_true", help="print the program and certificate text")
    p.add_argument("--approx", action="store_true")
    _common(p)


def _solve_base(p):
    p.add_argument("--s", type=int, choices=(4, 5), required=True)
    p.add_argument("--approx", action="store_true")
    _common(p)
    p.set_defaults(c=None, dump_lp=False)  # solve-case's handler on the base cell; no flags


def _min_objective(p):
    p.add_argument("--s", type=int, choices=(4, 5), required=True)
    p.add_argument("--objective", required=True,
                   help="q_singleton, sum_singletons, or q_<roles> terms joined by +")
    p.add_argument("--approx", action="store_true")
    _common(p)


def _analyze(p):
    _common(p, family_input=True)
    p.add_argument("--base", help="comma-separated base set for trace counts, e.g. 2,3,4")
    p.add_argument("--add-empty", action="store_true", help="add the empty set to the family")
    p.add_argument("--normalize", action="store_true",
                   help="relabel so the most frequent element is 1")
    p.add_argument("--approx", action="store_true")


def _covers(p):
    _common(p, family_input=True)


def _search_nagel(p):
    p.add_argument("--n", type=int, choices=range(2, search.ENUMERATION_LIMIT + 1), required=True,
                   help=f"ground-set size (2..{search.ENUMERATION_LIMIT} exhaustive)")
    p.add_argument("--require-empty", action="store_true")
    p.add_argument("--max-family-size", type=_int_at_least(1))
    p.add_argument("--max-witnesses", type=_int_at_least(0), default=16)
    _common(p)


def _check_lemmas(p):
    _common(p, family_input=True)
    p.add_argument("--base", required=True, help="comma-separated minimal 2-good base set")
    p.add_argument("--add-empty", action="store_true")


# each subcommand's help line, the builder of its arguments and defaults, and its handler
_COMMANDS = {
    "table": ("solve all eight case cells", _table, _cmd_table),
    "solve-case": ("solve one case cell", _solve_case, _cmd_solve_case),
    "solve-base": ("solve the base program", _solve_base, _cmd_solve_case),
    "min-objective": ("minimize a custom objective over the base program", _min_objective, _cmd_min_objective),
    "analyze": ("frequencies, 2-good structure and traces of a family", _analyze, _cmd_analyze),
    "covers": ("minimal covers and the involution status", _covers, _cmd_covers),
    "search-nagel": ("exhaustive second-frequency check", _search_nagel, _cmd_search_nagel),
    "check-lemmas": ("recount the lemma bounds on a family", _check_lemmas, _cmd_check_lemmas),
}


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand `name`'s parser alone, built once per process as
    `build_parser` builds it under the top level, so its help and errors read
    the same.  It cannot go stale: builders read only module constants, and
    handlers reach `MAX_OUTPUT`, `lpmodel`, `search` and `setfam` as they run."""
    _, build, handler = _COMMANDS[name]
    parser = _Parser(prog=f"ucfreq {name}")
    build(parser)
    parser.set_defaults(command=name, handler=handler)  # command as the top level sets it
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full tree, the top level and every subcommand, built once per
    process; `parse_args` needs it only for the top-level help and errors."""
    parser = _Parser(prog="ucfreq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, build, handler) in _COMMANDS.items():
        build(p := sub.add_parser(name, help=help_line))
        p.set_defaults(handler=handler)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, by the subcommand's own parser
    when `argv` starts with its name and it leaves no argument over."""
    if argv and argv[0] in _COMMANDS:
        args, rest = command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"ucfreq: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FamilyInputError as exc:
        print(f"ucfreq: {exc}", file=sys.stderr)
        return BAD_FAMILY
    except CertificateError as exc:
        print(f"ucfreq: internal consistency failure: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
