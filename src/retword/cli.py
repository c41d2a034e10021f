"""Command-line front end: parse substitution files, run analyses, emit reports.

Every command prints a human-readable report; with ``--json`` it prints a
machine-readable mirror instead (byte-identical across runs for identical
inputs: no timestamps, rationals as "p/q" strings, intervals with explicit
endpoints).  Every check in a report is a :class:`~retword.checks.Check`,
the record the library returns; a bounded search's check is built by
``Check.search``.  Exit codes: 0 all checks pass, 1 a check failed, 2
usage, parse, input or output error (a closed stdout included), 3 a bounded
search exhausted its budget, 4 internal inconsistency or any other
exception (``error: internal error (<Type>): <message>``).  Codes 2-4 print
one ``error:`` (or ``budget exhausted:``) line on stderr and nothing on
stdout, except the part of a report that an output error cut short.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Any

from .checks import Check
from .circularity import find_n0, sync_delay_search
from .errors import (
    GenerationError,
    InternalInconsistencyError,
    ParseError,
    ResourceLimitError,
    require_nonnegative,
)
from .intpoly import RootEnclosure
from .periodic import build_periodic_presentation, verify_presentation
from .relations import (
    eigenvalue_transfer_check,
    equals_own_return_substitution,
    matrix_decomposition,
    power_coincidence,
    shared_fixed_point_analysis,
    two_occurrence_exponent,
    verify_propprec,
)
from .returns import derivation_tower, derived_prefix, return_substitution
from .spectrum import Spectrum, dominant_eigenvalue, mult_dependent, spectrum, strip_trivial
from .substitution import (
    Morphism,
    Substitution,
    fixed_point_prefix,
    identity_morphism,
    is_primitive,
    morphic_image_prefix,
    parse_substitution,
    power,
    prefix_cap,
)
from .words import Word, same_symbols, spelling

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _enclosure(e: RootEnclosure | None) -> Any:
    if e is None:
        return None
    return {
        "lo": _frac(e.lo),
        "hi": _frac(e.hi),
        "width": _frac(e.width),
        "exact": e.exact,
    }


def _spectrum_data(s: Spectrum) -> dict:
    return {
        "char_poly": s.char_poly.pretty(),
        "char_poly_coeffs": list(s.char_poly.coeffs),
        "exact_roots": [[_frac(r), m] for r, m in s.exact_roots],
        "residual_factor": list(s.residual_factor.coeffs),
        "dominant": _enclosure(s.dominant),
    }


class Report:
    """Accumulates configuration, data and checks for one command.

    Each added :class:`Check` is stored as its JSON dict; the exit code is
    read from the outcomes: 1 if any check failed, else 3 if any search came
    back absent, else 0.
    """

    def __init__(self, command: str, argv: list[str], config: dict):
        self.payload: dict = {
            "command": command,
            "argv": list(argv),
            "config": config,
            "checks": [],
            "data": {},
        }

    def add(self, check: Check) -> None:
        self.payload["checks"].append(check.as_json())

    def data(self, key: str, value: Any) -> None:
        self.payload["data"][key] = value

    @property
    def exit_code(self) -> int:
        outcomes = {c["outcome"] for c in self.payload["checks"]}
        if "fail" in outcomes:
            return EXIT_CHECK_FAILED
        if "absent" in outcomes:
            return EXIT_BUDGET
        return EXIT_OK

    def render_human(self, elapsed: float) -> str:
        lines = [f"command: {self.payload['command']}"]
        for key, value in self.payload["config"].items():
            lines.append(f"  config {key} = {value}")
        for key, value in self.payload["data"].items():
            lines.append(f"  {key}: {value}")
        for c in self.payload["checks"]:
            extra = ""
            if "witness" in c:
                extra = f" witness={c['witness']}"
            if "detail" in c:
                extra += f" ({c['detail']})"
            lines.append(f"  [{c['outcome'].upper()}] {c['name']}{extra}")
        lines.append(f"elapsed: {elapsed:.3f}s")
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(self.payload, indent=2)


def _load(path: str) -> tuple[Substitution, dict[str, Morphism]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_substitution(fh.read())


def _coding_by_name(name: str, sub: Substitution, codings: dict[str, Morphism]) -> Morphism:
    if name in ("id", "identity"):
        return identity_morphism(sub.alphabet)
    if name not in codings:
        raise ParseError(f"coding {name!r} not defined in the substitution file")
    return codings[name]


def _word_arg(sub: Substitution, text: str) -> Word:
    return sub.alphabet.word(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="print the machine-readable report")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``retword`` parser, built once per process: parsing keeps no state on it."""
    parser = argparse.ArgumentParser(
        prog="retword",
        description="Return-word calculus for primitive substitutions, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fixed-point", help="dump a prefix of the fixed point")
    p.add_argument("file")
    p.add_argument("--length", type=int, default=100)
    p.add_argument("--coding", default=None, help="apply a named letter-to-letter coding")
    _add_common(p)

    p = sub.add_parser("spectrum", help="characteristic polynomial and eigenvalue data")
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("return-words", help="complete return-word list on a prefix")
    p.add_argument("file")
    p.add_argument("--prefix", required=True)
    _add_common(p)

    p = sub.add_parser("return-sub", help="return substitution on a prefix")
    p.add_argument("file")
    p.add_argument("--prefix", required=True)
    _add_common(p)

    p = sub.add_parser("derived", help="prefix of the derived sequence")
    p.add_argument("file")
    p.add_argument("--prefix", required=True)
    p.add_argument("--length", type=int, default=50)
    _add_common(p)

    p = sub.add_parser("tower", help="derivation tower with repetition detection")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=8)
    _add_common(p)

    p = sub.add_parser("relations", help="bridge-morphism identities and matrix splits")
    p.add_argument("file")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--span", type=int, default=3, help="how many exponents above the threshold")
    _add_common(p)

    p = sub.add_parser("circularity", help="injectivity prefix scan and delay search")
    p.add_argument("file")
    p.add_argument("--inj-length", type=int, default=30)
    p.add_argument("--max-prefix", type=int, default=200)
    p.add_argument("--delay-max", type=int, default=64)
    p.add_argument("--sample-len", type=int, default=10)
    _add_common(p)

    p = sub.add_parser("shared", help="power coincidence and shared-prefix power equality")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--power-bound", type=int, default=6)
    p.add_argument("--budget", type=int, default=6)
    p.add_argument("--depth", type=int, default=8)
    _add_common(p)

    p = sub.add_parser("cobham", help="gate two coded fixed points, then test dependence")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--coding-left", default="id")
    p.add_argument("--coding-right", default="id")
    p.add_argument("--bound", type=int, default=12)
    p.add_argument("--prefix-check", type=int, default=10_000)
    _add_common(p)

    p = sub.add_parser("periodic", help="periodic presentation through a primitive substitution")
    p.add_argument("file")
    p.add_argument("--period", required=True)
    p.add_argument("--check-len", type=int, default=1000)
    _add_common(p)

    return parser


def _cmd_fixed_point(args, report: Report) -> None:
    sub, codings = _load(args.file)
    if args.coding:
        coding = _coding_by_name(args.coding, sub, codings)
        word = morphic_image_prefix(coding, sub, args.length)
    else:
        word = fixed_point_prefix(sub, args.length)
    report.data("prefix", word.text())


def _cmd_spectrum(args, report: Report) -> None:
    sub, _ = _load(args.file)
    s = spectrum(sub.matrix())
    stripped = strip_trivial(s)
    report.data("matrix", [list(r) for r in sub.matrix().rows])
    report.data("spectrum", _spectrum_data(s))
    report.data("stripped_spectrum", _spectrum_data(stripped))
    prim, witness = is_primitive(sub.matrix())
    report.data("primitive", {"value": prim, "witness_exponent": witness})


def _cmd_return_words(args, report: Report) -> None:
    sub, _ = _load(args.file)
    system, _ = return_substitution(sub, _word_arg(sub, args.prefix))
    report.data("prefix", args.prefix)
    report.data("return_words", [w.text() for w in system.return_words])
    report.data("count", system.count)


def _cmd_return_sub(args, report: Report) -> None:
    sub, _ = _load(args.file)
    u = _word_arg(sub, args.prefix)
    system, tau_u = return_substitution(sub, u)
    report.data(
        "images",
        {system.return_alphabet.symbol(b): tau_u.image(b).text() for b in range(system.count)},
    )
    report.data("equals_original_after_renaming", equals_own_return_substitution(sub, tau_u))
    report.add(Check.of("eigenvalue-transfer", eigenvalue_transfer_check(sub, u)))


def _cmd_derived(args, report: Report) -> None:
    sub, _ = _load(args.file)
    u = _word_arg(sub, args.prefix)
    dp = derived_prefix(sub, u, args.length)
    report.data("derived_prefix", dp.letters.text())
    decoded = dp.decoded()
    host = fixed_point_prefix(sub, len(decoded)) if len(decoded) else None
    report.add(
        Check.of("decoding-is-prefix-of-fixed-point", host is not None and decoded == host)
    )


def _cmd_tower(args, report: Report) -> None:
    sub, _ = _load(args.file)
    tower = derivation_tower(sub, args.depth)
    report.data(
        "levels",
        [
            {
                "depth": lvl.depth,
                "prefix_length": len(lvl.prefix),
                "return_letters": lvl.system.count,
            }
            for lvl in tower.levels
        ],
    )
    repetition = None if tower.repetition is None else list(tower.repetition)
    report.add(Check.search("tower-repetition", repetition, f"no repetition <= depth {args.depth}"))


def _cmd_relations(args, report: Report) -> None:
    require_nonnegative("span", args.span)
    sub, _ = _load(args.file)
    u, v = _word_arg(sub, args.u), _word_arg(sub, args.v)
    rel = verify_propprec(sub, u, v)
    report.data("k", rel.k)
    for chk in rel.checks:
        report.add(chk)
    n0 = two_occurrence_exponent(sub, u)
    report.data("two_occurrence_exponent", n0)
    for l in range(n0, n0 + args.span):
        md = matrix_decomposition(sub, u, l)
        report.add(Check.of(f"matrix-split-nonnegative-Q(l={l})", md.q_nonnegative))
        report.add(
            Check.of(
                f"matrix-split-bounds(l={l})",
                md.q_within_bound and md.p_within_bound,
                {"q_bound": _frac(md.q_bound), "p_bound": _frac(md.p_bound)},
            )
        )


def _cmd_circularity(args, report: Report) -> None:
    sub, _ = _load(args.file)
    n0 = find_n0(sub, args.inj_length, args.max_prefix)
    report.add(Check.search("injectivity-prefix", n0, f"no passing prefix <= {args.max_prefix}"))
    delay = sync_delay_search(sub, args.delay_max, args.sample_len)
    note = f"no delay <= {args.delay_max} on the sample"
    report.add(Check.search("synchronization-delay", delay, note))
    report.data("sample_len", args.sample_len)
    report.data(
        "delay_note",
        "certified on sampled factors only (boundary cuts included); not a proof of the true delay",
    )


def _cmd_shared(args, report: Report) -> None:
    left, _ = _load(args.left)
    right, _ = _load(args.right)
    pair = power_coincidence(left, right, args.power_bound)
    pair = None if pair is None else list(pair)
    report.add(Check.search("power-coincidence", pair, f"no pair <= {args.power_bound}"))
    witness = shared_fixed_point_analysis(left, right, depth=args.depth, budget=args.budget)
    found = None
    if witness is not None:
        found = {"prefix": witness.prefix.text(), "i": witness.i, "j": witness.j}
    note = f"no witness with depth {args.depth}, exponent budget {args.budget}"
    report.add(Check.search("shared-prefix-power-equality", found, note))
    if witness is not None:
        lt = return_substitution(left, witness.prefix)[1]
        rt = return_substitution(right, witness.prefix)[1]
        exact = spelling(power(lt, witness.i).images) == spelling(power(rt, witness.j).images)
        report.add(Check.of("witness-identity-exact", exact))


def _cmd_cobham(args, report: Report) -> None:
    # refused before the gate, which can end the command without a search
    require_nonnegative("exponent bound", args.bound)
    left, codings_left = _load(args.left)
    right, codings_right = _load(args.right)
    coding_left = _coding_by_name(args.coding_left, left, codings_left)
    coding_right = _coding_by_name(args.coding_right, right, codings_right)
    a = morphic_image_prefix(coding_left, left, args.prefix_check)
    b = morphic_image_prefix(coding_right, right, args.prefix_check)
    gate = same_symbols(a, b)
    report.add(Check.of("coded-fixed-points-agree", gate, f"compared {args.prefix_check} letters"))
    report.data("dominant_left", _enclosure(dominant_eigenvalue(left.matrix())))
    report.data("dominant_right", _enclosure(dominant_eigenvalue(right.matrix())))
    if not gate:
        return
    witness = mult_dependent(left.matrix(), right.matrix(), args.bound)
    found = None
    if witness is not None:
        found = {
            "m": witness.m,
            "n": witness.n,
            "certified": witness.certified,
            "value": _frac(witness.exact_value) if witness.exact_value is not None else None,
        }
    report.add(Check.search("multiplicative-dependence", found, f"no witness <= {args.bound}"))


def _cmd_periodic(args, report: Report) -> None:
    sub, _ = _load(args.file)
    period = sub.alphabet.word(args.period)
    pres = build_periodic_presentation(period, sub)
    report.data("exponent", pres.exponent)
    report.data("product_alphabet_size", pres.product_alphabet.size)
    for chk in verify_presentation(pres, args.check_len):
        report.add(chk)


_HANDLERS = {
    "fixed-point": _cmd_fixed_point,
    "spectrum": _cmd_spectrum,
    "return-words": _cmd_return_words,
    "return-sub": _cmd_return_sub,
    "derived": _cmd_derived,
    "tower": _cmd_tower,
    "relations": _cmd_relations,
    "circularity": _cmd_circularity,
    "shared": _cmd_shared,
    "cobham": _cmd_cobham,
    "periodic": _cmd_periodic,
}


def run_command(argv: list[str]) -> tuple[int, Report | None]:
    """Run one subcommand; returns (exit status, report)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (EXIT_USAGE if exc.code not in (0, None) else 0), None
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("subcommand", "json") and v is not None
    }
    report = None
    started = time.perf_counter()
    try:
        config["prefix_cap"] = prefix_cap()
        report = Report(args.subcommand, argv, config)
        _HANDLERS[args.subcommand](args, report)
        elapsed = time.perf_counter() - started
        rendered = report.render_json() if args.json else report.render_human(elapsed)
        print(rendered, flush=True)
    except (ParseError, ValueError, OSError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE, report
    except ResourceLimitError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET, report
    except InternalInconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL, report
    except Exception as exc:
        print(f"error: internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INTERNAL, report
    return report.exit_code, report


def main(argv: list[str] | None = None) -> int:
    """The console script: run one command and return its exit status.

    When stdout is closed (``retword ... | head``), the failed write is an
    output error, exit 2 with one ``error:`` line, and stdout is pointed at
    the null device so the interpreter's final flush prints nothing more.
    """
    status, _ = run_command(sys.argv[1:] if argv is None else argv)
    try:
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if status != EXIT_USAGE:  # else run_command has reported the failed write
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return status


if __name__ == "__main__":
    raise SystemExit(main())
