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

A ``--json`` report is ``json.dumps(payload, indent=2)`` byte for byte.
:meth:`Report.render_json` writes the only types a report holds, dicts with
str keys, lists, tuples, str, int, bool and None, as one list of chunks
joined once, and refuses any other type with ``TypeError``.  A long string
with nothing to escape, such as a fixed-point prefix, is found so in one
C-level pass over bounded slices and goes into the chunks as itself, so
the only copy of it the renderer makes is the joined report.

Dispatch parses once: when ``argv[0]`` names a subcommand, that
subcommand's own parser reads the rest, and any usage error or help it
prints is the one the ``retword`` parser would print, under the same
``retword <subcommand>`` prog.  Only when arguments are left over, or
``argv[0]`` names no subcommand, does the ``retword`` parser read the whole
of ``argv``, so that it reports the error in its own words.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
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
    coded_fixed_points_agree,
    eigenvalue_transfer_check,
    equals_own_return_substitution,
    matrix_decomposition,
    power_coincidence,
    shared_fixed_point_analysis,
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
    prefix_cap,
)

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
        """``json.dumps(self.payload, indent=2)``, byte for byte."""
        chunks: list[str] = []
        _render_json(self.payload, "\n", chunks)
        return "".join(chunks)


# Strings longer than this are tested by _plain before any escape; shorter
# ones are escaped at once, which costs less than the test.
_PLAIN_MIN = 64
# _plain reads a string in slices of this many characters, so no copy of
# more than that lives beside the string.
_PLAIN_SLICE = 1 << 16
# The bytes that encode_basestring_ascii writes as themselves.
_PLAIN_BYTES = bytes(b for b in range(0x20, 0x7F) if b not in b'"\\')


def _plain(s: str) -> bool:
    """Whether ``encode_basestring_ascii(s)`` is ``s`` between two quotes:
    ``s`` is ASCII and holds no control character, DEL, ``"`` or ``\\``.
    Each slice is tested in one C-level pass, an encode and a translate
    that deletes every plain byte and so leaves nothing of a plain slice."""
    return s.isascii() and not any(
        s[i : i + _PLAIN_SLICE].encode().translate(None, _PLAIN_BYTES)
        for i in range(0, len(s), _PLAIN_SLICE)
    )


def _render_json(value: Any, newline: str, chunks: list[str]) -> None:
    """Append ``value``'s ``indent=2`` JSON to ``chunks``; ``newline`` is the
    line break and indent of the line ``value`` starts on.

    Exact types only, bool before int: a float, a non-str key or any
    subclass raises ``TypeError``.  A string of more than ``_PLAIN_MIN``
    characters that :func:`_plain` finds needs no escape goes into
    ``chunks`` itself, between two quotes; any other is escaped once,
    straight into ``chunks``, so no more copies of it live than under
    ``json.dumps``.
    """
    kind = type(value)
    if kind is str:
        if len(value) > _PLAIN_MIN and _plain(value):
            chunks += ('"', value, '"')
        else:
            chunks.append(encode_basestring_ascii(value))
    elif value is None:
        chunks.append("null")
    elif kind is bool:
        chunks.append("true" if value else "false")
    elif kind is int:
        chunks.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"cannot write a key of type {type(key).__name__} as JSON")
            chunks.append(opener)
            chunks.append(encode_basestring_ascii(key))
            chunks.append(": ")
            _render_json(item, inner, chunks)
            opener = "," + inner
        chunks.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in value:
            chunks.append(opener)
            _render_json(item, inner, chunks)
            opener = "," + inner
        chunks.append(newline + "]")
    else:
        raise TypeError(f"cannot write a value of type {kind.__name__} as JSON")


def _load(path: str) -> tuple[Substitution, dict[str, Morphism]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_substitution(fh.read())


def _coding_by_name(name: str, sub: Substitution, codings: dict[str, Morphism]) -> Morphism:
    if name in ("id", "identity"):
        return identity_morphism(sub.alphabet)
    if name not in codings:
        raise ParseError(f"coding {name!r} not defined in the substitution file")
    return codings[name]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="print the machine-readable report")


def build_parser() -> argparse.ArgumentParser:
    """The ``retword`` parser, built once per process: parsing keeps no state on it."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``retword`` parser and each subcommand's own parser by name,
    built on first use, since importing this module is part of start-up."""
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
    p.add_argument("--depth", type=int, default=8, help="how many levels to print")
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
    p.add_argument("--sample-len", type=int, default=10, help="the longest factor length the delay search reads")
    _add_common(p)

    p = sub.add_parser("shared", help="power coincidence and shared-prefix power equality")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--power-bound", type=int, default=6)
    p.add_argument("--budget", type=int, default=6)
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
    _add_common(p)

    return parser, dict(sub.choices)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass where argv[0] names a
    subcommand and its parser leaves no argument over (see the module
    docstring); a usage error or help exits with ``SystemExit``."""
    parser, subparsers = _parsers()
    subparser = subparsers.get(argv[0]) if argv else None
    if subparser is not None:
        args, extras = subparser.parse_known_args(argv[1:])
        if not extras:
            args.subcommand = argv[0]
            return args
    return parser.parse_args(argv)


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
    system, _ = return_substitution(sub, sub.alphabet.word(args.prefix))
    report.data("prefix", args.prefix)
    report.data("return_words", [w.text() for w in system.return_words])
    report.data("count", system.count)


def _cmd_return_sub(args, report: Report) -> None:
    sub, _ = _load(args.file)
    u = sub.alphabet.word(args.prefix)
    system, tau_u = return_substitution(sub, u)
    report.data(
        "images",
        {system.return_alphabet.symbol(b): tau_u.image(b).text() for b in range(system.count)},
    )
    report.data("equals_original_after_renaming", equals_own_return_substitution(sub, tau_u))
    report.add(Check.of("eigenvalue-transfer", eigenvalue_transfer_check(sub, u)))


def _cmd_derived(args, report: Report) -> None:
    sub, _ = _load(args.file)
    u = sub.alphabet.word(args.prefix)
    dp = derived_prefix(sub, u, args.length)
    report.data("derived_prefix", dp.letters.text())
    decoded = dp.decoded()
    host = fixed_point_prefix(sub, len(decoded))
    report.add(Check.of("decoding-is-prefix-of-fixed-point", decoded == host))


def _cmd_tower(args, report: Report) -> None:
    sub, _ = _load(args.file)
    if args.depth < 1:
        raise ValueError("tower depth must be >= 1")
    tower = derivation_tower(sub)
    report.data(
        "levels",
        [
            {
                "depth": lvl.depth,
                "prefix_length": lvl.prefix_length,
                "return_letters": lvl.system.count,
            }
            for lvl in tower.levels[: args.depth]
        ],
    )
    report.add(Check("tower-repetition", "found", witness=list(tower.repetition)))


def _cmd_relations(args, report: Report) -> None:
    require_nonnegative("span", args.span)
    sub, _ = _load(args.file)
    u, v = sub.alphabet.word(args.u), sub.alphabet.word(args.v)
    rel = verify_propprec(sub, u, v)
    report.data("k", rel.k)
    for chk in rel.checks:
        report.add(chk)
    n0, splits = matrix_decomposition(sub, u, args.span)
    report.data("two_occurrence_exponent", n0)
    for md in splits:
        report.add(Check.of(f"matrix-split-nonnegative-Q(l={md.l})", md.q_nonnegative))
        report.add(
            Check.of(
                f"matrix-split-bounds(l={md.l})",
                md.q_within_bound and md.p_within_bound,
                {"q_bound": _frac(md.q_bound), "p_bound": _frac(md.p_bound)},
            )
        )


def _cmd_circularity(args, report: Report) -> None:
    sub, _ = _load(args.file)
    n0 = find_n0(sub, args.inj_length, args.max_prefix)
    report.add(Check.search("injectivity-prefix", n0, f"no passing prefix <= {args.max_prefix}"))
    delay = sync_delay_search(sub, args.delay_max, args.sample_len)
    factors = f"every factor of length <= {args.sample_len}"
    report.add(Check.search("synchronization-delay", delay, f"no delay <= {args.delay_max} over {factors}"))
    report.data("sample_len", args.sample_len)
    report.data("delay_note", f"over {factors} (boundary cuts included)")


def _cmd_shared(args, report: Report) -> None:
    left, _ = _load(args.left)
    right, _ = _load(args.right)
    # refused before the fixed-point decision, which can end the command
    require_nonnegative("exponent bound", args.power_bound)
    witness = shared_fixed_point_analysis(left, right, budget=args.budget)
    pair = power_coincidence(left, right, args.power_bound)
    pair = None if pair is None else list(pair)
    report.add(Check.search("power-coincidence", pair, f"no pair <= {args.power_bound}"))
    found = None if witness is None else {"prefix": witness.prefix.text(), "i": witness.i, "j": witness.j}
    note = f"no witness at any tower level, exponent budget {args.budget}"
    report.add(Check.search("shared-prefix-power-equality", found, note))
    if witness is not None:
        # A witness is returned only when its powers compared equal letter for letter.
        report.add(Check.of("witness-identity-exact", True))


def _cmd_cobham(args, report: Report) -> None:
    # refused before the gate, which can end the command without a search
    require_nonnegative("exponent bound", args.bound)
    left, codings_left = _load(args.left)
    right, codings_right = _load(args.right)
    coding_left = _coding_by_name(args.coding_left, left, codings_left)
    coding_right = _coding_by_name(args.coding_right, right, codings_right)
    # equal sides share one substitution, equal matrices one matrix, so the
    # fixed point, the polynomial and the dominant are each made once
    if right == left:
        right = left
    matrix_left, matrix_right = left.matrix(), right.matrix()
    if matrix_right == matrix_left:
        matrix_right = matrix_left
    gate = coded_fixed_points_agree(left, coding_left, right, coding_right, args.prefix_check)
    report.add(Check.of("coded-fixed-points-agree", gate, f"compared {args.prefix_check} letters"))
    report.data("dominant_left", _enclosure(dominant_eigenvalue(matrix_left)))
    report.data("dominant_right", _enclosure(dominant_eigenvalue(matrix_right)))
    if not gate:
        return
    witness = mult_dependent(matrix_left, matrix_right, args.bound)
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
    for chk in verify_presentation(pres):
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
    try:
        args = _parse(argv)
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
