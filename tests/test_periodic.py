import contextlib
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
import retword
import retword.periodic
import retword.substitution
from retword.checks import Check
from retword.cli import run_command
from retword.errors import GenerationError, ParseError, ResourceLimitError
from retword.intpoly import LargestRootBisection, SturmCounter
from corpus import fibonacci
from periodic_oracle import coded_prefix_is_periodic
from test_substitution import primitive_substitutions
from retword.periodic import (
    PeriodicPresentation,
    build_periodic_presentation,
    verify_presentation,
)
from retword.spectrum import certify_equal_dominant
from retword.substitution import (
    Alphabet,
    FixedPointPrefix,
    IncidenceMatrix,
    Morphism,
    Substitution,
    Word,
    _least_positive_power,
    compose,
    format_substitution,
    is_primitive,
    morphic_image_prefix,
    parse_substitution,
    power,
    substitution_from_strings,
)

TARGET = Alphabet(("a", "b"))


@pytest.mark.parametrize("period_text", ["a", "ab", "aba"])
def test_build_and_verify(fib, period_text):
    period = TARGET.word(period_text)
    pres = build_periodic_presentation(period, fib)
    checks = verify_presentation(pres)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    assert coded_prefix_is_periodic(pres, 1000)


def test_intertwining_identity_exact(fib):
    pres = build_periodic_presentation(TARGET.word("ab"), fib)
    rho = power(fib, pres.exponent)
    lhs = compose(pres.zeta.morphism, pres.psi)
    rhs = compose(pres.psi, rho.morphism)
    assert lhs == rhs


def test_psi_then_coding_spells_period(fib):
    period = TARGET.word("aba")
    pres = build_periodic_presentation(period, fib)
    for b in range(fib.alphabet.size):
        assert pres.coding(pres.psi.image(b)).letters == period.letters


def test_image_lengths(fib):
    period = TARGET.word("ab")
    pres = build_periodic_presentation(period, fib)
    p = len(period)
    rho = power(fib, pres.exponent)
    for b in range(fib.alphabet.size):
        for i in range(p):
            img = pres.zeta.image(b * p + i)
            if i < p - 1:
                assert len(img) == p
            else:
                assert len(img) == p * (len(rho.image(b)) - p + 1)


@settings(max_examples=60, deadline=None)
@given(primitive_substitutions(), st.text("ab", min_size=1, max_size=12))
@example(fibonacci(), "aba")
def test_exponent_minimality(base, period_text):
    """The exponent is the least k with M^k entrywise positive and every
    column sum of M^k, an image length of tau^k, longer than the period."""
    period = TARGET.word(period_text)
    m = base.matrix()
    k = 1
    while not ((m**k).all_positive() and all(s > len(period) for s in (m**k).column_sums())):
        k += 1
    assert build_periodic_presentation(period, base).exponent == k


def test_zeta_primitive_and_dominant(fib):
    pres = build_periodic_presentation(TARGET.word("ab"), fib)
    assert is_primitive(pres.zeta.matrix())[0]
    assert certify_equal_dominant(pres.zeta.matrix(), fib.matrix() ** pres.exponent) is True


def test_unary_period(fib):
    pres = build_periodic_presentation(TARGET.word("a"), fib)
    coded = morphic_image_prefix(pres.coding, pres.zeta, 50)
    assert coded.text() == "a" * 50


def test_tampered_presentation_detected(fib):
    pres = build_periodic_presentation(TARGET.word("ab"), fib)
    images = list(pres.zeta.images)
    letters = list(images[1].letters)
    letters[0], letters[-1] = letters[-1], letters[0]
    images[1] = Word(pres.product_alphabet, tuple(letters))
    bad_zeta = Substitution(
        Morphism(pres.product_alphabet, pres.product_alphabet, tuple(images)),
        pres.zeta.start,
    )
    bad = PeriodicPresentation(
        pres.period, pres.exponent, pres.base, bad_zeta, pres.psi, pres.coding
    )
    checks = verify_presentation(bad)
    failing = {c.name: c for c in checks if not c.passed}
    assert "zeta∘psi=psi∘tau^k" in failing
    assert "letter" in failing["zeta∘psi=psi∘tau^k"].detail
    assert failing["coded-fixed-point-periodic"] == Check("coded-fixed-point-periodic", "fail")


def test_coded_check_needs_psi_of_the_start_to_begin_with_zetas_start(morse):
    """Thue-Morse's zeta also fixes (1,0), whose coded fixed point is m^omega
    too; started there, the identity and the period column still pass, but
    psi(0) begins with (0,0), so the derived check fails, with no detail."""
    pres = build_periodic_presentation(TARGET.word("ab"), morse)
    one = pres.product_alphabet.index("(1,0)")
    hand = PeriodicPresentation(
        pres.period, pres.exponent, morse, Substitution(pres.zeta.morphism, one), pres.psi, pres.coding
    )
    identity, _, coded, column, _ = verify_presentation(hand)
    assert identity.passed and column.passed
    assert coded == Check("coded-fixed-point-periodic", "fail")
    assert coded_prefix_is_periodic(hand, 100)


def test_rejects_empty_period(fib):
    with pytest.raises(ValueError):
        build_periodic_presentation(Word(TARGET, ()), fib)


def test_rejects_non_primitive_base():
    reducible = substitution_from_strings("a b", {"a": "ab", "b": "bb"}, "a")
    with pytest.raises(ValueError):
        build_periodic_presentation(TARGET.word("ab"), reducible)


ONE_LETTER_IDENTITY = "alphabet = a\nstart = a\na -> a\n"
GROWTH_ERROR = "fixed-point generation needs the start image to have length >= 2"


def test_one_letter_identity_is_refused_not_searched(tmp_path):
    """a -> a is primitive but its images never outgrow the period; the
    command exits 2 with one line.  A subprocess turns a hang into a timeout."""
    # written outside samples/, which the benchmark generator reads
    path = tmp_path / "one.sub"
    path.write_text(ONE_LETTER_IDENTITY)
    env = dict(os.environ, PYTHONPATH=str(Path(retword.__file__).resolve().parents[1]))
    argv = ["periodic", str(path), "--period", "a", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "retword.cli", *argv], capture_output=True, text=True, env=env, timeout=10
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {GROWTH_ERROR}\n")


def test_build_refuses_the_one_letter_identity():
    tau, _ = parse_substitution(ONE_LETTER_IDENTITY)
    with pytest.raises(GenerationError, match=GROWTH_ERROR):
        build_periodic_presentation(tau.alphabet.word("a"), tau)


def test_build_under_the_cap(fib, monkeypatch):
    """The period ab needs Fibonacci's cube, whose images hold 8 letters."""
    expected = build_periodic_presentation(TARGET.word("ab"), fib)
    monkeypatch.setenv("REPO_PREFIX_CAP", "8")
    assert build_periodic_presentation(TARGET.word("ab"), fibonacci()) == expected
    monkeypatch.setenv("REPO_PREFIX_CAP", "7")
    with pytest.raises(ResourceLimitError, match="REPO_PREFIX_CAP"):
        build_periodic_presentation(TARGET.word("ab"), fibonacci())


def test_works_for_other_bases(morse, trib):
    for base in (morse, trib):
        pres = build_periodic_presentation(TARGET.word("ab"), base)
        assert all(c.passed for c in verify_presentation(pres))


def _counted(counts: dict, key: str, fn):
    """fn, adding one to ``counts[key]`` on each call."""

    def call(*args):
        counts[key] += 1
        return fn(*args)

    return call


def _count_certificates(monkeypatch) -> dict:
    """Count the factorization checks of zeta's matrix, the general dominant
    certificates and the characteristic polynomials formed."""
    counts = {"factors": 0, "certify": 0, "char_poly": 0}
    periodic_module = sys.modules["retword.periodic"]
    spectrum_module = sys.modules["retword.spectrum"]
    for module, name, key in (
        (periodic_module, "_factors", "factors"),
        (periodic_module, "certify_equal_dominant", "certify"),
        (spectrum_module, "char_poly", "char_poly"),
    ):
        monkeypatch.setattr(module, name, _counted(counts, key, getattr(module, name)))
    return counts


def test_periodic_command_certifies_once(monkeypatch, capsys):
    """One job checks zeta's factorization once and reads the dominant check
    off it: no general certificate and no characteristic polynomial."""
    counts = _count_certificates(monkeypatch)
    sample = Path(__file__).resolve().parents[1] / "samples" / "fib.sub"
    status, report = run_command(["periodic", str(sample), "--period", "0110", "--json"])
    assert status == 0
    assert [c["outcome"] for c in report.payload["checks"]] == ["pass"] * 5
    assert counts == {"factors": 1, "certify": 0, "char_poly": 0}


SAMPLES = sorted((Path(__file__).resolve().parents[1] / "samples").glob("*.sub"))


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_periodic_command_builds_no_chain_and_no_bisection(monkeypatch, path):
    """The dominant check decides from the two characteristic polynomials:
    every period of 1-3 letters over the sample's first two letters passes
    all five checks with no Sturm chain built and no bisection narrowed."""
    counts = {"chains": 0, "narrowed": 0}
    init, narrow = SturmCounter.__init__, LargestRootBisection.narrow

    def counted_init(self, p):
        counts["chains"] += 1
        init(self, p)

    def counted_narrow(self, width):
        counts["narrowed"] += 1
        return narrow(self, width)

    monkeypatch.setattr(SturmCounter, "__init__", counted_init)
    monkeypatch.setattr(LargestRootBisection, "narrow", counted_narrow)
    sub, _ = parse_substitution(path.read_text(encoding="utf-8"))
    letters = sub.alphabet.symbols[:2]
    for period in (p for n in (1, 2, 3) for p in itertools.product(letters, repeat=n)):
        argv = ["periodic", str(path), "--period", "".join(period), "--json"]
        with contextlib.redirect_stdout(io.StringIO()):
            status, report = run_command(argv)
        assert status == 0
        assert [c["outcome"] for c in report.payload["checks"]] == ["pass"] * 5
    assert counts == {"chains": 0, "narrowed": 0}


def test_hand_built_presentation_certifies_afresh(monkeypatch, fib):
    """An equal copy decides its checks again, from the factorization and
    with no characteristic polynomial, as the built presentation did."""
    counts = _count_certificates(monkeypatch)
    pres = build_periodic_presentation(TARGET.word("ab"), fib)
    assert counts == {"factors": 1, "certify": 0, "char_poly": 0}
    assert all(c.passed for c in verify_presentation(pres))
    assert counts["factors"] == 1
    copy = PeriodicPresentation(
        pres.period, pres.exponent, pres.base, pres.zeta, pres.psi, pres.coding
    )
    assert copy == pres
    assert all(c.passed for c in verify_presentation(copy))
    assert counts == {"factors": 2, "certify": 0, "char_poly": 0}
    assert verify_presentation(copy) == verify_presentation(pres)
    assert counts == {"factors": 2, "certify": 0, "char_poly": 0}


def test_periodic_command_checks_structure_once(monkeypatch):
    """One job checks zeta∘psi once, on scan texts, and searches primitivity
    on the base only: the build verifies the presentation, the command's
    verification reuses its checks, and zeta's primitivity is read off its
    factorization."""
    periodic_module = sys.modules["retword.periodic"]
    primitive_dims, compositions = [], []

    def counted_primitive(matrix):
        primitive_dims.append(matrix.nrows)
        return is_primitive(matrix)

    def counted_compose(*args):
        compositions.append(args)
        return compose(*args)

    monkeypatch.setattr(periodic_module, "is_primitive", counted_primitive)
    # the intertwining check composes no morphism, through either module
    monkeypatch.setattr(periodic_module, "compose", counted_compose, raising=False)
    monkeypatch.setattr(sys.modules["retword.substitution"], "compose", counted_compose)
    sample = Path(__file__).resolve().parents[1] / "samples" / "fib.sub"
    with contextlib.redirect_stdout(io.StringIO()):
        status, report = run_command(["periodic", str(sample), "--period", "0110", "--json"])
    assert status == 0
    assert [c["outcome"] for c in report.payload["checks"]] == ["pass"] * 5
    # one call on the base (2 letters), none on the 8-letter product alphabet
    assert primitive_dims == [2]
    # tau^k's compositions stay on the base; none touches the product alphabet
    assert [args for args in compositions if any(m.target.size == 8 for m in args)] == []


def test_periodic_command_counts_no_power_matrix(monkeypatch):
    """tau^k's matrix M^k is N P, read off zeta's factorization once the
    intertwining identity has passed: a job counts tau's matrix and zeta's,
    and not M^k."""
    sizes = []
    substitution_module = sys.modules["retword.substitution"]
    incidence_matrix = substitution_module.incidence_matrix

    def counted_incidence_matrix(m):
        sizes.append(m.target.size)
        return incidence_matrix(m)

    monkeypatch.setattr(substitution_module, "incidence_matrix", counted_incidence_matrix)
    sample = Path(__file__).resolve().parents[1] / "samples" / "morse.sub"
    argv = ["periodic", str(sample), "--period", "01101001", "--json"]
    with contextlib.redirect_stdout(io.StringIO()):
        status, report = run_command(argv)
    assert status == 0
    assert [c["outcome"] for c in report.payload["checks"]] == ["pass"] * 5
    assert sizes == [2, 16]


def test_failed_primitivity_check_carries_no_detail():
    """zeta sending (a,0) to (a,0)(a,0) and every other letter to (a,0) is
    not primitive: the check fails with no witness exponent in its detail."""
    fib = substitution_from_strings("a b", {"a": "ab", "b": "a"}, "a")
    pres = build_periodic_presentation(fib.alphabet.word("ab"), fib)
    alphabet = pres.product_alphabet
    a0 = alphabet.index("(a,0)")
    images = tuple(Word(alphabet, (a0, a0) if b == a0 else (a0,)) for b in range(alphabet.size))
    zeta = Substitution(Morphism(alphabet, alphabet, images), a0)
    bad = PeriodicPresentation(pres.period, pres.exponent, fib, zeta, pres.psi, pres.coding)
    assert bad.structural_checks[1] == Check("zeta-primitive", "fail")
    assert bad.structural_checks[1].as_json() == {"name": "zeta-primitive", "outcome": "fail"}


def test_factored_presentation_over_a_non_positive_power_searches_primitivity(monkeypatch, fib):
    """Fibonacci presented at exponent 1 for a one-letter period: zeta's
    matrix is M, which factors with P the identity, but M is not positive,
    so primitivity is searched; the dominant check is still read off the
    factorization."""
    pres = build_periodic_presentation(TARGET.word("a"), fib)
    alphabet = pres.product_alphabet
    zeta = Substitution(
        Morphism(alphabet, alphabet, tuple(pres.psi(w) for w in fib.images)), pres.zeta.start
    )
    low = PeriodicPresentation(pres.period, 1, fib, zeta, pres.psi, pres.coding)
    counts = _count_certificates(monkeypatch)
    counts["search"] = 0
    periodic_module = sys.modules["retword.periodic"]
    monkeypatch.setattr(periodic_module, "is_primitive", _counted(counts, "search", is_primitive))
    identity, primitive, _, dominant = low.structural_checks
    assert identity.passed
    assert primitive == Check("zeta-primitive", "pass", "witness exponent 2")
    assert dominant.passed
    assert counts == {"factors": 1, "certify": 0, "char_poly": 0, "search": 1}


def _count_compositions(monkeypatch) -> list:
    """Record the left factor of every composition ``power`` makes."""
    calls = []
    substitution_module = sys.modules["retword.substitution"]

    def counted(f, g):
        calls.append(f)
        return compose(f, g)

    monkeypatch.setattr(substitution_module, "compose", counted)
    return calls


@pytest.mark.parametrize("period", ["0", "0110", "0110101101"])
def test_periodic_command_raises_tau_to_the_k_once(monkeypatch, period):
    """One job composes tau k-1 times: the exponent search, zeta's images and
    the structural checks all read tau^k from the base's power table."""
    calls = _count_compositions(monkeypatch)
    sample = Path(__file__).resolve().parents[1] / "samples" / "fib.sub"
    tau, _ = parse_substitution(sample.read_text())
    with contextlib.redirect_stdout(io.StringIO()):
        status, report = run_command(["periodic", str(sample), "--period", period, "--json"])
    assert status == 0
    assert [c["outcome"] for c in report.payload["checks"]] == ["pass"] * 5
    assert len(calls) == report.payload["data"]["exponent"] - 1
    assert all(f == tau.morphism for f in calls)


def test_hand_built_presentation_reuses_the_base_power(monkeypatch):
    tau = fibonacci()
    calls = _count_compositions(monkeypatch)
    pres = build_periodic_presentation(TARGET.word("aba"), tau)
    assert len(calls) == pres.exponent - 1
    assert all(f is tau.morphism for f in calls)
    copy = PeriodicPresentation(
        pres.period, pres.exponent, pres.base, pres.zeta, pres.psi, pres.coding
    )
    assert verify_presentation(copy) == verify_presentation(pres)
    assert len(calls) == pres.exponent - 1


_SAMPLE_BASES = {
    path.name: parse_substitution(path.read_text(encoding="utf-8"))[0]
    for path in sorted((Path(__file__).resolve().parents[1] / "samples").glob("*.sub"))
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_SAMPLE_BASES)), data=st.data())
def test_product_alphabet_round_trips_through_the_text_format(name, data):
    """Product letters such as (0,1) hold commas; the coding line still parses."""
    base = _SAMPLE_BASES[name]
    letters = st.integers(0, base.alphabet.size - 1)
    period = Word(base.alphabet, tuple(data.draw(st.lists(letters, min_size=1, max_size=6))))
    pres = build_periodic_presentation(period, base)
    text = format_substitution(pres.zeta, {"c": pres.coding})
    zeta, codings = parse_substitution(text)
    assert zeta == pres.zeta
    coding = codings["c"]
    assert [coding.target.symbol(coding.image(b)[0]) for b in range(zeta.alphabet.size)] == [
        pres.coding.target.symbol(pres.coding.image(b)[0]) for b in range(zeta.alphabet.size)
    ]
    assert format_substitution(zeta, codings) == text


def _psi_factors(pres: PeriodicPresentation, z: IncidenceMatrix, mk: IncidenceMatrix) -> bool:
    """The factorization by matrix products: P, psi's matrix, has one 1 per
    row, and with N z's rows at the first letter of each psi image,
    P N = z and N P = mk."""
    p = pres.psi.matrix()
    if any(sorted(row) != [0] * (p.ncols - 1) + [1] for row in p.rows):
        return False
    if any(len(w) == 0 for w in pres.psi.images):
        return False
    n = IncidenceMatrix(z.rows[w[0]] for w in pres.psi.images)
    return p @ n == z and n @ p == mk


def _tampered(pres: PeriodicPresentation, data, kinds: tuple[str, ...]) -> tuple[str, PeriodicPresentation]:
    """A drawn kind of tampering and pres after it: as built ("none"), or
    with one letter of one zeta, psi or coding image replaced by another
    letter of the same alphabet (zeta's start image keeps its first letter)."""
    alphabet = pres.product_alphabet
    product_letter = st.integers(0, alphabet.size - 1)
    zeta, psi, coding = pres.zeta, pres.psi, pres.coding
    tamper = data.draw(st.sampled_from(kinds))
    if tamper == "zeta":
        images = [list(w) for w in zeta.images]
        i = data.draw(st.integers(0, len(images) - 1))
        j = data.draw(st.integers(0 if i != zeta.start else 1, len(images[i]) - 1))
        images[i][j] = data.draw(product_letter.filter(lambda c: c != images[i][j]))
        zeta = Substitution(
            Morphism(alphabet, alphabet, tuple(Word(alphabet, im) for im in images)), zeta.start
        )
    elif tamper == "psi":
        images = [list(w) for w in psi.images]
        b = data.draw(st.integers(0, len(images) - 1))
        j = data.draw(st.integers(0, len(images[b]) - 1))
        images[b][j] = data.draw(product_letter.filter(lambda c: c != images[b][j]))
        psi = Morphism(psi.source, alphabet, tuple(Word(alphabet, im) for im in images))
    elif tamper == "coding":
        images = [w[0] for w in coding.images]
        b = data.draw(st.integers(0, len(images) - 1))
        target = coding.target
        images[b] = data.draw(st.integers(0, target.size - 1).filter(lambda c: c != images[b]))
        coding = Morphism(alphabet, target, tuple(Word(target, (c,)) for c in images))
    return tamper, PeriodicPresentation(pres.period, pres.exponent, pres.base, zeta, psi, coding)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_SAMPLE_BASES)), data=st.data())
def test_structural_checks_decide_as_the_general_paths(name, data):
    """Every sample with a period of 1-8 letters, as built, with one letter of
    one zeta image replaced by another product letter, or with one letter
    of one psi image replaced (P then has a zero row): the primitivity and
    dominant checks equal ``_least_positive_power(Z)`` and
    ``certify_equal_dominant(Z, M^k)`` on fresh matrices, and a presentation
    that does not factor reaches both general paths."""
    base = _SAMPLE_BASES[name]
    letters = st.integers(0, base.alphabet.size - 1)
    period = Word(base.alphabet, tuple(data.draw(st.lists(letters, min_size=1, max_size=8))))
    pres = build_periodic_presentation(period, base)
    tamper, hand = _tampered(pres, data, ("none", "zeta", "psi"))
    z = IncidenceMatrix(hand.zeta.matrix().rows)
    mk = IncidenceMatrix(power(base, pres.exponent).matrix().rows)
    factors = _psi_factors(hand, z, mk)
    # one letter changed moves one count within one column of Z, which leaves
    # rows of one block unequal (p >= 2) or changes N P = Z (p = 1); one psi
    # letter changed leaves P a zero row
    assert factors is (tamper == "none")
    general = {"certify": 0, "search": 0}
    periodic_module = sys.modules["retword.periodic"]
    with pytest.MonkeyPatch.context() as patched:
        certify = _counted(general, "certify", certify_equal_dominant)
        patched.setattr(periodic_module, "certify_equal_dominant", certify)
        patched.setattr(periodic_module, "is_primitive", _counted(general, "search", is_primitive))
        _, primitive, _, dominant = hand.structural_checks
    positive, exponent = _least_positive_power(z)
    assert primitive.passed is positive
    assert primitive.detail == (f"witness exponent {exponent}" if positive else None)
    assert dominant.passed is certify_equal_dominant(z, mk)
    assert general == ({"certify": 0, "search": 0} if factors else {"certify": 1, "search": 1})


@pytest.mark.parametrize(
    "body, images",
    [
        ("a -> x, b -> y", ("x", "y")),
        ("a->x,b->y", ("x", "y")),
        ("a -> x ,b -> y,", ("x", "y")),
    ],
)
def test_coding_line_separators(body, images):
    text = f"alphabet = a b\nstart = a\na -> a b\nb -> a\ncoding c: {body}\n"
    coding = parse_substitution(text)[1]["c"]
    assert tuple(coding.target.symbol(coding.image(b)[0]) for b in range(2)) == images


@pytest.mark.parametrize("body", ["a -> x y, b -> y", "a -> , b -> y", "a x -> x, b -> y", "a b"])
def test_coding_line_errors_name_the_line(body):
    text = f"alphabet = a b\nstart = a\na -> a b\nb -> a\ncoding c: {body}\n"
    with pytest.raises(ParseError) as err:
        parse_substitution(text)
    assert err.value.line == 5


def test_periodic_command_generates_no_coded_prefix(monkeypatch):
    """The coded-prefix check is derived from the structural checks: one job
    makes no ``morphic_image_prefix`` call, and the only fixed-point buffer
    it builds is the base's, whose start image the build checks."""
    calls, buffers = [], []
    init = FixedPointPrefix.__init__

    def counted_init(self, substitution):
        buffers.append(substitution.alphabet.size)
        init(self, substitution)

    def counted_prefix(*args):
        calls.append(args)
        return morphic_image_prefix(*args)

    monkeypatch.setattr(FixedPointPrefix, "__init__", counted_init)
    for module in ("retword.periodic", "retword.substitution"):
        monkeypatch.setattr(sys.modules[module], "morphic_image_prefix", counted_prefix, raising=False)
    sample = Path(__file__).resolve().parents[1] / "samples" / "fib.sub"
    argv = ["periodic", str(sample), "--period", "0110", "--json"]
    with contextlib.redirect_stdout(io.StringIO()):
        status, report = run_command(argv)
    assert status == 0
    assert (calls, buffers) == ([], [2])
    assert [c["outcome"] for c in report.payload["checks"]] == ["pass"] * 5
    assert report.payload["checks"][2]["detail"] == (
        "implied by zeta∘psi=psi∘tau^k and coding∘psi-spells-period"
    )


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_SAMPLE_BASES)), data=st.data())
def test_structural_checks_imply_the_coded_prefix(name, data):
    """The argument of ``verify_presentation``'s docstring, tested: on every
    sample and a period of 1-8 letters, as built or with one letter of one
    zeta, psi or coding image replaced, wherever the derived coded-prefix
    check passes the coded fixed point is m^omega at several lengths, and a
    built presentation passes it."""
    base = _SAMPLE_BASES[name]
    letters = st.integers(0, base.alphabet.size - 1)
    period = Word(base.alphabet, tuple(data.draw(st.lists(letters, min_size=1, max_size=8))))
    pres = build_periodic_presentation(period, base)
    tamper, hand = _tampered(pres, data, ("none", "zeta", "psi", "coding"))
    coded = verify_presentation(hand)[2]
    assert coded.name == "coded-fixed-point-periodic"
    if tamper == "none":
        assert coded.passed
    if coded.passed:
        p = len(period)
        for n in sorted({1, p, p + 1, 4 * p, data.draw(st.integers(1, 2000))}):
            assert coded_prefix_is_periodic(hand, n), n


def _intertwining_by_composition(pres: PeriodicPresentation) -> Check:
    """zeta∘psi = psi∘tau^k from the two composed morphisms, naming the
    first letter whose images differ."""
    base = pres.base.alphabet
    lhs = compose(pres.zeta.morphism, pres.psi)
    rhs = compose(pres.psi, power(pres.base, pres.exponent).morphism)
    bad = next((base.symbol(b) for b in range(base.size) if lhs.image(b) != rhs.image(b)), None)
    return Check.of("zeta∘psi=psi∘tau^k", bad is None, None if bad is None else f"fails at letter {bad!r}")


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_SAMPLE_BASES)), data=st.data())
def test_intertwining_check_on_scan_texts_equals_the_composed_morphisms(name, data):
    """Every sample with a period of 1-8 letters, as built or with one
    letter of one zeta or psi image replaced: the scan-text check names the
    offender that comparing compose(zeta, psi) with compose(psi, tau^k) does."""
    base = _SAMPLE_BASES[name]
    letters = st.integers(0, base.alphabet.size - 1)
    period = Word(base.alphabet, tuple(data.draw(st.lists(letters, min_size=1, max_size=8))))
    pres = build_periodic_presentation(period, base)
    tamper, hand = _tampered(pres, data, ("none", "zeta", "psi"))
    assert hand.structural_checks[0] == _intertwining_by_composition(hand)


def test_intertwining_check_keeps_the_alphabet_guards(fib):
    """psi into another alphabet than zeta's, or out of another than the
    base's, is refused as compose refuses it."""
    pres = build_periodic_presentation(TARGET.word("ab"), fib)
    other = Alphabet(tuple(f"x{i}" for i in range(pres.product_alphabet.size)))
    into_other = Morphism(
        fib.alphabet, other, tuple(Word(other, w.letters) for w in pres.psi.images)
    )
    wider = Alphabet(("a", "b", "c"))
    out_of_other = Morphism(wider, pres.product_alphabet, pres.psi.images + pres.psi.images[:1])
    for psi in (into_other, out_of_other):
        hand = PeriodicPresentation(pres.period, pres.exponent, fib, pres.zeta, psi, pres.coding)
        with pytest.raises(ValueError, match="composition alphabet mismatch"):
            hand.structural_checks


def test_a_periodic_build_computes_each_power_length_row_once(monkeypatch):
    """The build reads the image lengths of tau .. tau^(e+p), and power(tau, k)
    reads those of tau .. tau^k, k <= e + p, for its cap check: both reads
    hand out the rows of one table kept on tau, e + p rows in all."""
    tau = substitution_from_strings("0 1", {"0": "01", "1": "0"}, "0")
    period = TARGET.word("abba")
    real = retword.substitution.power_lengths
    reads = []

    def counted(s, n):
        reads.append(real(s, n))
        return reads[-1]

    for module in (retword.periodic, retword.substitution):
        monkeypatch.setattr(module, "power_lengths", counted)
    pres = build_periodic_presentation(period, tau)
    e = is_primitive(tau.matrix())[1]
    assert [len(rows) for rows in reads] == [e + len(period), pres.exponent]
    assert len({id(row) for rows in reads for row in rows}) == e + len(period)
