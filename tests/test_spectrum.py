import contextlib
import importlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from retword.cli import _enclosure, run_command
from retword.intpoly import (
    IntPolynomial,
    LargestRootBisection,
    RootEnclosure,
    SturmCounter,
    cyclotomic,
    euler_phi,
    isolate_largest_real_root,
    poly_gcd,
    rational_roots,
)
from retword.periodic import PeriodicPresentation, build_periodic_presentation
from retword.returns import return_substitution
from retword.relations import power_coincidence
from retword.spectrum import (
    DEFAULT_PRECISION,
    Spectrum,
    _berkowitz,
    _certify_equal_largest_roots,
    _lumped,
    _nonzero_part,
    _strip_cyclotomics,
    char_poly,
    certify_equal_dominant,
    dominant_eigenvalue,
    exponent_pairs,
    mult_dependent,
    power_char_poly,
    spectra_equal_mod_trivial,
    spectrum,
    spectrum_of_poly,
    strip_trivial,
    strip_trivial_poly,
)
from retword.substitution import (
    IncidenceMatrix,
    Morphism,
    Substitution,
    identity_matrix,
    is_primitive,
    parse_substitution,
    power,
)
from retword.words import Alphabet, Word
from spectral_oracle import (
    divisor_rational_roots,
    fraction_certify_equal_dominant,
    fraction_isolate,
    minor_expansion_char_poly,
    same_nonzero_root_sets,
)
from test_substitution import primitive_substitutions

P = IntPolynomial

square_matrices = st.integers(0, 7).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 6), min_size=n, max_size=n), min_size=n, max_size=n)
).map(IncidenceMatrix)


def test_char_poly_quad_tau(quad_pair):
    tau, _, _ = quad_pair
    p = char_poly(tau.matrix())
    assert p == P((4, -5, 1))  # (x-1)(x-4)
    assert p == P((-1, 1)) * P((-4, 1))


def test_char_poly_quad_sigma(quad_pair):
    _, sigma, _ = quad_pair
    p = char_poly(sigma.matrix())
    assert p == P((8, -6, -3, 1))
    assert p == P((-1, 1)) * P((2, 1)) * P((-4, 1))


def test_char_poly_identity():
    assert char_poly(identity_matrix(2)) == P((-1, 1)) * P((-1, 1))


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly(IncidenceMatrix(((1, 2, 3),)))


def test_char_poly_against_random_trace_and_det():
    """Oracle: for 2x2 and 3x3, expand det(xI - M) by hand formulas."""
    rng = random.Random(41)
    for _ in range(100):
        a, b, c, d = (rng.randint(0, 6) for _ in range(4))
        m = IncidenceMatrix(((a, b), (c, d)))
        assert char_poly(m) == P((a * d - b * c, -(a + d), 1))
    for _ in range(50):
        e = [[rng.randint(0, 4) for _ in range(3)] for _ in range(3)]
        m = IncidenceMatrix(e)
        det = (
            e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
        )
        trace = e[0][0] + e[1][1] + e[2][2]
        minors = (
            e[1][1] * e[2][2] - e[1][2] * e[2][1]
            + e[0][0] * e[2][2] - e[0][2] * e[2][0]
            + e[0][0] * e[1][1] - e[0][1] * e[1][0]
        )
        assert char_poly(m) == P((-det, minors, -trace, 1))


@settings(max_examples=300, deadline=None)
@given(square_matrices)
def test_char_poly_matches_minor_expansion(m):
    assert char_poly(m) == minor_expansion_char_poly(m)


def _with_repeated_columns(columns_and_labels) -> IncidenceMatrix:
    """Column j of the matrix is ``columns[labels[j] % len(columns)]``."""
    columns, labels = columns_and_labels
    return IncidenceMatrix(zip(*(columns[label % len(columns)] for label in labels)))


lumpable_matrices = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-3, 6), min_size=n, max_size=n), min_size=1, max_size=n),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    )
).map(_with_repeated_columns)


@settings(max_examples=300, deadline=None)
@given(lumpable_matrices)
def test_lumped_char_poly_matches_minor_expansion(m):
    assert char_poly(m) == minor_expansion_char_poly(m)
    lumped, dropped = _lumped(m.rows)
    assert len(lumped) + dropped == m.nrows
    assert len(set(zip(*lumped))) == len(lumped)


@settings(max_examples=40, deadline=None)
@given(lumpable_matrices)
def test_lumped_char_poly_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    want = [int(c) for c in reversed(sympy.Matrix(m.rows).charpoly().all_coeffs())]
    assert char_poly(m) == P(want)


@pytest.mark.parametrize(
    "rows, want, dropped",
    [
        (((2, 2, 2),) * 3, P((0, 0, -6, 1)), 2),  # all columns equal
        (((-1, -1), (3, 3)), P((0, -2, 1)), 1),
        (((0, 0), (0, 0)), P((0, 0, 1)), 1),
        # N P has two equal columns again, so lumping takes two rounds
        (((0, 0, 1), (2, 2, 1), (0, 0, 0)), P((0, 0, -2, 1)), 2),
    ],
)
def test_lumped_char_poly_on_degenerate_columns(rows, want, dropped):
    m = IncidenceMatrix(rows)
    assert char_poly(m) == want == minor_expansion_char_poly(m)
    assert _lumped(m.rows)[1] == dropped


def _sample_presentations():
    samples = Path(__file__).resolve().parents[1] / "samples"
    for path in sorted(samples.glob("*.sub")):
        base, _ = parse_substitution(path.read_text(encoding="utf-8"))
        rng = random.Random(path.name)
        for p in range(1, 9):
            period = Word(base.alphabet, tuple(rng.randrange(base.alphabet.size) for _ in range(p)))
            yield path.name, build_periodic_presentation(period, base)


def test_lumped_char_poly_on_every_sample_periodic_product():
    """char_poly(M_zeta) = x^(n(p-1)) char_poly(M_rho) for every sample and
    periods of 1-8 letters, checked against Berkowitz on the whole product
    matrix, the kernel that lumping replaces; sympy, when installed, on
    periods up to 3."""
    try:
        import sympy
    except ImportError:
        sympy = None
    for name, pres in _sample_presentations():
        zeta = pres.zeta.matrix()
        n, p = pres.base.alphabet.size, len(pres.period)
        got = char_poly(zeta)
        assert got == P(_berkowitz(zeta.rows)[::-1]), name
        rho = power(pres.base, pres.exponent).matrix()
        assert got == P((0,) * (n * (p - 1)) + char_poly(rho).coeffs), name
        # the product has at most 2n distinct columns
        assert len(_lumped(zeta.rows)[0]) <= 2 * n
        if sympy is not None and p <= 3:
            want = [int(c) for c in reversed(sympy.Matrix(zeta.rows).charpoly().all_coeffs())]
            assert got == P(want), name


@pytest.mark.parametrize("n", [12, 16, 24, 40])
def test_char_poly_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(n)
    rows = [[rng.choice((0, 0, 0, 1, 1, 2, 5)) for _ in range(n)] for _ in range(n)]
    want = [int(c) for c in reversed(sympy.Matrix(rows).charpoly().all_coeffs())]
    assert char_poly(IncidenceMatrix(rows)) == P(want)


def test_dominant_quad_exact(quad_pair):
    tau, sigma, _ = quad_pair
    for sub in (tau, sigma):
        enc = dominant_eigenvalue(sub.matrix())
        assert enc.exact and enc.lo == 4


def test_dominant_fibonacci_enclosure(fib):
    enc = isolate_largest_real_root(char_poly(fib.matrix()), Fraction(1, 10**9))
    assert not enc.exact
    assert enc.width <= Fraction(1, 10**9)
    golden = Fraction(16180339887, 10**10)
    assert enc.lo < golden + Fraction(1, 10**9)
    assert enc.hi > golden - Fraction(1, 10**9)


def test_dominant_zero_matrix():
    enc = dominant_eigenvalue(IncidenceMatrix(((0, 0), (0, 0))))
    assert enc.exact and enc.lo == 0


def test_dominant_simple_root_for_primitive(corpus):
    for sub in corpus.values():
        p = char_poly(sub.matrix())
        enc = dominant_eigenvalue(sub.matrix())
        counter = SturmCounter(p)
        if enc.exact:
            assert p(enc.lo) == 0
            d = p.derivative()
            assert d(enc.lo) != 0
        else:
            assert counter.count(enc.lo, enc.hi) == 1
            g = poly_gcd(p, p.derivative())
            if g.degree >= 1:
                assert SturmCounter(g).count(enc.lo, enc.hi) == 0


def test_strip_trivial_morse(morse):
    s = spectrum(morse.matrix())
    assert s.char_poly == P((0, -2, 1))
    stripped = strip_trivial(s)
    assert stripped.char_poly == P((-2, 1))


def test_strip_trivial_morse_011(morse):
    _, m011 = return_substitution(morse, morse.alphabet.word("011"))
    s = spectrum(m011.matrix())
    assert s.char_poly == P((0, 0, -2, -1, 1))  # x^2 (x+1) (x-2)
    stripped = strip_trivial(s)
    assert stripped.char_poly == P((-2, 1))


def test_strip_trivial_identity_empty():
    s = spectrum(identity_matrix(3))
    stripped = strip_trivial(s)
    assert stripped.char_poly.degree == 0
    assert stripped.exact_roots == ()
    assert stripped.dominant is None


def test_strip_trivial_idempotent(corpus, morse):
    mats = [sub.matrix() for sub in corpus.values()]
    mats.append(return_substitution(morse, morse.alphabet.word("011"))[1].matrix())
    for m in mats:
        once = strip_trivial_poly(char_poly(m))
        twice = strip_trivial_poly(once) if not once.is_zero else once
        assert once == twice


def test_spectra_equal_morse_pair(morse):
    _, m011 = return_substitution(morse, morse.alphabet.word("011"))
    assert spectra_equal_mod_trivial(morse.matrix(), m011.matrix())


def test_spectra_not_equal_fib_vs_square(fib):
    m = fib.matrix()
    assert not spectra_equal_mod_trivial(m, m @ m)


def test_spectra_equal_reflexive(corpus):
    for sub in corpus.values():
        assert spectra_equal_mod_trivial(sub.matrix(), sub.matrix())


def test_char_poly_power_root_transfer(corpus):
    """Roots of char(M^k) are k-th powers of roots of char(M)."""
    for sub in corpus.values():
        m = sub.matrix()
        base = spectrum(m)
        for k in range(1, 5):
            powered = spectrum(m**k)
            p_k = powered.char_poly
            for r, _ in base.exact_roots:
                assert p_k(r**k) == 0
            assert power_char_poly(base.char_poly, k) == p_k


spectral_matrices = st.one_of(
    square_matrices,
    # repeated eigenvalues
    square_matrices.map(lambda a: _block(a, a)),
    # a zero eigenvalue at least
    square_matrices.filter(lambda a: a.nrows > 0).map(
        lambda a: IncidenceMatrix(row[:-1] + (0,) for row in a.rows)
    ),
)


@settings(max_examples=200, deadline=None)
@given(spectral_matrices, st.integers(1, 6))
def test_power_char_poly_matches_char_poly_of_power(m, k):
    assert power_char_poly(char_poly(m), k) == char_poly(m**k)


def test_power_char_poly_matches_sympy_resultant():
    """Oracle: res_y(p(y), x - y^m) is, up to sign, the monic polynomial of
    the m-th powers."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    rng = random.Random(71)
    cases = [P((0, 0, 1)), P((1, 2, 1)), P((-1, 0, 0, 0, 1)), cyclotomic(12), P((5, -3, 0, 1))]
    cases += [P(tuple(rng.randint(-5, 5) for _ in range(rng.randint(0, 6))) + (1,)) for _ in range(20)]
    for p in cases:
        p_y = sum(c * y**i for i, c in enumerate(p.coeffs))
        for k in range(1, 7):
            res = sympy.Poly(sympy.resultant(p_y, x - y**k, y), x).monic()
            assert power_char_poly(p, k) == P(int(c) for c in reversed(res.all_coeffs()))


def test_power_char_poly_rejects_bad_input():
    with pytest.raises(ValueError):
        power_char_poly(P((1, 2)), 2)  # not monic
    with pytest.raises(ValueError):
        power_char_poly(P((1, 1)), 0)
    assert power_char_poly(P((1,)), 3) == P((1,))


def test_dominant_power_consistency(corpus):
    for sub in corpus.values():
        enc = isolate_largest_real_root(char_poly(sub.matrix()), Fraction(1, 10**12))
        for k in range(2, 5):
            enc_k = isolate_largest_real_root(char_poly(sub.matrix() ** k), Fraction(1, 10**6))
            powered = enc.powered(k)
            assert max(powered.lo, enc_k.lo) <= min(powered.hi, enc_k.hi)


def test_spectrum_reconstruction_invariant(corpus, morse):
    for sub in corpus.values():
        s = spectrum(sub.matrix())
        product = P((1,))
        for r, mult in s.exact_roots:
            for _ in range(mult):
                product = product * P((-r.numerator, r.denominator))
        assert product * s.residual_factor == s.char_poly


def test_mult_dependent_quad_pair(quad_pair):
    tau, sigma, _ = quad_pair
    w = mult_dependent(tau.matrix(), sigma.matrix(), 12)
    assert w is not None
    assert (w.m, w.n) == (1, 1)
    assert w.certified
    assert w.exact_value == 4
    assert w.common_factor.degree >= 1


def test_mult_dependent_matrix_powers(fib):
    m = fib.matrix()
    w = mult_dependent(m, m @ m, 12)
    assert w is not None and (w.m, w.n) == (2, 1)
    assert w.certified


def test_mult_dependent_absent_two_vs_three(morse, const3):
    # oracle: 2**m never equals 3**n for positive exponents <= 12
    assert all(2**m != 3**n for m in range(1, 13) for n in range(1, 13))
    w = mult_dependent(morse.matrix(), const3.matrix(), 12)
    assert w is None


def test_mult_dependent_symmetric(quad_pair, fib):
    tau, sigma, _ = quad_pair
    a = mult_dependent(tau.matrix(), sigma.matrix(), 6)
    b = mult_dependent(sigma.matrix(), tau.matrix(), 6)
    assert (a.m, a.n) == (b.n, b.m)
    m = fib.matrix()
    a = mult_dependent(m, m @ m, 6)
    b = mult_dependent(m @ m, m, 6)
    assert (a.m, a.n) == (b.n, b.m)


def test_mult_dependent_rejects_non_primitive(fib):
    with pytest.raises(ValueError):
        mult_dependent(identity_matrix(2), fib.matrix(), 4)


def test_exponent_pairs_walk_in_sum_then_m_order():
    for bound in range(1, 7):
        order = sorted(
            ((m, n) for m in range(1, bound + 1) for n in range(1, bound + 1)),
            key=lambda mn: (mn[0] + mn[1], mn[0]),
        )
        assert list(exponent_pairs(bound)) == order


def test_dependence_and_coincidence_form_no_matrix_power(monkeypatch, fib, quad_pair):
    def refused(self, n):
        raise AssertionError("a matrix power was formed")

    m = fib.matrix()
    monkeypatch.setattr(IncidenceMatrix, "__pow__", refused)
    tau, sigma, _ = quad_pair
    w = mult_dependent(tau.matrix(), sigma.matrix(), 12)
    assert (w.m, w.n, w.exact_value) == (1, 1, 4)
    w = mult_dependent(m, m @ m, 12)
    assert (w.m, w.n) == (2, 1) and w.exact_value is None
    assert power_coincidence(fib, power(fib, 2), 6) == (2, 1)


def test_cobham_computes_each_characteristic_polynomial_once(monkeypatch):
    """The dominant eigenvalue, the dependence search and the certified pair
    (1, 1) share one characteristic polynomial per side, kept on the matrix,
    and the report and the search read one dominant enclosure per side."""
    spectrum_module = sys.modules["retword.spectrum"]
    calls, isolated = [], []
    bisection_init = LargestRootBisection.__init__

    def counted(matrix):
        calls.append(matrix.rows)
        return char_poly(matrix)

    def counted_bisection(self, counter):
        isolated.append(counter.poly)
        bisection_init(self, counter)

    monkeypatch.setattr(spectrum_module, "char_poly", counted)
    monkeypatch.setattr(LargestRootBisection, "__init__", counted_bisection)
    samples = Path(__file__).resolve().parents[1] / "samples"
    argv = ["cobham", "--left", str(samples / "tau4.sub"), "--right", str(samples / "sigma4.sub")]
    with contextlib.redirect_stdout(io.StringIO()):
        status, report = run_command(argv + ["--coding-right", "phi", "--json"])
    assert status == 0
    found = [c for c in report.payload["checks"] if c["name"] == "multiplicative-dependence"]
    assert found[0]["witness"]["m"] == found[0]["witness"]["n"] == 1
    assert len(calls) == 2
    assert len(set(calls)) == 2
    assert len(isolated) == 2
    assert len(set(isolated)) == 2


def test_matrix_first_power_is_the_matrix(fib):
    m = fib.matrix()
    assert m**1 is m
    assert m**2 == m @ m and m**0 == identity_matrix(2)


def test_certify_equal_dominant_irrational(fib):
    m = fib.matrix()
    assert certify_equal_dominant(m @ m, m @ m) is True
    assert certify_equal_dominant(m, m @ m) is False
    p1, p2 = char_poly(m), char_poly(m @ m)
    assert _certify_equal_largest_roots(p2, p2, DEFAULT_PRECISION) is not None
    assert _certify_equal_largest_roots(p1, p2, DEFAULT_PRECISION) is None


def test_certify_equal_dominant_one_char_poly_per_matrix(monkeypatch):
    spectrum_module = sys.modules["retword.spectrum"]
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return char_poly(matrix)

    monkeypatch.setattr(spectrum_module, "char_poly", counted)
    fib = IncidenceMatrix(((1, 1), (1, 0)))
    trib = IncidenceMatrix(((1, 1, 1), (1, 0, 0), (0, 1, 0)))
    fib_and_one = IncidenceMatrix(((1, 1, 0), (1, 0, 0), (0, 0, 1)))
    kept = spectrum_module._matrix_char_poly
    # width-1 enclosures of the two dominants overlap, and the constant gcd
    # tells them apart
    assert _certify_equal_largest_roots(kept(fib), kept(trib), Fraction(1)) is None
    assert calls == [fib, trib]
    calls.clear()
    g, meet = _certify_equal_largest_roots(kept(fib_and_one), kept(fib), Fraction(1))
    assert g == P((-1, -1, 1)) and meet.lo < Fraction(1618034, 10**6) < meet.hi
    # fib's polynomial is kept on the matrix since the first comparison
    assert calls == [fib_and_one]


def test_certify_equal_largest_roots_answers_a_constant_gcd_at_once(monkeypatch):
    """x^2 - x - 1 and x^3 - x^2 - x - 1 have a constant gcd: their width-1
    enclosures overlap, yet each bisection narrows once and no refinement
    round runs."""
    calls = []
    narrow = LargestRootBisection.narrow

    def counted(self, width):
        calls.append(width)
        return narrow(self, width)

    monkeypatch.setattr(LargestRootBisection, "narrow", counted)
    fib, trib = P((-1, -1, 1)), P((-1, -1, -1, 1))
    assert _certify_equal_largest_roots(fib, trib, Fraction(1)) is None
    assert calls == [Fraction(1), Fraction(1)]


def _certificate(m1, m2, precision):
    cert = _certify_equal_largest_roots(char_poly(m1), char_poly(m2), precision)
    if cert is None:
        return None
    g, enc = cert
    return g, (enc.lo, enc.hi, enc.exact)


nonnegative_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)
).map(IncidenceMatrix)


@settings(max_examples=60, deadline=None)
@given(
    a=nonnegative_matrices,
    b=nonnegative_matrices,
    precision=st.sampled_from((Fraction(1, 10**9), Fraction(1, 10), Fraction(1))),
)
def test_certify_equal_dominant_matches_reisolating_oracle(a, b, precision):
    # pairs with distinct dominants, and pairs sharing one through a block
    for m1, m2 in ((a, b), (_block(a, b), a), (b, _block(a, b)), (a @ a, a @ a)):
        want = fraction_certify_equal_dominant(char_poly(m1), char_poly(m2), precision)
        assert _certificate(m1, m2, precision) == want


def test_certify_equal_dominant_matches_oracle_on_presentations(fib, morse, trib):
    for base, period in ((fib, (0, 1)), (fib, (0, 0, 1)), (morse, (0, 1, 1, 0)), (trib, (0, 2))):
        pres = build_periodic_presentation(Word(base.alphabet, period), base)
        m1, m2 = pres.zeta.matrix(), base.matrix() ** pres.exponent
        want = fraction_certify_equal_dominant(char_poly(m1), char_poly(m2), Fraction(1, 10**9))
        assert want is not None
        assert _certificate(m1, m2, Fraction(1, 10**9)) == want


def test_certify_equal_dominant_one_squarefree_part_per_polynomial(monkeypatch, fib):
    pres = build_periodic_presentation(Word(fib.alphabet, (0, 0, 1)), fib)
    fib_m = IncidenceMatrix(((1, 1), (1, 0)))
    fib_and_one = IncidenceMatrix(((1, 1, 0), (1, 0, 0), (0, 0, 1)))
    fib_and_zero = IncidenceMatrix(((1, 1, 0), (1, 0, 0), (0, 0, 0)))
    trib_and_one = IncidenceMatrix(((1, 1, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)))
    pairs = [
        (fib_and_one, fib_and_zero, 3),  # the gcd is a third polynomial
        (fib_and_one, fib_m, 2),  # the gcd is the second polynomial
        # zeta's polynomial is x^(|A|(p-1)) times M^k's: the lower-degree one
        # alone is isolated, and no gcd is formed
        (pres.zeta.matrix(), fib.matrix() ** pres.exponent, 1),
        # distinct dominants with a common factor x - 1: width-1 enclosures
        # overlap, so the refinement loop narrows both bisections
        (fib_and_one, trib_and_one, 3),
    ]
    calls = []
    squarefree_part = P.squarefree_part

    def counted(self):
        calls.append(self)
        return squarefree_part(self)

    monkeypatch.setattr(P, "squarefree_part", counted)
    for m1, m2, distinct in pairs:
        calls.clear()
        cert = _certify_equal_largest_roots(char_poly(m1), char_poly(m2), Fraction(1))
        assert len(calls) == len(set(calls)) == distinct
        p1, p2 = char_poly(m1), char_poly(m2)
        want = {p2} if distinct == 1 else {p1, p2, poly_gcd(p1, p2)}
        assert set(calls) == want
        assert (cert is None) == (m2 is trib_and_one)


def test_same_nonzero_root_sets():
    a = P((0, -2, 1))  # x(x-2)
    b = P((-2, 1))  # x-2
    assert same_nonzero_root_sets(a, b)
    assert not same_nonzero_root_sets(a, P((-3, 1)))


def _companion(p: P) -> IncidenceMatrix:
    d = p.degree
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -p.coeffs[i]
    return IncidenceMatrix(rows)


def _block(*mats: IncidenceMatrix) -> IncidenceMatrix:
    n = sum(m.nrows for m in mats)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for m in mats:
        for i in range(m.nrows):
            for j in range(m.ncols):
                rows[offset + i][offset + j] = m.rows[i][j]
        offset += m.nrows
    return IncidenceMatrix(rows)


def test_strip_handles_higher_cyclotomic_orders():
    """A 9x9 matrix carrying 12th and 5th roots of unity strips down to x - 3."""
    from retword.intpoly import cyclotomic

    m = _block(_companion(P((-3, 1))), _companion(cyclotomic(12)), _companion(cyclotomic(5)))
    assert strip_trivial_poly(char_poly(m)) == P((-3, 1))
    assert spectra_equal_mod_trivial(m, IncidenceMatrix(((3,),)))


def test_mult_dependent_irrational_certification_path(fib):
    """Different matrices sharing the golden-ratio dominant certify at (1, 1)
    through the gcd route, with no exact rational value available."""
    a = fib.matrix()
    b = IncidenceMatrix(((0, 1), (1, 1)))
    w = mult_dependent(a, b, 8)
    assert w is not None and (w.m, w.n) == (1, 1)
    assert w.certified
    assert w.exact_value is None
    assert w.common_factor.squarefree_part() == P((-1, -1, 1))


def test_mult_dependent_absent_fib_vs_trib(fib, trib):
    assert mult_dependent(fib.matrix(), trib.matrix(), 10) is None
    assert certify_equal_dominant(fib.matrix(), trib.matrix()) is False
    p1, p2 = char_poly(fib.matrix()), char_poly(trib.matrix())
    assert _certify_equal_largest_roots(p1, p2, DEFAULT_PRECISION) is None


def test_strip_trivial_random_products():
    """Oracle: assemble char-poly-like products with known trivial parts and
    check the stripper removes exactly those."""
    from retword.intpoly import cyclotomic

    rng = random.Random(59)
    nontrivial_pool = [
        P((-2, 1)),  # x - 2
        P((-3, 1)),  # x - 3
        P((-1, -1, 1)),  # golden pair
        P((-1, -1, 0, 1)),  # x^3 - x - 1 (plastic number, no unit roots)
        P((-2, 0, 1)),  # x^2 - 2
    ]
    for _ in range(60):
        expected = P((1,))
        for q in rng.sample(nontrivial_pool, rng.randrange(1, 3)):
            expected = expected * q
        full = expected * P((0, 1)) ** rng.randrange(0, 3)
        for d in rng.sample(range(1, 13), rng.randrange(0, 4)):
            full = full * cyclotomic(d) ** rng.randrange(1, 3)
        stripped = strip_trivial_poly(full)
        assert stripped == expected.primitive() or stripped == expected


def test_mult_dependent_witness_sound_at_high_precision():
    """Any returned witness must keep its powered enclosures overlapping when
    the dominant roots are isolated two hundred decimal digits tight."""
    cases = [
        (IncidenceMatrix(((1, 1), (1, 0))), IncidenceMatrix(((2, 1), (1, 1)))),
        (IncidenceMatrix(((1, 1), (1, 0))), IncidenceMatrix(((0, 1), (1, 1)))),
    ]
    tight = Fraction(1, 10**200)
    for m1, m2 in cases:
        w = mult_dependent(m1, m2, 6)
        assert w is not None
        e1 = isolate_largest_real_root(char_poly(m1), tight).powered(w.m)
        e2 = isolate_largest_real_root(char_poly(m2), tight).powered(w.n)
        assert max(e1.lo, e2.lo) <= min(e1.hi, e2.hi)


def _nilpotent(size: int) -> IncidenceMatrix:
    """Ones above the diagonal, so every eigenvalue is 0."""
    return IncidenceMatrix([[int(j > i) for j in range(size)] for i in range(size)])


@settings(max_examples=40, deadline=None)
@given(primitive_substitutions(), st.integers(1, 3), st.integers(1, 3), st.data())
def test_certify_identity_pairs_match_reisolating_oracle(sub, a, b, data):
    """Pairs whose polynomials differ only by a power of x take the
    one-isolation path; their certificates are the oracle's, enclosures included."""
    precision = Fraction(1, 10**9)
    m = sub.matrix()
    p = char_poly(m)
    # (M^a, M^b) at the least dependence witness, where a m = b n
    w = mult_dependent(m**a, m**b, 3)
    assert w is not None and a * w.m == b * w.n
    want = fraction_certify_equal_dominant(
        power_char_poly(p, a * w.m), power_char_poly(p, b * w.n), precision
    )
    assert (w.common_factor, tuple(w.enclosure)) == want
    # M against M plus a nilpotent block: the polynomials differ by x^size
    size = data.draw(st.integers(1, 3))
    big = _block(m, _nilpotent(size))
    assert char_poly(big) == p * P((0, 1)) ** size
    for m1, m2 in ((m, big), (big, m)):
        want = fraction_certify_equal_dominant(char_poly(m1), char_poly(m2), precision)
        assert want is not None
        assert _certificate(m1, m2, precision) == want
    # zeta against M^k: Sylvester's identity
    letters = data.draw(st.lists(st.integers(0, sub.alphabet.size - 1), min_size=1, max_size=3))
    pres = build_periodic_presentation(Word(sub.alphabet, tuple(letters)), sub)
    zeta, mk = pres.zeta.matrix(), m**pres.exponent
    assert char_poly(zeta) == char_poly(mk) * P((0, 1)) ** (sub.alphabet.size * (len(letters) - 1))
    want = fraction_certify_equal_dominant(char_poly(zeta), char_poly(mk), precision)
    assert want is not None
    assert _certificate(zeta, mk, precision) == want


def test_certify_equal_largest_roots_guards_take_the_general_path(monkeypatch):
    """Equal non-zero parts whose largest root is not positive: the general
    path runs, building a chain for each polynomial, and answers as the oracle."""
    x = P((0, 1))
    precision = Fraction(1, 10**9)
    cases = [
        (x * P((1, 1)), P((1, 1)), None),  # largest roots 0 and -1
        (x * P((1, 0, 1)), x**2 * P((1, 0, 1)), x * P((1, 0, 1))),  # q has no real root
        (x * P((2, 1)), x**2 * P((2, 1)), x * P((2, 1))),  # both largest roots 0
    ]
    calls = []
    squarefree_part = P.squarefree_part

    def counted(self):
        calls.append(self)
        return squarefree_part(self)

    monkeypatch.setattr(P, "squarefree_part", counted)
    for p1, p2, common in cases:
        calls.clear()
        cert = _certify_equal_largest_roots(p1, p2, precision)
        assert {p1, p2} <= set(calls)
        got = None if cert is None else (cert[0], tuple(cert[1]))
        assert got == fraction_certify_equal_dominant(p1, p2, precision)
        assert (cert is None) == (common is None)
        if cert is not None:
            assert cert[0] == common and cert[1] == RootEnclosure(0, 0, True)
    # with no zero root, the lower-degree polynomial has no real root at all:
    # refused as the general path refuses it
    with pytest.raises(ValueError, match="no real root"):
        _certify_equal_largest_roots(P((1, 0, 1)), x * P((1, 0, 1)), precision)


@settings(max_examples=60, deadline=None)
@given(
    a=nonnegative_matrices,
    b=nonnegative_matrices,
    i=st.integers(1, 3),
    j=st.integers(1, 3),
)
def test_spectra_equal_mod_trivial_matches_strip_path(a, b, i, j):
    def strip_path(m1, m2, i, j):
        s1 = strip_trivial_poly(power_char_poly(char_poly(m1), i)).squarefree_part()
        s2 = strip_trivial_poly(power_char_poly(char_poly(m2), j)).squarefree_part()
        return s1 == s2

    big = _block(a, _nilpotent(2))
    # identity pairs (equal non-zero parts), then pairs that are not
    pairs = ((a, big, i, i), (big, a, j, j), (a @ a, a, i, 2 * i), (a, b, i, j), (a, a, i, j))
    for m1, m2, e1, e2 in pairs:
        assert spectra_equal_mod_trivial(m1, m2, e1, e2) == strip_path(m1, m2, e1, e2)


def test_certify_equal_dominant_refuses_before_any_polynomial():
    negative = IncidenceMatrix(((1, -1), (1, 0)))
    fresh = IncidenceMatrix(((1, 1), (1, 0)))
    for m1, m2 in ((fresh, negative), (negative, fresh)):
        with pytest.raises(ValueError, match="non-negative"):
            certify_equal_dominant(m1, m2)
    assert negative._char_poly is None and fresh._char_poly is None


def test_build_periodic_presentation_forms_no_gcd_on_samples(monkeypatch):
    # the package re-exports the function spectrum, which shadows the module
    spectrum_module = importlib.import_module("retword.spectrum")

    def refused(*args):
        raise AssertionError("a gcd was formed")

    monkeypatch.setattr(spectrum_module, "poly_gcd", refused)
    samples = sorted((Path(__file__).resolve().parents[1] / "samples").glob("*.sub"))
    assert len(samples) == 6
    for path in samples:
        sub, _ = parse_substitution(path.read_text(encoding="utf-8"))
        pres = build_periodic_presentation(Word(sub.alphabet, (0, 1)), sub)
        assert all(c.passed for c in pres.structural_checks)


def test_mult_dependent_powers_each_enclosure_once(monkeypatch, fib, trib):
    calls = []
    powered = RootEnclosure.powered

    def counted(self, m):
        calls.append(m)
        return powered(self, m)

    monkeypatch.setattr(RootEnclosure, "powered", counted)
    # an absent search walks 24 * 24 pairs and powers each enclosure 24 times
    assert mult_dependent(fib.matrix(), trib.matrix(), 24) is None
    assert sorted(calls) == sorted(list(range(1, 25)) * 2)
    # an early witness powers only what its walk reached: (1, 1), (1, 2), (2, 1)
    calls.clear()
    w = mult_dependent(fib.matrix(), fib.matrix() ** 2, 24)
    assert (w.m, w.n) == (2, 1)
    assert sorted(calls) == [1, 1, 2, 2]


def test_cobham_of_a_sample_against_itself_forms_no_gcd(monkeypatch):
    """Each sample against itself meets at (1, 1) on two equal polynomials,
    whose common factor is read off with no gcd, rational dominants included."""
    spectrum_module = importlib.import_module("retword.spectrum")

    def refused(*args):
        raise AssertionError("a gcd was formed")

    monkeypatch.setattr(spectrum_module, "poly_gcd", refused)
    samples = sorted((Path(__file__).resolve().parents[1] / "samples").glob("*.sub"))
    assert len(samples) == 6
    for path in samples:
        with contextlib.redirect_stdout(io.StringIO()):
            status, report = run_command(["cobham", "--left", str(path), "--right", str(path), "--json"])
        assert status == 0
        found = [c for c in report.payload["checks"] if c["name"] == "multiplicative-dependence"]
        assert found[0]["outcome"] == "found"
        assert found[0]["witness"]["m"] == found[0]["witness"]["n"] == 1


@st.composite
def constant_length_substitutions(draw):
    """Primitive substitutions on 2-3 letters whose images all have 2, 3 or 4
    letters, so that the dominant eigenvalue is that length."""
    k = draw(st.integers(2, 3))
    length = draw(st.integers(2, 4))
    images = [draw(st.lists(st.integers(0, k - 1), min_size=length, max_size=length)) for _ in range(k)]
    images[0][0] = 0  # the start letter's image begins with it
    alphabet = Alphabet("abc"[:k])
    sub = Substitution(Morphism(alphabet, alphabet, tuple(Word(alphabet, tuple(im)) for im in images)), 0)
    assume(is_primitive(sub.matrix())[0])
    return sub


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(constant_length_substitutions(), constant_length_substitutions()).map(
            lambda pair: (pair[0].matrix(), pair[1].matrix())
        ),
        st.tuples(primitive_substitutions(), st.integers(1, 3), st.integers(1, 3)).map(
            lambda t: (t[0].matrix() ** t[1], t[0].matrix() ** t[2])
        ),
    )
)
def test_mult_dependent_common_factor_is_the_gcd(pair):
    """The witness's common factor is the gcd of the two powers' polynomials,
    on every branch: exact meets, the one-isolation path and the general path."""
    m1, m2 = pair
    w = mult_dependent(m1, m2, 4)
    if w is not None:
        q1 = power_char_poly(char_poly(m1), w.m)
        q2 = power_char_poly(char_poly(m2), w.n)
        assert w.common_factor == poly_gcd(q1, q2)


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _separate_spectrum(p: P) -> Spectrum:
    """The spectrum from ``rational_roots`` and ``isolate_largest_real_root``,
    each building its own chain."""
    roots, residual = rational_roots(p)
    dominant = isolate_largest_real_root(p, DEFAULT_PRECISION) if p.degree >= 1 else None
    return Spectrum(p, dominant, tuple(roots), residual)


@st.composite
def spectral_polynomials(draw):
    """Integer polynomials with zero roots, rational roots, a random cofactor
    and any leading coefficient: constants, non-monic ones and ones whose
    non-zero part has only negative roots, such as x^2 (x + 2), included."""
    p = P((0, 1)) ** draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["random", "negative", "constant"]))
    if kind == "negative":
        for r in draw(st.lists(st.integers(1, 6), max_size=3)):
            p = p * P((r, 1))
        if draw(st.booleans()):
            p = p * P((1, 0, 1))  # x^2 + 1, no real root
    elif kind == "random":
        roots = draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3), max_size=3))
        for r in roots:
            p = p * P((-r.numerator, r.denominator))
        p = p * P(draw(st.lists(st.integers(-5, 5), max_size=3)) + [1])
    lead = draw(st.sampled_from([1, 1, 1, -1, 2, 3, -4]))
    return p * lead


@settings(max_examples=300, deadline=None)
@given(spectral_polynomials())
def test_spectrum_of_poly_matches_separate_searches(p):
    """One chain on the non-zero part gives the rational roots and the
    dominant enclosure that separate chains give, and the oracles' answers."""
    got = _outcome(spectrum_of_poly, p)
    assert got == _outcome(_separate_spectrum, p)
    if isinstance(got, Spectrum):
        assert list(got.exact_roots) == divisor_rational_roots(p)
        if p.degree >= 1:
            assert tuple(got.dominant) == fraction_isolate(p, DEFAULT_PRECISION)


def test_spectrum_of_poly_falls_back_when_the_nonzero_part_has_no_root_above_zero():
    x = P((0, 1))
    for p, dominant in (
        (x**2 * P((2, 1)), 0),  # x^2 (x + 2)
        (x * P((1, 0, 1)), 0),  # x (x^2 + 1): the non-zero part has no real root
        (P((2, 1)), -2),  # no zero root: the non-zero part's enclosure serves
        (P((-6, -1, 1)) * 2, 3),  # non-monic 2 (x - 3)(x + 2)
        (x**3 * 5, 0),  # a constant non-zero part
    ):
        s = spectrum_of_poly(p)
        assert s == _separate_spectrum(p)
        assert s.dominant == RootEnclosure(dominant, dominant, True)
    assert spectrum_of_poly(P((7,))) == Spectrum(P((7,)), None, (), P((7,)))
    with pytest.raises(ValueError, match="no real root"):
        spectrum_of_poly(P((1, 0, 1)))


def _cycle(size: int) -> IncidenceMatrix:
    """The cyclic permutation matrix, whose eigenvalues are the size-th roots of unity."""
    return IncidenceMatrix([[int(j == (i + 1) % size) for j in range(size)] for i in range(size)])


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        nonnegative_matrices,
        # roots of unity and a zero root
        st.tuples(nonnegative_matrices, st.integers(1, 3)).map(
            lambda t: _block(t[0], _nilpotent(1), _cycle(t[1]))
        ),
    )
)
def test_strip_trivial_reads_the_stripped_roots_off_the_parent(m):
    """The stripped spectrum equals the spectrum of the stripped polynomial,
    whose rational roots are searched afresh."""
    assert strip_trivial(spectrum(m)) == spectrum_of_poly(strip_trivial_poly(char_poly(m)))


@settings(max_examples=200, deadline=None)
@given(spectral_polynomials(), st.lists(st.integers(1, 8), max_size=3))
def test_strip_trivial_of_any_polynomial_matches_a_fresh_spectrum(p, cyclotomic_indices):
    for d in cyclotomic_indices:
        p = p * cyclotomic(d)
    s = _outcome(spectrum_of_poly, p)
    if isinstance(s, Spectrum):
        assert _outcome(strip_trivial, s) == _outcome(spectrum_of_poly, strip_trivial_poly(p))


@settings(max_examples=40, deadline=None)
@given(primitive_substitutions(), st.integers(1, 3), st.integers(1, 3))
def test_mult_dependent_on_powers_matches_a_fresh_certification(sub, a, b):
    """The witness on (M^a, M^b), which reads a kept enclosure at exponent 1,
    is the certificate of the same pair with every root isolated afresh."""
    m = sub.matrix()
    w = mult_dependent(m**a, m**b, 3)
    assert w is not None and a * w.m == b * w.n
    q1, q2 = power_char_poly(char_poly(m), a * w.m), power_char_poly(char_poly(m), b * w.n)
    fresh = _certify_equal_largest_roots(q1, q2, DEFAULT_PRECISION)
    assert (w.common_factor, w.enclosure) == fresh
    assert (w.common_factor, tuple(w.enclosure)) == fraction_certify_equal_dominant(q1, q2, DEFAULT_PRECISION)


@contextlib.contextmanager
def _chains_built():
    """The polynomials of the Sturm counters built inside the block."""
    built = []
    init = SturmCounter.__init__

    def counted(self, p):
        built.append(p)
        init(self, p)

    SturmCounter.__init__ = counted
    try:
        yield built
    finally:
        SturmCounter.__init__ = init


def _counted_chains(argv: list[str]) -> list[P]:
    """The polynomials of the Sturm counters one run of ``argv`` builds."""
    with _chains_built() as built, contextlib.redirect_stdout(io.StringIO()):
        status, _ = run_command(argv + ["--json"])
    assert status == 0
    return built


SAMPLES = sorted((Path(__file__).resolve().parents[1] / "samples").glob("*.sub"))


def test_spectrum_builds_one_chain_per_polynomial(tmp_path):
    """The non-zero part's chain serves the rational roots and the dominant
    root, and the stripped dominant root reads it: q's enclosure when the
    stripped polynomial is q, q's chain on the stripped grid when cyclotomic
    factors were divided out, as for tau4, sigma4 and the two files here."""
    assert len(SAMPLES) == 6
    reducible = {
        # (x - 1)(x^2 - 2x - 1)
        "silver.sub": "alphabet = a b c\nstart = a\na -> a b\nb -> a c b\nc -> b c\n",
        # (x - 2)(x + 1)
        "two.sub": "alphabet = a b\nstart = a\na -> a b\nb -> a a\n",
    }
    for name, text in reducible.items():
        (tmp_path / name).write_text(text)
    for path in SAMPLES + sorted(tmp_path.glob("*.sub")):
        built = _counted_chains(["spectrum", str(path)])
        assert len(built) == 1, (path.name, built)
    s = spectrum(parse_substitution(reducible["silver.sub"])[0].matrix())
    assert s.char_poly == P((-1, 1)) * P((-1, -2, 1))
    assert strip_trivial(s).char_poly == P((-1, -2, 1))


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_cobham_of_a_sample_against_itself_builds_one_chain(path):
    """Both sides share one matrix, so one chain serves both reported
    dominants; the certificate at (1, 1) reads the kept enclosure."""
    built = _counted_chains(["cobham", "--left", str(path), "--right", str(path)])
    assert len(built) == 1


def test_cobham_of_two_files_with_one_matrix_computes_one_polynomial(monkeypatch, tmp_path):
    """Different substitutions with one incidence matrix share it: one
    characteristic polynomial and one chain, and the report's dominants and
    witness are those of two separate matrices."""
    spectrum_module = sys.modules["retword.spectrum"]
    calls = []

    def counted(matrix):
        calls.append(matrix.rows)
        return char_poly(matrix)

    monkeypatch.setattr(spectrum_module, "char_poly", counted)
    left, right = tmp_path / "left.sub", tmp_path / "right.sub"
    left.write_text("alphabet = a b\nstart = a\na -> a a b\nb -> a b\n")
    right.write_text("alphabet = a b\nstart = a\na -> a b a\nb -> b a\n")
    # the fixed points part at the third letter, so the gate compares one
    argv = ["cobham", "--left", str(left), "--right", str(right), "--prefix-check", "1", "--json"]
    with _chains_built() as built, contextlib.redirect_stdout(io.StringIO()):
        status, report = run_command(argv)
    assert status == 0
    assert len(calls) == 1 and len(built) == 1
    monkeypatch.undo()
    rows = ((2, 1), (1, 1))
    m1, m2 = IncidenceMatrix(rows), IncidenceMatrix(rows)
    data = report.payload["data"]
    assert data["dominant_left"] == _enclosure(dominant_eigenvalue(m1))
    assert data["dominant_right"] == _enclosure(dominant_eigenvalue(m2))
    w = mult_dependent(m1, m2, 12)
    found = [c for c in report.payload["checks"] if c["name"] == "multiplicative-dependence"]
    assert found[0]["witness"] == {"m": w.m, "n": w.n, "certified": w.certified, "value": None}
    assert (w.m, w.n) == (1, 1)


def _presentation_matrix(args) -> IncidenceMatrix:
    """The product matrix of a periodic presentation, with a cycle block when asked."""
    sub, letters, cycle = args
    zeta = build_periodic_presentation(Word(sub.alphabet, tuple(letters)), sub).zeta.matrix()
    return _block(zeta, _cycle(cycle)) if cycle else zeta


def _presentations():
    return primitive_substitutions(max_letters=3).flatmap(
        lambda sub: st.tuples(
            st.just(sub),
            st.lists(st.integers(0, sub.alphabet.size - 1), min_size=1, max_size=3),
            st.integers(0, 4),
        )
    ).map(_presentation_matrix)


def _with_unit_roots(args) -> P:
    """A polynomial, made primitive (so monic unless it has a non-integer
    rational root), times cyclotomic factors: q's largest root is often 1
    or below it."""
    p, indices = args
    p = p.primitive()
    for d in indices:
        p = p * cyclotomic(d)
    return p


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        _presentations().map(spectrum),
        # zero roots and roots of unity
        st.tuples(nonnegative_matrices, st.integers(0, 3), st.integers(0, 4)).map(
            lambda t: spectrum(_block(t[0], *([_nilpotent(t[1])] if t[1] else []), *([_cycle(t[2])] if t[2] else [])))
        ),
        st.tuples(spectral_polynomials(), st.lists(st.integers(1, 8), max_size=3))
        .map(_with_unit_roots)
        .map(lambda p: _outcome(spectrum_of_poly, p)),
    )
)
def test_stripped_dominant_is_a_fresh_isolation(s):
    """The stripped dominant root, read off the non-zero part's enclosure or
    chain, is the stripped polynomial's own isolation and the Fraction
    oracle's; the stripped polynomial's chain is built exactly when q's kept
    enclosure lies below 1 + DEFAULT_PRECISION or none was kept."""
    assume(isinstance(s, Spectrum))
    stripped = strip_trivial_poly(s.char_poly)
    with _chains_built() as built:
        got = _outcome(strip_trivial, s)
    if stripped.degree < 1:
        assert got.dominant is None and not built
        return
    want = _outcome(isolate_largest_real_root, stripped, DEFAULT_PRECISION)
    assert (got.dominant if isinstance(got, Spectrum) else got) == want
    if isinstance(want, RootEnclosure):
        assert tuple(want) == fraction_isolate(stripped, DEFAULT_PRECISION)
    kept = s._nonzero_root
    reads_q = kept is not None and (stripped == kept[0].poly or kept[1].lo >= 1 + DEFAULT_PRECISION)
    # a non-monic polynomial's closing rational-root test builds a second chain
    assert built[:1] == ([] if reads_q else [stripped])


def test_stripped_dominant_falls_back_below_one():
    """q = (x - 1)(x + 2) and q = (x + 1)(x + 3): q's largest root is 1 or
    -1, so the stripped polynomial's own chain isolates its root."""
    for p, root in ((P((-1, 1)) * P((2, 1)), -2), (P((0, 1)) * P((1, 1)) * P((3, 1)), -3)):
        s = spectrum_of_poly(p)
        assert s._nonzero_root is not None
        with _chains_built() as built:
            stripped = strip_trivial(s)
        assert stripped.dominant == RootEnclosure(root, root, True)
        assert built == [strip_trivial_poly(p)]


def _dominant_decisions(m1: IncidenceMatrix, m2: IncidenceMatrix) -> tuple[bool, bool, bool]:
    """``certify_equal_dominant``'s answer, the kernel's and the Fraction oracle's."""
    p1, p2 = char_poly(m1), char_poly(m2)
    return (
        certify_equal_dominant(m1, m2),
        _certify_equal_largest_roots(p1, p2, DEFAULT_PRECISION) is not None,
        fraction_certify_equal_dominant(p1, p2, DEFAULT_PRECISION) is not None,
    )


@settings(max_examples=80, deadline=None)
@given(a=nonnegative_matrices, b=nonnegative_matrices, size=st.integers(1, 3))
def test_certify_equal_dominant_decides_as_the_kernel_and_the_oracle(a, b, size):
    """Random pairs, and M against M plus a nilpotent block in both orders,
    which share their non-zero part q: the bool is the kernel's and the
    oracle's answer, and True when deg q >= 1."""
    big = _block(a, _nilpotent(size))
    for m1, m2 in ((a, b), (a, big), (big, a)):
        got = certify_equal_dominant(m1, m2)
        assert type(got) is bool
        assert (got, got, got) == _dominant_decisions(m1, m2)
        q = _nonzero_part(char_poly(m1))
        if q.degree >= 1 and q == _nonzero_part(char_poly(m2)):
            assert got is True


@settings(max_examples=40, deadline=None)
@given(primitive_substitutions(max_letters=3), st.data())
def test_tampered_presentation_takes_the_general_path(sub, data):
    """One letter of one zeta image exchanged for another (a swap inside one
    image keeps the matrix): the non-zero parts differ, the general path
    builds chains, and the dominant check reports the kernel's and the
    oracle's answer."""
    letters = data.draw(st.lists(st.integers(0, sub.alphabet.size - 1), min_size=1, max_size=3))
    pres = build_periodic_presentation(Word(sub.alphabet, tuple(letters)), sub)
    images = [list(w.letters) for w in pres.zeta.images]
    i = data.draw(st.integers(0, len(images) - 1))
    j = data.draw(st.integers(0, len(images[i]) - 1))
    assume((i, j) != (pres.zeta.start, 0))
    images[i][j] = data.draw(st.integers(0, len(images) - 1).filter(lambda c: c != images[i][j]))
    alphabet = pres.product_alphabet
    bad_zeta = Substitution(
        Morphism(alphabet, alphabet, tuple(Word(alphabet, tuple(im)) for im in images)), pres.zeta.start
    )
    m1, m2 = bad_zeta.matrix(), sub.matrix() ** pres.exponent
    assume(_nonzero_part(char_poly(m1)) != _nonzero_part(char_poly(m2)))
    bad = PeriodicPresentation(pres.period, pres.exponent, sub, bad_zeta, pres.psi, pres.coding)
    with _chains_built() as built:
        dominant = bad.structural_checks[3]
    assert built
    got, kernel, oracle = _dominant_decisions(m1, m2)
    assert dominant.passed is got is kernel is oracle


def _unfiltered_strip(work: P) -> tuple[P, list[int]]:
    """``_strip_cyclotomics`` with a trial division by every phi_d, phi(d) <= deg."""
    deg = work.degree
    divided = []
    for d in range(1, 2 * deg * deg + 1):
        if euler_phi(d) <= deg:
            quotient = work.try_exact_div(cyclotomic(d))
            if quotient is not None:
                divided.append(d)
            while quotient is not None:
                work, quotient = quotient, quotient.try_exact_div(cyclotomic(d))
    return work, divided


def _trial_divisors(monkeypatch, work: P) -> list[P]:
    """The divisors of the trial divisions ``_strip_cyclotomics(work)`` makes."""
    _strip_cyclotomics(work)  # builds the cyclotomic polynomials and their values at 2
    calls = []
    try_exact_div = P.try_exact_div

    def counted(self, divisor):
        calls.append(divisor)
        return try_exact_div(self, divisor)

    with monkeypatch.context() as patched:
        patched.setattr(P, "try_exact_div", counted)
        _strip_cyclotomics(work)
    return calls


def test_strip_divides_only_where_the_value_at_two_allows(monkeypatch):
    """phi_d(2) must divide q(2): x^2 - x - 1 (value 1) is tried against
    phi_1 only, not phi_1, phi_2, phi_3, phi_4 and phi_6, and (x - 3) phi_5
    phi_12 (value -1 * 31 * 13) once each against phi_1, phi_5 and phi_12,
    not 20 times."""
    fib = P((-1, -1, 1))
    assert _trial_divisors(monkeypatch, fib) == [cyclotomic(1)]
    assert _strip_cyclotomics(fib) == (fib, [])
    q = P((-3, 1)) * cyclotomic(5) * cyclotomic(12)
    assert _trial_divisors(monkeypatch, q) == [cyclotomic(1), cyclotomic(5), cyclotomic(12)]
    assert _strip_cyclotomics(q) == (P((-3, 1)), [5, 12])


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(spectral_polynomials(), st.lists(st.integers(1, 12), max_size=4)).map(_with_unit_roots),
        st.tuples(nonnegative_matrices, st.integers(0, 4)).map(
            lambda t: char_poly(_block(t[0], *([_cycle(t[1])] if t[1] else [])))
        ),
    )
)
def test_strip_cyclotomics_matches_every_trial_division(p):
    """The filtered stripping divides out what trying every phi_d divides out."""
    assume(not p.is_zero)
    q = _nonzero_part(p)
    assert _strip_cyclotomics(q) == _unfiltered_strip(q)

