import contextlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from retword.cli import run_command
from retword.intpoly import IntPolynomial, LargestRootBisection, SturmCounter, cyclotomic, poly_gcd
from retword.periodic import build_periodic_presentation
from retword.returns import return_substitution
from retword.relations import power_coincidence
from retword.spectrum import (
    _berkowitz,
    _lumped,
    char_poly,
    certify_equal_dominant,
    dominant_eigenvalue,
    exponent_pairs,
    mult_dependent,
    power_char_poly,
    spectra_equal_mod_trivial,
    spectrum,
    strip_trivial,
    strip_trivial_poly,
)
from retword.substitution import IncidenceMatrix, identity_matrix, parse_substitution, power
from retword.words import Word
from spectral_oracle import (
    fraction_certify_equal_dominant,
    minor_expansion_char_poly,
    same_nonzero_root_sets,
)

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
    enc = dominant_eigenvalue(fib.matrix(), Fraction(1, 10**9))
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
        enc = dominant_eigenvalue(sub.matrix(), Fraction(1, 10**12))
        for k in range(2, 5):
            enc_k = dominant_eigenvalue(sub.matrix() ** k, Fraction(1, 10**6))
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
    cert = certify_equal_dominant(m @ m, m @ m)
    assert cert is not None
    assert certify_equal_dominant(m, m @ m) is None


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
    # width-1 enclosures of the two dominants overlap, so refinement runs
    assert certify_equal_dominant(fib, trib, Fraction(1)) is None
    assert calls == [fib, trib]
    calls.clear()
    g, meet = certify_equal_dominant(fib_and_one, fib, Fraction(1))
    assert g == P((-1, -1, 1)) and meet.lo < Fraction(1618034, 10**6) < meet.hi
    # fib's polynomial is kept on the matrix since the first comparison
    assert calls == [fib_and_one]


def _certificate(m1, m2, precision):
    cert = certify_equal_dominant(m1, m2, precision)
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
        (pres.zeta.matrix(), fib.matrix() ** pres.exponent, 2),
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
        cert = certify_equal_dominant(m1, m2, Fraction(1))
        assert len(calls) == len(set(calls)) == distinct
        assert set(calls) == {char_poly(m1), char_poly(m2), poly_gcd(char_poly(m1), char_poly(m2))}
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
    assert certify_equal_dominant(fib.matrix(), trib.matrix()) is None


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
    from fractions import Fraction

    from retword.spectrum import dominant_eigenvalue

    cases = [
        (IncidenceMatrix(((1, 1), (1, 0))), IncidenceMatrix(((2, 1), (1, 1)))),
        (IncidenceMatrix(((1, 1), (1, 0))), IncidenceMatrix(((0, 1), (1, 1)))),
    ]
    tight = Fraction(1, 10**200)
    for m1, m2 in cases:
        w = mult_dependent(m1, m2, 6)
        assert w is not None
        e1 = dominant_eigenvalue(m1, tight).powered(w.m)
        e2 = dominant_eigenvalue(m2, tight).powered(w.n)
        assert max(e1.lo, e2.lo) <= min(e1.hi, e2.hi)
