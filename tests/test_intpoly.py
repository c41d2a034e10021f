import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from retword.intpoly import (
    IntPolynomial,
    LargestRootBisection,
    SturmCounter,
    _sturm_chain,
    cyclotomic,
    euler_phi,
    isolate_largest_real_root,
    poly_gcd,
    rational_roots,
    root_magnitude_bound,
)
from retword.returns import return_substitution
from retword.spectrum import char_poly, spectrum_of_poly, strip_trivial_poly
from retword.substitution import IncidenceMatrix
from spectral_oracle import (
    divisor_rational_roots,
    fraction_gcd,
    fraction_isolate,
    fraction_squarefree_part,
    fraction_sturm_chain,
)

P = IntPolynomial


def rand_poly(rng, max_deg=5, lo=-6, hi=6):
    return P(tuple(rng.randint(lo, hi) for _ in range(rng.randrange(1, max_deg + 2))))


def test_arithmetic_against_point_evaluation():
    rng = random.Random(17)
    for _ in range(300):
        a, b = rand_poly(rng), rand_poly(rng)
        x = rng.randint(-7, 7)
        assert (a + b)(x) == a(x) + b(x)
        assert (a - b)(x) == a(x) - b(x)
        assert (a * b)(x) == a(x) * b(x)


def test_trailing_zeros_trimmed():
    assert P((1, 2, 0, 0)).coeffs == (1, 2)
    assert P((0, 0)).is_zero
    assert P(()).degree == -1


def test_try_exact_div_reconstructs():
    """By a monic divisor every quotient is integral, so q·d + r divides
    exactly, giving q back, when the remainder r is zero, and not otherwise."""
    rng = random.Random(23)
    for _ in range(200):
        q = rand_poly(rng, 4)
        d_coeffs = tuple(rng.randint(-4, 4) for _ in range(rng.randrange(1, 4))) + (1,)
        d = P(d_coeffs)
        r = rand_poly(rng, d.degree - 1)
        assert (q * d).try_exact_div(d) == q
        assert (q * d + r).try_exact_div(d) == (q if r.is_zero else None)


def test_try_exact_div():
    a = P((-1, 0, 1))  # x^2 - 1
    assert a.try_exact_div(P((-1, 1))) == P((1, 1))
    assert a.try_exact_div(P((1, 1))) == P((-1, 1))
    assert a.try_exact_div(P((1, 1, 1))) is None
    assert P((2, 2)).try_exact_div(P((2,))) == P((1, 1))


def test_poly_gcd_known_factors():
    rng = random.Random(29)
    for _ in range(100):
        common = rand_poly(rng, 3)
        if common.degree < 1:
            continue
        a = common * rand_poly(rng, 2)
        b = common * rand_poly(rng, 2)
        if a.is_zero or b.is_zero:
            continue
        g = poly_gcd(a, b)
        assert g.try_exact_div(common.primitive()) is not None or (
            (g * common.leading).try_exact_div(common.primitive()) is not None
        )
        assert a.try_exact_div(g) is not None or (a * g.leading).try_exact_div(g) is not None


def test_squarefree_part():
    p = P((-1, 1)) * P((-1, 1)) * P((-2, 1))  # (x-1)^2 (x-2)
    assert p.squarefree_part() == P((-1, 1)) * P((-2, 1))
    assert (P((0, 0, 0, 1))).squarefree_part() == P((0, 1))


def test_cyclotomic_values():
    assert cyclotomic(1) == P((-1, 1))
    assert cyclotomic(2) == P((1, 1))
    assert cyclotomic(3) == P((1, 1, 1))
    assert cyclotomic(4) == P((1, 0, 1))
    assert cyclotomic(6) == P((1, -1, 1))
    assert cyclotomic(12) == P((1, 0, -1, 0, 1))
    # product over divisors reconstructs x^d - 1
    for d in (6, 8, 12):
        product = P((1,))
        for e in range(1, d + 1):
            if d % e == 0:
                product = product * cyclotomic(e)
        assert product == P((-1,) + (0,) * (d - 1) + (1,))


def test_euler_phi_values():
    table = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 12: 4, 36: 12}
    for n, v in table.items():
        assert euler_phi(n) == v


def test_sturm_count_against_known_roots():
    rng = random.Random(31)
    for _ in range(100):
        roots = [rng.randint(-6, 6) for _ in range(rng.randrange(1, 5))]
        p = P((1,))
        for r in roots:
            p = p * P((-r, 1))
        counter = SturmCounter(p)
        lo, hi = Fraction(rng.randint(-8, 0)), Fraction(rng.randint(1, 8))
        expected = len({r for r in roots if lo < r <= hi})
        assert counter.count(lo, hi) == expected


def test_isolate_golden_ratio():
    p = P((-1, -1, 1))  # x^2 - x - 1
    lo, hi, exact = isolate_largest_real_root(p, Fraction(1, 10**9))
    assert not exact
    assert hi - lo <= Fraction(1, 10**9)
    golden = (1 + 5**0.5) / 2
    assert float(lo) < golden < float(hi) + 1e-12


def test_isolate_exact_rational_root():
    p = P((-4, 0, 1)) * P((-1, 1))  # roots -2, 1, 2
    lo, hi, exact = isolate_largest_real_root(p)
    assert exact and lo == hi == 2


def test_isolate_zero_polynomial_root():
    p = P((0, 0, 1))  # x^2
    lo, hi, exact = isolate_largest_real_root(p)
    assert exact and lo == 0


def test_isolate_respects_largest():
    # roots at 1 and 3/2; largest must be found even with close spacing
    p = P((-1, 1)) * P((-3, 2))
    lo, hi, exact = isolate_largest_real_root(p)
    assert exact and lo == Fraction(3, 2)


def test_rational_roots_with_multiplicity():
    p = P((0, 1)) * P((-1, 1)) * P((-1, 1)) * P((3, 2))
    roots, residual = rational_roots(p)
    assert dict(roots) == {Fraction(0): 1, Fraction(1): 2, Fraction(-3, 2): 1}
    assert residual == P((1,))


def test_root_bound_contains_roots():
    """Oracle: sympy's numerical roots all lie strictly inside the bound."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(37)
    for _ in range(50):
        p = rand_poly(rng, 4)
        if p.degree < 1:
            continue
        bound = root_magnitude_bound(p)
        # repeated roots slow the iteration down; the root set is the same
        squarefree = sympy.Poly(list(reversed(p.coeffs)), x).sqf_part()
        roots = squarefree.nroots(n=30, maxsteps=200)
        assert len(roots) == squarefree.degree()
        for z in roots:
            assert abs(complex(z)) < float(bound) - 1e-9


def test_zero_polynomial_guards():
    with pytest.raises(ValueError):
        SturmCounter(P(()))
    with pytest.raises(ValueError):
        rational_roots(P(()))


def test_poly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(31)
    for _ in range(150):
        common = rand_poly(rng, 2)
        a = common * rand_poly(rng, 3)
        b = common * rand_poly(rng, 3)
        if a.is_zero or b.is_zero:
            continue
        want = sympy.Poly(sympy.gcd(a(x), b(x)), x)
        got = poly_gcd(a, b)
        coeffs = [int(c) for c in reversed(want.all_coeffs())]
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
        assert got == P(tuple(coeffs)).primitive()


def _from_roots(roots, cofactor):
    """prod (den x - num) over the Fraction roots, times the cofactor."""
    p = P(cofactor)
    for r in roots:
        p = p * P((-r.numerator, r.denominator))
    return p


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@settings(max_examples=200, deadline=None)
@given(
    roots=st.lists(small_fractions, max_size=5),
    cofactor=st.lists(st.integers(-5, 5), min_size=1, max_size=5).filter(lambda c: c[-1] != 0),
    ends=st.lists(st.one_of(small_fractions, st.integers(-8, 8).map(Fraction)), min_size=2, max_size=2),
    root_ends=st.lists(st.integers(0, 4), max_size=2),
)
def test_sturm_count_matches_sympy(roots, cofactor, ends, root_ends):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    p = _from_roots(roots, cofactor)
    # endpoints that are roots themselves exercise the half-open convention
    ends = sorted(ends + [roots[i] for i in root_ends if i < len(roots)])
    lo, hi = ends[0], ends[-1]
    sp = sympy.Poly(list(reversed(p.coeffs)), x)
    rat = lambda f: sympy.Rational(f.numerator, f.denominator)
    want = sp.count_roots(rat(lo), rat(hi)) - (1 if p(lo) == 0 else 0)
    assert SturmCounter(p).count(lo, hi) == want


def test_isolate_matches_fraction_chain_reference_on_corpus(corpus, morse):
    polys = []
    for sub in corpus.values():
        m = sub.matrix()
        polys += [char_poly(m), char_poly(m @ m), strip_trivial_poly(char_poly(m @ m @ m))]
    polys.append(char_poly(return_substitution(morse, morse.alphabet.word("011"))[1].matrix()))
    for p in polys:
        for width in (Fraction(1, 10**9), Fraction(1, 7), Fraction(3)):
            assert isolate_largest_real_root(p, width) == fraction_isolate(p, width)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    width=st.sampled_from((Fraction(1, 10**9), Fraction(1, 10), Fraction(2))),
)
def test_isolate_matches_fraction_chain_reference_on_char_polys(rows, width):
    # a non-negative matrix has a real dominant eigenvalue (Perron-Frobenius)
    p = char_poly(IncidenceMatrix(rows))
    assert isolate_largest_real_root(p, width) == fraction_isolate(p, width)


@settings(max_examples=100, deadline=None)
@given(
    roots=st.lists(small_fractions, min_size=1, max_size=4),
    cofactor=st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda c: c[-1] != 0),
)
def test_isolate_matches_fraction_chain_reference_non_monic(roots, cofactor):
    p = _from_roots(roots, cofactor)
    assert isolate_largest_real_root(p) == fraction_isolate(p, Fraction(1, 10**9))


@settings(max_examples=200, deadline=None)
@given(
    roots=st.lists(st.integers(-40, 40), max_size=6),
    cofactor=st.lists(st.integers(-9, 9), max_size=4),
)
def test_rational_roots_of_monic_match_divisor_oracle(roots, cofactor):
    p = _from_roots([Fraction(r) for r in roots], cofactor + [1])
    assert rational_roots(p)[0] == divisor_rational_roots(p)


def _reconstructs(p, roots, residual):
    """The residual times the roots' linear factors is p."""
    return _from_roots([r for r, mult in roots for _ in range(mult)], residual.coeffs) == p


@settings(max_examples=100, deadline=None)
@given(
    roots=st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6), max_size=5),
    cofactor=st.lists(st.integers(-9, 9), max_size=4),
    lead=st.integers(-12, 12).filter(lambda c: abs(c) >= 2),
)
def test_rational_roots_non_monic_match_divisor_oracle(roots, cofactor, lead):
    p = _from_roots(roots, cofactor + [lead])
    work = p.shift_divide(p.zero_root_multiplicity())
    assert max(abs(work.coeffs[0]), abs(work.leading)) < 10**12
    got, residual = rational_roots(p)
    assert got == divisor_rational_roots(p)
    assert _reconstructs(p, got, residual)


def sympy_rational_roots(p):
    """Rational roots with multiplicities from sympy's factorization over the integers."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), x))
    roots = []
    for factor, mult in factors:
        if factor.degree() == 1:
            a, b = (int(c) for c in factor.all_coeffs())
            roots.append((Fraction(-b, a), mult))
    return sorted(roots)


@settings(max_examples=60, deadline=None)
@given(
    roots=st.lists(
        st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6), max_size=4
    ),
    cofactor=st.lists(st.integers(-(10**6), 10**6), max_size=3),
    lead=st.integers(10**12, 10**15),
)
def test_rational_roots_non_monic_match_sympy(roots, cofactor, lead):
    # a leading coefficient of 10^12 or more: beyond enumerating its divisors
    p = _from_roots(roots, cofactor + [lead])
    got, residual = rational_roots(p)
    assert got == sympy_rational_roots(p)
    assert _reconstructs(p, got, residual)


def test_rational_roots_beyond_divisor_cap():
    # constant term about -2e13, beyond enumerating its divisors
    p = P((-10**7, 1)) * P((2 * 10**6 + 3, 1)) * P((1, 1, 1))
    assert abs(p.coeffs[0]) > 10**12
    assert rational_roots(p) == ([(Fraction(-2 * 10**6 - 3), 1), (Fraction(10**7), 1)], P((1, 1, 1)))
    assert isolate_largest_real_root(p) == (10**7, 10**7, True)
    s = spectrum_of_poly(p)
    assert s.exact_roots == ((Fraction(-2 * 10**6 - 3), 1), (Fraction(10**7), 1))
    assert s.residual_factor == P((1, 1, 1))
    big = P((-(10**30 + 57), 1)) ** 2 * P((0, 1))
    assert rational_roots(big) == ([(Fraction(0), 1), (Fraction(10**30 + 57), 2)], P((1,)))


def test_rational_roots_non_monic_beyond_cap():
    # constant term -10^13: its divisors were once too many to enumerate
    p = P((-1, 2)) * P((-(10**13), 1))
    assert rational_roots(p) == ([(Fraction(1, 2), 1), (Fraction(10**13), 1)], P((1,)))
    assert isolate_largest_real_root(p) == (10**13, 10**13, True)


@st.composite
def repeated_factor_polys(draw):
    """Products of small factors to powers up to 3, degree at most 12."""
    p = P(draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(lambda c: c[-1] != 0)))
    for _ in range(draw(st.integers(0, 4))):
        factor = P(draw(st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)))
        exponent = draw(st.integers(1, 3))
        if p.degree + exponent * factor.degree > 12:
            break
        p = p * factor**exponent
    return p


matrix_char_polys = st.integers(2, 16).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)
).map(lambda rows: char_poly(IncidenceMatrix(rows)))

kernel_polys = st.one_of(repeated_factor_polys(), matrix_char_polys)


@settings(max_examples=120, deadline=None)
@given(a=kernel_polys, b=kernel_polys, common=repeated_factor_polys())
def test_poly_gcd_matches_fraction_euclid(a, b, common):
    assert poly_gcd(a, b) == fraction_gcd(a, b)
    assert poly_gcd(a * common, b * common) == fraction_gcd(a * common, b * common)
    assert poly_gcd(P(()), -a) == fraction_gcd(P(()), -a) == (-a).primitive()


@settings(max_examples=120, deadline=None)
@given(p=kernel_polys)
def test_squarefree_part_matches_fraction_euclid(p):
    assert p.squarefree_part() == fraction_squarefree_part(p)
    assert (-p).squarefree_part() == fraction_squarefree_part(-p)


@settings(max_examples=120, deadline=None)
@given(p=kernel_polys)
def test_sturm_chain_matches_fraction_euclid(p):
    assert _sturm_chain(p) == fraction_sturm_chain(p)
    assert _sturm_chain(-p) == fraction_sturm_chain(-p)
    sf = p.squarefree_part()
    assert _sturm_chain(sf) == fraction_sturm_chain(sf)


@settings(max_examples=150, deadline=None)
@given(
    roots=st.lists(small_fractions, min_size=1, max_size=4),
    cofactor=st.lists(st.integers(-6, 6), max_size=3),
    lead=st.integers(2, 7),
    width=st.sampled_from((Fraction(1, 10**9), Fraction(1, 10), Fraction(2))),
)
def test_isolate_matches_fraction_chain_reference_non_dyadic_bound(roots, cofactor, lead, width):
    # the bisection works over multiples of B / 2**k; a B whose denominator
    # is not a power of two keeps every point off the dyadic rationals
    p = _from_roots(roots, cofactor + [lead])
    bound = root_magnitude_bound(p.squarefree_part())
    assume(bound.denominator & (bound.denominator - 1))
    assert isolate_largest_real_root(p, width) == fraction_isolate(p, width)


real_rooted_polys = st.one_of(
    matrix_char_polys,
    st.builds(
        _from_roots,
        st.lists(small_fractions, min_size=1, max_size=5),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(lambda c: c[-1] != 0),
    ),
)


@settings(max_examples=120, deadline=None)
@given(
    p=real_rooted_polys,
    widths=st.lists(
        st.sampled_from((Fraction(3), Fraction(1, 7), Fraction(1, 10**6), Fraction(1, 10**20))),
        min_size=2,
        max_size=2,
        unique=True,
    ),
)
def test_narrowing_again_ends_where_a_fresh_isolation_ends(p, widths):
    wide, narrow = sorted(widths, reverse=True)
    bisection = LargestRootBisection(SturmCounter(p))
    assert bisection.narrow(wide) == isolate_largest_real_root(p, wide)
    assert bisection.narrow(narrow) == isolate_largest_real_root(p, narrow)


def test_narrowing_an_isolated_bisection_counts_no_variations(corpus, monkeypatch):
    polys = [char_poly(sub.matrix() @ sub.matrix()) for sub in corpus.values()]
    polys.append(char_poly(IncidenceMatrix([[(i * j + i + 2 * j) % 3 for j in range(8)] for i in range(8)])))
    counted = SturmCounter.variations
    for p in polys:
        bisection = LargestRootBisection(SturmCounter(p))
        bisection.narrow(Fraction(1, 10))
        calls = []
        monkeypatch.setattr(SturmCounter, "variations", lambda self, at: calls.append(at) or counted(self, at))
        enclosure = bisection.narrow(Fraction(1, 10**30))
        monkeypatch.setattr(SturmCounter, "variations", counted)
        assert calls == []
        assert enclosure == fraction_isolate(p, Fraction(1, 10**30))
