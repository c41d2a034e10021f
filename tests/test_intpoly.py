import random
from fractions import Fraction

import pytest

from retword.intpoly import (
    IntPolynomial,
    SturmCounter,
    cyclotomic,
    euler_phi,
    isolate_largest_real_root,
    numeric_roots,
    poly_gcd,
    rational_roots,
    root_magnitude_bound,
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


def test_divmod_monic_reconstructs():
    rng = random.Random(23)
    for _ in range(200):
        q = rand_poly(rng, 4)
        d_coeffs = tuple(rng.randint(-4, 4) for _ in range(rng.randrange(1, 4))) + (1,)
        d = P(d_coeffs)
        r = rand_poly(rng, d.degree - 1) if d.degree >= 1 else P(())
        product = q * d + r
        quot, rem = product.divmod_monic(d)
        assert quot * d + rem == product
        assert rem.degree < d.degree


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
    roots = dict(rational_roots(p))
    assert roots[Fraction(0)] == 1
    assert roots[Fraction(1)] == 2
    assert roots[Fraction(-3, 2)] == 1


def test_root_bound_contains_roots():
    rng = random.Random(37)
    for _ in range(50):
        p = rand_poly(rng, 4)
        if p.degree < 1:
            continue
        bound = root_magnitude_bound(p)
        for nr in numeric_roots(p):
            assert abs(nr.value) < float(bound) + 1e-6


def test_numeric_roots_quality():
    p = P((-1, -1, 1)) * P((-2, 1)) * P((5, 0, 1))  # golden pair, 2, +-i*sqrt5
    approx = numeric_roots(p)
    assert len(approx) == p.degree
    for nr in approx:
        assert abs(p(nr.value)) < 1e-6
        # the d-th-root residue bound is valid but pessimistic
        assert nr.error_bound < 1e-2


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
