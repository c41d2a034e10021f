"""Reference spectral kernels, kept as oracles for :mod:`retword.spectrum` and
:mod:`retword.intpoly`: the memoized minor expansion of the characteristic
polynomial, the Euclidean algorithm over ``Fraction`` coefficients (gcd,
squarefree part, Sturm chain), root isolation on a ``Fraction`` Sturm
chain evaluated by rational Horner's rule, a comparison of root sets with
zero roots removed, and primitivity over tuples of booleans."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from retword.intpoly import IntPolynomial, root_magnitude_bound
from retword.substitution import IncidenceMatrix


def minor_expansion_char_poly(matrix: IncidenceMatrix) -> IntPolynomial:
    """det(xI - M) by expanding minors over column subsets, with memoization."""
    n = matrix.nrows
    x = IntPolynomial.x()
    entries = [
        [x - IntPolynomial((matrix.entry(i, j),)) if i == j else IntPolynomial((-matrix.entry(i, j),)) for j in range(n)]
        for i in range(n)
    ]
    memo: dict[tuple[int, ...], IntPolynomial] = {(): IntPolynomial.one()}

    def minor(cols: tuple[int, ...]) -> IntPolynomial:
        if cols in memo:
            return memo[cols]
        row = n - len(cols)
        acc = IntPolynomial.zero()
        for pos, j in enumerate(cols):
            e = entries[row][j]
            if e.is_zero:
                continue
            term = e * minor(cols[:pos] + cols[pos + 1 :])
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))


def _fractions(coeffs) -> tuple[Fraction, ...]:
    """Integer coefficients (ascending, trimmed) as Fractions."""
    return tuple(map(Fraction, coeffs))


def _rem(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Remainder of a by a non-zero b over the rationals; both trimmed."""
    r = list(a)
    while r and len(r) >= len(b):
        f = r[-1] / b[-1]
        k = len(r) - len(b)
        for j, c in enumerate(b):
            r[k + j] -= f * c
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def _integral(v: tuple[Fraction, ...]) -> tuple[int, ...]:
    """v times the positive rational that makes its coefficients coprime integers."""
    den = lcm(*(c.denominator for c in v))
    ints = [c.numerator * (den // c.denominator) for c in v]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def _normalized(v: tuple[Fraction, ...]) -> IntPolynomial:
    """The rational polynomial v as coprime integers with positive leading coefficient."""
    if not v:
        return IntPolynomial.zero()
    ints = _integral(v)
    return IntPolynomial(ints if ints[-1] > 0 else tuple(-c for c in ints))


def fraction_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Euclid's algorithm over the rationals, normalized like ``poly_gcd``."""
    a, b = _fractions(p.coeffs), _fractions(q.coeffs)
    while b:
        a, b = b, _rem(a, b)
    return _normalized(a)


def fraction_squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p divided by gcd(p, p') by long division over the rationals, normalized."""
    if p.degree <= 0:
        return p if p.is_zero else IntPolynomial.one()
    g = _fractions(fraction_gcd(p, p.derivative()).coeffs)
    r = list(_fractions(p.coeffs))
    quot = [Fraction(0)] * (len(r) - len(g) + 1)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = r[k + len(g) - 1] / g[-1]
        for j, c in enumerate(g):
            r[k + j] -= quot[k] * c
    assert not any(r), "gcd does not divide"
    return _normalized(tuple(quot))


def fraction_sturm_chain(p: IntPolynomial) -> list[tuple[int, ...]]:
    """Sturm chain of p over the rationals, each member scaled to coprime integers."""
    chain = [_fractions(p.coeffs)]
    d = _fractions(p.derivative().coeffs)
    while d:
        chain.append(d)
        d = tuple(-c for c in _rem(chain[-2], chain[-1]))
    return [_integral(member) for member in chain]


def fraction_chain(p: IntPolynomial) -> list[tuple[Fraction, ...]]:
    """Sturm chain of the squarefree part of p, unscaled, over Fractions."""
    sf = fraction_squarefree_part(p)
    chain = [_fractions(sf.coeffs)]
    d = _fractions(sf.derivative().coeffs)
    while d:
        chain.append(d)
        d = tuple(-c for c in _rem(chain[-2], chain[-1]))
    return chain


def _value(coeffs: tuple[Fraction, ...], at: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * at + c
    return acc


def fraction_count(chain: list[tuple[Fraction, ...]], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots in (lo, hi] from sign variations with zeros skipped."""

    def variations(at: Fraction) -> int:
        signs = [v > 0 for v in (_value(c, at) for c in chain) if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def divisor_rational_roots(p: IntPolynomial) -> list[tuple[Fraction, int]]:
    """Rational roots with multiplicities by the rational root test.

    Small coefficients only: divisors are found by trial division.
    """
    k = p.zero_root_multiplicity()
    work = p.shift_divide(k)
    roots = [(Fraction(0), k)] if k else []
    candidates = {Fraction(s * a, b) for a in _divisors(work.coeffs[0]) for b in _divisors(work.leading) for s in (1, -1)}
    for cand in sorted(candidates):
        factor = IntPolynomial((-cand.numerator, cand.denominator))
        mult = 0
        while work.degree >= 1 and work(cand) == 0:
            work = work.try_exact_div(factor)
            mult += 1
        if mult:
            roots.append((cand, mult))
    return sorted(roots)


def fraction_isolate(p: IntPolynomial, width: Fraction) -> tuple[Fraction, Fraction, bool]:
    """Largest real root of p by bisection that recounts both halves each step.

    Small coefficients only: the closing rational root test enumerates
    divisors by trial division.
    """
    sf = fraction_squarefree_part(p)
    chain = fraction_chain(sf)
    bound = root_magnitude_bound(sf)
    lo, hi = -bound, bound
    while fraction_count(chain, lo, hi) > 1 or hi - lo > width:
        mid = (lo + hi) / 2
        if sf(mid) == 0 and fraction_count(chain, mid, hi) == 0:
            return mid, mid, True
        if fraction_count(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    if sf(hi) == 0:
        return hi, hi, True
    for cand, _ in divisor_rational_roots(sf):
        if lo < cand <= hi:
            return cand, cand, True
    return lo, hi, False


def fraction_certify_equal_dominant(
    p1: IntPolynomial, p2: IntPolynomial, precision: Fraction, max_refinements: int = 60
) -> tuple[IntPolynomial, tuple[Fraction, Fraction, bool]] | None:
    """The dominant-equality certificate with both roots re-isolated from the
    root bound in every refinement round, all on Fraction chains."""
    e1, e2 = fraction_isolate(p1, precision), fraction_isolate(p2, precision)
    if e1[2] and e2[2]:
        return (fraction_gcd(p1, p2), e1) if e1[1] == e2[1] else None
    if e1[2] or e2[2]:
        value = e1[1] if e1[2] else e2[1]
        other_poly, (lo, hi, _) = (p2, e2) if e1[2] else (p1, e1)
        if other_poly(value) == 0 and lo < value <= hi:
            return fraction_gcd(p1, p2), (value, value, True)
        return None
    g = fraction_gcd(p1, p2)
    chains = [fraction_chain(q) for q in (g, p1, p2)] if g.degree >= 1 else []
    width = precision
    for _ in range(max_refinements):
        lo, hi = max(e1[0], e2[0]), min(e1[1], e2[1])
        if hi < lo:
            return None
        if chains and all(fraction_count(c, lo, hi) == 1 for c in chains):
            return g, (lo, hi, False)
        width = width / 2**8
        e1, e2 = fraction_isolate(p1, width), fraction_isolate(p2, width)
    raise AssertionError("dominant comparison did not converge")


def same_nonzero_root_sets(p1: IntPolynomial, p2: IntPolynomial) -> bool:
    """Equal root sets once zero roots are removed (roots of unity retained)."""
    a = p1.shift_divide(p1.zero_root_multiplicity()).squarefree_part()
    b = p2.shift_divide(p2.zero_root_multiplicity()).squarefree_part()
    return a == b


def boolean_is_primitive(matrix: IncidenceMatrix) -> tuple[bool, int | None]:
    """Primitivity with powers taken over tuples of booleans, up to n^2 - 2n + 2."""
    n = matrix.nrows
    bound = n * n - 2 * n + 2
    base = tuple(tuple(e > 0 for e in row) for row in matrix.rows)
    current = base
    for k in range(1, bound + 1):
        if all(all(row) for row in current):
            return True, k
        cols = tuple(zip(*base))
        current = tuple(
            tuple(any(a and b for a, b in zip(row, col)) for col in cols) for row in current
        )
    return False, None
