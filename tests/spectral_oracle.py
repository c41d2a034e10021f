"""Reference spectral kernels, kept as oracles for :mod:`retword.spectrum` and
:mod:`retword.intpoly`: the memoized minor expansion of the characteristic
polynomial, and root isolation on a Sturm chain of ``Fraction`` coefficients
evaluated by rational Horner's rule."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

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


def _rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    r = list(a)
    while r and len(r) >= len(b):
        f = r[-1] / b[-1]
        k = len(r) - len(b)
        for j, c in enumerate(b):
            r[k + j] -= f * c
        while r and r[-1] == 0:
            r.pop()
    return r


def fraction_chain(p: IntPolynomial) -> list[list[Fraction]]:
    """Sturm chain of the squarefree part of p, unscaled, over Fractions."""
    sf = p.squarefree_part()
    chain = [[Fraction(c) for c in sf.coeffs]]
    d = [Fraction(c) for c in sf.derivative().coeffs]
    while d:
        chain.append(d)
        d = [-c for c in _rem(chain[-2], chain[-1])]
    return chain


def _value(coeffs: list[Fraction], at: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * at + c
    return acc


def fraction_count(chain: list[list[Fraction]], lo: Fraction, hi: Fraction) -> int:
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
    sf = p.squarefree_part()
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
