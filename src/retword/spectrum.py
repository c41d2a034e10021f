"""Eigenvalue analysis of incidence matrices over exact arithmetic.

Characteristic polynomials come from the smallest exact object: identical
columns are lumped first (Sylvester's identity det(xI - P N) =
x^(n - d) det(xI - N P) for the n x d matrix P of distinct columns),
Berkowitz's division-free algorithm (S. J. Berkowitz, *Inf. Process. Lett.*
18 (1984) 147-150) runs on the d x d rest, and the polynomial of a power
M^m follows from M's by Newton's identities, so no matrix power is formed.
Dominant roots come with certified rational enclosures; comparisons (same
spectrum up to zero and roots of unity, multiplicative dependence of
dominant roots) are decided by exact polynomial identities plus Sturm root
counts, never by floating point.  A matrix's characteristic polynomial and
dominant enclosure are kept on the matrix, so the dominant eigenvalue, the
dependence search and its certificate share them; the dominant-root
comparison builds one squarefree part and Sturm chain per distinct
polynomial and narrows each dominant enclosure by continuing its bisection;
the gcds, chains and the one enclosure type, ``RootEnclosure``, come from
:mod:`retword.intpoly`.  Every bounded exponent search, here and in
:mod:`retword.relations`, walks the pairs of ``exponent_pairs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from .errors import InternalInconsistencyError
from .intpoly import (
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
from .substitution import IncidenceMatrix, is_primitive

DEFAULT_PRECISION = Fraction(1, 10**9)
_NONNEGATIVE_ONLY = "dominant eigenvalue is defined for non-negative matrices"


def _lumped(rows: Sequence[Sequence[int]]) -> tuple[Sequence[Sequence[int]], int]:
    """N P for M = P N, repeated until no two columns agree, and the zero roots removed.

    Row a of N P sums the rows of P (the distinct columns of M) whose index
    lies in the class a of equal columns.
    """
    dropped = 0
    while True:
        classes: dict[tuple[int, ...], int] = {}
        labels = [classes.setdefault(col, len(classes)) for col in zip(*rows)]
        if len(classes) == len(rows):
            return rows, dropped
        dropped += len(rows) - len(classes)
        lumped = [[0] * len(classes) for _ in classes]
        for label, p_row in zip(labels, zip(*classes)):
            lumped[label] = [a + b for a, b in zip(lumped[label], p_row)]
        rows = lumped


def _berkowitz(rows: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of det(xI - A), highest degree first, by Berkowitz's algorithm.

    The characteristic polynomial of the leading (r+1)x(r+1) block is the
    Toeplitz product of that of the r x r block B with the column (1, -a,
    -RC, -RBC, ..., -RB^(r-1)C), where a is the new diagonal entry, R the new
    row and C the new column.
    """
    desc = [1]
    for r, new_row in enumerate(rows):
        block = [row[:r] for row in rows[:r]]
        left = new_row[:r]
        vec = [row[r] for row in rows[:r]]
        toeplitz = [1, -new_row[r]]
        for _ in range(r):
            toeplitz.append(-sum(map(mul, left, vec)))
            vec = [sum(map(mul, row, vec)) for row in block]
        desc = [sum(toeplitz[i - j] * desc[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return desc


def char_poly(matrix: IncidenceMatrix) -> IntPolynomial:
    """det(xI - M) with exact integer coefficients.

    Identical columns are lumped first (see ``_lumped``): with d distinct
    columns, M = P N and det(xI - M) = x^(n - d) det(xI - N P) by
    Sylvester's identity, so Berkowitz's division-free algorithm, O(d^4)
    integer operations, runs on the d x d matrix N P only.  A periodic
    product matrix of n p letters has at most 2 n distinct columns.
    """
    if not matrix.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    rows, zeros = _lumped(matrix.rows)
    return IntPolynomial([0] * zeros + _berkowitz(rows)[::-1])


def power_char_poly(p: IntPolynomial, m: int) -> IntPolynomial:
    """The monic polynomial whose roots are the m-th powers of the roots of monic p.

    For p = char_poly(M) this is char_poly(M^m).  The power sums s_1..s_(d m)
    of p's roots follow from its coefficients by Newton's identities; those
    of the m-th powers are s_m, s_(2m), ..., s_(d m), and Newton's identities
    read backwards turn them into coefficients, each an exact integer
    division since the roots are algebraic integers.
    """
    if m < 1:
        raise ValueError("power must be >= 1")
    if p.is_zero or p.leading != 1:
        raise ValueError("power_char_poly needs a monic polynomial")
    if m == 1:
        return p
    d = p.degree
    # a[i] is the coefficient of x^(d - i); s[k] the k-th power sum, s[0] unused
    a = p.coeffs[::-1]
    s = [0]
    for k in range(1, d * m + 1):
        acc = sum(a[i] * s[k - i] for i in range(1, min(k, d + 1)))
        if k <= d:
            acc += k * a[k]
        s.append(-acc)
    t = s[m::m]
    b = [1]
    for k in range(1, d + 1):
        b.append(-(t[k - 1] + sum(b[i] * t[k - i - 1] for i in range(1, k))) // k)
    return IntPolynomial(b[::-1])


def _matrix_char_poly(matrix: IncidenceMatrix) -> IntPolynomial:
    """``char_poly(matrix)``, computed once per matrix and kept on it."""
    if matrix._char_poly is None:
        matrix._char_poly = char_poly(matrix)
    return matrix._char_poly


def _matrix_dominant(matrix: IncidenceMatrix, precision: Fraction) -> RootEnclosure:
    """Certified enclosure of the dominant root; kept on the matrix at default precision."""
    kept = precision == DEFAULT_PRECISION
    if kept and matrix._dominant is not None:
        return matrix._dominant
    enclosure = isolate_largest_real_root(_matrix_char_poly(matrix), precision)
    if kept:
        matrix._dominant = enclosure
    return enclosure


def dominant_eigenvalue(
    matrix: IncidenceMatrix, precision: Fraction = DEFAULT_PRECISION
) -> RootEnclosure:
    """Certified enclosure of the dominant (largest real) eigenvalue.

    For a non-negative matrix this is the spectral radius; for a primitive
    matrix the enclosure isolates a simple root.
    """
    if not matrix.is_square:
        raise ValueError("dominant eigenvalue requires a square matrix")
    if not matrix.is_nonnegative:
        raise ValueError(_NONNEGATIVE_ONLY)
    return _matrix_dominant(matrix, precision)


@dataclass(frozen=True)
class Spectrum:
    """Exact eigenvalue data of a matrix (or of a bare characteristic polynomial).

    ``exact_roots`` lists the rational eigenvalues with multiplicities (zero
    included); ``residual_factor`` is what remains of the characteristic
    polynomial after dividing those out, so the product of the linear factors
    and the residual reconstructs ``char_poly`` exactly.  Every field is
    exact: the residual's roots are described by the polynomial itself and
    the dominant root by a certified rational enclosure.
    """

    char_poly: IntPolynomial
    dominant: RootEnclosure | None
    exact_roots: tuple[tuple[Fraction, int], ...]
    residual_factor: IntPolynomial


def spectrum_of_poly(p: IntPolynomial, precision: Fraction = DEFAULT_PRECISION) -> Spectrum:
    if p.is_zero:
        raise ValueError("zero polynomial has no spectrum")
    roots, residual = rational_roots(p)
    check = IntPolynomial.one()
    for r, mult in roots:
        for _ in range(mult):
            check = check * IntPolynomial((-r.numerator, r.denominator))
    if check * residual != p:
        raise InternalInconsistencyError("spectrum factorization does not reconstruct")
    dominant = isolate_largest_real_root(p, precision) if p.degree >= 1 else None
    return Spectrum(
        char_poly=p,
        dominant=dominant,
        exact_roots=tuple(roots),
        residual_factor=residual,
    )


def spectrum(matrix: IncidenceMatrix, precision: Fraction = DEFAULT_PRECISION) -> Spectrum:
    return spectrum_of_poly(_matrix_char_poly(matrix), precision)


def strip_trivial_poly(p: IntPolynomial) -> IntPolynomial:
    """Remove every zero root and every root-of-unity root from p.

    Any root of unity among the roots has a cyclotomic minimal polynomial
    whose index d satisfies phi(d) <= deg p, hence d <= 2 deg(p)^2; that
    finite range is searched exhaustively and each dividing cyclotomic factor
    is divided out to full multiplicity.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    work = p.shift_divide(p.zero_root_multiplicity())
    deg = work.degree
    for d in range(1, 2 * deg * deg + 1):
        if euler_phi(d) > deg:
            continue
        phi_d = cyclotomic(d)
        while True:
            quotient, rem = work.divmod_monic(phi_d)
            if rem.is_zero and not quotient.is_zero:
                work = quotient
            else:
                break
    return work


def strip_trivial(s: Spectrum, precision: Fraction = DEFAULT_PRECISION) -> Spectrum:
    """Spectrum with zero eigenvalues and root-of-unity eigenvalues removed."""
    return spectrum_of_poly(strip_trivial_poly(s.char_poly), precision)


def spectra_equal_mod_trivial(
    m1: IncidenceMatrix, m2: IncidenceMatrix, i: int = 1, j: int = 1
) -> bool:
    """Same eigenvalue sets of m1^i and m2^j after discarding zeros and roots of unity.

    Set comparison, not multiset: the stripped characteristic polynomials are
    compared through their squarefree parts (normalized primitive, positive
    leading coefficient).  The powers' polynomials come from the matrices'
    kept ones through ``power_char_poly``; no matrix power is formed.
    """
    p1 = strip_trivial_poly(power_char_poly(_matrix_char_poly(m1), i)).squarefree_part()
    p2 = strip_trivial_poly(power_char_poly(_matrix_char_poly(m2), j)).squarefree_part()
    return p1 == p2


@dataclass(frozen=True)
class DependenceWitness:
    """Certified pair of exponents with equal dominant-eigenvalue powers."""

    m: int
    n: int
    certified: bool
    common_factor: IntPolynomial
    enclosure: RootEnclosure
    exact_value: Fraction | None


def certify_equal_dominant(
    m1: IncidenceMatrix,
    m2: IncidenceMatrix,
    precision: Fraction = DEFAULT_PRECISION,
    max_refinements: int = 60,
) -> tuple[IntPolynomial, RootEnclosure] | None:
    """Decide exactly whether two matrices share their dominant eigenvalue.

    Returns ``(common_factor, enclosure)`` on equality, ``None`` otherwise.
    Equality is certified by a non-constant gcd of the characteristic
    polynomials together with a Sturm count of one inside the intersection of
    the two dominant enclosures; inequality by eventually disjoint enclosures.
    Each refinement round continues both bisections; the enclosures are the
    ones a fresh isolation to the smaller width gives.
    """
    p1, p2 = _matrix_char_poly(m1), _matrix_char_poly(m2)
    if not (m1.is_nonnegative and m2.is_nonnegative):
        raise ValueError(_NONNEGATIVE_ONLY)
    return _certify_equal_largest_roots(p1, p2, precision, max_refinements)


def _certify_equal_largest_roots(
    p1: IntPolynomial, p2: IntPolynomial, precision: Fraction, max_refinements: int = 60
) -> tuple[IntPolynomial, RootEnclosure] | None:
    """``certify_equal_dominant`` on the two characteristic polynomials.

    The largest real roots of the polynomials are compared; for polynomials
    of non-negative matrices (or of their powers) these are the dominant
    eigenvalues.
    """
    # one squarefree part and Sturm chain per distinct polynomial
    counters: dict[IntPolynomial, SturmCounter] = {}

    def counter(p: IntPolynomial) -> SturmCounter:
        if p not in counters:
            counters[p] = SturmCounter(p)
        return counters[p]

    r1, r2 = LargestRootBisection(counter(p1)), LargestRootBisection(counter(p2))
    e1, e2 = r1.narrow(precision), r2.narrow(precision)
    if e1.exact != e2.exact:
        # a bisection reports an inexact enclosure only once it found no
        # rational root inside, so a rational root never equals the other
        return None
    if e1.exact:
        if e1.hi != e2.hi:
            return None
        g = poly_gcd(p1, p2)
        if g.degree < 1 or g(e1.hi) != 0:
            raise InternalInconsistencyError("equal exact dominants must share a factor")
        return g, e1
    g = poly_gcd(p1, p2)
    # with no common factor the dominants are distinct algebraics, so
    # refinement must eventually separate the enclosures
    chains = (counter(g), counter(p1), counter(p2)) if g.degree >= 1 else ()
    width = precision
    for _ in range(max_refinements):
        meet = e1.intersect(e2)
        if meet is None:
            return None
        if chains and all(c.count(meet.lo, meet.hi) == 1 for c in chains):
            return g, meet
        # both roots are irrational here, so narrowing never turns exact
        width = width / 2**8
        e1, e2 = r1.narrow(width), r2.narrow(width)
    raise InternalInconsistencyError("dominant comparison did not converge")


def exponent_pairs(bound: int) -> Iterator[tuple[int, int]]:
    """The pairs 1 <= m, n <= bound in (m + n, m) order: by sum, then by m."""
    for total in range(2, 2 * bound + 1):
        for m in range(max(1, total - bound), min(bound, total - 1) + 1):
            yield m, total - m


def mult_dependent(
    m1: IncidenceMatrix,
    m2: IncidenceMatrix,
    bound: int = 12,
    precision: Fraction = DEFAULT_PRECISION,
) -> DependenceWitness | None:
    """Search exponents 1 <= m, n <= bound with dominant(m1)^m = dominant(m2)^n.

    Candidate pairs are screened with exact rational interval arithmetic on
    the dominant enclosures, then certified through the gcd of the
    characteristic polynomials of the matrix powers, which ``power_char_poly``
    derives from the matrices' own; when both dominants are rational the
    screen's exact meet is the certificate's value.  Pairs are walked in
    ``exponent_pairs`` order and the least is returned, or None; absence
    means only "no witness up to the bound", never multiplicative
    independence.
    """
    prim1, _ = is_primitive(m1)
    prim2, _ = is_primitive(m2)
    if not (prim1 and prim2):
        raise ValueError("multiplicative dependence check needs primitive matrices")
    alpha = _matrix_dominant(m1, precision)
    beta = _matrix_dominant(m2, precision)
    p1, p2 = _matrix_char_poly(m1), _matrix_char_poly(m2)
    for m, n in exponent_pairs(bound):
        # quick exclusion before any polynomial work
        meet = alpha.powered(m).intersect(beta.powered(n))
        if meet is None:
            continue
        q1, q2 = power_char_poly(p1, m), power_char_poly(p2, n)
        if meet.exact:
            # both powers are the same rational: no isolation is needed
            return DependenceWitness(m, n, True, poly_gcd(q1, q2), meet, meet.hi)
        cert = _certify_equal_largest_roots(q1, q2, precision)
        if cert is not None:
            g, meet = cert
            return DependenceWitness(m, n, True, g, meet, meet.lo if meet.exact else None)
    return None
