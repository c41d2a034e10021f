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
counts, never by floating point.  Every enclosure the public functions
return is isolated to one width, ``DEFAULT_PRECISION``; only the kernels
take a width.  A matrix's characteristic polynomial and dominant enclosure
are kept on the matrix, so the dominant eigenvalue, the dependence search
and its certificate share them.  Two polynomials that differ only by a
power of x, as the two powers at a dependence witness of one matrix against
its own powers do, share their largest positive root through that identity
alone: a certificate of equal dominants, ``certify_equal_dominant``'s
included, isolates the root once, or reads a matrix's kept enclosure, and
forms no gcd.  Otherwise the comparison builds one
squarefree part and Sturm chain per distinct polynomial and narrows each
dominant enclosure by continuing its bisection.  A spectrum, too, builds one
chain per polynomial: that of the non-zero part q serves the rational roots
and the dominant root, and a stripped spectrum reads its rational roots off
the full one and its dominant root off q's enclosure or q's chain, so a
spectrum and its stripped spectrum build one chain between them.  The gcds,
chains and the one enclosure type,
``RootEnclosure``, come from :mod:`retword.intpoly`.
Every bounded exponent search, here and in :mod:`retword.relations`, walks
the pairs of ``exponent_pairs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterator, Mapping, Sequence

from .errors import InternalInconsistencyError, require_nonnegative
from .intpoly import (
    IntPolynomial,
    LargestRootBisection,
    RootEnclosure,
    SturmCounter,
    _monic_scaling,
    _rational_roots,
    cyclotomic,
    cyclotomic_at_two,
    euler_phi,
    isolate_largest_real_root,
    poly_gcd,
)
from .substitution import IncidenceMatrix, is_primitive

DEFAULT_PRECISION = Fraction(1, 10**9)
# rounds of 2^-8 narrowing before two dominant enclosures must have parted
# or met on one common root
MAX_REFINEMENTS = 60
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


def _matrix_dominant(matrix: IncidenceMatrix) -> RootEnclosure:
    """Certified enclosure of the dominant root, computed once per matrix and kept on it."""
    if matrix._dominant is None:
        matrix._dominant = isolate_largest_real_root(_matrix_char_poly(matrix), DEFAULT_PRECISION)
    return matrix._dominant


def dominant_eigenvalue(matrix: IncidenceMatrix) -> RootEnclosure:
    """Certified enclosure of the dominant (largest real) eigenvalue.

    For a non-negative matrix this is the spectral radius; for a primitive
    matrix the enclosure isolates a simple root.
    """
    if not matrix.is_square:
        raise ValueError("dominant eigenvalue requires a square matrix")
    if not matrix.is_nonnegative:
        raise ValueError(_NONNEGATIVE_ONLY)
    return _matrix_dominant(matrix)


@dataclass(frozen=True)
class Spectrum:
    """Exact eigenvalue data of a matrix (or of a bare characteristic polynomial).

    ``exact_roots`` lists the rational eigenvalues with multiplicities (zero
    included); ``residual_factor`` is what remains of the characteristic
    polynomial after dividing those out, so the product of the linear factors
    and the residual reconstructs ``char_poly`` exactly.  Every field is
    exact: the residual's roots are described by the polynomial itself and
    the dominant root by a certified rational enclosure.  ``_nonzero_root``
    keeps, for a monic polynomial x^k q whose non-zero part q has a real
    root, q's Sturm counter and largest-root enclosure, which
    ``strip_trivial`` reads; it takes no part in comparisons.
    """

    char_poly: IntPolynomial
    dominant: RootEnclosure | None
    exact_roots: tuple[tuple[Fraction, int], ...]
    residual_factor: IntPolynomial
    _nonzero_root: tuple[SturmCounter, RootEnclosure] | None = field(
        default=None, compare=False, repr=False
    )


def _checked_spectrum(
    p: IntPolynomial,
    roots: Sequence[tuple[Fraction, int]],
    residual: IntPolynomial,
    dominant: RootEnclosure | None,
    nonzero_root: tuple[SturmCounter, RootEnclosure] | None = None,
) -> Spectrum:
    """The ``Spectrum`` of p, once the linear factors and the residual reconstruct p."""
    check = IntPolynomial.one()
    for r, mult in roots:
        for _ in range(mult):
            check = check * IntPolynomial((-r.numerator, r.denominator))
    if check * residual != p:
        raise InternalInconsistencyError("spectrum factorization does not reconstruct")
    return Spectrum(p, dominant, tuple(roots), residual, nonzero_root)


def _largest_root(
    p: IntPolynomial, k: int, counter: SturmCounter | None
) -> tuple[RootEnclosure, tuple[SturmCounter, RootEnclosure] | None]:
    """``isolate_largest_real_root(p, DEFAULT_PRECISION)`` for p = x^k q, on the
    chain of q when it can serve, and that chain with q's own enclosure when
    it ran.

    ``counter`` is the one of ``_rational_roots``, built on q's monic
    scaling, which is q itself when q is monic.  The squarefree parts of p
    and q then differ at most by one factor x, so they have the same root
    bound, and every dyadic bisection step asks only whether the largest
    root lies above the midpoint: the two bisections end on the same
    enclosure when k = 0 or when that enclosure lies above 0.  Otherwise (a
    non-monic q, a q with no root above 0) p gets a chain of its own.
    """
    kept = None
    if counter is not None and p.leading == 1:
        try:
            enclosure = LargestRootBisection(counter).narrow(DEFAULT_PRECISION)
        except ValueError:
            # q has no real root; p's largest root is then 0
            if not k:
                raise
        else:
            kept = counter, enclosure
            if not k or enclosure.lo > 0:
                return enclosure, kept
    return isolate_largest_real_root(p, DEFAULT_PRECISION), kept


def spectrum_of_poly(p: IntPolynomial) -> Spectrum:
    """Rational roots, residual and certified dominant root of p.

    One Sturm chain serves both searches when p is monic, as every
    characteristic polynomial is: it is built on the non-zero part q =
    p / x^k, whose monic scaling is q itself, so the integer-root search of
    ``rational_roots`` and the bisection of the largest root (see
    ``_largest_root``) run on it.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no spectrum")
    k = p.zero_root_multiplicity()
    q = p.shift_divide(k)
    counter = SturmCounter(_monic_scaling(q)) if q.degree >= 1 else None
    roots, residual = _rational_roots(p, counter)
    dominant, kept = _largest_root(p, k, counter) if p.degree >= 1 else (None, None)
    return _checked_spectrum(p, roots, residual, dominant, kept)


def spectrum(matrix: IncidenceMatrix) -> Spectrum:
    return spectrum_of_poly(_matrix_char_poly(matrix))


def _nonzero_part(p: IntPolynomial) -> IntPolynomial:
    """p with its zero roots divided out: q for p = x^k q with q(0) != 0."""
    return p.shift_divide(p.zero_root_multiplicity())


def strip_trivial_poly(p: IntPolynomial) -> IntPolynomial:
    """Remove every zero root and every root-of-unity root from p.

    Any root of unity among the roots has a cyclotomic minimal polynomial
    whose index d satisfies phi(d) <= deg p, hence d <= 2 deg(p)^2; that
    finite range is searched exhaustively and each dividing cyclotomic factor
    is divided out to full multiplicity.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    return _strip_cyclotomics(_nonzero_part(p))[0]


def _strip_cyclotomics(work: IntPolynomial) -> tuple[IntPolynomial, list[int]]:
    """``strip_trivial_poly`` of a polynomial with no zero root, and the
    indices d of the cyclotomic factors phi_d it divided out, ascending.

    A trial division by phi_d runs only when phi_d(2) divides work(2), which
    is kept through the divisions: phi_d is monic, so phi_d dividing work
    means work = phi_d r with r integral, and then work(2) = phi_d(2) r(2).
    The test is necessary only; the division still decides.
    """
    deg = work.degree
    at_two = work(2)
    divided = []
    for d in range(1, 2 * deg * deg + 1):
        if euler_phi(d) > deg:
            continue
        phi_two = cyclotomic_at_two(d)
        times = 0
        while at_two % phi_two == 0:
            quotient = work.try_exact_div(cyclotomic(d))
            if quotient is None:
                break
            work, at_two, times = quotient, at_two // phi_two, times + 1
        if times:
            divided.append(d)
    return work, divided


def strip_trivial(s: Spectrum) -> Spectrum:
    """Spectrum with zero eigenvalues and root-of-unity eigenvalues removed.

    ``strip_trivial_poly`` divides out only x and cyclotomic factors, whose
    only rational roots are 0, 1 and -1.  The stripped polynomial's rational
    roots are therefore s's others, with the same multiplicities, and its
    residual is what dividing those out leaves: no integer-root search runs
    again.  The stripped dominant root builds no chain of its own when s
    kept its non-zero part's chain (see ``_stripped_dominant``).
    """
    stripped, divided = _strip_cyclotomics(_nonzero_part(s.char_poly))
    roots = tuple((r, mult) for r, mult in s.exact_roots if r not in (0, 1, -1))
    residual = stripped
    for r, mult in roots:
        factor = IntPolynomial((-r.numerator, r.denominator))
        for _ in range(mult):
            residual = residual.try_exact_div(factor)
            if residual is None:
                raise InternalInconsistencyError("stripping lost a rational root")
    dominant = _stripped_dominant(s, stripped, divided) if stripped.degree >= 1 else None
    return _checked_spectrum(stripped, roots, residual, dominant)


def _stripped_dominant(s: Spectrum, stripped: IntPolynomial, divided: list[int]) -> RootEnclosure:
    """``isolate_largest_real_root(stripped, DEFAULT_PRECISION)``, read off the
    chain that s kept for its non-zero part q when that is sound.

    With no cyclotomic factor divided out, the stripped polynomial is q, and
    q's kept enclosure is the answer.  Otherwise the stripped polynomial's
    bisection runs on its own grid, the root bound of its squarefree part
    (q's kept squarefree part with each phi_d of ``divided`` divided out
    once), with every decision read from q's chain.  This gives the fresh
    isolation's enclosure when q's kept enclosure lies at or above
    1 + DEFAULT_PRECISION:

    - q's roots are the stripped polynomial's plus roots of unity, whose
      real ones are 1 and -1, so both have the largest real root rho > 1,
      below the grid's bound B >= 2, and q's real roots all lie in (-B, B].
    - Every bisection step asks whether rho lies above the midpoint (or at
      it), and the two chains agree on that.
    - A bisection stops once its interval holds one root of its chain and
      is no wider than the width.  The fresh bisection's last interval
      holds rho and is at most DEFAULT_PRECISION wide, so its lower end
      lies above rho - DEFAULT_PRECISION, which exceeds q's kept lower end
      minus DEFAULT_PRECISION >= 1.  That interval holds neither 1 nor -1,
      so q's chain, which never stops before the fresh one, stops on it
      too.  A rational rho is an integer above 1, and the closing test for
      it searches integers above 1 only.

    When q's enclosure lies lower, or s kept none (a non-monic polynomial,
    a q with no real root), the stripped polynomial gets its own chain.
    """
    if s._nonzero_root is not None:
        counter, enclosure = s._nonzero_root
        if not divided:
            return enclosure
        if enclosure.lo >= 1 + DEFAULT_PRECISION:
            grid = counter.squarefree
            for d in divided:
                grid = grid.try_exact_div(cyclotomic(d))
                if grid is None:
                    raise InternalInconsistencyError("a stripped cyclotomic factor does not divide q")
            return LargestRootBisection(counter, grid).narrow(DEFAULT_PRECISION)
    return isolate_largest_real_root(stripped, DEFAULT_PRECISION)


def spectra_equal_mod_trivial(
    m1: IncidenceMatrix, m2: IncidenceMatrix, i: int = 1, j: int = 1
) -> bool:
    """Same eigenvalue sets of m1^i and m2^j after discarding zeros and roots of unity.

    Set comparison, not multiset: the stripped characteristic polynomials are
    compared through their squarefree parts (normalized primitive, positive
    leading coefficient).  The powers' polynomials come from the matrices'
    kept ones through ``power_char_poly``; no matrix power is formed.  Two
    polynomials with the same non-zero part q (p = x^k q, q(0) != 0) strip
    to the same polynomial, so they are equal at once, with no cyclotomic
    division and no squarefree part.
    """
    p1 = power_char_poly(_matrix_char_poly(m1), i)
    p2 = power_char_poly(_matrix_char_poly(m2), j)
    if _nonzero_part(p1) == _nonzero_part(p2):
        return True
    return strip_trivial_poly(p1).squarefree_part() == strip_trivial_poly(p2).squarefree_part()


@dataclass(frozen=True)
class DependenceWitness:
    """Certified pair of exponents with equal dominant-eigenvalue powers."""

    m: int
    n: int
    certified: bool
    common_factor: IntPolynomial
    enclosure: RootEnclosure
    exact_value: Fraction | None


def certify_equal_dominant(m1: IncidenceMatrix, m2: IncidenceMatrix) -> bool:
    """Decide exactly whether two non-negative matrices share their dominant eigenvalue.

    ``_certify_equal_largest_roots`` decides on the two characteristic
    polynomials: a non-constant gcd of the polynomials together with a Sturm
    count of one inside the intersection of the two dominant enclosures
    certifies equality, and eventually disjoint enclosures inequality.  When
    the polynomials share a non-zero part of degree >= 1, its short path
    certifies with no gcd: the spectral radius rho of a non-negative matrix
    is an eigenvalue (Perron-Frobenius; Horn & Johnson, *Matrix Analysis*,
    Thm 8.3.1), and rho >= 1 for an integer matrix that is not nilpotent
    (its non-zero eigenvalues multiply to a non-zero integer), so rho is the
    shared part's largest root and its enclosure, of width below 1, lies
    above 0.  A matrix with a negative entry is refused before any
    polynomial is computed.
    """
    if not (m1.is_nonnegative and m2.is_nonnegative):
        raise ValueError(_NONNEGATIVE_ONLY)
    p1, p2 = _matrix_char_poly(m1), _matrix_char_poly(m2)
    return _certify_equal_largest_roots(p1, p2, DEFAULT_PRECISION) is not None


def _certify_equal_largest_roots(
    p1: IntPolynomial,
    p2: IntPolynomial,
    precision: Fraction,
    isolated: Mapping[IntPolynomial, RootEnclosure] = {},
) -> tuple[IntPolynomial, RootEnclosure] | None:
    """The certificate behind ``certify_equal_dominant``: ``(common_factor,
    enclosure)`` when the largest real roots of p1 and p2 are equal, else None.

    The largest real roots of the polynomials are compared; for polynomials
    of non-negative matrices (or of their powers) these are the dominant
    eigenvalues.

    Short path: write p1 = x^k1 q1 and p2 = x^k2 q2 with q1(0), q2(0) != 0.
    When q1 = q2 = q has degree >= 1, the largest root of the lower-degree
    polynomial x^min(k1, k2) q is isolated once; if that enclosure lies above
    0, the answer is (x^min(k1, k2) q made primitive, that enclosure), with no
    gcd, no second bisection and no chain for a gcd.  It is the certificate
    of the general path below.  The squarefree parts of p1 and p2 differ at
    most by one factor x, and q(0) != 0, so they have the same root bound
    (the coefficients shift and the leading one stays) and the same largest
    root, which is positive.  Every dyadic bisection step asks whether that
    root lies above the midpoint, so both bisections take the same decisions
    and end on the same enclosure, which holds no other root of either part.
    The general path's gcd is then x^min(k1, k2) q made primitive, and its
    first round meets e1 and e2 in e1 with a Sturm count of one for the gcd
    and both polynomials.  In every other case (different non-zero parts,
    or an enclosure that reaches down to 0) the general path runs; there
    two polynomials with a constant gcd have no common root, so no common
    largest root, and the answer is None with no refinement.

    ``isolated`` maps polynomials to their largest-root enclosures at
    ``precision``, already isolated; the short path reads the lower-degree
    polynomial's enclosure there instead of isolating it again.
    """
    # one squarefree part and Sturm chain per distinct polynomial
    counters: dict[IntPolynomial, SturmCounter] = {}

    def counter(p: IntPolynomial) -> SturmCounter:
        if p not in counters:
            counters[p] = SturmCounter(p)
        return counters[p]

    q = _nonzero_part(p1)
    if q.degree >= 1 and q == _nonzero_part(p2):
        low = min(p1, p2, key=lambda p: p.degree)
        enclosure = isolated.get(low)
        if enclosure is None:
            enclosure = LargestRootBisection(counter(low)).narrow(precision)
        if enclosure.lo > 0:
            return low.primitive(), enclosure
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
    if g.degree < 1:
        return None
    chains = (counter(g), counter(p1), counter(p2))
    width = precision
    for _ in range(MAX_REFINEMENTS):
        meet = e1.intersect(e2)
        if meet is None:
            return None
        if all(c.count(meet.lo, meet.hi) == 1 for c in chains):
            return g, meet
        # both roots are irrational here, so narrowing never turns exact
        width = width / 2**8
        e1, e2 = r1.narrow(width), r2.narrow(width)
    raise InternalInconsistencyError("dominant comparison did not converge")


def _exact_common_factor(p1: IntPolynomial, p2: IntPolynomial) -> IntPolynomial:
    """poly_gcd(p1, p2), with no gcd formed when p1 = x^k1 q and p2 = x^k2 q:
    then the gcd is x^min(k1, k2) q, the lower-degree polynomial made
    primitive, as on the short path of ``_certify_equal_largest_roots``."""
    if _nonzero_part(p1) == _nonzero_part(p2):
        return min(p1, p2, key=lambda p: p.degree).primitive()
    return poly_gcd(p1, p2)


def exponent_pairs(bound: int) -> Iterator[tuple[int, int]]:
    """The pairs 1 <= m, n <= bound in (m + n, m) order: by sum, then by m."""
    for total in range(2, 2 * bound + 1):
        for m in range(max(1, total - bound), min(bound, total - 1) + 1):
            yield m, total - m


def mult_dependent(
    m1: IncidenceMatrix, m2: IncidenceMatrix, bound: int = 12
) -> DependenceWitness | None:
    """Search exponents 1 <= m, n <= bound with dominant(m1)^m = dominant(m2)^n.

    Candidate pairs are screened with exact rational interval arithmetic on
    the dominant enclosures, then certified through the gcd of the
    characteristic polynomials of the matrix powers, which ``power_char_poly``
    derives from the matrices' own; when both dominants are rational the
    screen's exact meet is the certificate's value, and two powers that
    differ only by a power of x give their common factor with no gcd.  At
    exponent 1 a power's polynomial is the matrix's own, and the certificate
    reads the dominant enclosure kept on the matrix instead of isolating the
    root again.  Pairs are walked in ``exponent_pairs`` order and the least
    is returned, or None; absence means only "no witness up to the bound",
    never multiplicative independence.  A negative bound is refused.
    """
    require_nonnegative("exponent bound", bound)
    prim1, _ = is_primitive(m1)
    prim2, _ = is_primitive(m2)
    if not (prim1 and prim2):
        raise ValueError("multiplicative dependence check needs primitive matrices")
    alpha, beta = _matrix_dominant(m1), _matrix_dominant(m2)
    p1, p2 = _matrix_char_poly(m1), _matrix_char_poly(m2)
    # each enclosure power is formed once, when the walk first reaches it
    alpha_powers: dict[int, RootEnclosure] = {}
    beta_powers: dict[int, RootEnclosure] = {}
    for m, n in exponent_pairs(bound):
        if m not in alpha_powers:
            alpha_powers[m] = alpha.powered(m)
        if n not in beta_powers:
            beta_powers[n] = beta.powered(n)
        # quick exclusion before any polynomial work
        meet = alpha_powers[m].intersect(beta_powers[n])
        if meet is None:
            continue
        q1, q2 = power_char_poly(p1, m), power_char_poly(p2, n)
        if meet.exact:
            # both powers are the same rational: no isolation is needed
            return DependenceWitness(m, n, True, _exact_common_factor(q1, q2), meet, meet.hi)
        cert = _certify_equal_largest_roots(q1, q2, DEFAULT_PRECISION, {p1: alpha, p2: beta})
        if cert is not None:
            g, meet = cert
            return DependenceWitness(m, n, True, g, meet, meet.lo if meet.exact else None)
    return None
