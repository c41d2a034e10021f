"""Exact integer polynomial arithmetic: gcds, Sturm counts, cyclotomics, root isolation.

Coefficients are arbitrary-precision integers stored in ascending degree
order.  Everything runs over exact integers, with ``Fraction`` only for
rational points: enclosure endpoints and rational roots; floating point
appears nowhere.  One remainder routine, the primitive pseudo-remainder
``_prem``, serves gcds, squarefree parts and Sturm chains, so no Euclidean
step leaves the integers.  Sturm chains are stored as integer polynomials
and evaluated at a rational p/q through the integer q**d c(p/q), which has
the sign of c(p/q).  Root isolation bisects over the dyadic points
B c / 2**k of the root bound B, with the chain scaled once so that a point
costs one integer Horner evaluation with shifts (F. Rouillier and
P. Zimmermann, *J. Comput. Appl. Math.* 162 (2004) 33-50); every enclosure
is one ``RootEnclosure``.  Rational roots of every integer polynomial take
one path: with leading coefficient a, the monic a**(d - 1) p(y / a) has
only integer rational roots, which Sturm bisection at integer points finds
whatever the size of the coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd
from typing import Iterable, NamedTuple

from .errors import InternalInconsistencyError


class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` multiplies x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> IntPolynomial:
        return cls(())

    @classmethod
    def one(cls) -> IntPolynomial:
        return cls((1,))

    @classmethod
    def x(cls) -> IntPolynomial:
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, value):
        result = 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPolynomial:
        if n < 0:
            raise ValueError("polynomial power must be >= 0")
        result = IntPolynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def derivative(self) -> IntPolynomial:
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def shift_divide(self, k: int) -> IntPolynomial:
        """Exact division by x**k; requires the low k coefficients to vanish."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError("not divisible by the requested power of x")
        return IntPolynomial(self.coeffs[k:])

    def zero_root_multiplicity(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial")
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return k

    def try_exact_div(self, divisor: IntPolynomial) -> IntPolynomial | None:
        """Quotient if the division is exact with integer coefficients, else None."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return IntPolynomial.zero()
        if self.degree < divisor.degree:
            return None
        rem = list(self.coeffs)
        lead = divisor.leading
        d = divisor.degree
        quot = [0] * (len(rem) - d)
        for i in range(len(rem) - d - 1, -1, -1):
            # the first non-integral quotient coefficient shows here
            q, r = divmod(rem[i + d], lead)
            if r:
                return None
            quot[i] = q
            if q:
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= q * c
        if any(rem[:d]):
            return None
        return IntPolynomial(quot)

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> IntPolynomial:
        """Divide out the content and normalize the leading coefficient positive."""
        if self.is_zero:
            return self
        g = self.content()
        cs = tuple(c // g for c in self.coeffs)
        if cs[-1] < 0:
            cs = tuple(-c for c in cs)
        return IntPolynomial(cs)

    def squarefree_part(self) -> IntPolynomial:
        """The product of the distinct irreducible factors, primitive and positive."""
        if self.degree <= 0:
            return IntPolynomial.one() if not self.is_zero else self
        g = poly_gcd(self, self.derivative())
        if g.degree == 0:
            return self.primitive()
        # g is primitive and divides self over the rationals, so by Gauss's
        # lemma the quotient has integer coefficients
        q = self.try_exact_div(g)
        if q is None:
            raise InternalInconsistencyError("squarefree division failed")
        return q.primitive()

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                body = f"{mag}x" + (f"^{i}" if i > 1 else "")
            terms.append(("- " if c < 0 else "+ ") + body)
        head = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
        return " ".join([head] + terms[1:])

    def __repr__(self) -> str:
        return f"IntPolynomial({self.pretty()!r})"


def _divide_content(coeffs: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Integer coefficients divided by their positive content; signs kept."""
    g = gcd(*coeffs)
    return tuple(coeffs) if g <= 1 else tuple(c // g for c in coeffs)


def _prem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive pseudo-remainder of a by a non-zero b; both trimmed.

    The remainder of |lc(b)|**(deg a - deg b + 1) * a by b, taken over the
    integers and divided by its positive content: the remainder over the
    rationals times a positive rational, scaled to coprime integers.  A
    Euclidean or Sturm sequence built from it is the rational one with each
    member scaled positively to coprime integers (W. S. Brown, *J. ACM* 18
    (1971) 478-504), so it keeps every sign, gcd and root count.
    """
    r = list(a)
    d = len(b) - 1
    mag = abs(b[-1])
    for k in range(len(r) - 1 - d, -1, -1):
        # r <- |lc(b)| r - f x^k b cancels the leading coefficient
        f = r.pop() if b[-1] > 0 else -r.pop()
        lower = r[:k] if mag == 1 else [c * mag for c in r[:k]]
        r = lower + [mag * c - f * e for c, e in zip(r[k:], b)]
    while r and r[-1] == 0:
        r.pop()
    return _divide_content(r)


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor, returned primitive with positive leading coefficient."""
    a, b = p.coeffs, q.coeffs
    while b:
        a, b = b, _prem(a, b)
    return IntPolynomial(a).primitive()


def _sturm_chain(p: IntPolynomial) -> list[tuple[int, ...]]:
    """Sturm chain of p, each member scaled by a positive rational to coprime integers.

    Positive scaling keeps every sign the chain takes, and so every count.
    """
    chain = [_divide_content(p.coeffs)]
    r = _divide_content(p.derivative().coeffs)
    while r:
        chain.append(r)
        r = tuple(-c for c in _prem(chain[-2], chain[-1]))
    return chain


def _powers(base: int, count: int) -> list[int]:
    """[1, base, base**2, ..., base**(count - 1)]."""
    out = [1]
    for _ in range(count - 1):
        out.append(out[-1] * base)
    return out


def _homogeneous(coeffs: tuple[int, ...], num: int, den_powers: list[int]) -> int:
    """den**d * c(num/den) for c of degree d, by Horner's rule over the integers.

    The value is sum(c_i num**i den**(d - i)); for den > 0 its sign is the
    sign of c(num/den).  ``den_powers`` lists den**k from k = 0 and is at
    least as long as ``coeffs``.
    """
    acc = 0
    for c, w in zip(reversed(coeffs), den_powers):
        acc = acc * num + c * w
    return acc


def _sign_changes(values: Iterable[int]) -> int:
    """Sign changes along a sequence of integers, zeros skipped."""
    changes, last = 0, None
    for value in values:
        if value:
            positive = value > 0
            if last is not None and positive != last:
                changes += 1
            last = positive
    return changes


class SturmCounter:
    """Counts distinct real roots of a fixed polynomial over half-open intervals.

    Sign sequences are evaluated with zeros skipped, which makes the count at
    a point equal to the count just to its right; the difference of counts at
    a and b therefore gives the number of distinct roots in (a, b].  The chain
    holds integer polynomials, and a point p/q is evaluated as the integers
    q**d c(p/q), so no rational arithmetic runs per point.
    """

    def __init__(self, p: IntPolynomial):
        if p.is_zero:
            raise ValueError("cannot count roots of the zero polynomial")
        self.poly = p
        # multiplicities never matter here, and squarefree input keeps the
        # zero-skipping variation count honest at chain-internal roots
        self.squarefree = p.squarefree_part()
        self.chain = _sturm_chain(self.squarefree)

    def variations(self, at: Fraction | int) -> int:
        """Sign changes along the chain at ``at``, zeros skipped."""
        num, powers = at.numerator, _powers(at.denominator, len(self.chain[0]))
        return _sign_changes(_homogeneous(member, num, powers) for member in self.chain)

    def count(self, lo: Fraction | int, hi: Fraction | int) -> int:
        """Distinct real roots in the half-open interval (lo, hi]."""
        if hi < lo:
            raise ValueError("empty interval")
        return self.variations(lo) - self.variations(hi)

    def _is_root(self, at: Fraction | int) -> bool:
        head = self.chain[0]
        return _homogeneous(head, at.numerator, _powers(at.denominator, len(head))) == 0


def root_magnitude_bound(p: IntPolynomial) -> Fraction:
    """A rational B with every complex root of p strictly inside |z| < B."""
    if p.degree < 1:
        return Fraction(1)
    lead = abs(p.leading)
    biggest = max(abs(c) for c in p.coeffs[:-1])
    return Fraction(biggest, lead) + 2


def _integer_roots(counter: SturmCounter, lo: int, hi: int) -> list[int]:
    """The integer roots in (lo, hi] of the counter's polynomial.

    Bisection at integer points splits the interval until every piece that
    holds a root is a unit interval (n - 1, n]; its one integer n is tested.
    """
    found = []
    pending = [(lo, hi, counter.variations(lo), counter.variations(hi))]
    while pending:
        lo, hi, v_lo, v_hi = pending.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if counter._is_root(hi):
                found.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = counter.variations(mid)
        pending += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return found


def _monic_scaling(p: IntPolynomial) -> IntPolynomial:
    """a**(d - 1) p(y / a) for p of degree d >= 1 with leading coefficient a.

    The result is monic with integer coefficients, and its roots are the a r
    for the roots r of p; it is p itself when a = 1.
    """
    d = p.degree
    scale = _powers(p.leading, d)
    return IntPolynomial([c * scale[d - 1 - i] for i, c in enumerate(p.coeffs[:-1])] + [1])


def rational_roots(p: IntPolynomial) -> tuple[list[tuple[Fraction, int]], IntPolynomial]:
    """All rational roots with multiplicities, zero included, ascending order,
    and the residual: p with the linear factor of each root divided out to
    its multiplicity, so that the residual has no rational root.

    One path serves every integer polynomial.  With the zero roots removed
    and a the leading coefficient, put y = a x: the monic a**(d - 1) p(y / a)
    has integer coefficients, so its rational roots are integers.  Its Sturm
    chain isolates the distinct real roots to unit intervals (n - 1, n] and
    each such n is tested, whatever the size of the coefficients; each root
    n gives the root n / a of p.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has every root")
    work = p.shift_divide(p.zero_root_multiplicity())
    return _rational_roots(p, SturmCounter(_monic_scaling(work)) if work.degree >= 1 else None)


def _rational_roots(
    p: IntPolynomial, counter: SturmCounter | None
) -> tuple[list[tuple[Fraction, int]], IntPolynomial]:
    """``rational_roots(p)`` for a non-zero p, searched on ``counter``: the
    Sturm counter of the monic scaling of p's non-zero part, or None when
    that part is a constant."""
    roots: list[tuple[Fraction, int]] = []
    k = p.zero_root_multiplicity()
    work = p.shift_divide(k)
    if k:
        roots.append((Fraction(0), k))
    if counter is None:
        return roots, work
    bound = ceil(root_magnitude_bound(counter.poly))
    lead = work.leading
    for n in _integer_roots(counter, -bound, bound):
        root = Fraction(n, lead)
        factor = IntPolynomial((-root.numerator, root.denominator))
        mult = 0
        while (q := work.try_exact_div(factor)) is not None:
            work = q
            mult += 1
        roots.append((root, mult))
    return sorted(roots), work


class RootEnclosure(NamedTuple):
    """Rational interval (lo, hi] certified to contain exactly one target root.

    When ``exact`` both endpoints are the root itself.  As a tuple it
    compares and unpacks as ``(lo, hi, exact)``.
    """

    lo: Fraction
    hi: Fraction
    exact: bool

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def powered(self, m: int) -> RootEnclosure:
        """Interval enclosing the m-th power; requires a non-negative interval."""
        if self.lo < 0:
            raise ValueError("powering is implemented for non-negative enclosures only")
        return RootEnclosure(self.lo**m, self.hi**m, self.exact)

    def intersect(self, other: RootEnclosure) -> RootEnclosure | None:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if hi < lo:
            return None
        return RootEnclosure(lo, hi, self.exact and other.exact and lo == hi)


def _dyadic(coeffs: tuple[int, ...], num: int, k: int) -> int:
    """2**(k d) * c(num / 2**k) for c of degree d, by Horner's rule with shifts.

    The value is sum(c_i num**i 2**(k (d - i))), which has the sign of
    c(num / 2**k).
    """
    acc, shift = 0, 0
    for c in reversed(coeffs):
        acc = acc * num + (c << shift)
        shift += k
    return acc


class LargestRootBisection:
    """Bisection enclosing the largest real root of a polynomial, narrowed on demand.

    The interval is kept as integers over the root bound B = Bn/Bd of the
    counter's squarefree part: (B (c - 1) / 2**k, B (c + 1) / 2**k], with
    midpoint B c / 2**k.  Each chain member of degree d is scaled once to
    C_i = c_i Bn**i Bd**(d - i); its value at the midpoint times the
    positive (Bd 2**k)**d is then one integer Horner evaluation with shifts
    (``_dyadic``).  While the interval holds several roots, a step counts the
    chain's sign variations at the midpoint against those kept for hi.  Once
    it holds one, a step reads the sign of the squarefree part alone: the
    root is simple and nothing lies at or above hi, so the part is positive
    at hi, and the root lies below the midpoint exactly when the part is
    positive there.  Both are the decisions of a Fraction bisection, so the
    enclosures are the same; Fractions are built only for the endpoints
    returned.  The midpoints depend on the interval alone: narrowing to a
    width w and then to w' < w ends exactly where a fresh bisection to w'
    ends.

    The grid polynomial, the counter's squarefree part unless one is given,
    fixes B and so every midpoint; the counter's chain takes every decision.
    A grid whose root bound exceeds every real root of the counter's
    polynomial lets one chain run the bisection of another polynomial with
    the same largest real root (see ``spectrum.strip_trivial``).
    """

    def __init__(self, counter: SturmCounter, grid: IntPolynomial | None = None):
        sf = counter.squarefree
        if sf.degree < 1:
            raise ValueError("polynomial has no roots")
        bound = root_magnitude_bound(sf if grid is None else grid)
        self.counter = counter
        self._bn, self._bd = bound.numerator, bound.denominator
        bn_powers, bd_powers = _powers(self._bn, len(sf.coeffs)), _powers(self._bd, len(sf.coeffs))
        self._chain = [
            tuple(c * bn_powers[i] * bd_powers[len(m) - 1 - i] for i, c in enumerate(m))
            for m in counter.chain
        ]
        # the interval (-B, B] is centre 0 at depth 0
        self._c, self._k = 0, 0
        self._v_lo, self._v_hi = self._variations(-1, 0)[0], self._variations(1, 0)[0]
        if self._v_lo - self._v_hi < 1:
            raise ValueError("polynomial has no real root")
        # None until a narrowing decides whether the root is rational
        self.exact: bool | None = None
        self._settled: RootEnclosure | None = None

    def _variations(self, c: int, k: int) -> tuple[int, int]:
        """Sign changes along the chain at B c / 2**k, zeros skipped, and the
        scaled value of the squarefree part there."""
        values = [_dyadic(member, c, k) for member in self._chain]
        return _sign_changes(values), values[0]

    def _point(self, c: int, k: int) -> Fraction:
        return Fraction(self._bn * c, self._bd << k)

    def narrow(self, width: Fraction) -> RootEnclosure:
        """The enclosure with hi - lo <= width, or the root itself when exact."""
        if self.exact:
            return self._settled
        width = Fraction(width)
        # hi - lo = 2 B / 2**k > width  <=>  x > y << k
        x, y = 2 * self._bn * width.denominator, width.numerator * self._bd
        c, k, v_lo, v_hi = self._c, self._k, self._v_lo, self._v_hi
        while v_lo - v_hi > 1:
            v_mid, head = self._variations(c, k)
            if v_mid > v_hi:
                c, v_lo = 2 * c + 1, v_mid
            elif head == 0:
                return self._settle(self._point(c, k))
            else:
                c, v_hi = 2 * c - 1, v_mid
            k += 1
        head_member = self._chain[0]
        while x > y << k:
            head = _dyadic(head_member, c, k)
            if head > 0:
                c = 2 * c - 1
            elif head < 0:
                c = 2 * c + 1
            else:
                return self._settle(self._point(c, k))
            k += 1
        self._c, self._k, self._v_lo, self._v_hi = c, k, v_lo, v_hi
        lo, hi = self._point(c - 1, k), self._point(c + 1, k)
        if self.exact is None:
            # an irrational root stays irrational however far it is narrowed
            root = self._rational_root(lo, hi)
            if root is not None:
                return self._settle(root)
            self.exact = False
        return RootEnclosure(lo, hi, False)

    def _rational_root(self, lo: Fraction, hi: Fraction) -> Fraction | None:
        """The one root in (lo, hi] if it is rational, else None; hi is never a root.

        As in ``rational_roots``, a rational root of the squarefree part, with
        leading coefficient a > 0, is n / a for an integer root n of its monic
        scaling, here one in (a lo, a hi].
        """
        sf = self.counter.squarefree
        a = sf.leading
        counter = self.counter if a == 1 else SturmCounter(_monic_scaling(sf))
        found = _integer_roots(counter, floor(a * lo), floor(a * hi))
        return Fraction(found[0], a) if found else None

    def _settle(self, root: Fraction) -> RootEnclosure:
        self._settled = RootEnclosure(root, root, True)
        self.exact = True
        return self._settled


def isolate_largest_real_root(
    p: IntPolynomial, width: Fraction = Fraction(1, 10**9)
) -> RootEnclosure:
    """Certified enclosure (lo, hi] of the largest real root of p.

    When ``exact`` the two endpoints coincide with the root.  The interval
    always contains exactly one distinct root of p and no root of p lies
    above it.
    """
    if p.degree < 1:
        raise ValueError("polynomial has no roots")
    return LargestRootBisection(SturmCounter(p)).narrow(width)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial, via exact division of x^d - 1."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = IntPolynomial((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            num = num.try_exact_div(cyclotomic(e))
            if num is None:
                raise InternalInconsistencyError("cyclotomic division left a remainder")
    return num


@lru_cache(maxsize=None)
def cyclotomic_at_two(d: int) -> int:
    """The d-th cyclotomic polynomial's value at 2, never 0 (each root has modulus 1)."""
    return cyclotomic(d)(2)
