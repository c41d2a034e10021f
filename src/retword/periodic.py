"""Present any periodic sequence as the coded fixed point of a primitive substitution.

Given a period word m and any primitive substitution tau, some power tau^k
has strictly positive incidence matrix with every image longer than m; both
conditions are monotone in k, so the least such k is max(e, k_len) of their
least exponents, and a -> a, whose images never grow, is refused.  The
product alphabet of (letter, position-in-m) pairs then carries a substitution
whose fixed point, read through the position coordinate, spells m forever;
its dominant eigenvalue is the k-th power of tau's.  The caller supplies the
primitive substitution realizing the desired dominant eigenvalue.

Every invariant of a presentation is a :class:`~retword.checks.Check`.  The
four that do not depend on a prefix length (the intertwining identity,
primitivity of zeta, the period column under coding∘psi and the dominant
eigenvalue certificate) are computed once per presentation and kept on it;
only the coded prefix is checked again for each requested length.  The
dominant certificate is Sylvester's identity plus Perron-Frobenius: zeta's
matrix is P N with P psi's matrix and N P = M^k, so its characteristic
polynomial is x^(|A| (p - 1)) times that of M^k, and two non-negative
matrices with the same non-zero characteristic factor share their dominant
eigenvalue, with no gcd formed and no root isolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .checks import Check
from .errors import InternalInconsistencyError, require_nonnegative
from .spectrum import certify_equal_dominant
from .substitution import (
    Alphabet,
    Morphism,
    Substitution,
    compose,
    is_primitive,
    morphic_image_prefix,
    power,
    power_lengths,
)
from .words import Word


@dataclass(frozen=True)
class PeriodicPresentation:
    """The data presenting m^omega as a coded fixed point.

    ``zeta`` is the substitution on the product alphabet, ``psi`` embeds the
    base alphabet into it (letter b to the column (b, 0)...(b, |m|-1)), and
    ``coding`` projects a product letter to the period letter at its position
    coordinate.  The defining identity is zeta∘psi = psi∘tau^k.
    """

    period: Word
    exponent: int
    base: Substitution
    zeta: Substitution
    psi: Morphism
    coding: Morphism

    @property
    def product_alphabet(self) -> Alphabet:
        return self.zeta.alphabet

    @cached_property
    def structural_checks(self) -> tuple[Check, ...]:
        """The four checks independent of a prefix length, computed on first use.

        In order: zeta∘psi = psi∘tau^k letter by letter (naming the first
        offender), primitivity of zeta, the period spelled by coding∘psi on
        every base letter, and exact equality of zeta's dominant eigenvalue
        with the k-th power of the base's (tau^k's matrix is M^k).  That
        equality is Sylvester's identity: zeta's matrix is P N for psi's
        |A| p x |A| incidence matrix P and an N with N P = M^k, so
        det(xI - P N) = x^(|A| (p - 1)) det(xI - M^k).  The check's detail
        names the certificate: the gcd is the non-zero part q the two
        polynomials share, and the common root is q's Perron root, which
        ``certify_equal_dominant`` accepts with no isolation (see there); a
        hand-built presentation whose two polynomials have different
        non-zero parts takes its general path.  The cache is not a field,
        so a hand-built presentation computes its own checks.
        """
        rho = power(self.base, self.exponent)
        lhs = compose(self.zeta.morphism, self.psi)
        rhs = compose(self.psi, rho.morphism)
        base = self.base.alphabet
        bad = next(
            (base.symbol(b) for b in range(base.size) if lhs.image(b) != rhs.image(b)), None
        )
        primitive, witness = is_primitive(self.zeta.matrix())
        column_ok = all(self.coding(self.psi.image(b)) == self.period for b in range(base.size))
        equal = certify_equal_dominant(self.zeta.matrix(), rho.matrix())
        offender = None if bad is None else f"fails at letter {bad!r}"
        return (
            Check.of("zeta∘psi=psi∘tau^k", bad is None, offender),
            Check.of("zeta-primitive", primitive, f"witness exponent {witness}"),
            Check.of("coding∘psi-spells-period", column_ok),
            Check.of(
                "dominant-eigenvalue-power",
                equal,
                "gcd certificate with isolated common root" if equal else None,
            ),
        )


def build_periodic_presentation(m: Word, tau: Substitution) -> PeriodicPresentation:
    """Construct the product substitution presenting m^omega.

    k = max(e, k_len), e tau's primitivity exponent and k_len the least
    exponent whose ``power_lengths`` exceed |m|, is the least exponent with
    tau^k's matrix positive and every image longer than m: no column of M is
    zero and no image is empty, so each condition holds past its least
    exponent.  a -> a, the one primitive substitution with a one-letter start
    image, never grows, and fixed-point generation refuses it.  Any other has
    its start letter, of image length >= 2, in every image of tau^e, so
    k_len <= e + |m|.  The image of (b, i) is
    the psi-column of the i-th letter of tau^k(b) for interior positions, and
    of the whole remaining tail for the last position, so images have length
    |m| except at the seam.  All invariants are re-verified before returning.
    """
    if len(m) == 0:
        raise ValueError("period word must be non-empty")
    primitive, e = is_primitive(tau.matrix())
    if not primitive:
        raise ValueError("periodic presentation needs a primitive substitution")
    tau.fixed_point()  # refuses a -> a, whose images never grow
    p = len(m)
    lengths = power_lengths(tau, e + p)
    k_len = next(n for n, row in enumerate(lengths, start=1) if min(row) > p)
    k = max(e, k_len)
    rho = power(tau, k)
    base_alphabet = tau.alphabet
    symbols = tuple(
        f"({base_alphabet.symbol(b)},{i})" for b in range(base_alphabet.size) for i in range(p)
    )
    product = Alphabet(symbols)

    def pair(b: int, i: int) -> int:
        return b * p + i

    psi = Morphism(
        base_alphabet,
        product,
        tuple(
            Word(product, tuple(pair(b, i) for i in range(p)))
            for b in range(base_alphabet.size)
        ),
    )
    zeta_images = []
    for b in range(base_alphabet.size):
        image = rho.image(b)
        for i in range(p):
            if i < p - 1:
                zeta_images.append(psi(image[i : i + 1]))
            else:
                zeta_images.append(psi(image[p - 1 :]))
    zeta = Substitution(Morphism(product, product, tuple(zeta_images)), pair(tau.start, 0))
    coding = Morphism(
        product,
        m.alphabet,
        tuple(m[i : i + 1] for b in range(base_alphabet.size) for i in range(p)),
    )
    presentation = PeriodicPresentation(m, k, tau, zeta, psi, coding)
    failed = [c.name for c in verify_presentation(presentation, check_len=4 * p) if not c.passed]
    if failed:
        raise InternalInconsistencyError(f"periodic construction failed checks: {failed}")
    return presentation


def verify_presentation(pres: PeriodicPresentation, check_len: int = 1000) -> tuple[Check, ...]:
    """Every invariant of a presentation as a check; failures are entries, not errors.

    The coded fixed point is compared with the periodic target on its first
    ``check_len`` letters (skipped at length 0, refused below); the other
    four checks are the presentation's ``structural_checks``, computed once
    per presentation.  The order is: intertwining identity, primitivity,
    coded prefix, period column, dominant eigenvalue.
    """
    require_nonnegative("check length", check_len)
    coded_ok = True
    detail = f"checked {check_len} letters"
    if check_len > 0:
        coded = morphic_image_prefix(pres.coding, pres.zeta, check_len)
        target = pres.period * (check_len // len(pres.period) + 1)
        coded_ok = coded == target[:check_len]
    else:
        detail = "prefix check skipped (length 0)"
    identity, primitive, column, dominant = pres.structural_checks
    coded_check = Check.of("coded-fixed-point-periodic", coded_ok, detail)
    return identity, primitive, coded_check, column, dominant
