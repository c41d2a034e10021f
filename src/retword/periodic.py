"""Present any periodic sequence as the coded fixed point of a primitive substitution.

Given a period word m and any primitive substitution tau, some power tau^k
has strictly positive incidence matrix with every image longer than m.  The
product alphabet of (letter, position-in-m) pairs then carries a substitution
whose fixed point, read through the position coordinate, spells m forever;
its dominant eigenvalue is the k-th power of tau's.  The caller supplies the
primitive substitution realizing the desired dominant eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalInconsistencyError
from .intpoly import IntPolynomial
from .spectrum import RootEnclosure, certify_equal_dominant
from .substitution import (
    Alphabet,
    Morphism,
    Substitution,
    compose,
    is_primitive,
    morphic_image_prefix,
    power,
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
    # the dominant-eigenvalue certificate in a 1-tuple, filled on first use
    _dominant_cert: tuple[tuple[IntPolynomial, RootEnclosure] | None] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def product_alphabet(self) -> Alphabet:
        return self.zeta.alphabet

    def dominant_certificate(self) -> tuple[IntPolynomial, RootEnclosure] | None:
        """``certify_equal_dominant`` of zeta's matrix and tau^k's, computed once."""
        if self._dominant_cert is None:
            cert = certify_equal_dominant(self.zeta.matrix(), self.base.matrix() ** self.exponent)
            object.__setattr__(self, "_dominant_cert", (cert,))
        return self._dominant_cert[0]


@dataclass(frozen=True)
class PresentationCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class PresentationReport:
    checks: tuple[PresentationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def build_periodic_presentation(m: Word, tau: Substitution) -> PeriodicPresentation:
    """Construct the product substitution presenting m^omega.

    k is the least exponent making tau^k's matrix entrywise positive with
    every column sum (image length) exceeding |m|.  The image of (b, i) is
    the psi-column of the i-th letter of tau^k(b) for interior positions, and
    of the whole remaining tail for the last position, so images have length
    |m| except at the seam.  All invariants are re-verified before returning.
    """
    if len(m) == 0:
        raise ValueError("period word must be non-empty")
    primitive, _ = is_primitive(tau.matrix())
    if not primitive:
        raise ValueError("periodic presentation needs a primitive substitution")
    p = len(m)
    k = 1
    while True:
        mk = tau.matrix() ** k
        if mk.all_positive() and all(s > p for s in mk.column_sums()):
            break
        k += 1
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
    report = verify_presentation(presentation, check_len=4 * p)
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise InternalInconsistencyError(f"periodic construction failed checks: {failed}")
    return presentation


def verify_presentation(pres: PeriodicPresentation, check_len: int = 1000) -> PresentationReport:
    """Re-check every invariant of a presentation; failures are report entries.

    Checks: the intertwining identity zeta∘psi = psi∘tau^k letter by letter
    (naming the first offender), primitivity of zeta, the coded fixed point
    against the periodic target up to ``check_len``, the column of the period
    under coding∘psi, and exact equality of zeta's dominant eigenvalue with
    the k-th power of the base's (certified once per presentation, see
    ``PeriodicPresentation.dominant_certificate``).
    """
    checks: list[PresentationCheck] = []
    rho = power(pres.base, pres.exponent)
    lhs = compose(pres.zeta.morphism, pres.psi)
    rhs = compose(pres.psi, rho.morphism)
    bad = None
    for b in range(pres.base.alphabet.size):
        if lhs.image(b) != rhs.image(b):
            bad = pres.base.alphabet.symbol(b)
            break
    checks.append(
        PresentationCheck(
            "zeta∘psi=psi∘tau^k", bad is None, "" if bad is None else f"fails at letter {bad!r}"
        )
    )

    primitive, witness = is_primitive(pres.zeta.matrix())
    checks.append(
        PresentationCheck("zeta-primitive", primitive, f"witness exponent {witness}")
    )

    coded_ok = True
    detail = f"checked {check_len} letters"
    if check_len > 0:
        coded = morphic_image_prefix(pres.coding, pres.zeta, check_len)
        target = pres.period * (check_len // len(pres.period) + 1)
        coded_ok = coded == target[:check_len]
    else:
        detail = "prefix check skipped (length 0)"
    checks.append(PresentationCheck("coded-fixed-point-periodic", coded_ok, detail))

    column_ok = all(
        pres.coding(pres.psi.image(b)) == pres.period
        for b in range(pres.base.alphabet.size)
    )
    checks.append(PresentationCheck("coding∘psi-spells-period", column_ok))

    cert = pres.dominant_certificate()
    checks.append(
        PresentationCheck(
            "dominant-eigenvalue-power",
            cert is not None,
            "gcd certificate with isolated common root" if cert is not None else "",
        )
    )
    return PresentationReport(tuple(checks))
