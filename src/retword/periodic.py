"""Present any periodic sequence as the coded fixed point of a primitive substitution.

Given a period word m and any primitive substitution tau, some power tau^k
has strictly positive incidence matrix with every image longer than m; both
conditions are monotone in k, so the least such k is max(e, k_len) of their
least exponents, and a -> a, whose images never grow, is refused.  The
product alphabet of (letter, position-in-m) pairs then carries a substitution
whose fixed point, read through the position coordinate, spells m forever;
its dominant eigenvalue is the k-th power of tau's.  The caller supplies the
primitive substitution realizing the desired dominant eigenvalue.

Every invariant of a presentation is a :class:`~retword.checks.Check`.  Four
of them (the intertwining identity, primitivity of zeta, the period column
under coding∘psi and the dominant eigenvalue certificate) are computed once
per presentation and kept on it, and the construction guards on them.  The
intertwining identity is decided by ``first_mismatch``, with no morphism
composed; with the period column and two facts about start letters it
implies that the coded fixed point is m^omega, so the fifth check, the coded
prefix, is decided from them and no prefix is generated.  Primitivity and
the dominant certificate rest on the factorization Z = P N of zeta's matrix
Z, with P psi's 0/1 matrix (one 1 per row, the base letter of a product
letter) and N Z's rows at the first product letter of each base letter, and
on N P = M^k, tau^k's matrix.  Z = P N is checked on the matrices, and
N P = M^k follows from it and the intertwining identity, so M^k is not
counted and no characteristic polynomial is formed:

- Sylvester's identity gives det(xI - Z) = x^(|A| (p - 1)) det(xI - M^k),
  and two non-negative matrices with the same non-zero characteristic
  factor share their dominant eigenvalue (Perron-Frobenius), with no gcd
  formed and no root isolated.
- Z^2 = P M^k N, which is positive when M^k is, since no zeta image is
  empty; so zeta is primitive with least exponent 1 when Z > 0 and 2
  otherwise.

A presentation where the intertwining identity or the factorization fails
takes the general paths, ``certify_equal_dominant`` and ``is_primitive``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .checks import Check
from .errors import InternalInconsistencyError
from .spectrum import certify_equal_dominant
from .substitution import (
    Alphabet,
    IncidenceMatrix,
    Morphism,
    Substitution,
    first_mismatch,
    is_primitive,
    power,
    power_lengths,
)
from .words import Word, _word


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
        """The four checks the coded-prefix check is derived from, computed on first use.

        In order: zeta∘psi = psi∘tau^k letter by letter (naming the first
        offender), decided by ``first_mismatch`` with no morphism composed;
        primitivity of zeta, the period spelled by coding∘psi on every base
        letter, and exact equality of zeta's dominant eigenvalue with the
        k-th power of the base's (tau^k's matrix is M^k).

        Primitivity and the dominant check are read off the factorization
        of zeta's matrix Z (see ``_factors``): Z = P N for psi's |A| p x |A|
        matrix P, with one 1 per row, and then N P = M^k by the intertwining
        identity, so M^k is read off N P and not counted.  Then:

        - det(xI - P N) = x^(|A| (p - 1)) det(xI - N P) (Sylvester), so Z and
          M^k share their non-zero characteristic factor, whose degree is at
          least 1 since M^k's columns are non-zero.  Both are non-negative,
          so their spectral radius is their common dominant eigenvalue
          (Perron-Frobenius), and the check passes with no polynomial formed.
          It keeps the detail ``gcd certificate with isolated common root``,
          which names the certificate of the general path, so that reports
          stay byte-identical.
        - Z^2 = P (N P) N = P M^k N.  When M^k > 0, entry (r, j) is positive
          once column j of N is non-zero, which it is because zeta(j) is not
          empty.  So Z's least positive power is 1 when Z > 0 and 2
          otherwise, the answer of ``is_primitive``.

        Where the identity or the factorization fails (a hand-built or
        tampered presentation), ``certify_equal_dominant`` and
        ``is_primitive`` decide, on M^k counted from tau^k's images, and so
        does ``is_primitive`` where M^k is not positive.  A failed
        check carries no detail.  The cache is not a field, so a hand-built
        presentation computes its own checks.
        """
        rho = power(self.base, self.exponent)
        base, psi, z = self.base.alphabet, self.psi, self.zeta.matrix()
        bad = first_mismatch((self.zeta.morphism, psi), (psi, rho.morphism))
        mk = _factors(z, psi) if bad is None else None
        equal = mk is not None or certify_equal_dominant(z, rho.matrix())
        if mk is not None and mk.all_positive():
            primitive, witness = True, 1 if z.all_positive() else 2
        else:
            primitive, witness = is_primitive(z)
        column_ok = all(self.coding(self.psi.image(b)) == self.period for b in range(base.size))
        offender = None if bad is None else f"fails at letter {base.symbol(bad)!r}"
        return (
            Check.of("zeta∘psi=psi∘tau^k", bad is None, offender),
            Check.of(
                "zeta-primitive", primitive, f"witness exponent {witness}" if primitive else None
            ),
            Check.of("coding∘psi-spells-period", column_ok),
            Check.of(
                "dominant-eigenvalue-power",
                equal,
                "gcd certificate with isolated common root" if equal else None,
            ),
        )


def _factors(z: IncidenceMatrix, psi: Morphism) -> IncidenceMatrix | None:
    """N P when z = P N, for P psi's incidence matrix with one 1 per row and
    N z's rows at the first letter of each psi image; None when z does not
    factor so.

    P is read off psi's images: it has one 1 per row exactly when every
    letter of psi's target occurs once among them, and row r's 1 is then in
    the column of the image holding r.  z = P N says that z's row at each
    letter equals N's row at its image, and (N P)[b, c] sums row b of N over
    the letters of psi(c).  Once the intertwining identity has passed, N P
    is tau^k's matrix M^k: z P = P M^k gives P (N P - M^k) = 0, whose row r
    is row b of N P - M^k for the psi(b) holding r, and no psi(b) is empty.
    """
    texts = [w.scan_text for w in psi.images]
    if "" in texts or sum(map(len, texts)) != z.nrows:
        return None
    block: list[int | None] = [None] * z.nrows
    for b, text in enumerate(texts):
        for c in text:
            block[ord(c)] = b
    if None in block:  # a letter met twice, so another never
        return None
    n = tuple(z.rows[ord(text[0])] for text in texts)
    if z.rows != tuple(map(n.__getitem__, block)):
        return None
    return IncidenceMatrix(
        tuple(sum(map(row.__getitem__, map(ord, text))) for text in texts) for row in n
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
    |m| except at the seam.

    The structural checks are verified before returning; with psi(start)
    beginning with (start, 0), whose image has at least 2 letters (|m| of
    them, or all of tau^k(start) when |m| = 1), they imply the coded-prefix
    check, which ``verify_presentation`` derives from them.
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

    # psi's columns and zeta's images as scan texts: an interior position
    # takes the column of one letter of tau^k(b), the last one the tail's
    columns = tuple("".join(map(chr, range(b * p, (b + 1) * p))) for b in range(base_alphabet.size))
    psi = Morphism(base_alphabet, product, tuple(_word(product, c) for c in columns))
    zeta_texts: list[str] = []
    for image in rho.images:
        text = image.scan_text
        zeta_texts += map(columns.__getitem__, map(ord, text[: p - 1]))
        zeta_texts.append(text[p - 1 :].translate(columns))
    zeta = Substitution(
        Morphism(product, product, tuple(_word(product, t) for t in zeta_texts)), tau.start * p
    )
    coding = Morphism(
        product, m.alphabet, tuple(_word(m.alphabet, c) for c in m.scan_text) * base_alphabet.size
    )
    presentation = PeriodicPresentation(m, k, tau, zeta, psi, coding)
    failed = [c.name for c in presentation.structural_checks if not c.passed]
    if failed:
        raise InternalInconsistencyError(f"periodic construction failed checks: {failed}")
    return presentation


def verify_presentation(pres: PeriodicPresentation) -> tuple[Check, ...]:
    """Every invariant of a presentation as a check; failures are entries, not errors.

    Four checks are the presentation's ``structural_checks``, computed once
    per presentation.  The fifth, that the coded fixed point is m^omega, is
    decided from them with no prefix generated.  Write a and c for tau's and
    zeta's start letters.  It passes exactly when the intertwining identity
    and the period column pass, psi(a) begins with c and |zeta(c)| >= 2,
    which together imply it:

    - zeta^n(psi(a)) = psi(tau^(k n)(a)) by the identity, and its coding is
      a power of m, since coding∘psi spells m on every letter.
    - zeta^n(c) is a prefix of zeta^n(psi(a)), so its coding is a prefix of
      m^omega.
    - zeta(c) begins with c and no image is empty, so |zeta^n(c)| >= n + 1
      and the zeta^n(c) are longer and longer prefixes of zeta's fixed
      point.  The (letter-to-letter) coding of that fixed point is m^omega.

    A failed check carries no detail.  The order is: intertwining identity,
    primitivity, coded prefix, period column, dominant eigenvalue.
    """
    identity, primitive, column, dominant = pres.structural_checks
    start = pres.zeta.start
    implied = (
        identity.passed
        and column.passed
        and pres.psi.image(pres.base.start).scan_text.startswith(chr(start))
        and len(pres.zeta.image(start)) >= 2
    )
    detail = "implied by zeta∘psi=psi∘tau^k and coding∘psi-spells-period" if implied else None
    coded_check = Check.of("coded-fixed-point-periodic", implied, detail)
    return identity, primitive, coded_check, column, dominant
