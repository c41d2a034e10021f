"""Interpretations of factors, synchronization-delay search, injectivity checks.

An interpretation of a factor x cuts it as (left, core, right) where the
image of the core sits exactly inside x, the left piece is a suffix of some
letter image and the right piece a prefix of some letter image.  Two
interpretations synchronize at a cut when they place an image boundary at the
same position with the same core letter beneath it.  The synchronization
delay of a substitution is the margin beyond which every pair of
interpretations of every factor synchronizes; here it is searched over a
factor sample, never derived, so results are certificates on the sample and
lower-bound reports, not proofs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .returns import nonperiodic_check, return_substitution
from .substitution import Substitution, fixed_point_prefix, is_primitive
from .words import Word, factors


@dataclass(frozen=True)
class Interpretation:
    """x = left · tau(core) · right, with left/right trimmed from letter images."""

    left: Word
    core: Word
    right: Word

    def reconstruct(self, tau: Substitution) -> Word:
        return self.left + tau(self.core) + self.right

    def cuts(self, tau: Substitution) -> tuple[tuple[int, int], ...]:
        """(position of the image boundary, core letter) for every core letter."""
        out = []
        pos = len(self.left)
        for letter in self.core:
            out.append((pos, letter))
            pos += len(tau.image(letter))
        return tuple(out)


class _InterpretationContext:
    """Shared factor pools for enumerating interpretations over one substitution.

    ``factors`` lists the non-empty factors up to ``max_factor`` letters of a
    fixed-point prefix in lexicographic order, enumerated by
    :func:`retword.words.factors` from the prefix's distinct windows of
    ``max_factor`` letters; the pools hold scan texts.
    """

    def __init__(self, tau: Substitution, prefix_len: int, max_factor: int):
        self.tau = tau
        self.factors = factors(fixed_point_prefix(tau, prefix_len), range(1, max_factor + 1))
        self.pool = {w.scan_text for w in self.factors}
        self.images = [w.scan_text for w in tau.images]
        self.suffixes = {t[i:] for t in self.images for i in range(len(t) + 1)}
        self.prefixes = {t[:i] for t in self.images for i in range(len(t) + 1)}
        self.singles = [Word(tau.alphabet, (c,)) for c in range(tau.alphabet.size)]

    def interpretations(self, x: Word) -> list[Interpretation]:
        """Every interpretation of x, sorted by (left, core, right) scan texts.

        A worklist of partial cuts (cut, position, core) grows each core one
        letter image at a time while the longer core stays in the pool.
        """
        text = x.scan_text
        found: dict[tuple[str, str, str], Interpretation] = {}
        empty = Word(self.tau.alphabet, ())
        work = [(len(left), len(left), empty) for left in self.suffixes if text.startswith(left)]
        while work:
            cut, pos, core = work.pop()
            rest = text[pos:]
            if rest in self.prefixes:
                found[text[:cut], core.scan_text, rest] = Interpretation(x[:cut], core, x[pos:])
            for c, im in enumerate(self.images):
                if rest.startswith(im):
                    longer = core + self.singles[c]
                    if longer.scan_text in self.pool:
                        work.append((cut, pos + len(im), longer))
        return [found[key] for key in sorted(found)]


def interpretations(tau: Substitution, x: Word, search_prefix_len: int = 4000) -> list[Interpretation]:
    """All cuts of x as left · tau(core) · right with the core a factor of the
    fixed point observed in the generated prefix."""
    if len(x) == 0:
        raise ValueError("factor must be non-empty")
    ctx = _InterpretationContext(tau, search_prefix_len, len(x))
    if x.scan_text not in ctx.pool:
        raise ValueError("x does not occur in the generated prefix")
    return ctx.interpretations(x)


def sync_delay_search(
    tau: Substitution,
    d_max: int = 64,
    sample_len: int = 10,
    prefix_len: int | None = None,
) -> int | None:
    """Least delay D making every sampled interpretation pair synchronize.

    For every distinct factor up to ``sample_len`` (collected from a prefix of
    at least 50 times that length) and every ordered pair of its
    interpretations, a cut (position, letter) of one missing from the other
    forces D to at least the smaller of the two margins around the cut.  The
    returned D is exactly the largest such forcing, or None when it exceeds
    ``d_max``; boundary cuts (first and last) participate like any other.
    Absence is a lower-bound report on the sample, not a refutation of
    circularity.  A sample length below 1 samples nothing and is refused.
    """
    if sample_len < 1:
        raise ValueError(f"sample length must be >= 1, got {sample_len}")
    primitive, _ = is_primitive(tau.matrix())
    if not primitive:
        raise ValueError("delay search expects a primitive substitution")
    if prefix_len is None:
        prefix_len = max(50 * sample_len, 2000)
    ctx = _InterpretationContext(tau, prefix_len, sample_len)
    required = 0
    for x in ctx.factors:
        interps = ctx.interpretations(x)
        cut_sets = [set(i.cuts(tau)) for i in interps]
        for a in range(len(interps)):
            for b in range(len(interps)):
                if a == b:
                    continue
                for pos, letter in cut_sets[a]:
                    if (pos, letter) in cut_sets[b]:
                        continue
                    margin_left = pos
                    margin_right = len(x) - pos - len(tau.image(letter))
                    required = max(required, min(margin_left, margin_right))
                    if required > d_max:
                        return None
    return required if required <= d_max else None


@dataclass(frozen=True)
class InjectivityCertificate:
    """Outcome of pairwise-distinctness of images over decodable factors.

    ``passed`` means no two distinct words of length at most ``length_bound``
    that both occur in the fixed point and decompose over the return words on
    ``prefix`` share their image.  The certificate is monotone: passing at L
    implies passing at any shorter bound.
    """

    prefix: Word
    length_bound: int
    words_checked: int
    passed: bool
    collision: tuple[Word, Word] | None


def _require_length_bound(length_bound: int) -> None:
    if length_bound < 1:
        raise ValueError(f"injectivity length bound must be >= 1, got {length_bound}")


def _first_collision(
    sub: Substitution, words: Iterable[Word]
) -> tuple[int, tuple[Word, Word] | None]:
    """How many words were read, and the first two distinct ones sharing an image.

    Images are keyed by their scan texts, so a dict hit is an exact equality.
    """
    by_image: dict[str, Word] = {}
    checked = 0
    for word in words:
        checked += 1
        image = sub(word).scan_text
        other = by_image.get(image)
        if other is not None and other != word:
            return checked, (other, word)
        by_image[image] = word
    return checked, None


def check_injectivity(
    tau: Substitution, u: Word, length_bound: int = 30, derived_sample: int = 2000
) -> InjectivityCertificate:
    """Check the substitution is one-to-one on decodable factors up to a length.

    The words that both occur in the fixed point and split over the return
    words on u are exactly the decodings of factors of the derived sequence,
    so those are enumerated directly (every factor of a ``derived_sample``
    prefix of the derived sequence, cut from its distinct windows by
    :func:`retword.words.factors`) and their images compared pairwise
    (hashed, with exact confirmation on collision).  A length bound below 1
    checks no word and is refused.
    """
    _require_length_bound(length_bound)
    nonperiodic_check(tau)
    system, tau_u = return_substitution(tau, u)
    coding = system.coding()
    shortest = min(len(w) for w in system.return_words)
    max_derived = max(0, length_bound // max(1, shortest))
    derived_factors = []
    if max_derived:
        host = fixed_point_prefix(tau_u, derived_sample)
        derived_factors = factors(host, range(1, max_derived + 1))
    words = (w for w in map(coding, derived_factors) if len(w) <= length_bound)
    checked, collision = _first_collision(tau, words)
    return InjectivityCertificate(u, length_bound, checked, collision is None, collision)


def find_n0(
    tau: Substitution,
    length_bound: int = 30,
    max_prefix: int = 200,
    derived_sample: int = 1000,
) -> int | None:
    """Least prefix length whose injectivity certificate passes, together with
    injectivity of the return substitution on its own factors (those of a
    ``derived_sample`` prefix of its fixed point, up to ``length_bound``
    letters, enumerated by :func:`retword.words.factors`).

    None when no prefix length up to ``max_prefix`` passes; existence beyond
    the scan is not decided here.  A length bound below 1 is refused, as in
    ``check_injectivity``.
    """
    _require_length_bound(length_bound)
    nonperiodic_check(tau)
    for n in range(1, max_prefix + 1):
        u = fixed_point_prefix(tau, n)
        cert = check_injectivity(tau, u, length_bound, derived_sample)
        if not cert.passed:
            continue
        _, tau_u = return_substitution(tau, u)
        own = factors(fixed_point_prefix(tau_u, derived_sample), range(1, length_bound + 1))
        if _first_collision(tau_u, own)[1] is None:
            return n
    return None
