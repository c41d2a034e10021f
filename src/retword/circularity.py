"""Interpretations of factors, synchronization-delay search, injectivity checks.

An interpretation of a factor x cuts it as (left, core, right) where the
image of the core sits exactly inside x, the left piece is a suffix of some
letter image and the right piece a prefix of some letter image.  Two
interpretations synchronize at a cut when they place an image boundary at the
same position with the same core letter beneath it.  The synchronization
delay of a substitution is the margin beyond which every pair of
interpretations of every factor synchronizes; here it is searched over a
factor sample, never derived, so results are certificates on the sample and
lower-bound reports, not proofs.  Interpretations are enumerated on scan
texts, each core grown one code point at a time against a pool of factor
texts, and the search reads each one's cuts off its core text; ``Word`` and
``Interpretation`` objects are built only for what :func:`interpretations`
returns.

Injectivity is checked over decodable factors, which are the decodings of
the factors of the derived sequence, on the distinct factors of a derived
prefix.  That prefix is translated once through the coding and once through
the substitution, and every factor's decoded length and image are read off
the two translations at one of its start positions, with no morphism applied
word by word.  The return substitution's check on its own factors is the
same walk with the identity coding.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

from .errors import require_nonnegative
from .returns import nonperiodic_check, return_substitution
from .substitution import (
    Morphism,
    Substitution,
    fixed_point_prefix,
    identity_morphism,
    is_primitive,
)
from .words import Word, _word, factor_spans


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
    """Shared pools for enumerating interpretations over one substitution.

    ``factors`` lists the scan texts of the non-empty factors up to
    ``max_factor`` letters of a fixed-point prefix in lexicographic order,
    sliced at the spans :func:`retword.words.factor_spans` yields, with no
    ``Word`` per factor; ``pool`` holds the same texts, and ``suffixes`` and
    ``prefixes`` the margins letter images allow.
    """

    def __init__(self, tau: Substitution, prefix_len: int, max_factor: int):
        text = fixed_point_prefix(tau, prefix_len).scan_text
        self.factors = [text[i:j] for i, j in factor_spans(text, range(1, max_factor + 1))]
        self.pool = set(self.factors)
        self.images = [w.scan_text for w in tau.images]
        self.suffixes = {t[i:] for t in self.images for i in range(len(t) + 1)}
        self.prefixes = {t[:i] for t in self.images for i in range(len(t) + 1)}

    def walk(self, text: str) -> list[tuple[int, int, str]]:
        """(cut, end, core) for every interpretation of the scan text ``text``:
        text[:cut] is a suffix of a letter image, the image of the core text
        is text[cut:end] and text[end:] is a prefix of a letter image.

        A worklist of partial cores grows each core one letter image at a
        time while the longer core stays in the pool.  Each start has its own
        cut and the cores grown from one partial core differ in their last
        letter, so no interpretation is met twice.  A list, not a generator,
        so that the walk's time stays in its own traced span.
        """
        found = []
        work = [(len(left), len(left), "") for left in self.suffixes if text.startswith(left)]
        while work:
            cut, pos, core = work.pop()
            rest = text[pos:]
            if rest in self.prefixes:
                found.append((cut, pos, core))
            for c, im in enumerate(self.images):
                if rest.startswith(im):
                    longer = core + chr(c)
                    if longer in self.pool:
                        work.append((cut, pos + len(im), longer))
        return found


def interpretations(tau: Substitution, x: Word, search_prefix_len: int = 4000) -> list[Interpretation]:
    """All cuts of x as left · tau(core) · right with the core a factor of the
    fixed point observed in the generated prefix, sorted by (left, core,
    right) scan texts."""
    if len(x) == 0:
        raise ValueError("factor must be non-empty")
    ctx = _InterpretationContext(tau, search_prefix_len, len(x))
    text = x.scan_text
    if text not in ctx.pool:
        raise ValueError("x does not occur in the generated prefix")
    found = sorted((text[:cut], core, text[end:]) for cut, end, core in ctx.walk(text))
    return [
        Interpretation(x[: len(left)], _word(tau.alphabet, core), x[len(x) - len(right) :])
        for left, core, right in found
    ]


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
    circularity.

    No pair is formed: a cut is in one interpretation's cut set and missing
    from another's exactly when it is in some cut set but not in all of them,
    so the forcing cuts of a factor are the union of its cut sets minus their
    intersection, and a factor with one interpretation forces nothing.  Each
    interpretation's cuts are read off its core text and the image lengths.
    ``required`` only grows, so stopping at the first factor that takes it
    past ``d_max`` gives the same None.

    A sample length below 1 samples nothing and is refused, as is a negative
    ``d_max``; so is a periodic fixed point, as in :func:`find_n0`.
    """
    if sample_len < 1:
        raise ValueError(f"sample length must be >= 1, got {sample_len}")
    require_nonnegative("delay bound", d_max)
    primitive, _ = is_primitive(tau.matrix())
    if not primitive:
        raise ValueError("delay search expects a primitive substitution")
    nonperiodic_check(tau)
    if prefix_len is None:
        prefix_len = max(50 * sample_len, 2000)
    ctx = _InterpretationContext(tau, prefix_len, sample_len)
    lengths = [len(im) for im in ctx.images]
    required = 0
    for x in ctx.factors:
        found = ctx.walk(x)
        if len(found) < 2:
            continue
        cut_sets = []
        for cut, _, core in found:
            cuts = set()
            for letter in map(ord, core):
                cuts.add((cut, letter))
                cut += lengths[letter]
            cut_sets.append(cuts)
        for pos, letter in set.union(*cut_sets) - set.intersection(*cut_sets):
            required = max(required, min(pos, len(x) - pos - lengths[letter]))
        if required > d_max:
            return None
    return required


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
    host: Word, coding: Morphism, sub: Substitution, max_factor: int, length_bound: int
) -> tuple[int, tuple[Word, Word] | None]:
    """How many decoded factors were read, and the first two distinct ones sharing an image.

    The words read are coding(f) for the distinct factors f of ``host`` with at
    most ``max_factor`` letters whose decoding has at most ``length_bound``
    letters, taken in the lexicographic order of the factors, the order
    :func:`retword.words.factor_spans` yields them in.  The host is
    translated once through the coding and once more through ``sub``; prefix
    sums of the per-letter decoded and image lengths then give each factor's
    decoded length and image as slices at the start the walk gives for it,
    with no per-word morphism call.  Return words form a code, as does the
    identity coding :func:`find_n0` passes, so distinct factors decode to
    distinct words and the first image met twice is the first collision; a
    second walk finds the earlier word with that image.
    """
    text = host.scan_text
    image = sub(coding(host)).scan_text
    letter_lengths = [len(w) for w in sub.images]
    decoded_lengths = [len(w) for w in coding.images]
    image_lengths = [sum(map(letter_lengths.__getitem__, w)) for w in coding.images]
    letters = list(map(ord, text))
    decoded_at = list(accumulate(map(decoded_lengths.__getitem__, letters), initial=0))
    image_at = list(accumulate(map(image_lengths.__getitem__, letters), initial=0))

    def words() -> Iterator[tuple[int, int, str]]:
        for i, j in factor_spans(text, range(1, max_factor + 1)):
            if decoded_at[j] - decoded_at[i] <= length_bound:
                yield i, j, image[image_at[i] : image_at[j]]

    seen: set[str] = set()
    for i, j, key in words():
        if key in seen:
            a, b = next((a, b) for a, b, other in words() if other == key)
            return len(seen) + 1, (coding(host[a:b]), coding(host[i:j]))
        seen.add(key)
    return len(seen), None


def check_injectivity(
    tau: Substitution, u: Word, length_bound: int = 30, derived_sample: int = 2000
) -> InjectivityCertificate:
    """Check the substitution is one-to-one on decodable factors up to a length.

    The words that both occur in the fixed point and split over the return
    words on u are exactly the decodings of factors of the derived sequence
    (Durand, *Discrete Math.* 179, 1998), so those are enumerated directly:
    the decodings of at most ``length_bound`` letters of the distinct factors
    of a ``derived_sample`` prefix of the derived sequence.  That prefix is
    translated once through the coding and once through tau, and each
    factor's decoding and image are read off the two translations by
    :func:`_first_collision`.  ``words_checked`` counts every word when no
    two images agree, and otherwise the words up to the first collision in
    the lexicographic order of their derived factors.  A length bound below 1
    checks no word and is refused.
    """
    _require_length_bound(length_bound)
    nonperiodic_check(tau)
    system, tau_u = return_substitution(tau, u)
    shortest = min(len(w) for w in system.return_words)
    max_derived = length_bound // max(1, shortest)
    checked, collision = 0, None
    if max_derived:
        host = fixed_point_prefix(tau_u, derived_sample)
        checked, collision = _first_collision(host, system.coding(), tau, max_derived, length_bound)
    return InjectivityCertificate(u, length_bound, checked, collision is None, collision)


def find_n0(
    tau: Substitution,
    length_bound: int = 30,
    max_prefix: int = 200,
    derived_sample: int = 1000,
) -> int | None:
    """Least prefix length whose injectivity certificate passes, together with
    injectivity of the return substitution on its own factors: those of a
    ``derived_sample`` prefix of its fixed point up to ``length_bound``
    letters must have pairwise distinct images.  That check is
    :func:`_first_collision` with the identity coding, on the host
    ``check_injectivity`` derives: every factor decodes to itself, so all of
    them are read and the images come from one translation of the host.

    None when no prefix length up to ``max_prefix`` passes; existence beyond
    the scan is not decided here.  A length bound below 1 is refused, as in
    ``check_injectivity``, and so is a negative ``max_prefix``.
    """
    _require_length_bound(length_bound)
    require_nonnegative("prefix bound", max_prefix)
    nonperiodic_check(tau)
    for n in range(1, max_prefix + 1):
        u = fixed_point_prefix(tau, n)
        if not check_injectivity(tau, u, length_bound, derived_sample).passed:
            continue
        _, tau_u = return_substitution(tau, u)
        host = fixed_point_prefix(tau_u, derived_sample)
        identity = identity_morphism(tau_u.alphabet)
        if _first_collision(host, identity, tau_u, length_bound, length_bound)[1] is None:
            return n
    return None
