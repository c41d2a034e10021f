"""Interpretations of factors, synchronization-delay search, the least injective prefix.

An interpretation of a factor x cuts it as (left, core, right) where the
image of the core sits exactly inside x, the left piece is a suffix of some
letter image and the right piece a prefix of some letter image.  Two
interpretations synchronize at a cut when they place an image boundary at the
same position with the same core letter beneath it.  The synchronization
delay of a substitution is the margin beyond which every pair of
interpretations of every factor synchronizes; here it is searched over every
factor of at most a given length S, never derived, so a result is the
largest forcing over those factors and a lower bound on the delay, not a
proof of it.  Interpretations are kept on scan texts as (cut, end, core
text, cut set), each core checked against the fixed point's exact language
of its length (:func:`retword.substitution.language`), kept on the
substitution, and those of x·a come from those of x by one extension step,
which places each new image boundary in the cut set it carries.  The
delay search runs that step over the factors by length, one step per factor
from its parent, reads the cut sets as the step made them, and stops at the
length past which no factor can force more;
:func:`interpretations` folds the step over the letters of one factor.
``Word`` and ``Interpretation`` objects are built only for what
:func:`interpretations` returns.

Injectivity is asked of the return substitution tau_u on its own factors,
the language of its fixed point: each factor's image is one translation
through tau_u's images, with no morphism applied word by word.  That
answers for the decodable factors too, the words of the fixed point that
split over the return words on u: when tau_u is one-to-one on its own
factors of at most L letters, no two decodable factors of at most L letters
share an image under tau (see :func:`find_n0`).  The least injective prefix
is decided by the code test when tau_u's images form a code, and by that
walk over the language otherwise.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import require_nonnegative
from .returns import nonperiodic_check, return_substitution
from .substitution import Substitution, fixed_point_prefix, language
from .words import Word, _word, is_code


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


# An interpretation on scan texts: (cut, end, core text, cut set), the cut set
# holding (position of the image boundary, letter code) for every core letter.
_Thread = tuple[int, int, str, frozenset[tuple[int, int]]]

# The one interpretation of the empty word: empty margins around an empty core.
_EMPTY_WORD_THREADS: tuple[_Thread, ...] = ((0, 0, "", frozenset()),)


class _InterpretationContext:
    """What extending interpretations over one substitution reads besides
    its languages: ``suffixes`` and ``prefixes`` hold the margins letter
    images allow, and ``letters_of`` maps each image text to the core texts
    of the letters with that image.
    """

    def __init__(self, tau: Substitution):
        self.tau = tau
        self.lengths = [len(w) for w in tau.images]
        images = [w.scan_text for w in tau.images]
        self.suffixes = {t[i:] for t in images for i in range(len(t) + 1)}
        self.prefixes = {t[:i] for t in images for i in range(len(t) + 1)}
        self.letters_of: dict[str, list[str]] = {}
        for c, t in enumerate(images):
            self.letters_of.setdefault(t, []).append(chr(c))

    def extend(self, threads: Iterable[_Thread], text: str) -> list[_Thread]:
        """The interpretations of the scan text ``text`` = x·a, given
        ``threads``, those of x.  An interpretation (cut, end, core, cuts) of
        a text t says that t[:cut] is a suffix of a letter image, that the
        image of the core text is t[cut:end], and that t[end:] is a prefix of
        a letter image; the core is empty or a factor of the fixed point, and
        ``cuts`` is the set of (cut + |tau(core[:i])|, ord(core[i])) over the
        core's letters.

        Those of x·a are exactly these three kinds:

        1. (cut, end, core, cuts) of x whose right part text[end:] is still a
           prefix of a letter image;
        2. (cut, |xa|, core·c, cuts ∪ {(end, ord(c))}) for such a (cut, end,
           core, cuts) whose right part is the image of the letter c, when
           core·c is a factor, in ``language(tau, |core·c|)``;
        3. (|xa|, |xa|, ε, ∅) when x·a is a suffix of a letter image.

        Each is an interpretation of x·a, and each carries its own cut set.
        As tau(core) = t[cut:end], the cuts depend only on cut and core: kind
        1 keeps both, so it keeps the set, the very object of x's thread;
        kind 2's letter c starts exactly at the parent's end, the one cut it
        adds; kind 3 has an empty core and no cut.  So no cut set is ever
        read off a core text.

        Conversely, take one, (cut, end, core).  If end < |xa|, then cut and
        end lie in x, and x[end:] is a prefix of the right part, so (cut, end,
        core) is one of x: kind 1.  If end = |xa| and core = core'·c, images
        are non-empty, so the image of c starts at e' <= |x|, x[e':] is a
        proper prefix of that image and core' is empty or a prefix of a
        factor, so a factor too: so (cut, e', core') is one of x and the
        interpretation is of kind 2.  If end = |xa| and the core is
        empty, then cut = |xa|: kind 3.  So the step loses none.  The kinds
        are told apart by end and core, the threads of x are distinct, and in
        kind 2 the cut and core·c name the parent thread and the letter, so
        the step meets none twice.  A list, not a generator: the delay search
        keeps it for the factor's extensions, and the step's traced span
        holds the step's work.
        """
        n = len(text)
        found = []
        for thread in threads:
            cut, end, core, cuts = thread
            rest = text[end:]
            if rest in self.prefixes:
                found.append(thread)
                for c in self.letters_of.get(rest, ()):
                    longer = core + c
                    if longer in language(self.tau, len(longer)):
                        found.append((cut, n, longer, cuts | {(end, ord(c))}))
        if text in self.suffixes:
            found.append((n, n, "", frozenset()))
        return found


def interpretations(tau: Substitution, x: Word) -> list[Interpretation]:
    """All cuts of x as left · tau(core) · right with the core a factor of the
    fixed point, sorted by (left, core, right) scan texts.  The extension
    step of the delay search is folded over the letters of x, from the one
    interpretation of the empty word.  An x that is empty or no factor of the
    fixed point is refused."""
    if len(x) == 0:
        raise ValueError("factor must be non-empty")
    text = x.scan_text
    if text not in language(tau, len(text)):
        raise ValueError("x is not a factor of the fixed point")
    ctx = _InterpretationContext(tau)
    threads = _EMPTY_WORD_THREADS
    for n in range(1, len(text) + 1):
        threads = ctx.extend(threads, text[:n])
    found = sorted((text[:cut], core, text[end:]) for cut, end, core, _ in threads)
    return [
        Interpretation(x[: len(left)], _word(tau.alphabet, core), x[len(x) - len(right) :])
        for left, core, right in found
    ]


def sync_delay_search(tau: Substitution, d_max: int = 64, sample_len: int = 10) -> int | None:
    """Least delay D making every interpretation pair of every factor of at
    most ``sample_len`` letters synchronize.

    For every factor of the fixed point of at most ``sample_len`` letters
    (the exact languages of :func:`retword.substitution.language`) and every
    ordered pair of its interpretations, a cut (position, letter) of one
    missing from the other forces D to at least the smaller of the two
    margins around the cut.  The returned D is exactly the largest such
    forcing, or None when it exceeds ``d_max``; boundary cuts (first and
    last) participate like any other.  Longer factors are not read, so D is
    a lower bound on the true delay and None no refutation of circularity.

    The factors are visited by length, each one extension step from its
    parent, its longest proper prefix, whose interpretations the previous
    length keeps by text.  A core is checked against the language of its
    own length, and images are non-empty, so a core of an interpretation of
    an n-letter factor has at most n letters and is checked against the
    exact language L_m of some m <= n.  The search stops before length n once
    n > 2(R + 1) + L, R the forcing found so far and L the longest image: no
    longer factor forces more.  Suppose a factor x has a forcing cut (p, c) of
    margin m > R: it is in one interpretation of x and missing from another.
    Take the window of R + 1 letters on each side of tau(c), or, when the
    window lies strictly inside one piece of the other interpretation (its
    left margin, a core letter's image or its right margin), that piece,
    of at most L letters.  Restrict both interpretations to it: the margins
    stay suffixes and prefixes of letter images, and the restricted cores
    are factors of factors, so factors too, in the languages of their
    lengths.  The restriction is a factor of x of at most 2(R + 1) + L < n
    letters, so it was read, and the cut is in one restricted cut set but
    not in the other, with margin at least R + 1 > R, which cannot be.  So
    R is the largest forcing over every factor of at most ``sample_len``
    letters.

    No pair is formed: a cut is in one interpretation's cut set and missing
    from another's exactly when it is in some cut set but not in all of them,
    so the forcing cuts of a factor are the union of its cut sets minus their
    intersection, and a factor with one interpretation forces nothing.  Each
    interpretation's cut set is the one the extension step carries; the image
    lengths give only the right margin of a forcing cut.
    The order of a length's factors decides nothing: R is a maximum, and
    ``required`` only grows, so stopping at the first factor that takes it
    past ``d_max`` gives the same None.

    A length below 1 reads no factor and is refused, as is a negative
    ``d_max``; so are a periodic fixed point and a non-primitive
    substitution, as in :func:`find_n0`.
    """
    if sample_len < 1:
        raise ValueError(f"sample length must be >= 1, got {sample_len}")
    require_nonnegative("delay bound", d_max)
    nonperiodic_check(tau)
    ctx = _InterpretationContext(tau)
    lengths = ctx.lengths
    longest = max(lengths)
    required = 0
    parents = {"": _EMPTY_WORD_THREADS}
    for n in range(1, sample_len + 1):
        if n > 2 * (required + 1) + longest:
            break
        threads = {}
        for x in language(tau, n):
            found = threads[x] = ctx.extend(parents[x[:-1]], x)
            if len(found) < 2:
                continue
            cut_sets = [cuts for *_, cuts in found]
            for pos, letter in frozenset.union(*cut_sets) - frozenset.intersection(*cut_sets):
                required = max(required, min(pos, n - pos - lengths[letter]))
            if required > d_max:
                return None
        parents = threads
    return required


def _own_factors_collide(sub: Substitution, length_bound: int) -> bool:
    """Whether two distinct factors of the fixed point of ``sub`` of at most
    ``length_bound`` letters share an image under ``sub``.

    Each factor of :func:`retword.substitution.language` is translated
    through the scan texts of ``sub``'s images, with no per-word morphism
    call.  The factors of each length are distinct, and factors of different
    lengths differ, so an image met twice is the image of two distinct
    factors.
    """
    table = sub.morphism._table
    seen: set[str] = set()
    for n in range(1, length_bound + 1):
        for factor in language(sub, n):
            key = factor.translate(table)
            if key in seen:
                return True
            seen.add(key)
    return False


def find_n0(tau: Substitution, length_bound: int = 30, max_prefix: int = 200) -> int | None:
    """Least prefix length n whose return substitution tau_u, on the prefix u
    of length n, is one-to-one on its own factors: those of at most
    ``length_bound`` letters of its fixed point must have pairwise distinct
    images, which :func:`_own_factors_collide` checks.  That answers for the
    decodable factors, the words that occur in
    the fixed point and split over the return words on u; they are exactly
    the decodings c(f) of the derived factors f, the factors of tau_u's fixed
    point, c the coding onto the return words (Durand, *Discrete Math.* 179,
    1998).  Take derived factors f and g:

    - tau(c(f)) = tau(c(g)) exactly when tau_u(f) = tau_u(g).  The left side
      is c(tau_u(f)) = c(tau_u(g)), as tau∘c = c∘tau_u; both tau_u(f) and
      tau_u(g) are derived factors, and c is one-to-one on derived factors:
      the occurrences of u in c(f)·u cut it back into f.
    - Every return word has at least one letter, so |f| <= |c(f)|, and a
      decodable factor of at most L letters is c(f) for a derived factor f
      of at most L letters.

    So when tau_u is one-to-one on its own factors of at most L letters, no
    two decodable factors of at most L letters share an image under tau.

    Each n first asks :func:`retword.words.is_code` of tau_u's images, and
    walks the factors only when they are not a code.  Images that are
    distinct and form a code make tau_u one-to-one on all words, so no two
    distinct factors share an image and the walk would pass at that n too:
    the answer is the same.  The walk reads tau_u's exact language, so every
    n below the answer was rejected by a collision between two real factors
    of tau_u's fixed point, and n0 is decided for the length bound, not
    sampled.

    None when no prefix length up to ``max_prefix`` passes; existence beyond
    the scan is not decided here.  A length bound below 1 checks no factor
    and is refused, and so is a negative ``max_prefix``.
    """
    if length_bound < 1:
        raise ValueError(f"injectivity length bound must be >= 1, got {length_bound}")
    require_nonnegative("prefix bound", max_prefix)
    nonperiodic_check(tau)
    for n in range(1, max_prefix + 1):
        _, tau_u = return_substitution(tau, fixed_point_prefix(tau, n))
        if is_code(w.scan_text for w in tau_u.images) or not _own_factors_collide(tau_u, length_bound):
            return n
    return None
