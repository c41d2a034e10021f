"""Interpretations of factors, synchronization-delay search, injectivity checks.

An interpretation of a factor x cuts it as (left, core, right) where the
image of the core sits exactly inside x, the left piece is a suffix of some
letter image and the right piece a prefix of some letter image.  Two
interpretations synchronize at a cut when they place an image boundary at the
same position with the same core letter beneath it.  The synchronization
delay of a substitution is the margin beyond which every pair of
interpretations of every factor synchronizes; here it is searched over a
factor sample, never derived, so results are certificates on the sample and
lower-bound reports, not proofs.  Interpretations are kept on scan texts as
(cut, end, core text), the cores checked against a pool of factor texts, and
those of x·a come from those of x by one extension step.  The search runs
that step along the trie order of the sampled factors, one step per factor
from its parent, and reads each interpretation's cuts off its core text;
:func:`interpretations` folds the step over the letters of one factor.
``Word`` and ``Interpretation`` objects are built only for what
:func:`interpretations` returns.

Injectivity is checked over decodable factors, the decodings c(f) of the
factors f of the derived sequence, on the distinct factors of a derived
prefix.  Since tau∘c = c∘tau_u and c is one-to-one on derived factors, the
images of two decodings agree exactly when the tau_u-images of the factors
agree; so the prefix is translated once, through tau_u, and each factor's
image and decoded length are read off that translation and the return-word
lengths at one of its start positions, with no morphism applied word by
word.  The least injective prefix asks only whether tau_u is one-to-one on
its own factors, the same walk with each letter weighing 1; that implies
the decoded check on the same prefix.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate

from .errors import require_nonnegative
from .returns import nonperiodic_check, return_substitution
from .substitution import Substitution, fixed_point_prefix, is_primitive
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


# The one interpretation of the empty word: empty margins around an empty core.
_EMPTY_WORD_THREADS = ((0, 0, ""),)


class _InterpretationContext:
    """Shared pools for extending interpretations over one substitution.

    ``factors`` lists the scan texts of the non-empty factors up to
    ``max_factor`` letters of a fixed-point prefix in the trie order
    :func:`retword.words.factor_spans` yields (a factor before its
    extensions), sliced at its spans with no ``Word`` per factor; ``pool``
    holds the same texts, ``suffixes`` and ``prefixes`` the margins letter
    images allow, and ``letters_of`` maps each image text to the core texts
    of the letters with that image.
    """

    def __init__(self, tau: Substitution, prefix_len: int, max_factor: int):
        text = fixed_point_prefix(tau, prefix_len).scan_text
        self.factors = [text[i:j] for i, j in factor_spans(text, range(1, max_factor + 1))]
        self.pool = set(self.factors)
        self.lengths = [len(w) for w in tau.images]
        images = [w.scan_text for w in tau.images]
        self.suffixes = {t[i:] for t in images for i in range(len(t) + 1)}
        self.prefixes = {t[:i] for t in images for i in range(len(t) + 1)}
        self.letters_of: dict[str, list[str]] = {}
        for c, t in enumerate(images):
            self.letters_of.setdefault(t, []).append(chr(c))

    def extend(
        self, threads: Iterable[tuple[int, int, str]], text: str
    ) -> list[tuple[int, int, str]]:
        """The interpretations of the scan text ``text`` = x·a, given
        ``threads``, those of x.  An interpretation (cut, end, core) of a
        text t says that t[:cut] is a suffix of a letter image, that the image
        of the core text is t[cut:end], and that t[end:] is a prefix of a
        letter image; the core is empty or in the pool.

        Those of x·a are exactly these three kinds:

        1. (cut, end, core) of x whose right part text[end:] is still a
           prefix of a letter image;
        2. (cut, |xa|, core·c) for such a (cut, end, core) whose right part
           is the image of the letter c, when core·c is in the pool;
        3. (|xa|, |xa|, ε) when x·a is a suffix of a letter image.

        Each is an interpretation of x·a.  Conversely, take one, (cut, end,
        core).  If end < |xa|, then cut and end lie in x, and x[end:] is a
        prefix of the right part, so (cut, end, core) is one of x: kind 1.  If
        end = |xa| and core = core'·c, images are non-empty, so the image of c
        starts at e' <= |x|, x[e':] is a proper prefix of that image and core'
        is empty or a prefix of a pool text, which the pool holds with it: so
        (cut, e', core') is one of x and the interpretation is of kind 2.  If
        end = |xa| and the core is empty, then cut = |xa|: kind 3.  So the
        step loses none.  The kinds are told apart by end and core, the
        threads of x are distinct, and in kind 2 the cut and core·c name the
        parent thread and the letter, so the step meets none twice.  A list,
        not a generator: the delay search keeps it for the factor's
        extensions, and the step's traced span holds the step's work.
        """
        n = len(text)
        found = []
        for cut, end, core in threads:
            rest = text[end:]
            if rest in self.prefixes:
                found.append((cut, end, core))
                for c in self.letters_of.get(rest, ()):
                    longer = core + c
                    if longer in self.pool:
                        found.append((cut, n, longer))
        if text in self.suffixes:
            found.append((n, n, ""))
        return found


def interpretations(tau: Substitution, x: Word, search_prefix_len: int = 4000) -> list[Interpretation]:
    """All cuts of x as left · tau(core) · right with the core a factor of the
    fixed point observed in the generated prefix, sorted by (left, core,
    right) scan texts.  The extension step of the delay search is folded over
    the letters of x, from the one interpretation of the empty word."""
    if len(x) == 0:
        raise ValueError("factor must be non-empty")
    ctx = _InterpretationContext(tau, search_prefix_len, len(x))
    text = x.scan_text
    if text not in ctx.pool:
        raise ValueError("x does not occur in the generated prefix")
    threads = _EMPTY_WORD_THREADS
    for n in range(1, len(text) + 1):
        threads = ctx.extend(threads, text[:n])
    found = sorted((text[:cut], core, text[end:]) for cut, end, core in threads)
    return [
        Interpretation(x[: len(left)], _word(tau.alphabet, core), x[len(x) - len(right) :])
        for left, core, right in found
    ]


def sync_delay_search(tau: Substitution, d_max: int = 64, sample_len: int = 10) -> int | None:
    """Least delay D making every sampled interpretation pair synchronize.

    For every distinct factor up to ``sample_len`` (collected from a prefix of
    max(50 · ``sample_len``, 2000) letters) and every ordered pair of its
    interpretations, a cut (position, letter) of one missing from the other
    forces D to at least the smaller of the two margins around the cut.  The
    returned D is exactly the largest such forcing, or None when it exceeds
    ``d_max``; boundary cuts (first and last) participate like any other.
    Absence is a lower-bound report on the sample, not a refutation of
    circularity.

    The factors come in trie order, so a factor's parent, its longest proper
    prefix, is the last factor one letter shorter met before it.  A stack
    keeps the interpretations of the last factor of each length, and a
    factor's are one extension step from the top of the stack once the
    entries of its own length and longer are dropped.

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
    ctx = _InterpretationContext(tau, max(50 * sample_len, 2000), sample_len)
    lengths = ctx.lengths
    required = 0
    stack = [_EMPTY_WORD_THREADS]
    for x in ctx.factors:
        del stack[len(x) :]
        found = ctx.extend(stack[-1], x)
        stack.append(found)
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
    host: Word, sub: Substitution, weights: list[int], length_bound: int
) -> tuple[int, tuple[Word, Word] | None]:
    """How many factors were read, and the first two distinct ones sharing an image.

    The factors read are the distinct factors of ``host`` whose letters weigh
    at most ``length_bound`` together, letter b weighing ``weights[b]``,
    taken in the lexicographic order :func:`retword.words.factor_spans`
    yields them in; none has more than ``length_bound // min(weights)``
    letters.  The host is translated once through ``sub``; prefix sums of the
    weights and of the image lengths then give each factor's weight and image
    as slices at the start the walk gives for it, with no per-word morphism
    call.  Each image is kept with the span of the first factor that has it,
    so the first image met twice names both words of the first collision.
    """
    text = host.scan_text
    image = sub(host).scan_text
    image_lengths = [len(w) for w in sub.images]
    letters = list(map(ord, text))
    weight_at = list(accumulate(map(weights.__getitem__, letters), initial=0))
    image_at = list(accumulate(map(image_lengths.__getitem__, letters), initial=0))
    first: dict[str, tuple[int, int]] = {}
    for i, j in factor_spans(text, range(1, length_bound // min(weights) + 1)):
        if weight_at[j] - weight_at[i] > length_bound:
            continue
        key = image[image_at[i] : image_at[j]]
        if key in first:
            a, b = first[key]
            return len(first) + 1, (host[a:b], host[i:j])
        first[key] = (i, j)
    return len(first), None


def check_injectivity(
    tau: Substitution, u: Word, length_bound: int = 30, derived_sample: int = 2000
) -> InjectivityCertificate:
    """Check the substitution is one-to-one on decodable factors up to a length.

    The words that both occur in the fixed point and split over the return
    words on u are exactly the decodings c(f) of factors f of the derived
    sequence (Durand, *Discrete Math.* 179, 1998): here those of at most
    ``length_bound`` letters, f running over the distinct factors of a
    ``derived_sample`` prefix of the derived sequence.  As tau(c(f)) =
    tau(c(g)) exactly when tau_u(f) = tau_u(g) (see :func:`find_n0`),
    :func:`_first_collision` compares the images under the return
    substitution tau_u, each letter weighing the length of its return word,
    and a collision is mapped through c once.  ``words_checked`` counts
    every word when no two images agree, and otherwise the words up to the
    first collision in the lexicographic order of their derived factors.  A
    length bound below 1 checks no word and is refused.
    """
    _require_length_bound(length_bound)
    nonperiodic_check(tau)
    system, tau_u = return_substitution(tau, u)
    weights = [len(w) for w in system.return_words]
    checked, collision = 0, None
    if length_bound >= min(weights):
        host = fixed_point_prefix(tau_u, derived_sample)
        checked, collision = _first_collision(host, tau_u, weights, length_bound)
        if collision is not None:
            collision = tuple(map(system.coding(), collision))
    return InjectivityCertificate(u, length_bound, checked, collision is None, collision)


def find_n0(
    tau: Substitution,
    length_bound: int = 30,
    max_prefix: int = 200,
    derived_sample: int = 1000,
) -> int | None:
    """Least prefix length n whose return substitution tau_u, on the prefix u
    of length n, is one-to-one on its own factors: those of at most
    ``length_bound`` letters of a ``derived_sample`` prefix of its fixed
    point must have pairwise distinct images.  That check is
    :func:`_first_collision` with every letter weighing 1, on the host
    :func:`check_injectivity` derives, whose certificate it implies, so no
    certificate is built.  Take derived factors f and g, that is factors of
    tau_u's fixed point, and c the coding onto the return words on u:

    - tau(c(f)) = tau(c(g)) exactly when tau_u(f) = tau_u(g).  The left side
      is c(tau_u(f)) = c(tau_u(g)), as tau∘c = c∘tau_u; both tau_u(f) and
      tau_u(g) are derived factors, and c is one-to-one on derived factors:
      the occurrences of u in c(f)·u cut it back into f.
    - Every return word has at least one letter, so |f| <= |c(f)|, and every
      factor the certificate reads (|c(f)| <= L) is read by the own-factor
      check (|f| <= L) on the same host.

    So when the own-factor check passes, the certificate passes too.

    None when no prefix length up to ``max_prefix`` passes; existence beyond
    the scan is not decided here.  A length bound below 1 is refused, as in
    ``check_injectivity``, and so is a negative ``max_prefix``.
    """
    _require_length_bound(length_bound)
    require_nonnegative("prefix bound", max_prefix)
    nonperiodic_check(tau)
    for n in range(1, max_prefix + 1):
        _, tau_u = return_substitution(tau, fixed_point_prefix(tau, n))
        host = fixed_point_prefix(tau_u, derived_sample)
        if _first_collision(host, tau_u, [1] * tau_u.alphabet.size, length_bound)[1] is None:
            return n
    return None
