"""Injectivity and synchronization delay checked one Word at a time, as test oracles.

The library reads the factors of a fixed point from its exact language
(``retword.substitution.language``) and translates each factor's scan text;
the oracle slices them, window by window, off a generated prefix long
enough to hold every one of them (``covering_prefix``), applies the morphism
to each factor as a Word and keys the images in a dict, the per-word route
the library's kernel replaced.  ``power_language`` gives the same language
by a second construction, through a power of the substitution.  The
oracle also keeps the injectivity certificate over decodable factors, which
the library does not build: find_n0's lemma says that its own-factor check
implies the certificate, and the tests check the lemma against it.

The library's delay search extends the interpretations of each factor from
those of its parent, length by length, and takes the forcing cuts of a
factor as the union of its interpretations' cut sets minus their
intersection; the oracle finds every factor's interpretations from scratch
by a worklist walk over a pool of factors of that prefix, and compares the
cut sets of every ordered pair of them.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from retword.returns import nonperiodic_check, return_substitution
from retword.substitution import Substitution, fixed_point_prefix, power, power_lengths
from retword.words import Word


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


def window_factors(host: Word, max_length: int) -> list[Word]:
    """Every distinct factor of 1..max_length letters of ``host``, sorted.

    Each is a prefix of the window of ``max_length`` letters at one of its
    starts, or of the shorter tail there near the end of the host, so the
    distinct windows are cut to every length; a long host has far fewer
    distinct windows than starts."""
    text = host.scan_text
    windows = {text[i : i + max_length] for i in range(len(text))}
    found = {w[:n] for w in windows for n in range(1, len(w) + 1)}
    return [Word(host.alphabet, map(ord, t)) for t in sorted(found)]


def two_letter_factors(tau: Substitution) -> set[str]:
    """The scan texts of the factors of two letters of the fixed point x: the
    closure of x[:2] under every two-letter window of tau(ab).  Each window
    is a factor, as x = tau(x); and a factor at a position p inside
    tau(x[j]) is a window of tau(x[j:j+2]), as the image of x[j+1] is not
    empty, so the closure reaches every position."""
    table = [w.scan_text for w in tau.images]
    found = {fixed_point_prefix(tau, 2).scan_text}
    pending = list(found)
    while pending:
        image = pending.pop().translate(table)
        for window in {image[i : i + 2] for i in range(len(image) - 1)} - found:
            found.add(window)
            pending.append(window)
    return found


def power_exponent(tau: Substitution, n: int) -> int:
    """The least k >= 1 whose power tau^k has images of at least n - 1 letters."""
    k = 1
    while min(power_lengths(tau, k)[-1]) < n - 1:
        k += 1
    return k


def power_language(tau: Substitution, n: int) -> set[str]:
    """Every factor of ``n`` letters, as the windows of tau^k(ab) over the
    factors ab of two letters, k = ``power_exponent(tau, n)`` (Queffélec,
    *Substitution Dynamical Systems*, LNM 1294): as x = tau^k(x), a factor
    at a position inside tau^k(x[j]) lies in tau^k(x[j:j+2]), since the
    image of x[j+1] holds the n - 1 letters that may run past that of x[j]."""
    images = [w.scan_text for w in power(tau, power_exponent(tau, n)).images]
    texts = [ab.translate(images) for ab in two_letter_factors(tau)]
    return {t[i : i + n] for t in texts for i in range(len(t) - n + 1)}


def covering_prefix(tau: Substitution, n: int) -> Word:
    """A prefix of the fixed point that holds every factor of at most ``n``
    letters.  Every two-letter factor ab occurs in x[:P] for some P, and
    with k = ``power_exponent(tau, n)`` the prefix tau^k(x[:P]) of x then
    holds every tau^k(ab), so every factor of n letters (see
    :func:`power_language`), and with them every shorter factor."""
    two = two_letter_factors(tau)
    text = fixed_point_prefix(tau, 2).scan_text
    while not all(ab in text for ab in two):
        text = fixed_point_prefix(tau, 2 * len(text)).scan_text
    reach = max(text.find(ab) for ab in two) + 2
    lengths = power_lengths(tau, power_exponent(tau, n))[-1]
    return fixed_point_prefix(tau, sum(lengths[ord(c)] for c in text[:reach]))


def first_collision(
    sub: Substitution, words: Iterable[Word]
) -> tuple[int, tuple[Word, Word] | None]:
    """How many words were read, and the first two distinct ones sharing an image."""
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


def check_injectivity(tau: Substitution, u: Word, length_bound: int = 30) -> InjectivityCertificate:
    """The certificate built word by word over the decoded derived factors."""
    if length_bound < 1:
        raise ValueError(f"injectivity length bound must be >= 1, got {length_bound}")
    nonperiodic_check(tau)
    system, tau_u = return_substitution(tau, u)
    coding = system.coding()
    shortest = min(len(w) for w in system.return_words)
    max_derived = length_bound // max(1, shortest)
    derived = window_factors(covering_prefix(tau_u, max_derived), max_derived) if max_derived else []
    words = (w for w in map(coding, derived) if len(w) <= length_bound)
    checked, collision = first_collision(tau, words)
    return InjectivityCertificate(u, length_bound, checked, collision is None, collision)


def find_n0(tau: Substitution, length_bound: int = 30, max_prefix: int = 200) -> int | None:
    """The least passing prefix length, each check made word by word."""
    nonperiodic_check(tau)
    for n in range(1, max_prefix + 1):
        u = fixed_point_prefix(tau, n)
        if not check_injectivity(tau, u, length_bound).passed:
            continue
        _, tau_u = return_substitution(tau, u)
        own = window_factors(covering_prefix(tau_u, length_bound), length_bound)
        if first_collision(tau_u, own)[1] is None:
            return n
    return None


class WorklistWalk:
    """Every interpretation of a factor, found from scratch.

    ``pool`` holds the scan texts of the factors of ``host`` up to
    ``max_factor`` letters, sliced window by window; ``suffixes`` and
    ``prefixes`` the margins letter images allow.
    """

    def __init__(self, tau: Substitution, host: Word, max_factor: int):
        self.pool = {w.scan_text for w in window_factors(host, max_factor)}
        self.images = [w.scan_text for w in tau.images]
        self.suffixes = {t[i:] for t in self.images for i in range(len(t) + 1)}
        self.prefixes = {t[:i] for t in self.images for i in range(len(t) + 1)}

    def __call__(self, text: str) -> list[tuple[int, int, str]]:
        """(cut, end, core) for every interpretation of the scan text ``text``:
        text[:cut] is a suffix of a letter image, the image of the core text
        is text[cut:end] and text[end:] is a prefix of a letter image.

        A worklist of partial cores grows each core one letter image at a
        time while the longer core stays in the pool.  Each start has its own
        cut and the cores grown from one partial core differ in their last
        letter, so no interpretation is met twice.
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


def sync_delay_search(tau: Substitution, d_max: int = 64, sample_len: int = 10) -> int | None:
    """The largest margin a cut of one interpretation missing from another forces,
    over every ordered pair of interpretations of every factor of at most
    ``sample_len`` letters, each factor's interpretations found by the
    worklist walk."""
    host = covering_prefix(tau, sample_len)
    walk = WorklistWalk(tau, host, sample_len)
    required = 0
    for x in window_factors(host, sample_len):
        cut_sets = []
        for cut, _, core in walk(x.scan_text):
            cuts = set()
            for letter in map(ord, core):
                cuts.add((cut, letter))
                cut += len(tau.image(letter))
            cut_sets.append(cuts)
        for a in range(len(cut_sets)):
            for b in range(len(cut_sets)):
                if a == b:
                    continue
                for pos, letter in cut_sets[a]:
                    if (pos, letter) in cut_sets[b]:
                        continue
                    margin_right = len(x) - pos - len(tau.image(letter))
                    required = max(required, min(pos, margin_right))
                    if required > d_max:
                        return None
    return required
