"""Injectivity and synchronization delay checked one Word at a time, as test oracles.

The library reads every factor's decoded length and image off one host
translated through the coding and through the substitution; the oracle
enumerates the factors by slicing every window, applies both morphisms to
each factor as a Word and keys the images in a dict, the per-word route the
library's kernel replaced.

The library's delay search extends the interpretations of each factor from
those of its parent in trie order, and takes the forcing cuts of a factor as
the union of its interpretations' cut sets minus their intersection; the
oracle finds every factor's interpretations from scratch by a worklist walk
over a pool of window-sliced factors, and compares the cut sets of every
ordered pair of them.
"""

from __future__ import annotations

from collections.abc import Iterable

from retword.circularity import InjectivityCertificate
from retword.returns import nonperiodic_check, return_substitution
from retword.substitution import Substitution, fixed_point_prefix
from retword.words import Word


def window_factors(host: Word, max_length: int) -> list[Word]:
    """Every distinct factor of 1..max_length letters, sliced window by window, sorted."""
    text = host.scan_text
    found = {text[i : i + n] for n in range(1, max_length + 1) for i in range(len(text) - n + 1)}
    return [Word(host.alphabet, map(ord, t)) for t in sorted(found)]


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


def check_injectivity(
    tau: Substitution, u: Word, length_bound: int = 30, derived_sample: int = 2000
) -> InjectivityCertificate:
    """The certificate built word by word over the decoded derived factors."""
    if length_bound < 1:
        raise ValueError(f"injectivity length bound must be >= 1, got {length_bound}")
    nonperiodic_check(tau)
    system, tau_u = return_substitution(tau, u)
    coding = system.coding()
    shortest = min(len(w) for w in system.return_words)
    max_derived = length_bound // max(1, shortest)
    derived = window_factors(fixed_point_prefix(tau_u, derived_sample), max_derived) if max_derived else []
    words = (w for w in map(coding, derived) if len(w) <= length_bound)
    checked, collision = first_collision(tau, words)
    return InjectivityCertificate(u, length_bound, checked, collision is None, collision)


def find_n0(
    tau: Substitution, length_bound: int = 30, max_prefix: int = 200, derived_sample: int = 1000
) -> int | None:
    """The least passing prefix length, each check made word by word."""
    nonperiodic_check(tau)
    for n in range(1, max_prefix + 1):
        u = fixed_point_prefix(tau, n)
        if not check_injectivity(tau, u, length_bound, derived_sample).passed:
            continue
        _, tau_u = return_substitution(tau, u)
        own = window_factors(fixed_point_prefix(tau_u, derived_sample), length_bound)
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


def sync_delay_search(
    tau: Substitution, d_max: int = 64, sample_len: int = 10, prefix_len: int | None = None
) -> int | None:
    """The largest margin a cut of one interpretation missing from another forces,
    over every ordered pair of interpretations of every sampled factor, each
    factor's interpretations found by the worklist walk."""
    if prefix_len is None:
        prefix_len = max(50 * sample_len, 2000)
    host = fixed_point_prefix(tau, prefix_len)
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
