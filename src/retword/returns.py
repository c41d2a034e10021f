"""Return words, derived sequences, return substitutions and derivation towers.

A return word on a non-empty prefix u of the fixed point X is the factor
between two successive occurrences of u.  Return words are enumerated by
first appearance in the decomposition of X, which fixes a coding morphism
from return letters onto return words; the return substitution is the unique
substitution on return letters intertwining that coding with the original
substitution.

The complete construction never guesses: images of return letters are found
by decomposing the image of each known return word, and every chunk cut
between successive occurrences of u inside such an image is itself a genuine
return word, so the closure terminates exactly on the full return alphabet.
Only the initial search for a second occurrence of u consumes fixed-point
buffer, under the configured cap; the derivation tower searches x at level 1 only.

The derivation tower decides exactly whether the fixed point is periodic
(:func:`nonperiodic_check`).  The caches are the substitution's, none this
module's: its fixed point, return systems, tower levels and powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .checks import Check
from .errors import DecompositionError, InternalInconsistencyError, ResourceLimitError
from .substitution import (
    Morphism,
    Substitution,
    buffer_cap_error,
    first_mismatch,
    fixed_point_prefix,
    is_primitive,
)
from .words import Alphabet, Word, _word, find_all

MAX_RETURN_WORDS = 100_000
# Return systems cached per substitution; the least recently used goes first.
RETURN_CACHE_SIZE = 64


def _return_alphabet(count: int) -> Alphabet:
    return Alphabet(tuple(str(i + 1) for i in range(count)))


@dataclass(frozen=True)
class ReturnSystem:
    """Ordered return words on a prefix, with the coding onto them.

    Return letters are displayed 1-based (symbols "1", "2", ...) and stored
    0-based.  ``complete`` distinguishes closure-computed systems from
    observational scans of a finite host, which may miss late return words.
    """

    prefix: Word
    return_words: tuple[Word, ...]
    return_alphabet: Alphabet
    complete: bool

    @property
    def count(self) -> int:
        return len(self.return_words)

    def coding(self) -> Morphism:
        """The morphism sending return letter b to its return word."""
        return Morphism(self.return_alphabet, self.prefix.alphabet, self.return_words)

    def word_for(self, letter: int) -> Word:
        return self.return_words[letter]


def _chunk_positions(text: str, u: str) -> list[int]:
    """Occurrence positions of the scan text u in text·u; the cuts of the
    return decomposition, so the chunks are slices of text.

    u occurs at |text| and no occurrence starts later, so the last cut is |text|.
    """
    return find_all(text + u, u)


def decompose(system: ReturnSystem, w: Word) -> Word:
    """The unique preimage of w under the coding.

    w must be a concatenation of return words; the cut positions are exactly
    the occurrences of the prefix u inside w·u, so a single scan recovers the
    factorization without backtracking.  Raises DecompositionError carrying
    the first failing position otherwise.
    """
    if w.alphabet != system.prefix.alphabet:
        raise DecompositionError("word is over the wrong alphabet", position=0)
    index = {rw.scan_text: i for i, rw in enumerate(system.return_words)}
    text = w.scan_text
    cuts = _chunk_positions(text, system.prefix.scan_text)
    if cuts[0] != 0:
        raise DecompositionError(
            "word does not start at an occurrence of the prefix", position=0
        )
    out = []
    for a, b in zip(cuts, cuts[1:]):
        letter = index.get(text[a:b])
        if letter is None:
            raise DecompositionError(
                f"chunk at position {a} is not a known return word", position=a
            )
        out.append(letter)
    return Word(system.return_alphabet, tuple(out))


def return_words_of_prefix(host: Word, u: Word) -> ReturnSystem:
    """Return words observed between successive occurrences of u in a finite host.

    Observational: words are listed in first-appearance order but nothing
    guarantees the host was long enough to exhibit all of them.
    """
    if len(u) == 0:
        raise ValueError("prefix must be non-empty")
    if not host.startswith(u):
        raise ValueError("u must be a prefix of the host")
    text = host.scan_text
    positions = find_all(text, u.scan_text)
    seen: set[str] = set()
    words: list[Word] = []
    for a, b in zip(positions, positions[1:]):
        chunk = text[a:b]
        if chunk not in seen:
            seen.add(chunk)
            words.append(host[a:b])
    return ReturnSystem(
        prefix=u,
        return_words=tuple(words),
        return_alphabet=_return_alphabet(len(words)),
        complete=False,
    )


def _first_return_text(tau: Substitution, u: Word) -> str:
    """The scan text of the return word at position 0 of the fixed point,
    growing the buffer as needed."""
    fp = tau.fixed_point()
    if fp.cap <= len(u):
        raise buffer_cap_error(f"prefix of length {len(u)} cannot recur within", fp.cap)
    length = min(max(4 * len(u), 16), fp.cap)
    while True:
        text = fp.text(length)
        if not text.startswith(u.scan_text):
            raise ValueError("u is not a prefix of the fixed point")
        second = text.find(u.scan_text, 1)
        if second != -1:
            return text[:second]
        if length == fp.cap:
            raise buffer_cap_error("no second occurrence of the prefix within", fp.cap)
        length = min(length * 2, fp.cap)


def return_substitution(tau: Substitution, u: Word) -> tuple[ReturnSystem, Substitution]:
    """The complete return system on u and the return substitution.

    Closure: seed with the return word at position 0, then decompose the
    image of each known return word; new chunks are new return words,
    numbered in discovery order.  Processing pending letters in index order
    makes discovery order coincide with first appearance in the derived
    sequence, so the numbering is canonical.

    Results are cached on ``tau`` for the ``RETURN_CACHE_SIZE`` most recently
    used prefixes, so a repeated call returns the same objects.
    """
    if len(u) == 0:
        raise ValueError("prefix must be non-empty")
    if u.alphabet != tau.alphabet:
        raise ValueError("prefix is over the wrong alphabet")
    # the cache dict is kept in least-recently-used order: a hit is popped
    # and stored again at the end
    cache = tau._return_systems
    result = cache.pop(u.scan_text, None)
    if result is None:
        primitive, _ = is_primitive(tau.matrix())
        if not primitive:
            raise ValueError("return substitutions are defined for primitive substitutions")
        result = _return_closure(tau, u)
    cache[u.scan_text] = result
    if len(cache) > RETURN_CACHE_SIZE:
        del cache[next(iter(cache))]
    return result


def _return_closure(tau: Substitution, u: Word) -> tuple[ReturnSystem, Substitution]:
    """The closure behind :func:`return_substitution`, run on scan texts: the
    image of each known return word is one translation through tau's table,
    cut at the occurrences of u, and the chunk dict maps each return word to
    its return letter's code point, so images are built as scan texts.  The
    words are made once, at the end.

    Before an image is formed, the letters of the return words held plus
    those of the image are checked against the fixed point's buffer cap
    (``prefix_cap()`` when the buffer was made), and a closure that would
    pass it is refused with ``ResourceLimitError``.  The image of a return
    word r holds at most |r| times the longest letter image; its letters
    are counted exactly only when that bound passes the cap."""
    table, ut, fp = tau.morphism._table, u.scan_text, tau.fixed_point()
    longest, cap = fp._longest, fp.cap
    texts = [_first_return_text(tau, u)]
    held = len(texts[0])
    index: dict[str, str] = {texts[0]: chr(0)}
    images: list[str] = []
    while len(images) < len(texts):
        r = texts[len(images)]
        if held + len(r) * longest > cap:
            total = held + sum(len(table[ord(c)]) for c in r)
            if total > cap:
                raise buffer_cap_error(
                    f"the return-word closure would hold {total} letters, over", cap
                )
        text = r.translate(table)
        cuts = _chunk_positions(text, ut)
        if cuts[0] != 0:
            raise InternalInconsistencyError(
                "image of a return word is not aligned on occurrences of u"
            )
        img = []
        for a, c in zip(cuts, cuts[1:]):
            chunk = text[a:c]
            letter = index.get(chunk)
            if letter is None:
                letter = index[chunk] = chr(len(texts))
                texts.append(chunk)
                held += len(chunk)
                if len(texts) > MAX_RETURN_WORDS:
                    raise ResourceLimitError(
                        f"return-word closure exceeded {MAX_RETURN_WORDS} letters",
                        budget=MAX_RETURN_WORDS,
                    )
            img.append(letter)
        images.append("".join(img))

    alphabet = _return_alphabet(len(texts))
    system = ReturnSystem(
        prefix=u,
        return_words=tuple(_word(u.alphabet, t) for t in texts),
        return_alphabet=alphabet,
        complete=True,
    )
    image_words = tuple(_word(alphabet, img) for img in images)
    sub = Substitution(Morphism(alphabet, alphabet, image_words), 0)
    return system, sub


@dataclass(frozen=True)
class DerivedPrefix:
    """A prefix of the derived sequence, with the system that decodes it."""

    system: ReturnSystem
    substitution: Substitution
    letters: Word

    def decoded(self) -> Word:
        """The prefix of the original fixed point this derived prefix encodes."""
        return self.system.coding()(self.letters)


def derived_prefix(tau: Substitution, u: Word, n: int) -> DerivedPrefix:
    """First n letters of the derived sequence of the fixed point on u.

    The derived sequence is generated as the fixed point of the return
    substitution; decoding through the return words reproduces a prefix of
    the original fixed point.
    """
    system, sub = return_substitution(tau, u)
    return DerivedPrefix(system, sub, fixed_point_prefix(sub, n))


@dataclass(frozen=True)
class NestedDerivationReport:
    prefix_u: Word
    derived_prefix_v: Word
    composed_prefix_w: Word | None
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def nested_derivation(tau: Substitution, u: Word, v: Word) -> NestedDerivationReport:
    """Verify that deriving on v after deriving on u equals deriving once on w.

    w is the decoding of v followed by u.  Three identities are checked:
    w is a prefix of the fixed point, the composition of the two codings
    equals the coding on w letterwise, and the twice-derived sequence equals
    the sequence derived on w.  Precondition failures come back as failed
    checks, not exceptions.

    The last check is tau_uv (tau_u's return substitution on v) = tau_w, with
    no prefix generated; equal substitutions have equal fixed points.  Once
    ``coding-composition`` passes, c_u∘c_v = c_w, so c_w∘tau_uv =
    c_u∘tau_u∘c_v = tau∘c_w = c_w∘tau_w, and c_w is one-to-one on words
    (return words on w are cut at the occurrences of w, as :func:`decompose`
    cuts them): tau_uv = tau_w.  Conversely, equal derived sequences force
    equal codings and so equal substitutions.
    """
    checks: list[Check] = []
    sys_u, tau_u = return_substitution(tau, u)
    if len(v) == 0 or v.alphabet != sys_u.return_alphabet:
        checks.append(
            Check.of("v-nonempty-prefix", False, "v must be a non-empty word over the return letters")
        )
        return NestedDerivationReport(u, v, None, tuple(checks))
    derived = fixed_point_prefix(tau_u, len(v))
    if derived != v:
        checks.append(
            Check.of("v-nonempty-prefix", False, "v is not a prefix of the derived sequence")
        )
        return NestedDerivationReport(u, v, None, tuple(checks))
    checks.append(Check.of("v-nonempty-prefix", True))

    w = sys_u.coding()(v) + u
    x_prefix = fixed_point_prefix(tau, len(w))
    checks.append(
        Check.of("w-prefix-of-fixed-point", x_prefix == w, f"w = {w.text()}")
    )

    sys_w, tau_w = return_substitution(tau, w)
    sys_v, tau_uv = return_substitution(tau_u, v)
    same_count = sys_w.count == sys_v.count
    composed_ok = same_count and (
        first_mismatch((sys_u.coding(), sys_v.coding()), (sys_w.coding(),)) is None
    )
    checks.append(
        Check.of(
            "coding-composition",
            composed_ok,
            f"{sys_v.count} nested return words vs {sys_w.count} direct",
        )
    )

    same = tau_uv == tau_w
    checks.append(Check.of("derived-sequences-agree", same, "identical return substitutions" if same else None))
    return NestedDerivationReport(u, v, w, tuple(checks))


@dataclass(frozen=True)
class TowerLevel:
    """The return system on the tower prefix u_depth of ``prefix_length`` letters,
    over the last level's return letters (tau's at level 1), with ``lengths``
    letters of tau in its return words.  ``repeats`` is the depth of the first
    earlier level with the same return substitution, or None."""

    depth: int
    prefix_length: int
    lengths: tuple[int, ...]
    system: ReturnSystem
    substitution: Substitution
    repeats: int | None


@dataclass(frozen=True)
class TowerResult:
    levels: tuple[TowerLevel, ...]
    repetition: tuple[int, int]


def _tower_level(tau: Substitution, depth: int) -> TowerLevel:
    """Level ``depth`` of the tower of tau, from the one walk kept on tau and
    grown on demand: level 1 is tau's return substitution on its first letter,
    level k+1 level k's on its letter 0 (see :func:`nonperiodic_check`).  Only
    level 1 decides primitivity: a return substitution of a primitive
    substitution is primitive (Durand, Discrete Math. 179, 1998)."""
    levels = tau._tower
    while len(levels) < depth:
        if levels:
            last = levels[-1]
            n, cap = last.lengths[0] + last.prefix_length, tau.fixed_point().cap
            if cap <= n:
                raise buffer_cap_error(f"prefix of length {n} cannot recur within", cap)
            system, sub = _return_closure(last.substitution, _word(last.substitution.alphabet, chr(0)))
            lengths = tuple(sum([last.lengths[ord(c)] for c in w.scan_text]) for w in system.return_words)
        else:
            n = 1
            system, sub = return_substitution(tau, fixed_point_prefix(tau, 1))
            lengths = tuple(map(len, system.return_words))
        repeats = next((level.depth for level in levels if level.substitution == sub), None)
        levels.append(TowerLevel(len(levels) + 1, n, lengths, system, sub, repeats))
    return levels[depth - 1]


def nonperiodic_check(tau: Substitution) -> int:
    """Decide that the fixed point of the primitive substitution tau is not periodic.

    Returns the tower depth d at which non-periodicity was decided: the
    level whose return substitution repeats an earlier one.  Raises
    ValueError, naming the period and the depth, at the first level with
    exactly one return word.  The tower is walked once and cached on tau.

    Why this decides: the fixed point x is uniformly recurrent, and such an
    x is periodic iff some prefix has exactly one return word.  (If r is the
    only return word on a prefix, x = r^ω; if x = w^ω with w primitive, a
    prefix of length at least |w| occurs only at multiples of |w|, so w is
    its only return word.)  The tower prefixes u_k grow strictly, so a
    periodic x has a level with a single return word.  The return words on
    u_{k+1} = r_1·u_k decode the return words on the first letter of the
    derived sequence D_k of x on u_k, so D_{k+1} is D_k derived on its first
    letter; D_k is the fixed point of the return substitution at level k, so
    each return substitution determines the next.  When level q repeats
    level p, the levels p..q-1 recur forever; if none of the levels 1..q has
    a single return word, no level ever has one, and x is not periodic.

    Why the walk ends: a non-periodic primitive substitutive sequence has
    finitely many derived sequences (Durand, Discrete Math. 179, 1998), so
    some return substitution repeats; a periodic x reaches a single return
    word once |u_k| is at least its period.  Independently of that theorem,
    each level's prefix is strictly longer than the last and the walk raises
    ResourceLimitError once it reaches the fixed-point buffer cap, so it
    cannot run forever.
    """
    for depth in count(1):
        level = _tower_level(tau, depth)
        if level.system.count == 1:
            only = fixed_point_prefix(tau, level.lengths[0])
            raise ValueError(
                f"fixed point is periodic: one return word {only.text()!r} "
                f"on the prefix of length {level.prefix_length}, tower depth {depth}"
            )
        if level.repeats is not None:
            return depth


def derivation_tower(tau: Substitution) -> TowerResult:
    """The tower's levels up to the first level q whose return substitution
    repeats that of an earlier level p, with (p, q), however deep the walk
    cached on tau has gone.  Raises ValueError when the fixed point is periodic."""
    q = nonperiodic_check(tau)
    levels = tuple(tau._tower[:q])
    return TowerResult(levels, (levels[-1].repeats, q))


@dataclass(frozen=True)
class ReturnConstants:
    """Empirical length and cardinality bounds over sampled prefixes.

    Over every sampled prefix u and every return word v on u:
    h1 * |u| <= |v| <= h2 * |u|, and the number of return words is at most
    h3.  These are observations on the sample, not certified global bounds.
    Their precondition, a non-periodic fixed point, is decided exactly at
    tower depth ``nonperiodic_depth`` (see :func:`nonperiodic_check`).
    """

    h1: Fraction
    h2: Fraction
    h3: int
    prefix_lengths: tuple[int, ...]
    nonperiodic_depth: int


def estimate_constants(tau: Substitution, prefix_lengths: list[int]) -> ReturnConstants:
    if not prefix_lengths:
        raise ValueError("need at least one prefix length to sample")
    depth = nonperiodic_check(tau)
    h1: Fraction | None = None
    h2: Fraction | None = None
    h3 = 0
    for n in sorted(set(prefix_lengths)):
        u = fixed_point_prefix(tau, n)
        system, _ = return_substitution(tau, u)
        lengths = list(map(len, system.return_words))
        shortest, longest = Fraction(min(lengths), n), Fraction(max(lengths), n)
        h1 = shortest if h1 is None else min(h1, shortest)
        h2 = longest if h2 is None else max(h2, longest)
        h3 = max(h3, system.count)
    assert h1 is not None and h2 is not None
    return ReturnConstants(
        h1=h1,
        h2=h2,
        h3=h3,
        prefix_lengths=tuple(sorted(set(prefix_lengths))),
        nonperiodic_depth=depth,
    )
