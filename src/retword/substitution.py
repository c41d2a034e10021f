"""Morphisms, substitutions, incidence matrices and fixed-point prefixes.

A substitution here is a non-erasing morphism of an alphabet into itself with
a designated start letter whose image begins with that letter; iterating the
morphism on the start letter generates an arbitrarily long prefix of the
unique fixed point.

:func:`first_mismatch` decides every identity between composed morphisms,
composing none; only :func:`power` composes.  Every refusal past the buffer
cap names the cap and the variable that sets it (:func:`buffer_cap_error`).
"""

from __future__ import annotations

import os
from functools import reduce
from operator import mul
from typing import Iterable, Sequence

from .errors import GenerationError, ParseError, ResourceLimitError
from .words import Alphabet, Word, _word

DEFAULT_PREFIX_CAP = 10**7
PREFIX_CAP_ENV = "REPO_PREFIX_CAP"


def prefix_cap() -> int:
    """Global fixed-point buffer cap; override with the REPO_PREFIX_CAP env var."""
    raw = os.environ.get(PREFIX_CAP_ENV)
    if raw is None:
        return DEFAULT_PREFIX_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{PREFIX_CAP_ENV} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{PREFIX_CAP_ENV} must be positive, got {value}")
    return value


def buffer_cap_error(what: str, cap: int) -> ResourceLimitError:
    """The refusal of work past the buffer cap: ``what``, the cap and REPO_PREFIX_CAP."""
    return ResourceLimitError(f"{what} the buffer cap {cap} ({PREFIX_CAP_ENV})", budget=cap)


class IncidenceMatrix:
    """Non-negative integer matrix counting target letters in morphism images.

    Entry ``(i, j)`` is the number of occurrences of target letter ``i`` in
    the image of source letter ``j``; composition of morphisms corresponds to
    the matrix product.  ``_primitive`` (see :func:`is_primitive`),
    ``_char_poly`` and ``_dominant`` are each computed once and kept, the
    last two by :mod:`retword.spectrum`.
    """

    __slots__ = ("rows", "_primitive", "_char_poly", "_dominant")

    def __init__(self, rows: Iterable[Iterable[int]]):
        self.rows: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in rows)
        self._primitive = None
        self._char_poly = None
        self._dominant = None
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(r[j] for r in self.rows) for j in range(self.ncols))

    def all_positive(self) -> bool:
        return all(e > 0 for r in self.rows for e in r)

    @property
    def is_nonnegative(self) -> bool:
        return all(e >= 0 for r in self.rows for e in r)

    def __matmul__(self, other: IncidenceMatrix) -> IncidenceMatrix:
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        cols = list(zip(*other.rows)) if other.rows else []
        return IncidenceMatrix(
            tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.rows)
        )

    def __add__(self, other: IncidenceMatrix) -> IncidenceMatrix:
        return IncidenceMatrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        )

    def __sub__(self, other: IncidenceMatrix) -> IncidenceMatrix:
        return IncidenceMatrix(
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        )

    def __pow__(self, n: int) -> IncidenceMatrix:
        if not self.is_square:
            raise ValueError("matrix power requires a square matrix")
        if n < 0:
            raise ValueError("matrix power exponent must be >= 0")
        if n == 1:
            return self
        result = identity_matrix(self.nrows)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, IncidenceMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IncidenceMatrix({[list(r) for r in self.rows]})"


def identity_matrix(n: int) -> IncidenceMatrix:
    return IncidenceMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


class Morphism:
    """A map from source letters to non-empty-or-empty target words, extended by concatenation.

    The scan texts of the images form a ``str.translate`` table indexed by
    source letter, so applying the morphism is one translation.
    """

    __slots__ = ("source", "target", "images", "_table", "_matrix")

    def __init__(self, source: Alphabet, target: Alphabet, images: Iterable[Word]):
        self.source = source
        self.target = target
        self.images: tuple[Word, ...] = tuple(images)
        if len(self.images) != source.size:
            raise ValueError(f"need {source.size} images, got {len(self.images)}")
        for w in self.images:
            if w.alphabet is not target and w.alphabet != target:
                raise ValueError("image word over the wrong alphabet")
        self._table = tuple(w.scan_text for w in self.images)
        self._matrix: IncidenceMatrix | None = None

    def image(self, letter: int) -> Word:
        return self.images[letter]

    def __call__(self, word: Word) -> Word:
        if word.alphabet != self.source:
            raise ValueError("word is not over the source alphabet")
        return _word(self.target, word.scan_text.translate(self._table))

    @property
    def is_letter_to_letter(self) -> bool:
        return all(len(w) == 1 for w in self.images)

    @property
    def is_non_erasing(self) -> bool:
        return all(len(w) >= 1 for w in self.images)

    def matrix(self) -> IncidenceMatrix:
        """The incidence matrix, counted once and kept."""
        if self._matrix is None:
            self._matrix = incidence_matrix(self)
        return self._matrix

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Morphism)
            and self.source.symbols == other.source.symbols
            and self.target.symbols == other.target.symbols
            and self._table == other._table
        )

    def __hash__(self) -> int:
        return hash((self.source.symbols, self.target.symbols, self._table))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{self.source.symbol(i)}->{w.text()}" for i, w in enumerate(self.images)
        )
        return f"Morphism({body})"


def identity_morphism(alphabet: Alphabet) -> Morphism:
    return Morphism(alphabet, alphabet, tuple(_word(alphabet, chr(i)) for i in range(alphabet.size)))


def require_composable(f: Morphism, g: Morphism) -> None:
    """Refuse f∘g unless g maps into f's source alphabet."""
    if g.target != f.source:
        raise ValueError("composition alphabet mismatch: target of g must be source of f")


def compose(f: Morphism, g: Morphism) -> Morphism:
    """The morphism sending each letter a to f(g(a)); matrices multiply accordingly."""
    require_composable(f, g)
    return Morphism(g.source, f.target, tuple(f(g.image(b)) for b in range(g.source.size)))


def first_mismatch(left: Sequence[Morphism], right: Sequence[Morphism]) -> int | None:
    """The first source letter on which the composites of ``left`` and
    ``right`` differ, or None when they are equal.

    Each sequence is composed right to left, ``(f, g, h)`` standing for
    f∘g∘h.  A composite image is the last morphism's image text translated
    through the other tables in turn, so no morphism is composed.  The guard
    of :func:`compose` applies along each sequence, and two composites with
    different source or target alphabets are refused with ``ValueError``.
    """
    for chain in (left, right):
        for f, g in zip(chain, chain[1:]):
            require_composable(f, g)
    if left[-1].source != right[-1].source or left[0].target != right[0].target:
        raise ValueError("composites map between different alphabets")
    left_tables = [m._table for m in reversed(left[:-1])]
    right_tables = [m._table for m in reversed(right[:-1])]
    for b, (x, y) in enumerate(zip(left[-1]._table, right[-1]._table)):
        if reduce(str.translate, left_tables, x) != reduce(str.translate, right_tables, y):
            return b
    return None


def commute(f: Morphism, g: Morphism, budget: int) -> bool:
    """Whether f and g are self-morphisms of one alphabet with f∘g = g∘f.
    The image lengths are compared first, and the images themselves, by
    :func:`first_mismatch`, only when f(g(b)) over every letter b holds at
    most ``budget`` letters together; past it the answer is False, so the
    test never builds more than ``budget`` letters."""
    if not f.source == f.target == g.source == g.target:
        return False
    f_lengths, g_lengths = [len(t) for t in f._table], [len(t) for t in g._table]
    total = 0
    for f_image, g_image in zip(f._table, g._table):
        composed = sum(f_lengths[ord(c)] for c in g_image)
        if composed != sum(g_lengths[ord(c)] for c in f_image):
            return False
        total += composed
    return total <= budget and first_mismatch((f, g), (g, f)) is None


def incidence_matrix(m: Morphism) -> IncidenceMatrix:
    """Entry (i, j) counts target letter i in the image of source letter j."""
    return IncidenceMatrix([[t.count(chr(i)) for t in m._table] for i in range(m.target.size)])


def is_primitive(matrix: IncidenceMatrix) -> tuple[bool, int | None]:
    """Decide primitivity of a non-negative square matrix.

    Returns ``(True, k)`` with the least exponent k for which the k-th power
    is entrywise positive, or ``(False, None)``.  The answer is decided once
    per matrix and kept on it; a non-square or negative matrix is refused
    every time it is asked.
    """
    if matrix._primitive is None:
        matrix._primitive = _least_positive_power(matrix)
    return matrix._primitive


def _least_positive_power(matrix: IncidenceMatrix) -> tuple[bool, int | None]:
    """The search behind :func:`is_primitive`.  It is capped at the sharp
    bound n^2 - 2n + 2, beyond which no new positivity can appear, so the
    decision is exact.  Powers are taken over the boolean (reachability)
    semiring, each row an int bitmask of its positive entries: row i of the
    next power is the union of the base rows l over the bits l of row i.
    """
    if not matrix.is_square:
        raise ValueError("primitivity is defined for square matrices only")
    if not matrix.is_nonnegative:
        raise ValueError("primitivity is defined for non-negative matrices only")
    n = matrix.nrows
    if n == 0:
        raise ValueError("empty matrix")
    bound = n * n - 2 * n + 2
    full = (1 << n) - 1
    base = [sum(1 << j for j, e in enumerate(row) if e > 0) for row in matrix.rows]
    current = base
    for k in range(1, bound + 1):
        if all(row == full for row in current):
            return True, k
        nxt = []
        for row in current:
            acc, l = 0, 0
            while row:
                if row & 1:
                    acc |= base[l]
                row >>= 1
                l += 1
            nxt.append(acc)
        current = nxt
    return False, None


class Substitution:
    """A self-morphism with non-empty images and a start letter fixing its first letter.

    It owns six caches, filled on first use and never referring back to it:
    its fixed point, the return systems on recent prefixes and the tower
    levels (both filled by :mod:`retword.returns`), its powers, the image
    lengths of its powers and its factor languages (:func:`language`).  It
    can be weakly referenced, so a test can see when it is freed.
    """

    __slots__ = (
        "morphism",
        "start",
        "_fixed_point",
        "_return_systems",
        "_tower",
        "_powers",
        "_power_lengths",
        "_languages",
        "__weakref__",
    )

    def __init__(self, morphism: Morphism, start: int):
        if morphism.source != morphism.target:
            raise ValueError("a substitution must map an alphabet into itself")
        if not morphism.is_non_erasing:
            raise ValueError("substitution images must be non-empty")
        if not 0 <= start < morphism.source.size:
            raise ValueError("start letter out of range")
        if morphism.image(start)[0] != start:
            raise ValueError(
                f"image of start letter {morphism.source.symbol(start)!r} must begin with it"
            )
        self.morphism = morphism
        self.start = start
        self._fixed_point: FixedPointPrefix | None = None
        self._return_systems: dict = {}
        self._tower: list = []
        self._powers: dict[int, Substitution] = {}
        self._power_lengths: list[tuple[int, ...]] = []
        self._languages: dict[int, frozenset[str]] = {}

    @property
    def alphabet(self) -> Alphabet:
        return self.morphism.source

    @property
    def images(self) -> tuple[Word, ...]:
        return self.morphism.images

    def image(self, letter: int) -> Word:
        return self.morphism.image(letter)

    def __call__(self, word: Word) -> Word:
        return self.morphism(word)

    def matrix(self) -> IncidenceMatrix:
        return self.morphism.matrix()

    def fixed_point(self) -> FixedPointPrefix:
        """The shared extend-on-demand prefix generator for this substitution."""
        if self._fixed_point is None:
            self._fixed_point = FixedPointPrefix(self)
        return self._fixed_point

    def max_image_length(self) -> int:
        return max(len(w) for w in self.images)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Substitution)
            and self.start == other.start
            and self.morphism == other.morphism
        )

    def __hash__(self) -> int:
        return hash((self.morphism, self.start))

    def __repr__(self) -> str:
        return f"Substitution({self.morphism!r}, start={self.alphabet.symbol(self.start)!r})"


def substitution_from_strings(symbols: str | Iterable[str], images: dict[str, str], start: str) -> Substitution:
    """Convenience builder: symbols plus per-symbol image strings."""
    alphabet = Alphabet(symbols.split() if isinstance(symbols, str) else symbols)
    image_words = tuple(alphabet.word(images[s]) for s in alphabet.symbols)
    return Substitution(Morphism(alphabet, alphabet, image_words), alphabet.index(start))


def power_lengths(s: Substitution, n: int) -> list[tuple[int, ...]]:
    """The image lengths of s, s^2, ..., s^n, letter by letter, read off the
    images of s with no composition: l_0(b) = 1 and l_e(b) is the sum of
    l_(e-1)(c) over the letters c of s(b).  The rows are kept on s, so each
    exponent's row is computed once, whoever asks for it."""
    lengths = s._power_lengths
    if len(lengths) < n:
        texts = [w.scan_text for w in s.images]
        current = lengths[-1] if lengths else (1,) * len(texts)
        for _ in range(n - len(lengths)):
            current = tuple(sum(map(current.__getitem__, map(ord, t))) for t in texts)
            lengths.append(current)
    return lengths[:n]


def power_matrix(s: Substitution, n: int) -> IncidenceMatrix:
    """The incidence matrix of s^n, read off the images of s with no
    composition and no matrix product.  Column b is the Parikh vector of
    s^e(b): e_b at e = 0, and at e the sum of the columns at e-1 of the
    letters of s(b), the recurrence of :func:`power_lengths`."""
    if n < 0:
        raise ValueError("power exponent must be >= 0")
    texts = [w.scan_text for w in s.images]
    columns = identity_matrix(len(texts)).rows
    for _ in range(n):
        columns = [tuple(map(sum, zip(*map(columns.__getitem__, map(ord, t))))) for t in texts]
    return IncidenceMatrix(zip(*columns))


def power(s: Substitution, n: int) -> Substitution:
    """The substitution whose images are the n-fold iterates; same start letter.

    ``power(s, 1)`` is s; higher powers are kept on s, each new exponent
    costing one composition, so a repeated call returns the same object.
    Before composing, the images' total length is read off
    :func:`power_lengths`, and a power whose images hold more letters than
    the buffer cap is refused with ``ResourceLimitError``.
    """
    if n < 1:
        raise ValueError("power exponent must be >= 1")
    if n == 1:
        return s
    table = s._powers
    if n not in table:
        total, cap = sum(power_lengths(s, n)[-1]), prefix_cap()
        if total > cap:
            raise buffer_cap_error(f"the images of power {n} hold {total} letters, over", cap)
        # the table holds exactly the exponents 2 .. top
        top = len(table) + 1
        m = table[top].morphism if table else s.morphism
        for e in range(top + 1, n + 1):
            m = compose(s.morphism, m)
            table[e] = Substitution(m, s.start)
    return table[n]


class FixedPointPrefix:
    """Lazily extendable prefix of the fixed point of a substitution.

    The buffer is a scan text equal to the image of its first ``_next``
    letters, so extending never rewrites earlier letters: the image of the
    next block of unexpanded letters is appended until the requested length
    is reached.  Each block is short enough that the buffer never passes the
    request by a whole maximal image.  Generation requires the start image to
    have length at least two; shorter start images cannot grow.  Writes must
    be externally synchronized; reads of generated letters are safe.
    """

    __slots__ = ("alphabet", "_table", "_longest", "_text", "_next", "_cap")

    def __init__(self, substitution: Substitution):
        # no reference back to the substitution, which holds this generator:
        # without a cycle the buffer is freed with the substitution
        self.alphabet = substitution.alphabet
        self._table = substitution.morphism._table
        self._longest = substitution.max_image_length()
        start_image = substitution.image(substitution.start)
        if len(start_image) < 2:
            raise GenerationError(
                "fixed-point generation needs the start image to have length >= 2"
            )
        self._text = start_image.scan_text
        self._next = 1
        self._cap = prefix_cap()

    def __len__(self) -> int:
        return len(self._text)

    @property
    def cap(self) -> int:
        return self._cap

    def _check_cap(self, n: int) -> None:
        """Refuse a request for more letters than the buffer cap allows."""
        if n > self._cap:
            raise buffer_cap_error(f"requested prefix length {n} exceeds", self._cap)

    def ensure(self, n: int) -> None:
        self._check_cap(n)
        table, longest = self._table, self._longest
        text, expanded = self._text, self._next
        while len(text) < n:
            # k letters expand to at most k * longest < n - len(text) + longest
            k = -(-(n - len(text)) // longest)
            block = text[expanded : expanded + k]
            text += block.translate(table)
            expanded += len(block)
        # stored together, so an exception inside the loop leaves the buffer whole
        self._text, self._next = text, expanded

    def prefix(self, n: int) -> Word:
        return _word(self.alphabet, self.text(n))

    def text(self, n: int) -> str:
        """Scan text of the first n letters."""
        self.ensure(n)
        return self._text[:n]

    def letter(self, i: int) -> int:
        self.ensure(i + 1)
        return ord(self._text[i])


def fixed_point_generator(s: Substitution, n: int) -> FixedPointPrefix:
    """The fixed-point generator of s, once the refusals of
    ``fixed_point_prefix(s, n)`` have passed, in its order: n below 1, a
    start image that cannot grow, n past the buffer cap.  Nothing is
    generated."""
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    fixed = s.fixed_point()
    fixed._check_cap(n)
    return fixed


def fixed_point_prefix(s: Substitution, n: int) -> Word:
    """First n letters of the fixed point of s (cached per substitution)."""
    return fixed_point_generator(s, n).prefix(n)


def language(s: Substitution, n: int) -> frozenset[str]:
    """The scan texts of the factors of ``n`` letters of the fixed point x of
    s, every one of them, kept on s per length.

    They are the closure of x[:n] under "the windows of ``n`` letters of
    s(f) that start inside s(f[0])" (Queffélec, *Substitution Dynamical
    Systems*, LNM 1294):

    - Each such window is a factor: f is one, so s(f) is one, as x = s(x);
      and it fits in s(f), since s(f[0]) is followed by the images of the
      n - 1 letters f[1:], each non-empty.
    - Each factor is reached.  As x = s(x), the window of x at a position p
      inside s(x[j]) is the window of s(x[j:j+n]) that starts inside
      s(x[j]), so x[j:j+n] reaches it.  Starting from x[:n], the closure
      so reaches every position below |s(x[0])|, then every
      position below |s^2(x[0])| from the factors at those, and by
      induction every position below |s^k(x[0])| for every k.  That bound
      grows without limit, since |s(x[0])| >= 2 and s^k(x[0]) is a proper
      prefix of s^(k+1)(x[0]).

    So the closure is exactly the language L_n, found from n letters of x
    and |L_n| translations of n letters, with no prefix sampled.  A length
    below 1 is refused, and so is one for which ``fixed_point_prefix(s, n)``
    is.
    """
    found = s._languages.get(n)
    if found is None:
        if n < 1:
            raise ValueError(f"factor lengths must be >= 1, got {n}")
        table = s.morphism._table
        starts = [range(len(t)) for t in table]
        first = fixed_point_prefix(s, n).scan_text
        closure, order = {first}, [first]
        for f in order:  # each factor once, in the order the closure meets it
            image = f.translate(table)
            for i in starts[ord(f[0])]:
                window = image[i : i + n]
                if window not in closure:
                    closure.add(window)
                    order.append(window)
        found = s._languages[n] = frozenset(closure)
    return found


def require_coding(m: Morphism, s: Substitution) -> None:
    """Refuse a coding that is not letter-to-letter or not on s's alphabet."""
    if not m.is_letter_to_letter:
        raise ValueError("coding must be letter-to-letter")
    if m.source != s.alphabet:
        raise ValueError("coding source must be the substitution's alphabet")


def morphic_image_prefix(m: Morphism, s: Substitution, n: int) -> Word:
    """First n letters of the image of the fixed point under a letter-to-letter morphism."""
    require_coding(m, s)
    return _word(m.target, fixed_point_prefix(s, n).scan_text.translate(m._table))


def format_substitution(sub: Substitution, codings: dict[str, Morphism] | None = None) -> str:
    """Normalized text rendering; parsing it back reproduces the same values."""
    lines = [
        f"alphabet = {' '.join(sub.alphabet.symbols)}",
        f"start = {sub.alphabet.symbol(sub.start)}",
    ]
    for b, symbol in enumerate(sub.alphabet.symbols):
        lines.append(f"{symbol} -> {' '.join(sub.image(b).symbols())}")
    for name, coding in (codings or {}).items():
        pairs = ", ".join(
            f"{sub.alphabet.symbol(b)} -> {coding.target.symbol(coding.image(b)[0])}"
            for b in range(sub.alphabet.size)
        )
        lines.append(f"coding {name}: {pairs}")
    return "\n".join(lines) + "\n"


def _coding_entries(body: str, symbols: tuple[str, ...], lineno: int) -> dict[str, str]:
    """The ``src -> dst`` entries of a coding line.

    Between two arrows stands one destination, a comma and the next source.
    A letter may itself hold commas, as the product letters ``(a,0)`` of a
    periodic presentation do, so the separating comma is one that leaves a
    single whitespace-free token on each side, preferring the one after
    which a letter of the alphabet follows.
    """
    pieces = [piece.strip() for piece in body.split("->")]
    if pieces == [""]:
        return {}
    if len(pieces) == 1:
        raise ParseError(f"bad coding entry {pieces[0]!r}", lineno)
    pieces[-1] = pieces[-1].rstrip(",").strip()
    letters = [pieces[0]]
    for piece in pieces[1:-1]:
        halves = ((piece[:i].strip(), piece[i + 1 :].strip()) for i, c in enumerate(piece) if c == ",")
        cuts = [(d, s) for d, s in halves if len(d.split()) == len(s.split()) == 1]
        if not cuts:
            raise ParseError(f"coding images must be single letters: {piece!r}", lineno)
        dst, src = next((cut for cut in cuts if cut[1] in symbols), cuts[0])
        letters += [dst, src]
    letters.append(pieces[-1])
    if not all(letter and len(letter.split()) == 1 for letter in letters):
        raise ParseError(f"bad coding entry {body.strip()!r}", lineno)
    return dict(zip(letters[::2], letters[1::2]))


def parse_substitution(text: str) -> tuple[Substitution, dict[str, Morphism]]:
    """Parse the substitution text format.

    ::

        # comment lines start with '#'
        alphabet = a b
        start = a
        a -> a b a b
        b -> a b b b
        coding phi: a -> a, b -> b

    Returns the substitution and a dict of named letter-to-letter codings.
    """
    alphabet: Alphabet | None = None
    start_symbol: str | None = None
    image_lines: dict[str, tuple[list[str], int]] = {}
    coding_lines: list[tuple[str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # a header's keyword is the whole left side of its '=', so an image
        # line of a letter named like ``start`` or ``alphabetic`` is no header
        keyword, _, rhs = line.partition("=")
        keyword = keyword.strip()
        # a coding line's first token is ``coding`` and its second does not
        # start with an arrow, so the image line of a letter named ``coding``
        # is no coding line
        tokens = line.split(maxsplit=2)
        if keyword == "alphabet":
            if not rhs.strip():
                raise ParseError("empty alphabet", lineno)
            try:
                alphabet = Alphabet(rhs.split())
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        elif keyword == "start":
            start_symbol = rhs.strip()
            if not start_symbol:
                raise ParseError("empty start letter", lineno)
        elif tokens[0] == "coding" and len(tokens) > 1 and not tokens[1].startswith("->"):
            head, sep, body = line[len("coding") :].partition(":")
            if not sep:
                raise ParseError("coding line needs a ':'", lineno)
            coding_lines.append((head.strip(), body, lineno))
        elif "->" in line:
            lhs, _, rhs = line.partition("->")
            letter = lhs.strip()
            parts = rhs.split()
            if not letter:
                raise ParseError("image line without a source letter", lineno)
            if not parts:
                raise ParseError(f"empty image for letter {letter!r}", lineno)
            image_lines[letter] = (parts, lineno)
        else:
            raise ParseError(f"unrecognized line: {raw.strip()!r}", lineno)

    if alphabet is None:
        raise ParseError("missing 'alphabet =' line")
    if start_symbol is None:
        raise ParseError("missing 'start =' line")
    if start_symbol not in alphabet.symbols:
        raise ParseError(f"start letter {start_symbol!r} not in the alphabet")

    images = []
    for s in alphabet.symbols:
        if s not in image_lines:
            raise ParseError(f"missing image for letter {s!r}")
        parts, lineno = image_lines[s]
        try:
            images.append(alphabet.word(parts))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    for s in image_lines:
        if s not in alphabet.symbols:
            raise ParseError(f"image given for unknown letter {s!r}", image_lines[s][1])

    try:
        substitution = Substitution(
            Morphism(alphabet, alphabet, tuple(images)), alphabet.index(start_symbol)
        )
    except ValueError as exc:
        raise ParseError(str(exc), image_lines[start_symbol][1]) from None

    codings: dict[str, Morphism] = {}
    for name, body, lineno in coding_lines:
        mapping = _coding_entries(body, alphabet.symbols, lineno)
        missing = [s for s in alphabet.symbols if s not in mapping]
        if missing:
            raise ParseError(f"coding {name!r} misses letters {missing}", lineno)
        target_syms: list[str] = []
        for s in alphabet.symbols:
            if mapping[s] not in target_syms:
                target_syms.append(mapping[s])
        target = Alphabet(target_syms)
        codings[name] = Morphism(
            alphabet, target, tuple(target.word([mapping[s]]) for s in alphabet.symbols)
        )
    return substitution, codings
