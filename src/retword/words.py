"""Letters, words, factors and occurrence scans.

Letters are dense integer indices into an alphabet's symbol table.  A word is
stored as one ``str``, its *scan text*, holding one code point per letter
(letter index i is ``chr(i)``).  A compact string of single-character
symbols, such as a long ``--prefix`` argument, becomes a scan text in one
``str.translate`` through a table its :class:`Alphabet` builds on the first
string it reads; any other input is read symbol by symbol.  Slicing,
concatenation, equality, hashing and ordering of scan texts are those of the
letter sequences they encode, so the other modules use scan texts directly
as dict keys, set members and occurrence-scan inputs (``str.find``).
Letters map to code points with ``chr``/``ord`` here, in
:mod:`retword.substitution`, in the return closure of :mod:`retword.returns`
and in the interpretation threads of :mod:`retword.circularity`.  The naive
window scan stays available in the test suite as the oracle.  The factors
of a fixed point are its exact language,
:func:`retword.substitution.language`.  Periodicity is decided
exactly from return words by :func:`retword.returns.nonperiodic_check`.
Whether a set of scan texts is a code is decided by the Sardinas–Patterson
test, :func:`is_code`.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Alphabet:
    """An ordered table of distinct display symbols; letters are 0-based indices."""

    __slots__ = ("symbols", "_index", "_compact")

    def __init__(self, symbols: Iterable[str]):
        self.symbols: tuple[str, ...] = tuple(symbols)
        if not self.symbols:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        self._index = {s: i for i, s in enumerate(self.symbols)}
        # the symbols a compact string spells letter by letter, with the
        # str.translate table taking each to its scan-text code point; built
        # on the first string read, since most alphabets never read one
        self._compact: tuple[frozenset[str], dict[int, str]] | None = None

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    def symbol(self, letter: int) -> str:
        return self.symbols[letter]

    def word(self, source: str | Iterable[str]) -> Word:
        """Build a word from a compact string (single-char symbols) or symbol iterable.

        A plain string is split on whitespace when it contains any, otherwise
        read character by character (which requires single-character symbols).
        A string whose characters are all single-character symbols, and so
        holds no whitespace, maps in one ``str.translate``; any other input
        is read symbol by symbol, and an unknown symbol raises ``ValueError``
        naming it.
        """
        if isinstance(source, str):
            if self._compact is None:
                compact = {s: chr(i) for s, i in self._index.items() if len(s) == 1 and not s.isspace()}
                self._compact = (frozenset(compact), str.maketrans(compact))
            symbols, table = self._compact
            if set(source) <= symbols:
                return _word(self, source.translate(table))
            if any(c.isspace() for c in source):
                source = source.split()
        return _word(self, "".join(chr(self.index(p)) for p in source))

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.symbols)!r})"


class Word:
    """An immutable finite sequence of letter indices over a fixed alphabet.

    The only storage is ``scan_text``, one code point per letter.  The
    public constructor checks every index; words derived from words already
    held (slices, concatenations, morphism images, fixed-point prefixes) skip
    the check.  ``letters`` is a derived tuple view that costs O(n) on every
    read, so loops should work on ``scan_text`` or on slices instead.
    """

    __slots__ = ("alphabet", "scan_text")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int]):
        letters = tuple(letters)
        if letters and not (0 <= min(letters) and max(letters) < alphabet.size):
            bad = next(x for x in letters if not 0 <= x < alphabet.size)
            raise ValueError(f"letter index {bad} out of range for {alphabet!r}")
        self.alphabet = alphabet
        self.scan_text = "".join(map(chr, letters))

    @property
    def letters(self) -> tuple[int, ...]:
        """The letter indices as a tuple, rebuilt on every read (O(n))."""
        return tuple(map(ord, self.scan_text))

    def __len__(self) -> int:
        return len(self.scan_text)

    def __iter__(self) -> Iterator[int]:
        return map(ord, self.scan_text)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return _word(self.alphabet, self.scan_text[item])
        return ord(self.scan_text[item])

    def __add__(self, other: Word) -> Word:
        if self.alphabet != other.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return _word(self.alphabet, self.scan_text + other.scan_text)

    def __mul__(self, n: int) -> Word:
        return _word(self.alphabet, self.scan_text * n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.scan_text == other.scan_text
            and self.alphabet.symbols == other.alphabet.symbols
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.symbols, self.scan_text))

    def startswith(self, other: Word) -> bool:
        return self.scan_text.startswith(other.scan_text)

    def symbols(self) -> tuple[str, ...]:
        return tuple(map(self.alphabet.symbols.__getitem__, self))

    def text(self) -> str:
        """Display string: concatenated when all symbols are single characters."""
        if all(len(s) == 1 for s in self.alphabet.symbols):
            return self.scan_text.translate(self.alphabet.symbols)
        return " ".join(self.symbols())

    def __repr__(self) -> str:
        return f"Word({self.text()!r})"


def _word(alphabet: Alphabet, scan_text: str) -> Word:
    """A word from a scan text whose code points are known to be letters of ``alphabet``."""
    word = Word.__new__(Word)
    word.alphabet = alphabet
    word.scan_text = scan_text
    return word


def spelling(words: Iterable[Word]) -> tuple[str, ...]:
    """The scan texts of a sequence of words, alphabets aside.

    Two sequences have equal spellings exactly when they hold the same letter
    indices word by word, which compares morphism images and return-word
    lists across alphabets and serves as their dict key.
    """
    return tuple(w.scan_text for w in words)


def same_symbols(a: Word, b: Word) -> bool:
    """Whether two words spell the same sequence of display symbols, over any alphabets.

    Both scan texts are translated through one table that numbers the union
    of the two symbol tables, so equal translations mean equal symbol
    sequences, multi-character symbols included: ``a.symbols() ==
    b.symbols()`` without building either tuple.
    """
    if len(a) != len(b):
        return False
    canon = {s: chr(i) for i, s in enumerate(dict.fromkeys(a.alphabet.symbols + b.alphabet.symbols))}
    table_a = tuple(map(canon.__getitem__, a.alphabet.symbols))
    table_b = tuple(map(canon.__getitem__, b.alphabet.symbols))
    return a.scan_text.translate(table_a) == b.scan_text.translate(table_b)


def find_all(text: str, pattern: str) -> list[int]:
    """All (possibly overlapping) occurrence positions of ``pattern`` in ``text``."""
    out = []
    i = text.find(pattern)
    while i != -1:
        out.append(i)
        i = text.find(pattern, i + 1)
    return out


def is_code(texts: Iterable[str]) -> bool:
    """Whether the scan texts form a code: every concatenation of them splits
    back into them in one way only (Sardinas and Patterson, 1953; Berstel,
    Perrin and Reutenauer, *Codes and Automata*, 2010).

    Repeated or empty texts are not a code.  Otherwise the walk collects the
    dangling suffixes: w[|v|:] for code words v a proper prefix of w, then
    d[|c|:] and c[|d|:] for each dangling d and code word c with one a proper
    prefix of the other.  Two factorizations of one word leave one of these
    dangling after each code word, and they end together exactly when a
    dangling suffix is itself a code word, which answers False.  Every
    dangling suffix is a suffix of a code word, so the walk ends.
    """
    words = list(texts)
    code = set(words)
    if len(code) != len(words) or "" in code:
        return False
    pending = [w[len(v) :] for v in code for w in code if v != w and w.startswith(v)]
    seen = set(pending)
    while pending:
        d = pending.pop()
        if d in code:
            return False
        for c in code:
            if c.startswith(d):
                rest = c[len(d) :]
            elif d.startswith(c):
                rest = d[len(c) :]
            else:
                continue
            if rest not in seen:
                seen.add(rest)
                pending.append(rest)
    return True
