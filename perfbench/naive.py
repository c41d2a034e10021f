"""Brute-force combinatorics on words, written independently of ``retword``.

The generator and the oracles use these helpers to decide what a job should
answer.  Letters are single characters and words are plain ``str``; images
are applied to whole words with ``str.translate``, so every construction here
follows its definition directly instead of reusing an algorithm of the
library under test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction


def fingerprint(text: str) -> str:
    """Short strings as they are, long ones as their SHA-256, so reports stay small."""
    if len(text) <= 64:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Sub:
    """A substitution over single-character letters; ``images[i]`` is the image of ``letters[i]``."""

    letters: str
    images: tuple[str, ...]
    start: str

    @property
    def table(self) -> dict[int, str]:
        return {ord(c): w for c, w in zip(self.letters, self.images)}

    def image(self, c: str) -> str:
        return self.images[self.letters.index(c)]

    def apply(self, word: str, times: int = 1) -> str:
        table = self.table
        for _ in range(times):
            word = word.translate(table)
        return word

    def power(self, n: int) -> Sub:
        return Sub(self.letters, tuple(self.apply(w, n - 1) for w in self.images), self.start)

    def matrix(self) -> list[list[int]]:
        """Entry (i, j) counts letter i in the image of letter j."""
        return [[w.count(a) for w in self.images] for a in self.letters]

    def text(self) -> str:
        """The substitution file format of the ``retword`` CLI."""
        lines = [f"alphabet = {' '.join(self.letters)}", f"start = {self.start}"]
        lines += [f"{c} -> {' '.join(w)}" for c, w in zip(self.letters, self.images)]
        return "\n".join(lines) + "\n"


def fixed_point(sub: Sub, n: int) -> str:
    """First n letters of the fixed point: iterate the images on the start letter."""
    word = sub.start
    while len(word) < n:
        longer = sub.apply(word)
        if len(longer) <= len(word):
            raise ValueError("the start image does not grow")
        word = longer
    return word[:n]


def occurrences(host: str, pattern: str) -> list[int]:
    """Every start position of pattern in host, overlapping ones included."""
    out = []
    i = host.find(pattern)
    while i >= 0:
        out.append(i)
        i = host.find(pattern, i + 1)
    return out


def scan_returns(host: str, u: str) -> list[str]:
    """Return words on u seen in host, in order of first appearance."""
    cuts = occurrences(host, u)
    if not cuts or cuts[0] != 0:
        raise ValueError("u is not a prefix of the host")
    return list(dict.fromkeys(host[a:b] for a, b in zip(cuts, cuts[1:])))


def split_on(word: str, u: str, index: dict[str, int]) -> list[int] | None:
    """Indices of the chunks of word cut at the occurrences of u in word·u,
    or None when word does not split over the known chunks."""
    cuts = occurrences(word + u, u)
    if not cuts or cuts[0] != 0 or cuts[-1] != len(word):
        return None
    out = []
    for a, b in zip(cuts, cuts[1:]):
        letter = index.get(word[a:b])
        if letter is None:
            return None
        out.append(letter)
    return out


@dataclass(frozen=True)
class ReturnData:
    """Complete return words on u with the return substitution they induce."""

    words: tuple[str, ...]
    images: tuple[tuple[int, ...], ...]


def returns(sub: Sub, u: str, min_host: int = 4096, max_host: int = 1 << 24) -> ReturnData:
    """Return words on u read off a prefix long enough to close the system.

    The host doubles until the image of every return word seen splits over
    return words already seen; closure under the substitution then means no
    return word is missing.
    """
    n = max(min_host, 64 * len(u))
    while True:
        host = fixed_point(sub, n)
        words = scan_returns(host, u)
        index = {w: i for i, w in enumerate(words)}
        images = [split_on(sub.apply(w), u, index) for w in words]
        if words and all(img is not None for img in images):
            return ReturnData(tuple(words), tuple(tuple(i) for i in images))
        if n >= max_host:
            raise ValueError(f"return words on a prefix of length {len(u)} did not close by {n} letters")
        n *= 2


def derived_sequence(data: ReturnData, n: int) -> list[int]:
    """First n letters of the fixed point of the return substitution."""
    if len(data.images[0]) < 2:
        raise ValueError("the return substitution does not grow")
    seq = list(data.images[0])
    i = 1
    while len(seq) < n:
        seq.extend(data.images[seq[i]])
        i += 1
    return seq[:n]


def is_primitive(matrix: list[list[int]]) -> bool:
    """Some power is entrywise positive; searched up to the exact n^2 - 2n + 2 cap."""
    n = len(matrix)
    full = (1 << n) - 1
    step = [sum(1 << i for i in range(n) if matrix[i][j]) for j in range(n)]
    reach = list(step)
    for _ in range(n * n - 2 * n + 2):
        if all(r == full for r in reach):
            return True
        reach = [_union(step, r) for r in reach]
    return all(r == full for r in reach)


def _union(step: list[int], mask: int) -> int:
    out = 0
    for i, s in enumerate(step):
        if mask >> i & 1:
            out |= s
    return out


def perron_estimate(matrix: list[list[int]], rounds: int = 400) -> float:
    """Floating-point estimate of the spectral radius of a primitive matrix."""
    n = len(matrix)
    v = [1.0] * n
    lam = 0.0
    for _ in range(rounds):
        w = [sum(matrix[i][j] * v[j] for j in range(n)) for i in range(n)]
        lam = sum(w) / sum(v)
        s = max(w)
        v = [x / s for x in w]
    return lam


def determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def irrational_dominant(matrix: list[list[int]]) -> bool:
    """Certify that the spectral radius is irrational.

    A rational eigenvalue of an integer matrix is an integer; the float
    estimate is far closer than 1/2 to the spectral radius, so the radius is
    irrational as soon as the nearest integer r is no eigenvalue, that is,
    det(M - rI) != 0.  Irrational radius means irrational letter
    frequencies, so the fixed point is not ultimately periodic.
    """
    r = round(perron_estimate(matrix))
    shifted = [[e - (r if i == j else 0) for j, e in enumerate(row)] for i, row in enumerate(matrix)]
    return determinant(shifted) != 0


def has_periodic_tail(prefix: str, from_pos: int, min_repetitions: int = 3) -> bool:
    """Some period q repeats at least min_repetitions times from from_pos to the end."""
    n = len(prefix)
    return any(
        prefix[from_pos : n - q] == prefix[from_pos + q :]
        for q in range(1, (n - from_pos) // min_repetitions + 1)
    )


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_pow(m: list[list[int]], k: int) -> list[list[int]]:
    out = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    for _ in range(k):
        out = mat_mul(out, m)
    return out


def ratio_bounds(sub: Sub, lengths: list[int]) -> tuple[Fraction, Fraction]:
    """Least and largest |return word| / |prefix| over the given prefix lengths."""
    ratios = []
    for n in lengths:
        u = fixed_point(sub, n)
        ratios += [Fraction(len(w), n) for w in returns(sub, u).words]
    return min(ratios), max(ratios)
