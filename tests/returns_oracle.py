"""Derived sequences read straight off the fixed point, as a test oracle.

The library generates a derived sequence as the fixed point of the return
substitution; the oracle instead scans the fixed point for occurrences of the
prefix and names each chunk between them, an independent route to the same
letters.
"""

from __future__ import annotations

from retword.errors import InternalInconsistencyError
from retword.returns import return_substitution
from retword.substitution import Substitution
from retword.words import Word, find_all


def derived_prefix_by_scan(tau: Substitution, u: Word, n: int) -> Word:
    """Derived prefix read directly off the fixed point, as an independent route."""
    system, _ = return_substitution(tau, u)
    fp = tau.fixed_point()
    index = {rw.scan_text: i for i, rw in enumerate(system.return_words)}
    longest = max(len(rw) for rw in system.return_words)
    need = (n + 1) * longest + len(u)
    while True:
        text = fp.text(need)
        hits = find_all(text, u.scan_text)
        if len(hits) >= n + 1:
            break
        need *= 2
    out = []
    for a, b in zip(hits, hits[1:]):
        letter = index.get(text[a:b])
        if letter is None:
            raise InternalInconsistencyError("scan met an unknown return word")
        out.append(letter)
        if len(out) == n:
            break
    return Word(system.return_alphabet, tuple(out))
