"""Derived sequences read straight off the fixed point, as a test oracle.

The library generates a derived sequence as the fixed point of the return
substitution; the oracle instead scans the fixed point for occurrences of the
prefix and names each chunk between them, an independent route to the same
letters.  Whether two derivations agree, which the library decides from the
return substitutions, the oracle reads off generated prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from retword.errors import InternalInconsistencyError
from retword.returns import ReturnSystem, return_substitution
from retword.substitution import Substitution, fixed_point_prefix
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


def tower_prefixes_by_scan(tau: Substitution, depth: int) -> list[str]:
    """Scan texts of the tower prefixes u_1..u_depth, read off the fixed point:
    u_1 is its first letter and u_{k+1} is its prefix up to the second
    occurrence of u_k, followed by u_k."""
    fp = tau.fixed_point()
    u = fp.text(1)
    prefixes = []
    for _ in range(depth):
        prefixes.append(u)
        text = fp.text(4 * len(u))
        while (second := text.find(u, 1)) < 0:
            text = fp.text(2 * len(text))
        u = text[:second] + u
    return prefixes


def derived_sequences_agree_by_prefix(tau: Substitution, u: Word, v: Word, check_len: int = 10_000) -> bool:
    """Whether deriving on u and then on v, and deriving once on the decoding
    of v followed by u, give derived sequences whose first ``check_len``
    letters agree."""
    sys_u, tau_u = return_substitution(tau, u)
    _, tau_uv = return_substitution(tau_u, v)
    _, tau_w = return_substitution(tau, sys_u.coding()(v) + u)
    return fixed_point_prefix(tau_uv, check_len) == fixed_point_prefix(tau_w, check_len)


@dataclass(frozen=True)
class TauWordLevel:
    """A tower level computed on tau itself: its prefix u_k of the fixed
    point, tau's return system on u_k, with return words of the fixed point,
    and the return substitution."""

    prefix: Word
    system: ReturnSystem
    substitution: Substitution
    repeats: int | None


def tower_by_tau_words(tau: Substitution) -> list[TauWordLevel]:
    """The tower walked on words of the fixed point: u_1 its first letter and
    u_{k+1} = (first return word on u_k)·u_k, each level tau's return
    substitution on u_k, up to the first level whose return substitution
    repeats an earlier one or that has a single return word."""
    levels: list[TauWordLevel] = []
    u = fixed_point_prefix(tau, 1)
    while True:
        system, sub = return_substitution(tau, u)
        repeats = next((i + 1 for i, level in enumerate(levels) if level.substitution == sub), None)
        levels.append(TauWordLevel(u, system, sub, repeats))
        if repeats is not None or system.count == 1:
            return levels
        u = system.return_words[0] + u
