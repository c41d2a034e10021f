"""Fixed-point equality decided by generated prefixes, as test oracles.

``shared`` decides equality of two fixed points on its tower walk, and
``cobham``'s gate passes substitutions that share a start letter and
commute with no prefix generated, since their fixed points are equal; the
oracles generate both prefixes in full and compare them letter by letter,
for every pair.
"""

from __future__ import annotations

from retword.substitution import Morphism, Substitution, fixed_point_prefix, morphic_image_prefix
from retword.words import same_symbols


def same_fixed_point_gate(tau: Substitution, sigma: Substitution) -> int:
    """The compared length, max(10 000, 20 · the longest image), once both
    prefixes of that length are generated and equal; raises otherwise."""
    check_len = max(10_000, 20 * max(tau.max_image_length(), sigma.max_image_length()))
    a = fixed_point_prefix(tau, check_len)
    b = fixed_point_prefix(sigma, check_len)
    if a.alphabet != b.alphabet:
        raise ValueError("substitutions are over different alphabets")
    if a != b:
        first = next(i for i, (x, y) in enumerate(zip(a.scan_text, b.scan_text)) if x != y)
        raise ValueError(f"fixed points differ at index {first}")
    return check_len


def coded_fixed_points_agree(
    tau: Substitution, tau_coding: Morphism, sigma: Substitution, sigma_coding: Morphism, n: int
) -> bool:
    """Whether both coded prefixes of n letters, generated in full, spell the same symbols."""
    a = morphic_image_prefix(tau_coding, tau, n)
    b = morphic_image_prefix(sigma_coding, sigma, n)
    return same_symbols(a, b)
