"""Bounded periodicity scan, kept as the oracle for the exact tower decision
in :func:`retword.returns.nonperiodic_check`, and the coded-prefix
comparison, kept as the oracle for the coded-prefix check that
:func:`retword.periodic.verify_presentation` derives."""

from __future__ import annotations

from retword.periodic import PeriodicPresentation
from retword.substitution import Substitution, fixed_point_prefix, morphic_image_prefix
from retword.words import Word


def coded_prefix_is_periodic(pres: PeriodicPresentation, n: int) -> bool:
    """Whether the first n letters of zeta's fixed point, read through the
    coding, are the first n letters of m^omega."""
    coded = morphic_image_prefix(pres.coding, pres.zeta, n)
    return coded == (pres.period * (n // len(pres.period) + 1))[:n]


def periodic_tail_witness(host: Word, min_repetitions: int = 3) -> tuple[int, int] | None:
    """Witness that the host looks like the prefix of an ultimately periodic word.

    Returns ``(preperiod, period)`` such that the tail from ``preperiod`` on is
    ``period``-periodic, the preperiod occupies at most a quarter of the host
    and the tail covers at least ``min_repetitions`` full periods; ``None`` if
    no period achieves that.  Short accidental squares near the end of a
    repetitive word do not qualify.
    """
    n = len(host)
    text = host.scan_text
    best: tuple[int, int] | None = None
    for q in range(1, n // min_repetitions + 1):
        # minimal preperiod for period q, by binary search on the monotone
        # predicate "the tail from p is q-periodic"
        lo, hi = 0, n - q
        while lo < hi:
            mid = (lo + hi) // 2
            if text[mid : n - q] == text[mid + q : n]:
                hi = mid
            else:
                lo = mid + 1
        p = lo
        if p <= n // 4 and n - p >= min_repetitions * q:
            if best is None or (p, q) < best:
                best = (p, q)
    return best


def looks_periodic(sub: Substitution, check_len: int = 2048) -> bool:
    """The bounded check the tower decision replaced: a periodic-tail witness
    on ``check_len`` letters that still holds on twice that length."""
    witness = periodic_tail_witness(fixed_point_prefix(sub, check_len))
    if witness is None:
        return False
    p, q = witness
    text = fixed_point_prefix(sub, 2 * check_len).scan_text
    return text[p : 2 * check_len - q] == text[p + q :]
