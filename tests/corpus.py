"""Named substitutions used throughout the test and demo suites."""

from __future__ import annotations

from retword.substitution import Alphabet, Morphism, Substitution, substitution_from_strings


def fibonacci() -> Substitution:
    """0 -> 01, 1 -> 0; dominant eigenvalue the golden ratio."""
    return substitution_from_strings("0 1", {"0": "01", "1": "0"}, "0")


def thue_morse() -> Substitution:
    """0 -> 01, 1 -> 10; constant length 2, eigenvalues {0, 2}."""
    return substitution_from_strings("0 1", {"0": "01", "1": "10"}, "0")


def tribonacci() -> Substitution:
    """a -> ab, b -> ac, c -> a."""
    return substitution_from_strings("a b c", {"a": "ab", "b": "ac", "c": "a"}, "a")


def constant_length_three() -> Substitution:
    """a -> abc, b -> bca, c -> cab; constant length 3, dominant eigenvalue 3."""
    return substitution_from_strings("a b c", {"a": "abc", "b": "bca", "c": "cab"}, "a")


def dominant_four_pair() -> tuple[Substitution, Substitution, Morphism]:
    """A 2-letter and a 3-letter substitution, both of dominant eigenvalue 4,
    whose fixed points agree after merging the last two letters of the bigger
    alphabet.  The pair separates dominant-eigenvalue equality from full
    spectrum equality: the 3-letter matrix carries an extra eigenvalue -2.
    """
    tau = substitution_from_strings("a b", {"a": "abab", "b": "abbb"}, "a")
    sigma = substitution_from_strings(
        "a b c", {"a": "abab", "b": "accc", "c": "abbc"}, "a"
    )
    target = Alphabet(("a", "b"))
    phi = Morphism(
        sigma.alphabet,
        target,
        (target.word("a"), target.word("b"), target.word("b")),
    )
    return tau, sigma, phi

