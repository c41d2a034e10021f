"""Guard-rail checks: every documented error branch raises what it promises."""

from pathlib import Path

import pytest

from retword.cli import run_command
from retword.errors import DecompositionError, InternalInconsistencyError
from retword.intpoly import IntPolynomial, cyclotomic, isolate_largest_real_root
from retword.returns import (
    decompose,
    estimate_constants,
    return_substitution,
)
from retword import relations
from retword.relations import coding_substitution, kappa_morphism
from retword.spectrum import dominant_eigenvalue, spectrum_of_poly, strip_trivial_poly
from retword.substitution import (
    Alphabet,
    IncidenceMatrix,
    Morphism,
    Word,
    fixed_point_prefix,
    is_primitive,
    morphic_image_prefix,
    power,
    prefix_cap,
)
from retword.circularity import interpretations, sync_delay_search

P = IntPolynomial
AB = Alphabet(("a", "b"))
ROOT = Path(__file__).resolve().parents[1]


def test_word_letter_out_of_range():
    with pytest.raises(ValueError):
        Word(AB, (0, 5))


def test_word_concat_mismatch():
    other = Alphabet(("x", "y"))
    with pytest.raises(ValueError):
        AB.word("a") + other.word("x")


def test_matrix_shape_mismatch():
    a = IncidenceMatrix(((1, 2),))
    b = IncidenceMatrix(((1, 2),))
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a ** 2
    with pytest.raises(ValueError):
        IncidenceMatrix(((1,), (2,))) ** -1


def test_is_primitive_negative_entries():
    with pytest.raises(ValueError):
        is_primitive(IncidenceMatrix(((1, -1), (1, 1))))


def test_power_and_prefix_preconditions(fib):
    with pytest.raises(ValueError):
        power(fib, 0)
    with pytest.raises(ValueError):
        fixed_point_prefix(fib, 0)


def test_morphic_image_wrong_source(fib, trib):
    target = Alphabet(("z",))
    coding = Morphism(
        trib.alphabet, target, tuple(target.word("z") for _ in range(3))
    )
    with pytest.raises(ValueError):
        morphic_image_prefix(coding, fib, 5)


def test_prefix_cap_env_validation(monkeypatch):
    monkeypatch.setenv("REPO_PREFIX_CAP", "zero")
    with pytest.raises(ValueError):
        prefix_cap()
    monkeypatch.setenv("REPO_PREFIX_CAP", "-3")
    with pytest.raises(ValueError):
        prefix_cap()


def test_try_exact_div_refuses_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        P((1, 1)).try_exact_div(P(()))


def test_cyclotomic_index_validation():
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_isolate_needs_real_roots():
    with pytest.raises(ValueError):
        isolate_largest_real_root(P((5,)))
    with pytest.raises(ValueError):
        isolate_largest_real_root(P((1, 0, 1)))  # x^2 + 1


def test_spectrum_guards():
    with pytest.raises(ValueError):
        spectrum_of_poly(P(()))
    with pytest.raises(ValueError):
        strip_trivial_poly(P(()))
    with pytest.raises(ValueError):
        dominant_eigenvalue(IncidenceMatrix(((0, 1),)))
    with pytest.raises(ValueError):
        dominant_eigenvalue(IncidenceMatrix(((0, -1), (1, 0))))


def test_return_substitution_guards(fib, trib):
    with pytest.raises(ValueError):
        return_substitution(fib, Word(fib.alphabet, ()))
    with pytest.raises(ValueError):
        return_substitution(fib, trib.alphabet.word("a"))


def test_decompose_wrong_alphabet(fib, trib):
    system, _ = return_substitution(fib, fib.alphabet.word("0"))
    with pytest.raises(DecompositionError):
        decompose(system, trib.alphabet.word("ab"))


def test_tower_and_sampling_guards(fib, capsys):
    """``tower --depth 0`` prints no level at all: exit 2 with one line."""
    status, _ = run_command(["tower", str(ROOT / "samples" / "fib.sub"), "--depth", "0"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error: tower depth must be >= 1\n"
    with pytest.raises(ValueError):
        estimate_constants(fib, [])


def test_kappa_budget_exhaustion(fib, monkeypatch):
    from retword.errors import ResourceLimitError

    monkeypatch.setattr(relations, "EXPONENT_BUDGET", 1)
    with pytest.raises(ResourceLimitError):
        kappa_morphism(fib, fib.alphabet.word("0"), fib.alphabet.word("01"))


@pytest.mark.parametrize(
    "budget, search, prefixes, message",
    [
        # Fibonacci's images first show 0 twice each in its cube
        (2, relations.two_occurrence_exponent, ("0",), "no exponent <= 2 gives two occurrences"),
        # the image of 0 under the square holds 3 letters, as many as v
        (2, kappa_morphism, ("0", "010"), "no exponent <= 2 outgrows v"),
        # once tau^k(u) outgrows v every image splits, so a broken
        # decomposition is an internal inconsistency, not a refusal
        (2, kappa_morphism, ("0", "01"), "no split of the images of tau^2 over the return words on v: not split"),
        # Fibonacci's image 1 -> 0 does not start with u = 01, so k0 is 2
        (1, relations.find_gamma, ("01",), "no exponent <= 1 makes u a prefix of every image"),
    ],
)
def test_exponent_searches_refuse_past_the_budget(fib, monkeypatch, budget, search, prefixes, message):
    """Each least-exponent search of ``relations`` reads EXPONENT_BUDGET when
    called and names what no exponent up to it achieved; ``kappa_morphism``
    decomposes once, at its least exponent, and a failure there is a broken
    invariant."""
    from retword.errors import ResourceLimitError

    def broken(system, word):
        raise DecompositionError("not split", position=0)

    monkeypatch.setattr(relations, "EXPONENT_BUDGET", budget)
    broken_split = "split" in message
    if broken_split:
        monkeypatch.setattr(relations, "decompose", broken)
    with pytest.raises(InternalInconsistencyError if broken_split else ResourceLimitError) as err:
        search(fib, *map(fib.alphabet.word, prefixes))
    assert str(err.value) == message
    if not broken_split:
        assert err.value.budget == budget


def test_coding_substitution_needs_matching_alphabet(morse):
    system, _ = return_substitution(morse, morse.alphabet.word("0"))
    # three return words over a two-letter base alphabet
    with pytest.raises(ValueError):
        coding_substitution(system)


def test_interpretations_empty_factor(fib):
    with pytest.raises(ValueError):
        interpretations(fib, Word(fib.alphabet, ()))


def test_sync_delay_requires_primitive():
    from retword.substitution import substitution_from_strings

    reducible = substitution_from_strings("a b", {"a": "ab", "b": "bb"}, "a")
    with pytest.raises(ValueError):
        sync_delay_search(reducible)
