"""Acceptance gate: one test per criterion, each timed against its budget.

Every check is exact (integer, rational, or word equality) unless the
criterion itself is existence-within-bounds.  Each test prints a single
PASS line; run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

import time
from fractions import Fraction
from pathlib import Path

import pytest

from retword.circularity import find_n0, sync_delay_search
from retword.cli import EXIT_BUDGET, EXIT_OK, run_command
from retword.intpoly import IntPolynomial
from retword.relations import (
    matrix_decomposition,
    power_coincidence,
    shared_fixed_point_analysis,
    two_occurrence_exponent,
    verify_propprec,
)
from retword.returns import (
    derivation_tower,
    return_substitution,
    return_words_of_prefix,
)
from retword.spectrum import (
    char_poly,
    mult_dependent,
    spectra_equal_mod_trivial,
    strip_trivial,
    spectrum,
)
from retword.substitution import (
    fixed_point_prefix,
    incidence_matrix,
    morphic_image_prefix,
    power,
)
from retword.words import Alphabet

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
P = IntPolynomial


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"budget {self.seconds}s exceeded: {self.elapsed:.2f}s"
            )
        return False


def report(n: int, message: str, budget: Budget) -> None:
    print(f"ACCEPTANCE {n:2d} PASS ({budget.elapsed:6.2f}s): {message}")


def test_criterion_01_counterexample_pair(quad_pair, capsys):
    with Budget(1.0) as budget:
        tau, sigma, phi = quad_pair
        assert char_poly(tau.matrix()) == P((-1, 1)) * P((-4, 1))
        assert char_poly(sigma.matrix()) == P((-1, 1)) * P((2, 1)) * P((-4, 1))
        image = morphic_image_prefix(phi, sigma, 10_000)
        assert image.symbols() == fixed_point_prefix(tau, 10_000).symbols()
        status, rep = run_command(
            [
                "cobham",
                "--left", str(SAMPLES / "tau4.sub"),
                "--right", str(SAMPLES / "sigma4.sub"),
                "--coding-left", "id",
                "--coding-right", "phi",
                "--bound", "12",
            ]
        )
        capsys.readouterr()
        assert status == EXIT_OK
        witness = next(
            c["witness"] for c in rep.payload["checks"] if c["outcome"] == "found"
        )
        assert (witness["m"], witness["n"]) == (1, 1)
    with capsys.disabled():
        report(1, "counterexample pair: exact spectra, shared image, witness (1,1)", budget)


def test_criterion_02_fibonacci_self_derivation(fib, capsys):
    with Budget(1.0) as budget:
        system, fib_01 = return_substitution(fib, fib.alphabet.word("01"))
        assert system.count == fib.alphabet.size
        assert tuple(w.letters for w in fib_01.images) == tuple(
            w.letters for w in fib.images
        )
        assert fib_01.start == fib.start == 0
        from retword.relations import eigenvalue_transfer_check

        assert eigenvalue_transfer_check(fib, fib.alphabet.word("01"))
    with capsys.disabled():
        report(2, "return substitution on 01 is the Fibonacci substitution itself", budget)


def test_criterion_03_morse_derived_spectrum(morse, capsys):
    with Budget(1.0) as budget:
        _, m011 = return_substitution(morse, morse.alphabet.word("011"))
        assert m011.alphabet.size == 4
        s = spectrum(m011.matrix())
        assert s.char_poly == P((0, 0, -2, -1, 1))
        roots = sorted(
            [r for r, mult in s.exact_roots for _ in range(mult)]
        )
        assert roots == [Fraction(-1), Fraction(0), Fraction(0), Fraction(2)]
        assert strip_trivial(spectrum(morse.matrix())).char_poly == P((-2, 1))
        assert strip_trivial(s).char_poly == P((-2, 1))
        assert spectra_equal_mod_trivial(morse.matrix(), m011.matrix())
    with capsys.disabled():
        report(3, "derived Morse spectrum {0,0,-1,2}, both strip to {2}", budget)


def test_criterion_04_return_word_example(capsys):
    with Budget(1.0) as budget:
        abc = Alphabet(("a", "b", "c"))
        host = abc.word("ababcababbbabababcababbbababaccababacc")
        system = return_words_of_prefix(host, abc.word("abab"))
        assert [w.text() for w in system.return_words] == [
            "ababc",
            "ababbb",
            "ab",
            "ababacc",
        ]
    with capsys.disabled():
        report(4, "return words on abab in first-appearance order", budget)


def test_criterion_05_matrix_split_suite(corpus, capsys):
    with Budget(30.0) as budget:
        for name, sub in corpus.items():
            for n in range(1, 6):
                u = fixed_point_prefix(sub, n)
                system, tau_u = return_substitution(sub, u)
                coding_m = incidence_matrix(system.coding())
                n0, splits = matrix_decomposition(sub, u, 3)
                assert n0 == two_occurrence_exponent(sub, u)
                assert [md.l for md in splits] == [n0, n0 + 1, n0 + 2]
                for md in splits:
                    l = md.l
                    assert sub.matrix() ** l == coding_m @ md.k_matrix + md.q_matrix
                    assert tau_u.matrix() ** l == md.k_matrix @ coding_m + md.p_matrix
                    assert md.q_nonnegative
                    assert md.q_within_bound, (name, n, l)
                    assert md.p_within_bound, (name, n, l)
    with capsys.disabled():
        report(5, "matrix splits exact with residual bounds, 4 substitutions x 5 prefixes x 3 exponents", budget)


def test_criterion_06_bridge_identities(corpus, capsys):
    triples = [
        ("fibonacci", "0", "01"),
        ("fibonacci", "01", "010"),
        ("thue_morse", "0", "01"),
        ("thue_morse", "01", "011"),
        ("tribonacci", "a", "ab"),
        ("quad", "a", "ab"),
    ]
    with Budget(30.0) as budget:
        for name, u_text, v_text in triples:
            sub = corpus[name]
            rep = verify_propprec(sub, sub.alphabet.word(u_text), sub.alphabet.word(v_text))
            assert rep.passed, (name, u_text, v_text)
    with capsys.disabled():
        report(6, f"all four bridge identities exact on {len(triples)} triples", budget)


def test_criterion_07_tower_repetition(corpus, capsys):
    with Budget(60.0) as budget:
        for name, sub in corpus.items():
            tower = derivation_tower(sub)
            p, q = tower.repetition
            assert q <= 8, name
            a = tower.levels[p - 1].substitution
            b = tower.levels[q - 1].substitution
            assert tuple(w.letters for w in a.images) == tuple(w.letters for w in b.images)
    with capsys.disabled():
        report(7, "derivation towers repeat within depth 8 on the whole corpus", budget)


def test_criterion_08_shared_fixed_point(corpus, capsys):
    with Budget(60.0) as budget:
        for name, sub in corpus.items():
            witness = shared_fixed_point_analysis(sub, power(sub, 2))
            assert witness is not None, name
            _, left = return_substitution(sub, witness.prefix)
            _, right = return_substitution(power(sub, 2), witness.prefix)
            assert tuple(w.letters for w in power(left, witness.i).images) == tuple(
                w.letters for w in power(right, witness.j).images
            )
            for k in (2, 3):
                pair = power_coincidence(sub, power(sub, k))
                assert pair is not None, (name, k)
                i, j = pair
                assert spectra_equal_mod_trivial(
                    sub.matrix() ** i, (sub.matrix() ** k) ** j
                )
    with capsys.disabled():
        report(8, "shared-prefix power witnesses and power coincidences on the corpus", budget)


def test_criterion_09_injectivity_and_delay(fib, morse, capsys):
    with Budget(60.0) as budget:
        n_fib = find_n0(fib, max_prefix=200)
        n_morse = find_n0(morse, max_prefix=200)
        assert n_fib is not None and 1 <= n_fib <= 200
        assert n_morse is not None and 1 <= n_morse <= 200
        d_fib = sync_delay_search(fib, d_max=64, sample_len=10)
        d_morse = sync_delay_search(morse, d_max=64, sample_len=10)
        assert d_fib is not None and d_morse is not None
    with capsys.disabled():
        report(9, f"injectivity prefixes ({n_fib}, {n_morse}) and delays ({d_fib}, {d_morse})", budget)


def test_criterion_10_periodic_builder(fib, capsys):
    from retword.periodic import build_periodic_presentation, verify_presentation
    from retword.substitution import compose, is_primitive

    target = Alphabet(("a", "b"))
    with Budget(10.0) as budget:
        for m_text in ("a", "ab", "aba"):
            m = target.word(m_text)
            pres = build_periodic_presentation(m, fib)
            rho = power(fib, pres.exponent)
            assert compose(pres.zeta.morphism, pres.psi) == compose(
                pres.psi, rho.morphism
            )
            assert is_primitive(pres.zeta.matrix())[0]
            coded = morphic_image_prefix(pres.coding, pres.zeta, 1000)
            expected = (m * (1000 // len(m) + 1))[:1000]
            assert coded.letters == expected.letters
            assert all(c.passed for c in verify_presentation(pres))
    with capsys.disabled():
        report(10, "periodic presentations for a, ab, aba over Fibonacci", budget)


def test_criterion_11_negative_dependence_honesty(morse, const3, capsys, tmp_path):
    with Budget(5.0) as budget:
        # oracle: powers of 2 and 3 never meet
        assert all(2**m != 3**n for m in range(1, 13) for n in range(1, 13))
        assert mult_dependent(morse.matrix(), const3.matrix(), 12) is None
        # the report wording for an absent search: same matrices, gate passing
        two = tmp_path / "two.sub"
        two.write_text("alphabet = a b\nstart = a\na -> a b\nb -> a b\n")
        three = tmp_path / "three.sub"
        three.write_text("alphabet = a b\nstart = a\na -> a b a\nb -> b a b\n")
        status, rep = run_command(
            ["cobham", "--left", str(two), "--right", str(three), "--bound", "12"]
        )
        capsys.readouterr()
        assert status == EXIT_BUDGET
        absent = next(c for c in rep.payload["checks"] if c["outcome"] == "absent")
        assert "no witness <= 12" in absent["detail"]
        assert "independent" not in absent["detail"]
    with capsys.disabled():
        report(11, "dominant-2 vs dominant-3: absent with explicit bound, never 'independent'", budget)
