import contextlib
import io
import sys
from pathlib import Path

import pytest

from returns_oracle import tower_prefixes_by_scan
from spectral_oracle import same_nonzero_root_sets
from retword.cli import run_command
from retword.corpus import fibonacci
from retword.relations import (
    check_stepone_hypotheses,
    coding_substitution,
    eigenvalue_transfer_check,
    find_gamma,
    kappa_morphism,
    lambda_morphism,
    matrix_decomposition,
    power_coincidence,
    shared_fixed_point_analysis,
    two_occurrence_exponent,
    verify_propprec,
)
from retword.returns import derivation_tower, estimate_constants, return_substitution
from retword.spectrum import char_poly
from retword.substitution import (
    compose,
    fixed_point_prefix,
    format_substitution,
    incidence_matrix,
    power,
    substitution_from_strings,
)

ROOT = Path(__file__).resolve().parents[1]

PROPPREC_TRIPLES = [
    ("fibonacci", "0", "01"),
    ("fibonacci", "0", "010"),
    ("fibonacci", "01", "010"),
    ("thue_morse", "0", "01"),
    ("thue_morse", "0", "011"),
    ("thue_morse", "01", "011"),
    ("tribonacci", "a", "ab"),
    ("quad", "a", "ab"),
]


def test_lambda_morphism_fibonacci(fib):
    u, v = fib.alphabet.word("0"), fib.alphabet.word("01")
    lam = lambda_morphism(fib, u, v)
    sys_u, _ = return_substitution(fib, u)
    sys_v, _ = return_substitution(fib, v)
    for b in range(sys_v.count):
        assert sys_u.coding()(lam.image(b)).letters == sys_v.word_for(b).letters


def test_lambda_morphism_rejects_equal_prefixes(fib):
    u = fib.alphabet.word("0")
    with pytest.raises(ValueError):
        lambda_morphism(fib, u, u)


def test_lambda_morphism_morse(morse):
    lam = lambda_morphism(morse, morse.alphabet.word("0"), morse.alphabet.word("011"))
    assert lam.source.size == 4  # return letters on 011
    assert lam.target.size == 3  # return letters on 0


def test_kappa_morphism_defining_identity(fib):
    u, v = fib.alphabet.word("0"), fib.alphabet.word("01")
    k, kap = kappa_morphism(fib, u, v)
    assert len(power(fib, k)(u)) > len(v)
    sys_u, _ = return_substitution(fib, u)
    sys_v, _ = return_substitution(fib, v)
    tau_k = power(fib, k)
    for b in range(sys_u.count):
        assert sys_v.coding()(kap.image(b)).letters == tau_k(sys_u.word_for(b)).letters


@pytest.mark.parametrize("name,u_text,v_text", PROPPREC_TRIPLES)
def test_verify_propprec_suite(corpus, name, u_text, v_text):
    sub = corpus[name]
    report = verify_propprec(sub, sub.alphabet.word(u_text), sub.alphabet.word(v_text))
    assert report.passed, [c for c in report.checks if not c.passed]
    assert report.k >= 1


def test_propprec_matrix_consequences(fib):
    u, v = fib.alphabet.word("0"), fib.alphabet.word("01")
    report = verify_propprec(fib, u, v)
    m_lam = incidence_matrix(report.lam)
    m_kap = incidence_matrix(report.kappa)
    assert m_kap @ m_lam == report.tau_v.matrix() ** report.k
    assert m_lam @ m_kap == report.tau_u.matrix() ** report.k


def test_return_substitutions_share_nonzero_roots(corpus):
    for sub in corpus.values():
        polys = []
        for n in (1, 2, 4):
            _, tau_u = return_substitution(sub, fixed_point_prefix(sub, n))
            polys.append(char_poly(tau_u.matrix()))
        for p in polys[1:]:
            assert same_nonzero_root_sets(polys[0], p)


def test_two_occurrence_exponent_fibonacci(fib):
    assert two_occurrence_exponent(fib, fib.alphabet.word("0")) == 3


def test_matrix_decomposition_exact_identities(fib):
    u = fib.alphabet.word("0")
    n0 = two_occurrence_exponent(fib, u)
    md = matrix_decomposition(fib, u, n0)
    system, tau_u = return_substitution(fib, u)
    coding_m = incidence_matrix(system.coding())
    assert fib.matrix() ** md.l == coding_m @ md.k_matrix + md.q_matrix
    assert tau_u.matrix() ** md.l == md.k_matrix @ coding_m + md.p_matrix
    assert md.q_nonnegative and md.q_within_bound and md.p_within_bound


def test_matrix_decomposition_requires_threshold(fib):
    u = fib.alphabet.word("0")
    with pytest.raises(ValueError) as err:
        matrix_decomposition(fib, u, 1)
    assert "3" in str(err.value)


def test_matrix_decomposition_residuals_finite(fib):
    """The residual matrices take few values as the exponent grows."""
    u = fib.alphabet.word("0")
    n0 = two_occurrence_exponent(fib, u)
    constants = estimate_constants(fib, list(range(1, 9)))
    qs = set()
    for l in range(n0, n0 + 7):
        md = matrix_decomposition(fib, u, l, constants)
        qs.add(md.q_matrix.rows)
        assert md.q_within_bound
    assert len(qs) <= 7


def test_matrix_decomposition_morse(morse):
    u = morse.alphabet.word("01")
    n0 = two_occurrence_exponent(morse, u)
    md = matrix_decomposition(morse, u, n0 + 1)
    system, tau_u = return_substitution(morse, u)
    coding_m = incidence_matrix(system.coding())
    assert tau_u.matrix() ** md.l == md.k_matrix @ coding_m + md.p_matrix


def test_eigenvalue_transfer(fib, morse):
    assert eigenvalue_transfer_check(morse, morse.alphabet.word("011"))
    assert eigenvalue_transfer_check(fib, fib.alphabet.word("01"))
    assert eigenvalue_transfer_check(fib, fib.alphabet.word("0"))


def test_stepone_hypothesis_images_start(fib):
    square = power(fib, 2)
    hyp = check_stepone_hypotheses(square, square.alphabet.word("01"))
    assert hyp.images_start_with_one  # 010 and 01 both start with 0


def test_stepone_hypothesis_self_derived(fib):
    hyp = check_stepone_hypotheses(fib, fib.alphabet.word("01"))
    assert hyp.self_derived
    assert hyp.all_hold
    assert hyp.nonperiodic_depth == 2


def test_stepone_hypothesis_mixing_singleton():
    sub = substitution_from_strings("a", {"a": "aa"}, "a")
    # singleton alphabet: mixing is vacuous; non-periodicity fails instead
    hyp = check_stepone_hypotheses(sub, sub.alphabet.word("a"))
    assert hyp.coding_mixing
    assert not hyp.nonperiodic and hyp.nonperiodic_depth is None


def test_coding_substitution_requires_match(fib):
    system, _ = return_substitution(fib, fib.alphabet.word("0"))
    theta = coding_substitution(system)
    assert [w.text() for w in theta.images] == ["01", "0"]


def test_find_gamma_fibonacci(fib):
    u = fib.alphabet.word("01")
    result = find_gamma(fib, u, p_max=9)
    assert result.conclusive
    assert len(result.exponents) >= 2
    assert result.identities_verified
    assert list(result.l_values) == sorted(result.l_values)
    # bounded image lengths across the group
    assert result.max_gamma_image <= 8
    # the commuting identities, re-verified here letter by letter
    system, _ = return_substitution(fib, u)
    theta = coding_substitution(system)
    for p, l_p in zip(result.exponents, result.l_values):
        theta_l = theta.morphism
        for _ in range(l_p - 1):
            theta_l = compose(theta.morphism, theta_l)
        lhs = compose(theta_l, result.gamma)
        rhs = compose(result.gamma, theta_l)
        target = power(fib, p).morphism
        assert lhs == target and rhs == target


def test_nested_coding_equals_iterated_coding(fib, trib):
    """On self-derived prefixes, return words on the nested prefix w_n are the
    n-fold coding images of the letters, numbering included."""
    from retword.substitution import identity_morphism

    for sub, u_text in [(fib, "01"), (fib, "0"), (trib, "a")]:
        u = sub.alphabet.word(u_text)
        sys_u, _ = return_substitution(sub, u)
        assert sys_u.count == sub.alphabet.size
        theta = coding_substitution(sys_u)
        nested = [u]
        theta_pow_u = u
        for _ in range(3):
            theta_pow_u = theta(theta_pow_u)
            nested.append(theta_pow_u + nested[-1])
        for n, w in enumerate(nested, start=1):
            sys_w, _ = return_substitution(sub, w)
            theta_n = identity_morphism(sub.alphabet)
            for _ in range(n):
                theta_n = compose(theta.morphism, theta_n)
            assert sys_w.count == sub.alphabet.size
            for b in range(sys_w.count):
                assert sys_w.word_for(b).letters == theta_n.image(b).letters


def test_find_gamma_empty_below_k0(fib):
    result = find_gamma(fib, fib.alphabet.word("01"), p_max=1)
    assert not result.conclusive
    assert result.exponents == ()


def test_find_gamma_requires_hypotheses(morse):
    # on "0" the Morse return substitution has 3 letters, not 2
    with pytest.raises(ValueError):
        find_gamma(morse, morse.alphabet.word("0"))


def test_power_coincidence_powers(fib, morse):
    assert power_coincidence(fib, power(fib, 2)) == (2, 1)
    assert power_coincidence(morse, power(morse, 3)) == (3, 1)


def test_power_coincidence_gate(fib, morse):
    with pytest.raises(ValueError) as err:
        power_coincidence(fib, morse)
    assert "differ at index" in str(err.value)


def test_power_coincidence_all_corpus(corpus):
    for sub in corpus.values():
        for k in (2, 3):
            pair = power_coincidence(sub, power(sub, k))
            assert pair is not None
            i, j = pair
            from retword.spectrum import spectra_equal_mod_trivial

            assert spectra_equal_mod_trivial(sub.matrix() ** i, (sub.matrix() ** k) ** j)


def test_shared_fixed_point_analysis_squares(corpus):
    for sub in corpus.values():
        witness = shared_fixed_point_analysis(sub, power(sub, 2))
        assert witness is not None
        assert (witness.i, witness.j) == (2, 1)
        _, left = return_substitution(sub, witness.prefix)
        _, right = return_substitution(power(sub, 2), witness.prefix)
        assert tuple(w.letters for w in power(left, witness.i).images) == tuple(
            w.letters for w in power(right, witness.j).images
        )


def test_shared_fixed_point_non_power_fixture(morse):
    """Pair a repeated tower substitution with its own self-derivation coding."""
    from retword.returns import derivation_tower

    tower = derivation_tower(morse, 8)
    p, q = tower.repetition
    base = tower.levels[p - 1].substitution
    # nested prefix carrying level p to level q: decode level-q prefix minus tail
    u_p, u_q = tower.levels[p - 1].prefix, tower.levels[q - 1].prefix
    head = u_q[: len(u_q) - len(u_p)]
    from retword.returns import decompose

    v = decompose(tower.levels[p - 1].system, head)
    v = base.alphabet.from_indices(v.letters)
    sys_v, base_v = return_substitution(base, v)
    assert tuple(w.letters for w in base_v.images) == tuple(w.letters for w in base.images)
    theta = coding_substitution(sys_v)
    witness = shared_fixed_point_analysis(base, theta, budget=6)
    assert witness is not None
    _, left = return_substitution(base, witness.prefix)
    _, right = return_substitution(theta, witness.prefix)
    assert tuple(w.letters for w in power(left, witness.i).images) == tuple(
        w.letters for w in power(right, witness.j).images
    )


def test_shared_fixed_point_gate(fib, morse):
    with pytest.raises(ValueError):
        shared_fixed_point_analysis(fib, morse)


# `shared --left samples/fib.sub --right <fib squared> --budget 1 --json`,
# "{right}" standing for the second file's path
SHARED_PAST_REPETITION = """{
  "command": "shared",
  "argv": [
    "shared",
    "--left",
    "samples/fib.sub",
    "--right",
    "{right}",
    "--budget",
    "1",
    "--json"
  ],
  "config": {
    "budget": 1,
    "depth": 8,
    "left": "samples/fib.sub",
    "power_bound": 6,
    "right": "{right}",
    "prefix_cap": 10000000
  },
  "checks": [
    {
      "name": "power-coincidence",
      "outcome": "found",
      "witness": [
        2,
        1
      ]
    },
    {
      "name": "shared-prefix-power-equality",
      "outcome": "absent",
      "detail": "no witness with depth 8, exponent budget 1"
    }
  ],
  "data": {}
}
"""


def test_shared_walks_the_tower_past_its_repetition(tmp_path, monkeypatch):
    """Fibonacci's tower repeats at depth 2; a shared search of depth 8 goes on
    along the same walk, the oracle's prefixes, and a later tower on the same
    substitution still stops at the repetition without a new closure."""
    right = tmp_path / "fib2.sub"
    right.write_text(format_substitution(power(fibonacci(), 2)))
    visited = []

    def recorded(tau, u):
        visited.append(u.scan_text)
        return return_substitution(tau, u)

    monkeypatch.setattr(sys.modules["retword.relations"], "return_substitution", recorded)
    monkeypatch.chdir(ROOT)
    argv = ["shared", "--left", "samples/fib.sub", "--right", str(right), "--budget", "1"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status, _ = run_command(argv + ["--json"])
    assert status == 3
    assert out.getvalue() == SHARED_PAST_REPETITION.replace("{right}", str(right))
    assert visited == tower_prefixes_by_scan(fibonacci(), 8)

    tau = fibonacci()
    assert shared_fixed_point_analysis(tau, power(tau, 2), depth=8, budget=1) is None
    closures = []
    returns_module = sys.modules["retword.returns"]
    closure = returns_module._return_closure
    monkeypatch.setattr(
        returns_module, "_return_closure", lambda *args: closures.append(args) or closure(*args)
    )
    tower = derivation_tower(tau, 30)
    assert tower.repetition == (1, 2)
    assert [level.prefix.scan_text for level in tower.levels] == visited[:2]
    assert closures == []
