import contextlib
import io
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import relations_oracle
from returns_oracle import tower_prefixes_by_scan
from spectral_oracle import same_nonzero_root_sets
from retword.cli import run_command
from retword.errors import GenerationError, ResourceLimitError
from corpus import fibonacci
from retword.relations import (
    check_stepone_hypotheses,
    coding_substitution,
    eigenvalue_transfer_check,
    find_gamma,
    kappa_morphism,
    lambda_morphism,
    matrix_decomposition,
    SharedWitness,
    coded_fixed_points_agree,
    power_coincidence,
    shared_fixed_point_analysis,
    two_occurrence_exponent,
    verify_propprec,
)
from retword.returns import (
    _tower_level,
    derivation_tower,
    nonperiodic_check,
    return_substitution,
)
from retword.spectrum import char_poly, exponent_pairs
from retword.substitution import (
    FixedPointPrefix,
    IncidenceMatrix,
    Morphism,
    compose,
    fixed_point_prefix,
    format_substitution,
    identity_morphism,
    parse_substitution,
    incidence_matrix,
    is_primitive,
    power,
    substitution_from_strings,
)
from retword.words import Alphabet, Word, find_all, spelling

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


def test_relations_command_composes_only_inside_power(monkeypatch):
    """The four bridge identities compose no morphism: ``relations`` on
    Fibonacci with u = 0, v = 01 makes 6 compositions, each one step of a
    power built by ``power``."""
    callers = []

    def counted_compose(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return compose(*args)

    for module in ("retword.substitution", "retword.relations"):
        monkeypatch.setattr(sys.modules[module], "compose", counted_compose, raising=False)
    argv = ["relations", str(ROOT / "samples" / "fib.sub"), "--u", "0", "--v", "01", "--json"]
    with contextlib.redirect_stdout(io.StringIO()):
        status, report = run_command(argv)
    assert status == 0
    assert all(c["outcome"] == "pass" for c in report.payload["checks"])
    assert callers == ["power"] * 6


def test_failed_bridge_identity_names_the_first_offending_letter(monkeypatch, fib):
    """kappa with one image redrawn: each identity through kappa fails, and
    its detail is the first return letter on which the composites built by
    ``compose`` differ."""
    u, v = fib.alphabet.word("0"), fib.alphabet.word("01")
    k, kap = kappa_morphism(fib, u, v)
    last = kap.source.size - 1
    images = kap.images[:last] + (kap.images[last] + kap.images[0],)
    bad = Morphism(kap.source, kap.target, images)
    monkeypatch.setattr(sys.modules["retword.relations"], "kappa_morphism", lambda *args: (k, bad))
    report = verify_propprec(fib, u, v)
    lam, tau_u, tau_v = report.lam, report.tau_u.morphism, report.tau_v.morphism
    sides = (
        (compose(tau_v, bad), compose(bad, tau_u)),
        (compose(tau_u, lam), compose(lam, tau_v)),
        (compose(bad, lam), power(report.tau_v, k).morphism),
        (compose(lam, bad), power(report.tau_u, k).morphism),
    )
    expected = [
        next((f.source.symbol(b) for b in range(f.source.size) if f.image(b) != g.image(b)), None)
        for f, g in sides
    ]
    assert [c.detail for c in report.checks] == expected
    assert [c.passed for c in report.checks] == [False, True, False, False]


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


def test_two_occurrence_exponent_under_the_cap(monkeypatch):
    """The answer 3 needs Fibonacci's cube, whose images hold 8 letters."""
    monkeypatch.setenv("REPO_PREFIX_CAP", "8")
    assert two_occurrence_exponent(fibonacci(), fibonacci().alphabet.word("0")) == 3
    monkeypatch.setenv("REPO_PREFIX_CAP", "7")
    with pytest.raises(ResourceLimitError, match="REPO_PREFIX_CAP"):
        two_occurrence_exponent(fibonacci(), fibonacci().alphabet.word("0"))


def test_two_occurrence_exponent_fibonacci(fib):
    assert two_occurrence_exponent(fib, fib.alphabet.word("0")) == 3


def test_matrix_decomposition_exact_identities(fib):
    u = fib.alphabet.word("0")
    n0, (md,) = matrix_decomposition(fib, u, 1)
    assert md.l == n0 == two_occurrence_exponent(fib, u)
    system, tau_u = return_substitution(fib, u)
    coding_m = incidence_matrix(system.coding())
    assert fib.matrix() ** md.l == coding_m @ md.k_matrix + md.q_matrix
    assert tau_u.matrix() ** md.l == md.k_matrix @ coding_m + md.p_matrix
    assert md.q_nonnegative and md.q_within_bound and md.p_within_bound


def test_matrix_decomposition_requires_threshold(fib):
    """The splits start at the two-occurrence exponent and run for the span."""
    n0, splits = matrix_decomposition(fib, fib.alphabet.word("0"), 2)
    assert n0 == 3
    assert [md.l for md in splits] == [3, 4]


def test_matrix_decomposition_residuals_finite(fib):
    """The residual matrices take few values as the exponent grows."""
    u = fib.alphabet.word("0")
    n0, splits = matrix_decomposition(fib, u, 7)
    assert [md.l for md in splits] == list(range(n0, n0 + 7))
    qs = set()
    for md in splits:
        qs.add(md.q_matrix.rows)
        assert md.q_within_bound
    assert len(qs) <= 7


def test_matrix_decomposition_morse(morse):
    u = morse.alphabet.word("01")
    n0, (_, md) = matrix_decomposition(morse, u, 2)
    assert md.l == n0 + 1
    system, tau_u = return_substitution(morse, u)
    coding_m = incidence_matrix(system.coding())
    assert tau_u.matrix() ** md.l == md.k_matrix @ coding_m + md.p_matrix


def test_matrix_split_bounds_read_every_entry(fib):
    """Q must stay below its bound in every entry, P within its bound in
    absolute value in every entry; one entry past it fails the check."""
    _, (md,) = matrix_decomposition(fib, fib.alphabet.word("0"), 1)
    bound = Fraction(5, 2)
    cases = [([[0, 2], [1, 0]], True), ([[0, 1], [3, 0]], False), ([[-4, 0], [0, 1]], True)]
    for rows, expected in cases:
        assert replace(md, q_matrix=IncidenceMatrix(rows), q_bound=bound).q_within_bound is expected
    cases = [([[0, 2], [-2, 1]], True), ([[1, 0], [-3, 0]], False), ([[0, 3], [0, 0]], False)]
    for rows, expected in cases:
        assert replace(md, p_matrix=IncidenceMatrix(rows), p_bound=bound).p_within_bound is expected


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


def test_find_gamma_under_the_cap(fib, monkeypatch):
    """Up to p = 9 the search forms Fibonacci's ninth power, of 144 letters."""
    expected = find_gamma(fib, fib.alphabet.word("01"), p_max=9)
    monkeypatch.setenv("REPO_PREFIX_CAP", "144")
    tau = fibonacci()
    assert find_gamma(tau, tau.alphabet.word("01"), p_max=9) == expected
    monkeypatch.setenv("REPO_PREFIX_CAP", "143")
    tau = fibonacci()
    with pytest.raises(ResourceLimitError, match="REPO_PREFIX_CAP"):
        find_gamma(tau, tau.alphabet.word("01"), p_max=9)


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


def test_power_coincidence_gate(fib, morse, capsys):
    """The spectral search claims nothing about fixed points: on Fibonacci
    and Thue-Morse it answers from the matrices, and ``shared`` refuses the
    pair in its walk, naming the tower level where the return words differ."""
    assert power_coincidence(fib, morse) is None
    argv = ["shared", "--left", str(ROOT / "samples" / "fib.sub"), "--right", str(ROOT / "samples" / "morse.sub")]
    status, _ = run_command(argv + ["--json"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == (
        "error: fixed points differ: the return words on the prefix of length 1 differ at tower level 1\n"
    )


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
    tower = derivation_tower(morse)
    p, q = tower.repetition
    base = tower.levels[p - 1].substitution
    # nested prefix carrying level p to level q: decode level-q prefix minus tail
    u_p, u_q = (fixed_point_prefix(morse, tower.levels[d - 1].prefix_length) for d in (p, q))
    head = u_q[: len(u_q) - len(u_p)]
    from retword.returns import decompose

    v = decompose(return_substitution(morse, u_p)[0], head)
    v = Word(base.alphabet, v.letters)
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


def test_shared_fixed_point_gate(fib, morse, trib):
    """Different fixed points are refused by the walk itself: different
    return words, different first letters, or different alphabets."""
    with pytest.raises(ValueError, match="prefix of length 1 differ at tower level 1"):
        shared_fixed_point_analysis(fib, morse)
    swapped = substitution_from_strings("0 1", {"0": "1", "1": "10"}, "1")
    with pytest.raises(ValueError, match="prefix of length 1 differ at tower level 1"):
        shared_fixed_point_analysis(fib, swapped)
    with pytest.raises(ValueError, match="^substitutions are over different alphabets$"):
        shared_fixed_point_analysis(fib, trib)


# `shared --left samples/fib.sub --right <fib squared> --budget 1 --json`,
# "{right}" standing for the second file's path
SHARED_AT_REPETITION = """{
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
      "detail": "no witness at any tower level, exponent budget 1"
    }
  ],
  "data": {}
}
"""


def test_shared_stops_at_the_first_repeated_pair(tmp_path, monkeypatch):
    """The pair of return substitutions of Fibonacci and its square at tower
    level 2 is the pair at level 1, so the search visits the oracle's
    prefixes of levels 1 and 2 only and reports absence with no depth; a
    later tower on either substitution forms no new closure."""
    right = tmp_path / "fib2.sub"
    right.write_text(format_substitution(power(fibonacci(), 2)))
    visited = []

    def recorded(sub, depth):
        level = _tower_level(sub, depth)
        visited.append(fixed_point_prefix(sub, level.prefix_length).scan_text)
        return level

    monkeypatch.setattr(sys.modules["retword.relations"], "_tower_level", recorded)
    monkeypatch.chdir(ROOT)
    argv = ["shared", "--left", "samples/fib.sub", "--right", str(right), "--budget", "1"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status, _ = run_command(argv + ["--json"])
    assert status == 3
    assert out.getvalue() == SHARED_AT_REPETITION.replace("{right}", str(right))
    # each level is visited on both sides
    assert visited == [u for u in tower_prefixes_by_scan(fibonacci(), 2) for _ in range(2)]

    tau = fibonacci()
    sigma = power(tau, 2)
    assert shared_fixed_point_analysis(tau, sigma, budget=1) is None
    closures = []
    returns_module = sys.modules["retword.returns"]
    closure = returns_module._return_closure
    monkeypatch.setattr(
        returns_module, "_return_closure", lambda *args: closures.append(args) or closure(*args)
    )
    tower = derivation_tower(tau)
    assert tower.repetition == (1, 2)
    prefixes = [fixed_point_prefix(tau, level.prefix_length).scan_text for level in tower.levels]
    assert prefixes == tower_prefixes_by_scan(tau, 2)
    assert derivation_tower(sigma).repetition == (1, 2)
    assert closures == []


def test_shared_decides_absence_on_powers_of_const3(const3):
    """const3's square and cube agree at no exponent pair of budget 1; their
    pair of return substitutions repeats at level 4, where a search to depth
    8 hit the buffer cap."""
    assert shared_fixed_point_analysis(power(const3, 2), power(const3, 3), budget=1) is None


# a -> a^9 b, b -> c, c -> a: the cube of its return substitution on a has
# images of 1.7 million letters together, the fourth power of 8.8 * 10^11
NINE_AB = {"a": "aaaaaaaaab", "b": "c", "c": "a"}


def _nine_ab():
    return substitution_from_strings("a b c", NINE_AB, "a")


def test_shared_finds_the_square_and_cube_witness_under_a_small_cap(monkeypatch):
    """(tau^2)_u^3 = (tau^3)_u^2 on u = a; the pairs before (3, 2) have images
    of other lengths, up to 10^12 letters, and are passed by unformed."""
    monkeypatch.setenv("REPO_PREFIX_CAP", "2000000")
    tau = _nine_ab()
    witness = shared_fixed_point_analysis(power(tau, 2), power(tau, 3), budget=8)
    assert witness == SharedWitness(tau.alphabet.word("a"), 3, 2, 1)


def test_shared_refuses_a_witness_past_the_cap(monkeypatch, tmp_path, capsys):
    """(tau^3, tau^4) first agree at (4, 3), which needs tau^12, about 10^12 letters."""
    monkeypatch.setenv("REPO_PREFIX_CAP", "2000000")
    tau = _nine_ab()
    with pytest.raises(ResourceLimitError, match="REPO_PREFIX_CAP"):
        shared_fixed_point_analysis(power(tau, 3), power(tau, 4), budget=8)
    for k in (3, 4):
        (tmp_path / f"tau{k}.sub").write_text(format_substitution(power(_nine_ab(), k)))
    argv = ["shared", "--left", str(tmp_path / "tau3.sub"), "--right", str(tmp_path / "tau4.sub")]
    status, _ = run_command(argv + ["--budget", "8", "--json"])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "REPO_PREFIX_CAP" in captured.err


def shared_without_screen(tau, sigma, depth, budget):
    """The first (level, i, j) up to ``depth`` whose powers agree, every
    pair's powers formed on every level."""
    for level in range(1, depth + 1):
        u = fixed_point_prefix(tau, _tower_level(tau, level).prefix_length)
        _, tau_u = return_substitution(tau, u)
        _, sigma_u = return_substitution(sigma, u)
        for i, j in exponent_pairs(budget):
            if spelling(power(tau_u, i).images) == spelling(power(sigma_u, j).images):
                return SharedWitness(u, i, j, level)
    return None


@st.composite
def small_primitive_substitutions(draw):
    """Primitive substitutions on 2-3 letters, start letter a, images of 1-3 letters."""
    symbols = "abc"[: draw(st.integers(2, 3))]
    images = {s: draw(st.text(symbols, min_size=1, max_size=3)) for s in symbols}
    images["a"] = "a" + draw(st.text(symbols, min_size=1, max_size=2))
    tau = substitution_from_strings(" ".join(symbols), images, "a")
    assume(is_primitive(tau.matrix())[0])
    return tau


@settings(max_examples=60, deadline=None)
@given(small_primitive_substitutions(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_the_length_screen_skips_no_equal_pair(tau, a, b, budget):
    """shared passes by pairs of unequal image lengths only, and stops at the
    first repeated pair of return substitutions: its answer on (tau^a, tau^b)
    is the one found by forming every pair's powers on tower levels 1..8,
    wherever that search stays under the buffer cap."""
    try:
        nonperiodic_check(tau)
    except ValueError:  # a periodic fixed point is refused
        assume(False)
    try:
        expected = shared_without_screen(power(tau, a), power(tau, b), 8, budget)
    except ResourceLimitError:
        assume(False)
    assert shared_fixed_point_analysis(power(tau, a), power(tau, b), budget=budget) == expected


@settings(max_examples=60, deadline=None)
@given(small_primitive_substitutions(), st.data())
def test_kappa_decomposes_at_the_first_exponent_that_outgrows_v(tau, data):
    """On drawn aperiodic substitutions and prefixes |u| < |v| of the fixed
    point, kappa's exponent is the least k with |tau^k(u)| > |v|, found by
    applying tau to u until it outgrows v, and coding_v ∘ kappa = tau^k ∘
    coding_u holds on every return letter."""
    try:
        nonperiodic_check(tau)
    except ValueError:  # a periodic fixed point may have one return word
        assume(False)
    m = data.draw(st.integers(1, 4))
    u, v = fixed_point_prefix(tau, m), fixed_point_prefix(tau, data.draw(st.integers(m + 1, 8)))
    k, kap = kappa_morphism(tau, u, v)
    first, image = 1, tau(u)
    while len(image) <= len(v):
        first, image = first + 1, tau(image)
    assert k == first
    sys_u, _ = return_substitution(tau, u)
    sys_v, _ = return_substitution(tau, v)
    tau_k = power(tau, k)
    for b in range(sys_u.count):
        assert sys_v.coding()(kap.image(b)).letters == tau_k(sys_u.word_for(b)).letters


@settings(max_examples=60, deadline=None)
@given(small_primitive_substitutions(), st.integers(1, 3))
def test_matrix_decomposition_identities_on_drawn_substitutions(tau, n):
    """M^l = C K + Q and M_u^l = K C + P at l = n0, n0+1, n0+2, against the
    dense power and product; K against its definition, the occurrences of
    (return word c)·u in tau^l(b)·u; the bound checks against every entry."""
    try:
        nonperiodic_check(tau)
    except ValueError:  # a periodic fixed point has no return constants
        assume(False)
    u = fixed_point_prefix(tau, n)
    system, tau_u = return_substitution(tau, u)
    coding_m = incidence_matrix(system.coding())
    n0, splits = matrix_decomposition(tau, u, 3)
    assert n0 == two_occurrence_exponent(tau, u)
    assert [md.l for md in splits] == [n0, n0 + 1, n0 + 2]
    for md in splits:
        l = md.l
        assert tau.matrix() ** l == coding_m @ md.k_matrix + md.q_matrix
        assert tau_u.matrix() ** l == md.k_matrix @ coding_m + md.p_matrix
        hosts = [w.scan_text + u.scan_text for w in power(tau, l).images]
        assert md.k_matrix.rows == tuple(
            tuple(len(find_all(host, rw.scan_text + u.scan_text)) for host in hosts)
            for rw in system.return_words
        )
        assert md.q_within_bound == all(e < md.q_bound for row in md.q_matrix.rows for e in row)
        assert md.p_within_bound == all(abs(e) <= md.p_bound for row in md.p_matrix.rows for e in row)


# a -> a^100 b, b -> c: with c -> a and with c -> a b the fixed points agree
# up to the first c, at index 1 010 101
HUNDRED_AB = {"a": "a" * 100 + "b", "b": "c"}


def test_shared_refuses_fixed_points_that_differ_past_the_gate(tmp_path, capsys):
    """Fixed points that first differ past a million letters are an input
    fault, exit 2, named by the tower level where their return words first
    differ; the analysis decides it on its own walk."""
    tau = substitution_from_strings("a b c", {**HUNDRED_AB, "c": "a"}, "a")
    sigma = substitution_from_strings("a b c", {**HUNDRED_AB, "c": "ab"}, "a")
    with pytest.raises(ValueError, match="prefix of length 2 differ at tower level 2"):
        shared_fixed_point_analysis(tau, sigma)
    (tmp_path / "tau.sub").write_text(format_substitution(tau))
    (tmp_path / "sigma.sub").write_text(format_substitution(sigma))
    argv = ["shared", "--left", str(tmp_path / "tau.sub"), "--right", str(tmp_path / "sigma.sub")]
    status, _ = run_command(argv + ["--json"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == (
        "error: fixed points differ: the return words on the prefix of length 2 "
        "differ at tower level 2\n"
    )


def _count_calls(monkeypatch, functions) -> dict[str, int]:
    """Count the calls of each function through every retword module that
    binds it under its name."""
    counts = {}
    for original in functions:
        name = original.__name__
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("retword") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_shared_command_reads_the_witness_identity_off_the_analysis(monkeypatch, tmp_path):
    """``witness-identity-exact`` is the comparison that found the witness:
    the command forms no return substitution and no power beyond those of
    ``shared_fixed_point_analysis`` (two of each more before)."""
    monkeypatch.setenv("REPO_PREFIX_CAP", "2000000")
    for k in (2, 3):
        (tmp_path / f"tau{k}.sub").write_text(format_substitution(power(_nine_ab(), k)))
    left, right = (parse_substitution((tmp_path / f"tau{k}.sub").read_text())[0] for k in (2, 3))
    counts = _count_calls(monkeypatch, (power, return_substitution))
    witness = shared_fixed_point_analysis(left, right, budget=8)
    assert witness == SharedWitness(left.alphabet.word("a"), 3, 2, 1)
    by_analysis = dict(counts)
    counts.update(dict.fromkeys(counts, 0))
    argv = ["shared", "--left", str(tmp_path / "tau2.sub"), "--right", str(tmp_path / "tau3.sub")]
    with contextlib.redirect_stdout(io.StringIO()):
        status, report = run_command(argv + ["--budget", "8", "--json"])
    assert status == 0
    assert report.payload["checks"][-1] == {"name": "witness-identity-exact", "outcome": "pass"}
    assert counts == by_analysis


@st.composite
def small_substitutions(draw, symbols=None):
    """Substitutions on 2-3 letters with start letter a and images of 1-3
    letters, primitive or not; a start image of one letter cannot grow."""
    symbols = symbols or draw(st.sampled_from(["ab", "abc"]))
    images = {"a": "a" + draw(st.text(symbols, max_size=2))}
    for letter in symbols[1:]:
        images[letter] = draw(st.text(symbols, min_size=1, max_size=3))
    return substitution_from_strings(" ".join(symbols), images, "a")


def _outcome(gate, *args):
    """A gate's value, or the type and message of what it raised."""
    try:
        return gate(*args)
    except (ValueError, GenerationError, ResourceLimitError) as exc:
        return type(exc), str(exc)


@st.composite
def pairs_with_an_aperiodic_left(draw, kinds):
    """Primitive (τ, σ) on one alphabet, τ's fixed point aperiodic, of one of
    ``kinds``: two powers of one substitution ("powers"), a substitution and
    its images rearranged with the start letter kept first ("rearranged":
    every composed length agrees, so only the images tell the pairs apart),
    or σ drawn on its own ("independent").  A σ drawn on its own is
    primitive by construction, with no draw filtered out: a's image holds
    every letter and every image holds a."""
    base = draw(small_primitive_substitutions())
    try:
        nonperiodic_check(base)
    except ValueError:
        assume(False)
    symbols = "".join(base.alphabet.symbols)
    kind = draw(st.sampled_from(kinds))
    if kind == "powers":
        return power(base, draw(st.integers(1, 3))), power(base, draw(st.integers(1, 3)))
    images = {}
    if kind == "independent":
        images["a"] = "a" + "".join(draw(st.permutations(symbols[1:]))) + draw(st.text(symbols, max_size=1))
        for letter in symbols[1:]:
            text = draw(st.text(symbols, max_size=2))
            cut = draw(st.integers(0, len(text)))
            images[letter] = text[:cut] + "a" + text[cut:]
    else:
        for letter, image in zip(symbols, base.images):
            keep = 1 if letter == "a" else 0
            text = image.text()
            images[letter] = text[:keep] + "".join(draw(st.permutations(text[keep:])))
    return base, substitution_from_strings(" ".join(symbols), images, "a")


def _walk_matches_the_prefix_oracle(tau, sigma, budget):
    """The shared-fixed-point walk refuses (τ, σ) as having different fixed
    points exactly when the oracle's comparison of max(10 000, 20 · the
    longest image) letters finds a differing index."""
    try:
        shared_fixed_point_analysis(tau, sigma, budget=budget)
    except ValueError as exc:
        assert str(exc).startswith("fixed points differ: ")
        walk_differs = True
    else:
        walk_differs = False
    oracle = _outcome(relations_oracle.same_fixed_point_gate, tau, sigma)
    oracle_differs = isinstance(oracle, tuple)
    if oracle_differs:
        assert oracle[0] is ValueError and oracle[1].startswith("fixed points differ at index ")
    assert walk_differs == oracle_differs


@settings(max_examples=60, deadline=None)
@given(pairs_with_an_aperiodic_left(["powers"]), st.integers(0, 2))
def test_gate_matches_the_prefix_oracle_on_powers(pair, budget):
    """Powers of one substitution share their fixed point: the walk, the one
    gate on fixed-point equality, passes them as the prefix oracle does."""
    _walk_matches_the_prefix_oracle(*pair, budget)


@settings(max_examples=80, deadline=None)
@given(pairs_with_an_aperiodic_left(["rearranged", "independent"]), st.integers(0, 2))
def test_gate_matches_the_prefix_oracle_on_drawn_pairs(pair, budget):
    """σ is drawn on its own, or rearranges each of τ's images (the start
    letter kept first), so that every composed length agrees and only the
    images tell a pair with one fixed point from the others: the walk
    refuses exactly the pairs the prefix oracle refuses."""
    _walk_matches_the_prefix_oracle(*pair, budget)


def _short_start():
    """0 -> 0 cannot grow a fixed point."""
    return substitution_from_strings("0 1", {"0": "0", "1": "10"}, "0")


@pytest.mark.parametrize(
    "left, right, cap, refusal",
    [
        ("short", "fib", None, GenerationError),
        ("fib", "short", None, GenerationError),
        ("short", "short", None, GenerationError),
        ("fib", "fib2", None, None),
        ("short", "fib", 5000, GenerationError),
        ("fib", "short", 5000, ResourceLimitError),
        ("short", "short", 5000, GenerationError),
        ("fib", "fib2", 5000, ResourceLimitError),
    ],
)
def test_gate_refuses_in_the_comparison_order(monkeypatch, left, right, cap, refusal):
    """``cobham``'s gate on 10 000 letters coded by the identity refuses as
    its comparison does: τ's start image, then τ's cap, then σ's, then σ's
    cap.  A start image of one letter on either side, and a cap below the
    compared length, are refused, commuting pairs included."""
    if cap is not None:
        monkeypatch.setenv("REPO_PREFIX_CAP", str(cap))
    make = {"short": _short_start, "fib": fibonacci, "fib2": lambda: power(fibonacci(), 2)}

    def gate_args():
        tau, sigma = make[left](), make[right]()
        return tau, identity_morphism(tau.alphabet), sigma, identity_morphism(sigma.alphabet), 10_000

    found = _outcome(coded_fixed_points_agree, *gate_args())
    assert found == _outcome(relations_oracle.coded_fixed_points_agree, *gate_args())
    assert found is True if refusal is None else found[0] is refusal


def _buffers(monkeypatch) -> list:
    """Every fixed-point generator made from here on."""
    made = []
    init = FixedPointPrefix.__init__
    monkeypatch.setattr(FixedPointPrefix, "__init__", lambda fp, *args: made.append(fp) or init(fp, *args))
    return made


def test_shared_on_fibonacci_and_its_square_generates_no_gate_prefix(monkeypatch, tmp_path):
    """``shared`` compares no fixed-point prefix: under a buffer cap of 5000
    letters, half of what a 10 000-letter comparison needs, Fibonacci and
    its square answer all three checks."""
    monkeypatch.setenv("REPO_PREFIX_CAP", "5000")
    (tmp_path / "fib2.sub").write_text(format_substitution(power(fibonacci(), 2)))
    argv = ["shared", "--left", str(ROOT / "samples" / "fib.sub"), "--right", str(tmp_path / "fib2.sub")]
    with contextlib.redirect_stdout(io.StringIO()):
        status, report = run_command(argv + ["--json"])
    assert status == 0
    assert report.payload["checks"] == [
        {"name": "power-coincidence", "outcome": "found", "witness": [2, 1]},
        {"name": "shared-prefix-power-equality", "outcome": "found", "witness": {"prefix": "0", "i": 2, "j": 1}},
        {"name": "witness-identity-exact", "outcome": "pass"},
    ]


def test_cobham_on_powers_of_fibonacci_generates_no_gate_prefix(monkeypatch, tmp_path):
    """fib² and fib³ commute and are coded by the identity: the gate passes
    with its detail unchanged and no buffer reaches its 10 000 letters."""
    for k in (2, 3):
        (tmp_path / f"fib{k}.sub").write_text(format_substitution(power(fibonacci(), k)))
    made = _buffers(monkeypatch)
    argv = ["cobham", "--left", str(tmp_path / "fib2.sub"), "--right", str(tmp_path / "fib3.sub")]
    with contextlib.redirect_stdout(io.StringIO()):
        status, report = run_command(argv + ["--json"])
    assert status == 0
    assert report.payload["checks"][0] == {
        "name": "coded-fixed-points-agree",
        "outcome": "pass",
        "detail": "compared 10000 letters",
    }
    assert all(len(fp) < 10_000 for fp in made)


@st.composite
def coded_pairs(draw):
    """(tau^a, coding, tau^b, coding) with codings onto x and y, their
    targets in either order; a coding is sometimes on the wrong alphabet or
    not letter-to-letter."""
    tau = draw(small_substitutions())

    def coding():
        source = tau.alphabet if draw(st.integers(0, 4)) else Alphabet("pqr")
        target = Alphabet(draw(st.sampled_from(["xy", "yx"])))
        longest = draw(st.sampled_from([1, 1, 1, 1, 2]))
        images = [target.word(draw(st.text("xy", min_size=1, max_size=longest))) for _ in range(source.size)]
        return Morphism(source, target, images)

    tau_coding = coding()
    sigma_coding = tau_coding if draw(st.booleans()) else coding()
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return power(tau, a), tau_coding, power(tau, b), sigma_coding


@settings(max_examples=80, deadline=None)
@given(coded_pairs(), st.sampled_from([0, 1, 7, 600]))
def test_coded_gate_matches_the_prefix_oracle(pair, n):
    assert _outcome(coded_fixed_points_agree, *pair, n) == _outcome(
        relations_oracle.coded_fixed_points_agree, *pair, n
    )
