import contextlib
import gc
import io
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import circularity_oracle as oracle
from retword.circularity import (
    InjectivityCertificate,
    Interpretation,
    _first_collision,
    _InterpretationContext,
    check_injectivity,
    find_n0,
    interpretations,
    sync_delay_search,
)
from retword.cli import build_parser, run_command
from retword.corpus import fibonacci, thue_morse
from retword.relations import coding_substitution, find_gamma
from retword.returns import nonperiodic_check, return_substitution
from retword.substitution import (
    Morphism,
    compose,
    fixed_point_prefix,
    is_primitive,
    parse_substitution,
    power,
    substitution_from_strings,
)
from retword.words import Word

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def test_interpretations_morse_0110(morse):
    found = interpretations(morse, morse.alphabet.word("0110"))
    triples = {(i.left.text(), i.core.text(), i.right.text()) for i in found}
    assert ("", "01", "") in triples
    for i in found:
        assert i.reconstruct(morse).letters == morse.alphabet.word("0110").letters


def test_interpretations_whole_image(fib):
    # the image of a letter always interprets with empty margins
    x = fib.image(0)
    found = interpretations(fib, x)
    assert any(
        i.left.letters == () and i.core.letters == (0,) and i.right.letters == ()
        for i in found
    )


def test_interpretations_single_interior_letter(morse):
    found = interpretations(morse, morse.alphabet.word("1"))
    empties = [i for i in found if i.core.letters == ()]
    assert empties, "a single letter interior to an image splits as margins only"
    for i in empties:
        assert len(i.left) + len(i.right) == 1


def test_interpretations_requires_observed_factor(fib):
    with pytest.raises(ValueError):
        interpretations(fib, fib.alphabet.word("11"))


def test_sync_delay_fibonacci(fib):
    delay = sync_delay_search(fib, d_max=64, sample_len=10)
    assert delay is not None
    assert delay >= 0


def test_sync_delay_morse(morse):
    delay = sync_delay_search(morse, d_max=64, sample_len=10)
    assert delay is not None


def test_sync_delay_zero_budget_absent(morse):
    # Morse needs a positive delay, so a zero budget must come back empty
    assert sync_delay_search(morse, d_max=64, sample_len=8) >= 1
    assert sync_delay_search(morse, d_max=0, sample_len=8) is None


def test_sync_delay_certifies_sample(fib):
    """Re-verify the returned delay directly against the definition."""
    delay = sync_delay_search(fib, d_max=64, sample_len=8)
    prefix = fixed_point_prefix(fib, 2000).letters
    factors = set()
    for length in range(1, 9):
        for i in range(len(prefix) - length + 1):
            factors.add(prefix[i : i + length])
    for letters in factors:
        x = Word(fib.alphabet, letters)
        interps = interpretations(fib, x)
        cut_sets = [set(i.cuts(fib)) for i in interps]
        for a, ai in enumerate(interps):
            for b in range(len(interps)):
                if a == b:
                    continue
                for pos, letter in ai.cuts(fib):
                    tail = len(x) - pos - len(fib.image(letter))
                    if pos > delay and tail > delay:
                        assert (pos, letter) in cut_sets[b]


def test_check_injectivity_fibonacci(fib):
    cert = check_injectivity(fib, fib.alphabet.word("01"), 30)
    assert cert.passed
    assert cert.words_checked > 0
    assert cert.collision is None


def test_check_injectivity_morse(morse):
    cert = check_injectivity(morse, morse.alphabet.word("011"), 30)
    assert cert.passed


def test_check_injectivity_reports_collision():
    """a -> ab, b -> ca, c -> ca sends the decodable factors ab and ac to abca."""
    tau = substitution_from_strings("a b c", {"a": "ab", "b": "ca", "c": "ca"}, "a")
    cert = check_injectivity(tau, tau.alphabet.word("a"), 8)
    assert not cert.passed
    first, second = cert.collision
    assert {first.text(), second.text()} == {"ab", "ac"}
    assert tau(first) == tau(second)
    assert cert.words_checked >= 2


# substitutions with decodable factors sharing an image: the first is the case
# above, the others were drawn at random, some colliding only after hundreds
# of words in lexicographic order
COLLIDING = [
    {"a": "ab", "b": "ca", "c": "ca"},
    {"a": "abca", "b": "cab", "c": "cab"},
    {"a": "abca", "b": "abca", "c": "bcb"},
    {"a": "aaac", "b": "ab", "c": "ab"},
    {"a": "aac", "b": "aac", "c": "aabc"},
    {"a": "aabc", "b": "d", "c": "aabc", "d": "aabc"},
    {"a": "aad", "b": "aac", "c": "aac", "d": "aaab"},
    {"a": "ab", "b": "da", "c": "da", "d": "caa"},
    {"a": "ab", "b": "da", "c": "da", "d": "cda"},
]


@pytest.mark.parametrize("images", COLLIDING, ids=lambda im: ",".join(im.values()))
def test_check_injectivity_collisions_match_word_oracle(images):
    tau = substitution_from_strings(" ".join(images), images, "a")
    outcomes = set()
    for prefix_len in range(1, 7):
        u = fixed_point_prefix(tau, prefix_len)
        for bound in (1, 2, 3, 5, 8, 13, 21, 30):
            cert = check_injectivity(tau, u, bound)
            assert cert == oracle.check_injectivity(tau, u, bound)
            outcomes.add(cert.passed)
    assert False in outcomes
    assert find_n0(tau, max_prefix=6) == oracle.find_n0(tau, max_prefix=6)


@st.composite
def primitive_substitutions(draw):
    """Primitive substitutions on 2-4 letters with start letter a and images of
    1-4 letters; a letter often repeats an earlier letter's image, so that
    collisions can occur."""
    symbols = "abcd"[: draw(st.integers(2, 4))]
    images = {"a": "a" + draw(st.text(symbols, min_size=1, max_size=3))}
    for s in symbols[1:]:
        fresh = st.text(symbols, min_size=1, max_size=4)
        images[s] = draw(st.one_of(fresh, st.sampled_from(sorted(images.values()))))
    tau = substitution_from_strings(" ".join(symbols), images, "a")
    assume(is_primitive(tau.matrix())[0])
    return tau


@settings(max_examples=60, deadline=None)
@given(primitive_substitutions(), st.data())
def test_interpretations_exhaustive_against_bruteforce(tau, data):
    """Oracle: enumerate all (left, core, right) directly from definitions,
    for a drawn factor of a drawn substitution's fixed point."""
    prefix = fixed_point_prefix(tau, 400).letters
    length = data.draw(st.integers(1, 8))
    start = data.draw(st.integers(0, len(prefix) - length))
    x = Word(tau.alphabet, prefix[start : start + length])
    factors = {()}
    for n in range(1, len(x) + 1):
        for i in range(len(prefix) - n + 1):
            factors.add(prefix[i : i + n])
    suffixes = {w.letters[i:] for w in tau.images for i in range(len(w) + 1)}
    prefixes = {w.letters[:i] for w in tau.images for i in range(len(w) + 1)}
    expected = set()
    for left in suffixes:
        if x.letters[: len(left)] != left:
            continue
        # try all cores drawn from observed factors
        for core in factors:
            image = []
            for c in core:
                image.extend(tau.image(c).letters)
            image = tuple(image)
            rest = x.letters[len(left) :]
            if rest[: len(image)] != image:
                continue
            right = rest[len(image) :]
            if right in prefixes:
                expected.add((left, core, right))
    found = interpretations(tau, x, search_prefix_len=400)
    triples = [(i.left.letters, i.core.letters, i.right.letters) for i in found]
    assert set(triples) == expected
    assert len(triples) == len(expected)
    keys = [(i.left.scan_text, i.core.scan_text, i.right.scan_text) for i in found]
    assert keys == sorted(keys)


@settings(max_examples=40, deadline=None)
@given(primitive_substitutions(), st.integers(1, 10), st.integers(0, 6))
def test_sync_delay_matches_pair_oracle(tau, sample_len, d_max):
    """The union-minus-intersection forcing over the extended interpretations
    gives the delay, or None, that comparing every ordered pair of the
    worklist walk's interpretations gives."""
    try:
        nonperiodic_check(tau)
    except ValueError:
        with pytest.raises(ValueError, match="fixed point is periodic"):
            sync_delay_search(tau, d_max, sample_len)
        return
    expected = oracle.sync_delay_search(tau, d_max, sample_len)
    assert sync_delay_search(tau, d_max, sample_len) == expected


@settings(max_examples=60, deadline=None)
@given(primitive_substitutions(), st.integers(1, 10), st.integers(1, 600))
def test_extension_step_matches_worklist_walk(tau, sample_len, prefix_len):
    """Along the trie order of the sampled factors, one extension step from a
    factor's parent gives, each once, the interpretations the worklist walk
    finds from scratch."""
    ctx = _InterpretationContext(tau, prefix_len, sample_len)
    host = fixed_point_prefix(tau, prefix_len)
    walk = oracle.WorklistWalk(tau, host, sample_len)
    assert ctx.factors == [w.scan_text for w in oracle.window_factors(host, sample_len)]
    stack = [[(0, 0, "")]]
    for x in ctx.factors:
        del stack[len(x) :]
        threads = ctx.extend(stack[-1], x)
        stack.append(threads)
        assert sorted(threads) == sorted(walk(x))


def test_sync_delay_refuses_periodic_fixed_point():
    """a -> ab, b -> ab is primitive with the periodic fixed point (ab)^omega."""
    tau = substitution_from_strings("a b", {"a": "ab", "b": "ab"}, "a")
    assert is_primitive(tau.matrix())[0]
    with pytest.raises(ValueError, match="fixed point is periodic"):
        sync_delay_search(tau)


@pytest.mark.parametrize("make", [fibonacci, thue_morse])
def test_sync_delay_builds_no_word_per_core(monkeypatch, make):
    """The delay search grows cores as scan texts and reads cuts off them, so
    it concatenates no Word and builds no Interpretation.  The periodicity
    check it starts with is cached on the substitution, and is taken first,
    as the circularity command's find_n0 takes it."""
    tau = make()
    nonperiodic_check(tau)
    calls = []
    add, init = Word.__add__, Interpretation.__init__
    monkeypatch.setattr(Word, "__add__", lambda a, b: calls.append("add") or add(a, b))
    monkeypatch.setattr(
        Interpretation, "__init__", lambda i, *args: calls.append("init") or init(i, *args)
    )
    assert sync_delay_search(tau) is not None
    assert calls == []


@settings(max_examples=80, deadline=None)
@given(primitive_substitutions(), st.integers(1, 6), st.integers(1, 30))
def test_check_injectivity_matches_word_oracle(tau, prefix_len, bound):
    u = fixed_point_prefix(tau, prefix_len)
    try:
        expected = oracle.check_injectivity(tau, u, bound)
    except ValueError:  # a periodic fixed point is refused by both
        with pytest.raises(ValueError):
            check_injectivity(tau, u, bound)
        return
    assert check_injectivity(tau, u, bound) == expected


@settings(max_examples=40, deadline=None)
@given(primitive_substitutions(), st.integers(1, 30))
def test_find_n0_matches_word_oracle(tau, bound):
    try:
        expected = oracle.find_n0(tau, bound, max_prefix=6)
    except ValueError:
        with pytest.raises(ValueError):
            find_n0(tau, bound, max_prefix=6)
        return
    assert find_n0(tau, bound, max_prefix=6) == expected


def _own_factor_collision(sub, bound, sample=1000):
    """find_n0's own-factor check on a stand-in for the return substitution,
    next to the word-by-word oracle over the same host."""
    host = fixed_point_prefix(sub, sample)
    found = _first_collision(host, sub, [1] * sub.alphabet.size, bound)
    return found, oracle.first_collision(sub, oracle.window_factors(host, bound))


@pytest.mark.parametrize("images", COLLIDING, ids=lambda im: ",".join(im.values()))
def test_own_factor_collisions_match_word_oracle(images):
    # each of these sends two letters to one image, so every bound collides
    sub = substitution_from_strings(" ".join(images), images, "a")
    for bound in (1, 2, 5, 13, 30):
        found, expected = _own_factor_collision(sub, bound)
        assert found == expected
        first, second = found[1]
        assert first != second and sub(first) == sub(second)


@settings(max_examples=60, deadline=None)
@given(primitive_substitutions(), st.integers(1, 30), st.integers(1, 400))
def test_own_factor_check_matches_word_oracle(sub, bound, sample):
    found, expected = _own_factor_collision(sub, bound, sample)
    assert found == expected


def _colliding_substitution(images):
    return substitution_from_strings(" ".join(images), images, "a")


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(primitive_substitutions(), st.sampled_from(COLLIDING).map(_colliding_substitution)),
    st.integers(1, 6),
    st.integers(1, 30),
)
def test_own_factor_check_implies_injectivity_certificate(tau, prefix_len, bound):
    """The lemma find_n0 rests on: when the return substitution is one-to-one on
    its own factors of at most ``bound`` letters, the certificate on the same
    derived host passes."""
    try:
        nonperiodic_check(tau)
    except ValueError:
        assume(False)
    u = fixed_point_prefix(tau, prefix_len)
    _, tau_u = return_substitution(tau, u)
    host = fixed_point_prefix(tau_u, 1000)
    if _first_collision(host, tau_u, [1] * tau_u.alphabet.size, bound)[1] is None:
        assert check_injectivity(tau, u, bound, derived_sample=1000).passed


def test_find_n0_builds_no_injectivity_certificate(monkeypatch):
    """find_n0 asks only the own-factor question, which implies the certificate."""

    def refuse(*args, **kwargs):
        raise AssertionError("find_n0 built an injectivity certificate")

    cases = [fibonacci(), thue_morse(), *map(_colliding_substitution, COLLIDING)]
    expected = [oracle.find_n0(tau, 8, max_prefix=6) for tau in cases]
    monkeypatch.setattr("retword.circularity.check_injectivity", refuse)
    monkeypatch.setattr(InjectivityCertificate, "__init__", refuse)
    assert [find_n0(tau, 8, max_prefix=6) for tau in cases] == expected


@pytest.mark.parametrize("sample", sorted(SAMPLES.glob("*.sub")), ids=lambda p: p.name)
def test_find_n0_matches_word_oracle_on_samples(sample):
    tau, _ = parse_substitution(sample.read_text(encoding="utf-8"))
    for bound in (1, 2, 3, 5, 8, 13, 30):
        assert find_n0(tau, bound) == oracle.find_n0(tau, bound)


@pytest.mark.parametrize(
    "images, bound, n0",
    [
        ({"a": "acab", "b": "acab", "c": "caba"}, 2, 2),
        ({"a": "aabc", "b": "baac", "c": "baac"}, 1, 3),
        ({"a": "aabc", "b": "baac", "c": "baac"}, 2, 3),
    ],
)
def test_find_n0_rejects_own_factor_collisions(images, bound, n0):
    """Below n0 every injectivity certificate passes, yet two derived factors of
    at most ``bound`` letters, whose decodings are longer, share an image under
    the return substitution, so find_n0 passes those prefixes by."""
    tau = substitution_from_strings(" ".join(images), images, "a")
    for n in range(1, n0):
        assert check_injectivity(tau, fixed_point_prefix(tau, n), bound).passed
    assert find_n0(tau, bound, max_prefix=6) == n0 == oracle.find_n0(tau, bound, max_prefix=6)


@pytest.mark.parametrize("make", [fibonacci, thue_morse])
def test_find_n0_maps_no_factor_one_by_one(monkeypatch, make):
    """The number of morphism applications in find_n0 does not grow with the
    number of factors it checks, which grows with the length bound."""
    calls = []
    apply = Morphism.__call__
    monkeypatch.setattr(Morphism, "__call__", lambda m, w: calls.append(1) or apply(m, w))
    counts = set()
    for sample in (500, 2000):
        for bound in (10, 30):
            calls.clear()
            assert find_n0(make(), bound, derived_sample=sample) == 1  # fresh caches
            counts.add(len(calls))
    assert len(counts) == 1


def test_check_injectivity_vacuous_short_bound(fib):
    # all return words on this prefix are longer than the bound
    cert = check_injectivity(fib, fib.alphabet.word("01001"), 2)
    assert cert.passed
    assert cert.words_checked == 0


def test_injectivity_monotone(fib):
    u = fib.alphabet.word("01")
    long_cert = check_injectivity(fib, u, 24)
    short_cert = check_injectivity(fib, u, 12)
    assert long_cert.passed and short_cert.passed
    assert short_cert.words_checked <= long_cert.words_checked


def test_find_n0_fibonacci_and_morse(fib, morse):
    assert find_n0(fib, max_prefix=200) == 1
    assert find_n0(morse, max_prefix=200) == 1


def test_find_n0_zero_budget(fib):
    assert find_n0(fib, max_prefix=0) is None


def test_composed_power_identity(fib):
    """Exponent gaps inside the bridging set turn into exact coding powers."""
    u = fib.alphabet.word("01")
    result = find_gamma(fib, u, p_max=9)
    assert result.conclusive
    system, _ = return_substitution(fib, u)
    theta = coding_substitution(system)
    pairs = list(zip(result.exponents, result.l_values))
    for (p, lp), (q, lq) in zip(pairs, pairs[1:]):
        target = power(fib, q - p).morphism
        theta_pow = theta.morphism
        for _ in range(lq - lp - 1):
            theta_pow = compose(theta.morphism, theta_pow)
        assert theta_pow == target


def test_circularity_run_leaves_no_reference_cycles():
    """Interpretations are enumerated without a self-referencing closure, so a
    run frees its words and interpretations without the cycle collector."""
    argv = ["circularity", str(SAMPLES / "fib.sub"), "--json"]
    build_parser()
    gc.collect()
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.garbage.clear()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        with contextlib.redirect_stdout(io.StringIO()):
            status, _ = run_command(argv)
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage if isinstance(o, (Word, Interpretation))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert status == 0
    assert leaked == []
