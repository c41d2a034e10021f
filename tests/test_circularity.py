import contextlib
import gc
import io
import tracemalloc
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import circularity_oracle as oracle
import retword.circularity as circularity_module
from retword.circularity import (
    Interpretation,
    _InterpretationContext,
    _own_factors_collide,
    find_n0,
    interpretations,
    sync_delay_search,
)
from retword.cli import build_parser, run_command
from corpus import fibonacci, thue_morse
from retword.relations import coding_substitution, find_gamma
from retword.returns import nonperiodic_check, return_substitution
from retword.substitution import (
    Morphism,
    compose,
    fixed_point_prefix,
    is_primitive,
    language,
    parse_substitution,
    power,
    substitution_from_strings,
)
from retword.words import Word, _word, is_code

SAMPLES = Path(__file__).resolve().parents[1] / "samples"

# A substitution whose first 2000 fixed-point letters miss 2 of its 32
# factors of 4 letters and 12 of its 83 of 10 letters.
MISSED_BY_PREFIX = {"a": "aaabacba", "b": "c", "c": "baababb"}


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
    with pytest.raises(ValueError, match="x is not a factor of the fixed point"):
        interpretations(fib, fib.alphabet.word("11"))
    # a factor of the fixed point past its first 2000 letters is still read
    tau = substitution_from_strings("a b c", MISSED_BY_PREFIX, "a")
    sampled = {w.scan_text for w in oracle.window_factors(fixed_point_prefix(tau, 2000), 4)}
    missed = sorted(language(tau, 4) - sampled)
    assert missed
    for text in missed:
        x = _word(tau.alphabet, text)
        found = interpretations(tau, x)
        assert found and all(i.reconstruct(tau) == x for i in found)


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
    cert = oracle.check_injectivity(fib, fib.alphabet.word("01"), 30)
    assert cert.passed
    assert cert.words_checked > 0
    assert cert.collision is None


def test_check_injectivity_morse(morse):
    cert = oracle.check_injectivity(morse, morse.alphabet.word("011"), 30)
    assert cert.passed


def test_check_injectivity_reports_collision():
    """a -> ab, b -> ca, c -> ca sends the decodable factors ab and ac to abca."""
    tau = substitution_from_strings("a b c", {"a": "ab", "b": "ca", "c": "ca"}, "a")
    cert = oracle.check_injectivity(tau, tau.alphabet.word("a"), 8)
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
    """The certificate find_n0's lemma is checked against finds real collisions
    on these substitutions, and find_n0 agrees with the word-by-word oracle."""
    tau = substitution_from_strings(" ".join(images), images, "a")
    outcomes = set()
    for prefix_len in range(1, 7):
        u = fixed_point_prefix(tau, prefix_len)
        for bound in (1, 2, 3, 5, 8, 13, 21, 30):
            cert = oracle.check_injectivity(tau, u, bound)
            if not cert.passed:
                first, second = cert.collision
                assert first != second and tau(first) == tau(second)
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
    for a drawn factor of a drawn substitution's fixed point, the cores
    drawn from the factors of a prefix that holds them all."""
    length = data.draw(st.integers(1, 8))
    host = oracle.covering_prefix(tau, length)
    start = data.draw(st.integers(0, len(host) - length))
    x = host[start : start + length]
    factors = {(), *(w.letters for w in oracle.window_factors(host, length))}
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
    found = interpretations(tau, x)
    triples = [(i.left.letters, i.core.letters, i.right.letters) for i in found]
    assert set(triples) == expected
    assert len(triples) == len(expected)
    keys = [(i.left.scan_text, i.core.scan_text, i.right.scan_text) for i in found]
    assert keys == sorted(keys)


@settings(max_examples=40, deadline=None)
@given(primitive_substitutions(), st.integers(1, 18), st.integers(0, 6))
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
@given(primitive_substitutions(), st.integers(1, 10))
def test_extension_step_matches_worklist_walk(tau, sample_len):
    """Length by length, one extension step from the threads of a factor's
    parent gives, each once, the interpretations the worklist walk finds from
    scratch over the factors of a prefix that holds them all; the language
    of each length holds exactly that prefix's factors of the length; and
    every thread carries the cut set read off its core text and the image
    lengths."""
    ctx = _InterpretationContext(tau)
    host = oracle.covering_prefix(tau, sample_len)
    walk = oracle.WorklistWalk(tau, host, sample_len)
    factors = {w.scan_text for w in oracle.window_factors(host, sample_len)}
    lengths = [len(w) for w in tau.images]
    parents = {"": [(0, 0, "", frozenset())]}
    for n in range(1, sample_len + 1):
        assert language(tau, n) == {x for x in factors if len(x) == n}
        found = {x: ctx.extend(parents[x[:-1]], x) for x in language(tau, n)}
        for x, threads in found.items():
            assert sorted(thread[:3] for thread in threads) == sorted(walk(x))
            for cut, _, core, cuts in threads:
                starts = accumulate((lengths[ord(c)] for c in core), initial=cut)
                assert cuts == set(zip(starts, map(ord, core)))
        parents = found


@pytest.mark.parametrize("sample_len", [3, 5, 10, 18, 60])
@pytest.mark.parametrize("path", sorted(SAMPLES.glob("*.sub")), ids=lambda p: p.stem)
def test_sync_delay_of_every_sample_matches_pair_oracle(path, sample_len):
    """Past the length 2(R + 1) + L the search reads no factor, and the
    delay is still the largest forcing over every factor read."""
    tau, _ = parse_substitution(path.read_text())
    assert sync_delay_search(tau, 64, sample_len) == oracle.sync_delay_search(tau, 64, sample_len)


def test_sync_delay_reads_the_factors_a_prefix_misses():
    """The delay search reads the 32 factors of 4 letters and the 83 of 10,
    where the first 2000 letters hold 30 and 71; the delay is 2 on both."""
    tau = substitution_from_strings("a b c", MISSED_BY_PREFIX, "a")
    prefix = oracle.window_factors(fixed_point_prefix(tau, 2000), 10)
    assert [len(language(tau, n)) for n in (4, 10)] == [32, 83]
    assert [sum(len(w) == n for w in prefix) for n in (4, 10)] == [30, 71]
    assert sync_delay_search(tau) == 2 == oracle.sync_delay_search(tau)


def test_sync_delay_stops_at_the_length_that_decides_it(monkeypatch, fib):
    """On Fibonacci (delay 0, images of at most 2 letters) the search at
    sample length 18 extends the factors of at most 2(0 + 1) + 2 = 4
    letters, each once, and none longer."""
    calls = []
    extend = _InterpretationContext.extend
    monkeypatch.setattr(
        _InterpretationContext, "extend", lambda ctx, threads, text: calls.append(text) or extend(ctx, threads, text)
    )
    assert sync_delay_search(fib, 64, 18) == 0
    factors = [w.scan_text for w in oracle.window_factors(fixed_point_prefix(fib, 2000), 18)]
    assert sorted(calls) == sorted(x for x in factors if len(x) <= 4)
    assert len(calls) < len(factors)


def test_sync_delay_slices_only_the_lengths_it_reads(monkeypatch):
    """On const3 (delay 1, images of 3 letters) the search at sample length
    200 stops past 2(1 + 1) + 3 = 7 letters: it asks for no language of
    longer factors, and its allocations peak far below the 33 MiB that
    slicing every factor of up to 200 letters took."""
    tau, _ = parse_substitution((SAMPLES / "const3.sub").read_text())
    nonperiodic_check(tau)
    asked = []
    monkeypatch.setattr(circularity_module, "language", lambda sub, n: asked.append(n) or language(sub, n))
    tracemalloc.start()
    try:
        assert sync_delay_search(tau, 64, 200) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(set(asked)) == list(range(1, 8))
    assert peak < 4 * 2**20


def test_sync_delay_refuses_periodic_fixed_point():
    """a -> ab, b -> ab is primitive with the periodic fixed point (ab)^omega."""
    tau = substitution_from_strings("a b", {"a": "ab", "b": "ab"}, "a")
    assert is_primitive(tau.matrix())[0]
    with pytest.raises(ValueError, match="fixed point is periodic"):
        sync_delay_search(tau)


@pytest.mark.parametrize("make", [fibonacci, thue_morse])
def test_sync_delay_builds_no_word_per_core(monkeypatch, make):
    """The delay search grows cores as scan texts and carries their cut sets,
    so it concatenates no Word and builds no Interpretation.  The periodicity
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


def _own_factor_collision(sub, bound):
    """find_n0's own-factor check on a stand-in for the return substitution,
    next to the word-by-word oracle's collision over the factors of a prefix
    that holds them all."""
    host = oracle.covering_prefix(sub, bound)
    return _own_factors_collide(sub, bound), oracle.first_collision(sub, oracle.window_factors(host, bound))[1]


@pytest.mark.parametrize("images", COLLIDING, ids=lambda im: ",".join(im.values()))
def test_own_factor_collisions_match_word_oracle(images):
    # each of these sends two letters to one image, so every bound collides
    sub = substitution_from_strings(" ".join(images), images, "a")
    for bound in (1, 2, 5, 13, 30):
        found, collision = _own_factor_collision(sub, bound)
        assert found is True
        first, second = collision
        assert first != second and sub(first) == sub(second)


@settings(max_examples=60, deadline=None)
@given(primitive_substitutions(), st.integers(1, 30))
def test_own_factor_check_matches_word_oracle(sub, bound):
    found, collision = _own_factor_collision(sub, bound)
    assert found == (collision is not None)


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
    its own factors of at most ``bound`` letters, the certificate over the
    decodings of its factors passes."""
    try:
        nonperiodic_check(tau)
    except ValueError:
        assume(False)
    u = fixed_point_prefix(tau, prefix_len)
    _, tau_u = return_substitution(tau, u)
    if not _own_factors_collide(tau_u, bound):
        assert oracle.check_injectivity(tau, u, bound).passed


def test_find_n0_builds_no_injectivity_certificate(monkeypatch):
    """find_n0 asks only the own-factor question, which implies the certificate."""

    def refuse(*args, **kwargs):
        raise AssertionError("find_n0 built an injectivity certificate")

    cases = [fibonacci(), thue_morse(), *map(_colliding_substitution, COLLIDING)]
    expected = [oracle.find_n0(tau, 8, max_prefix=6) for tau in cases]
    monkeypatch.setattr(oracle.InjectivityCertificate, "__init__", refuse)
    assert [find_n0(tau, 8, max_prefix=6) for tau in cases] == expected


@settings(max_examples=80, deadline=None)
@given(primitive_substitutions(), st.integers(1, 6), st.integers(1, 30))
def test_code_images_leave_the_own_factor_walk_no_collision(tau, prefix_len, bound):
    """find_n0's short-cut: when the images form a code, the walk it skips
    finds no collision, on tau_u's factors and on tau's own."""
    if is_code(w.scan_text for w in tau.images):
        assert not _own_factors_collide(tau, bound)
    try:
        nonperiodic_check(tau)
    except ValueError:
        return
    _, tau_u = return_substitution(tau, fixed_point_prefix(tau, prefix_len))
    if is_code(w.scan_text for w in tau_u.images):
        assert not _own_factors_collide(tau_u, bound)


def test_find_n0_on_samples_is_decided_by_the_code_test(monkeypatch):
    """On every sample tau_u's images form a code at n0, so the walk never runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("find_n0 walked the factors")

    cases = [parse_substitution(p.read_text(encoding="utf-8"))[0] for p in sorted(SAMPLES.glob("*.sub"))]
    expected = [[oracle.find_n0(tau, bound) for bound in (1, 8, 30)] for tau in cases]
    monkeypatch.setattr("retword.circularity._own_factors_collide", refuse)
    assert [[find_n0(tau, bound) for bound in (1, 8, 30)] for tau in cases] == expected


@pytest.mark.parametrize(
    "images, bound, n0, walks",
    [
        # not a code at n = 1, where the walk finds a collision; a code at 2
        ({"a": "ab", "b": "ca", "c": "ca"}, 30, 2, 1),
        # not a code at n = 1, yet no two factors of one letter collide
        ({"a": "aac", "b": "aac", "c": "aabc"}, 1, 1, 1),
        # no code at n = 1 to 4: the walk rejects n = 1 and passes n = 2
        ({"a": "abca", "b": "cab", "c": "cab"}, 1, 2, 2),
        # the same at the default bound: the walk rejects n = 1 to 4, and the
        # images are a code at n = 5
        ({"a": "abca", "b": "cab", "c": "cab"}, 30, 5, 4),
    ],
)
def test_find_n0_walks_where_the_images_are_no_code(monkeypatch, images, bound, n0, walks):
    """A prefix whose tau_u has no code for images is answered by the walk."""
    tau = substitution_from_strings(" ".join(images), images, "a")
    _, tau_u = return_substitution(tau, fixed_point_prefix(tau, 1))
    assert not is_code(w.scan_text for w in tau_u.images)
    calls = []
    walk = _own_factors_collide
    monkeypatch.setattr("retword.circularity._own_factors_collide", lambda *a: calls.append(1) or walk(*a))
    assert find_n0(tau, bound, max_prefix=6) == n0 == oracle.find_n0(tau, bound, max_prefix=6)
    assert len(calls) == walks


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
        assert oracle.check_injectivity(tau, fixed_point_prefix(tau, n), bound).passed
    assert find_n0(tau, bound, max_prefix=6) == n0 == oracle.find_n0(tau, bound, max_prefix=6)


@pytest.mark.parametrize(
    "make, n0",
    [(fibonacci, 1), (thue_morse, 1), (lambda: _colliding_substitution(COLLIDING[1]), 5)],
    ids=["fibonacci", "thue_morse", "abca,cab,cab"],
)
def test_find_n0_maps_no_factor_one_by_one(monkeypatch, make, n0):
    """The number of morphism applications in find_n0 does not grow with the
    number of factors it checks, which grows with the length bound; the last
    substitution's images are no code below n0, so its factors are walked."""
    calls = []
    apply = Morphism.__call__
    monkeypatch.setattr(Morphism, "__call__", lambda m, w: calls.append(1) or apply(m, w))
    counts = set()
    for bound in (10, 30):
        calls.clear()
        assert find_n0(make(), bound) == n0  # fresh caches
        counts.add(len(calls))
    assert len(counts) == 1


def test_check_injectivity_vacuous_short_bound(fib):
    # all return words on this prefix are longer than the bound
    cert = oracle.check_injectivity(fib, fib.alphabet.word("01001"), 2)
    assert cert.passed
    assert cert.words_checked == 0


def test_injectivity_monotone(fib):
    u = fib.alphabet.word("01")
    long_cert = oracle.check_injectivity(fib, u, 24)
    short_cert = oracle.check_injectivity(fib, u, 12)
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
