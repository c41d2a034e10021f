import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from periodic_oracle import looks_periodic, periodic_tail_witness
from returns_oracle import derived_prefix_by_scan, derived_sequences_agree_by_prefix, tower_by_tau_words
from corpus import fibonacci, thue_morse
from retword.cli import run_command
from retword.errors import DecompositionError, ResourceLimitError
import retword.substitution as substitution_module
from retword.returns import (
    RETURN_CACHE_SIZE,
    _tower_level,
    decompose,
    derivation_tower,
    derived_prefix,
    estimate_constants,
    nested_derivation,
    nonperiodic_check,
    return_substitution,
    return_words_of_prefix,
)
from retword.spectrum import char_poly
from retword.substitution import (
    Morphism,
    Substitution,
    fixed_point_prefix,
    format_substitution,
    is_primitive,
    parse_substitution,
    power,
    power_lengths,
    substitution_from_strings,
)
from retword.words import Alphabet, Word, find_all, spelling

ROOT = Path(__file__).resolve().parents[1]

ABC = Alphabet(("a", "b", "c"))


def test_return_words_of_prefix_example_string():
    host = ABC.word("ababcababbbabababcababbbababaccababacc")
    system = return_words_of_prefix(host, ABC.word("abab"))
    assert [w.text() for w in system.return_words] == ["ababc", "ababbb", "ab", "ababacc"]
    assert not system.complete


def test_return_words_single(trib):
    host = ABC.word("abcabc")
    system = return_words_of_prefix(host, ABC.word("abc"))
    assert [w.text() for w in system.return_words] == ["abc"]


def test_return_words_requires_prefix():
    with pytest.raises(ValueError):
        return_words_of_prefix(ABC.word("abc"), ABC.word("b"))
    with pytest.raises(ValueError):
        return_words_of_prefix(ABC.word("abc"), Word(ABC, ()))


def test_return_words_fibonacci_zero(fib):
    host = fixed_point_prefix(fib, 100)
    system = return_words_of_prefix(host, fib.alphabet.word("0"))
    assert [w.text() for w in system.return_words] == ["01", "0"]


def test_return_substitution_fibonacci_self(fib):
    system, fib_01 = return_substitution(fib, fib.alphabet.word("01"))
    assert [w.text() for w in system.return_words] == ["010", "01"]
    assert tuple(w.letters for w in fib_01.images) == tuple(w.letters for w in fib.images)
    assert fib_01.start == fib.start == 0


def test_return_substitution_fibonacci_on_0(fib):
    system, fib_0 = return_substitution(fib, fib.alphabet.word("0"))
    assert [w.text() for w in system.return_words] == ["01", "0"]
    assert [w.text() for w in fib_0.images] == ["12", "1"]


def test_return_substitution_morse_011(morse):
    system, m011 = return_substitution(morse, morse.alphabet.word("011"))
    assert system.count == 4
    assert char_poly(m011.matrix()).coeffs == (0, 0, -2, -1, 1)


def test_return_substitution_rejects_non_primitive():
    # 'b' never reaches 'a': matrix is reducible
    sub = substitution_from_strings("a b", {"a": "ab", "b": "bb"}, "a")
    with pytest.raises(ValueError):
        return_substitution(sub, sub.alphabet.word("a"))


def test_return_substitution_budget(monkeypatch):
    monkeypatch.setenv("REPO_PREFIX_CAP", "40")
    fib = fibonacci()
    with pytest.raises(ResourceLimitError) as err:
        return_substitution(fib, fixed_point_prefix(fib, 30))
    assert err.value.budget == 40


def test_return_substitution_cached_on_substitution():
    fib = fibonacci()
    u = fib.alphabet.word("010")
    first = return_substitution(fib, u)
    again = return_substitution(fib, fib.alphabet.word("010"))
    assert again[0] is first[0] and again[1] is first[1]


def test_return_substitution_cache_is_bounded():
    fib = fibonacci()
    lengths = range(1, RETURN_CACHE_SIZE + 11)
    evicted = {n: return_substitution(fib, fixed_point_prefix(fib, n)) for n in lengths}
    assert len(fib._return_systems) == RETURN_CACHE_SIZE
    for n in lengths[:10]:
        system, sub = return_substitution(fib, fixed_point_prefix(fib, n))
        assert system is not evicted[n][0]
        assert system == evicted[n][0] and sub == evicted[n][1]
    assert len(fib._return_systems) == RETURN_CACHE_SIZE


def test_defining_identity_all_corpus(corpus):
    """coding(tau_u(b)) == tau(coding(b)) letter by letter, every system."""
    for sub in corpus.values():
        for n in (1, 2, 3, 5):
            u = fixed_point_prefix(sub, n)
            system, tau_u = return_substitution(sub, u)
            coding = system.coding()
            for b in range(system.count):
                assert coding(tau_u.image(b)).letters == sub(coding.image(b)).letters


def test_decompose_explicit(fib):
    system, _ = return_substitution(fib, fib.alphabet.word("0"))
    word = fib.alphabet.word("010")
    assert decompose(system, word).letters == (0, 1)  # displayed 1,2


def test_decompose_code_elements(corpus):
    for sub in corpus.values():
        u = fixed_point_prefix(sub, 2)
        system, _ = return_substitution(sub, u)
        for b in range(system.count):
            assert decompose(system, system.word_for(b)).letters == (b,)


def test_decompose_empty(fib):
    system, _ = return_substitution(fib, fib.alphabet.word("0"))
    assert decompose(system, Word(fib.alphabet, ())).letters == ()


def test_decompose_error_position(fib):
    system, _ = return_substitution(fib, fib.alphabet.word("0"))
    with pytest.raises(DecompositionError) as err:
        decompose(system, fib.alphabet.word("10"))
    assert err.value.position == 0


def test_code_property_random_concatenations(corpus):
    rng = random.Random(97)
    for sub in corpus.values():
        u = fixed_point_prefix(sub, 2)
        system, _ = return_substitution(sub, u)
        coding = system.coding()
        for _ in range(200):
            letters = tuple(rng.randrange(system.count) for _ in range(rng.randrange(0, 12)))
            word = coding(Word(system.return_alphabet, letters))
            assert decompose(system, word).letters == letters


def test_return_word_characterization(corpus):
    """Each return word w: wu occurs in the fixed point, u prefixes wu, and u
    occurs exactly twice in wu."""
    for sub in corpus.values():
        for n in (1, 3):
            u = fixed_point_prefix(sub, n)
            system, _ = return_substitution(sub, u)
            host_len = 20_000
            host_text = sub.fixed_point().text(host_len)
            for w in system.return_words:
                wu = w + u
                assert wu.scan_text in host_text
                assert wu.startswith(u)
                assert len(find_all(wu.scan_text, u.scan_text)) == 2


def test_prefix_refinement(corpus):
    """Every return word on a longer prefix splits over the shorter prefix's."""
    for sub in corpus.values():
        u = fixed_point_prefix(sub, 1)
        v = fixed_point_prefix(sub, 3)
        sys_u, _ = return_substitution(sub, u)
        sys_v, _ = return_substitution(sub, v)
        for w in sys_v.return_words:
            decompose(sys_u, w)  # must not raise


def test_power_commutes_with_derivation(corpus):
    """The return substitution of the l-th power is the l-th power of the
    return substitution."""
    for sub in corpus.values():
        u = fixed_point_prefix(sub, 2)
        _, tau_u = return_substitution(sub, u)
        for l in (2, 3):
            _, power_u = return_substitution(power(sub, l), u)
            expected = power(tau_u, l)
            assert tuple(w.letters for w in power_u.images) == tuple(
                w.letters for w in expected.images
            )


def test_completeness_against_long_scan(corpus):
    for sub in corpus.values():
        u = fixed_point_prefix(sub, 3)
        system, _ = return_substitution(sub, u)
        observed = return_words_of_prefix(fixed_point_prefix(sub, 100_000), u)
        complete = [w.letters for w in system.return_words]
        seen = [w.letters for w in observed.return_words]
        assert set(seen) <= set(complete)
        # at this scale the scan sees everything, and in the same
        # first-appearance order the closure assigned
        assert seen == complete


def test_random_primitive_substitutions_stress():
    """Closure numbering equals scan order on randomly generated substitutions."""
    rng = random.Random(2024)
    tested = 0
    attempts = 0
    while tested < 25 and attempts < 500:
        attempts += 1
        size = rng.randrange(2, 4)
        alphabet = Alphabet(tuple("xyz"[:size]))
        images = []
        for b in range(size):
            length = rng.randrange(1, 4)
            letters = [rng.randrange(size) for _ in range(length)]
            if b == 0:
                letters[0] = 0
                if length == 1:
                    letters.append(rng.randrange(size))
            images.append(Word(alphabet, tuple(letters)))
        sub = Substitution(Morphism(alphabet, alphabet, tuple(images)), 0)
        if not is_primitive(sub.matrix())[0]:
            continue
        host = fixed_point_prefix(sub, 4096)
        if periodic_tail_witness(host) is not None:
            continue
        tested += 1
        for n in (1, 2, 3):
            u = fixed_point_prefix(sub, n)
            system, tau_u = return_substitution(sub, u)
            coding = system.coding()
            # defining identity
            for b in range(system.count):
                assert coding(tau_u.image(b)).letters == sub(coding.image(b)).letters
            # numbering matches the observational first-appearance order
            observed = return_words_of_prefix(fixed_point_prefix(sub, 30_000), u)
            k = len(observed.return_words)
            assert [w.letters for w in observed.return_words] == [
                w.letters for w in system.return_words[:k]
            ]
            # derived prefix decodes back onto the fixed point
            dp = derived_prefix(sub, u, 30)
            decoded = dp.decoded()
            assert decoded.letters == fixed_point_prefix(sub, len(decoded)).letters
    assert tested == 25


@st.composite
def drawn_substitutions(draw):
    """Primitive substitutions on 2-4 letters, start letter a, images of 1-4 letters."""
    symbols = "abcd"[: draw(st.integers(2, 4))]
    images = {s: draw(st.text(symbols, min_size=1, max_size=4)) for s in symbols}
    images["a"] = "a" + draw(st.text(symbols, min_size=1, max_size=3))
    tau = substitution_from_strings(" ".join(symbols), images, "a")
    assume(is_primitive(tau.matrix())[0])
    return tau


SCAN_CAP = 1 << 17


@settings(max_examples=80, deadline=None)
@given(drawn_substitutions(), st.integers(1, 4))
def test_closure_matches_a_long_scan_and_decodes_onto_the_fixed_point(tau, n):
    """The closure's return words are the ones a scan of the fixed point meets,
    in first-appearance order, and its return substitution decodes onto the
    fixed point.  A return word found in the image of one found j steps from
    r_1, the return word at 0, lies in tau^(j+1)(r_1)·u, a prefix of the
    fixed point; j stays below the number of return words, so a scan that
    long meets them all."""
    u = fixed_point_prefix(tau, n)
    system, tau_u = return_substitution(tau, u)
    lengths = power_lengths(tau, system.count)[-1]
    reach = sum(lengths[b] for b in system.return_words[0]) + n
    observed = return_words_of_prefix(fixed_point_prefix(tau, min(reach, SCAN_CAP)), u)
    seen = spelling(observed.return_words)
    complete = spelling(system.return_words)
    assert seen == (complete if reach <= SCAN_CAP else complete[: len(seen)])
    decoded = system.coding()(fixed_point_prefix(tau_u, 64))
    assert fixed_point_prefix(tau, len(decoded)) == decoded


def test_derived_prefix_fibonacci_renaming(fib):
    dp = derived_prefix(fib, fib.alphabet.word("0"), 200)
    renamed = tuple(x for x in fixed_point_prefix(fib, 200).letters)
    assert dp.letters.letters == renamed  # 0->letter 0 ("1"), 1->letter 1 ("2")
    assert dp.letters.text() == "".join("12"[x] for x in renamed)


def test_derived_prefix_first_letter(corpus):
    for sub in corpus.values():
        dp = derived_prefix(sub, fixed_point_prefix(sub, 2), 1)
        assert dp.letters.letters == (0,)
        assert dp.letters.text() == "1"


def test_derived_prefix_morse_011_consistency(morse):
    u = morse.alphabet.word("011")
    dp = derived_prefix(morse, u, 20)
    _, m011 = return_substitution(morse, u)
    assert dp.letters == fixed_point_prefix(m011, 20)
    assert dp.letters == derived_prefix_by_scan(morse, u, 20)


def test_derived_decoding_is_prefix(corpus):
    for sub in corpus.values():
        u = fixed_point_prefix(sub, 2)
        dp = derived_prefix(sub, u, 50)
        decoded = dp.decoded()
        assert fixed_point_prefix(sub, len(decoded)).letters == decoded.letters


def test_nested_derivation_fibonacci(fib):
    u = fib.alphabet.word("0")
    _, fib_0 = return_substitution(fib, u)
    v = fixed_point_prefix(fib_0, 1)
    report = nested_derivation(fib, u, v)
    assert report.passed
    assert report.composed_prefix_w.text() == "010"


def test_nested_derivation_rejects_empty(fib):
    u = fib.alphabet.word("0")
    _, fib_0 = return_substitution(fib, u)
    report = nested_derivation(fib, u, Word(fib_0.alphabet, ()))
    assert not report.passed
    assert report.checks[0].name == "v-nonempty-prefix"


def test_nested_derivation_morse(morse):
    u = morse.alphabet.word("0")
    _, m0 = return_substitution(morse, u)
    v = fixed_point_prefix(m0, 2)
    report = nested_derivation(morse, u, v)
    assert report.passed


def test_nested_derivation_generates_no_derived_prefix():
    """derived-sequences-agree compares the return substitutions: neither
    tau_uv's nor tau_w's fixed point gets a buffer."""
    tau = fibonacci()
    u = tau.alphabet.word("01")
    _, tau_u = return_substitution(tau, u)
    v = fixed_point_prefix(tau_u, 3)
    report = nested_derivation(tau, u, v)
    assert report.checks[-1].as_json() == {
        "name": "derived-sequences-agree",
        "outcome": "pass",
        "detail": "identical return substitutions",
    }
    _, tau_uv = return_substitution(tau_u, v)
    _, tau_w = return_substitution(tau, report.composed_prefix_w)
    assert tau_uv._fixed_point is None and tau_w._fixed_point is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nested_derivation_matches_the_prefix_oracle(data):
    """On drawn substitutions, u and v, every check passes, and
    derived-sequences-agree passes exactly when 10 000 letters of the two
    derived sequences agree."""
    tau = data.draw(drawn_substitutions())
    try:
        nonperiodic_check(tau)
    except ValueError:  # a periodic fixed point may have one return word
        assume(False)
    u = fixed_point_prefix(tau, data.draw(st.sampled_from([1, 2, 3, 5])))
    _, tau_u = return_substitution(tau, u)
    v = fixed_point_prefix(tau_u, data.draw(st.integers(1, 4)))
    report = nested_derivation(tau, u, v)
    assert report.checks[-1].passed == derived_sequences_agree_by_prefix(tau, u, v)
    assert report.passed


def test_derivation_tower_fibonacci(fib):
    tower = derivation_tower(fib)
    assert tower.repetition == (1, 2)
    # the repeated return substitution is the original one
    first = tower.levels[0].substitution
    assert tuple(w.letters for w in first.images) == tuple(w.letters for w in fib.images)


def test_derivation_tower_depth_one(fib, capsys):
    """``tower --depth 1`` prints the first level alone and still reports
    the repetition the walk decided, at levels (1, 2)."""
    assert len(derivation_tower(fib).levels) == 2
    status, report = run_command(["tower", str(ROOT / "samples" / "fib.sub"), "--depth", "1"])
    capsys.readouterr()
    assert status == 0
    assert report.payload["data"]["levels"] == [{"depth": 1, "prefix_length": 1, "return_letters": 2}]
    assert report.payload["checks"] == [{"name": "tower-repetition", "outcome": "found", "witness": [1, 2]}]


def _assert_walk_matches_tau_words(tau):
    """The tower walked on the return substitutions agrees with the oracle's
    walk on words of the fixed point, run on a fresh substitution so that no
    cached system is reused: level by level the same return-word counts,
    return substitutions and repeats, prefix lengths |u_k|, the oracle's
    u_k read off the fixed point, the lengths of its return words and, decoded
    through the levels above, its return words; then the same (p, q), or the
    same refusal of a periodic fixed point at the oracle's last level."""
    oracle = tower_by_tau_words(Substitution(tau.morphism, tau.start))
    words: list[str] = []
    for depth, expected in enumerate(oracle, 1):
        level = _tower_level(tau, depth)
        assert level.system.count == expected.system.count
        assert level.substitution == expected.substitution
        assert level.repeats == expected.repeats
        assert level.prefix_length == len(expected.prefix)
        assert fixed_point_prefix(tau, level.prefix_length) == expected.prefix
        assert level.lengths == tuple(map(len, expected.system.return_words))
        if depth == 1:
            words = list(spelling(level.system.return_words))
        else:
            words = ["".join(words[b] for b in w.letters) for w in level.system.return_words]
        assert tuple(words) == spelling(expected.system.return_words)
    last = oracle[-1]
    if last.repeats is None:
        message = (
            f"fixed point is periodic: one return word {last.system.return_words[0].text()!r} "
            f"on the prefix of length {len(last.prefix)}, tower depth {len(oracle)}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nonperiodic_check(tau)
    else:
        assert derivation_tower(tau).repetition == (last.repeats, len(oracle))


def test_derivation_tower_morse_with_recomputation(morse):
    tower = derivation_tower(morse)
    p, q = tower.repetition
    assert 1 <= p < q <= 8
    _assert_walk_matches_tau_words(morse)
    a, b = tower.levels[p - 1].substitution, tower.levels[q - 1].substitution
    assert tuple(w.letters for w in a.images) == tuple(w.letters for w in b.images)


@st.composite
def primitive_substitutions_2_to_5(draw):
    """Primitive substitutions on 2-5 letters, start letter a, images of 1-3
    letters.  Each letter's image holds the next letter, cyclically, and a's
    begins with a, so the matrix is irreducible with a loop: primitive."""
    symbols = "abcde"[: draw(st.integers(2, 5))]
    images = {}
    for i, letter in enumerate(symbols):
        text = draw(st.text(symbols, max_size=1 if letter == "a" else 2))
        cut = draw(st.integers(0, len(text)))
        images[letter] = text[:cut] + symbols[(i + 1) % len(symbols)] + text[cut:]
    images["a"] = "a" + images["a"]
    tau = substitution_from_strings(" ".join(symbols), images, "a")
    assert is_primitive(tau.matrix())[0]
    return tau


@settings(max_examples=80, deadline=None)
@given(primitive_substitutions_2_to_5())
def test_tower_walk_matches_the_walk_on_words_of_the_fixed_point(tau):
    """On drawn substitutions, periodic fixed points included, each level
    derived from the last is the level computed on words of the fixed point."""
    _assert_walk_matches_tau_words(tau)


def test_tower_walk_matches_the_walk_on_words_of_the_fixed_point_on_samples():
    for path in sorted((ROOT / "samples").glob("*.sub")):
        _assert_walk_matches_tau_words(parse_substitution(path.read_text())[0])


def test_a_fresh_tower_decides_primitivity_once(monkeypatch):
    """Primitivity is decided at level 1 only: a return substitution of a
    primitive substitution is primitive, and the later levels' closures do
    not decide it again."""
    searched = []
    search = substitution_module._least_positive_power
    monkeypatch.setattr(
        substitution_module, "_least_positive_power", lambda m: searched.append(m) or search(m)
    )
    morse = thue_morse()
    assert derivation_tower(morse).repetition == (2, 3)
    assert searched == [morse.matrix()]


# A primitive substitution on 18 letters, kept out of samples/, which the
# benchmark generator reads.  Its tower prefix u_2 has 87 letters, and tau's
# return closure on u_2 would hold 10 033 470 letters, over the default buffer
# cap; derived from level 1 on its letter 0, level 2 is a closure on 144 letters.
DRAW_18 = {
    "a": "ak", "b": "m", "c": "fh", "d": "mgpfgbmqfm", "e": "dehgbr", "f": "bkdmorjnjhn",
    "g": "loqofaa", "h": "pohoofpmdc", "i": "lnl", "j": "oq", "k": "bbeckqcbq",
    "l": "eacdgep", "m": "fhcli", "n": "kio", "o": "iqp", "p": "iqhk", "q": "bgfmfi",
    "r": "kmfidqblorq",
}


def test_every_command_deciding_periodicity_answers_the_18_letter_draw(tmp_path, capsys):
    tau = substitution_from_strings(" ".join(DRAW_18), DRAW_18, "a")
    left, right = tmp_path / "draw.sub", tmp_path / "square.sub"
    left.write_text(format_substitution(tau))
    right.write_text(format_substitution(power(tau, 2)))
    status, report = run_command(["tower", str(left), "--depth", "30", "--json"])
    assert status == 0
    assert report.payload["data"]["levels"] == [
        {"depth": 1, "prefix_length": 1, "return_letters": 144},
        {"depth": 2, "prefix_length": 87, "return_letters": 144},
    ]
    assert report.payload["checks"] == [{"name": "tower-repetition", "outcome": "found", "witness": [1, 2]}]
    for argv in (
        ["circularity", str(left)],
        ["shared", "--left", str(left), "--right", str(right)],
        ["relations", str(left), "--u", "a", "--v", "ak"],
    ):
        assert run_command(argv + ["--json"])[0] == 0, argv
    capsys.readouterr()


def test_derivation_tower_all_corpus(corpus):
    for sub in corpus.values():
        p, q = derivation_tower(sub).repetition
        assert 1 <= p < q <= 8


def test_estimate_constants_fibonacci(fib):
    constants = estimate_constants(fib, list(range(1, 51)))
    assert constants.h3 <= 4
    assert constants.h3 == 2
    assert constants.h1 > 0
    assert constants.h2 >= 1
    assert constants.nonperiodic_depth == 2
    for n in constants.prefix_lengths:
        system, _ = return_substitution(fib, fixed_point_prefix(fib, n))
        for v in system.return_words:
            assert constants.h1 * n <= len(v) <= constants.h2 * n


def test_estimate_constants_morse(morse):
    constants = estimate_constants(morse, list(range(1, 21)))
    assert constants.h3 >= 3
    assert constants.h2 / constants.h1 >= 1


def test_estimate_constants_single_sample(fib):
    from fractions import Fraction

    constants = estimate_constants(fib, [5])
    system, _ = return_substitution(fib, fixed_point_prefix(fib, 5))
    lengths = [len(v) for v in system.return_words]
    assert constants.h1 == Fraction(min(lengths), 5)
    assert constants.h2 == Fraction(max(lengths), 5)
    assert constants.h3 == system.count


def min_return_length(tau, n):
    """Length of the shortest return word on the prefix of length n."""
    return min(len(v) for v in return_substitution(tau, fixed_point_prefix(tau, n))[0].return_words)


def test_min_return_length_values(fib):
    values = [min_return_length(fib, n) for n in range(1, 13)]
    assert values == [1, 2, 2, 3, 3, 3, 5, 5, 5, 5, 5, 8]
    assert values[0] == 1
    assert all(v >= 1 for v in values)


def test_min_return_length_grows(fib, morse):
    for sub in (fib, morse):
        small = min_return_length(sub, 1)
        large = min_return_length(sub, 64)
        assert large > small


def test_min_return_length_first_hundred(fib):
    """Raw values over prefix lengths 1..100: not pointwise monotone, but
    drifting upward as the characterization predicts."""
    values = [min_return_length(fib, n) for n in range(1, 101)]
    assert all(v >= 1 for v in values)
    assert values[0] == 1
    assert max(values) == values[-1] or max(values) >= 34
    # never drops below a fixed fraction of the record so far
    record = 0
    for v in values:
        record = max(record, v)
        assert v * 3 >= record


def test_nonperiodic_check_flags_periodic():
    sub = substitution_from_strings("a b", {"a": "ab", "b": "ab"}, "a")
    with pytest.raises(ValueError, match="periodic.*tower depth 1"):
        nonperiodic_check(sub)


def test_nonperiodic_check_passes_corpus(corpus):
    depths = {"fibonacci": 2, "thue_morse": 3, "tribonacci": 2, "quad": 3}
    for name, sub in corpus.items():
        depth = nonperiodic_check(sub)
        assert depth == depths[name], name
        # the deciding depth is the level that repeats an earlier one
        assert derivation_tower(sub).repetition[1] == depth


def _tower_counts(sub) -> list[int]:
    """Return-word counts per level of the tower, up to a repetition or a
    level with one return word, recomputed outside ``nonperiodic_check``."""
    counts, seen = [], set()
    u = fixed_point_prefix(sub, 1)
    while True:
        system, tau_u = return_substitution(sub, u)
        counts.append(system.count)
        key = tuple(w.scan_text for w in tau_u.images)
        if system.count == 1 or key in seen:
            return counts
        seen.add(key)
        u = system.return_words[0] + u


def test_tower_return_word_counts_pinned(morse):
    aab = substitution_from_strings("a b", {"a": "aab", "b": "aab"}, "a")
    assert _tower_counts(aab) == [2, 1]
    with pytest.raises(ValueError, match="one return word 'aab'.*tower depth 2"):
        nonperiodic_check(aab)
    assert _tower_counts(morse) == [3, 4, 4]
    assert nonperiodic_check(morse) == 3


def test_nonperiodic_check_matches_bounded_oracle():
    """The tower decision agrees with the bounded periodic-tail scan on random
    primitive substitutions of 1-4 letters, periodic ones included."""
    rng = random.Random(1998)
    periodic = nonperiodic = 0
    while periodic + nonperiodic < 120:
        size = rng.randrange(1, 5)
        alphabet = Alphabet(tuple("abcd"[:size]))
        images = [
            Word(alphabet, [rng.randrange(size) for _ in range(rng.randrange(1, 4))])
            for _ in range(size)
        ]
        images[0] = Word(alphabet, (0,) + images[0].letters[:2] + (rng.randrange(size),))
        sub = Substitution(Morphism(alphabet, alphabet, images), 0)
        if not is_primitive(sub.matrix())[0]:
            continue
        if looks_periodic(sub):
            periodic += 1
            with pytest.raises(ValueError, match="periodic"):
                nonperiodic_check(sub)
        else:
            nonperiodic += 1
            depth = nonperiodic_check(sub)
            assert depth == len(derivation_tower(sub).levels)
    assert periodic >= 20 and nonperiodic >= 20
