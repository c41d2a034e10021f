import random

import pytest
from hypothesis import given, settings, strategies as st

from circularity_oracle import window_factors
from periodic_oracle import periodic_tail_witness
from retword.substitution import fixed_point_prefix, language
from retword.words import Alphabet, Word, find_all, is_code, same_symbols

AB = Alphabet(("a", "b", "c"))
BIN = Alphabet(("0", "1"))


def naive_occurrences(pattern: Word, host: Word) -> list[int]:
    """Oracle: plain window comparison, letter by letter."""
    m, n = len(pattern), len(host)
    out = []
    for i in range(n - m + 1):
        if all(host[i + j] == pattern[j] for j in range(m)):
            out.append(i)
    return out


def test_occurrences_example_string():
    host = AB.word("ababcababbbabab")
    positions = find_all(host.scan_text, AB.word("abab").scan_text)
    assert positions == [0, 5, 11]
    assert positions == naive_occurrences(AB.word("abab"), host)


def test_occurrences_identity_case():
    assert find_all(AB.word("a").scan_text, AB.word("a").scan_text) == [0]


def test_occurrences_absent_pattern():
    assert find_all(AB.word("abab").scan_text, AB.word("aa").scan_text) == []


def test_occurrences_overlapping_counted():
    assert find_all(BIN.word("00000").scan_text, BIN.word("00").scan_text) == [0, 1, 2, 3]


def test_occurrences_matches_oracle_random():
    rng = random.Random(7)
    for _ in range(200):
        host = Word(BIN, tuple(rng.randrange(2) for _ in range(rng.randrange(1, 40))))
        plen = rng.randrange(1, 5)
        pattern = Word(BIN, tuple(rng.randrange(2) for _ in range(plen)))
        assert find_all(host.scan_text, pattern.scan_text) == naive_occurrences(pattern, host)


def factor_texts(host: Word, lengths) -> list[str]:
    """The scan texts of the distinct factors of ``host`` with the given
    lengths, cut from the oracle's table of its windows of the longest one,
    sorted."""
    lengths = set(lengths)
    if not lengths:
        return []
    return sorted(w.scan_text for w in window_factors(host, max(lengths)) if len(w) in lengths)


def test_factor_set_binary_example():
    assert factor_texts(BIN.word("0110"), (2,)) == [BIN.word(w).scan_text for w in ("01", "10", "11")]


def test_factor_set_whole_word():
    w = AB.word("abca")
    assert factor_texts(w, (len(w),)) == [w.scan_text]


def test_factor_set_unary_host():
    assert factor_texts(AB.word("aaaa"), (2,)) == [AB.word("aa").scan_text]


def test_factor_set_bad_length():
    assert factor_texts(AB.word("ab"), (3,)) == []
    assert factor_texts(AB.word("ab"), (0,)) == []


def slice_factors(host: Word, lengths) -> list[str]:
    """Oracle: every window of every requested length, deduplicated and sorted."""
    text = host.scan_text
    return sorted({text[i : i + n] for n in lengths for i in range(len(text) - n + 1)})


@settings(max_examples=300, deadline=None)
@given(
    letters=st.lists(st.integers(0, 2), max_size=60),
    lengths=st.sets(st.integers(1, 70), max_size=8),
)
def test_factors_match_slice_oracle(letters, lengths):
    """Random hosts, non-contiguous length sets and lengths past the host."""
    host = Word(AB, letters)
    assert factor_texts(host, lengths) == slice_factors(host, lengths)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 400),
    lengths=st.lists(st.integers(1, 25), min_size=1, max_size=6),
)
def test_factors_of_fixed_points_match_slice_oracle(fib, morse, trib, n, lengths):
    """The factors of every prefix are factors of the fixed point: they lie
    in its language."""
    for sub in (fib, morse, trib):
        host = fixed_point_prefix(sub, n)
        found = factor_texts(host, lengths)
        assert found == slice_factors(host, lengths)
        assert all(x in language(sub, len(x)) for x in found)


def test_factors_without_lengths_and_past_the_host():
    host = AB.word("abca")
    assert factor_texts(host, ()) == []
    assert factor_texts(host, (5, 9)) == []
    assert factor_texts(Word(AB, ()), range(1, 4)) == []
    assert factor_texts(host, (4, 5)) == [host.scan_text]


def test_factors_refuse_lengths_below_one(fib):
    for n in (0, -1):
        with pytest.raises(ValueError, match="factor lengths must be >= 1"):
            language(fib, n)


@settings(max_examples=300, deadline=None)
@given(letters=st.lists(st.integers(0, 2), max_size=60), longest=st.integers(1, 70))
def test_factor_table_matches_window_oracle(letters, longest):
    """The oracle's factors, cut from the windows of S letters, are those of
    every window of every length up to S; S runs past the host and windows
    past its end."""
    host = Word(AB, letters)
    found = [w.scan_text for w in window_factors(host, longest)]
    assert found == slice_factors(host, range(1, longest + 1))


def test_fibonacci_factor_complexity_is_n_plus_one(fib):
    """The Fibonacci word is Sturmian: n + 1 factors of each length n, in
    its language and in its first 5000 letters."""
    host = fixed_point_prefix(fib, 5000)
    found = factor_texts(host, range(1, 41))
    counts = [sum(1 for w in found if len(w) == n) for n in range(1, 41)]
    assert counts == [len(language(fib, n)) for n in range(1, 41)] == [n + 1 for n in range(1, 41)]


def test_thue_morse_factor_complexity(morse):
    host = fixed_point_prefix(morse, 4096)
    found = factor_texts(host, range(1, 9))
    counts = [sum(1 for w in found if len(w) == n) for n in range(1, 9)]
    assert counts == [len(language(morse, n)) for n in range(1, 9)] == [2, 4, 6, 10, 12, 16, 20, 22]


def test_seam_occurrence_inequality():
    rng = random.Random(11)
    for _ in range(200):
        u = Word(BIN, tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4))))
        v = Word(BIN, tuple(rng.randrange(2) for _ in range(rng.randrange(0, 15))))
        w = Word(BIN, tuple(rng.randrange(2) for _ in range(rng.randrange(0, 15))))
        lu = lambda host: len(naive_occurrences(u, host))
        assert lu(v + w) >= lu(v) + lu(w) - 1
        assert len(find_all((v + w).scan_text, u.scan_text)) == lu(v + w)


def test_occurrences_consistent_with_factor_set():
    rng = random.Random(5)
    for _ in range(50):
        host = Word(BIN, tuple(rng.randrange(2) for _ in range(rng.randrange(3, 25))))
        for n in range(1, 4):
            if n > len(host):
                continue
            found = set(factor_texts(host, (n,)))
            for cand in {"\0" * n, "\1" * n} | found:
                assert (cand in found) == bool(find_all(host.scan_text, cand))


def test_periodic_tail_witness_flags_periodic():
    host = BIN.word("01" * 40)
    assert periodic_tail_witness(host) == (0, 2)


def test_periodic_tail_witness_ignores_accidental_tail_square(fib):
    # long Fibonacci prefixes end in squares, which must not count
    host = fixed_point_prefix(fib, 2048)
    assert periodic_tail_witness(host) is None


def test_word_equality_and_hash():
    assert AB.word("ab") == AB.word("ab")
    assert AB.word("ab") != AB.word("ba")
    assert hash(AB.word("ab")) == hash(AB.word("ab"))
    other = Alphabet(("a", "b"))
    assert other.word("ab") != AB.word("ab")


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        AB.word("xyz")


def test_word_constructor_rejects_out_of_range_indices():
    for bad in ((3,), (0, -1), (1, 2, 7), (10**9,)):
        with pytest.raises(ValueError):
            Word(AB, bad)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(-3, 8), max_size=10))
def test_word_constructor_checks_every_index(size, letters):
    alphabet = Alphabet(tuple("vwxyz"[:size]))
    if all(0 <= x < size for x in letters):
        word = Word(alphabet, tuple(letters))
        assert word.letters == tuple(letters) and list(word) == letters
        assert word == alphabet.word([alphabet.symbol(x) for x in letters])
    else:
        with pytest.raises(ValueError):
            Word(alphabet, tuple(letters))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=12), st.lists(st.integers(0, 2), max_size=12), st.data())
def test_derived_words_match_tuple_operations(xs, ys, data):
    a, b = Word(AB, tuple(xs)), Word(AB, tuple(ys))
    i = data.draw(st.integers(-15, 15))
    j = data.draw(st.integers(-15, 15))
    assert a[i:j].letters == tuple(xs)[i:j]
    assert (a + b).letters == tuple(xs) + tuple(ys)
    assert (a * 3).letters == tuple(xs) * 3
    assert a.startswith(b) == (tuple(xs)[: len(ys)] == tuple(ys))
    assert (a.scan_text < b.scan_text) == (tuple(xs) < tuple(ys))


def word_by_symbols(alphabet: Alphabet, source) -> Word:
    """Oracle for ``Alphabet.word``: a string holding whitespace is split on
    it, any other source is read one symbol (or character) at a time and
    each is looked up on its own."""
    if isinstance(source, str) and any(c.isspace() for c in source):
        source = source.split()
    return Word(alphabet, [alphabet.index(p) for p in source])


@st.composite
def alphabet_sources(draw):
    """An alphabet of single-character, multi-character or mixed symbols (a
    whitespace symbol and a non-ASCII one among them) with a source to read:
    a compact string, a whitespace-separated one or a list of symbols, each
    often holding an unknown symbol or character."""
    pool = ("a", "b", "c", "é", "1", "ab", "bc", "a1", "11", " ")
    kind = draw(st.sampled_from(("single", "multi", "mixed")))
    if kind == "single":
        pool = tuple(s for s in pool if len(s) == 1)
    elif kind == "multi":
        pool = tuple(s for s in pool if len(s) > 1)
    alphabet = Alphabet(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True)))
    spelled = draw(st.lists(st.sampled_from(alphabet.symbols) | st.sampled_from(("z", "b", "\t", "ab")), max_size=20))
    form = draw(st.sampled_from(("compact", "spaced", "list")))
    if form == "compact":
        return alphabet, "".join(spelled)
    if form == "spaced":
        return alphabet, draw(st.sampled_from((" ", "  ", "\n", " \t"))).join(spelled)
    return alphabet, spelled


@settings(max_examples=400, deadline=None)
@given(alphabet_sources())
def test_alphabet_word_matches_the_symbol_by_symbol_oracle(pair):
    alphabet, source = pair
    try:
        expected = word_by_symbols(alphabet, source)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            alphabet.word(source)
        assert str(raised.value) == str(exc)
    else:
        assert alphabet.word(source) == expected


def test_alphabet_word_reads_long_compact_strings_and_names_an_unknown_symbol():
    text = "0110" * 2_500 + "1"
    assert BIN.word(text) == word_by_symbols(BIN, text)
    assert BIN.word(text).scan_text == text.translate({48: 0, 49: 1})
    with pytest.raises(ValueError, match=r"^symbol '2' not in alphabet \('0', '1'\)$"):
        BIN.word(text + "2")


# single- and multi-character symbols, some of them concatenations of others
SYMBOL_POOL = ("a", "b", "c", "ab", "bc", "a1", "1", "11")


@st.composite
def symbol_word_pairs(draw):
    """Two words over independently drawn alphabets; often the same symbol sequence."""
    left = Alphabet(draw(st.lists(st.sampled_from(SYMBOL_POOL), min_size=1, max_size=5, unique=True)))
    spelled = draw(st.lists(st.sampled_from(left.symbols), max_size=12))
    a = left.word(spelled)
    if draw(st.booleans()):
        # the same sequence over an alphabet holding its symbols in another order
        extra = draw(st.lists(st.sampled_from(SYMBOL_POOL), max_size=3))
        right = Alphabet(draw(st.permutations(tuple(dict.fromkeys(left.symbols + tuple(extra))))))
        if spelled and draw(st.booleans()):
            i = draw(st.integers(0, len(spelled) - 1))
            spelled[i] = draw(st.sampled_from(right.symbols))
        b = right.word(spelled)
    else:
        right = Alphabet(draw(st.lists(st.sampled_from(SYMBOL_POOL), min_size=1, max_size=5, unique=True)))
        b = right.word(draw(st.lists(st.sampled_from(right.symbols), max_size=12)))
    return a, b


@settings(max_examples=400, deadline=None)
@given(symbol_word_pairs())
def test_same_symbols_matches_symbol_tuples(pair):
    a, b = pair
    assert same_symbols(a, b) == (a.symbols() == b.symbols())
    assert same_symbols(b, a) == same_symbols(a, b)


def test_same_symbols_keeps_multi_character_symbols_apart():
    joined, split = Alphabet(("ab", "c")), Alphabet(("a", "b", "c"))
    assert not same_symbols(joined.word(["ab", "c"]), split.word(["a", "b", "c"]))
    mixed, reordered = Alphabet(("a1", "b")), Alphabet(("b", "a1", "1"))
    assert same_symbols(mixed.word(["a1", "b", "a1"]), reordered.word(["a1", "b", "a1"]))
    assert not same_symbols(mixed.word(["a1", "b"]), reordered.word(["a1", "1"]))


def has_ambiguity(words: list[str]) -> bool:
    """Oracle: whether two different sequences of the words spell one word of
    at most (sum of |c| + 1) * max |c| letters, a length past which every
    non-code shows an ambiguity.  The empty word spells the same as twice
    itself.  Otherwise the sequences compared start with different words
    (a common first word can be dropped from both), and each pair is grown
    word by word on its shorter side while one spelling is a prefix of the
    other: a pair whose spellings already differ grows into no ambiguity.
    What a pair grows into depends only on the longer spelling's length and
    on its overhang past the shorter one, so each such state is grown once;
    otherwise the pairs can multiply exponentially with the limit.
    """
    if "" in words:
        return True
    limit = (sum(map(len, words)) + 1) * max(map(len, words), default=0)
    pairs = [(a, b) for i, a in enumerate(words) for b in words[i + 1 :] if a.startswith(b) or b.startswith(a)]
    grown_states = set()
    while pairs:
        s, t = pairs.pop()
        if s == t:
            return True
        if len(s) > len(t):
            s, t = t, s
        state = (len(t), t[len(s) :])
        if state in grown_states:
            continue
        grown_states.add(state)
        for w in words:
            grown = s + w
            if len(grown) <= limit and (t.startswith(grown) or grown.startswith(t)):
                pairs.append((grown, t))
    return False


@pytest.mark.parametrize(
    "words",
    [
        ["a", "ab", "ba"],  # a.ba = ab.a
        ["a", "ab", "b"],  # a.b = ab
        ["0", "01", "10"],
        ["aa", "aaa"],  # aa.aaa = aaa.aa
        ["a", "b", "abb"],
        ["ab", "abba", "baab", "ba"],  # ab.ba = abba
        ["a", "a"],
        ["ab", "b", "ab"],
        ["", "a"],
        [""],
    ],
)
def test_is_code_refuses_non_codes(words):
    assert not is_code(words)
    assert has_ambiguity(words)


@pytest.mark.parametrize(
    "words",
    [
        ["a", "ba"],  # prefix code
        ["0", "10", "11"],  # prefix code
        ["a", "ab"],  # suffix code
        ["a", "ab", "bb"],  # suffix code
        ["a", "ab", "bba"],  # neither prefix nor suffix code
        ["abab"],
        ["b"],
        [],
    ],
)
def test_is_code_accepts_codes(words):
    assert is_code(words)
    assert not has_ambiguity(words)


@st.composite
def word_lists(draw):
    """1-5 words of at most 4 letters over 2-3 letters: mostly distinct and
    non-empty, so that many are codes, sometimes with repeats or empty words."""
    letters = "abc"[: draw(st.integers(2, 3))]
    if draw(st.integers(0, 3)):
        return draw(st.lists(st.text(letters, min_size=1, max_size=4), min_size=1, max_size=5, unique=True))
    return draw(st.lists(st.text(letters, max_size=4), min_size=1, max_size=5))


@settings(max_examples=400, deadline=None)
@given(word_lists())
def test_is_code_matches_concatenation_oracle(words):
    assert is_code(words) == (not has_ambiguity(words))
