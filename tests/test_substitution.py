import gc
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from retword.errors import GenerationError, ParseError, ResourceLimitError
from retword.returns import derivation_tower
from retword.substitution import (
    Alphabet,
    FixedPointPrefix,
    IncidenceMatrix,
    Morphism,
    Substitution,
    Word,
    compose,
    fixed_point_prefix,
    identity_matrix,
    identity_morphism,
    incidence_matrix,
    is_primitive,
    morphic_image_prefix,
    parse_substitution,
    power,
    substitution_from_strings,
)
from spectral_oracle import boolean_is_primitive


def test_compose_fibonacci_square(fib):
    square = compose(fib.morphism, fib.morphism)
    assert square.image(0).text() == "010"
    assert square.image(1).text() == "01"


def test_compose_identity_neutral(fib):
    ident = identity_morphism(fib.alphabet)
    assert compose(ident, fib.morphism) == fib.morphism
    assert compose(fib.morphism, ident) == fib.morphism


def test_compose_alphabet_mismatch(fib, trib):
    with pytest.raises(ValueError):
        compose(fib.morphism, trib.morphism)


def test_incidence_matrix_examples(fib, quad_pair):
    tau, sigma, _ = quad_pair
    assert fib.matrix().rows == ((1, 1), (1, 0))
    assert tau.matrix().rows == ((2, 1), (2, 3))
    assert sigma.matrix().rows == ((2, 1, 1), (2, 0, 2), (0, 3, 1))
    ident = identity_morphism(Alphabet(("x", "y", "z")))
    assert incidence_matrix(ident) == identity_matrix(3)


def test_matrix_functoriality_small_alphabets():
    """Incidence of a composition equals the product, across alphabet sizes <= 3
    and image lengths <= 3 (seeded sample of morphism pairs per size combination)."""
    rng = random.Random(47)
    alphabets = {
        1: Alphabet(("p",)),
        2: Alphabet(("x", "y")),
        3: Alphabet(("u", "v", "w")),
    }

    def random_morphism(src, dst):
        images = tuple(
            Word(dst, tuple(rng.randrange(dst.size) for _ in range(rng.randrange(1, 4))))
            for _ in range(src.size)
        )
        return Morphism(src, dst, images)

    for na in (1, 2, 3):
        for nb in (1, 2, 3):
            for nc in (1, 2, 3):
                a, b, c = alphabets[na], alphabets[nb], alphabets[nc]
                for _ in range(10):
                    g = random_morphism(a, b)
                    f = random_morphism(b, c)
                    assert incidence_matrix(compose(f, g)) == incidence_matrix(
                        f
                    ) @ incidence_matrix(g)


def test_matrix_power_matches_composition(fib):
    assert (fib.matrix() ** 2).rows == ((2, 1), (1, 1))
    assert power(fib, 2).matrix() == fib.matrix() ** 2


def test_is_primitive_fibonacci(fib):
    assert is_primitive(fib.matrix()) == (True, 2)


def test_is_primitive_identity_false():
    assert is_primitive(identity_matrix(2)) == (False, None)


def test_is_primitive_quad_sigma(quad_pair):
    _, sigma, _ = quad_pair
    primitive, witness = is_primitive(sigma.matrix())
    assert primitive and witness == 2


def test_is_primitive_rejects_non_square():
    with pytest.raises(ValueError):
        is_primitive(IncidenceMatrix(((1, 0, 1), (0, 1, 0))))


@st.composite
def small_nonnegative_matrices(draw):
    """1x1 to 9x9 matrices with entries 0..2, reducible and imprimitive shapes included."""
    n = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(("any", "reducible", "cyclic")))
    if shape == "reducible":
        # block triangular: no path leads from a later block back to an earlier one
        block = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        rows = [[e if block[i] <= block[j] else 0 for j, e in enumerate(r)] for i, r in enumerate(rows)]
    elif shape == "cyclic":
        # every edge goes from one class to the next, so every cycle length is a multiple of the period
        period = draw(st.integers(2, 3))
        cls = draw(st.lists(st.integers(0, period - 1), min_size=n, max_size=n))
        rows = [[e if cls[j] == (cls[i] + 1) % period else 0 for j, e in enumerate(r)] for i, r in enumerate(rows)]
    return IncidenceMatrix(rows)


@settings(max_examples=300, deadline=None)
@given(m=small_nonnegative_matrices())
def test_is_primitive_matches_boolean_tuple_oracle(m):
    assert is_primitive(m) == boolean_is_primitive(m)


@pytest.mark.parametrize("n", range(2, 9))
def test_wielandt_matrix_reaches_the_exponent_bound(n):
    # the n-cycle plus one chord: cycles of lengths n and n - 1 only
    rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    rows[n - 1][0] = rows[n - 1][1] = 1
    assert is_primitive(IncidenceMatrix(rows)) == (True, n * n - 2 * n + 2)


def test_power_examples(fib, morse):
    assert power(fib, 1).images == fib.images
    cube = power(fib, 3)
    assert cube.image(0).text() == "01001"
    assert cube.image(1).text() == "010"
    for k in range(1, 6):
        assert len(power(morse, k).image(0)) == 2**k


def test_fixed_point_prefix_values(fib, morse):
    assert fixed_point_prefix(fib, 13).text() == "0100101001001"
    assert fixed_point_prefix(morse, 8).text() == "01101001"
    assert fixed_point_prefix(fib, 1).text() == "0"


def test_fixed_point_coherence(corpus):
    for sub in corpus.values():
        prefix = fixed_point_prefix(sub, 500)
        image = sub(prefix)
        assert image.letters[:500] == prefix.letters


def test_power_same_fixed_point(corpus):
    for sub in corpus.values():
        base = fixed_point_prefix(sub, 10_000).letters
        for n in range(2, 6):
            assert fixed_point_prefix(power(sub, n), 10_000).letters == base


def test_power_preserves_primitivity(corpus):
    for sub in corpus.values():
        for n in range(1, 6):
            assert is_primitive(power(sub, n).matrix())[0]


def test_fixed_point_requires_growing_start():
    sub = substitution_from_strings("a b", {"a": "a", "b": "ab"}, "a")
    with pytest.raises(GenerationError):
        FixedPointPrefix(sub)


def test_generated_prefix_freed_without_cycle_collection():
    """The substitution and its fixed-point buffer form no reference cycle,
    so dropping the substitution frees the buffer at once."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        sub = substitution_from_strings("a b", {"a": "ab", "b": "a"}, "a")
        fixed_point_prefix(sub, 200_000)
        held, _ = tracemalloc.get_traced_memory()
        del sub
        left, _ = tracemalloc.get_traced_memory()
        assert held > 200_000 > 10 * left
        assert gc.collect() == 0
    finally:
        tracemalloc.stop()
        gc.enable()


def test_fixed_point_cap_enforced(fib):
    fp = FixedPointPrefix(fib, cap=32)
    with pytest.raises(ResourceLimitError):
        fp.prefix(33)
    assert fp.prefix(32).text().startswith("01001")


def test_prefix_extension_idempotent(fib):
    fp = FixedPointPrefix(fib)
    first = fp.prefix(20).letters
    longer = fp.prefix(200).letters
    assert longer[:20] == first


def test_morphic_image_prefix_quad(quad_pair):
    tau, sigma, phi = quad_pair
    image = morphic_image_prefix(phi, sigma, 16)
    assert image.symbols() == fixed_point_prefix(tau, 16).symbols()


def test_morphic_image_identity(fib):
    ident = identity_morphism(fib.alphabet)
    assert morphic_image_prefix(ident, fib, 50) == fixed_point_prefix(fib, 50)


def test_morphic_image_constant_coding(fib):
    target = Alphabet(("z",))
    coding = Morphism(fib.alphabet, target, (target.word("z"), target.word("z")))
    assert morphic_image_prefix(coding, fib, 10).text() == "z" * 10


def test_morphic_image_rejects_non_letter_to_letter(fib):
    bad = Morphism(fib.alphabet, fib.alphabet, (fib.alphabet.word("01"), fib.alphabet.word("0")))
    with pytest.raises(ValueError):
        morphic_image_prefix(bad, fib, 5)


def test_substitution_start_letter_validation():
    with pytest.raises(ValueError):
        substitution_from_strings("a b", {"a": "ba", "b": "ab"}, "a")
    with pytest.raises(ValueError):
        substitution_from_strings("a b", {"a": "", "b": "a"}, "a")


def test_parse_substitution_round_trip():
    text = """
# sample file
alphabet = a b
start = a
a -> a b a b
b -> a b b b
coding phi: a -> a, b -> b
"""
    sub, codings = parse_substitution(text)
    assert sub.alphabet.symbols == ("a", "b")
    assert sub.image(0).text() == "abab"
    assert sub.image(1).text() == "abbb"
    assert sub.start == 0
    assert set(codings) == {"phi"}
    assert codings["phi"].is_letter_to_letter


def test_format_parse_round_trip():
    from retword.substitution import format_substitution

    text = """
# original file, odd whitespace
alphabet =  a   b c
start =  a
a ->  a b a b
b -> a c   c c
c -> a b b c
coding phi:  a -> a,  b -> b, c -> b
"""
    sub, codings = parse_substitution(text)
    rendered = format_substitution(sub, codings)
    sub2, codings2 = parse_substitution(rendered)
    assert sub2 == sub
    assert codings2 == codings
    # formatting is a fixed point: render(parse(render(...))) is byte-identical
    assert format_substitution(sub2, codings2) == rendered


def test_parse_substitution_letters_named_like_headers():
    """A header's keyword is the whole left side of its '=', so the image lines
    of the letters start and alphabetic are not read as headers, and headers
    with no space around '=' still parse."""
    text = (
        "alphabet=start end alphabetic\n"
        "start=start\n"
        "start -> start end\n"
        "end -> alphabetic start\n"
        "alphabetic -> start\n"
    )
    sub, _ = parse_substitution(text)
    assert sub.alphabet.symbols == ("start", "end", "alphabetic")
    assert sub.start == 0
    assert [w.symbols() for w in sub.images] == [
        ("start", "end"),
        ("alphabetic", "start"),
        ("start",),
    ]


def test_parse_substitution_start_violation():
    text = "alphabet = a b\nstart = a\na -> b a\nb -> a\n"
    with pytest.raises(ParseError):
        parse_substitution(text)


def test_parse_substitution_empty_image():
    text = "alphabet = a b\nstart = a\na -> a b\nb ->\n"
    with pytest.raises(ParseError) as err:
        parse_substitution(text)
    assert err.value.line == 4


def test_parse_substitution_unknown_letter():
    text = "alphabet = a b\nstart = a\na -> a b\nb -> a c\n"
    with pytest.raises(ParseError):
        parse_substitution(text)


def test_parse_substitution_missing_sections():
    with pytest.raises(ParseError):
        parse_substitution("start = a\na -> a\n")
    with pytest.raises(ParseError):
        parse_substitution("alphabet = a\na -> a a\n")


def test_column_sums_are_image_lengths(corpus):
    for sub in corpus.values():
        sums = sub.matrix().column_sums()
        assert sums == tuple(len(w) for w in sub.images)


def test_random_morphism_application_matches_manual():
    rng = random.Random(13)
    a2 = Alphabet(("0", "1"))
    for _ in range(50):
        images = tuple(
            Word(a2, tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4))))
            for _ in range(2)
        )
        m = Morphism(a2, a2, images)
        word = Word(a2, tuple(rng.randrange(2) for _ in range(rng.randrange(0, 8))))
        expected = []
        for x in word.letters:
            expected.extend(images[x].letters)
        assert m(word).letters == tuple(expected)


# -- property tests of the str kernels against letter-by-letter oracles ------

ALPHABETS = [Alphabet(tuple("abcdef"[:k])) for k in range(1, 7)]


def letterwise_apply(m: Morphism, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Oracle: concatenate the images letter by letter."""
    out: list[int] = []
    for x in letters:
        out.extend(m.image(x).letters)
    return tuple(out)


def letterwise_incidence(m: Morphism) -> tuple[tuple[int, ...], ...]:
    """Oracle: count every letter of every image one at a time."""
    rows = [[0] * m.source.size for _ in range(m.target.size)]
    for j in range(m.source.size):
        for x in m.image(j).letters:
            rows[x][j] += 1
    return tuple(tuple(r) for r in rows)


def letterwise_fixed_point(sub, n: int) -> tuple[int, ...]:
    """Oracle: append the image of the next unexpanded letter until n letters exist."""
    letters = list(sub.image(sub.start).letters)
    images = [w.letters for w in sub.images]
    i = 1
    while len(letters) < n:
        letters.extend(images[letters[i]])
        i += 1
    return tuple(letters[:n])


@st.composite
def morphisms(draw):
    source = draw(st.sampled_from(ALPHABETS))
    target = draw(st.sampled_from(ALPHABETS))
    images = [
        draw(st.lists(st.integers(0, target.size - 1), max_size=5)) for _ in range(source.size)
    ]
    return Morphism(source, target, tuple(Word(target, tuple(im)) for im in images))


@st.composite
def primitive_substitutions(draw, min_letters=1):
    """Substitutions on min_letters-4 letters with start letter 0 and images of 1-6 letters."""
    alphabet = draw(st.sampled_from(ALPHABETS[min_letters - 1 : 4]))
    k = alphabet.size
    images = []
    for b in range(k):
        low = 2 if b == 0 else 1
        im = draw(st.lists(st.integers(0, k - 1), min_size=low, max_size=6))
        images.append([0] + im[1:] if b == 0 else im)
    sub = Substitution(
        Morphism(alphabet, alphabet, tuple(Word(alphabet, tuple(im)) for im in images)), 0
    )
    assume(is_primitive(sub.matrix())[0])
    return sub


@settings(max_examples=200, deadline=None)
@given(morphisms(), st.data())
def test_morphism_call_and_incidence_match_letterwise(m, data):
    letters = tuple(data.draw(st.lists(st.integers(0, m.source.size - 1), max_size=12)))
    assert m(Word(m.source, letters)).letters == letterwise_apply(m, letters)
    assert incidence_matrix(m).rows == letterwise_incidence(m)


@settings(max_examples=150, deadline=None)
@given(primitive_substitutions(), st.integers(1, 400), st.data())
def test_fixed_point_prefix_matches_letterwise(sub, cap, data):
    longest = sub.max_image_length()
    fp = FixedPointPrefix(sub, cap=cap)
    lengths = sorted(data.draw(st.lists(st.integers(1, cap), min_size=1, max_size=4)))
    for n in lengths + [cap]:
        before = len(fp)
        assert fp.prefix(n).letters == letterwise_fixed_point(sub, n)
        assert len(fp) <= max(before, n + longest)
        assert fp.letter(n - 1) == letterwise_fixed_point(sub, n)[-1]
    with pytest.raises(ResourceLimitError):
        fp.ensure(cap + 1)
    assert len(fp) <= max(len(sub.image(sub.start)), cap + longest)


@settings(max_examples=100, deadline=None)
@given(primitive_substitutions(min_letters=2), st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_power_is_nested_composition_and_kept(sub, exponents):
    """power(s, n) equals n-1 nested compositions with s, in whatever order the
    exponents are asked for; a repeated call returns the same object and
    power(s, 1) is s itself."""
    for n in exponents:
        nested = sub.morphism
        for _ in range(n - 1):
            nested = compose(sub.morphism, nested)
        assert power(sub, n).morphism == nested
        assert power(sub, n).start == sub.start
        assert power(sub, n) is power(sub, n)
    assert power(sub, 1) is sub


def test_powered_substitution_leaves_no_cycle():
    """The power table refers to the powers only, never back to their base, so
    a powered substitution with its fixed point, return systems and tower
    leaves nothing to the cycle collector."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        sub = substitution_from_strings("a b", {"a": "ab", "b": "a"}, "a")
        square = power(sub, 2)
        power(power(sub, 5), 2)
        fixed_point_prefix(square, 1000)
        derivation_tower(square, 8)
        power(derivation_tower(sub, 8).levels[0].substitution, 3)
        del sub, square
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
