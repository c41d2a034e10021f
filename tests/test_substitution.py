import functools
import gc
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from retword.cli import run_command
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
    first_mismatch,
    fixed_point_prefix,
    identity_matrix,
    identity_morphism,
    incidence_matrix,
    is_primitive,
    language,
    morphic_image_prefix,
    parse_substitution,
    power,
    power_lengths,
    power_matrix,
    substitution_from_strings,
)
from circularity_oracle import covering_prefix, power_language
from spectral_oracle import boolean_is_primitive

substitution_module = sys.modules["retword.substitution"]
SAMPLES = Path(__file__).resolve().parents[1] / "samples"


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


@pytest.mark.parametrize(
    "images, rows",
    [
        (["", "", ""], ((0, 0, 0), (0, 0, 0))),
        (["", "0", ""], ((0, 1, 0), (0, 0, 0))),
        (["00", "", "1"], ((2, 0, 0), (0, 0, 1))),
        (["0000", "1", "10"], ((4, 0, 1), (0, 1, 1))),
        (["01", "0101010", "111"], ((1, 4, 0), (1, 3, 3))),
    ],
)
def test_incidence_matrix_of_empty_images_and_absent_letters(images, rows):
    """3 source letters into 2 target letters: a non-square matrix, with
    empty images and letters absent from every image."""
    source, target = Alphabet(("a", "b", "c")), Alphabet(("0", "1"))
    m = Morphism(source, target, [target.word(text) for text in images])
    assert incidence_matrix(m).rows == rows


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


def _count_primitivity_searches(monkeypatch) -> list[IncidenceMatrix]:
    searched = []
    search = substitution_module._least_positive_power

    def counted(matrix):
        searched.append(matrix)
        return search(matrix)

    monkeypatch.setattr(substitution_module, "_least_positive_power", counted)
    return searched


def test_is_primitive_keeps_its_answer_on_the_matrix(monkeypatch):
    searched = _count_primitivity_searches(monkeypatch)
    m = IncidenceMatrix(((1, 1), (1, 0)))
    assert is_primitive(m) == is_primitive(m) == (True, 2)
    assert searched == [m]
    # a refusal is not kept: it is raised every time
    for bad in (IncidenceMatrix(((1, 0, 1), (0, 1, 0))), IncidenceMatrix(((1, -1), (1, 1)))):
        for _ in range(2):
            with pytest.raises(ValueError):
                is_primitive(bad)


def test_primitivity_is_decided_once_per_matrix(monkeypatch, capsys):
    """relations, shared and circularity ask is_primitive of the same
    matrices again and again; each matrix object runs the search once."""
    searched = _count_primitivity_searches(monkeypatch)
    fib = str(SAMPLES / "fib.sub")
    for argv in (
        ["relations", fib, "--u", "0", "--v", "01"],
        ["shared", "--left", fib, "--right", fib],
        ["circularity", fib],
    ):
        assert run_command(argv + ["--json"])[0] == 0
    capsys.readouterr()
    assert searched
    assert len(searched) == len({id(m) for m in searched})


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


def test_fixed_point_cap_enforced(fib, monkeypatch):
    monkeypatch.setenv("REPO_PREFIX_CAP", "32")
    fp = FixedPointPrefix(fib)
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


def test_parse_substitution_letter_named_coding():
    """A coding line's first token is ``coding`` and its second does not start
    with an arrow, so the letter coding can be given an image, while a coding
    line with no ':' is still refused."""
    text = "alphabet = coding b\nstart = coding\ncoding -> coding b\nb -> coding\n"
    sub, codings = parse_substitution(text + "coding phi: coding -> 0, b -> 1\n")
    assert [w.symbols() for w in sub.images] == [("coding", "b"), ("coding",)]
    assert codings["phi"].images[0].symbols() == ("0",)
    with pytest.raises(ParseError, match="coding line needs a ':'") as err:
        parse_substitution(text + "coding phi coding -> 0\n")
    assert err.value.line == 5


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
def primitive_substitutions(draw, min_letters=1, max_letters=4):
    """Substitutions on min_letters-max_letters letters with start letter 0 and images of 1-6 letters."""
    alphabet = draw(st.sampled_from(ALPHABETS[min_letters - 1 : max_letters]))
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPO_PREFIX_CAP", str(cap))
        fp = FixedPointPrefix(sub)
    lengths = sorted(data.draw(st.lists(st.integers(1, cap), min_size=1, max_size=4)))
    for n in lengths + [cap]:
        before = len(fp)
        assert fp.prefix(n).letters == letterwise_fixed_point(sub, n)
        assert len(fp) <= max(before, n + longest)
        assert fp.letter(n - 1) == letterwise_fixed_point(sub, n)[-1]
    with pytest.raises(ResourceLimitError):
        fp.ensure(cap + 1)
    assert len(fp) <= max(len(sub.image(sub.start)), cap + longest)


def prefix_factors(sub, n, length):
    """Oracle: the distinct windows of ``length`` letters of the first ``n``
    letters of the fixed point, sliced one by one."""
    text = fixed_point_prefix(sub, n).scan_text
    return {text[i : i + length] for i in range(len(text) - length + 1)}


@settings(max_examples=100, deadline=None)
@given(primitive_substitutions(), st.integers(1, 12), st.integers(1, 3000))
def test_language_holds_every_prefix_factor_and_no_other(sub, n, short):
    """The factors of any prefix lie in the language, and those of a prefix
    that holds every factor (at least 20 000 letters) are all of it; each
    length is computed once and kept."""
    found = language(sub, n)
    assert language(sub, n) is found
    assert prefix_factors(sub, short, n) <= found
    assert prefix_factors(sub, max(20_000, len(covering_prefix(sub, n))), n) == found


@settings(max_examples=100, deadline=None)
@given(primitive_substitutions(), st.integers(1, 16))
def test_language_matches_the_power_construction(sub, n):
    assert language(sub, n) == power_language(sub, n)


def test_language_refuses_what_the_fixed_point_refuses():
    """The language is read from x[:n], so a start image of one letter and a
    length past the buffer cap are refused as fixed_point_prefix refuses them."""
    single = substitution_from_strings("a b", {"a": "a", "b": "ab"}, "a")
    with pytest.raises(GenerationError):
        language(single, 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPO_PREFIX_CAP", "5")
        capped = substitution_from_strings("0 1", {"0": "01", "1": "0"}, "0")
        with pytest.raises(ResourceLimitError):
            language(capped, 6)
        assert len(language(capped, 5)) == 6


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


def _named_alphabet(name: str, size: int) -> Alphabet:
    return Alphabet(tuple(f"{name}{i}" for i in range(size)))


@st.composite
def morphism_chains(draw, source: Alphabet, target: Alphabet):
    """1-3 composable morphisms from ``source`` to ``target``, last applied
    first, through middle alphabets of 1-4 letters, with images of 0-4 letters."""
    length = draw(st.integers(1, 3))
    middles = [_named_alphabet(f"m{i}", draw(st.integers(1, 4))) for i in range(length - 1)]
    alphabets = [target, *middles, source]
    chain = []
    for f_target, f_source in zip(alphabets, alphabets[1:]):
        images = [
            draw(st.lists(st.integers(0, f_target.size - 1), max_size=4))
            for _ in range(f_source.size)
        ]
        chain.append(Morphism(f_source, f_target, tuple(Word(f_target, tuple(im)) for im in images)))
    return tuple(chain)


def _tampered(chain, data):
    """The chain with one image of one morphism redrawn."""
    i = data.draw(st.integers(0, len(chain) - 1))
    m = chain[i]
    b = data.draw(st.integers(0, m.source.size - 1))
    image = Word(m.target, tuple(data.draw(st.lists(st.integers(0, m.target.size - 1), max_size=4))))
    images = m.images[:b] + (image,) + m.images[b + 1 :]
    return chain[:i] + (Morphism(m.source, m.target, images),) + chain[i + 1 :]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_first_mismatch_is_the_first_letter_the_composed_morphisms_differ_on(
    source_size, target_size, data
):
    """Against ``functools.reduce(compose, chain)``: the right side is a
    fresh chain, the left one, or the left one's composite, each possibly
    with one image redrawn."""
    source, target = _named_alphabet("s", source_size), _named_alphabet("t", target_size)
    left = data.draw(morphism_chains(source, target))
    composed = functools.reduce(compose, left)
    kind = data.draw(st.sampled_from(("fresh", "same", "composite")))
    right = {"same": left, "composite": (composed,)}.get(kind) or data.draw(
        morphism_chains(source, target)
    )
    if data.draw(st.booleans()):
        right = _tampered(right, data)
    oracle = functools.reduce(compose, right)
    expected = next((b for b in range(source.size) if composed.image(b) != oracle.image(b)), None)
    assert first_mismatch(left, right) == expected
    assert first_mismatch(right, left) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.data())
def test_first_mismatch_refuses_what_compose_refuses(source_size, target_size, other_end, data):
    """Composites over different source or target alphabets are refused, and
    so is a sequence that ``compose`` could not fold."""
    source, target = _named_alphabet("s", source_size), _named_alphabet("t", target_size)
    left = data.draw(morphism_chains(source, target))
    other = _named_alphabet("o", data.draw(st.integers(1, 4)))
    right = data.draw(
        morphism_chains(other, target) if other_end else morphism_chains(source, other)
    )
    with pytest.raises(ValueError):
        first_mismatch(left, right)
    if len(left) > 1:
        # the appended chain maps into ``other``, which no morphism of ``left`` reads
        broken = left[:-1] + data.draw(morphism_chains(source, other))
        with pytest.raises(ValueError):
            functools.reduce(compose, broken)
        with pytest.raises(ValueError):
            first_mismatch(broken, broken)


@settings(max_examples=100, deadline=None)
@given(primitive_substitutions(), st.integers(0, 6))
def test_power_lengths_are_the_composed_image_lengths(sub, n):
    assert power_lengths(sub, n) == [
        tuple(len(w) for w in power(sub, e).images) for e in range(1, n + 1)
    ]


@settings(max_examples=100, deadline=None)
@given(primitive_substitutions(min_letters=2, max_letters=5), st.integers(1, 6))
def test_power_matrix_is_the_matrix_power_and_the_powers_matrix(sub, n):
    """The Parikh recurrence gives the dense matrix power and the incidence
    matrix of the composed power; its column sums are the image lengths."""
    assert power_matrix(sub, n) == sub.matrix() ** n == power(sub, n).matrix()
    assert power_matrix(sub, n).column_sums() == power_lengths(sub, n)[-1]
    assert power_matrix(sub, 0) == identity_matrix(sub.alphabet.size)
    with pytest.raises(ValueError):
        power_matrix(sub, -1)


def test_power_past_the_cap_is_refused_before_composing(monkeypatch):
    """Fibonacci's cube has images of 5 and 3 letters: 8 in all."""
    fib = substitution_from_strings("0 1", {"0": "01", "1": "0"}, "0")
    monkeypatch.setenv("REPO_PREFIX_CAP", "7")
    assert power(fib, 2).images == (fib.alphabet.word("010"), fib.alphabet.word("01"))
    with pytest.raises(ResourceLimitError, match="REPO_PREFIX_CAP") as refused:
        power(fib, 3)
    assert refused.value.budget == 7
    assert 3 not in fib._powers
    monkeypatch.setenv("REPO_PREFIX_CAP", "8")
    assert [len(w) for w in power(fib, 3).images] == [5, 3]


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
        derivation_tower(square)
        power(derivation_tower(sub).levels[0].substitution, 3)
        del sub, square
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
