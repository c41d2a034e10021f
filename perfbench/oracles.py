"""The benchmark's own oracles, one per job kind.

``expect_*`` computes, from the generated input alone, what a job must
answer; it runs while the inputs are generated and its result travels with
the job.  ``check`` compares one report of ``retword --json`` with that
expectation and returns ``None`` or the reason for rejecting it.  Reports
are compared on their verdicts and values, never byte for byte, and every
job must exit with code 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

import naive
from naive import Sub, fingerprint

SKIPPED = "skipped"


def parse_sample(text: str) -> Sub:
    """Read the alphabet, start letter and images of a substitution file."""
    letters, start, images = "", "", {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("alphabet"):
            letters = "".join(line.partition("=")[2].split())
        elif line.startswith("start"):
            start = line.partition("=")[2].strip()
        elif "->" in line and not line.startswith("coding"):
            lhs, _, rhs = line.partition("->")
            images[lhs.strip()] = "".join(rhs.split())
    return Sub(letters, tuple(images[c] for c in letters), start)


def _return_symbols(letters: list[int], count: int) -> str:
    """Derived letters as the CLI prints them: return letter i is the symbol i+1."""
    symbols = [str(i + 1) for i in letters]
    return ("" if count <= 9 else " ").join(symbols)


# -- expectations --------------------------------------------------------


def expect_fixed_point(sub: Sub, n: int) -> dict:
    return {"prefix": fingerprint(naive.fixed_point(sub, n))}


def expect_return_words(sub: Sub, u: str) -> dict:
    """Return words seen in a long host; late ones may be missing from it."""
    host = naive.fixed_point(sub, max(1 << 20, 64 * len(u)))
    return {"words": sorted(fingerprint(w) for w in naive.scan_returns(host, u))}


def expect_derived(data: naive.ReturnData, n: int) -> dict:
    letters = naive.derived_sequence(data, n)
    return {"derived": fingerprint(_return_symbols(letters, len(data.words)))}


def expect_spectrum(sub: Sub) -> dict:
    """Characteristic polynomial from sympy, ascending coefficients; None without sympy."""
    try:
        import sympy
    except ImportError:
        return {"coeffs": None}
    x = sympy.Symbol("x")
    poly = sympy.Matrix(sub.matrix()).charpoly(x)
    return {"coeffs": [int(c) for c in reversed(poly.all_coeffs())]}


def expect_cobham(a: int, b: int) -> dict:
    """tau^a against tau^b: alpha^m = beta^n means a*m = b*n, least at m = b/g, n = a/g."""
    g = math.gcd(a, b)
    return {"m": b // g, "n": a // g}


def presentation_exponent(sub: Sub, p: int) -> int:
    """Least k with M^k entrywise positive and every image of tau^k longer than p."""
    m = sub.matrix()
    k, mk = 1, m
    while not (all(e > 0 for row in mk for e in row) and all(sum(col) > p for col in zip(*mk))):
        k, mk = k + 1, naive.mat_mul(mk, m)
    return k


def expect_periodic(sub: Sub, period: str, check_len: int) -> dict:
    """Build the product substitution on (letter, position) pairs and read its
    coded fixed point; it must spell period^omega."""
    p = len(period)
    k = presentation_exponent(sub, p)
    rho = sub.power(k)
    size = len(sub.letters)

    def pair(b: int, i: int) -> str:
        return chr(0x100 + b * p + i)

    def psi(word: str) -> str:
        return "".join(pair(sub.letters.index(c), i) for c in word for i in range(p))

    table, coding = {}, {}
    for b in range(size):
        image = rho.images[b]
        for i in range(p):
            table[ord(pair(b, i))] = psi(image[i]) if i < p - 1 else psi(image[p - 1 :])
            coding[ord(pair(b, i))] = period[i]
    word = pair(sub.letters.index(sub.start), 0)
    while len(word) < check_len:
        word = word.translate(table)
    coded = word[:check_len].translate(coding)
    if coded != (period * (check_len // p + 1))[:check_len]:
        raise AssertionError("the product substitution does not code period^omega")
    return {"exponent": k, "product_size": size * p}


def expect_tower(sub: Sub, depth: int) -> dict | None:
    """Levels u_1 = first letter, u_{k+1} = (first return word on u_k) u_k, until
    two levels have the same return substitution; None if none repeats."""
    u = naive.fixed_point(sub, 1)
    levels, seen = [], {}
    for k in range(1, depth + 1):
        data = naive.returns(sub, u)
        levels.append([k, len(u), len(data.words)])
        if data.images in seen:
            return {"levels": levels, "repetition": [seen[data.images], k]}
        seen[data.images] = k
        u = data.words[0] + u
    return None


def _kappa_exponent(sub: Sub, u: str, v: str, budget: int = 64) -> int | None:
    k, image = 1, sub.apply(u)
    while len(image) <= len(v):
        image, k = sub.apply(image), k + 1
        if k > budget:
            return None
    words_u = naive.returns(sub, u).words
    index_v = {w: i for i, w in enumerate(naive.returns(sub, v).words)}
    for k in range(k, budget + 1):
        if all(naive.split_on(sub.apply(w, k), v, index_v) is not None for w in words_u):
            return k
    return None


def _two_occurrence_exponent(sub: Sub, u: str, budget: int = 64) -> int | None:
    images = list(sub.images)
    for n in range(1, budget + 1):
        if all(len(naive.occurrences(w, u)) >= 2 for w in images):
            return n
        images = [sub.apply(w) for w in images]
    return None


def _matrix_split(sub: Sub, u: str, l: int, h1: Fraction, h2: Fraction) -> tuple[bool, bool]:
    """(Q >= 0, Q and P within their bounds) for M^l = C K + Q, M_u^l = K C + P."""
    data = naive.returns(sub, u)
    words = data.words
    tau_l = sub.power(l)
    k_mat = [
        [len(naive.occurrences(img + u, w + u)) for img in tau_l.images] for w in words
    ]
    c_mat = [[w.count(a) for w in words] for a in sub.letters]
    m_u = [[img.count(i) for img in data.images] for i in range(len(words))]
    q = [
        [a - b for a, b in zip(r1, r2)]
        for r1, r2 in zip(tau_l.matrix(), naive.mat_mul(c_mat, k_mat))
    ]
    pm = [
        [a - b for a, b in zip(r1, r2)]
        for r1, r2 in zip(naive.mat_pow(m_u, l), naive.mat_mul(k_mat, c_mat))
    ]
    q_bound = (h2 + 2) * len(u)
    p_bound = 2 * (h2 + 1) * h2 * len(u) / h1
    nonneg = all(e >= 0 for row in q for e in row)
    within = all(e < q_bound for row in q for e in row) and all(abs(e) <= p_bound for row in pm for e in row)
    return nonneg, within


def expect_relations(sub: Sub, u: str, v: str, span: int) -> dict | None:
    """The bridge identities hold by construction; the exponents and the
    matrix-split outcomes are recomputed here.  None when a search of the
    command would run out of budget or a matrix check would fail."""
    k = _kappa_exponent(sub, u, v)
    n0 = _two_occurrence_exponent(sub, u)
    if k is None or n0 is None:
        return None
    lengths = sorted(set(range(1, max(8, len(u)) + 1)) | {len(u)})
    h1, h2 = naive.ratio_bounds(sub, lengths)
    splits = {}
    for l in range(n0, n0 + span):
        nonneg, within = _matrix_split(sub, u, l, h1, h2)
        splits[f"matrix-split-nonnegative-Q(l={l})"] = nonneg
        splits[f"matrix-split-bounds(l={l})"] = within
    if not all(splits.values()):
        return None
    return {"k": k, "n0": n0, "splits": sorted(splits)}


def expect_shared(sub: Sub) -> dict:
    """tau against tau^2: the spectra first agree at (i, j) = (2, 1), and on the
    first letter the return substitutions satisfy tau_u^2 = (tau^2)_u."""
    return {"pair": [2, 1], "witness": {"prefix": sub.start, "i": 2, "j": 1}}


def _factors(word, max_len: int) -> set:
    return {word[i : i + n] for n in range(1, max_len + 1) for i in range(len(word) - n + 1)}


def _injectivity_prefix(sub: Sub, length_bound=30, max_prefix=200, sample=1000) -> int | None:
    """Least n such that the substitution is one-to-one on words of length <=
    length_bound decoded from derived factors on the prefix of length n, and
    the return substitution is one-to-one on its own factors.

    Raises ValueError when a return substitution on the way cannot generate
    its fixed point, which the command reports as an error.
    """
    x = naive.fixed_point(sub, max_prefix)
    for n in range(1, max_prefix + 1):
        data = naive.returns(sub, x[:n])
        derived = tuple(naive.derived_sequence(data, sample))
        max_derived = length_bound // min(len(w) for w in data.words)
        seen: dict[str, str] = {}
        ok = True
        for letters in sorted(_factors(derived, max_derived)):
            word = "".join(data.words[i] for i in letters)
            if len(word) > length_bound:
                continue
            if seen.setdefault(sub.apply(word), word) != word:
                ok = False
                break
        if not ok:
            continue
        images: dict[tuple, tuple] = {}
        if all(
            images.setdefault(sum((data.images[i] for i in f), ()), f) == f
            for f in sorted(_factors(derived, length_bound))
        ):
            return n
    return None


def _sync_delay(sub: Sub, d_max=64, sample_len=10) -> int | None:
    """Largest margin forced by a cut of one interpretation missing from another,
    over every factor of length <= sample_len of a 2000-letter prefix."""
    host = naive.fixed_point(sub, max(50 * sample_len, 2000))
    factors = _factors(host, sample_len) | {""}
    suffixes = {w[i:] for w in sub.images for i in range(len(w) + 1)}
    prefixes = {w[:i] for w in sub.images for i in range(len(w) + 1)}
    required = 0
    for x in factors - {""}:
        interps = set()

        def grow(left: str, pos: int, core: str, cuts: tuple) -> None:
            if x[pos:] in prefixes:
                interps.add((left, core, x[pos:], cuts))
            for c, image in zip(sub.letters, sub.images):
                if x.startswith(image, pos) and core + c in factors:
                    grow(left, pos + len(image), core + c, cuts + ((pos, c),))

        for a in range(len(x) + 1):
            if x[:a] in suffixes:
                grow(x[:a], a, "", ())
        cut_sets = [set(i[3]) for i in interps]
        for a in cut_sets:
            for b in cut_sets:
                for pos, c in a - b:
                    margin = min(pos, len(x) - pos - len(sub.image(c)))
                    required = max(required, margin)
    return required if required <= d_max else None


def expect_circularity(sub: Sub) -> dict | None:
    """Both searches of ``retword circularity`` with its default bounds; None
    when either finds nothing or the command would stop with an error."""
    try:
        n0 = _injectivity_prefix(sub)
    except ValueError:
        return None
    delay = _sync_delay(sub)
    if n0 is None or delay is None:
        return None
    return {"n0": n0, "delay": delay}


# -- checking ------------------------------------------------------------


def _is_return_word(w: str, u: str) -> bool:
    """w·u starts with u, and its next occurrence of u is at |w|."""
    return (w + u).startswith(u) and (w + u).find(u, 1) == len(w)


def _found(report: dict, prefix: str):
    for c in report["checks"]:
        if c["name"].startswith(prefix) and c["outcome"] == "found":
            return c["witness"]
    return None


def _failed_checks(report: dict) -> list[str]:
    return [c["name"] for c in report["checks"] if c["outcome"] not in ("pass", "found")]


def check(job: dict, exit_code: int, report: dict | None) -> str | None:
    """None when the report carries the expected verdict, else the reason.

    Returns ``SKIPPED`` when the oracle itself is unavailable (sympy missing).
    """
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    if not isinstance(report, dict) or "checks" not in report or "data" not in report:
        return "no JSON report"
    bad = _failed_checks(report)
    if bad:
        return f"checks not passed: {bad}"
    kind, want, data = job["kind"], job["expect"], report["data"]
    if kind == "fixed-point":
        return None if data.get("prefix") == want["prefix"] else "fixed-point prefix differs"
    if kind == "return-words":
        u = job["argv"][job["argv"].index("--prefix") + 1]
        got = data.get("return_words", [])
        missing = set(want["words"]) - {fingerprint(w) for w in got}
        if missing:
            return f"{len(missing)} return words of the host missing from the report"
        if data.get("count") != len(got) or not all(_is_return_word(w, u) for w in got):
            return "a reported word is not a return word on the prefix"
        return None
    if kind == "derived":
        return None if data.get("derived_prefix") == want["derived"] else "derived prefix differs"
    if kind == "spectrum":
        if not data.get("primitive", {}).get("value"):
            return "primitive substitution reported non-primitive"
        if want["coeffs"] is None:
            return SKIPPED
        got = data.get("spectrum", {}).get("char_poly_coeffs")
        return None if got == want["coeffs"] else "characteristic polynomial differs from sympy"
    if kind == "periodic":
        if data.get("exponent") != want["exponent"]:
            return f"exponent {data.get('exponent')}, expected {want['exponent']}"
        if data.get("product_alphabet_size") != want["product_size"]:
            return "product alphabet size differs"
        return None
    if kind == "cobham":
        w = _found(report, "multiplicative-dependence")
        if not w or (w.get("m"), w.get("n")) != (want["m"], want["n"]) or w.get("certified") is not True:
            return f"dependence witness {w}, expected m={want['m']}, n={want['n']} certified"
        return None
    if kind == "shared":
        if _found(report, "power-coincidence") != want["pair"]:
            return "power coincidence (2, 1) not found"
        if _found(report, "shared-prefix-power-equality") != want["witness"]:
            return "shared-prefix witness differs"
        return None
    if kind == "tower":
        if data.get("levels") != [dict(zip(("depth", "prefix_length", "return_letters"), lv)) for lv in want["levels"]]:
            return "tower levels differ"
        return None if _found(report, "tower-repetition") == want["repetition"] else "tower repetition differs"
    if kind == "relations":
        if data.get("k") != want["k"] or data.get("two_occurrence_exponent") != want["n0"]:
            return "bridge exponent or two-occurrence exponent differs"
        names = sorted(c["name"] for c in report["checks"] if c["name"].startswith("matrix-split"))
        return None if names == want["splits"] else "matrix-split checks differ"
    if kind == "circularity":
        if _found(report, "injectivity-prefix") != want["n0"]:
            return "injectivity prefix differs"
        return None if _found(report, "synchronization-delay") == want["delay"] else "delay differs"
    return f"no oracle for job kind {kind!r}"
