"""Morphism and matrix relations between a substitution and its return substitutions.

For prefixes u, v of the fixed point with |u| < |v|, two bridge morphisms tie
the return substitutions together: one rewrites return words on v over those
on u, the other pushes iterated images of return words on u onto return words
on v.  Their compositions are exact powers of the return substitutions, which
is what transfers eigenvalues.  The same decomposition idea at the matrix
level splits powers of the incidence matrix along the coding matrix with
uniformly bounded residuals, for a span of exponents at once: the least
exponent, the coding matrix and the residual bounds depend on u alone.
Every identity between composed morphisms is decided letter by letter by
:func:`~retword.substitution.first_mismatch`, which composes no morphism.

The second half of the module handles substitutions that equal their own
return substitution on some prefix: for these, iterated codings commute with
powers of the substitution through a single bridging morphism, and two
substitutions sharing a fixed point admit a common prefix on which powers of
their return substitutions coincide exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .checks import Check
from .errors import (
    DecompositionError,
    InternalInconsistencyError,
    ResourceLimitError,
    require_nonnegative,
)
from .returns import (
    ReturnSystem,
    _chunk_positions,
    _tower_level,
    decompose,
    estimate_constants,
    nonperiodic_check,
    return_substitution,
)
from .spectrum import exponent_pairs, spectra_equal_mod_trivial
from .substitution import (
    IncidenceMatrix,
    Morphism,
    Substitution,
    commute,
    first_mismatch,
    fixed_point_generator,
    fixed_point_prefix,
    incidence_matrix,
    morphic_image_prefix,
    power,
    power_lengths,
    power_matrix,
    require_coding,
)
from .words import Word, _word, find_all, same_symbols, spelling

EXPONENT_BUDGET = 64  # the largest power of tau any exponent search here tries


def _check_prefix_pair(tau: Substitution, u: Word, v: Word) -> None:
    if not (1 <= len(u) < len(v)):
        raise ValueError("need non-empty prefixes with |u| < |v|")
    host = fixed_point_prefix(tau, len(v))
    if not host.startswith(u) or host.scan_text != v.scan_text:
        raise ValueError("u and v must both be prefixes of the fixed point")


def lambda_morphism(tau: Substitution, u: Word, v: Word) -> Morphism:
    """The morphism rewriting each return word on v over the return words on u.

    Exists because u is a prefix of v, so every return word on v is a
    concatenation of return words on u; a decomposition failure here means a
    broken invariant upstream, not bad input.
    """
    _check_prefix_pair(tau, u, v)
    sys_u, _ = return_substitution(tau, u)
    sys_v, _ = return_substitution(tau, v)
    try:
        images = tuple(decompose(sys_u, sys_v.word_for(b)) for b in range(sys_v.count))
    except DecompositionError as exc:
        raise InternalInconsistencyError(
            f"a return word on v failed to split over return words on u: {exc}"
        ) from exc
    return Morphism(sys_v.return_alphabet, sys_u.return_alphabet, images)


def _least_exponent(tau: Substitution, start: int, test, refusal: str):
    """The least k >= start whose power tau^k passes ``test``, with the
    test's value there; past ``EXPONENT_BUDGET``, read at call time,
    ``ResourceLimitError`` says that no exponent up to it ``refusal``."""
    budget = EXPONENT_BUDGET
    for k in range(start, budget + 1):
        value = test(power(tau, k))
        if value:
            return k, value
    raise ResourceLimitError(f"no exponent <= {budget} {refusal}", budget=budget)


def kappa_morphism(tau: Substitution, u: Word, v: Word) -> tuple[int, Morphism]:
    """Least exponent k and the morphism with coding_v ∘ kappa = tau^k ∘ coding_u.

    k is the first exponent for which the k-th image of u outgrows v.  Every
    k-th image of a return word r on u then splits over the return words on
    v: tau^k(u) is a prefix of the fixed point longer than v, so it begins
    with v, and tau^k(r·u) is a factor of the fixed point, so tau^k(r)·v is
    one that begins and ends with v.  A decomposition failure here means a
    broken invariant upstream, not bad input.
    """
    _check_prefix_pair(tau, u, v)
    sys_u, _ = return_substitution(tau, u)
    sys_v, _ = return_substitution(tau, v)
    k, _ = _least_exponent(tau, 1, lambda tau_k: len(tau_k(u)) > len(v), "outgrows v")
    tau_k = power(tau, k)
    try:
        images = tuple(decompose(sys_v, tau_k(sys_u.word_for(b))) for b in range(sys_u.count))
    except DecompositionError as exc:
        raise InternalInconsistencyError(
            f"no split of the images of tau^{k} over the return words on v: {exc}"
        ) from exc
    return k, Morphism(sys_u.return_alphabet, sys_v.return_alphabet, images)


@dataclass(frozen=True)
class RelationReport:
    """The bridge morphisms between two return substitutions, with their identities.

    A passing report certifies, letter by letter as exact word equalities:
    tau_v ∘ kappa = kappa ∘ tau_u, tau_u ∘ lambda = lambda ∘ tau_v,
    kappa ∘ lambda = tau_v^k and lambda ∘ kappa = tau_u^k.  A failed
    identity's ``detail`` names the first offending letter.
    """

    u: Word
    v: Word
    k: int
    lam: Morphism
    kappa: Morphism
    tau_u: Substitution
    tau_v: Substitution
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_propprec(tau: Substitution, u: Word, v: Word) -> RelationReport:
    """Build both bridge morphisms and check all four intertwining identities,
    each by :func:`first_mismatch`."""
    _, tau_u = return_substitution(tau, u)
    _, tau_v = return_substitution(tau, v)
    lam = lambda_morphism(tau, u, v)
    k, kap = kappa_morphism(tau, u, v)
    identities = (
        ("tau_v∘kappa=kappa∘tau_u", (tau_v.morphism, kap), (kap, tau_u.morphism)),
        ("tau_u∘lambda=lambda∘tau_v", (tau_u.morphism, lam), (lam, tau_v.morphism)),
        ("kappa∘lambda=tau_v^k", (kap, lam), (power(tau_v, k).morphism,)),
        ("lambda∘kappa=tau_u^k", (lam, kap), (power(tau_u, k).morphism,)),
    )
    checks = []
    for name, left, right in identities:
        bad = first_mismatch(left, right)
        detail = None if bad is None else left[-1].source.symbol(bad)
        checks.append(Check.of(name, bad is None, detail))
    return RelationReport(u, v, k, lam, kap, tau_u, tau_v, tuple(checks))


def two_occurrence_exponent(tau: Substitution, u: Word) -> int:
    """Least n such that every n-th image of a letter contains u at least twice."""
    twice = lambda tau_n: all(len(find_all(w.scan_text, u.scan_text)) >= 2 for w in tau_n.images)
    return _least_exponent(tau, 1, twice, "gives two occurrences")[0]


@dataclass(frozen=True)
class MatrixDecomposition:
    """Exact split of matrix powers along the coding matrix.

    With M the incidence matrix, C the coding matrix of the return words on u
    and K counting occurrences of each extended return word in the extended
    images, the residuals Q = M^l - C K and P = M_u^l - K C are exact; Q is
    non-negative with entries below (h2+2)|u| and P's entries stay within
    2(h2+1)h2|u|/h1 for the sampled constants.
    """

    l: int
    k_matrix: IncidenceMatrix
    q_matrix: IncidenceMatrix
    p_matrix: IncidenceMatrix
    q_bound: Fraction
    p_bound: Fraction

    @property
    def q_nonnegative(self) -> bool:
        return self.q_matrix.is_nonnegative

    @property
    def q_within_bound(self) -> bool:
        return max(map(max, self.q_matrix.rows)) < self.q_bound

    @property
    def p_within_bound(self) -> bool:
        return max(max(map(abs, row)) for row in self.p_matrix.rows) <= self.p_bound


def matrix_decomposition(
    tau: Substitution, u: Word, span: int
) -> tuple[int, tuple[MatrixDecomposition, ...]]:
    """The two-occurrence exponent n0 and the splits of M^l and M_u^l along
    the coding matrix of the return words on u, for l = n0 .. n0+span-1.

    The counting matrix K has entry (c, b) equal to the number of occurrences
    of (return word c)·u inside tau^l(b)·u; it needs every l-th image to show
    u at least twice, so l starts at the two-occurrence exponent.  The word
    (return word c)·u holds u only at its two ends, so its occurrences are
    the pairs of successive occurrences of u in tau^l(b)·u with return word
    c between them: column b of K counts the chunks cut at the occurrences
    of u.  M_u^l is read off the images of tau_u by :func:`power_matrix`.
    n0, the coding matrix and the sampled constants depend on u alone and
    are formed once; a span of 0 returns n0 with no constants estimated.
    """
    n0 = two_occurrence_exponent(tau, u)
    if span == 0:
        return n0, ()
    sys_u, tau_u = return_substitution(tau, u)
    constants = estimate_constants(tau, list(range(1, max(8, len(u)) + 1)))
    index = {rw.scan_text: c for c, rw in enumerate(sys_u.return_words)}
    coding_matrix = incidence_matrix(sys_u.coding())
    q_bound = (constants.h2 + 2) * len(u)
    p_bound = Fraction(2) * (constants.h2 + 1) * constants.h2 * len(u) / constants.h1
    splits = []
    for l in range(n0, n0 + span):
        tau_l = power(tau, l)
        k_columns = []
        for image in tau_l.images:
            text = image.scan_text
            cuts = _chunk_positions(text, u.scan_text)
            column = [0] * sys_u.count
            for a, z in zip(cuts, cuts[1:]):
                c = index.get(text[a:z])
                if c is not None:
                    column[c] += 1
            k_columns.append(column)
        k_matrix = IncidenceMatrix(zip(*k_columns))
        q_matrix = tau_l.matrix() - coding_matrix @ k_matrix
        p_matrix = power_matrix(tau_u, l) - k_matrix @ coding_matrix
        splits.append(MatrixDecomposition(l, k_matrix, q_matrix, p_matrix, q_bound, p_bound))
    return n0, tuple(splits)


def eigenvalue_transfer_check(tau: Substitution, u: Word) -> bool:
    """Same eigenvalues for the substitution and its return substitution on u,
    up to zeros and roots of unity."""
    _, tau_u = return_substitution(tau, u)
    return spectra_equal_mod_trivial(tau.matrix(), tau_u.matrix())


@dataclass(frozen=True)
class SteponeHypotheses:
    """The four preconditions of the commuting-coding construction, with evidence.

    1. every image starts with the start letter (which must be letter 1);
    2. the return substitution on u is identical to the substitution itself;
    3. the fixed point is non-periodic, decided exactly from the derivation
       tower (``nonperiodic_depth`` is the deciding tower depth, None when
       the fixed point is periodic);
    4. every letter occurs in every return word on u, making the coding
       primitive as a substitution.
    """

    prefix: Word
    images_start_with_one: bool
    self_derived: bool
    nonperiodic_depth: int | None
    coding_mixing: bool
    detail: str = ""

    @property
    def nonperiodic(self) -> bool:
        return self.nonperiodic_depth is not None

    @property
    def all_hold(self) -> bool:
        return (
            self.images_start_with_one
            and self.self_derived
            and self.nonperiodic
            and self.coding_mixing
        )


def equals_own_return_substitution(tau: Substitution, tau_u: Substitution) -> bool:
    """Whether the return substitution tau_u is tau with its letters renamed in
    order: tau starts at its first letter, as every return substitution does,
    and both send each letter index to the same indices.  Equal spellings hold
    as many images, so there are as many return words as letters of tau."""
    return tau.start == 0 and spelling(tau_u.images) == spelling(tau.images)


def check_stepone_hypotheses(tau: Substitution, u: Word) -> SteponeHypotheses:
    h1 = tau.start == 0 and all(w[0] == tau.start for w in tau.images)
    sys_u, tau_u = return_substitution(tau, u)
    h2 = equals_own_return_substitution(tau, tau_u)
    try:
        depth = nonperiodic_check(tau)
    except ValueError:
        depth = None
    h4 = all(len(set(rw)) == tau.alphabet.size for rw in sys_u.return_words)
    detail = f"{sys_u.count} return words on {u.text()!r}"
    return SteponeHypotheses(u, h1, h2, depth, h4, detail)


def coding_substitution(system: ReturnSystem) -> Substitution:
    """Read the coding of a self-derived system as a substitution on the base alphabet.

    Requires as many return words as base letters; return letter i is
    identified with base letter i, and the first return word starts with the
    start letter, so the result is a genuine substitution.
    """
    base = system.prefix.alphabet
    if system.count != base.size:
        raise ValueError("coding is a substitution only when the alphabets match")
    return Substitution(Morphism(base, base, system.return_words), system.return_words[0][0])


@dataclass(frozen=True)
class SteponeResult:
    """Outcome of the search for a morphism commuting with iterated codings.

    For each exponent p in ``exponents`` (the largest group with a common
    bridging morphism gamma), l_p is the deepest nested-coding prefix fitting
    inside the (p-1)-st image of the start letter, and
    coding^l_p ∘ gamma = gamma ∘ coding^l_p = tau^p holds exactly.
    """

    hypotheses: SteponeHypotheses
    k0: int
    exponents: tuple[int, ...]
    l_values: tuple[int, ...]
    gamma: Morphism | None
    identities_verified: bool
    max_gamma_image: int

    @property
    def conclusive(self) -> bool:
        return len(self.exponents) >= 2 and self.identities_verified


def find_gamma(tau: Substitution, u: Word, p_max: int = 9) -> SteponeResult:
    """Search exponents whose images decompose over nested codings the same way.

    For each admissible exponent p the images of tau^p split over the return
    words on the nested prefix w_{l_p}; the split defines a candidate
    morphism gamma_p.  Image lengths of gamma_p are bounded independently of
    p, so equal candidates must repeat; the largest group, the first opened
    among equals, is returned with its commuting identities verified exactly.
    """
    hyp = check_stepone_hypotheses(tau, u)
    if not hyp.all_hold:
        raise ValueError(f"stepone hypotheses fail for prefix {u.text()!r}")
    sys_u, _ = return_substitution(tau, u)
    theta = coding_substitution(sys_u)

    starts = lambda tau_k: all(w.startswith(u) for w in tau_k.images)
    k0, _ = _least_exponent(tau, 1, starts, "makes u a prefix of every image")

    # nested prefixes w_1 = u, w_{n+1} = theta^n(u) · w_n; each target extends
    # the last and starts with u (p > k0), so all w_n kept are prefixes of it
    nested: list[Word] = [u]

    candidates: dict[tuple, list[tuple[int, int, Morphism]]] = {}
    for p in range(k0 + 1, p_max + 1):
        target = power(tau, p - 1).image(tau.start)
        while target.startswith(w_next := power(theta, len(nested))(u) + nested[-1]):
            nested.append(w_next)
        l_p = len(nested)
        sys_w, _ = return_substitution(tau, nested[-1])
        if sys_w.count != tau.alphabet.size:
            raise InternalInconsistencyError("nested coding lost letters")
        tau_p = power(tau, p)
        gamma_images = tuple(
            _word(tau.alphabet, decompose(sys_w, tau_p.image(b)).scan_text)
            for b in range(tau.alphabet.size)
        )
        gamma_p = Morphism(tau.alphabet, tau.alphabet, gamma_images)
        candidates.setdefault(spelling(gamma_images), []).append((p, l_p, gamma_p))

    best = max(candidates.values(), key=len, default=[])
    exponents, l_values = tuple(p for p, _, _ in best), tuple(l for _, l, _ in best)
    if len(best) < 2:
        return SteponeResult(hyp, k0, exponents, l_values, None, False, 0)

    gamma = best[0][2]
    verified = True
    for p, l_p, _ in best:
        theta_l, tau_p = power(theta, l_p).morphism, (power(tau, p).morphism,)
        for left in ((theta_l, gamma), (gamma, theta_l)):
            if first_mismatch(left, tau_p) is not None:
                verified = False
    return SteponeResult(hyp, k0, exponents, l_values, gamma, verified, max(len(w) for w in gamma.images))


def coded_fixed_points_agree(
    tau: Substitution, tau_coding: Morphism, sigma: Substitution, sigma_coding: Morphism, n: int
) -> bool:
    """Whether the letter-to-letter codings of the two fixed points spell the
    same first n display symbols.

    The refusals of :func:`retword.substitution.morphic_image_prefix` come
    first, τ's side and then σ's, in its order.  When the codings give the
    same display symbol for every letter, the substitutions share their
    start letter a and they commute within n composed letters (decided by
    :func:`commute`), the fixed points are equal, and so are their codings:
    no prefix is generated.  For σ∘τ = τ∘σ gives σ(x_τ) = σ(τ(x_τ)) =
    τ(σ(x_τ)), so σ(x_τ) is a fixed point of τ; it begins with σ(a), which
    begins with a.  Images are non-empty and |τ(a)| >= 2, so τ^n(a) grows
    without bound and τ has one fixed point beginning with a: σ(x_τ) = x_τ.
    So x_τ is a fixed point of σ beginning with a, and by the same argument
    for σ, x_σ = x_τ.  Every other pair compares the two coded prefixes.
    """
    for coding, sub in ((tau_coding, tau), (sigma_coding, sigma)):
        require_coding(coding, sub)
        fixed_point_generator(sub, n)
    same_display = [w.symbols() for w in tau_coding.images] == [w.symbols() for w in sigma_coding.images]
    if same_display and tau.start == sigma.start and commute(tau.morphism, sigma.morphism, n):
        return True
    return same_symbols(morphic_image_prefix(tau_coding, tau, n), morphic_image_prefix(sigma_coding, sigma, n))


def power_coincidence(tau: Substitution, sigma: Substitution, bound: int = 6) -> tuple[int, int] | None:
    """Least exponents (i, j) in ``exponent_pairs`` order whose matrix powers
    carry the same spectrum up to zeros and roots of unity; None means no pair
    up to the bound.  The powers' characteristic polynomials come from the
    matrices' own, with no matrix power formed.  A negative bound is refused.
    The search reads the two incidence matrices only, so it claims nothing
    about the fixed points: :func:`shared_fixed_point_analysis` decides
    whether they are equal."""
    require_nonnegative("exponent bound", bound)
    m1, m2 = tau.matrix(), sigma.matrix()
    for i, j in exponent_pairs(bound):
        if spectra_equal_mod_trivial(m1, m2, i, j):
            return (i, j)
    return None


@dataclass(frozen=True)
class SharedWitness:
    """A prefix and exponents on which the two return substitutions' powers agree."""

    prefix: Word
    i: int
    j: int
    tower_level: int


def shared_fixed_point_analysis(
    tau: Substitution, sigma: Substitution, budget: int = 6
) -> SharedWitness | None:
    """Find a prefix u and exponents with tau_u^i = sigma_u^j exactly.

    Walks the towers of tau and sigma, both cached, in lockstep; at level k,
    once the return systems agree, both return substitutions live on one
    return alphabet and equal powers are one :func:`first_mismatch` call,
    made only for equal :func:`power_lengths`.  Returns the first witness in
    (level, i+j, i) order, its prefix u_k read off tau's fixed point, or None
    at the first level whose pair (tau_{u_k}, sigma_{u_k}) repeats an earlier
    pair.  Powers past the buffer cap raise ``ResourceLimitError``; a
    negative budget is refused.

    Why it decides: level 1 holds the return words on the first letter, and
    level k+1 those of level k on its letter 0 (see
    :func:`~retword.returns.nonperiodic_check`), so equal systems up to level
    k are equal return words on u_k, and the next pair and its comparison
    are functions of the current pair.  Past a repeated pair every level
    repeats an earlier one, and no new witness can appear; the pairs take
    finitely many values (Durand, Discrete Math. 179, 1998), so the walk
    ends.  It also decides equality of the fixed points with no prefix
    compared: a witness makes both derived sequences the fixed point of the
    common power on letter 0, decoded through the common coding, and a
    repeat leaves the fixed points agreeing on prefixes u_k of unbounded
    length.  Different fixed points show different return words (or
    different first letters) at a level before any repeat, and the
    ``ValueError`` names it.  Different alphabets and a periodic tau are
    refused first, and a non-primitive side by its first level.
    """
    require_nonnegative("exponent budget", budget)
    if tau.alphabet != sigma.alphabet:
        raise ValueError("substitutions are over different alphabets")
    nonperiodic_check(tau)

    seen = set()
    for level in count(1):
        left, right = _tower_level(tau, level), _tower_level(sigma, level)
        if left.system != right.system:
            raise ValueError(
                f"fixed points differ: the return words on the prefix of length "
                f"{left.prefix_length} differ at tower level {level}"
            )
        tau_u, sigma_u = left.substitution, right.substitution
        if (tau_u, sigma_u) in seen:
            return None
        seen.add((tau_u, sigma_u))
        lengths_t, lengths_s = power_lengths(tau_u, budget), power_lengths(sigma_u, budget)
        for i, j in exponent_pairs(budget):
            if lengths_t[i - 1] != lengths_s[j - 1]:
                continue
            if first_mismatch((power(tau_u, i).morphism,), (power(sigma_u, j).morphism,)) is None:
                return SharedWitness(fixed_point_prefix(tau, left.prefix_length), i, j, level)
