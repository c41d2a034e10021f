"""Morphism and matrix relations between a substitution and its return substitutions.

For prefixes u, v of the fixed point with |u| < |v|, two bridge morphisms tie
the return substitutions together: one rewrites return words on v over those
on u, the other pushes iterated images of return words on u onto return words
on v.  Their compositions are exact powers of the return substitutions, which
is what transfers eigenvalues.  The same decomposition idea at the matrix
level splits powers of the incidence matrix along the coding matrix with
uniformly bounded residuals.

The second half of the module handles substitutions that equal their own
return substitution on some prefix: for these, iterated codings commute with
powers of the substitution through a single bridging morphism, and two
substitutions sharing a fixed point admit a common prefix on which powers of
their return substitutions coincide exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .checks import Check
from .errors import DecompositionError, InternalInconsistencyError, ResourceLimitError
from .returns import (
    ReturnConstants,
    ReturnSystem,
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
    compose,
    fixed_point_prefix,
    incidence_matrix,
    is_primitive,
    power,
)
from .words import Word, find_all, spelling

KAPPA_BUDGET = 64


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


def kappa_morphism(
    tau: Substitution, u: Word, v: Word, budget: int = KAPPA_BUDGET
) -> tuple[int, Morphism]:
    """Least exponent k and the morphism with coding_v ∘ kappa = tau^k ∘ coding_u.

    k starts at the first exponent for which the k-th image of u outgrows v
    and grows until every k-th image of a return word on u splits over the
    return words on v.
    """
    _check_prefix_pair(tau, u, v)
    sys_u, _ = return_substitution(tau, u)
    sys_v, _ = return_substitution(tau, v)
    k = 1
    while len(power(tau, k)(u)) <= len(v):
        k += 1
        if k > budget:
            raise ResourceLimitError(f"no exponent <= {budget} outgrows v", budget=budget)
    while k <= budget:
        tau_k = power(tau, k)
        try:
            images = tuple(
                decompose(sys_v, tau_k(sys_u.word_for(b))) for b in range(sys_u.count)
            )
        except DecompositionError:
            k += 1
            continue
        return k, Morphism(sys_u.return_alphabet, sys_v.return_alphabet, images)
    raise ResourceLimitError(
        f"no exponent <= {budget} makes all images decomposable", budget=budget
    )


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


def _morphisms_equal_check(name: str, f: Morphism, g: Morphism) -> Check:
    if f.source != g.source or f.target != g.target:
        return Check.of(name, False, "alphabet mismatch")
    for b in range(f.source.size):
        if f.image(b) != g.image(b):
            return Check.of(name, False, f.source.symbol(b))
    return Check.of(name, True)


def verify_propprec(tau: Substitution, u: Word, v: Word) -> RelationReport:
    """Build both bridge morphisms and check all four intertwining identities."""
    sys_u, tau_u = return_substitution(tau, u)
    sys_v, tau_v = return_substitution(tau, v)
    lam = lambda_morphism(tau, u, v)
    k, kap = kappa_morphism(tau, u, v)
    checks = (
        _morphisms_equal_check(
            "tau_v∘kappa=kappa∘tau_u", compose(tau_v.morphism, kap), compose(kap, tau_u.morphism)
        ),
        _morphisms_equal_check(
            "tau_u∘lambda=lambda∘tau_v", compose(tau_u.morphism, lam), compose(lam, tau_v.morphism)
        ),
        _morphisms_equal_check(
            "kappa∘lambda=tau_v^k", compose(kap, lam), power(tau_v, k).morphism
        ),
        _morphisms_equal_check(
            "lambda∘kappa=tau_u^k", compose(lam, kap), power(tau_u, k).morphism
        ),
    )
    return RelationReport(u, v, k, lam, kap, tau_u, tau_v, checks)


def two_occurrence_exponent(tau: Substitution, u: Word, budget: int = 64) -> int:
    """Least n such that every n-th image of a letter contains u at least twice."""
    for n in range(1, budget + 1):
        if all(_count_occurrences(w, u) >= 2 for w in power(tau, n).images):
            return n
    raise ResourceLimitError(f"no exponent <= {budget} gives two occurrences", budget=budget)


def _count_occurrences(host: Word, pattern: Word) -> int:
    return len(find_all(host.scan_text, pattern.scan_text))


@dataclass(frozen=True)
class MatrixDecomposition:
    """Exact split of matrix powers along the coding matrix.

    With M the incidence matrix, C the coding matrix of the return words on u
    and K counting occurrences of each extended return word in the extended
    images, the residuals Q = M^l - C K and P = M_u^l - K C are exact; Q is
    non-negative with entries below (h2+2)|u| and P's entries stay within
    2(h2+1)h2|u|/h1 for the sampled constants.
    """

    u: Word
    l: int
    n0: int
    k_matrix: IncidenceMatrix
    q_matrix: IncidenceMatrix
    p_matrix: IncidenceMatrix
    constants: ReturnConstants
    q_bound: Fraction
    p_bound: Fraction

    @property
    def q_nonnegative(self) -> bool:
        return self.q_matrix.is_nonnegative

    @property
    def q_within_bound(self) -> bool:
        return all(e < self.q_bound for row in self.q_matrix.rows for e in row)

    @property
    def p_within_bound(self) -> bool:
        return all(abs(e) <= self.p_bound for row in self.p_matrix.rows for e in row)


def matrix_decomposition(
    tau: Substitution,
    u: Word,
    l: int,
    constants: ReturnConstants | None = None,
) -> MatrixDecomposition:
    """Split M^l and M_u^l along the coding matrix of the return words on u.

    The counting matrix K has entry (c, b) equal to the number of occurrences
    of (return word c)·u inside tau^l(b)·u; it needs every l-th image to show
    u at least twice, so l must reach the two-occurrence exponent.
    """
    n0 = two_occurrence_exponent(tau, u)
    if l < n0:
        raise ValueError(f"exponent {l} below the two-occurrence exponent {n0}")
    sys_u, tau_u = return_substitution(tau, u)
    if constants is None:
        lengths = sorted(set(range(1, max(8, len(u)) + 1)) | {len(u)})
        constants = estimate_constants(tau, lengths)
    tau_l = power(tau, l)
    k_rows = []
    for c in range(sys_u.count):
        pattern = sys_u.word_for(c) + u
        k_rows.append(
            tuple(_count_occurrences(tau_l.image(b) + u, pattern) for b in range(tau.alphabet.size))
        )
    k_matrix = IncidenceMatrix(k_rows)
    coding_matrix = incidence_matrix(sys_u.coding())
    m_l = tau_l.matrix()
    mu_l = tau_u.matrix() ** l
    q_matrix = m_l - coding_matrix @ k_matrix
    p_matrix = mu_l - k_matrix @ coding_matrix
    q_bound = (constants.h2 + 2) * len(u)
    p_bound = Fraction(2) * (constants.h2 + 1) * constants.h2 * len(u) / constants.h1
    return MatrixDecomposition(
        u=u,
        l=l,
        n0=n0,
        k_matrix=k_matrix,
        q_matrix=q_matrix,
        p_matrix=p_matrix,
        constants=constants,
        q_bound=q_bound,
        p_bound=p_bound,
    )


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


def check_stepone_hypotheses(tau: Substitution, u: Word) -> SteponeHypotheses:
    h1 = tau.start == 0 and all(w[0] == tau.start for w in tau.images)
    sys_u, tau_u = return_substitution(tau, u)
    h2 = (
        sys_u.count == tau.alphabet.size
        and tau.start == 0
        and spelling(tau_u.images) == spelling(tau.images)
    )
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
    searched_to: int
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
    p, so equal candidates must repeat; the largest group is returned with
    its commuting identities verified exactly.
    """
    hyp = check_stepone_hypotheses(tau, u)
    if not hyp.all_hold:
        raise ValueError(f"stepone hypotheses fail for prefix {u.text()!r}")
    sys_u, _ = return_substitution(tau, u)
    theta = coding_substitution(sys_u)

    # least exponent whose images all start with u
    k0 = next(
        (k for k in range(1, 65) if all(w.startswith(u) for w in power(tau, k).images)), None
    )
    if k0 is None:
        raise ResourceLimitError("no exponent <= 64 makes u a prefix of every image", budget=64)

    # nested prefixes w_1 = u, w_{n+1} = theta^n(u) · w_n
    nested: list[Word] = [u]

    candidates: dict[tuple, list[tuple[int, int, Morphism]]] = {}
    for p in range(k0 + 1, p_max + 1):
        target = power(tau, p - 1).image(tau.start)
        while target.startswith(w_next := power(theta, len(nested))(u) + nested[-1]):
            nested.append(w_next)
        l_p = 0
        for idx, w in enumerate(nested, start=1):
            if target.startswith(w):
                l_p = idx
        if l_p == 0:
            continue
        sys_w, _ = return_substitution(tau, nested[l_p - 1])
        if sys_w.count != tau.alphabet.size:
            raise InternalInconsistencyError("nested coding lost letters")
        tau_p = power(tau, p)
        gamma_images = tuple(
            tau.alphabet.from_indices(decompose(sys_w, tau_p.image(b)))
            for b in range(tau.alphabet.size)
        )
        gamma_p = Morphism(tau.alphabet, tau.alphabet, gamma_images)
        candidates.setdefault(spelling(gamma_images), []).append((p, l_p, gamma_p))

    best: list[tuple[int, int, Morphism]] = []
    for group in candidates.values():
        if len(group) > len(best) or (len(group) == len(best) and best and group[0][0] < best[0][0]):
            best = group
    if len(best) < 2:
        return SteponeResult(hyp, k0, p_max, tuple(p for p, _, _ in best), tuple(l for _, l, _ in best), None, False, 0)

    gamma = best[0][2]
    verified = True
    for p, l_p, _ in best:
        theta_l = power(theta, l_p).morphism
        tau_p = power(tau, p).morphism
        if not (
            _morphisms_equal_check("a", compose(theta_l, gamma), tau_p).passed
            and _morphisms_equal_check("b", compose(gamma, theta_l), tau_p).passed
        ):
            verified = False
    return SteponeResult(
        hypotheses=hyp,
        k0=k0,
        searched_to=p_max,
        exponents=tuple(p for p, _, _ in best),
        l_values=tuple(l for _, l, _ in best),
        gamma=gamma,
        identities_verified=verified,
        max_gamma_image=max(len(w) for w in gamma.images),
    )


def same_fixed_point_gate(tau: Substitution, sigma: Substitution, check_len: int | None = None) -> int:
    """Compare fixed-point prefixes; returns the compared length or raises with
    the first differing index."""
    if check_len is None:
        check_len = max(10_000, 20 * max(tau.max_image_length(), sigma.max_image_length()))
    a = fixed_point_prefix(tau, check_len)
    b = fixed_point_prefix(sigma, check_len)
    if a.alphabet != b.alphabet:
        raise ValueError("substitutions are over different alphabets")
    if a != b:
        first = next(i for i, (x, y) in enumerate(zip(a.scan_text, b.scan_text)) if x != y)
        raise ValueError(f"fixed points differ at index {first}")
    return check_len


def power_coincidence(
    tau: Substitution,
    sigma: Substitution,
    bound: int = 6,
    check_len: int | None = None,
) -> tuple[int, int] | None:
    """Least exponents (i, j) in ``exponent_pairs`` order whose matrix powers
    carry the same spectrum up to zeros and roots of unity; None means no pair
    up to the bound.  The powers' characteristic polynomials come from the
    matrices' own, with no matrix power formed."""
    same_fixed_point_gate(tau, sigma, check_len)
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
    tau: Substitution,
    sigma: Substitution,
    depth: int = 8,
    budget: int = 6,
    check_len: int | None = None,
) -> SharedWitness | None:
    """Find a prefix u and exponents with tau_u^i = sigma_u^j exactly.

    Walks levels 1..depth of tau's cached tower, past its repetition if need
    be; at each level both return substitutions live on the same return
    alphabet (the return words depend only on the fixed point), so exact
    equality of powers is a direct comparison.  Returns the first witness in
    (level, i+j, i) order or None once depth and budget are exhausted.
    """
    same_fixed_point_gate(tau, sigma, check_len)
    for sub in (tau, sigma):
        primitive, _ = is_primitive(sub.matrix())
        if not primitive:
            raise ValueError("shared-fixed-point analysis needs primitive substitutions")
    nonperiodic_check(tau)

    for level in range(1, depth + 1):
        tower_level = _tower_level(tau, level)
        u, sys_t, tau_u = tower_level.prefix, tower_level.system, tower_level.substitution
        sys_s, sigma_u = return_substitution(sigma, u)
        if spelling(sys_t.return_words) != spelling(sys_s.return_words):
            raise InternalInconsistencyError(
                "return words disagree although the fixed points were gated equal"
            )
        for i, j in exponent_pairs(budget):
            if spelling(power(tau_u, i).images) == spelling(power(sigma_u, j).images):
                return SharedWitness(u, i, j, level)
    return None
