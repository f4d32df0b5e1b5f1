"""Character-ring arithmetic for Levi subgroups.

Characters are finitely supported integer maps on weights; a truncated
full-group alternating sum also carries its length bound.  The alternating
sum at rho is read from the orbit vectors w(rho) that the Weyl group walk
keeps when the weights have no complement coordinates.  The term order
is lexicographic on the coordinate tuple; exact division is leading-term
elimination.  Levi irreducible characters, the spinor character (the one
at rho_J) and Dirac induction through them come from Freudenthal's
multiplicity formula on the dominant weights without dividing or
enumerating W_J.  A nonzero remainder in division or in the recursion is
treated as an internal bug.
"""

from __future__ import annotations

import heapq
import math

from .coxeter import _lowest, paused_gc, weyl_group
from .errors import (
    ConeReductionFailedError,
    DivisionRemainderError,
    NotDominantError,
    ResourceExceededError,
)
from .gcm import GeneralizedCartanMatrix, _symmetrizer, finite_subset
from .weights import IN_CONE, NOT_IN_CONE, Realization, Weight


class FormalCharacter:
    """Finitely supported Weight -> int map.

    ``length_bound`` records the enumeration bound of a truncated full-group
    alternating sum; two characters compare equal only at equal bounds.
    """

    __slots__ = ("terms", "length_bound")

    def __init__(self, terms=None, *, length_bound=None):
        terms = dict(terms or {})
        self.terms = {w: c for w, c in terms.items() if c} if 0 in terms.values() else terms
        self.length_bound = length_bound

    @classmethod
    def monomial(cls, lam: Weight, coeff: int = 1) -> "FormalCharacter":
        return cls({tuple(lam): coeff})

    @classmethod
    def zero(cls) -> "FormalCharacter":
        return cls({})

    def _meta(self, other):
        if self.length_bound is not None and other.length_bound not in (None, self.length_bound):
            raise ValueError("length-truncated characters are comparable only at equal bounds")
        return self.length_bound if self.length_bound is not None else other.length_bound

    def __add__(self, other):
        bound, terms = self._meta(other), dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return FormalCharacter(terms, length_bound=bound)

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, k: int) -> "FormalCharacter":
        return FormalCharacter({w: k * c for w, c in self.terms.items()},
                               length_bound=self.length_bound)

    def __mul__(self, other):
        if not isinstance(other, FormalCharacter):
            return self.scaled(other)
        bound, terms = self._meta(other), {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(a + b for a, b in zip(w1, w2))
                terms[w] = terms.get(w, 0) + c1 * c2
        return FormalCharacter(terms, length_bound=bound)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FormalCharacter):
            return NotImplemented
        return self.terms == other.terms and self.length_bound == other.length_bound

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def support(self):
        return set(self.terms)

    def leading(self):
        w = max(self.terms)
        return w, self.terms[w]

    def sorted_terms(self):
        return sorted(self.terms.items(), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "FormalCharacter(0)"
        bits = []
        for w, c in self.sorted_terms():
            sign = "+" if c >= 0 else "-"
            mag = "" if abs(c) == 1 else str(abs(c))
            bits.append(f"{sign}{mag}e^{w}")
        return "FormalCharacter(" + " ".join(bits) + ")"


def exact_divide(numerator: FormalCharacter, denominator: FormalCharacter) -> FormalCharacter:
    """Exact division in the group ring by leading-term elimination.

    The leading term of the remainder comes from a heap of negated weights
    (lexicographic order reverses under negation) with lazy deletion: a
    popped weight no longer in the remainder is skipped, and every weight
    in the remainder has an entry in the heap.  The popped weights strictly
    decrease; as Newton polytopes add (Ostrowski), an exact quotient's terms
    lie in the box [min N - min D, max N - max D], whose points bound the steps.
    """
    if not denominator:
        raise ZeroDivisionError("character division by zero")
    glt, gc = denominator.leading()
    rest = [(w, c) for w, c in denominator.terms.items() if w != glt]
    remainder = dict(numerator.terms)
    heap = [tuple(-x for x in w) for w in remainder]
    heapq.heapify(heap)
    quotient: dict = {}
    budget = points = math.prod(max(0, max(n) - max(d) - min(n) + min(d) + 1)
                                for n, d in zip(zip(*remainder), zip(*denominator.terms)))
    while remainder:
        flt = tuple(-x for x in heapq.heappop(heap))
        fc = remainder.pop(flt, 0)
        if not fc:
            continue
        if not budget:
            raise DivisionRemainderError(f"not exact: the quotient exceeds the {points}"
                                         " lattice points of its Newton box")
        budget -= 1
        if fc % gc:
            raise DivisionRemainderError(
                f"leading coefficient {fc} not divisible by {gc}"
            )
        shift = tuple(a - b for a, b in zip(flt, glt))
        coeff = quotient[shift] = fc // gc
        for w, c in rest:
            key = tuple(a + b for a, b in zip(w, shift))
            val = remainder.get(key, 0) - coeff * c
            if not val:
                del remainder[key]
                continue
            if key not in remainder:
                heapq.heappush(heap, tuple(-x for x in key))
            remainder[key] = val
    return FormalCharacter(quotient)


# -- Levi root systems ----------------------------------------------------------


def levi_positive_roots(A: GeneralizedCartanMatrix, J) -> tuple[tuple[int, ...], ...]:
    """Positive roots of the finite-type root subsystem spanned by J.

    Root vectors are integer coefficient tuples over the full simple-root
    basis: the inversions p(alpha_s) of w_J, for each letter s of its word
    and its prefix p, as p r_s(alpha_j) = p(alpha_j) - a[s][j] p(alpha_s).
    """
    a, word = A.entries, weyl_group(A).longest(J).word
    images = {j: tuple(int(k == j) for k in range(A.size)) for j in set(word)}
    roots = []
    for s in word:
        root = images[s]
        roots.append(root)
        images = {j: tuple(x - a[s][j] * y for x, y in zip(v, root)) for j, v in images.items()}
    return tuple(sorted(roots))


def weyl_denominator(real: Realization, J) -> FormalCharacter:
    """A_J: e^{rho_J} times the product of (1 - e^{-alpha}) over the
    positive Levi roots."""
    one = FormalCharacter.monomial(real.zero())
    out = FormalCharacter.monomial(real.partial_rho(J))
    for root in levi_positive_roots(real.gcm, J):
        out = out * (one - FormalCharacter.monomial(real.root_weight([-c for c in root])))
    return out


def spinor_character(real: Realization, J) -> FormalCharacter:
    """The Levi irreducible with highest weight rho_J (degree-shift Thom
    class), which equals e^{rho_J} times the product of (1 + e^{-alpha})."""
    return levi_irreducible_character(real, J, real.partial_rho(J))


def weyl_numerator(real: Realization, lam: Weight, J=None,
                   length_bound: int | None = None) -> FormalCharacter:
    """Alternating orbit sum of e^{lam}.

    With J given the sum runs over the full finite Levi group W_J; without
    J it runs over the ball of the stated length bound and the result
    carries that bound as metadata.  Exactly one of the two is taken.

    At lam = rho on a matrix with no complement coordinates (A nonsingular),
    the weight w(rho) is the orbit vector the walk keeps for w, and
    w -> w(rho) is injective (Kac, Prop. 3.12), so the sum is read off the
    spheres: no reflection, and no term repeats or cancels.  Any other
    weight, or rho with complement coordinates, which the orbit vector
    lacks, is walked: each w(lam) is reflected from the image of its suffix.
    """
    lam = real.check_weight(lam)
    group = weyl_group(real.gcm)
    if J is not None:
        if length_bound is not None:
            raise ValueError("a subset J or a length bound, not both")
        spheres, bound = group._subgroup_spheres(J), None
    elif length_bound is None:
        raise ValueError("a length bound is required when no subset J is given")
    else:
        spheres, bound = group._quotient(length_bound), length_bound
    if real.rank == group.n and lam == real.rho():
        terms = {}
        for length, sphere in enumerate(spheres):
            sign = -1 if length % 2 else 1
            for w in sphere:
                terms[w.orbit] = sign
        return FormalCharacter(terms, length_bound=bound)
    # a walked w links to its suffix u = r_i w (i its least left descent) in
    # the sphere before; images are keyed by orbit and kept for one sphere
    images, terms = {group.identity.orbit: lam}, {lam: 1}
    with paused_gc():
        for length in range(1, len(spheres)):
            shorter, images, sign = images, {}, -1 if length % 2 else 1
            for w in spheres[length]:
                key = images[w.orbit] = real.reflect(_lowest(w.left), shorter[w.suffix.orbit])
                terms[key] = terms.get(key, 0) + sign
    return FormalCharacter(terms, length_bound=bound)


def levi_irreducible_character(real: Realization, J, mu: Weight) -> FormalCharacter:
    """Character of the Levi irreducible with J-dominant highest weight mu.

    Freudenthal's formula (Humphreys, section 22.3) gives the multiplicity of
    each J-dominant weight nu below mu from those of higher weights:
    m(nu) (beta, mu + nu + 2 rho_J) = 2 sum_alpha sum_k m(nu + k alpha)
    (nu + k alpha, alpha), beta = mu - nu.  With the symmetrizer d of the
    submatrix on J, (alpha_j, x) = d_j x[j], so every pairing is an integer.
    The J-dominant weights below mu are reached from mu by subtracting
    positive roots (Stembridge).  They are taken by height, and each one's
    W_J-orbit enters the character once its multiplicity is known: nu + k
    alpha lies in the orbit of a higher dominant weight, so an alpha-string
    ends at its first weight not yet in the character.  The weights
    produced count against the group's element cap, the dominant ones as
    they are reached, before the recursion.
    """
    A, mu = real.gcm, real.check_weight(mu)
    J = finite_subset(A, J)
    if not real.is_dominant_for(mu, J):
        raise NotDominantError(f"{mu} is not dominant for the Levi on {J}")
    d = _symmetrizer(A.submatrix(J))

    def pairing(coeffs, lam):  # (sum_j c_j alpha_j, lam)
        return sum(c * dj * lam[j] for c, dj, j in zip(coeffs, d, J))

    roots = [(real.root_weight(c), tuple(c[j] for j in J)) for c in levi_positive_roots(A, J)]
    cap = weyl_group(A).element_cap
    # beta = mu - nu on the simple roots of J, for every J-dominant nu <= mu
    depth, layer = {mu: (0,) * len(J)}, [mu]
    while layer:
        below = []
        for nu in layer:
            for weight, coeffs in roots:
                lam = tuple(x - y for x, y in zip(nu, weight))
                if lam not in depth and all(lam[j] >= 0 for j in J):
                    depth[lam] = tuple(b + c for b, c in zip(depth[nu], coeffs))
                    below.append(lam)
            if len(depth) > cap:  # each one is a weight of the character
                raise ResourceExceededError(
                    f"Levi character on {J} exceeded the cap of {cap} weights"
                    f" ({len(depth)} dominant weights reached)")
        layer = below
    terms: dict = {}
    for nu in sorted(depth, key=lambda nu: sum(depth[nu])):
        mult = 1
        if nu != mu:
            total = 0
            for weight, coeffs in roots:
                lam = tuple(x + y for x, y in zip(nu, weight))
                while lam in terms:
                    total += terms[lam] * pairing(coeffs, lam)
                    lam = tuple(x + y for x, y in zip(lam, weight))
            norm = pairing(depth[nu], [x + y + 2 for x, y in zip(mu, nu)])
            mult, rest = divmod(2 * total, norm)
            if rest:
                raise DivisionRemainderError(
                    f"Freudenthal's recursion at {nu}: {2 * total} is not a multiple of {norm}")
        terms[nu], orbit = mult, [nu]
        for lam in orbit:  # lowering reflections reach the whole W_J-orbit of nu
            if len(terms) > cap:
                raise ResourceExceededError(
                    f"Levi character on {J} exceeded the cap of {cap} weights"
                    f" ({len(terms)} produced)")
            for j in J:
                if lam[j] > 0 and (low := real.reflect(j, lam)) not in terms:
                    terms[low] = mult
                    orbit.append(low)
    return FormalCharacter(terms)


def dirac_induction(real: Realization, J, mu: Weight) -> FormalCharacter:
    """Pushforward-then-restrict of e^{mu}: the alternating W_J-sum at mu
    divided by A_J.  With (nu, sign) the W_J-dominant weight of mu's orbit
    and the sign reaching it, that is sign times the Levi irreducible at
    nu - rho_J, and zero when mu is J-singular (nu vanishes somewhere on J)."""
    J = finite_subset(real.gcm, J)
    nu, sign = real.dominantize(real.check_weight(mu), J)
    if not real.is_regular_for(nu, J):
        return FormalCharacter.zero()
    lowered = tuple(a - b for a, b in zip(nu, real.partial_rho(J)))
    return levi_irreducible_character(real, J, lowered).scaled(sign)


# -- ambient dominance -------------------------------------------------------------


def ambient_dominance_test(real: Realization, J, mu: Weight) -> bool:
    """Does the Levi irreducible L_mu consist of characters of the maximal
    dominant representation?

    Equivalent to mu lying in the Tits cone: the character set of the
    maximal dominant representation is exactly the cone, it is closed under
    the group action and under addition, and mu is itself a weight of L_mu.
    """
    J, mu = finite_subset(real.gcm, J), real.check_weight(mu)
    if not real.is_dominant_for(mu, J):
        raise NotDominantError(f"{mu} is not dominant for the Levi on {J}")
    result = real.chamber_reduce(mu)
    if result.status == NOT_IN_CONE:
        return False
    if result.status == IN_CONE:
        return True
    raise ConeReductionFailedError(
        "cone membership undecided within the step bound"
    )


def ambient_dominance_oracle(real: Realization, J, mu: Weight) -> bool:
    """Weight-by-weight route: every weight of the Levi irreducible lies in
    the Tits cone.  Cross-checks ambient_dominance_test."""
    char = levi_irreducible_character(real, J, mu)
    for lam in char.support():
        result = real.chamber_reduce(lam)
        if result.status == NOT_IN_CONE:
            return False
        if result.status != IN_CONE:
            raise ConeReductionFailedError(
                "cone membership undecided within the step bound"
            )
    return True
