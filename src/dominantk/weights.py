"""Integral weights of the Cartan realization and the reflection action.

A weight is a plain tuple of integers: its evaluations against the simple
coroots h_1..h_m followed by the complementary basis d_1..d_c.  The torus
rank is 2m - rank(A), so these coordinates determine the weight.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

from . import intlinalg
from .coxeter import Reflections, weyl_group
from .errors import NotAffineError, NotDominantError, ResourceExceededError
from .gcm import AFFINE, GeneralizedCartanMatrix, classify_type, finite_subset, per_matrix

Weight = tuple

IN_CONE = "in-cone"
NOT_IN_CONE = "not-in-cone"
UNDECIDED = "undecided"


class Box(NamedTuple):
    """Finite window in weight space: |coroot values| and |complement
    coordinates| bounded separately."""

    coroot_bound: int
    complement_bound: int = 0


class ChamberReduction(NamedTuple):
    status: str
    weight: Weight | None
    word: tuple[int, ...] | None  # ShortLex word of the element w reaching it
    steps: int


class Realization(Reflections):
    """Coordinates of the simple roots on the chosen torus basis.

    The complementary indices C are the first c column indices whose removal
    from the matrix leaves a full-rank set of columns; alpha_j evaluates to 1
    on d_k exactly when j = C[k].
    """

    def __init__(self, A: GeneralizedCartanMatrix):
        self.gcm = A
        m = A.size
        matrix_rank = intlinalg.rank(A.entries)
        c = m - matrix_rank
        removed: list[int] = []
        for j in range(m):
            if len(removed) == c:
                break
            trial = [x for x in range(m) if x not in removed and x != j]
            sub = [[A.entries[i][x] for x in trial] for i in range(m)]
            if intlinalg.rank(sub) == matrix_rank:
                removed.append(j)
        self.coroot_count = m
        self.complement_indices = tuple(removed)
        self.rank = m + c
        self.root_coords = tuple(
            tuple(A.entries[i][j] for i in range(m))
            + tuple(1 if j == k else 0 for k in removed)
            for j in range(m)
        )
        # nonzero (k, a) of each root_coords[i], for sparse reflections
        self._table = tuple(
            tuple((k, a) for k, a in enumerate(alpha) if a) for alpha in self.root_coords)

    # -- basic weights ---------------------------------------------------------

    def check_weight(self, lam) -> Weight:
        """``lam`` as a weight tuple, refused unless it holds one integer per
        coroot and complement coordinate."""
        lam = tuple(lam)
        if len(lam) != self.rank or not all(isinstance(x, int) for x in lam):
            c = self.rank - self.coroot_count
            raise ValueError(f"weight {lam} needs {self.rank} integer coordinates"
                             f" ({self.coroot_count} coroot and {c} complement values)")
        return lam

    def zero(self) -> Weight:
        return (0,) * self.rank

    def rho(self) -> Weight:
        """The fixed Weyl element: value 1 on every coroot, 0 on complements."""
        return (1,) * self.coroot_count + (0,) * (self.rank - self.coroot_count)

    def partial_rho(self, K) -> Weight:
        """Sum of h_i^* over i in K."""
        out = [0] * self.rank
        for k in K:
            if not 0 <= k < self.coroot_count:
                raise IndexError(
                    f"node subset {tuple(K)} has an index outside 0..{self.coroot_count - 1}")
            out[k] = 1
        return tuple(out)

    def root_weight(self, coeffs) -> Weight:
        """Weight coordinates of an integer combination of simple roots."""
        return tuple(sum(c * self.root_coords[j][k] for j, c in enumerate(coeffs))
                     for k in range(self.rank))

    # -- action ----------------------------------------------------------------

    # simple reflection lam - <lam, h_i> alpha_i, on the sparse alpha_i
    reflect = Reflections._reflect

    def act(self, word, lam: Weight) -> Weight:
        """Apply the element that a generator word spells to a weight."""
        return self._fold(reversed(tuple(word)), lam)

    # -- dominance and strata ----------------------------------------------------

    def is_dominant(self, lam: Weight) -> bool:
        return all(x >= 0 for x in lam[: self.coroot_count])

    def is_dominant_for(self, lam: Weight, J) -> bool:
        return all(lam[j] >= 0 for j in J)

    def is_regular_for(self, lam: Weight, J) -> bool:
        return all(lam[j] > 0 for j in J)

    def dominantize(self, lam: Weight, J) -> tuple[Weight, int]:
        """The J-dominant weight of the W_J-orbit of lam, J of finite type,
        and the sign of the element reaching it: lam is J-singular iff that
        weight vanishes somewhere on J.  Each reflection of the strip clears
        one negative root of W_J, so it ends within |Phi+(J)| steps."""
        J = finite_subset(self.gcm, J)
        letters, lam = self._strip(lam, sum(1 << j for j in J))
        return lam, -1 if len(letters) % 2 else 1

    def stratum(self, lam: Weight) -> tuple[int, ...]:
        """Coroot indices where a dominant weight vanishes."""
        if not self.is_dominant(lam):
            raise NotDominantError(f"{lam} has a negative coroot value")
        return tuple(i for i in range(self.coroot_count) if lam[i] == 0)

    # -- Tits cone reduction -------------------------------------------------------

    def default_max_steps(self, lam: Weight) -> int:
        return 10 * (1 + sum(abs(x) for x in lam))

    def chamber_reduce(self, lam: Weight, max_steps: int | None = None) -> ChamberReduction:
        """Reflect at the least negative coroot value until dominant.

        The dominant representative does not depend on that choice.  For an
        indecomposable affine matrix a negative level certifies that the
        weight lies outside the Tits cone.  The letters spent spell w, whose
        ShortLex word is returned with no element built.
        """
        lam = self.check_weight(lam)
        if max_steps is None:
            max_steps = self.default_max_steps(lam)
        if max_steps < 0:
            raise ValueError("step bound must be >= 0")
        cls = classify_type(self.gcm)
        if cls.kind == AFFINE and cls.indecomposable and self.affine_level(lam) < 0:
            return ChamberReduction(NOT_IN_CONE, None, None, 0)
        letters, dominant = self._strip(lam, (1 << self.coroot_count) - 1, max_steps + 1)
        if len(letters) > max_steps:
            return ChamberReduction(UNDECIDED, None, None, max_steps)
        word = weyl_group(self.gcm).shortlex(reversed(letters))
        return ChamberReduction(IN_CONE, dominant, word, len(letters))

    # -- affine level ------------------------------------------------------------

    @property
    def dual_kac_labels(self) -> tuple[int, ...]:
        cls = classify_type(self.gcm)
        if cls.kind != AFFINE or not cls.indecomposable:
            raise NotAffineError("level requires an indecomposable affine matrix")
        return _dual_labels(self.gcm)

    def affine_level(self, lam: Weight) -> int:
        """Evaluation on the canonical central element (W-invariant)."""
        labels = self.dual_kac_labels
        return sum(a * x for a, x in zip(labels, lam))

    # -- enumeration ----------------------------------------------------------------

    def dominant_box_weights(self, K, box: Box):
        """Dominant weights in the box whose stratum is exactly K, refused
        past the group's element cap before any is built."""
        if min(box) < 0:
            raise ValueError("box bounds must be >= 0")
        in_k = self.partial_rho(K)
        m = self.coroot_count
        ranges = [range(1) if in_k[i] else range(1, box.coroot_bound + 1) for i in range(m)]
        ranges += [range(-box.complement_bound, box.complement_bound + 1)] * (self.rank - m)
        count, cap = math.prod(map(len, ranges)), weyl_group(self.gcm).element_cap
        if count > cap:
            raise ResourceExceededError(
                f"stratum K = {tuple(sorted(set(K)))} of {box} has {count} dominant weights,"
                f" past the cap of {cap}")
        return tuple(product(*ranges))


@per_matrix
def _dual_labels(A: GeneralizedCartanMatrix) -> tuple[int, ...]:
    transpose = tuple(tuple(A.entries[j][i] for j in range(A.size)) for i in range(A.size))
    labels = intlinalg.primitive_null_vector(transpose)
    if any(x <= 0 for x in labels):
        raise NotAffineError("affine null vector is not positive")
    return labels


@per_matrix
def build_realization(A: GeneralizedCartanMatrix) -> Realization:
    return Realization(A)
