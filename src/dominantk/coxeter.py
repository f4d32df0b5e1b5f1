"""The Weyl group of a generalized Cartan matrix as a computational object.

An element w is stored as its orbit vector w(rho) in coroot coordinates
<., h_k>, where rho takes the value 1 on every simple coroot; every element
but e links to its suffix r_i w, i its least left descent, and the ShortLex
word (input node order as tie-break) is i then the suffix's word, spelled
from the links on each read.  A simple reflection acts on these
coordinates through the matrix alone, lam_k <- lam_k - lam_i a[k][i],
touching only the nonzero entries of column i.

The orbit vector determines the element and its left descents (Kac,
*Infinite-dimensional Lie algebras*, Prop. 3.12 and Lemma 3.11):
<w(rho), h_i> = <rho, w^{-1}(h_i)> is negative exactly when the coroot
w^{-1}(h_i) is negative, that is when l(r_i w) < l(w).  An element u != e
has a left descent, so u(rho) != rho, and w -> w(rho) is injective.  Root
images w(alpha_j) on the simple-root basis, through r_i(alpha_j) = alpha_j -
a[i][j] alpha_i, are filled in on first use; the right descents are the j
with w(alpha_j) negative, and w r_j(rho) = w(rho) - w(alpha_j).  Cosets,
purity and strips are mask tests against subset masks.  An element holds no
group: the group fills in its root images and reads its right descents.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from itertools import chain

from .errors import NotMinimalError, ResourceExceededError
from .gcm import GeneralizedCartanMatrix, finite_subset, per_matrix

DEFAULT_ELEMENT_CAP = 10**6


@contextmanager
def paused_gc():
    """Pause the cyclic collector while a walk grows: a walk leaves no garbage
    cycles, yet each element and orbit vector it keeps counts towards
    the next collection.  Only a collector this pause disabled is enabled
    again (in the manner of Mercurial's ``util.nogc``)."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class CoxeterElement:
    """Group element as a value: its orbit vector plus, for every element but
    e, a link to its suffix; it holds no group, and the word is spelled from
    the links on each read.  Equality and hash read the orbit vector alone,
    so elements of two groups compare by orbit vector.

    ``orbit`` is w(rho) in coroot coordinates; bit i of ``left`` is set when
    <w(rho), h_i> < 0, that is when l(r_i w) < l(w).  ``suffix`` is r_i w, i
    the least left descent (None for e).  ``roots`` holds the images
    w(alpha_j) once the group's coset tests or ``WeylGroup.right`` ask for
    them, and with them the mask ``_right``: bit j when w(alpha_j) is
    negative, that is when l(w r_j) < l(w).  A ball walk reads no root image.
    """

    __slots__ = ("suffix", "length", "orbit", "left", "roots", "_right")

    def __init__(self, orbit, left, suffix=None):
        self.suffix = suffix
        self.length = 0 if suffix is None else suffix.length + 1
        self.orbit = orbit
        self.left = left
        self.roots = None

    @property
    def word(self) -> tuple[int, ...]:
        """The ShortLex word: the least left descent of each element down the
        links to e."""
        letters, w = [], self
        while w.suffix is not None:
            letters.append(_lowest(w.left))
            w = w.suffix
        return tuple(letters)

    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def __eq__(self, other):
        return isinstance(other, CoxeterElement) and self.orbit == other.orbit

    def __hash__(self):
        return hash(self.orbit)  # w -> w(rho) is injective

    def __repr__(self):
        return f"CoxeterElement({','.join(map(str, self.word)) or 'e'})"


def _negative_mask(vector) -> int:
    return sum(1 << k for k, x in enumerate(vector) if x < 0)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _reflect_root(i: int, row, root):
    """r_i on simple-root coefficients: beta_i <- beta_i - sum_k a[i][k] beta_k."""
    pairing = sum(a * root[k] for k, a in row)
    if not pairing:
        return root
    out = list(root)
    out[i] -= pairing
    return tuple(out)


class Reflections:
    """Simple reflections on integer vectors whose coordinate i is the
    pairing with h_i: r_i moves coordinate k by -v_i c_k for each nonzero
    (k, c_k) of ``_table[i]``.  One strip at the least negative coordinate
    serves normal forms, dominantization and chamber reduction (Kac, Prop.
    3.12)."""

    _table: tuple

    def _reflect(self, i: int, vector):
        """r_i: vector - <vector, h_i> times the sparse column ``_table[i]``."""
        v = vector[i]
        if not v:
            return vector
        out = list(vector)
        for k, c in self._table[i]:
            out[k] -= v * c
        return tuple(out)

    def _fold(self, letters, vector):
        """Apply r_s for each s of ``letters`` in turn, the first one first;
        a letter that names no node is refused."""
        n = len(self._table)
        for s in letters:
            if not 0 <= s < n:
                raise IndexError(f"generator index {s} out of range")
            vector = self._reflect(s, vector)
        return vector

    def _strip(self, vector, mask: int = -1, limit: int = -1):
        """(letters, vector): reflect at the least negative coordinate in
        ``mask`` until none is left or ``limit`` letters are spent (a negative
        limit never is); w(rho) stripped entirely spells the ShortLex word of
        w, stripped within S it is that of min W_S w."""
        letters = []
        left = _negative_mask(vector) & mask
        while left and limit:
            limit -= 1
            i = _lowest(left)
            letters.append(i)
            vector = self._reflect(i, vector)
            left = _negative_mask(vector) & mask
        return tuple(letters), vector


class WeylGroup(Reflections):
    """Reflection group of a generalized Cartan matrix with ball enumeration
    and coset machinery."""

    def __init__(self, A: GeneralizedCartanMatrix, element_cap: int = DEFAULT_ELEMENT_CAP):
        self.gcm = A
        self.n = A.size
        self.element_cap = element_cap
        n, a = self.n, A.entries
        # nonzero a[k][i] by column i (coroot coordinates) and by row i (roots)
        self._table = self._columns = tuple(
            tuple((k, a[k][i]) for k in range(n) if a[k][i]) for i in range(n)
        )
        self._rows = tuple(
            tuple((k, a[i][k]) for k in range(n) if a[i][k]) for i in range(n)
        )
        # rows k whose coordinate r_i moves: a[k][i] != 0
        self._moved = tuple(sum(1 << k for k, _ in column) for column in self._columns)
        self._rho = (1,) * n
        self.identity = CoxeterElement(self._rho, 0)
        self.identity._right = 0
        self.identity.roots = tuple(
            tuple(1 if k == j else 0 for k in range(n)) for j in range(n)
        )
        self._simple = {root: 1 << j for j, root in enumerate(self.identity.roots)}
        # the spheres of each right quotient W^K kept so far, by the mask of K;
        # mask 0 is the ball.  _by_orbit indexes every element they hold.
        self._quotients = {0: [[self.identity]]}
        self._by_orbit = {self._rho: self.identity}
        self._lock = threading.RLock()  # enumeration caches are shared state

    def _normalize(self, orbit) -> CoxeterElement:
        """The element w with w(rho) = ``orbit``: held, or stepped down by least
        left descents to one held (e is), each new one linked to the one below."""
        chain, below = [], self._by_orbit.get(orbit)
        while below is None:
            left = _negative_mask(orbit)
            chain.append((orbit, left))
            orbit = self._reflect(_lowest(left), orbit)
            below = self._by_orbit.get(orbit)
        for orbit, left in reversed(chain):
            below = CoxeterElement(orbit, left, below)
        return below

    def _root_images(self, w: CoxeterElement) -> tuple[tuple[int, ...], ...]:
        """w(alpha_j) over the simple roots for every j, filled in on first
        use from the suffix r_i w: one reflection a root."""
        chain = []
        while w.roots is None:
            chain.append(w)
            w = w.suffix
        roots = w.roots
        for el in reversed(chain):
            i = _lowest(el.left)
            roots = tuple(_reflect_root(i, self._rows[i], r) for r in roots)
            # a root is negative when its least coefficient is (they share one
            # sign); _right goes first, so a thread that sees roots reads it set
            el._right = _negative_mask(map(min, roots))
            el.roots = roots
        return roots

    def right(self, w: CoxeterElement) -> int:
        """Mask of the right descents of w: bit j when l(w r_j) < l(w), that
        is when w(alpha_j) is negative, read with the root images."""
        if w.roots is None:
            self._root_images(w)
        return w._right

    def subset_mask(self, subset) -> int:
        """Bitmask of a set of node indices, to test against descent masks."""
        mask = 0
        for i in subset:
            if not 0 <= i < self.n:
                raise IndexError(
                    f"node subset {tuple(subset)} has an index outside 0..{self.n - 1}")
            mask |= 1 << i
        return mask

    # -- public construction -------------------------------------------------

    def element(self, word) -> CoxeterElement:
        """Normal form of an arbitrary generator word."""
        return self._normalize(self._fold(reversed(tuple(word)), self._rho))

    def shortlex(self, word) -> tuple[int, ...]:
        """ShortLex normal form of a generator word, with no element built:
        the strip of w(rho)."""
        return self._strip(self._fold(reversed(tuple(word)), self._rho))[0]

    def generator(self, s: int) -> CoxeterElement:
        return self.element((s,))

    def multiply(self, u: CoxeterElement, v: CoxeterElement) -> CoxeterElement:
        return self._normalize(self._fold(reversed(u.word), v.orbit))

    def inverse(self, w: CoxeterElement) -> CoxeterElement:
        return self._normalize(self._fold(w.word, self._rho))

    def rmul_gen(self, w: CoxeterElement, s: int) -> CoxeterElement:
        return self.multiply(w, self.generator(s))

    def lmul_gen(self, s: int, w: CoxeterElement) -> CoxeterElement:
        return self._normalize(self._fold((s,), w.orbit))

    # -- ball and quotient enumeration ------------------------------------------

    def _quotient(self, L: int, K=()) -> list[list[CoxeterElement]]:
        """Spheres 0..L of the right quotient W^K (w minimal in w W_K), walked
        once per K and kept under the element cap; K empty gives the ball.
        The walk ends at the first empty sphere, as nothing is longer, so a
        finite quotient may return fewer than L + 1 spheres.  Spheres already
        kept are returned without the lock; a walk that must step holds it
        with the collector paused."""
        if L < 0:
            raise ValueError("length bound must be >= 0")
        kmask = self.subset_mask(K)
        spheres = self._quotients.get(kmask)
        if spheres is not None and (len(spheres) > L or not spheres[-1]):
            return spheres[: L + 1]  # a sphere is appended whole, never removed
        with self._lock, paused_gc():
            spheres = self._quotients.setdefault(kmask, [[self.identity]])
            by_orbit = self._by_orbit
            while len(spheres) <= L and spheres[-1]:
                # an element held beyond this walk's own may be met, and is reused
                reuse = len(by_orbit) > sum(map(len, spheres))
                room = self.element_cap - len(by_orbit)
                sphere = self._step(spheres[-1], range(self.n), kmask, reuse, room)
                for w in sphere:
                    by_orbit[w.orbit] = w
                spheres.append(sphere)
        return spheres[: L + 1]

    def _step(self, shorter, letters, kmask: int = 0, reuse=False, room=None,
              parabolic=False) -> list[CoxeterElement]:
        """The next sphere, in ShortLex order, of the group generated by
        ``letters`` after its sphere ``shorter``: w = r_i u for i ascending
        and u in order, kept when i is the least left descent of w, so each
        w is built once, from its suffix.  left(w) lies in left(u) + {i}: a
        descent of u below i that r_i does not move rules w out unreflected.
        Only w(rho) is stepped, linked to u; root images wait for a read.

        With ``kmask`` it steps the right quotient W^K instead, which is
        closed under suffixes (Bjorner-Brenti, Combinatorics of Coxeter
        Groups, 2.4): r_i u leaves W^K iff u(alpha_k) = alpha_i for some k
        in K (Deodhar's lemma).  ``reuse`` reuses the elements held; a letter's
        pass that takes the new ones past ``room``, if given, is refused.  A
        ``parabolic`` walk of W_J on ``letters`` counts every element of its
        own, reused or not."""
        if kmask:  # bit i of exits[t]: r_i shorter[t] leaves W^K
            simple = self._simple
            exits = [sum(simple.get(root, 0) for k, root in enumerate(self._root_images(u))
                         if kmask >> k & 1) for u in shorter]
        # (row k, a[k][i], bit k) over the nonzero a[k][i] of each column i
        columns = [tuple((k, a, 1 << k) for k, a in column) for column in self._columns]
        by_orbit, moved, out, reused = self._by_orbit, self._moved, [], 0
        for i in letters:
            below, column, keep = (1 << i) - 1, columns[i], ~moved[i]
            blocked = below & keep | 1 << i
            stay = shorter if not kmask else [u for u, x in zip(shorter, exits) if not x >> i & 1]
            for u in stay:
                left = u.left
                if left & blocked:
                    continue
                # r_i on u(rho) with <u(rho), h_i> > 0: only the rows of
                # column i move, row i falls and the others rise
                orbit, v, left = list(u.orbit), u.orbit[i], left & keep
                for k, a, bit in column:
                    x = orbit[k] = orbit[k] - v * a
                    if x < 0:
                        left |= bit
                if left & below:
                    continue
                orbit = tuple(orbit)
                if reuse:
                    known = by_orbit.get(orbit)
                    if known is not None:
                        out.append(known)
                        reused += 1
                        continue
                out.append(CoxeterElement(orbit, left, u))
            new = len(out) if parabolic else len(out) - reused
            if room is not None and new > room:
                K = tuple(k for k in range(self.n) if kmask >> k & 1)
                what = (f"parabolic subgroup on {tuple(letters)}" if parabolic else
                        f"quotient W^K of K = {K} enumeration" if kmask else "ball enumeration")
                raise ResourceExceededError(
                    f"{what} exceeded the cap of {self.element_cap} elements"
                    f" ({self.element_cap - room + new} enumerated through length"
                    f" {shorter[0].length + 1})"
                )
        return out

    def sphere(self, length: int) -> tuple[CoxeterElement, ...]:
        spheres = self._quotient(length)
        return tuple(spheres[length]) if length < len(spheres) else ()

    def ball(self, L: int) -> tuple[CoxeterElement, ...]:
        """All elements of length <= L, sorted by (length, ShortLex)."""
        return tuple(chain.from_iterable(self._quotient(L)))

    def is_finite(self, max_length: int = 64) -> bool:
        """Exhaustion test: some sphere up to max_length is empty."""
        return any(not self.sphere(k) for k in range(max_length + 1))

    def longest(self, J) -> CoxeterElement:
        """Longest element of the finite parabolic on J: w_J(rho) is the image of
        rho negative on J (Kac, Lemma 3.11): the negation of -rho stripped within J."""
        _, vector = self._strip((-1,) * self.n, self.subset_mask(finite_subset(self.gcm, J)))
        return self._normalize(tuple(-x for x in vector))

    def subgroup_elements(self, J) -> tuple[CoxeterElement, ...]:
        """All elements of the standard parabolic subgroup on J (finite type),
        sorted by (length, ShortLex)."""
        return tuple(chain.from_iterable(self._subgroup_spheres(J)))

    def _subgroup_spheres(self, J) -> list[list[CoxeterElement]]:
        """The spheres of W_J (J of finite type), the last one empty: sphere
        steps over the letters of J, refused after the letter's pass that
        takes W_J past the element cap."""
        J = finite_subset(self.gcm, J)
        spheres, total = [[self.identity]], 1
        with paused_gc():
            while spheres[-1]:
                # elements within the enumerated ball are the ball's own
                room = self.element_cap - total
                spheres.append(self._step(spheres[-1], J, 0, True, room, True))
                total += len(spheres[-1])
                if total > self.element_cap:  # the backstop: _step refuses first
                    raise ResourceExceededError(
                        f"parabolic subgroup on {J} exceeded the cap of {self.element_cap}"
                        f" elements ({total} enumerated)"
                    )
        return spheres

    # -- cosets and purity ----------------------------------------------------

    def min_coset_reps(self, J, K=None, L: int = 0) -> tuple[CoxeterElement, ...]:
        """Elements of length <= L minimal in W_J w (and in W_J w W_K if K
        given): the kept right quotient W^K with no left descent in J."""
        jmask = self.subset_mask(J)
        return tuple(
            w for sphere in self._quotient(L, K or ()) for w in sphere if not w.left & jmask
        )

    def continuation_mask(self, w: CoxeterElement, kmask: int) -> int:
        """Right ascents j of a K-left-minimal w with w r_j still K-left minimal.

        Deodhar's lemma: for such j, either w r_j is minimal in W_K w r_j or
        w r_j = r_k w with k in K, that is w(alpha_j) = alpha_k.  So j is
        dropped exactly when w(alpha_j) is a simple root in K, and a positive
        root w(alpha_j) supported on K is always such a simple root.
        """
        simple, right, mask = self._simple, self.right(w), 0
        for j, root in enumerate(self._root_images(w)):
            if not (right >> j & 1 or simple.get(root, 0) & kmask):
                mask |= 1 << j
        return mask

    def double_coset_intersection(self, w: CoxeterElement, J, K) -> tuple[int, ...]:
        """Subset L of J with W_K meet w W_J w^{-1} equal to w W_L w^{-1}.

        Requires w minimal for (K-left, J-right).  j belongs to L exactly
        when w(alpha_j) is a positive root supported on K: J minus the
        continuation mask.
        """
        kmask, jmask = self.subset_mask(K), self.subset_mask(J)
        if w.left & kmask or self.right(w) & jmask:
            raise NotMinimalError("w is not a minimal (K, J) double coset representative")
        meet = jmask & ~self.continuation_mask(w, kmask)
        return tuple(j for j in range(self.n) if meet >> j & 1)

    def _purity(self, w: CoxeterElement, jmask: int) -> tuple[int, int]:
        """(need, forbid) of w in W^J: w is a pure (K, J) representative iff
        K misses ``forbid``, and maximally pure iff also K contains ``need``.

        ``forbid`` holds the left descents of w and each k with w(alpha_j) =
        alpha_k for some j in J; ``need`` the k with w(alpha_j) = alpha_k for
        each right ascent j outside J, or -1 when one such image is not simple
        (Deodhar's lemma, as in ``continuation_mask``)."""
        simple, right, need, forbid = self._simple, self.right(w), 0, w.left
        for j, root in enumerate(self._root_images(w)):
            if jmask >> j & 1:
                forbid |= simple.get(root, 0)
            elif not right >> j & 1:
                need |= simple.get(root, -1)
        return need, forbid

    def pure_reps(self, K, J, L: int, maximal: bool = False) -> tuple[CoxeterElement, ...]:
        """Minimal (K, J) double coset reps w of length <= L whose conjugate
        of W_J meets W_K trivially (J within P); with ``maximal``,
        additionally pure for no proper superset of J (J equal to P)."""
        kmask, jmask = self.subset_mask(K), self.subset_mask(J)
        out = []
        for w in self.min_coset_reps(K, J, L):
            need, forbid = self._purity(w, jmask)
            if not forbid & kmask and not (maximal and need & ~kmask):
                out.append(w)
        return tuple(out)

    # -- canonical coset minimization -----------------------------------------

    def rstrip(self, w: CoxeterElement, S) -> CoxeterElement:
        """Minimal length element of w W_S: while some j in S has w(alpha_j)
        negative, step to w r_j, with w r_j(rho) = w(rho) - w(alpha_j) and
        (w r_j)(alpha_m) = w(alpha_m) - a[j][m] w(alpha_j)."""
        mask = self.subset_mask(S)
        if not mask or not self.right(w) & mask:  # an empty S reads no root image
            return w
        orbit, roots = w.orbit, list(w.roots)
        while right := _negative_mask(map(min, roots)) & mask:
            j = _lowest(right)
            root = roots[j]
            # <root, h_k> = sum_m a[k][m] root_m, row k of the matrix
            orbit = tuple(x - sum(a * root[m] for m, a in row) for x, row in zip(orbit, self._rows))
            for m, a in self._rows[j]:
                roots[m] = tuple(x - a * y for x, y in zip(roots[m], root))
        return self._normalize(orbit)

    def lstrip(self, w: CoxeterElement, S) -> CoxeterElement:
        """Minimal length element of W_S w: w(rho) stripped within S."""
        mask = self.subset_mask(S)
        return self._normalize(self._strip(w.orbit, mask)[1]) if w.left & mask else w

    def double_strip(self, w: CoxeterElement, J, K) -> CoxeterElement:
        """Minimal length element of W_J w W_K: a prefix of an element with
        no left descent in J has none either, so one strip of each side does."""
        return self.rstrip(self.lstrip(w, J), K)


@per_matrix
def weyl_group(A: GeneralizedCartanMatrix) -> WeylGroup:
    """The group of A, shared by every holder of A (it caches its balls and
    right quotients)."""
    return WeylGroup(A)

