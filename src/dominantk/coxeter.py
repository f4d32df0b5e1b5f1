"""The Weyl group of a generalized Cartan matrix as a computational object.

Elements act on the simple-root lattice through the crystallographic
reflection representation r_i(alpha_j) = alpha_j - a[i][j] alpha_i, which is
faithful and integral.  Each element stores its right and left descents as
bitmasks, read once off its root images when it is built; cosets, purity,
strips and the Bruhat order are mask tests against subset masks.  Stored
words are ShortLex-minimal reduced words with the input node order as
tie-break, so the first letter of a word is its least left descent.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from .errors import NotFiniteTypeError, NotMinimalError, ResourceExceededError
from .gcm import FINITE, GeneralizedCartanMatrix, classify_type

DEFAULT_ELEMENT_CAP = 10**6


class CoxeterElement:
    """Group element carrying its ShortLex reduced word and root action.

    ``cols[j]`` is the coefficient vector of w(alpha_j) over the simple
    roots; ``inv_rows`` stores the matrix of the inverse element by rows.
    Bit j of ``right`` is set when w(alpha_j) is negative (l(w r_j) < l(w)),
    bit i of ``left`` when w^{-1}(alpha_i) is negative (l(r_i w) < l(w)).
    """

    __slots__ = ("group", "word", "cols", "inv_rows", "right", "left")

    def __init__(self, group, word, cols, inv_rows):
        self.group = group
        self.word = word
        self.cols = cols
        self.inv_rows = inv_rows
        self.right = _negative_mask(cols, group.n)
        self.left = _negative_mask(zip(*inv_rows), group.n)

    @property
    def length(self) -> int:
        return len(self.word)

    def act_on_root(self, j: int) -> tuple[int, ...]:
        """Coefficients of w(alpha_j) over the simple-root basis."""
        if not 0 <= j < self.group.n:
            raise IndexError(f"root index {j} out of range")
        return self.cols[j]

    def descent_set(self, side: str = "right") -> tuple[int, ...]:
        """Indices i with l(w r_i) < l(w) (right) or l(r_i w) < l(w) (left)."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', not {side!r}")
        mask = self.right if side == "right" else self.left
        return tuple(i for i in range(self.group.n) if mask >> i & 1)

    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def sort_key(self):
        return (self.length, self.word)

    def __eq__(self, other):
        return (
            isinstance(other, CoxeterElement)
            and self.group.key == other.group.key
            and self.word == other.word
        )

    def __hash__(self):
        return hash((self.group.key, self.word))

    def __repr__(self):
        return f"CoxeterElement({','.join(map(str, self.word)) or 'e'})"


def _negative_mask(roots, n: int) -> int:
    # a nonzero root has coefficients of one sign, so it is negative exactly
    # when it sorts below the zero vector
    zero = (0,) * n
    return sum(1 << j for j, root in enumerate(roots) if root < zero)


def subset_mask(subset) -> int:
    """Bitmask of a set of node indices, to test against descent masks."""
    return sum(1 << i for i in set(subset))


def _support(vector) -> int:
    return sum(1 << i for i, x in enumerate(vector) if x)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class WeylGroup:
    """Reflection group of a generalized Cartan matrix with ball enumeration,
    coset machinery and the Bruhat order."""

    def __init__(self, A: GeneralizedCartanMatrix, element_cap: int = DEFAULT_ELEMENT_CAP):
        self.gcm = A
        self.n = A.size
        self.key = A.entries
        self.element_cap = element_cap
        ident = tuple(
            tuple(1 if i == j else 0 for i in range(self.n)) for j in range(self.n)
        )
        self.identity = CoxeterElement(self, (), ident, ident)
        self._spheres = [[self.identity]]
        self._by_cols = {ident: self.identity}
        self._total = 1
        self._lock = threading.RLock()  # enumeration caches are shared state

    # -- elementary matrix updates (sparse in the bond degree) ---------------

    def _rmul(self, cols, inv_rows, s):
        """Matrices of w*r_s from those of w."""
        row_s = self.gcm.entries[s]
        col_s = cols[s]
        new_cols = list(cols)
        for j in range(self.n):
            a = row_s[j]
            if a:
                new_cols[j] = tuple(x - a * y for x, y in zip(cols[j], col_s))
        acc = [-x for x in inv_rows[s]]
        for j in range(self.n):
            a = row_s[j]
            if a and j != s:
                acc = [x - a * y for x, y in zip(acc, inv_rows[j])]
        new_rows = list(inv_rows)
        new_rows[s] = tuple(acc)
        return tuple(new_cols), tuple(new_rows)

    def _lmul(self, cols, inv_rows, s):
        """Matrices of r_s*w from those of w."""
        row_s = self.gcm.entries[s]
        new_cols = []
        for col in cols:
            acc = -col[s]
            for k in range(self.n):
                a = row_s[k]
                if a and k != s:
                    acc -= a * col[k]
            lst = list(col)
            lst[s] = acc
            new_cols.append(tuple(lst))
        new_rows = []
        for row in inv_rows:
            lst = list(row)
            for j in range(self.n):
                a = row_s[j]
                if a:
                    lst[j] = row[j] - a * row[s]
            new_rows.append(tuple(lst))
        return tuple(new_cols), tuple(new_rows)

    def _normalize(self, cols, inv_rows) -> CoxeterElement:
        """Cached element, or ShortLex word by repeatedly stripping the
        least left descent."""
        cached = self._by_cols.get(cols)
        if cached is not None:
            return cached
        w = CoxeterElement(self, (), cols, inv_rows)
        word, left, c, r = [], w.left, cols, inv_rows
        while left:
            i = _lowest(left)
            word.append(i)
            c, r = self._lmul(c, r, i)
            left = _negative_mask(zip(*r), self.n)
        w.word = tuple(word)
        return w

    # -- public construction -------------------------------------------------

    def element(self, word) -> CoxeterElement:
        """Normal form of an arbitrary generator word."""
        cols, inv_rows = self.identity.cols, self.identity.inv_rows
        for s in word:
            if not 0 <= s < self.n:
                raise IndexError(f"generator index {s} out of range")
            cols, inv_rows = self._rmul(cols, inv_rows, s)
        return self._normalize(cols, inv_rows)

    def generator(self, s: int) -> CoxeterElement:
        return self.element((s,))

    def multiply(self, u: CoxeterElement, v: CoxeterElement) -> CoxeterElement:
        cols, inv_rows = u.cols, u.inv_rows
        for s in v.word:
            cols, inv_rows = self._rmul(cols, inv_rows, s)
        return self._normalize(cols, inv_rows)

    def inverse(self, w: CoxeterElement) -> CoxeterElement:
        return self.element(tuple(reversed(w.word)))

    def rmul_gen(self, w: CoxeterElement, s: int) -> CoxeterElement:
        return self._normalize(*self._rmul(w.cols, w.inv_rows, s))

    def lmul_gen(self, s: int, w: CoxeterElement) -> CoxeterElement:
        return self._normalize(*self._lmul(w.cols, w.inv_rows, s))

    # -- ball enumeration -----------------------------------------------------

    def _extend(self, L: int) -> None:
        with self._lock:
            self._extend_locked(L)

    def _extend_locked(self, L: int) -> None:
        while len(self._spheres) <= L:
            frontier = {}
            for el in self._spheres[-1]:
                for s in range(self.n):
                    if el.right >> s & 1:
                        continue  # descent: ws is shorter
                    cols, inv_rows = self._rmul(el.cols, el.inv_rows, s)
                    if cols in frontier:
                        continue
                    # ShortLex word: least left descent, then the cached
                    # normal form of the shorter element it strips to.
                    w = frontier[cols] = CoxeterElement(self, (), cols, inv_rows)
                    i = _lowest(w.left)
                    w.word = (i,) + self._by_cols[self._lmul(cols, inv_rows, i)[0]].word
            sphere = sorted(frontier.values(), key=lambda e: e.word)
            self._total += len(sphere)
            if self._total > self.element_cap:
                raise ResourceExceededError(
                    f"ball enumeration exceeded the cap of {self.element_cap} elements"
                )
            self._by_cols.update(frontier)
            self._spheres.append(sphere)

    def sphere(self, length: int) -> tuple[CoxeterElement, ...]:
        self._extend(length)
        return tuple(self._spheres[length])

    def ball(self, L: int) -> tuple[CoxeterElement, ...]:
        """All elements of length <= L, sorted by (length, ShortLex)."""
        if L < 0:
            raise ValueError("length bound must be >= 0")
        self._extend(L)
        out = []
        for sphere in self._spheres[: L + 1]:
            out.extend(sphere)
        return tuple(out)

    def is_finite(self, max_length: int = 64) -> bool:
        """Exhaustion test: some sphere up to max_length is empty."""
        for k in range(max_length + 1):
            if not self.sphere(k):
                return True
        return False

    def subgroup_elements(self, J) -> tuple[CoxeterElement, ...]:
        """All elements of the standard parabolic subgroup on J (finite type)."""
        J = tuple(sorted(set(J)))
        if J and classify_type(self.gcm.submatrix(J)).kind != FINITE:
            raise NotFiniteTypeError(f"subset {J} does not span a finite subgroup")
        return self._parabolic(J)

    @lru_cache(maxsize=None)
    def _parabolic(self, J) -> tuple[CoxeterElement, ...]:
        out = [self.identity]
        layer = [self.identity]
        while layer:
            nxt = {}
            for el in layer:
                for s in J:
                    if not el.right >> s & 1:
                        w = self.rmul_gen(el, s)
                        nxt[w.word] = w
            layer = list(nxt.values())
            out.extend(layer)
            if len(out) > self.element_cap:
                raise ResourceExceededError(
                    f"parabolic subgroup on {J} exceeded the cap of {self.element_cap}"
                    f" elements ({len(out)} enumerated)"
                )
        return tuple(sorted(out, key=lambda e: e.sort_key()))

    # -- cosets, purity, Bruhat order -----------------------------------------

    def min_coset_reps(self, J, K=None, L: int = 0) -> tuple[CoxeterElement, ...]:
        """Elements of length <= L minimal in W_J w (and in W_J w W_K if K given)."""
        jmask, kmask = subset_mask(J), subset_mask(K or ())
        return tuple(
            w for w in self.ball(L) if not (w.left & jmask or w.right & kmask)
        )

    def is_min_double_rep(self, w: CoxeterElement, J, K) -> bool:
        """For w minimal in W_J w: is w the minimal W_J-W_K double coset rep."""
        if w.left & subset_mask(J):
            raise NotMinimalError("w is not a minimal left W_J-coset representative")
        return not w.right & subset_mask(K)

    def double_coset_intersection(self, w: CoxeterElement, J, K) -> tuple[int, ...]:
        """Subset L of J with W_K meet w W_J w^{-1} equal to w W_L w^{-1}.

        Requires w minimal for (K-left, J-right).  j belongs to L exactly
        when w(alpha_j) is a positive root supported on K.
        """
        kmask = subset_mask(K)
        if w.left & kmask or w.right & subset_mask(J):
            raise NotMinimalError("w is not a minimal (K, J) double coset representative")
        # j in J is a right ascent, so w(alpha_j) is positive
        return tuple(j for j in sorted(set(J)) if not _support(w.cols[j]) & ~kmask)

    def pure_reps(self, K, J, L: int, maximal: bool = False) -> tuple[CoxeterElement, ...]:
        """Minimal (K, J) double coset reps w of length <= L whose conjugate
        of W_J meets W_K trivially; with ``maximal``, additionally pure for
        no proper superset of J."""
        out = []
        for w in self.min_coset_reps(K, J, L):
            if self.double_coset_intersection(w, J, K):
                continue
            if maximal and self.pure_for_proper_superset(w, K, J):
                continue
            out.append(w)
        return tuple(out)

    def pure_for_proper_superset(self, w, K, J) -> bool:
        """Is w, minimal for (K-left, J-right), pure for some proper superset of J?

        Purity for J' asks that no j in J' have w(alpha_j) positive and
        supported on K, one node at a time.  So for w pure for J the answer
        is yes exactly when some right ascent j outside J has w(alpha_j)
        not supported on K; for w not pure for J it is no.
        """
        if self.double_coset_intersection(w, J, K):
            return False
        outside, kmask = ~(subset_mask(J) | w.right), subset_mask(K)
        return any(
            outside >> j & 1 and _support(w.cols[j]) & ~kmask for j in range(self.n)
        )

    def bruhat_leq(self, v: CoxeterElement, w: CoxeterElement) -> bool:
        """Bruhat order: v is a subword of any reduced expression of w.

        Computed by the lifting property: with i a left descent of w,
        v <= w iff (r_i v <= r_i w when i is a descent of v) else v <= r_i w.
        The letters of w's ShortLex word are those descents in turn.
        """
        for k, i in enumerate(w.word):
            if v.length == 0 or v.length > w.length - k:
                break
            if v.left >> i & 1:
                v = self.lmul_gen(i, v)
        return v.length == 0

    # -- canonical coset minimization -----------------------------------------

    def rstrip(self, w: CoxeterElement, S) -> CoxeterElement:
        """Minimal length element of w W_S."""
        smask = subset_mask(S)
        while w.right & smask:
            w = self.rmul_gen(w, _lowest(w.right & smask))
        return w

    def lstrip(self, w: CoxeterElement, S) -> CoxeterElement:
        """Minimal length element of W_S w."""
        smask = subset_mask(S)
        while w.left & smask:
            w = self.lmul_gen(_lowest(w.left & smask), w)
        return w

    def double_strip(self, w: CoxeterElement, J, K) -> CoxeterElement:
        """Minimal length element of W_J w W_K."""
        while True:
            w2 = self.rstrip(self.lstrip(w, J), K)
            if w2.length == w.length:
                return w2
            w = w2


_GROUPS: dict[tuple, WeylGroup] = {}
_GROUPS_LOCK = threading.Lock()


def weyl_group(A: GeneralizedCartanMatrix) -> WeylGroup:
    """Shared per-matrix group instance (balls and parabolics are cached)."""
    with _GROUPS_LOCK:
        group = _GROUPS.get(A.entries)
        if group is None:
            group = _GROUPS[A.entries] = WeylGroup(A)
        return group


def normal_form(word, A: GeneralizedCartanMatrix) -> CoxeterElement:
    return weyl_group(A).element(tuple(word))
