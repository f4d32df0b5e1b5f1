from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominantk.errors import NotMinimalError, ResourceExceededError
from dominantk.coxeter import WeylGroup, weyl_group
from dominantk.gcm import gcm_from_rows


# -- independent oracle: W(A2) as permutations of three letters --------------------


def perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


A2_GENS = {0: (1, 0, 2), 1: (0, 2, 1)}


def a2_perm(word):
    out = (0, 1, 2)
    for s in word:
        out = perm_mul(out, A2_GENS[s])
    return out


def a2_shortlex_table():
    """Breadth-first table permutation -> least reduced word."""
    table = {(0, 1, 2): ()}
    frontier = [()]
    while frontier:
        nxt = []
        for word in sorted(frontier):
            for s in (0, 1):
                cand = word + (s,)
                p = a2_perm(cand)
                if p not in table:
                    table[p] = cand
                    nxt.append(cand)
        frontier = nxt
    return table


def test_normal_form_matches_symmetric_group(matrices):
    table = a2_shortlex_table()
    group = weyl_group(matrices["a2"])
    for length in range(5):
        for word in product((0, 1), repeat=length):
            el = group.element(word)
            assert el.word == table[a2_perm(word)]
            assert el.length == len(table[a2_perm(word)])


def test_normal_form_examples(matrices):
    group = weyl_group(matrices["a2"])
    assert group.element((0, 1, 0, 1)).word == (1, 0)
    assert group.element((0, 0)).word == ()
    dihedral = weyl_group(matrices["affine_a1"])
    assert dihedral.element((0, 1, 0, 1, 0)).word == (0, 1, 0, 1, 0)
    assert dihedral.element((0, 1, 0, 1, 0)).length == 5


def test_index_out_of_range(matrices):
    with pytest.raises(IndexError):
        weyl_group(matrices["a2"]).element((2,))


@settings(max_examples=100, deadline=None)
@given(
    words=st.tuples(
        st.lists(st.integers(0, 2), max_size=6),
        st.lists(st.integers(0, 2), max_size=6),
    ),
    spot=st.integers(0, 12),
    gen=st.integers(0, 2),
)
def test_normal_form_is_a_group_invariant(matrices, words, spot, gen):
    """The normal form depends only on the group element: concatenation agrees
    with multiplication, and inserting a repeated generator changes nothing."""
    group = weyl_group(matrices["hyper_rank3"])
    w1, w2 = words
    joined = group.element(tuple(w1) + tuple(w2))
    assert joined == group.multiply(group.element(tuple(w1)), group.element(tuple(w2)))
    word = tuple(w1) + tuple(w2)
    k = min(spot, len(word))
    padded = word[:k] + (gen, gen) + word[k:]
    assert group.element(padded) == group.element(word)


# -- root action ---------------------------------------------------------------------


def test_act_on_root_basics(matrices):
    group = weyl_group(matrices["a2"])
    r0 = group.generator(0)
    assert r0.act_on_root(0) == (-1, 0)
    assert r0.act_on_root(1) == (1, 1)
    dihedral = weyl_group(matrices["affine_a1"])
    w = dihedral.element((0, 1))
    # compose the two reflection steps by hand: r1(a1) = -a1,
    # r0(-a1) = -(a1 + 2a0)
    assert w.act_on_root(1) == (-2, -1)


def test_length_counts_inversions(matrices):
    """l(w) equals the number of positive roots sent negative."""
    for name, bound, depth in (("a2", 3, 4), ("b2", 4, 6), ("affine_a1", 6, 16)):
        A = matrices[name]
        group = weyl_group(A)
        n = A.size
        roots = {tuple(1 if k == j else 0 for k in range(n)) for j in range(n)}
        frontier = set(roots)
        for _ in range(depth):
            nxt = set()
            for root in frontier:
                for i in range(n):
                    pairing = sum(A.entries[i][k] * root[k] for k in range(n))
                    img = list(root)
                    img[i] -= pairing
                    img = tuple(img)
                    if all(x >= 0 for x in img) and img not in roots:
                        roots.add(img)
                        nxt.add(img)
            frontier = nxt
        for w in group.ball(bound):
            sent_negative = sum(
                1
                for root in roots
                if all(
                    x <= 0
                    for x in _act(A, w.word, root)
                )
            )
            assert sent_negative == w.length


def _act(A, word, root):
    n = A.size
    out = list(root)
    for i in reversed(word):
        pairing = sum(A.entries[i][k] * out[k] for k in range(n))
        out[i] -= pairing
    return out


def test_root_positivity_dichotomy(matrices):
    group = weyl_group(matrices["hyper_rank3"])
    for w in group.ball(5):
        for j in range(3):
            img = w.act_on_root(j)
            assert all(x >= 0 for x in img) or all(x <= 0 for x in img)


# -- descents ---------------------------------------------------------------------


def test_descents(matrices):
    """Descent masks against lengths: bit j of ``right`` (``left``) is set
    exactly when w r_j (r_j w) is shorter than w."""
    for name, A in matrices.items():
        group = weyl_group(A)
        for w in group.ball(3 if A.size > 4 else 5):
            for j in range(A.size):
                assert bool(w.right >> j & 1) == (group.rmul_gen(w, j).length < w.length)
                shorter = group.multiply(group.generator(j), w).length < w.length
                assert bool(w.left >> j & 1) == shorter
    group = weyl_group(matrices["a2"])
    assert group.identity.descent_set("right") == ()
    longest = group.element((0, 1, 0))
    assert longest.descent_set("right") == (0, 1)
    dihedral = weyl_group(matrices["affine_a1"])
    w = dihedral.element((0, 1, 0))
    assert dihedral.element((0, 1, 0, 1)).length == 4
    assert dihedral.element((0, 1)).length == 2
    assert w.descent_set("right") == (0,)
    assert w.descent_set("left") == (0,)


def test_descent_sets_are_spherical(matrices):
    from dominantk.gcm import spherical_poset

    for name, A in matrices.items():
        poset = spherical_poset(A)
        group = weyl_group(A)
        for w in group.ball(3 if A.size > 4 else 5):
            assert w.descent_set("right") in poset
            assert w.descent_set("left") in poset


# -- Bruhat order ------------------------------------------------------------------


def subword_oracle(group, v, w):
    """v <= w iff some subsequence of w's reduced word is a word for v."""
    word = w.word
    for bits in range(1 << len(word)):
        sub = tuple(word[i] for i in range(len(word)) if bits >> i & 1)
        if len(sub) == v.length and group.element(sub) == v:
            return True
    return False


@pytest.mark.parametrize("name,bound", [("a2", 3), ("affine_a1", 4), ("b2", 4)])
def test_bruhat_matches_subword_oracle(matrices, name, bound):
    group = weyl_group(matrices[name])
    ball = group.ball(bound)
    for v in ball:
        for w in ball:
            assert group.bruhat_leq(v, w) == subword_oracle(group, v, w)


def test_bruhat_examples(matrices):
    group = weyl_group(matrices["a2"])
    for w in group.ball(3):
        assert group.bruhat_leq(group.identity, w)
    assert group.bruhat_leq(group.element((0,)), group.element((0, 1)))
    assert not group.bruhat_leq(group.element((0,)), group.element((1,)))


def test_bruhat_partial_order(matrices):
    group = weyl_group(matrices["hyper_rank3"])
    ball = group.ball(4)
    leq = {(v.word, w.word) for v in ball for w in ball if group.bruhat_leq(v, w)}
    for v in ball:
        assert (v.word, v.word) in leq
    for v, w in leq:
        if v != w:
            assert (w, v) not in leq
    for v in ball:
        for w in ball:
            for u in ball:
                if (v.word, w.word) in leq and (w.word, u.word) in leq:
                    assert (v.word, u.word) in leq


# -- balls -------------------------------------------------------------------------


def test_ball_sizes(matrices):
    assert len(weyl_group(matrices["a2"]).ball(3)) == 6
    assert len(weyl_group(matrices["a2"]).ball(10)) == 6
    for L in range(11):
        assert len(weyl_group(matrices["affine_a1"]).ball(L)) == 2 * L + 1
    assert weyl_group(matrices["g2"]).ball(0) == (weyl_group(matrices["g2"]).identity,)


def test_ball_sorted_and_unique(matrices):
    ball = weyl_group(matrices["hyper_rank3"]).ball(5)
    keys = [w.sort_key() for w in ball]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_element_cap():
    A = gcm_from_rows([[2, -2], [-2, 2]])
    group = WeylGroup(A, element_cap=10)
    with pytest.raises(ResourceExceededError):
        group.ball(20)


# -- cosets ------------------------------------------------------------------------


def brute_min_left_reps(group, J, L):
    """Group the ball into left W_J-cosets and keep each coset's minimum."""
    ball = group.ball(L)
    subgroup = group.subgroup_elements(J)
    best = {}
    for w in ball:
        orbit = min(
            (group.multiply(u, w) for u in subgroup), key=lambda e: e.sort_key()
        )
        key = orbit.word
        if key not in best or w.sort_key() < best[key].sort_key():
            if orbit.word == w.word:
                best[key] = w
    return sorted(best.values(), key=lambda e: e.sort_key())


def test_min_coset_reps_a2(matrices):
    group = weyl_group(matrices["a2"])
    reps = group.min_coset_reps((0,), None, 3)
    assert [w.word for w in reps] == [(), (1,), (1, 0)]
    assert reps == tuple(brute_min_left_reps(group, (0,), 3))


def test_min_coset_reps_no_constraint(matrices):
    group = weyl_group(matrices["affine_a1"])
    assert group.min_coset_reps((), None, 4) == group.ball(4)


def test_min_coset_reps_dihedral(matrices):
    group = weyl_group(matrices["affine_a1"])
    reps = group.min_coset_reps((0,), None, 3)
    assert [w.word for w in reps] == [(), (1,), (1, 0), (1, 0, 1)]


def test_is_min_double_rep(matrices):
    group = weyl_group(matrices["a2"])
    assert group.is_min_double_rep(group.identity, (0,), (1,))
    w = group.element((1,))
    assert group.is_min_double_rep(w, (0,), (0,))
    w2 = group.element((1, 0))
    assert not group.is_min_double_rep(w2, (0,), (0,))
    with pytest.raises(NotMinimalError):
        group.is_min_double_rep(group.element((0,)), (0,), (1,))


def test_double_coset_intersection(matrices):
    group = weyl_group(matrices["a2"])
    assert group.double_coset_intersection(group.identity, (0,), (0,)) == (0,)
    assert group.double_coset_intersection(group.element((1,)), (0,), (0,)) == ()
    dihedral = weyl_group(matrices["affine_a1"])
    assert dihedral.double_coset_intersection(dihedral.identity, (1,), (0,)) == ()


def brute_conjugation_subset(group, w, J, K, bound=6):
    """Indices j in J with w W_J w^-1 meeting W_K, via explicit conjugation."""
    winv = group.inverse(w)
    meet = []
    for u in group.subgroup_elements(J):
        if u.length == 0:
            continue
        conj = group.multiply(group.multiply(w, u), winv)
        if set(conj.word) <= set(K):
            meet.append(u)
    return meet


@pytest.mark.parametrize("name", ["a2", "b2", "affine_a1", "hyper_rank3"])
def test_intersection_matches_brute_force(matrices, name):
    A = matrices[name]
    group = weyl_group(A)
    n = A.size
    finite_subsets = [
        s
        for size in range(n + 1)
        for s in combinations(range(n), size)
        if not (name == "affine_a1" and s == (0, 1))
        and not (name == "hyper_rank3" and s == (0, 1, 2))
    ]
    for J in finite_subsets:
        for K in finite_subsets:
            for w in group.min_coset_reps(K, J, 4):
                claimed = group.double_coset_intersection(w, J, K)
                # the claimed subgroup, conjugated by w, must be exactly the
                # brute-force intersection
                brute = brute_conjugation_subset(group, w, J, K)
                expected = [
                    u for u in group.subgroup_elements(claimed) if u.length > 0
                ]
                assert sorted(u.word for u in brute) == sorted(
                    u.word for u in expected
                )


def test_pure_reps_examples(matrices):
    dihedral = weyl_group(matrices["affine_a1"])
    pure = dihedral.pure_reps((0,), (1,), 3)
    assert dihedral.identity in pure
    group = weyl_group(matrices["hyper_rank3"])
    # trivial K: purity is automatic on all right-minimal representatives
    assert group.pure_reps((), (0,), 4) == group.min_coset_reps((), (0,), 4)


def test_maximally_pure_subset_of_pure(matrices):
    group = weyl_group(matrices["ext4"])
    for size in range(5):
        for K in combinations(range(4), size):
            pure = set(group.pure_reps(K, (0, 1, 2), 6))
            maximal = set(group.pure_reps(K, (0, 1, 2), 6, maximal=True))
            assert maximal <= pure


def superset_purity_oracle(group, w, K, J):
    """Is w pure for some proper superset of J: every superset, one by one."""
    rest = [i for i in range(group.n) if i not in J]
    right = set(w.descent_set("right"))
    for bits in range(1, 1 << len(rest)):
        extra = [rest[t] for t in range(len(rest)) if bits >> t & 1]
        if any(i in right for i in extra):
            continue  # not even a minimal rep for the bigger parabolic
        if not group.double_coset_intersection(w, tuple(J) + tuple(extra), K):
            return True
    return False


@pytest.mark.parametrize(
    "name,bound", [("a2", 3), ("affine_a1", 8), ("hyper_rank3", 7), ("ext4", 8)]
)
def test_maximal_purity_matches_superset_oracle(matrices, name, bound):
    """The per-node purity test agrees with the loop over all supersets, on
    every minimal (K, J) double coset rep, pure for J or not."""
    group = weyl_group(matrices[name])
    n = matrices[name].size
    subsets = [s for size in range(n + 1) for s in combinations(range(n), size)]
    pure = 0
    for K in subsets:
        for J in subsets:
            for w in group.min_coset_reps(K, J, bound):
                expected = superset_purity_oracle(group, w, K, J)
                assert group.pure_for_proper_superset(w, K, J) == expected
                pure += not group.double_coset_intersection(w, J, K)
    assert pure  # the oracle ran on pure representatives, not only impure ones


def test_concurrent_enumeration(matrices):
    """Ball extension is safe under concurrent callers and stays canonical."""
    import threading

    from dominantk.coxeter import WeylGroup

    group = WeylGroup(matrices["hyper_rank3"])
    results = []

    def worker():
        results.append(tuple(w.word for w in group.ball(6)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == tuple(w.word for w in weyl_group(matrices["hyper_rank3"]).ball(6))
