import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominantk.errors import (NotAffineError, NotDominantError, NotFiniteTypeError,
                              ResourceExceededError)
from dominantk.coxeter import weyl_group
from dominantk.data import load
from dominantk.gcm import spherical_poset
from dominantk.weights import (IN_CONE, NOT_IN_CONE, UNDECIDED, Box, ChamberReduction,
                               build_realization)


def test_realization_shapes(matrices):
    assert build_realization(matrices["a2"]).rank == 2
    real = build_realization(matrices["affine_a1"])
    assert real.rank == 3
    assert real.complement_indices == (0,)
    assert real.root_coords[0] == (2, -2, 1)
    assert real.root_coords[1] == (-2, 2, 0)
    assert build_realization(matrices["e10"]).rank == 10


def test_simple_roots_independent(matrices):
    from dominantk import intlinalg

    for name in ("a2", "affine_a1", "affine_a2", "e9"):
        real = build_realization(matrices[name])
        columns = [list(real.root_coords[j]) for j in range(real.coroot_count)]
        matrix = [list(row) for row in zip(*columns)]
        assert intlinalg.rank(matrix) == real.coroot_count


def test_reflect_formula(matrices):
    real = build_realization(matrices["affine_a1"])
    lam = (-1, 2, 0)
    assert real.reflect(0, lam) == (1, 0, 1)
    assert real.reflect(0, real.reflect(0, lam)) == lam
    fixed = (0, 3, 1)
    assert real.reflect(0, fixed) == fixed


def test_reflect_pairing_identity(matrices):
    # <r_i lam, h_j> = <lam, h_j> - <lam, h_i> <alpha_i, h_j>, and the
    # realization pins <alpha_i, h_j> = a[j][i]
    rng = random.Random(5)
    for name in ("b2", "affine_a2", "hyper_rank3"):
        A = matrices[name]
        real = build_realization(A)
        for _ in range(20):
            lam = tuple(rng.randint(-4, 4) for _ in range(real.rank))
            for i in range(A.size):
                img = real.reflect(i, lam)
                for j in range(A.size):
                    assert img[j] == lam[j] - lam[i] * A.entries[j][i]


def reference_reflect(real, i, lam):
    """Dense reflection: lam - <lam, h_i> alpha_i over every coordinate."""
    v = lam[i]
    return tuple(x - v * a for x, a in zip(lam, real.root_coords[i]))


def test_reflect_matches_dense_reference(matrices):
    """On every bundled matrix, the affine and singular ones with their
    complement coordinates included."""
    rng = random.Random(11)
    for A in matrices.values():
        real = build_realization(A)
        for _ in range(30):
            lam = tuple(rng.randint(-4, 4) for _ in range(real.rank))
            for i in range(A.size):
                assert real.reflect(i, lam) == reference_reflect(real, i, lam)


def test_chamber_reduce_examples(matrices):
    real = build_realization(matrices["affine_a1"])
    dominant = (2, 1, 0)
    res = real.chamber_reduce(dominant)
    assert res.status == IN_CONE and res.weight == dominant and res.steps == 0
    res = real.chamber_reduce((-1, 2, 0))
    assert res.status == IN_CONE
    assert res.weight == (1, 0, 1)
    assert res.word == (0,)
    assert real.chamber_reduce((-1, 0, 0)).status == NOT_IN_CONE


def test_weight_of_the_wrong_shape_is_refused(matrices):
    """A weight needs one integer per coroot and complement coordinate:
    anything else is refused, not truncated or carried along."""
    real = build_realization(matrices["affine_a1"])
    assert real.check_weight([1, 1, 0]) == (1, 1, 0)
    for bad in ((1, 1), (1, 1, 0, 3), (1, 0.5, 0), ("1", 1, 0)):
        with pytest.raises(ValueError, match="needs 3 integer coordinates"):
            real.check_weight(bad)
    with pytest.raises(ValueError, match="needs 3 integer coordinates"):
        real.chamber_reduce((1, 1, 0, 3))
    assert real.chamber_reduce([-1, 2, 0]) == real.chamber_reduce((-1, 2, 0))


def test_chamber_reduce_level_zero_undecided(matrices):
    real = build_realization(matrices["affine_a1"])
    assert real.chamber_reduce((1, -1, 0)).status == UNDECIDED


def test_chamber_reduce_step_bound(matrices):
    """A reduction of k letters is decided with max_steps = k and undecided
    with k - 1, where steps reports the bound."""
    real = build_realization(matrices["affine_a2"])
    lam = (-3, 2, 2, 0)
    k = real.chamber_reduce(lam).steps
    assert k == 5
    res = real.chamber_reduce(lam, max_steps=k)
    assert (res.status, res.steps, len(res.word)) == (IN_CONE, k, k)
    for bound in (k - 1, 0):
        assert real.chamber_reduce(lam, max_steps=bound) == ChamberReduction(
            UNDECIDED, None, None, bound)


def test_chamber_reduce_refuses_a_negative_step_bound(matrices):
    """A negative step bound is refused, not read as undecided: (1,1,1) is
    dominant and needs no step at all."""
    real = build_realization(matrices["hyper_rank3"])
    assert real.chamber_reduce((1, 1, 1), max_steps=0) == ChamberReduction(
        IN_CONE, (1, 1, 1), (), 0)
    for bound in (-1, -2):
        with pytest.raises(ValueError, match="step bound must be >= 0"):
            real.chamber_reduce((1, 1, 1), max_steps=bound)


def reference_dominantize(real, lam, J):
    """Reflect at the first negative value in the order of J, flipping the
    sign each time."""
    sign = 1
    while (neg := next((j for j in J if lam[j] < 0), None)) is not None:
        lam, sign = real.reflect(neg, lam), -sign
    return lam, sign


@pytest.mark.parametrize("name", ["affine_a2", "hyper_rank3", "e9"])
def test_dominantize_matches_loop_reference(matrices, name):
    """The strip within J ends where the one-letter loop does, with its sign,
    on every spherical J."""
    rng = random.Random(5)
    real = build_realization(matrices[name])
    for J in spherical_poset(matrices[name]).members:
        for _ in range(10):
            lam = tuple(rng.randint(-3, 3) for _ in range(real.rank))
            assert real.dominantize(lam, J) == reference_dominantize(real, lam, J)


def test_dominantize_refuses_an_infinite_subset(matrices):
    """W_J of affine A1 is infinite, so no J-dominant weight need be reached:
    the subset is refused before any reflection."""
    real = build_realization(matrices["affine_a1"])
    with pytest.raises(NotFiniteTypeError, match=r"\(0, 1\)"):
        real.dominantize((-1, -1, 0), (0, 1))


@pytest.mark.parametrize("name", ["affine_a1", "affine_a2"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_chamber_reduce_confluence(matrices, name, seed):
    """The dominant representative does not depend on the reflection rule:
    reflecting at a random negative coordinate ends where chamber_reduce,
    which takes the least one, does.  On affine_a1 a step never has two
    negative coordinates (that would make the level negative), so the
    choices happen on affine_a2."""
    rng = random.Random(seed)
    real = build_realization(matrices[name])
    lam = tuple(rng.randint(-4, 4) for _ in range(real.rank))
    default = real.chamber_reduce(lam)
    choices = random.Random(seed + 1)
    status, current, letters = UNDECIDED, lam, []
    if real.affine_level(lam) < 0:
        status = NOT_IN_CONE
    else:
        for _ in range(real.default_max_steps(lam) + 1):
            negatives = [i for i in range(real.coroot_count) if current[i] < 0]
            if not negatives:
                status = IN_CONE
                break
            i = choices.choice(negatives)
            current = real.reflect(i, current)
            letters.append(i)
    assert default.status == status
    if status == IN_CONE:
        assert default.weight == current
        group = weyl_group(matrices[name])
        assert real.act(default.word, lam) == current
        assert group.element(default.word).word == default.word  # ShortLex
        assert real.act(group.element(reversed(letters)).word, lam) == current


def test_cone_closed_under_addition(matrices):
    rng = random.Random(11)
    real = build_realization(matrices["affine_a1"])
    group = weyl_group(matrices["affine_a1"])
    ball = group.ball(5)
    samples = []
    for _ in range(12):
        dom = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(-2, 2))
        samples.append(real.act(rng.choice(ball).word, dom))
    for lam in samples:
        for mu in samples:
            total = tuple(a + b for a, b in zip(lam, mu))
            assert real.chamber_reduce(total).status == IN_CONE


def test_stratum(matrices):
    real = build_realization(matrices["affine_a1"])
    assert real.stratum((0, 0, 2)) == (0, 1)
    assert real.stratum(real.rho()) == ()
    assert real.stratum((2, 0, 0)) == (1,)
    with pytest.raises(NotDominantError):
        real.stratum((-1, 2, 0))


def test_stabilizer_of_dominant_weight(matrices):
    real = build_realization(matrices["hyper_rank3"])
    group = weyl_group(matrices["hyper_rank3"])
    for lam in [(0, 1, 1), (1, 0, 0), (0, 0, 2), (1, 1, 1)]:
        stratum = real.stratum(lam)
        stabilizer = {w for w in group.ball(4) if real.act(w.word, lam) == lam}
        parabolic = {
            w for w in group.subgroup_elements(stratum) if w.length <= 4
        }
        assert stabilizer == parabolic


def test_rho(matrices):
    real = build_realization(matrices["a2"])
    assert real.rho() == (1, 1)
    real = build_realization(matrices["affine_a1"])
    assert real.rho() == (1, 1, 0)
    assert real.stratum(real.rho()) == ()


def test_affine_level(matrices):
    real = build_realization(matrices["affine_a1"])
    assert real.dual_kac_labels == (1, 1)
    assert real.affine_level(real.rho()) == 2  # the dual Coxeter number
    assert real.affine_level((0, 0, 0)) == 0
    rng = random.Random(2)
    for _ in range(20):
        lam = tuple(rng.randint(-4, 4) for _ in range(3))
        assert real.affine_level(real.reflect(0, lam)) == real.affine_level(lam)
        assert real.affine_level(real.reflect(1, lam)) == real.affine_level(lam)
    with pytest.raises(NotAffineError):
        build_realization(matrices["a2"]).affine_level((1, 1))


def test_affine_level_e9(matrices):
    real = build_realization(matrices["e9"])
    labels = real.dual_kac_labels
    assert all(x > 0 for x in labels)
    # rho evaluates to the sum of the dual labels
    assert real.affine_level(real.rho()) == sum(labels)


def test_dominant_box_weights(matrices):
    real = build_realization(matrices["affine_a1"])
    line = real.dominant_box_weights((0, 1), Box(3, 2))
    assert line == tuple((0, 0, d) for d in range(-2, 3))
    regular = real.dominant_box_weights((), Box(2, 0))
    assert all(real.stratum(w) == () for w in regular)
    assert len(regular) == 4


def test_dominant_box_weights_refuses_a_negative_bound(matrices):
    """A negative bound is refused whatever K is, rather than giving an
    empty box for K = () and the origin for K = (0, 1, 2)."""
    real = build_realization(matrices["hyper_rank3"])
    for K in ((), (0, 1, 2)):
        for box in (Box(-1, 0), Box(1, -1)):
            with pytest.raises(ValueError, match="box bounds must be >= 0"):
                real.dominant_box_weights(K, box)


def test_action_routes_agree(matrices):
    """Acting on a root through weight coordinates matches the group's own
    root-lattice action."""
    import random as _random

    rng = _random.Random(17)
    for name in ("affine_a2", "hyper_rank3", "ext4"):
        A = matrices[name]
        real = build_realization(A)
        group = weyl_group(A)
        ball = group.ball(4)
        for _ in range(25):
            w = rng.choice(ball)
            j = rng.randrange(A.size)
            via_matrix = real.root_weight(group._root_images(w)[j])
            simple = tuple(1 if k == j else 0 for k in range(A.size))
            via_weights = real.act(w.word, real.root_weight(simple))
            assert via_matrix == via_weights


def test_e9_dual_labels_sum(matrices):
    real = build_realization(matrices["e9"])
    assert sum(real.dual_kac_labels) == 30
    assert real.affine_level(real.rho()) == 30


def test_dominant_box_past_the_cap_is_refused_before_building():
    """The box's weight count is the product of its ranges; past the
    group's element cap the stratum is refused without enumerating it."""
    A = load("hyper_rank3")  # a fresh matrix, so its group is its own
    weyl_group(A).element_cap = 999
    real = build_realization(A)
    assert len(real.dominant_box_weights((), Box(9, 0))) == 729
    with pytest.raises(ResourceExceededError,
                       match=r"K = \(\) of Box\(coroot_bound=10, complement_bound=0\)"
                             r" has 1000 dominant weights, past the cap of 999"):
        real.dominant_box_weights((), Box(10, 0))
