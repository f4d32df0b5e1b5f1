"""The cyclic collector around the walks: paused while a ball, a quotient, a
parabolic or a Weyl numerator grows, and left as the caller had it after."""

import contextlib
import gc
import json
import subprocess
import sys

import pytest

from dominantk import coxeter
from dominantk.characters import weyl_numerator
from dominantk.coxeter import WeylGroup, weyl_group
from dominantk.data import load
from dominantk.errors import ResourceExceededError
from dominantk.gcm import gcm_from_rows
from dominantk.weights import build_realization
from test_cli import _cli_env

AFFINE_A1 = [[2, -2], [-2, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


@pytest.fixture
def collector():
    """Whatever the test leaves, the collector is enabled afterwards."""
    yield
    gc.enable()


def _walks(A):
    """Each public walk on a fresh group of A, the numerator last."""
    group, real = weyl_group(A), build_realization(A)
    return [lambda: group.ball(5), lambda: group.min_coset_reps((1,), (0,), 5),
            lambda: group.subgroup_elements((0, 1)),
            lambda: weyl_numerator(real, real.rho(), length_bound=6),
            lambda: weyl_numerator(real, real.rho(), (0, 1))]


def _refused_walks():
    """Walks that pass the element cap part way through a sphere step."""
    yield lambda: WeylGroup(gcm_from_rows(AFFINE_A1), element_cap=10).ball(20)
    yield lambda: WeylGroup(gcm_from_rows(AFFINE_A1), element_cap=10).min_coset_reps((), (0,), 20)
    yield lambda: WeylGroup(gcm_from_rows(A3), element_cap=20).subgroup_elements((0, 1, 2))
    A = gcm_from_rows(A3)
    weyl_group(A).element_cap = 20
    real = build_realization(A)
    yield lambda: weyl_numerator(real, real.rho(), (0, 1, 2))


@pytest.mark.parametrize("enabled", [True, False])
def test_walks_leave_the_collector_as_they_found_it(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    for walk in _walks(load("hyper_rank3")):
        assert walk()
        assert gc.isenabled() is enabled
    for walk in _refused_walks():
        with pytest.raises(ResourceExceededError):
            walk()
        assert gc.isenabled() is enabled


def test_walks_pause_the_collector_while_they_grow(collector, monkeypatch):
    """A sphere step runs with the collector off; a bound already walked is
    answered from the held spheres, without the lock or the pause."""
    group, states, step = WeylGroup(load("e9")), [], WeylGroup._step

    def observed(self, *args):
        states.append(gc.isenabled())
        return step(self, *args)

    monkeypatch.setattr(WeylGroup, "_step", observed)
    group.ball(3)
    group.min_coset_reps((), (0, 1), 3)
    group.subgroup_elements((1, 2, 3))
    assert states and not any(states)
    pauses = []

    def counted():
        pauses.append(1)
        return contextlib.nullcontext()

    monkeypatch.setattr(coxeter, "paused_gc", counted)
    for L in (0, 2, 3):
        group.ball(L)
        group.min_coset_reps((0,), (0, 1), L)
    assert not pauses


# a fresh interpreter keeps few long-lived objects, so full collections come
# often enough for a leak to stand out from their saw-tooth
FLAT_MEMORY_SCRIPT = """
import json, random, sys, tracemalloc
from dominantk.characters import weyl_numerator
from dominantk.coxeter import weyl_group
from dominantk.gcm import gcm_from_rows
from dominantk.weights import build_realization

rng, sizes = random.Random(29), []
tracemalloc.start()
for step in range(400):
    n = rng.randint(3, 5)
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.choice((0, 0, -1, -1, -1, -2, -3))
            rows[j][i] = rng.choice((-1, -1, -2)) if rows[i][j] else 0
    A = gcm_from_rows(rows)
    real, group = build_realization(A), weyl_group(A)
    group.ball(3)
    group.min_coset_reps((), (0,), 3)
    weyl_numerator(real, real.rho(), length_bound=3)
    del A, real, group
    if step >= 100 and step % 20 == 0:
        sizes.append(tracemalloc.get_traced_memory()[0])
print(json.dumps(sizes))
"""


def test_walks_release_their_matrices_without_a_forced_collection():
    """400 seeded random matrices of 3-5 nodes, each loaded fresh, walk a ball,
    a right quotient and a numerator and are dropped.  A matrix and its cached
    group and realization refer to each other, so only the cyclic collector
    frees them: traced memory stays flat after a warm-up, with no gc.collect()
    in the loop, as the walks hand the collector back."""
    proc = subprocess.run([sys.executable, "-c", FLAT_MEMORY_SCRIPT], capture_output=True,
                          text=True, env=_cli_env(), timeout=120)
    sizes = json.loads(proc.stdout or "null")
    assert sizes, proc.stderr
    assert max(sizes) - min(sizes) < 2 * 2**20, sizes
