"""The benchmark's workloads: seeded inputs, the timed work and its correctness gate.

``--seed`` picks a permutation of the matrix nodes.  The library only ever
sees the relabelled matrix and subsets, weights and Levi sets mapped through
that permutation, so every pinned invariant below holds for every seed while
ShortLex words, tie-breaks and pivot orders change with it.

Each workload checks its answer two ways: against invariants pinned here
(at full size only) and against an independent route computed in the same
run (maximal reps inside the pure reps, the Weyl dimension formula, SNF
against the sector scan, derived (co)limit oracles against the closed
forms).  A check that mismatches or raises counts as a failed operation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from dominantk import characters, davis, gcm, ktheory
from dominantk.coxeter import weyl_group
from dominantk.data import load
from dominantk.gcm import GeneralizedCartanMatrix, gcm_from_rows
from dominantk.weights import Box, Realization, build_realization

MATRIX = {
    "e10_report": "e10",
    "e10_characters": "e10",
    "sector_homology": "hyper_rank3",
}

#: sizes of the measured runs, and the reduced sizes the self-test uses
FULL = {
    "e10_report": {"L": 3},
    "e10_characters": {"ball": 8},
    "sector_homology": {"L": 10, "oracle_L": 6},
}
SMALL = {
    "e10_report": {"L": 2},
    "e10_characters": {"ball": 5},
    "sector_homology": {"L": 6, "oracle_L": 4},
}

#: invariants of the full-size runs, the same under every node permutation
PINNED = {
    "e10_report": {
        "summands": 6,
        "rank_degree_8": 7,
        "rank_degree_0": 1,
        "top_subsets": [[[], 3], [[0], 1], [[1], 1], [[2], 1], [[9], 1]],
    },
    "e10_characters": {
        "ball": 35761,
        "numerator_terms": 35761,
        "numerator_units": True,
        "levi_terms": [3081, 601],
    },
    "sector_homology": {
        "f_vector": [1423, 3840, 2418],
        "frontier_f_vector": [426, 426],
        "cohomology": [[0, []], [0, []], [1, []]],
    },
}

#: Levi sets in E10 node numbers, the multiple k of rho_J taken as highest
#: weight, and |positive roots of J| for the Weyl dimension formula
#: dim L(k rho_J) = (k + 1) ** |positive roots|
LEVI = (
    ((1, 2, 3, 4), 2, 10),  # A4
    ((4, 5, 6, 8), 1, 12),  # D4
)


@dataclass
class Inputs:
    """The relabelled matrix with its set-up products and the permutation."""

    A: GeneralizedCartanMatrix
    perm: tuple[int, ...]  # perm[i]: new index of original node i
    cls: gcm.TypeClassification
    real: Realization

    def mapped(self, nodes) -> tuple[int, ...]:
        return tuple(sorted(self.perm[i] for i in nodes))

    def original(self, nodes) -> list[int]:
        return sorted(self.perm.index(i) for i in nodes)


class Gate:
    """Counts checked operations and keeps a note of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, actual, expected) -> None:
        self.attempted += 1
        if actual != expected:
            self.failures.append(f"{name}: got {actual!r}, expected {expected!r}")

    def fail(self, note: str) -> None:
        self.attempted += 1
        self.failures.append(note)


def node_permutation(n: int, seed: int) -> tuple[int, ...]:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return tuple(perm)


def relabel(A: GeneralizedCartanMatrix, perm) -> GeneralizedCartanMatrix:
    rows = [[0] * A.size for _ in range(A.size)]
    for i, row in enumerate(A.entries):
        for j, x in enumerate(row):
            rows[perm[i]][perm[j]] = x
    return gcm_from_rows(rows)


def setup(workload: str, seed: int, span) -> Inputs:
    """Load and relabel the matrix, then classify it and build its spherical
    poset and weight realization: the per-matrix work every command repeats."""
    base = load(MATRIX[workload])
    perm = node_permutation(base.size, seed)
    A = relabel(base, perm)
    with span("gcm.classify"):
        cls = gcm.classify_type(A)
        gcm.spherical_poset(A)
    return Inputs(A, perm, cls, build_realization(A))


def e10_report(inp: Inputs, gate: Gate, size) -> dict:
    A, L = inp.A, size["L"]
    i0 = inp.cls.extended_compact[0]
    report = ktheory.extended_type_report(A, L, Box(1, 0))
    group = weyl_group(A)
    top = [s for s in report.summands if s.degree == report.top_degree]
    for s in top:
        pure = {w.word for w in group.pure_reps(s.subset, i0, L)}
        gate.check(f"maximal reps of K={s.subset} are pure", set(s.index_words) <= pure, True)
    return {
        "summands": len(report.summands),
        "rank_degree_8": report.rank_in_degree(8),
        "rank_degree_0": report.rank_in_degree(0),
        "top_subsets": sorted([inp.original(s.subset), s.index_size] for s in top),
    }


def e10_characters(inp: Inputs, gate: Gate, size) -> dict:
    real, bound = inp.real, size["ball"]
    ball = weyl_group(inp.A).ball(bound)
    numerator = characters.weyl_numerator(real, real.rho(), length_bound=bound)
    terms = []
    for nodes, k, positive in LEVI:
        J = inp.mapped(nodes)
        mu = tuple(k * x for x in real.partial_rho(J))
        char = characters.levi_irreducible_character(real, J, mu)
        gate.check(f"Weyl dimension of L({k} rho_J), J={J}",
                   sum(char.terms.values()), (k + 1) ** positive)
        terms.append(len(char))
    return {
        "ball": len(ball),
        "numerator_terms": len(numerator),
        "numerator_units": all(abs(c) == 1 for c in numerator.terms.values()),
        "levi_terms": terms,
    }


def sector_homology(inp: Inputs, gate: Gate, size) -> dict:
    A, L = inp.A, size["L"]
    complex_, frontier = davis.davis_truncation(A, (), L)
    snf = davis.snf_cohomology(complex_, frontier)
    scan = davis.sector_filtration_cohomology(A, (), L).cohomology()
    gate.check("SNF cohomology equals the sector scan", snf.groups, scan.groups)

    box, oracle_L = Box(1, 0), size["oracle_L"]
    compact = ktheory.compact_type_report(A, box)
    homology = ktheory.k_homology_report(A, box)
    degrees = range(compact.top_degree + 1)
    ranks = []
    for K in (K for k in range(A.size + 1) for K in combinations(range(A.size), k)):
        lim = ktheory.derived_limit_oracle(
            A, ktheory.strata_limit_functor(A, K, oracle_L, box), "limit")
        col = ktheory.derived_limit_oracle(
            A, ktheory.strata_colimit_functor(A, K, oracle_L, box), "colimit")
        lim_ranks = [lim.free_rank(p) for p in degrees]
        col_ranks = [col.free_rank(p) for p in degrees]
        gate.check(f"limit ranks for K={K} equal the compact report", lim_ranks,
                   [compact.rank_in_degree(p, K) for p in degrees])
        gate.check(f"colimit ranks for K={K} equal the homology report", col_ranks,
                   [homology.rank_in_degree(p - homology.torus_rank, K) for p in degrees])
        ranks.append([inp.original(K), lim_ranks, col_ranks])
    return {
        "f_vector": list(complex_.f_vector()),
        "frontier_f_vector": list(frontier.f_vector()),
        "cohomology": [[free, list(torsion)] for free, torsion in snf.groups],
        "oracle_ranks": sorted(ranks),
    }


RUN = {
    "e10_report": e10_report,
    "e10_characters": e10_characters,
    "sector_homology": sector_homology,
}


def run(workload: str, inp: Inputs, gate: Gate, small: bool) -> dict:
    """Run one workload, check it, and return its seed-independent invariants."""
    invariants = RUN[workload](inp, gate, (SMALL if small else FULL)[workload])
    if not small:
        for key, expected in PINNED[workload].items():
            gate.check(key, invariants[key], expected)
    return invariants
