"""Values stay immutable, as the README promises, and the package imports
without the modules whose set-up every command would pay for."""

import copy
import pickle
import subprocess
import sys

import pytest

from dominantk.data import load
from dominantk.davis import (
    hat_sector_cohomology,
    nerve_complex,
    sector_filtration_cohomology,
    snf_cohomology,
)
from dominantk.errors import ResourceExceededError
from dominantk.gcm import GeneralizedCartanMatrix, classify_type, spherical_poset
from dominantk.ktheory import extended_type_report, splitting_maps, st_r_image_predicates
from dominantk.weights import Box, build_realization
from test_cli import _cli_env


def record_samples():
    """One value of each record type, keyed by the type's name."""
    ext4, affine = load("ext4"), load("affine_a1")
    poset = spherical_poset(ext4)
    nerve = nerve_complex(poset)
    sector = sector_filtration_cohomology(ext4, (), 3)
    report = extended_type_report(ext4, 3, Box(1, 0))
    summand = report.summands[0]
    values = [
        classify_type(ext4), poset, nerve, snf_cohomology(nerve), sector.steps[0], sector,
        hat_sector_cohomology(ext4, (), 3), summand.basis, summand, report,
        st_r_image_predicates(ext4, (1, 1, 1, 1)), splitting_maps(affine, (1,), (-1, 1, 0)),
        report.box, build_realization(ext4).chamber_reduce((1, 1, 1, -2)),
    ]
    return {type(v).__name__: v for v in values}


RECORD_TYPES = (
    "Box", "ChamberReduction", "HatSectorReport", "ImagePredicates", "IntegerCohomology",
    "KTheoryReport", "SectorReport", "SectorStep", "SimplicialComplexDesc", "SphericalPoset",
    "SplitRecord", "StratumBasis", "Summand", "TypeClassification",
)


@pytest.fixture(scope="module")
def samples():
    return record_samples()


def test_every_record_type_is_sampled(samples):
    assert tuple(sorted(samples)) == RECORD_TYPES


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_record_fields_refuse_assignment(samples, name):
    value = samples[name]
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert type(value)(*value) == value
    assert repr(value).startswith(f"{name}({value._fields[0]}=")


def test_matrix_is_immutable_and_keeps_derived_data_apart():
    A, B = load("e10"), load("e10")
    for field in ("entries", "labels", "_memo", "extra"):
        with pytest.raises(AttributeError):
            setattr(A, field, None)
    with pytest.raises(AttributeError):
        del A.entries
    assert A == B and hash(A) == hash(B) and A is not B
    classify_type(A)
    assert A._memo and not B._memo and A == B
    assert repr(A) == (f"GeneralizedCartanMatrix(entries={A.entries!r},"
                       f" labels={A.labels!r})")
    for twin in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
        assert twin == A and hash(twin) == hash(A) and twin._memo == {}
    assert A != GeneralizedCartanMatrix(A.entries, tuple(reversed(A.labels)))


def test_box_refusal_names_the_box():
    real = build_realization(load("hyper_rank3"))
    with pytest.raises(ResourceExceededError) as exc:
        real.dominant_box_weights((), Box(coroot_bound=2000, complement_bound=7))
    assert str(exc.value) == ("stratum K = () of Box(coroot_bound=2000, complement_bound=7)"
                              " has 8000000000 dominant weights, past the cap of 1000000")


def test_import_loads_neither_dataclasses_nor_fractions():
    """Both cost every command their import and, for dataclasses, generated
    code per record class."""
    script = ("import sys\n"
              "import dominantk, dominantk.davis, dominantk.ktheory, dominantk.cli\n"
              "print(sorted({'dataclasses', 'fractions'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_cli_env(), timeout=60)
    assert proc.stdout == "[]\n", proc.stderr
