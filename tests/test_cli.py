import io
from contextlib import redirect_stdout
from importlib import resources

import pytest

from dominantk.cli import main


def data_path(name):
    return str(resources.files("dominantk.data").joinpath(f"{name}.gcm"))


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def body(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_classify_e10():
    code, out = run(["classify", data_path("e10")])
    assert code == 0
    line = body(out)[0]
    assert "kind indefinite" in line
    assert "compact_type false" in line
    assert "extended_compact I0=0,1,2,3,4,5,6,7,8 J0=9" in line


def test_classify_header_has_hash_and_version():
    _, out = run(["classify", data_path("a2")])
    lines = out.splitlines()
    assert lines[0].startswith("# dominantk ")
    assert lines[1].startswith("# gcm sha256=")


def test_classify_tsv():
    code, out = run(["classify", data_path("affine_a1"), "--format", "tsv"])
    rows = dict(line.split("\t", 1) for line in body(out))
    assert rows["kind"] == "affine"
    assert rows["compact_type"] == "true"
    assert rows["symmetrizer"] == "1,1"


def test_spherical(capsys):
    code, out = run(["spherical", data_path("affine_a1"), "--format", "tsv"])
    assert code == 0
    assert [r.split("\t")[0] for r in body(out)] == ["{}", "0", "1"]


def test_coxeter_ball():
    code, out = run(
        ["coxeter", "ball", "--gcm", data_path("a2"), "--max-length", "3",
         "--format", "tsv"]
    )
    rows = [line.split("\t") for line in body(out)]
    assert len(rows) == 6
    assert rows[0] == ["e", "0"]
    assert rows[-1] == ["0,1,0", "3"]


def test_coxeter_cosets_and_pure():
    code, out = run(
        ["coxeter", "cosets", "--gcm", data_path("affine_a1"), "--j", "0",
         "--max-length", "3"]
    )
    assert [r.split("\t")[0] for r in body(out)] == ["e", "1", "1,0", "1,0,1"]
    code, out = run(
        ["coxeter", "pure", "--gcm", data_path("ext4"), "--k", "4", "--j", "1,2,3",
         "--max-length", "4", "--maximal"]
    )
    assert code == 0
    assert body(out)  # nonempty index set at this truncation


def test_weights_reduce():
    code, out = run(
        ["weights", "reduce", "--gcm", data_path("affine_a1"), "--weight=-1,2/0"]
    )
    rows = dict(line.split("\t", 1) for line in body(out))
    assert rows["status"] == "in-cone"
    assert rows["dominant"] == "1,0/1"
    assert rows["word"] == "0"


def test_weights_stratum_and_level():
    _, out = run(
        ["weights", "stratum", "--gcm", data_path("affine_a1"), "--weight", "2,0/0"]
    )
    assert dict(l.split("\t", 1) for l in body(out))["stratum"] == "1"
    _, out = run(
        ["weights", "level", "--gcm", data_path("affine_a1"), "--weight", "1,1/0"]
    )
    assert dict(l.split("\t", 1) for l in body(out))["level"] == "2"


def test_character_commands():
    code, out = run(
        ["character", "levi", "--gcm", data_path("affine_a1"), "--j", "1",
         "--weight", "0,2/0", "--format", "tsv"]
    )
    assert code == 0
    assert len(body(out)) == 3
    code, out = run(
        ["character", "spinor", "--gcm", data_path("a2"), "--j", "0,1"]
    )
    assert code == 0
    code, out = run(
        ["character", "numerator", "--gcm", data_path("affine_a1"),
         "--weight", "1,1/0", "--max-length", "2", "--format", "tsv"]
    )
    assert len(body(out)) == 5
    code, out = run(
        ["character", "dirac", "--gcm", data_path("affine_a1"), "--j", "1",
         "--weight", "0,0/0"]
    )
    assert body(out) == ["0"]
    code, out = run(
        ["character", "ambient", "--gcm", data_path("affine_a1"), "--j", "1",
         "--weight=-1,2/0"]
    )
    assert "ambient_dominant\ttrue" in out


def test_davis_commands():
    _, out = run(["davis", "nerve", "--gcm", data_path("hyper_rank3")])
    assert "f-vector\t7,12,6" in out
    code, out = run(
        ["davis", "hc", "--gcm", data_path("affine_a1"), "--k", "", "--max-length", "6"]
    )
    assert "H^1_c = Z" in out
    code, out = run(
        ["davis", "hc", "--gcm", data_path("affine_a1"), "--k", "",
         "--max-length", "6", "--method", "snf"]
    )
    assert "H^1_c = Z" in out
    code, out = run(
        ["davis", "hc-hat", "--gcm", data_path("ext4"), "--k", "1,2,3,4",
         "--max-length", "4"]
    )
    assert "H^0_c = Z" in out


def test_ktheory_commands():
    code, out = run(
        ["ktheory", "compact", "--gcm", data_path("affine_a1"), "--box", "2"]
    )
    assert code == 0
    rows = [l.split("\t") for l in body(out) if "\t" in l]
    degrees = {r[0] for r in rows}
    assert degrees == {"0", "1"}
    code, out = run(
        ["ktheory", "extended", "--gcm", data_path("ext4"), "--box", "1",
         "--max-length", "4"]
    )
    assert code == 0
    code, out = run(
        ["ktheory", "homology", "--gcm", data_path("affine_a1"), "--box", "1"]
    )
    assert any(l.startswith("-3\t") for l in body(out))
    code, out = run(
        ["ktheory", "predicates", "--gcm", data_path("ext4"),
         "--weight=1,1,1,-1/"]
    )
    assert "in_image_of_r\ttrue" in out
    code, out = run(
        ["ktheory", "oracle", "--gcm", data_path("affine_a1"), "--k", "",
         "--direction", "limit", "--max-length", "4", "--box", "1"]
    )
    assert code == 0


def test_ktheory_generators_attributable():
    code, out = run(
        ["ktheory", "compact", "--gcm", data_path("affine_a1"), "--box", "1",
         "--generators"]
    )
    gen_rows = [l for l in body(out) if l.startswith("gen\t")]
    assert gen_rows
    for row in gen_rows:
        parts = row.split("\t")
        assert len(parts) == 5  # gen, degree, K, word, weight


def test_determinism():
    args = ["ktheory", "compact", "--gcm", data_path("affine_a1"), "--box", "2"]
    assert run(args) == run(args)
    args = ["davis", "hc", "--gcm", data_path("hyper_rank3"), "--k", "0",
            "--max-length", "5", "--format", "tsv"]
    assert run(args) == run(args)


def test_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.gcm"
    bad.write_text("n 2\n2 -1\n0 2\n")
    code, _ = run(["classify", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error not-a-gcm:")

    code, _ = run(["classify", str(tmp_path / "missing.gcm")])
    assert code == 1

    with pytest.raises(SystemExit) as exc:
        run(["classify", str(bad), "--no-such-flag"])
    assert exc.value.code == 2

    code, _ = run(
        ["character", "levi", "--gcm", data_path("affine_a1"), "--j", "0,1",
         "--weight", "1,1/0"]
    )
    assert code == 1  # the Levi subset is not of finite type


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "Traceback" not in err
    return err


def test_levi_without_j_is_usage_error(capsys):
    err = _usage_error(
        ["character", "levi", "--gcm", data_path("affine_a1"), "--weight", "0,2/0"],
        capsys,
    )
    assert "--j" in err


def test_missing_weight_is_usage_error(capsys):
    for argv in (
        ["character", "levi", "--gcm", data_path("affine_a1"), "--j", "1"],
        ["ktheory", "predicates", "--gcm", data_path("ext4")],
    ):
        assert "--weight" in _usage_error(argv, capsys)


def test_negative_box_is_usage_error(capsys):
    err = _usage_error(
        ["ktheory", "compact", "--gcm", data_path("affine_a1"), "--box", "-1"], capsys
    )
    assert "--box" in err


def test_weight_syntax_errors():
    code, _ = run(
        ["weights", "stratum", "--gcm", data_path("affine_a1"), "--weight", "1,1"]
    )
    assert code == 1  # missing complement block when one is required


def test_help_documents_tsv_schema(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["davis", "hc", "--help"])
    assert exc.value.code == 0
    assert "tsv rows:" in capsys.readouterr().out
