import argparse
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

import dominantk
from dominantk.cli import build_parser, main
from dominantk.gcm import parse_gcm


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
        ["coxeter", "ball", "--gcm", data_path("a2"), "--max-length", "3"]
    )
    rows = [line.split("\t") for line in body(out)]
    assert len(rows) == 6
    assert rows[0] == ["e", "0"]
    assert rows[-1] == ["0,1,0", "3"]


def test_finite_ball_at_a_huge_length_bound():
    """A2 lists its 6 elements at a 20-digit bound: the walk ends at the
    first empty sphere."""
    argv = ["coxeter", "ball", "--gcm", data_path("a2"), "--max-length",
            "99999999999999999999"]
    proc = subprocess.run([sys.executable, "-m", "dominantk", *argv], capture_output=True,
                          text=True, env=_cli_env(), timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 0, proc.stderr
    assert [row.split("\t")[0] for row in body(proc.stdout)] == [
        "e", "0", "1", "0,1", "1,0", "0,1,0"]


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


#: runs argv[2:] with stdout to argv[1], then prints its exit status and peak
#: RSS in KB.  The child is forked from this small interpreter: a child of the
#: test process would count the test process's pages in its peak.
_PEAK = ("import resource, subprocess, sys\n"
         "with open(sys.argv[1], 'w') as out:\n"
         "    code = subprocess.call(sys.argv[2:], stdout=out)\n"
         "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")


def _peak_rss_mb(argv, sink):
    """Exit status and peak resident memory in MB of a CLI child writing
    stdout to ``sink``."""
    proc = subprocess.run([sys.executable, "-c", _PEAK, str(sink), sys.executable, "-m",
                           "dominantk", *argv], capture_output=True, text=True,
                          env=_cli_env(), timeout=60)
    code, kb = map(int, proc.stdout.split())
    return code, kb / 1024


def test_long_reduction_builds_no_element_chain(tmp_path):
    """A 20,000-letter chamber reduction on affine_a1 spells its word from
    w(rho), with no element per letter: the run peaks within 1 MB of a
    reduction of no letters in the same interpreter (19.2 MB against 19.6 MB
    with CPython 3.11 on Linux x86-64, where an element chain peaked at
    25.6 MB)."""
    reduce = ["weights", "reduce", "--gcm", data_path("affine_a1")]
    code, short = _peak_rss_mb(reduce + ["--weight=1,1/0"], tmp_path / "short.txt")
    assert code == 0
    code, long = _peak_rss_mb(reduce + ["--weight=-20000,20001/0"], tmp_path / "long.txt")
    assert code == 0
    rows = dict(line.split("\t", 1) for line in body((tmp_path / "long.txt").read_text()))
    assert (rows["status"], rows["steps"]) == ("in-cone", "20000")
    assert rows["word"] == ",".join(["1", "0"] * 10_000)
    assert long - short <= 1.0, (short, long)


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


@pytest.mark.parametrize("argv", [
    ["coxeter", "ball", "--gcm", data_path("a2")],
    ["character", "numerator", "--gcm", data_path("affine_a1"), "--weight", "1,1/0"],
    ["davis", "hc", "--gcm", data_path("affine_a1")],
    ["ktheory", "oracle", "--gcm", data_path("affine_a1")],
], ids=lambda argv: "-".join(argv[:2]))
def test_negative_max_length_is_usage_error(argv, capsys):
    assert "--max-length" in _usage_error(argv + ["--max-length", "-1"], capsys)


@pytest.mark.parametrize("argv", [
    ["coxeter", "ball", "--gcm", data_path("a2"), "--max-length", "x"],
    ["ktheory", "compact", "--gcm", data_path("affine_a1"), "--box", "1.5"],
    ["weights", "reduce", "--gcm", data_path("affine_a1"), "--weight=-1,2/0",
     "--max-steps", "many"],
], ids=lambda argv: argv[-2])
def test_non_integer_bound_is_usage_error(argv, capsys):
    err = _usage_error(argv, capsys)
    assert f"{argv[-2]}: expected a nonnegative integer, not '{argv[-1]}'" in err
    assert "_nonnegative" not in err


def test_negative_max_steps_is_usage_error(capsys):
    err = _usage_error(
        ["weights", "reduce", "--gcm", data_path("affine_a1"), "--weight=-1,2/0",
         "--max-steps", "-1"],
        capsys,
    )
    assert "--max-steps" in err


# Options these subcommands took and never read: their rows are tab-separated
# whatever --format says, and the reports below take no length bound or box.
_NEVER_READ = [
    (["coxeter", "ball", "--gcm", data_path("a2"), "--max-length", "1"], "--format tsv"),
    (["coxeter", "cosets", "--gcm", data_path("affine_a1"), "--j", "0", "--max-length", "3"],
     "--format tsv"),
    (["coxeter", "pure", "--gcm", data_path("ext4"), "--k", "4", "--j", "1,2,3",
      "--max-length", "4"], "--format human"),
    (["weights", "reduce", "--gcm", data_path("affine_a1"), "--weight=-1,2/0"], "--format tsv"),
    (["weights", "stratum", "--gcm", data_path("affine_a1"), "--weight", "1,1/0"],
     "--format tsv"),
    (["weights", "level", "--gcm", data_path("affine_a1"), "--weight", "1,1/0"], "--format tsv"),
    (["character", "ambient", "--gcm", data_path("affine_a1"), "--j", "1", "--weight=-1,2/0"],
     "--format tsv"),
    (["davis", "nerve", "--gcm", data_path("hyper_rank3")], "--max-length 6 --format tsv"),
    (["ktheory", "compact", "--gcm", data_path("affine_a1"), "--box", "1"],
     "--max-length 99 --format tsv"),
    (["ktheory", "extended", "--gcm", data_path("ext4"), "--box", "1", "--max-length", "2"],
     "--format tsv"),
    (["ktheory", "homology", "--gcm", data_path("affine_a1"), "--box", "1"],
     "--max-length 4 --format tsv"),
    (["ktheory", "predicates", "--gcm", data_path("ext4"), "--weight=1,1,1,-1/"],
     "--box 1 --max-length 4 --format tsv"),
]


@pytest.mark.parametrize("argv,unread", [
    (["ktheory", "compact", "--gcm", data_path("affine_a1"), "--k", "0", "--weight=1,1/0"],
     "--k 0 --weight=1,1/0"),
    (["ktheory", "extended", "--gcm", data_path("ext4"), "--k", "1"], "--k 1"),
    (["ktheory", "predicates", "--gcm", data_path("ext4"), "--weight", "1,1,1,1",
      "--generators", "--k", "2"], "--generators --k 2"),
    (["ktheory", "oracle", "--gcm", data_path("affine_a1"), "--generators", "--weight=5"],
     "--generators --weight=5"),
    (["coxeter", "ball", "--gcm", data_path("a2"), "--max-length", "1", "--j", "0", "--k", "1"],
     "--j 0 --k 1"),
    (["davis", "nerve", "--gcm", data_path("hyper_rank3"), "--k", "1"], "--k 1"),
    (["character", "spinor", "--gcm", data_path("affine_a1"), "--j", "1", "--weight=0,2/0"],
     "--weight=0,2/0"),
    (["character", "levi", "--gcm", data_path("affine_a1"), "--j", "1", "--weight", "0,2/0",
      "--max-length", "3"], "--max-length 3"),
    (["character", "dirac", "--gcm", data_path("g2"), "--j", "0,1", "--weight=-2,3",
      "--max-length", "3"], "--max-length 3"),
    (["weights", "level", "--gcm", data_path("affine_a1"), "--weight", "1,1/0",
      "--max-steps", "2"], "--max-steps 2"),
    (["weights", "stratum", "--gcm", data_path("affine_a1"), "--weight", "1,1/0",
      "--max-steps", "2"], "--max-steps 2"),
    *(pytest.param(argv + unread.split(), unread, id="-".join(argv[:2]) + "-dropped")
      for argv, unread in _NEVER_READ),
], ids=lambda v: "-".join(v[:2]) if isinstance(v, list) else "unread")
def test_option_the_subcommand_never_reads_is_usage_error(argv, unread, capsys):
    assert f"unrecognized arguments: {unread}" in _usage_error(argv, capsys)


# One valid command line per subcommand, with every option it registers set.
_EVERY_SUBCOMMAND = [
    ["classify", data_path("affine_a1"), "--format", "tsv"],
    ["spherical", data_path("affine_a1"), "--format", "human"],
    ["coxeter", "ball", "--gcm", data_path("a2"), "--max-length", "2"],
    ["coxeter", "cosets", "--gcm", data_path("affine_a1"), "--j", "0", "--k", "1",
     "--max-length", "3"],
    ["coxeter", "pure", "--gcm", data_path("ext4"), "--k", "4", "--j", "1,2,3",
     "--max-length", "4", "--maximal"],
    ["weights", "reduce", "--gcm", data_path("affine_a1"), "--weight=-1,2/0",
     "--max-steps", "10"],
    ["weights", "stratum", "--gcm", data_path("affine_a1"), "--weight", "1,1/0"],
    ["weights", "level", "--gcm", data_path("affine_a1"), "--weight", "1,1/0"],
    ["character", "levi", "--gcm", data_path("a2"), "--j", "0,1", "--weight", "1,1",
     "--format", "tsv"],
    ["character", "dirac", "--gcm", data_path("g2"), "--j", "0,1", "--weight=-2,3",
     "--format", "human"],
    ["character", "numerator", "--gcm", data_path("affine_a1"), "--weight", "1,1/0",
     "--max-length", "2", "--format", "tsv"],
    ["character", "spinor", "--gcm", data_path("affine_a1"), "--j", "1", "--format", "tsv"],
    ["character", "ambient", "--gcm", data_path("affine_a1"), "--j", "1", "--weight=-1,2/0"],
    ["davis", "nerve", "--gcm", data_path("hyper_rank3")],
    ["davis", "hc", "--gcm", data_path("affine_a1"), "--k", "", "--max-length", "4",
     "--method", "sector", "--format", "tsv"],
    ["davis", "hc-hat", "--gcm", data_path("ext4"), "--k", "1,2,3,4", "--max-length", "3",
     "--format", "tsv"],
    ["ktheory", "compact", "--gcm", data_path("affine_a1"), "--box", "1", "--generators"],
    ["ktheory", "extended", "--gcm", data_path("ext4"), "--box", "1", "--max-length", "2",
     "--generators"],
    ["ktheory", "homology", "--gcm", data_path("affine_a1"), "--box", "1", "--generators"],
    ["ktheory", "predicates", "--gcm", data_path("ext4"), "--weight=1,1,1,-1/"],
    ["ktheory", "oracle", "--gcm", data_path("affine_a1"), "--k", "", "--direction", "colimit",
     "--max-length", "3", "--box", "1", "--format", "tsv"],
]


def _subcommand(argv):
    return argv[0] if argv[0] in ("classify", "spherical") else "-".join(argv[:2])


def test_every_subcommand_is_listed():
    assert len({_subcommand(argv) for argv in _EVERY_SUBCOMMAND}) == 21


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=_subcommand)
def test_subcommand_reads_every_option_it_registers(argv):
    """Its runner reads each option parsed into the namespace; ``--gcm`` and
    the dispatch fields are read by ``main``."""
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(argv, namespace=Recording())
    registered = set(vars(args)) - {"gcm", "run", "cmd", "sub"}
    A, runner = parse_gcm(Path(args.gcm).read_text(encoding="utf-8")), args.run
    read.clear()
    runner(A, args, io.StringIO())
    assert registered - read == set()


def test_weight_syntax_errors(capsys):
    code, _ = run(
        ["weights", "stratum", "--gcm", data_path("affine_a1"), "--weight", "1,1"]
    )
    assert code == 1  # missing complement block when one is required
    code, _ = run(
        ["weights", "stratum", "--gcm", data_path("affine_a1"), "--weight", "1,1/0/7"]
    )
    assert code == 1  # a second '/' is refused, not read as 1,1/0
    assert capsys.readouterr().err.endswith(
        "error invalid-input: weight '1,1/0/7' has more than one '/'\n")


@pytest.mark.parametrize("flags,message", [
    (["--j", "0,1", "--weight", "1,1,1"], "weight needs 2 coroot values"),
    (["--j", "5", "--weight", "1,1"], "unknown node label '5'"),
    (["--j", "0", "--weight", "1,0//5"], "weight '1,0//5' has more than one '/'"),
    (["--j", "0,0", "--weight", "1,1"], "node label '0' given twice"),
], ids=["weight-length", "node-label", "weight-slashes", "repeated-label"])
def test_bad_input_error_line(flags, message, capsys):
    code, _ = run(["character", "levi", "--gcm", data_path("a2")] + flags)
    assert code == 1
    assert capsys.readouterr().err == f"error invalid-input: {message}\n"


def test_numerator_without_bound_or_subset(capsys):
    """The whole group needs a length bound on a finite matrix too."""
    code, _ = run(["character", "numerator", "--gcm", data_path("a2"), "--weight", "1,1"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error invalid-input: a length bound is required when no subset J is given\n")


def test_numerator_refuses_subset_with_bound(capsys):
    """A W_J sum ignores length, so --j with --max-length is refused."""
    code, _ = run(["character", "numerator", "--gcm", data_path("affine_a1"),
                   "--weight", "1,1/0", "--j", "1", "--max-length", "0"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error invalid-input: a subset J or a length bound, not both\n")


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))


def test_oversized_box_is_refused_before_enumeration():
    """8 * 10^9 regular weights of hyper_rank3 at --box 2000 pass the element
    cap: one error line under a 1.5 GB address-space limit, no traceback."""
    argv = ["ktheory", "compact", "--gcm", data_path("hyper_rank3"), "--box", "2000"]
    proc = subprocess.run([sys.executable, "-m", "dominantk", *argv], capture_output=True,
                          text=True, env=_cli_env(), timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 1
    assert proc.stderr == ("error resource-exceeded: stratum K = () of Box(coroot_bound=2000,"
                           " complement_bound=2000) has 8000000000 dominant weights, past the"
                           " cap of 1000000\n")


def test_levi_character_is_refused_before_freudenthal():
    """A2 on J = (0,) at (2999999, 0) has 1,500,000 J-dominant weights, past
    the cap of 1,000,000: they are counted as they are collected, so the
    run refuses before the recursion, which is quadratic in string length."""
    argv = ["character", "levi", "--gcm", data_path("a2"), "--j", "0", "--weight", "2999999,0"]
    proc = subprocess.run([sys.executable, "-m", "dominantk", *argv], capture_output=True,
                          text=True, env=_cli_env(), timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error resource-exceeded: Levi character on (0,) exceeded"
                                  " the cap of 1000000 weights (")
    assert proc.stderr.endswith(" dominant weights reached)\n")


def test_help_documents_tsv_schema(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["davis", "hc", "--help"])
    assert exc.value.code == 0
    assert "tsv rows:" in capsys.readouterr().out


def _cli_env():
    src = str(Path(dominantk.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def test_python_m_dominantk_runs_the_cli():
    argv = ["coxeter", "ball", "--gcm", data_path("a2"), "--max-length", "1"]
    proc = subprocess.run([sys.executable, "-m", "dominantk", *argv],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(argv)[1]


def test_closed_stdout_exits_as_sigpipe():
    """A reader that takes one byte of a 90 KB listing and closes the pipe
    ends the run with status 141 and an empty stderr; a missing matrix file
    is still bad input."""
    argv = ["coxeter", "ball", "--gcm", data_path("e10"), "--max-length", "6"]
    proc = subprocess.Popen([sys.executable, "-m", "dominantk", *argv], env=_cli_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == b"#"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""
    argv[3] = "missing.gcm"
    proc = subprocess.run([sys.executable, "-m", "dominantk", *argv],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error invalid-input: ")


def _close_stdout():
    os.close(1)


@pytest.mark.parametrize("case", ["closed", "full", "missing"])
def test_output_failures_are_not_bad_input(case, tmp_path):
    """A closed stdout (``>&-``) or a full device (``> /dev/full``) ends the
    run with one ``error output`` line and status 1; an unreadable matrix
    file stays ``error invalid-input``.  ``| head`` is status 141, above."""
    gcm = data_path("a2") if case != "missing" else str(tmp_path / "missing.gcm")
    argv = [sys.executable, "-m", "dominantk", "classify", gcm]
    if case == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full" if case == "full" else os.devnull, "wb") as sink:
        proc = subprocess.run(argv, stdout=sink, stderr=subprocess.PIPE, text=True,
                              env=_cli_env(), timeout=60,
                              preexec_fn=_close_stdout if case == "closed" else None)
    assert proc.returncode == 1
    code = "invalid-input" if case == "missing" else "output"
    assert proc.stderr.startswith(f"error {code}: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
