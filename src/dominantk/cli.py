"""Batch command line front end.

Every run prints a reproducibility header (tool version, canonical matrix
hash, truncation parameters) and deterministic output; domain errors exit
with status 1 and a single machine-parsable line, usage errors with 2.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from . import __version__
from .characters import (
    ambient_dominance_test,
    dirac_induction,
    levi_irreducible_character,
    spinor_character,
    weyl_numerator,
)
from .coxeter import weyl_group
from .davis import (
    davis_truncation,
    hat_sector_cohomology,
    nerve_f_vector,
    sector_filtration_cohomology,
    snf_cohomology,
)
from .errors import DominantKError
from .gcm import classify_type, parse_gcm, spherical_poset
from .ktheory import (
    Box,
    compact_type_report,
    derived_limit_oracle,
    extended_type_report,
    k_homology_report,
    st_r_image_predicates,
    strata_colimit_functor,
    strata_limit_functor,
)
from .weights import build_realization


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, not {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def _load_gcm(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_gcm(fh.read())
    except OSError as exc:  # unreadable input; main reads any other OSError as output
        raise ValueError(str(exc)) from None


def _subset(A, names: str):
    if names is None or names.strip() == "":
        return ()
    return A.label_indices(name.strip() for name in names.split(","))


def _subset_str(A, subset) -> str:
    return ",".join(A.labels[i] for i in sorted(subset)) if subset else "{}"


def _word_str(A, word) -> str:
    return ",".join(A.labels[i] for i in word) if word else "e"


def _parse_weight(real, text: str):
    head, _, tail = text.partition("/")
    if "/" in tail:
        raise ValueError(f"weight {text!r} has more than one '/'")
    coroot = [int(x) for x in head.split(",")] if head else []
    complement = [int(x) for x in tail.split(",")] if tail else []
    c = real.rank - real.coroot_count
    if len(coroot) != real.coroot_count or len(complement) != c:
        raise ValueError(
            f"weight needs {real.coroot_count} coroot values"
            + (f" and {c} complement values" if c else "")
        )
    return tuple(coroot) + tuple(complement)


def _weight_str(real, lam) -> str:
    m = real.coroot_count
    head = ",".join(str(x) for x in lam[:m])
    tail = ",".join(str(x) for x in lam[m:])
    return f"{head}/{tail}" if tail else head


def _print_character(out, real, char, fmt):
    lines = []
    for w, c in char.sorted_terms():
        if fmt == "tsv":
            lines.append(f"{c}\t{_weight_str(real, w)}")
        else:
            sign = "+" if c >= 0 else "-"
            mag = "" if abs(c) == 1 else str(abs(c))
            lines.append(f"{sign}{mag}e^{{({_weight_str(real, w)})}}")
    out.write("\n".join(lines or ["0"]) + "\n")


# The truncation options a grouped subcommand may register, in header order.
_PARAMS = ("max_length", "max_steps", "method", "box")


def _header(out, A, args):
    """Version and matrix hash; then, for a grouped subcommand, the truncation
    options it registers (each one that is set)."""
    out.write(f"# dominantk {__version__}\n")
    digest = hashlib.sha256(A.canonical_text().encode()).hexdigest()[:16]
    out.write(f"# gcm sha256={digest} size={A.size}\n")
    values = vars(args)
    if "sub" in values:
        rendered = "".join(f" {key.replace('_', '-')}={values[key]}"
                           for key in _PARAMS if values.get(key) is not None)
        out.write(f"# params{rendered}\n")


def _print_cohomology(out, coh, fmt, prefix="H^", suffix="_c"):
    for p in range(len(coh.groups)):
        if fmt == "tsv":
            tors = ",".join(str(d) for d in coh.torsion(p))
            out.write(f"{p}\t{coh.free_rank(p)}\t{tors}\n")
        else:
            out.write(f"{prefix}{p}{suffix} = {coh.describe(p)}\n")


def _print_words(out, A, elements):
    for w in elements:
        out.write(f"{_word_str(A, w.word)}\t{w.length}\n")


def _realize(A, args):
    """The realization of A and the ``--weight`` in it."""
    real = build_realization(A)
    return real, _parse_weight(real, args.weight)


# -- one runner per subcommand: run(A, args, out) reads every option it registers


def _run_classify(A, args, out):
    cls = classify_type(A)
    rows = [("kind", cls.kind), ("symmetrizable", str(cls.symmetrizable).lower()),
            ("symmetrizer", ",".join(map(str, cls.symmetrizer or ()))),
            ("indecomposable", str(cls.indecomposable).lower()),
            ("compact_type", str(cls.compact_type).lower())]
    if cls.extended_compact:
        i0, j0 = cls.extended_compact
        rows.append(("extended_compact", f"I0={_subset_str(A, i0)} J0={_subset_str(A, j0)}"))
    if args.format == "tsv":
        out.writelines(f"{key}\t{value}\n" for key, value in rows if value)
    else:  # the human line leaves out the symmetrizer and indecomposability
        brief = [f"{key} {value}" for key, value in rows
                 if key not in ("symmetrizer", "indecomposable")]
        out.write(" / ".join(brief) + "\n")


def _run_spherical(A, args, out):
    for member in spherical_poset(A).members:
        if args.format == "tsv":
            out.write(f"{_subset_str(A, member)}\t{len(member)}\n")
        else:
            out.write(f"{{{_subset_str(A, member) if member else ''}}}\n")


def _run_ball(A, args, out):
    _print_words(out, A, weyl_group(A).ball(args.max_length))


def _run_cosets(A, args, out):
    J = _subset(A, args.j)
    K = _subset(A, args.k) if args.k is not None else None
    _print_words(out, A, weyl_group(A).min_coset_reps(J, K, args.max_length))


def _run_pure(A, args, out):
    K, J = _subset(A, args.k), _subset(A, args.j)
    _print_words(out, A, weyl_group(A).pure_reps(K, J, args.max_length, maximal=args.maximal))


def _run_reduce(A, args, out):
    real, lam = _realize(A, args)
    res = real.chamber_reduce(lam, max_steps=args.max_steps)
    out.write(f"status\t{res.status}\n")
    if res.weight is not None:
        out.write(f"dominant\t{_weight_str(real, res.weight)}\n")
        out.write(f"word\t{_word_str(A, res.word)}\n")
        out.write(f"steps\t{res.steps}\n")


def _run_stratum(A, args, out):
    real, lam = _realize(A, args)
    out.write(f"stratum\t{_subset_str(A, real.stratum(lam))}\n")


def _run_level(A, args, out):
    real, lam = _realize(A, args)
    out.write(f"level\t{real.affine_level(lam)}\n")


def _run_levi(A, args, out):
    J = _subset(A, args.j)
    real, mu = _realize(A, args)
    _print_character(out, real, levi_irreducible_character(real, J, mu), args.format)


def _run_dirac(A, args, out):
    J = _subset(A, args.j)
    real, mu = _realize(A, args)
    _print_character(out, real, dirac_induction(real, J, mu), args.format)


def _run_numerator(A, args, out):
    J = _subset(A, args.j) if args.j is not None else None
    real, lam = _realize(A, args)
    char = weyl_numerator(real, lam, J, length_bound=args.max_length)
    _print_character(out, real, char, args.format)


def _run_spinor(A, args, out):
    real = build_realization(A)
    _print_character(out, real, spinor_character(real, _subset(A, args.j)), args.format)


def _run_ambient(A, args, out):
    J = _subset(A, args.j)
    real, mu = _realize(A, args)
    out.write(f"ambient_dominant\t{str(ambient_dominance_test(real, J, mu)).lower()}\n")


def _run_nerve(A, args, out):
    f_vector = nerve_f_vector(spherical_poset(A).members)
    out.write("f-vector\t" + ",".join(map(str, f_vector)) + "\n")


def _run_hc(A, args, out):
    K = _subset(A, args.k)
    if args.method == "snf":
        coh = snf_cohomology(*davis_truncation(A, K, args.max_length))
    else:
        report = sector_filtration_cohomology(A, K, args.max_length)
        if args.format == "tsv":
            for step_no, step in enumerate(report.steps):
                out.write(f"{step_no}\t{_word_str(A, step.element.word)}\t{step.verdict}\n")
        coh = report.cohomology()
    _print_cohomology(out, coh, args.format)


def _run_hc_hat(A, args, out):
    report = hat_sector_cohomology(A, _subset(A, args.k), args.max_length)
    _print_cohomology(out, report.cohomology(), args.format)


def _print_report(out, A, report, generators):
    real, box = build_realization(A), report.box
    out.write(f"mode {report.mode} n={report.top_degree} r={report.torus_rank}"
              f" L={report.length_bound} box={box.coroot_bound}/{box.complement_bound}\n")
    for s in report.summands:
        K = _subset_str(A, s.subset)
        out.write(f"{s.degree}\t{K}\t{s.index_size}\t{len(s.basis)}\n")
        if generators:
            for word in s.index_words if s.index_words is not None else ((),):
                for lam in s.basis.weights:
                    out.write(f"gen\t{s.degree}\t{K}\t{_word_str(A, word)}"
                              f"\t{_weight_str(real, lam)}\n")


def _run_compact(A, args, out):
    _print_report(out, A, compact_type_report(A, Box(args.box, args.box)), args.generators)


def _run_extended(A, args, out):
    report = extended_type_report(A, args.max_length, Box(args.box, args.box))
    _print_report(out, A, report, args.generators)


def _run_homology(A, args, out):
    _print_report(out, A, k_homology_report(A, Box(args.box, args.box)), args.generators)


def _run_predicates(A, args, out):
    real, mu = _realize(A, args)
    rec = st_r_image_predicates(A, mu)
    for key in ("regular_dominant_for_levi", "in_image_st", "in_image_of_r"):
        out.write(f"{key}\t{str(getattr(rec, key)).lower()}\n")
    out.write(f"reduction_status\t{rec.reduction_status}\n")


def _run_oracle(A, args, out):
    K, box = _subset(A, args.k), Box(args.box, args.box)
    if args.direction == "limit":
        functor, label = strata_limit_functor(A, K, args.max_length, box), "lim^"
    else:
        functor, label = strata_colimit_functor(A, K, args.max_length, box), "colim_"
    coh = derived_limit_oracle(A, functor, args.direction)
    _print_cohomology(out, coh, args.format, prefix=label, suffix="")


_TSV_SCHEMAS = {
    "classify": "tsv rows: key<TAB>value",
    "spherical": "tsv rows: subset-labels<TAB>size",
    "ball": "tsv rows: word<TAB>length",
    "cosets": "tsv rows: word<TAB>length",
    "pure": "tsv rows: word<TAB>length",
    "reduce": "tsv rows: key<TAB>value (status, dominant, word, steps)",
    "stratum": "tsv rows: stratum<TAB>subset-labels",
    "level": "tsv rows: level<TAB>integer",
    "levi": "tsv rows: coefficient<TAB>weight",
    "dirac": "tsv rows: coefficient<TAB>weight",
    "numerator": "tsv rows: coefficient<TAB>weight",
    "spinor": "tsv rows: coefficient<TAB>weight",
    "ambient": "tsv rows: ambient_dominant<TAB>bool",
    "nerve": "tsv rows: f-vector<TAB>counts",
    "hc": "tsv rows: step<TAB>word<TAB>verdict (sector method), then degree<TAB>rank<TAB>torsion",
    "hc-hat": "tsv rows: degree<TAB>rank<TAB>torsion",
    "compact": "summand rows: degree<TAB>K<TAB>coset-index-size<TAB>stratum-size",
    "extended": "summand rows: degree<TAB>K<TAB>coset-index-size<TAB>stratum-size",
    "homology": "summand rows: degree<TAB>K<TAB>coset-index-size<TAB>stratum-size",
    "predicates": "tsv rows: key<TAB>bool",
    "oracle": "tsv rows: degree<TAB>rank<TAB>torsion",
}


def build_parser() -> argparse.ArgumentParser:
    """The command tree.  Each subcommand registers exactly the options its
    runner reads; ``main`` reads ``--gcm`` and writes the header."""
    parser = argparse.ArgumentParser(
        prog="dominantk",
        description="Exact Cartan-matrix, Coxeter-group, character and building computations.",
    )
    parser.add_argument("--version", action="version", version=f"dominantk {__version__}")
    commands = parser.add_subparsers(dest="cmd", required=True)

    def opt(flag, **kwargs):
        return flag, kwargs

    def command(parent, name, run, *options,
                gcm=opt("--gcm", required=True, help="matrix file"), **kwargs):
        p = parent.add_parser(name, epilog=_TSV_SCHEMAS[name], **kwargs)
        for flag, settings in (gcm, *options):
            p.add_argument(flag, **settings)
        p.set_defaults(run=run)

    def group(name, text):
        return commands.add_parser(name, help=text).add_subparsers(dest="sub", required=True)

    def length(**kwargs):
        return opt("--max-length", type=_nonnegative, **kwargs)

    labels = "comma-separated node labels ('' = empty)"
    fmt = opt("--format", choices=("human", "tsv"), default="human")
    weight = opt("--weight", required=True, help="coroot values, slash, complement values;"
                 " use --weight=-1,2/0 for negatives")
    j_opt, k_opt = opt("--j", help=labels), opt("--k", help=labels)
    j_req, k_empty = opt("--j", required=True, help=labels), opt("--k", default="", help=labels)
    box = opt("--box", type=_nonnegative, default=2)
    generators = opt("--generators", action="store_true")

    command(commands, "classify", _run_classify, fmt, gcm=opt("gcm", help="matrix file"),
            help="type classification of a matrix file")
    command(commands, "spherical", _run_spherical, fmt, gcm=opt("gcm", help="matrix file"),
            help="spherical subsets of a matrix file")

    coxeter = group("coxeter", "group enumeration")
    command(coxeter, "ball", _run_ball, length(required=True))
    command(coxeter, "cosets", _run_cosets, length(required=True), j_opt, k_opt)
    command(coxeter, "pure", _run_pure, length(required=True), j_opt, k_opt,
            opt("--maximal", action="store_true"))

    weights = group("weights", "weight-lattice operations")
    command(weights, "reduce", _run_reduce, weight, opt("--max-steps", type=_nonnegative))
    command(weights, "stratum", _run_stratum, weight)
    command(weights, "level", _run_level, weight)

    character = group("character", "character-ring operations")
    command(character, "levi", _run_levi, j_req, weight, fmt)
    command(character, "dirac", _run_dirac, j_req, weight, fmt)
    command(character, "numerator", _run_numerator, j_opt, weight, length(), fmt)
    command(character, "spinor", _run_spinor, j_req, fmt)
    command(character, "ambient", _run_ambient, j_req, weight)

    davis = group("davis", "building combinatorics and cohomology")
    command(davis, "nerve", _run_nerve)
    command(davis, "hc", _run_hc, k_empty, length(default=6),
            opt("--method", choices=("sector", "snf"), default="sector"), fmt)
    command(davis, "hc-hat", _run_hc_hat, k_empty, length(default=6), fmt)

    ktheory = group("ktheory", "closed-form reports and oracles")
    command(ktheory, "compact", _run_compact, box, generators)
    command(ktheory, "extended", _run_extended, box, length(default=4), generators)
    command(ktheory, "homology", _run_homology, box, generators)
    command(ktheory, "predicates", _run_predicates, weight)
    command(ktheory, "oracle", _run_oracle, k_empty, box, length(default=4),
            opt("--direction", choices=("limit", "colimit"), default="limit"), fmt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if sys.stdout is None:
        sys.stderr.write("error output: stdout is closed\n")
        return 1
    try:
        A = _load_gcm(args.gcm)
        _header(sys.stdout, A, args)
        args.run(A, args, sys.stdout)
        sys.stdout.flush()
        return 0
    except OSError as exc:
        # a closed reader (end as SIGPIPE would) or a failed write: silence the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        sys.stderr.write(f"error output: {exc}\n")
        return 1
    except DominantKError as exc:
        sys.stderr.write(f"error {exc.code}: {exc}\n")
        return 1
    except (ValueError, IndexError, KeyError) as exc:
        # str() of a KeyError quotes its message as a repr
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        sys.stderr.write(f"error invalid-input: {message}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
