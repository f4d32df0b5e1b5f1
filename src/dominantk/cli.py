"""Batch command line front end.

Every run prints a reproducibility header (tool version, canonical matrix
hash, truncation parameters) and deterministic output; domain errors exit
with status 1 and a single machine-parsable line, usage errors with 2.
"""

from __future__ import annotations

import argparse
import hashlib
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
    nerve_complex,
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


def _box_bound(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"box bound must be >= 0, not {value}")
    return value


def _load_gcm(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_gcm(text)


def _subset(A, names: str):
    if names is None or names.strip() == "":
        return ()
    return A.label_indices(name.strip() for name in names.split(","))


def _subset_str(A, subset) -> str:
    return ",".join(A.labels[i] for i in sorted(subset)) if subset else "{}"


def _word_str(A, word) -> str:
    return ",".join(A.labels[i] for i in word) if word else "e"


def _parse_weight(real, text: str):
    parts = text.split("/")
    coroot = [int(x) for x in parts[0].split(",")] if parts[0] else []
    complement = (
        [int(x) for x in parts[1].split(",")] if len(parts) > 1 and parts[1] else []
    )
    c = real.rank - real.coroot_count
    if len(coroot) != real.coroot_count or len(complement) != c:
        raise DominantKError(
            f"weight needs {real.coroot_count} coroot values"
            + (f" and {c} complement values" if c else "")
        )
    return tuple(coroot) + tuple(complement)


def _weight_str(real, lam) -> str:
    m = real.coroot_count
    head = ",".join(str(x) for x in lam[:m])
    tail = ",".join(str(x) for x in lam[m:])
    return f"{head}/{tail}" if tail else head


def _character_lines(real, char, fmt):
    lines = []
    for w, c in char.sorted_terms():
        if fmt == "tsv":
            lines.append(f"{c}\t{_weight_str(real, w)}")
        else:
            sign = "+" if c >= 0 else "-"
            mag = "" if abs(c) == 1 else str(abs(c))
            lines.append(f"{sign}{mag}e^{{({_weight_str(real, w)})}}")
    return lines or ["0"]


def _header(out, A, params):
    out.write(f"# dominantk {__version__}\n")
    digest = hashlib.sha256(A.canonical_text().encode()).hexdigest()[:16]
    out.write(f"# gcm sha256={digest} size={A.size}\n")
    if params:
        rendered = " ".join(f"{k}={v}" for k, v in params.items() if v is not None)
        out.write(f"# params {rendered}\n")


def _print_cohomology(out, coh, fmt, prefix="H^", suffix="_c"):
    for p in range(len(coh.groups)):
        if fmt == "tsv":
            tors = ",".join(str(d) for d in coh.torsion(p))
            out.write(f"{p}\t{coh.free_rank(p)}\t{tors}\n")
        else:
            out.write(f"{prefix}{p}{suffix} = {coh.describe(p)}\n")


def _cmd_classify(args, out):
    A = _load_gcm(args.gcm)
    _header(out, A, {})
    cls = classify_type(A)
    if args.format == "tsv":
        out.write(f"kind\t{cls.kind}\n")
        out.write(f"symmetrizable\t{str(cls.symmetrizable).lower()}\n")
        if cls.symmetrizer:
            out.write("symmetrizer\t" + ",".join(map(str, cls.symmetrizer)) + "\n")
        out.write(f"indecomposable\t{str(cls.indecomposable).lower()}\n")
        out.write(f"compact_type\t{str(cls.compact_type).lower()}\n")
        if cls.extended_compact:
            i0, j0 = cls.extended_compact
            out.write(f"extended_compact\tI0={_subset_str(A, i0)} J0={_subset_str(A, j0)}\n")
    else:
        bits = [
            f"kind {cls.kind}",
            f"symmetrizable {str(cls.symmetrizable).lower()}",
            f"compact_type {str(cls.compact_type).lower()}",
        ]
        if cls.extended_compact:
            i0, j0 = cls.extended_compact
            bits.append(
                f"extended_compact I0={_subset_str(A, i0)} J0={_subset_str(A, j0)}"
            )
        out.write(" / ".join(bits) + "\n")
    return 0


def _cmd_spherical(args, out):
    A = _load_gcm(args.gcm)
    _header(out, A, {})
    poset = spherical_poset(A)
    for member in poset.members:
        if args.format == "tsv":
            out.write(f"{_subset_str(A, member)}\t{len(member)}\n")
        else:
            out.write(f"{{{_subset_str(A, member) if member else ''}}}\n")
    return 0


def _cmd_coxeter(args, out):
    A = _load_gcm(args.gcm)
    group = weyl_group(A)
    _header(out, A, {"max-length": args.max_length})
    if args.sub == "ball":
        elements = group.ball(args.max_length)
    elif args.sub == "cosets":
        J = _subset(A, args.j)
        K = _subset(A, args.k) if args.k is not None else None
        elements = group.min_coset_reps(J, K, args.max_length)
    else:  # pure
        K = _subset(A, args.k)
        J = _subset(A, args.j)
        elements = group.pure_reps(K, J, args.max_length, maximal=args.maximal)
    for w in elements:
        out.write(f"{_word_str(A, w.word)}\t{w.length}\n")
    return 0


def _cmd_weights(args, out):
    A = _load_gcm(args.gcm)
    real = build_realization(A)
    _header(out, A, {"max-steps": args.max_steps})
    lam = _parse_weight(real, args.weight)
    if args.sub == "reduce":
        res = real.chamber_reduce(lam, max_steps=args.max_steps)
        out.write(f"status\t{res.status}\n")
        if res.weight is not None:
            out.write(f"dominant\t{_weight_str(real, res.weight)}\n")
            out.write(f"word\t{_word_str(A, res.element.word)}\n")
            out.write(f"steps\t{res.steps}\n")
    elif args.sub == "stratum":
        out.write(f"stratum\t{_subset_str(A, real.stratum(lam))}\n")
    else:  # level
        out.write(f"level\t{real.affine_level(lam)}\n")
    return 0


def _cmd_character(args, out):
    A = _load_gcm(args.gcm)
    real = build_realization(A)
    _header(out, A, {"max-length": args.max_length})
    J = _subset(A, args.j) if args.j is not None else None
    if args.sub == "numerator":
        lam = _parse_weight(real, args.weight)
        char = weyl_numerator(real, lam, J, length_bound=args.max_length)
    elif args.sub == "levi":
        char = levi_irreducible_character(real, J, _parse_weight(real, args.weight))
    elif args.sub == "dirac":
        char = dirac_induction(real, J, _parse_weight(real, args.weight))
    elif args.sub == "spinor":
        char = spinor_character(real, J)
    else:  # ambient
        verdict = ambient_dominance_test(real, J, _parse_weight(real, args.weight))
        out.write(f"ambient_dominant\t{str(verdict).lower()}\n")
        return 0
    out.write("\n".join(_character_lines(real, char, args.format)) + "\n")
    return 0


def _cmd_davis(args, out):
    A = _load_gcm(args.gcm)
    _header(out, A, {"max-length": args.max_length, "method": getattr(args, "method", None)})
    if args.sub == "nerve":
        complex_ = nerve_complex(spherical_poset(A))
        out.write("f-vector\t" + ",".join(map(str, complex_.f_vector())) + "\n")
        return 0
    K = _subset(A, args.k)
    if args.sub == "hc":
        if args.method == "snf":
            complex_, frontier = davis_truncation(A, K, args.max_length)
            coh = snf_cohomology(complex_, frontier)
        else:
            report = sector_filtration_cohomology(A, K, args.max_length)
            if args.format == "tsv":
                for step_no, step in enumerate(report.steps):
                    out.write(
                        f"{step_no}\t{_word_str(A, step.element.word)}\t{step.verdict}\n"
                    )
            coh = report.cohomology()
        _print_cohomology(out, coh, args.format)
        return 0
    # hc-hat
    report = hat_sector_cohomology(A, K, args.max_length)
    _print_cohomology(out, report.cohomology(), args.format)
    return 0


def _report_lines(out, A, report, fmt, generators=False):
    real = build_realization(A)
    out.write(
        f"mode {report.mode} n={report.top_degree} r={report.torus_rank}"
        f" L={report.length_bound} box={report.box.coroot_bound}/{report.box.complement_bound}\n"
    )
    for s in report.summands:
        out.write(
            f"{s.degree}\t{_subset_str(A, s.subset)}\t{s.index_size}\t{len(s.basis)}\n"
        )
        if generators:
            words = s.index_words if s.index_words is not None else ((),)
            for word in words:
                for lam in s.basis.weights:
                    out.write(
                        f"gen\t{s.degree}\t{_subset_str(A, s.subset)}"
                        f"\t{_word_str(A, word)}\t{_weight_str(real, lam)}\n"
                    )


def _cmd_ktheory(args, out):
    A = _load_gcm(args.gcm)
    real = build_realization(A)
    box = Box(args.box, args.box)
    _header(out, A, {"max-length": args.max_length, "box": args.box})
    if args.sub == "compact":
        _report_lines(out, A, compact_type_report(A, box), args.format, args.generators)
    elif args.sub == "extended":
        _report_lines(
            out, A, extended_type_report(A, args.max_length, box), args.format, args.generators
        )
    elif args.sub == "homology":
        _report_lines(out, A, k_homology_report(A, box), args.format, args.generators)
    elif args.sub == "predicates":
        rec = st_r_image_predicates(A, _parse_weight(real, args.weight))
        out.write(f"regular_dominant_for_levi\t{str(rec.regular_dominant_for_levi).lower()}\n")
        out.write(f"in_image_st\t{str(rec.in_image_st).lower()}\n")
        out.write(f"in_image_of_r\t{str(rec.in_image_of_r).lower()}\n")
        out.write(f"reduction_status\t{rec.reduction_status}\n")
    else:  # oracle
        K = _subset(A, args.k)
        if args.direction == "limit":
            functor = strata_limit_functor(A, K, args.max_length, box)
        else:
            functor = strata_colimit_functor(A, K, args.max_length, box)
        coh = derived_limit_oracle(A, functor, args.direction)
        label = "lim^" if args.direction == "limit" else "colim_"
        _print_cohomology(out, coh, args.format, prefix=label, suffix="")
    return 0


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
    parser = argparse.ArgumentParser(
        prog="dominantk",
        description="Exact Cartan-matrix, Coxeter-group, character and building computations.",
    )
    parser.add_argument("--version", action="version", version=f"dominantk {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, gcm_positional=False):
        if gcm_positional:
            p.add_argument("gcm", help="matrix file")
        else:
            p.add_argument("--gcm", required=True, help="matrix file")
        p.add_argument("--format", choices=("human", "tsv"), default="human")

    def subcommand(parent, name, run):
        q = parent.add_parser(name, epilog=_TSV_SCHEMAS.get(name))
        common(q)
        q.set_defaults(run=run)
        return q

    p = sub.add_parser("classify", help="type classification of a matrix file",
                       epilog=_TSV_SCHEMAS["classify"])
    common(p, gcm_positional=True)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("spherical", help="spherical subsets of a matrix file",
                       epilog=_TSV_SCHEMAS["spherical"])
    common(p, gcm_positional=True)
    p.set_defaults(run=_cmd_spherical)

    p = sub.add_parser("coxeter", help="group enumeration")
    psub = p.add_subparsers(dest="sub", required=True)
    for name in ("ball", "cosets", "pure"):
        q = subcommand(psub, name, _cmd_coxeter)
        q.add_argument("--max-length", type=int, required=True)
        q.add_argument("--j", default=None, help="comma-separated node labels ('' = empty)")
        q.add_argument("--k", default=None, help="comma-separated node labels ('' = empty)")
        if name == "pure":
            q.add_argument("--maximal", action="store_true")

    p = sub.add_parser("weights", help="weight-lattice operations")
    psub = p.add_subparsers(dest="sub", required=True)
    for name in ("reduce", "stratum", "level"):
        q = subcommand(psub, name, _cmd_weights)
        q.add_argument(
            "--weight", required=True,
            help="coroot values, slash, complement values; use --weight=-1,2/0 for negatives",
        )
        q.add_argument("--max-steps", type=int, default=None)

    p = sub.add_parser("character", help="character-ring operations")
    psub = p.add_subparsers(dest="sub", required=True)
    for name in ("levi", "dirac", "numerator", "spinor", "ambient"):
        q = subcommand(psub, name, _cmd_character)
        q.add_argument("--j", default=None, required=name != "numerator")
        q.add_argument("--weight", default=None, required=name != "spinor")
        q.add_argument("--max-length", type=int, default=None)

    p = sub.add_parser("davis", help="building combinatorics and cohomology")
    psub = p.add_subparsers(dest="sub", required=True)
    for name in ("nerve", "hc", "hc-hat"):
        q = subcommand(psub, name, _cmd_davis)
        q.add_argument("--k", default="")
        q.add_argument("--max-length", type=int, default=6)
        if name == "hc":
            q.add_argument("--method", choices=("sector", "snf"), default="sector")

    p = sub.add_parser("ktheory", help="closed-form reports and oracles")
    psub = p.add_subparsers(dest="sub", required=True)
    for name in ("compact", "extended", "homology", "predicates", "oracle"):
        q = subcommand(psub, name, _cmd_ktheory)
        q.add_argument("--box", type=_box_bound, default=2)
        q.add_argument("--max-length", type=int, default=4)
        q.add_argument("--k", default="")
        q.add_argument("--weight", default=None, required=name == "predicates")
        q.add_argument("--generators", action="store_true")
        if name == "oracle":
            q.add_argument("--direction", choices=("limit", "colimit"), default="limit")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, sys.stdout)
    except DominantKError as exc:
        sys.stderr.write(f"error {exc.code}: {exc}\n")
        return 1
    except (OSError, ValueError, IndexError, KeyError) as exc:
        sys.stderr.write(f"error invalid-input: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
