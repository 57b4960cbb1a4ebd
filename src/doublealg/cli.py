"""Command line surface: model-file ingestion, dispatch, reports.

    doublealg <verb> <kind> <model-file> [--format json|text] [--seed N]

Verbs: check algebroid|bialgebroid|matched|manin|double,
build drinfeld|bowtie|double|vacant|cotangent-double|semidirects,
extract matched, dualize dvb.  `verify double` is accepted as an alias of
`check double`.  `dualize dvb` prints the shapes of the two duals; in split
form their pairing over the core dual is nondegenerate by construction, so
it is stated, not recomputed; likewise `check manin` and `build drinfeld`
state the Manin-triple items of every double `drinfeld_double` builds, and
`check double`, `build double` and `build cotangent-double` state the
structural diagnostics of every double that passed `check_double`.  `build
cotangent-double` states a passing `check_double` report when the
closed-form compatibility families of its dual pair pass, and `build
double` and `build vacant` when `check_matched` passes (the paper's two
correspondences, see `doublela.passing_double_report`); otherwise they run
`check_double` and report its items and witnesses.  A cobracket whose dual
bracket fails Jacobi is a failed entry of `check bialgebroid` and `build
cotangent-double`, not an error.
Exit codes: 0 all checks pass, 1 a check failed (witness in the report),
2 usage or parse error.  The environment variable DOUBLEALG_MAX_DEGREE caps
the degree of randomized property-oracle sections (default 2, at most
1000); --seed controls only their generation, and every seeded run is
reproducible.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional, Sequence

from . import algebroid as alg
from . import doublela, liealg, matched
from .formatting import (
    format_algebroid_lines,
    format_derivation_lines,
    format_lie_algebra_lines,
    format_pairing_lines,
)
from .model import ModelError, ModelFile, parse_model
from .report import Report, ResultEntry, digest, emit_report, entries_from_check
from .verdicts import CheckReport

# random sections draw one exponent step per unit of degree, so the cap keeps
# a randomized check from running unboundedly
MAX_DEGREE_CAP = 1000

_VERBS = {
    ("check", "algebroid"),
    ("check", "bialgebroid"),
    ("check", "matched"),
    ("check", "manin"),
    ("check", "double"),
    ("verify", "double"),
    ("build", "drinfeld"),
    ("build", "bowtie"),
    ("build", "double"),
    ("build", "vacant"),
    ("build", "cotangent-double"),
    ("build", "semidirects"),
    ("extract", "matched"),
    ("dualize", "dvb"),
}


def _double_summary(prefix: str, dla: "doublela.DoubleLieAlgebroid") -> ResultEntry:
    """Derived-structure summary: the induced dual pair, the Poisson data on
    the core dual, and the core algebroid."""
    e_v, dual = dla.dual_pair
    detail: List[str] = []
    detail.extend(format_algebroid_lines("induced_vertical_dual", e_v))
    detail.extend(format_algebroid_lines("induced_horizontal_dual", dual))
    if dla.core_frames:
        pois = dla.core_poisson
        names = pois.chart.names
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if pois.matrix[i][j]:
                    detail.append(
                        f"core_dual_poisson({names[i]}, {names[j]}) = {pois.matrix[i][j]}"
                    )
        detail.extend(format_algebroid_lines("core", dla.core))
    return ResultEntry(f"{prefix}.summary", "pass", detail=tuple(detail))


def _cotangent_report(
    L: alg.LieAlgebroid,
    Lstar: alg.LieAlgebroid,
    dla: doublela.DoubleLieAlgebroid,
    seed: int,
    max_degree: int,
) -> CheckReport:
    """`check_double` of `dla = build_cotangent_double(L, Lstar)`, stated when
    the closed-form compatibility families of (L, Lstar) pass (the duality
    theorem; `build_cotangent_double` has validated both sides)."""
    if all(item.ok for item in alg.compatibility_families(L, Lstar)):
        return doublela.passing_double_report()
    return doublela.check_double(dla, seed=seed, max_degree=max_degree)


def _vacant_report(
    mp: matched.MatchedPair, dla: doublela.DoubleLieAlgebroid, seed: int, max_degree: int
) -> CheckReport:
    """`check_double` of `dla = assemble_vacant_double(mp)`, stated when `mp`
    is matched (the vacant-double theorem)."""
    if matched.check_matched(mp).ok:
        return doublela.passing_double_report()
    return doublela.check_double(dla, seed=seed, max_degree=max_degree)


def _dual_pair_sources(model: ModelFile):
    """(label, L, Lstar) for every declared dual pair and every bialgebra."""
    out = []
    for name, partner in model.dual_pairs.items():
        out.append((f"{partner}:{name}", model.algebroids[partner], model.algebroids[name]))
    for name, b in model.bialgebras.items():
        out.append((name, b.algebra, b.dual))
    return out


def run(verb: str, kind: str, model: ModelFile, input_digest: str, seed: int, max_degree: int) -> Report:
    command = f"{verb} {kind}"
    if verb == "verify":
        verb = "check"
    results: List[ResultEntry] = []

    if (verb, kind) == ("check", "algebroid"):
        for name, L in model.algebroids.items():
            results.extend(entries_from_check(f"algebroid.{name}", alg.check_algebroid(L)))

    elif (verb, kind) == ("check", "bialgebroid"):
        for label, L, Lstar in _dual_pair_sources(model):
            rep = alg.check_bialgebroid(L, Lstar, seed=seed, max_degree=max_degree)
            results.extend(entries_from_check(f"bialgebroid.{label}", rep))

    elif (verb, kind) == ("check", "matched"):
        for name, mp in model.matched_pairs.items():
            results.extend(entries_from_check(f"matched.{name}", matched.check_matched(mp)))

    elif (verb, kind) == ("check", "manin"):
        for name, b in model.bialgebras.items():
            try:
                liealg.drinfeld_double(b)
            except liealg.BialgebraError as exc:
                results.append(ResultEntry(f"manin.{name}.double", "fail", str(exc)))
                continue
            results.append(ResultEntry(f"manin.{name}.double", "pass"))
            results.extend(entries_from_check(f"manin.{name}", liealg.check_manin()))

    elif (verb, kind) == ("check", "double"):
        for name, dla in model.doubles.items():
            rep = doublela.check_double(dla, seed=seed, max_degree=max_degree)
            results.extend(entries_from_check(f"double.{name}", rep))
            if rep.ok:
                diag = doublela.structural_diagnostics(dla)
                results.extend(entries_from_check(f"double.{name}.diagnostics", diag))
                results.append(_double_summary(f"double.{name}", dla))

    elif (verb, kind) == ("build", "drinfeld"):
        for name, b in model.bialgebras.items():
            try:
                double = liealg.drinfeld_double(b)
            except liealg.BialgebraError as exc:
                results.append(ResultEntry(f"drinfeld.{name}", "fail", str(exc)))
                continue
            detail = tuple(
                format_lie_algebra_lines(f"{name}_double", double)
                + format_pairing_lines(double)
            )
            results.append(ResultEntry(f"drinfeld.{name}", "pass", detail=detail))
            results.extend(entries_from_check(f"drinfeld.{name}.manin", liealg.check_manin()))

    elif (verb, kind) == ("build", "bowtie"):
        for name, mp in model.matched_pairs.items():
            rep = matched.check_matched(mp)
            results.extend(entries_from_check(f"bowtie.{name}.matched", rep))
            if rep.ok:
                bow = matched.assemble_bowtie(mp)
                results.append(
                    ResultEntry(
                        f"bowtie.{name}",
                        "pass",
                        detail=tuple(format_algebroid_lines(f"{name}_bowtie", bow)),
                    )
                )

    elif (verb, kind) in (("build", "double"), ("build", "vacant")):
        for name, mp in model.matched_pairs.items():
            dla = doublela.assemble_vacant_double(mp)
            rep = _vacant_report(mp, dla, seed, max_degree)
            results.extend(entries_from_check(f"vacant.{name}", rep))
            if rep.ok:
                diag = doublela.structural_diagnostics(dla)
                results.extend(entries_from_check(f"vacant.{name}.diagnostics", diag))
                # a passing vacant double means `mp` is matched (the paper's last theorem)
                diagonal = matched.assemble_bowtie(mp)
                results.append(
                    ResultEntry(
                        f"vacant.{name}.diagonal",
                        "pass",
                        detail=tuple(format_algebroid_lines(f"{name}_diagonal", diagonal)),
                    )
                )

    elif (verb, kind) == ("build", "cotangent-double"):
        for label, L, Lstar in _dual_pair_sources(model):
            try:
                dla = doublela.build_cotangent_double(L, Lstar)
            except (alg.InvalidAlgebroid, doublela.DoubleMismatch) as exc:
                results.append(ResultEntry(f"cotangent_double.{label}", "fail", str(exc)))
                continue
            rep = _cotangent_report(L, Lstar, dla, seed, max_degree)
            results.extend(entries_from_check(f"cotangent_double.{label}", rep))
            if rep.ok:
                diag = doublela.structural_diagnostics(dla)
                results.extend(
                    entries_from_check(f"cotangent_double.{label}.diagnostics", diag)
                )
                results.append(_double_summary(f"cotangent_double.{label}", dla))

    elif (verb, kind) == ("build", "semidirects"):
        for name, mp in model.matched_pairs.items():
            semidirect, opposite = matched.build_semidirects(mp)
            for tag, L in (("dual_action", semidirect), ("opposite", opposite)):
                rep = alg.check_algebroid(L)
                results.extend(entries_from_check(f"semidirects.{name}.{tag}", rep))
                results.append(
                    ResultEntry(
                        f"semidirects.{name}.{tag}.structure",
                        "pass",
                        detail=tuple(format_algebroid_lines(f"{name}_{tag}", L)),
                    )
                )

    elif (verb, kind) == ("extract", "matched"):
        for name, dla in model.doubles.items():
            try:
                mp, rep = doublela.matched_from_vacant(dla)
            except (doublela.DoubleMismatch, matched.MatchedPairError) as exc:
                results.append(ResultEntry(f"extract.{name}", "fail", str(exc)))
                continue
            detail: List[str] = []
            for label, acting, ders, target in (
                ("rho", mp.algebroid_a, mp.rho, mp.algebroid_b),
                ("sigma", mp.algebroid_b, mp.sigma, mp.algebroid_a),
            ):
                for frame, field, m in zip(acting.frames, acting.anchor_fields, ders):
                    detail.extend(format_derivation_lines(f"{label}({frame})", field, m, target.frames))
            results.append(ResultEntry(f"extract.{name}", "pass", detail=tuple(detail)))
            results.extend(entries_from_check(f"extract.{name}.matched", rep))

    elif (verb, kind) == ("dualize", "dvb"):
        for name, shape in model.dvbs.items():
            fa, fb, fc = shape.frames_a, shape.frames_b, shape.frames_c
            # in split form the Gram matrix of the two duals' unit bases is a
            # signed permutation matrix, so the pairing is nondegenerate
            detail = (
                f"base = [{', '.join(shape.chart.names)}]",
                f"sides A = [{', '.join(fa)}], B = [{', '.join(fb)}], core C = [{', '.join(fc)}]",
                f"dual over A: sides A, C*; core B*; fibre rank {len(fb) + len(fc)}",
                f"dual over B: sides B, C*; core A*; fibre rank {len(fa) + len(fc)}",
                "pairing of the two duals over C*: <Phi, d> - <d, Psi>, "
                "nondegenerate fibrewise",
            )
            results.append(ResultEntry(f"dualize.{name}", "pass", detail=detail))

    else:
        raise ValueError(f"unknown command {command!r}")

    if not results:
        results.append(
            ResultEntry(f"{verb}.{kind}", "fail", "no applicable blocks in the model file")
        )
    return Report(command=command, input_digest=input_digest, results=tuple(results))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: argparse looks up
    sys.stdout and sys.stderr only when it prints."""
    parser = argparse.ArgumentParser(
        prog="doublealg",
        description="Exact verification of double structures on Lie algebroids.",
    )
    parser.add_argument("verb", choices=sorted({v for v, _ in _VERBS}))
    parser.add_argument("kind")
    parser.add_argument("model", help="model file path")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=7)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if (args.verb, args.kind) not in _VERBS:
        parser.print_usage(sys.stderr)
        kinds = sorted(k for v, k in _VERBS if v == args.verb)
        sys.stderr.write(
            f"doublealg: error: unknown kind {args.kind!r} for verb {args.verb!r} "
            f"(expected one of: {', '.join(kinds)})\n"
        )
        return 2

    try:
        with open(args.model, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        sys.stderr.write(f"doublealg: error: {exc}\n")
        return 2
    try:
        model = parse_model(data.decode("utf-8"))
    except (ModelError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"doublealg: parse error: {exc}\n")
        return 2

    try:
        max_degree = int(os.environ.get("DOUBLEALG_MAX_DEGREE", "2"))
    except ValueError:
        max_degree = -1
    if max_degree < 0:
        sys.stderr.write("doublealg: error: DOUBLEALG_MAX_DEGREE must be a non-negative integer\n")
        return 2
    if max_degree > MAX_DEGREE_CAP:
        sys.stderr.write(
            f"doublealg: error: DOUBLEALG_MAX_DEGREE must be at most {MAX_DEGREE_CAP}\n"
        )
        return 2
    try:
        report = run(args.verb, args.kind, model, digest(data), args.seed, max_degree)
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"doublealg: error: {exc}\n")
        return 2
    sys.stdout.buffer.write(emit_report(report, args.format))
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
