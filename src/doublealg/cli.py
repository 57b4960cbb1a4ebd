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
cotangent-double`, not an error; so is a frame name shared by the two
halves of a structure that a build verb or `check manin` assembles.
Exit codes: 0 all checks pass, 1 a check failed (witness in the report),
2 usage or parse error.  The environment variable DOUBLEALG_MAX_DEGREE caps
the degree of randomized property-oracle sections (default 2, at most
1000); --seed controls only their generation, and every seeded run is
reproducible.  Both are read in ASCII digits only.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import Callable, List, Optional, Sequence, Tuple

from . import algebroid as alg
from . import doublela, liealg, matched
from .formatting import (
    format_algebroid_lines,
    format_derivation_lines,
    format_lie_algebra_lines,
    format_pairing_lines,
)
from .model import ModelError, ModelFile, parse_model
from .report import Report, digest, emit_report
from .verdicts import CheckItem, CheckReport

# random sections draw one exponent step per unit of degree, so the cap keeps
# a randomized check from running unboundedly
MAX_DEGREE_CAP = 1000
# `int` also reads other Unicode decimal digits, `_` separators and
# surrounding blanks; the command line takes ASCII digits only
_SEED = re.compile(r"-?[0-9]+")
_DEGREE = re.compile(r"[0-9]+")

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


def _double_summary(prefix: str, dla: "doublela.DoubleLieAlgebroid") -> CheckItem:
    """Derived-structure summary: the induced dual pair, the linear Poisson
    structure on the core dual (`dual_poisson` of the core), and the core
    algebroid."""
    e_v, dual = dla.dual_pair
    detail: List[str] = []
    detail.extend(format_algebroid_lines("induced_vertical_dual", e_v))
    detail.extend(format_algebroid_lines("induced_horizontal_dual", dual))
    if dla.core_frames:
        pois = alg.dual_poisson(dla.core)
        names = pois.chart.names
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if pois.matrix[i][j]:
                    detail.append(
                        f"core_dual_poisson({names[i]}, {names[j]}) = {pois.matrix[i][j]}"
                    )
        detail.extend(format_algebroid_lines("core", dla.core))
    return CheckItem(f"{prefix}.summary", True, detail=tuple(detail))


def _diagonal(name: str, mp: matched.MatchedPair) -> CheckItem:
    """The diagonal of a passing vacant double of `mp`: its bowtie, since a
    passing vacant double means `mp` is matched (the paper's last theorem)."""
    bowtie = tuple(format_algebroid_lines(f"{name}_diagonal", matched.assemble_bowtie(mp)))
    return CheckItem(f"vacant.{name}.diagonal", True, detail=bowtie)


def _double_items(
    prefix: str,
    dla: doublela.DoubleLieAlgebroid,
    rep: CheckReport,
    last: Callable[[], CheckItem],
) -> List[CheckItem]:
    """The items of `rep`, the double check of `dla`, under `prefix`; on a
    pass, then the structural diagnostics of `dla` and the entry `last()`."""
    items = list(rep.prefixed(prefix).items)
    if rep.ok:
        items.extend(doublela.structural_diagnostics(dla).prefixed(f"{prefix}.diagnostics").items)
        items.append(last())
    return items


def _drinfeld_items(
    entry_id: str,
    manin_prefix: str,
    b: liealg.Bialgebra,
    detail: Callable[[alg.LieAlgebroid], Tuple[str, ...]],
) -> List[CheckItem]:
    """The entry `entry_id` of the Drinfel'd double of `b`, failed with the
    `BialgebraError` when `b` has none; else passed with `detail(double)`
    and followed by the Manin-triple items under `manin_prefix`."""
    try:
        double = liealg.drinfeld_double(b)
    except liealg.BialgebraError as exc:
        return [CheckItem(entry_id, False, str(exc))]
    return [
        CheckItem(entry_id, True, detail=detail(double)),
        *liealg.check_manin().prefixed(manin_prefix).items,
    ]


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
    results: List[CheckItem] = []

    if (verb, kind) == ("check", "algebroid"):
        for name, L in model.algebroids.items():
            results.extend(alg.check_algebroid(L).prefixed(f"algebroid.{name}").items)

    elif (verb, kind) == ("check", "bialgebroid"):
        for label, L, Lstar in _dual_pair_sources(model):
            rep = alg.check_bialgebroid(L, Lstar, seed=seed, max_degree=max_degree)
            results.extend(rep.prefixed(f"bialgebroid.{label}").items)

    elif (verb, kind) == ("check", "matched"):
        for name, mp in model.matched_pairs.items():
            results.extend(matched.check_matched(mp).prefixed(f"matched.{name}").items)

    elif (verb, kind) == ("check", "manin"):
        for name, b in model.bialgebras.items():
            results.extend(_drinfeld_items(f"manin.{name}.double", f"manin.{name}", b, lambda _: ()))

    elif (verb, kind) == ("check", "double"):
        for name, dla in model.doubles.items():
            prefix = f"double.{name}"
            rep = doublela.check_double(dla, seed=seed, max_degree=max_degree)
            results.extend(_double_items(prefix, dla, rep, lambda: _double_summary(prefix, dla)))

    elif (verb, kind) == ("build", "drinfeld"):
        for name, b in model.bialgebras.items():
            structure = lambda double: tuple(
                format_lie_algebra_lines(f"{name}_double", double) + format_pairing_lines(double)
            )
            results.extend(_drinfeld_items(f"drinfeld.{name}", f"drinfeld.{name}.manin", b, structure))

    elif (verb, kind) == ("build", "bowtie"):
        for name, mp in model.matched_pairs.items():
            rep = matched.check_matched(mp)
            results.extend(rep.prefixed(f"bowtie.{name}.matched").items)
            if rep.ok:
                try:
                    bowtie = matched.assemble_bowtie(mp)
                except matched.MatchedPairError as exc:
                    results.append(CheckItem(f"bowtie.{name}", False, str(exc)))
                    continue
                bow = tuple(format_algebroid_lines(f"{name}_bowtie", bowtie))
                results.append(CheckItem(f"bowtie.{name}", True, detail=bow))

    elif (verb, kind) in (("build", "double"), ("build", "vacant")):
        for name, mp in model.matched_pairs.items():
            try:
                dla = doublela.assemble_vacant_double(mp)
            except matched.MatchedPairError as exc:
                results.append(CheckItem(f"vacant.{name}", False, str(exc)))
                continue
            rep = _vacant_report(mp, dla, seed, max_degree)
            results.extend(_double_items(f"vacant.{name}", dla, rep, lambda: _diagonal(name, mp)))

    elif (verb, kind) == ("build", "cotangent-double"):
        for label, L, Lstar in _dual_pair_sources(model):
            prefix = f"cotangent_double.{label}"
            try:
                dla = doublela.build_cotangent_double(L, Lstar)
            except (alg.InvalidAlgebroid, doublela.DoubleMismatch) as exc:
                results.append(CheckItem(prefix, False, str(exc)))
                continue
            rep = _cotangent_report(L, Lstar, dla, seed, max_degree)
            results.extend(_double_items(prefix, dla, rep, lambda: _double_summary(prefix, dla)))

    elif (verb, kind) == ("build", "semidirects"):
        for name, mp in model.matched_pairs.items():
            try:
                semidirect, opposite = matched.build_semidirects(mp)
            except matched.MatchedPairError as exc:
                results.append(CheckItem(f"semidirects.{name}", False, str(exc)))
                continue
            for tag, L in (("dual_action", semidirect), ("opposite", opposite)):
                rep = alg.check_algebroid(L)
                results.extend(rep.prefixed(f"semidirects.{name}.{tag}").items)
                structure = tuple(format_algebroid_lines(f"{name}_{tag}", L))
                results.append(CheckItem(f"semidirects.{name}.{tag}.structure", True, detail=structure))

    elif (verb, kind) == ("extract", "matched"):
        for name, dla in model.doubles.items():
            try:
                mp, rep = doublela.matched_from_vacant(dla)
            except (doublela.DoubleMismatch, matched.MatchedPairError) as exc:
                results.append(CheckItem(f"extract.{name}", False, str(exc)))
                continue
            detail: List[str] = []
            for label, acting, ders, target in (
                ("rho", mp.algebroid_a, mp.rho, mp.algebroid_b),
                ("sigma", mp.algebroid_b, mp.sigma, mp.algebroid_a),
            ):
                for frame, field, m in zip(acting.frames, acting.anchor_fields, ders):
                    detail.extend(format_derivation_lines(f"{label}({frame})", field, m, target.frames))
            results.append(CheckItem(f"extract.{name}", True, detail=tuple(detail)))
            results.extend(rep.prefixed(f"extract.{name}.matched").items)

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
            results.append(CheckItem(f"dualize.{name}", True, detail=detail))

    else:
        raise ValueError(f"unknown command {command!r}")

    if not results:
        results.append(CheckItem(f"{verb}.{kind}", False, "no applicable blocks in the model file"))
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
    parser.add_argument("--seed", type=_seed, default=7)
    return parser


def _seed(text: str) -> int:
    """`--seed` in ASCII digits, refused with argparse's message for `int`."""
    try:
        if _SEED.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than Python converts
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


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

    degree = os.environ.get("DOUBLEALG_MAX_DEGREE", "2")
    try:
        max_degree = int(degree) if _DEGREE.fullmatch(degree) else -1
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
        # the witnesses are written here, when the report reads them
        out = emit_report(report, args.format)
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"doublealg: error: {exc}\n")
        return 2
    sys.stdout.buffer.write(out)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
