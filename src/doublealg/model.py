"""Model files: the text format the CLI consumes.

Line-oriented named blocks with cross-references:

    [chart M]
    coords = [x, y]

    [lie_algebra g]
    dim = 2
    bracket(e1, e2) = e2

    [cobracket d]
    algebra = g
    delta(e2) = e1 ^ e2

    [algebroid A]
    base = M                 # chart reference, or inline [x, y]
    frame = [e1, e2]
    anchor(e1) = x * d/dx
    bracket(e1, e2) = x * e1 + e2
    dual_of = B              # optional: marks (B, A) as a dual pair

    [dvb D]
    base = M
    frames_A = [a1, a2]
    frames_B = [b1]
    frames_C = [c1]

    [lavb V]
    dvb = D
    side = Balg              # algebroid of the parallel side
    lambda(b1; a1) = a1      # derivation on the bundle, per side frame
    q(b1; c1) = c1           # derivation on the core, per side frame
    del(c1) = a1             # core anchor
    twist(b1, b2; a1) = c1   # Hom(bundle, core) per side-frame pair

    [matched_pair MP]
    A = Aalg
    B = Balg
    rho(e1) = derivation{f1: x * f1}
    sigma(f1) = derivation{}

    [double DD]
    dvb = D                  # optional: the dvb that both lavb blocks use
    vertical = V1
    horizontal = V2

Every block validates against its schema before any computation; the first
error is reported with its line number.  `#` starts a comment.  A block
gives each call-style entry at most once: a second anchor(e1), delta(e2),
lambda(b1; a1), ... is an error at its line, and bracket(e2, e1) or
twist(b2, b1; a1) repeats bracket(e1, e2) or twist(b1, b2; a1).  Inside a
value, a frame repeated in derivation{...} or a side repeated in
ranks = {...} is an error at its line too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebroid import Derivation, LieAlgebroid, VectorField
from .doublela import DoubleLieAlgebroid
from .dvb import DecomposedDVB
from .exact import Chart, Polynomial
from .lavb import LAVBundle
from .liealg import Bialgebra, Cobracket, LieAlgebra
from .matched import MatchedPair, RepresentationMap
from .parsing import (
    ParseError,
    parse_combination,
    parse_vector_field,
    parse_wedge_combination,
)

_HEADER = re.compile(r"^\[(\w+)(?:\s+([A-Za-z_][A-Za-z0-9_']*))?\]$")
_ASSIGN = re.compile(r"^([A-Za-z_][A-Za-z0-9_']*)\s*(\(([^)]*)\))?\s*=\s*(.*)$")
_DECIMAL = re.compile(r"[+-]?[0-9](?:_?[0-9])*")

_BLOCK_TYPES = (
    "chart",
    "lie_algebra",
    "cobracket",
    "algebroid",
    "dvb",
    "lavb",
    "matched_pair",
    "double",
)


# Largest dimension or rank a model file may give as a number.
MAX_COUNT = 64


class ModelError(ValueError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _parse_count(label: str, text: str, line: int) -> int:
    """`text` as a count between 0 and MAX_COUNT, else a parse error at `line`.

    `int` refuses a decimal literal only when it has more digits than
    Python converts (`sys.get_int_max_str_digits`); such a count is out of
    range.  A rejected literal longer than 20 characters is named by its
    length, not echoed."""
    literal = text.strip()
    shown = f"a {len(literal)}-character literal" if len(literal) > 20 else None
    try:
        value = int(literal)
    except ValueError:
        if not _DECIMAL.fullmatch(literal):
            raise ModelError(f"{label} must be an integer, got {shown or repr(literal)}", line)
        value = None
    if value is None or not 0 <= value <= MAX_COUNT:
        raise ModelError(f"{label} must be between 0 and {MAX_COUNT}, got {shown or value}", line)
    return value


def _parsed(line: int, parse, *args):
    """`parse(*args)`, with a parse error reported at model line `line`."""
    try:
        return parse(*args)
    except ParseError as exc:
        raise ModelError(str(exc), line) from exc


@dataclass
class RawBlock:
    kind: str
    name: str
    line: int
    entries: List[Tuple[str, Optional[str], str, int]] = field(default_factory=list)
    # entries: (key, args-or-None, value, line)

    def single(self, key: str, required: bool = False) -> Optional[Tuple[str, int]]:
        hits = [(v, ln) for k, a, v, ln in self.entries if k == key and a is None]
        if len(hits) > 1:
            raise ModelError(f"duplicate key {key!r}", hits[1][1])
        if not hits:
            if required:
                raise ModelError(f"missing key {key!r} in [{self.kind} {self.name}]", self.line)
            return None
        return hits[0]

    def calls(self, key: str, unordered_pair: bool = False) -> Iterator[Tuple[str, str, int]]:
        """The `key(args) = value` entries in order.  An entry whose
        arguments repeat an earlier entry's is an error at its line; with
        `unordered_pair` the first two arguments are compared in either
        order, since bracket(a, b) and bracket(b, a) state one value."""
        seen: Dict[Tuple[str, ...], int] = {}
        for k, a, v, ln in self.entries:
            if k != key or a is None:
                continue
            args = _split_args(a)
            if unordered_pair:
                args[:2] = sorted(args[:2])
            ident = tuple(args)
            if ident in seen:
                raise ModelError(
                    f"duplicate entry {key}({a.strip()}), first given at line {seen[ident]}", ln
                )
            seen[ident] = ln
            yield a, v, ln

    def known_keys(self, allowed: Sequence[str]) -> None:
        for k, a, _, ln in self.entries:
            if k not in allowed:
                raise ModelError(f"unknown key {k!r} in [{self.kind} {self.name}]", ln)


@dataclass
class ModelFile:
    charts: Dict[str, Chart]
    lie_algebras: Dict[str, LieAlgebroid]  # Lie algebras: algebroids over the point
    bialgebras: Dict[str, Bialgebra]
    algebroids: Dict[str, LieAlgebroid]
    dual_pairs: Dict[str, str]  # algebroid name -> name of the algebroid it is dual to
    dvbs: Dict[str, DecomposedDVB]
    lavbs: Dict[str, LAVBundle]
    matched_pairs: Dict[str, MatchedPair]
    doubles: Dict[str, DoubleLieAlgebroid]


def _parse_name_list(text: str, line: int) -> Tuple[str, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ModelError(f"expected a [name, ...] list, got {text!r}", line)
    inner = text[1:-1].strip()
    if not inner:
        return ()
    names = tuple(part.strip() for part in inner.split(","))
    if any(not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", n) for n in names):
        raise ModelError(f"bad name list {text!r}", line)
    return names


def _split_args(args: str) -> List[str]:
    return [part.strip() for part in re.split(r"[;,]", args) if part.strip()]


def _raw_blocks(text: str) -> List[RawBlock]:
    blocks: List[RawBlock] = []
    current: Optional[RawBlock] = None
    used_names = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _HEADER.match(line)
        if header:
            kind, name = header.group(1), header.group(2)
            if kind not in _BLOCK_TYPES:
                raise ModelError(f"unknown block type [{kind}]", line_no)
            if name is None:
                name = f"{kind}_{sum(1 for b in blocks if b.kind == kind) + 1}"
            if name in used_names:
                raise ModelError(f"duplicate block name {name!r}", line_no)
            used_names.add(name)
            current = RawBlock(kind, name, line_no)
            blocks.append(current)
            continue
        assign = _ASSIGN.match(line)
        if not assign:
            raise ModelError(f"cannot parse line {line!r}", line_no)
        if current is None:
            raise ModelError("assignment outside of any block", line_no)
        key, _, args, value = assign.groups()
        current.entries.append((key, args, value.strip(), line_no))
    return blocks


def _frame_indices(names: Sequence[str], wanted: Sequence[str], line: int) -> List[int]:
    out = []
    for w in wanted:
        if w not in names:
            raise ModelError(f"unknown frame {w!r} (have {', '.join(names)})", line)
        out.append(names.index(w))
    return out


def _parse_derivation_value(
    value: str, chart: Chart, base_field: VectorField, frames: Tuple[str, ...], line: int
) -> Derivation:
    value = value.strip()
    if not value.startswith("derivation{") or not value.endswith("}"):
        raise ModelError("expected derivation{frame: combination, ...}", line)
    inner = value[len("derivation{") : -1].strip()
    rank = len(frames)
    matrix = [[Polynomial.zero(chart) for _ in range(rank)] for _ in range(rank)]
    if inner:
        seen = set()
        for part in inner.split(","):
            if ":" not in part:
                raise ModelError(f"bad derivation entry {part!r}", line)
            frame_name, combo = part.split(":", 1)
            frame_name = frame_name.strip()
            idx = _frame_indices(frames, [frame_name], line)[0]
            if idx in seen:
                raise ModelError(f"duplicate frame {frame_name!r} in derivation{{...}}", line)
            seen.add(idx)
            combo_map = _parsed(line, parse_combination, combo.strip(), chart, frames)
            matrix[idx] = [combo_map[name] for name in frames]
    return Derivation(base_field, matrix)


def parse_model(text: str) -> ModelFile:
    blocks = _raw_blocks(text)
    charts: Dict[str, Chart] = {}
    lie_algebras: Dict[str, LieAlgebroid] = {}
    bialgebras: Dict[str, Bialgebra] = {}
    algebroids: Dict[str, LieAlgebroid] = {}
    dual_pairs: Dict[str, str] = {}
    dvbs: Dict[str, DecomposedDVB] = {}
    lavbs: Dict[str, LAVBundle] = {}
    lavb_dvbs: Dict[str, str] = {}  # lavb name -> name of the dvb it uses
    matched_pairs: Dict[str, MatchedPair] = {}
    doubles: Dict[str, DoubleLieAlgebroid] = {}

    def chart_ref(value: str, line: int) -> Chart:
        value = value.strip()
        if value.startswith("["):
            return Chart(_parse_name_list(value, line))
        if value not in charts:
            raise ModelError(f"unresolved chart reference {value!r}", line)
        return charts[value]

    for block in blocks:
        try:
            if block.kind == "chart":
                block.known_keys(["coords"])
                coords, line = block.single("coords", required=True)
                charts[block.name] = Chart(_parse_name_list(coords, line))

            elif block.kind == "lie_algebra":
                block.known_keys(["dim", "basis", "bracket"])
                dim_text, dim_line = block.single("dim", required=True)
                dim = _parse_count("dim", dim_text, dim_line)
                basis_entry = block.single("basis")
                names = (
                    _parse_name_list(*basis_entry)
                    if basis_entry
                    else tuple(f"e{i+1}" for i in range(dim))
                )
                if len(names) != dim:
                    raise ModelError("basis length does not match dim", block.line)
                point = Chart(())
                brackets = {}
                for args, value, line in block.calls("bracket", unordered_pair=True):
                    pair = _split_args(args)
                    if len(pair) != 2:
                        raise ModelError("bracket takes two basis names", line)
                    i, j = _frame_indices(names, pair, line)
                    if i == j:
                        raise ModelError(
                            f"bracket({pair[0]}, {pair[1]}) violates antisymmetry "
                            "(diagonal brackets are identically zero)",
                            line,
                        )
                    combo = _parsed(line, parse_combination, value, point, names)
                    brackets[(i, j)] = tuple(combo[name] for name in names)
                lie_algebras[block.name] = LieAlgebra(dim, brackets, names)

            elif block.kind == "cobracket":
                block.known_keys(["algebra", "delta"])
                algebra_name, line = block.single("algebra", required=True)
                if algebra_name not in lie_algebras:
                    raise ModelError(f"unresolved lie_algebra reference {algebra_name!r}", line)
                algebra = lie_algebras[algebra_name]
                images = {}
                for args, value, line in block.calls("delta"):
                    which = _split_args(args)
                    if len(which) != 1:
                        raise ModelError("delta takes one basis name", line)
                    i = _frame_indices(algebra.frames, which, line)[0]
                    images[i] = _parsed(line, parse_wedge_combination, value, algebra.frames)
                bialgebras[block.name] = Bialgebra(algebra, Cobracket(algebra.rank, images))

            elif block.kind == "algebroid":
                block.known_keys(["base", "frame", "anchor", "bracket", "dual_of"])
                base_text, base_line = block.single("base", required=True)
                chart = chart_ref(base_text, base_line)
                frames_text, frames_line = block.single("frame", required=True)
                frames = _parse_name_list(frames_text, frames_line)
                rank = len(frames)
                anchor = [
                    [Polynomial.zero(chart) for _ in range(chart.dim)] for _ in range(rank)
                ]
                for args, value, line in block.calls("anchor"):
                    which = _split_args(args)
                    if len(which) != 1:
                        raise ModelError("anchor takes one frame name", line)
                    i = _frame_indices(frames, which, line)[0]
                    anchor[i] = _parsed(line, parse_vector_field, value, chart)
                brackets = {}
                for args, value, line in block.calls("bracket", unordered_pair=True):
                    pair = _split_args(args)
                    if len(pair) != 2:
                        raise ModelError("bracket takes two frame names", line)
                    i, j = _frame_indices(frames, pair, line)
                    if i == j:
                        raise ModelError(
                            f"bracket({pair[0]}, {pair[1]}) violates antisymmetry "
                            "(diagonal brackets are identically zero)",
                            line,
                        )
                    combo = _parsed(line, parse_combination, value, chart, frames)
                    vec = tuple(combo[name] for name in frames)
                    if i < j:
                        brackets[(i, j)] = vec
                    else:
                        brackets[(j, i)] = tuple(-p for p in vec)
                algebroids[block.name] = LieAlgebroid(chart, frames, anchor, brackets)
                dual_entry = block.single("dual_of")
                if dual_entry:
                    partner, line = dual_entry
                    if partner not in algebroids:
                        raise ModelError(f"unresolved algebroid reference {partner!r}", line)
                    if algebroids[partner].rank != rank:
                        raise ModelError("dual pair must have matching ranks", line)
                    if algebroids[partner].chart != chart:
                        raise ModelError("dual pair must share a chart", line)
                    dual_pairs[block.name] = partner

            elif block.kind == "dvb":
                block.known_keys(["base", "frames_A", "frames_B", "frames_C", "ranks"])
                base_text, base_line = block.single("base", required=True)
                chart = chart_ref(base_text, base_line)
                triples = []
                ranks_entry = block.single("ranks")
                defaults = {"A": "a", "B": "b", "C": "c"}
                rank_map = {}
                if ranks_entry:
                    text, line = ranks_entry
                    text = text.strip()
                    if not (text.startswith("{") and text.endswith("}")):
                        raise ModelError("ranks must look like {A: 2, B: 1, C: 1}", line)
                    for part in text[1:-1].split(","):
                        if ":" not in part:
                            raise ModelError(f"bad ranks entry {part!r}", line)
                        key, num = part.split(":", 1)
                        key = key.strip()
                        if key not in defaults:
                            raise ModelError(f"ranks keys are A, B, C; got {key!r}", line)
                        if key in rank_map:
                            raise ModelError(f"duplicate ranks key {key!r}", line)
                        rank_map[key] = _parse_count(f"ranks[{key}]", num, line)
                for side in ("A", "B", "C"):
                    entry = block.single(f"frames_{side}")
                    if entry:
                        names = _parse_name_list(*entry)
                        if side in rank_map and rank_map[side] != len(names):
                            raise ModelError(
                                f"ranks[{side}] = {rank_map[side]} but {len(names)} frames given",
                                entry[1],
                            )
                    elif side in rank_map:
                        names = tuple(
                            f"{defaults[side]}{i+1}" for i in range(rank_map[side])
                        )
                    else:
                        raise ModelError(
                            f"need frames_{side} or a ranks entry for {side}", block.line
                        )
                    triples.append(names)
                dvbs[block.name] = DecomposedDVB(chart, *triples)

            elif block.kind == "lavb":
                block.known_keys(["dvb", "side", "lambda", "q", "del", "twist"])
                dvb_name, line = block.single("dvb", required=True)
                if dvb_name not in dvbs:
                    raise ModelError(f"unresolved dvb reference {dvb_name!r}", line)
                shape = dvbs[dvb_name]
                chart, frames_a, frames_b, frames_c = (
                    shape.chart, shape.frames_a, shape.frames_b, shape.frames_c
                )
                side_name, line = block.single("side", required=True)
                if side_name not in algebroids:
                    raise ModelError(f"unresolved algebroid reference {side_name!r}", line)
                side = algebroids[side_name]
                if side.chart != chart:
                    raise ModelError("side algebroid must live on the dvb base chart", line)
                # orientation: the side algebroid matches one pair of parallel
                # sides, the bundle of the structure is the other one
                if side.frames == frames_b:
                    bundle_frames = frames_a
                elif side.frames == frames_a:
                    bundle_frames = frames_b
                else:
                    raise ModelError(
                        f"side frames {side.frames} match neither dvb side "
                        f"({frames_a} / {frames_b})",
                        line,
                    )
                frames_a = bundle_frames
                frames_b = side.frames
                ra, rb, rc = len(frames_a), len(frames_b), len(frames_c)
                zero = Polynomial.zero(chart)
                lam = [
                    [[zero for _ in range(ra)] for _ in range(ra)] for _ in range(rb)
                ]
                for args, value, line in block.calls("lambda"):
                    which = _split_args(args)
                    if len(which) != 2:
                        raise ModelError("lambda takes (side frame; bundle frame)", line)
                    beta = _frame_indices(frames_b, [which[0]], line)[0]
                    a = _frame_indices(frames_a, [which[1]], line)[0]
                    combo = _parsed(line, parse_combination, value, chart, frames_a)
                    lam[beta][a] = [combo[name] for name in frames_a]
                q = [[[zero for _ in range(rc)] for _ in range(rc)] for _ in range(rb)]
                for args, value, line in block.calls("q"):
                    which = _split_args(args)
                    if len(which) != 2:
                        raise ModelError("q takes (side frame; core frame)", line)
                    beta = _frame_indices(frames_b, [which[0]], line)[0]
                    g = _frame_indices(frames_c, [which[1]], line)[0]
                    combo = _parsed(line, parse_combination, value, chart, frames_c)
                    q[beta][g] = [combo[name] for name in frames_c]
                core_anchor = [[zero for _ in range(ra)] for _ in range(rc)]
                for args, value, line in block.calls("del"):
                    which = _split_args(args)
                    if len(which) != 1:
                        raise ModelError("del takes one core frame", line)
                    g = _frame_indices(frames_c, which, line)[0]
                    combo = _parsed(line, parse_combination, value, chart, frames_a)
                    core_anchor[g] = [combo[name] for name in frames_a]
                twist = {}
                for args, value, line in block.calls("twist", unordered_pair=True):
                    which = _split_args(args)
                    if len(which) != 3:
                        raise ModelError("twist takes (side, side; bundle frame)", line)
                    b1 = _frame_indices(frames_b, [which[0]], line)[0]
                    b2 = _frame_indices(frames_b, [which[1]], line)[0]
                    a = _frame_indices(frames_a, [which[2]], line)[0]
                    if b1 == b2:
                        raise ModelError("twist pair must be distinct (antisymmetry)", line)
                    combo = _parsed(line, parse_combination, value, chart, frames_c)
                    key = (b1, b2) if b1 < b2 else (b2, b1)
                    sign = 1 if b1 < b2 else -1
                    mat = twist.setdefault(
                        key, [[zero for _ in range(rc)] for _ in range(ra)]
                    )
                    for g, name in enumerate(frames_c):
                        mat[a][g] = mat[a][g] + combo[name].scale(sign)
                anchor_ders = [
                    Derivation(side.anchor_field(beta), lam[beta]) for beta in range(rb)
                ]
                core_ders = [
                    Derivation(side.anchor_field(beta), q[beta]) for beta in range(rb)
                ]
                lavbs[block.name] = LAVBundle(
                    side, frames_a, frames_c, anchor_ders, core_ders, core_anchor, twist
                )
                lavb_dvbs[block.name] = dvb_name

            elif block.kind == "matched_pair":
                block.known_keys(["A", "B", "rho", "sigma"])
                a_name, line = block.single("A", required=True)
                b_name, line_b = block.single("B", required=True)
                if a_name not in algebroids:
                    raise ModelError(f"unresolved algebroid reference {a_name!r}", line)
                if b_name not in algebroids:
                    raise ModelError(f"unresolved algebroid reference {b_name!r}", line_b)
                a_alg, b_alg = algebroids[a_name], algebroids[b_name]
                rho_ders = [Derivation(a_alg.anchor_field(i), [[Polynomial.zero(a_alg.chart)] * b_alg.rank for _ in range(b_alg.rank)]) for i in range(a_alg.rank)]
                for args, value, line in block.calls("rho"):
                    which = _split_args(args)
                    if len(which) != 1:
                        raise ModelError("rho takes one frame name", line)
                    i = _frame_indices(a_alg.frames, which, line)[0]
                    rho_ders[i] = _parse_derivation_value(
                        value, a_alg.chart, a_alg.anchor_field(i), b_alg.frames, line
                    )
                sigma_ders = [Derivation(b_alg.anchor_field(j), [[Polynomial.zero(a_alg.chart)] * a_alg.rank for _ in range(a_alg.rank)]) for j in range(b_alg.rank)]
                for args, value, line in block.calls("sigma"):
                    which = _split_args(args)
                    if len(which) != 1:
                        raise ModelError("sigma takes one frame name", line)
                    j = _frame_indices(b_alg.frames, which, line)[0]
                    sigma_ders[j] = _parse_derivation_value(
                        value, b_alg.chart, b_alg.anchor_field(j), a_alg.frames, line
                    )
                matched_pairs[block.name] = MatchedPair(
                    a_alg, b_alg, RepresentationMap(rho_ders), RepresentationMap(sigma_ders)
                )

            elif block.kind == "double":
                block.known_keys(["dvb", "vertical", "horizontal"])
                vert_name, line = block.single("vertical", required=True)
                hor_name, line_h = block.single("horizontal", required=True)
                if vert_name not in lavbs:
                    raise ModelError(f"unresolved lavb reference {vert_name!r}", line)
                if hor_name not in lavbs:
                    raise ModelError(f"unresolved lavb reference {hor_name!r}", line_h)
                dvb_entry = block.single("dvb")
                if dvb_entry:
                    dvb_name, line_d = dvb_entry
                    if dvb_name not in dvbs:
                        raise ModelError(f"unresolved dvb reference {dvb_name!r}", line_d)
                    for name in (vert_name, hor_name):
                        if lavb_dvbs[name] != dvb_name:
                            raise ModelError(
                                f"lavb {name!r} uses dvb {lavb_dvbs[name]!r}, not {dvb_name!r}",
                                line_d,
                            )
                doubles[block.name] = DoubleLieAlgebroid(lavbs[vert_name], lavbs[hor_name])

        except (ValueError, KeyError) as exc:
            if isinstance(exc, ModelError):
                raise
            raise ModelError(f"in [{block.kind} {block.name}]: {exc}", block.line) from exc

    return ModelFile(
        charts,
        lie_algebras,
        bialgebras,
        algebroids,
        dual_pairs,
        dvbs,
        lavbs,
        matched_pairs,
        doubles,
    )
