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

Each block is read into the one stored form of its structure: a
[cobracket] into the `Bialgebra` pair (g, g*), a [matched_pair] into its
two tuples of derivations.  Entries of one shape share one reader:
`_call_indices` checks a call's argument count and finds each argument in
its frame list, `_resolve` looks up a reference to an earlier block, and
`_brackets` reads the brackets of [lie_algebra] and [algebroid] blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, TypeVar

from .algebroid import LieAlgebroid
from .doublela import DoubleLieAlgebroid
from .dvb import DecomposedDVB
from .exact import Chart, Polynomial
from .lavb import LAVBundle
from .liealg import Bialgebra, LieAlgebra, cobracket_dual
from .matched import MatchedPair
from .parsing import (
    ParseError,
    parse_combination,
    parse_vector_field,
    parse_wedge_combination,
)

_HEADER = re.compile(r"^\[(\w+)(?:\s+([A-Za-z_][A-Za-z0-9_']*))?\]$")
_ASSIGN = re.compile(r"^([A-Za-z_][A-Za-z0-9_']*)\s*(\(([^)]*)\))?\s*=\s*(.*)$")
_DECIMAL = re.compile(r"-?[0-9]+")

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


_T = TypeVar("_T")

# Largest dimension or rank a model file may give as a number, and the most
# names a name list may hold: the Jacobi check of an algebroid takes time
# cubic in its rank.
MAX_COUNT = 64


class ModelError(ValueError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _parse_count(label: str, text: str, line: int) -> int:
    """`text` as a count between 0 and MAX_COUNT, else a parse error at `line`.

    A count is written in ASCII digits, as `-?[0-9]+`.  `int` refuses
    such a literal only when it has more digits than Python converts
    (`sys.get_int_max_str_digits`); such a count is out of range.  A
    rejected literal longer than 20 characters is named by its length, not
    echoed."""
    literal = text.strip()
    shown = f"a {len(literal)}-character literal" if len(literal) > 20 else None
    if not _DECIMAL.fullmatch(literal):
        raise ModelError(f"{label} must be an integer, got {shown or repr(literal)}", line)
    try:
        value = int(literal)
    except ValueError:
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
    if len(names) > MAX_COUNT:
        raise ModelError(f"a name list holds at most {MAX_COUNT} names, got {len(names)}", line)
    if any(not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", n) for n in names):
        raise ModelError(f"bad name list {text!r}", line)
    return names


def _split_args(args: str) -> List[str]:
    return [part.strip() for part in re.split(r"[;,]", args) if part.strip()]


def _raw_blocks(text: str) -> List[RawBlock]:
    blocks: List[RawBlock] = []
    current: Optional[RawBlock] = None
    used_names = set()
    kind_counts: Dict[str, int] = dict.fromkeys(_BLOCK_TYPES, 0)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _HEADER.match(line)
        if header:
            kind, name = header.group(1), header.group(2)
            if kind not in _BLOCK_TYPES:
                raise ModelError(f"unknown block type [{kind}]", line_no)
            kind_counts[kind] += 1
            if name is None:
                # the k-th block of its kind, named or not, is <kind>_k
                name = f"{kind}_{kind_counts[kind]}"
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


def _frame_index(names: Sequence[str], wanted: str, line: int) -> int:
    if wanted not in names:
        raise ModelError(f"unknown frame {wanted!r} (have {', '.join(names)})", line)
    return names.index(wanted)


def _call_indices(args: str, line: int, usage: str, *frame_lists: Sequence[str]) -> List[int]:
    """The index of each argument of a call entry in its frame list, in
    order; an argument count other than one per list is the error `usage`."""
    wanted = _split_args(args)
    if len(wanted) != len(frame_lists):
        raise ModelError(usage, line)
    return [_frame_index(names, w, line) for names, w in zip(frame_lists, wanted)]


def _resolve(table: Mapping[str, _T], kind: str, entry: Tuple[str, int]) -> _T:
    """The block of `kind` that the `(name, line)` entry names."""
    name, line = entry
    if name not in table:
        raise ModelError(f"unresolved {kind} reference {name!r}", line)
    return table[name]


def _brackets(
    block: RawBlock, chart: Chart, frames: Tuple[str, ...], noun: str
) -> Dict[Tuple[int, int], Tuple[Polynomial, ...]]:
    """The bracket(x, y) = combination entries of a [lie_algebra] or
    [algebroid] block as component vectors on pairs a < b; `noun` is
    "basis" or "frame", the word for an argument."""
    brackets = {}
    for args, value, line in block.calls("bracket", unordered_pair=True):
        i, j = _call_indices(args, line, f"bracket takes two {noun} names", frames, frames)
        if i == j:
            raise ModelError(
                f"bracket({frames[i]}, {frames[j]}) violates antisymmetry "
                "(diagonal brackets are identically zero)",
                line,
            )
        combo = _parsed(line, parse_combination, value, chart, frames)
        vec = tuple(combo[name] for name in frames)
        brackets[(min(i, j), max(i, j))] = vec if i < j else tuple(-p for p in vec)
    return brackets


def _parse_derivation_value(
    value: str, chart: Chart, frames: Tuple[str, ...], line: int
) -> List[List[Polynomial]]:
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
            idx = _frame_index(frames, frame_name, line)
            if idx in seen:
                raise ModelError(f"duplicate frame {frame_name!r} in derivation{{...}}", line)
            seen.add(idx)
            combo_map = _parsed(line, parse_combination, combo.strip(), chart, frames)
            matrix[idx] = [combo_map[name] for name in frames]
    return matrix


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
        if value.startswith("["):
            return Chart(_parse_name_list(value, line))
        return _resolve(charts, "chart", (value, line))

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
                brackets = _brackets(block, Chart(()), names, "basis")
                lie_algebras[block.name] = LieAlgebra(dim, brackets, names)

            elif block.kind == "cobracket":
                block.known_keys(["algebra", "delta"])
                algebra_entry = block.single("algebra", required=True)
                algebra = _resolve(lie_algebras, "lie_algebra", algebra_entry)
                images = {}
                for args, value, line in block.calls("delta"):
                    (i,) = _call_indices(args, line, "delta takes one basis name", algebra.frames)
                    images[i] = _parsed(line, parse_wedge_combination, value, algebra.frames)
                bialgebras[block.name] = Bialgebra(algebra, cobracket_dual(algebra, images))

            elif block.kind == "algebroid":
                block.known_keys(["base", "frame", "anchor", "bracket", "dual_of"])
                chart = chart_ref(*block.single("base", required=True))
                frames = _parse_name_list(*block.single("frame", required=True))
                rank = len(frames)
                anchor = [
                    [Polynomial.zero(chart) for _ in range(chart.dim)] for _ in range(rank)
                ]
                for args, value, line in block.calls("anchor"):
                    (i,) = _call_indices(args, line, "anchor takes one frame name", frames)
                    anchor[i] = _parsed(line, parse_vector_field, value, chart)
                brackets = _brackets(block, chart, frames, "frame")
                algebroids[block.name] = LieAlgebroid(chart, frames, anchor, brackets)
                dual_entry = block.single("dual_of")
                if dual_entry:
                    partner, line = dual_entry
                    partner_alg = _resolve(algebroids, "algebroid", dual_entry)
                    if partner_alg.rank != rank:
                        raise ModelError("dual pair must have matching ranks", line)
                    if partner_alg.chart != chart:
                        raise ModelError("dual pair must share a chart", line)
                    dual_pairs[block.name] = partner

            elif block.kind == "dvb":
                block.known_keys(["base", "frames_A", "frames_B", "frames_C", "ranks"])
                chart = chart_ref(*block.single("base", required=True))
                triples = []
                ranks_entry = block.single("ranks")
                defaults = {"A": "a", "B": "b", "C": "c"}
                rank_map = {}
                if ranks_entry:
                    text, line = ranks_entry
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
                dvb_entry = block.single("dvb", required=True)
                shape = _resolve(dvbs, "dvb", dvb_entry)
                chart, frames_c = shape.chart, shape.frames_c
                side_entry = block.single("side", required=True)
                side = _resolve(algebroids, "algebroid", side_entry)
                line = side_entry[1]
                if side.chart != chart:
                    raise ModelError("side algebroid must live on the dvb base chart", line)
                # orientation: the side algebroid matches one pair of parallel
                # sides, the bundle of the structure is the other one
                if side.frames == shape.frames_b:
                    frames_a = shape.frames_a
                elif side.frames == shape.frames_a:
                    frames_a = shape.frames_b
                else:
                    raise ModelError(
                        f"side frames {side.frames} match neither dvb side "
                        f"({shape.frames_a} / {shape.frames_b})",
                        line,
                    )
                frames_b = side.frames
                ra, rb, rc = len(frames_a), len(frames_b), len(frames_c)
                zero = Polynomial.zero(chart)
                # lambda and q: per side frame, a derivation on the bundle
                # (the anchor derivation) and one on the core
                derivations = []
                for key, noun, own in (("lambda", "bundle", frames_a), ("q", "core", frames_c)):
                    matrices = [[[zero] * len(own) for _ in own] for _ in range(rb)]
                    usage = f"{key} takes (side frame; {noun} frame)"
                    for args, value, line in block.calls(key):
                        beta, a = _call_indices(args, line, usage, frames_b, own)
                        combo = _parsed(line, parse_combination, value, chart, own)
                        matrices[beta][a] = [combo[name] for name in own]
                    derivations.append(matrices)
                core_anchor = [[zero] * ra for _ in range(rc)]
                for args, value, line in block.calls("del"):
                    (g,) = _call_indices(args, line, "del takes one core frame", frames_c)
                    combo = _parsed(line, parse_combination, value, chart, frames_a)
                    core_anchor[g] = [combo[name] for name in frames_a]
                twist = {}
                usage = "twist takes (side, side; bundle frame)"
                for args, value, line in block.calls("twist", unordered_pair=True):
                    b1, b2, a = _call_indices(args, line, usage, frames_b, frames_b, frames_a)
                    if b1 == b2:
                        raise ModelError("twist pair must be distinct (antisymmetry)", line)
                    combo = _parsed(line, parse_combination, value, chart, frames_c)
                    sign = 1 if b1 < b2 else -1
                    mat = twist.setdefault(
                        (min(b1, b2), max(b1, b2)), [[zero] * rc for _ in range(ra)]
                    )
                    for g, name in enumerate(frames_c):
                        mat[a][g] = mat[a][g] + combo[name].scale(sign)
                lavbs[block.name] = LAVBundle(
                    side, frames_a, frames_c, *derivations, core_anchor, twist
                )
                lavb_dvbs[block.name] = dvb_entry[0]

            elif block.kind == "matched_pair":
                block.known_keys(["A", "B", "rho", "sigma"])
                a_entry = block.single("A", required=True)
                b_entry = block.single("B", required=True)
                a_alg = _resolve(algebroids, "algebroid", a_entry)
                b_alg = _resolve(algebroids, "algebroid", b_entry)
                # rho: A acting on B, sigma: B acting on A; an omitted
                # derivation is zero over the anchor
                reps = []
                for key, acting, target in (("rho", a_alg, b_alg), ("sigma", b_alg, a_alg)):
                    zero = Polynomial.zero(acting.chart)
                    ders = [[[zero] * target.rank] * target.rank] * acting.rank
                    usage = f"{key} takes one frame name"
                    for args, value, line in block.calls(key):
                        (i,) = _call_indices(args, line, usage, acting.frames)
                        ders[i] = _parse_derivation_value(value, acting.chart, target.frames, line)
                    reps.append(ders)
                matched_pairs[block.name] = MatchedPair(a_alg, b_alg, *reps)

            elif block.kind == "double":
                block.known_keys(["dvb", "vertical", "horizontal"])
                entries = (
                    block.single("vertical", required=True),
                    block.single("horizontal", required=True),
                )
                vertical, horizontal = (_resolve(lavbs, "lavb", entry) for entry in entries)
                dvb_entry = block.single("dvb")
                if dvb_entry:
                    dvb_name, line = dvb_entry
                    _resolve(dvbs, "dvb", dvb_entry)
                    for name, _ in entries:
                        if lavb_dvbs[name] != dvb_name:
                            raise ModelError(
                                f"lavb {name!r} uses dvb {lavb_dvbs[name]!r}, not {dvb_name!r}",
                                line,
                            )
                doubles[block.name] = DoubleLieAlgebroid(vertical, horizontal)

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
