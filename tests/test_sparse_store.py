"""The one store of structure functions against the dense table it replaced.

`LieAlgebroid` keeps only `nonzero_structure`: per frame pair the nonzero
c^g_{ab} as (g, c^g_{ab}).  It used to fill an r x r table of r-vectors
from its constructor input, each given pair a < b at (a, b) and negated at
(b, a), zero vectors elsewhere.  The corpus below is built from explicit
generators, so it is the same whichever constructor a derivation calls:
the algebroids of outside input (seeded random brackets, the sweep pairs,
the bundled models, the catalog, the seeded bialgebras and the sides of
the matched-pair gate), each with the bracket input its validating
constructor was given, and the derived ones (the totals, induced duals,
core and dual pair of the diagnostics, vacant, tt and ladder doubles, and
the bowties of the matched-pair gate), each with the dense brackets of the
writer its store replaced.  Each is compared with that table: the store
expands to it, stores no zero, has an empty diagonal and stores at (b, a)
the negation of (a, b); `brackets_by_gamma` reads the same entries.
"""

import functools
import itertools
import random
from collections import Counter

import catalog
from doublealg import liealg, matched
from doublealg.algebroid import (
    LieAlgebroid,
    PoissonChart,
    change_frames,
    check_algebroid,
    coadjoint,
    contragredient,
    cotangent_algebroid,
    sparse_matrix,
    unique_names,
)
from doublealg.doublela import build_cotangent_double, check_double
from doublealg.exact import Chart, Polynomial
from doublealg.liealg import BialgebraError, drinfeld_double
from doublealg.matched import assemble_bowtie
from doublealg.model import parse_model
from support import (
    MODELS,
    XY,
    dense_bowtie_brackets,
    dense_data,
    dense_dual_data,
    dense_generator_input,
    dense_structure,
    entries,
    full_decide_axioms,
    gate_corpus,
    gate_doubles,
    matched_gate_pairs,
    random_bracket,
    random_pairs,
    semidirect_corpus,
    sweep_pairs,
)

# the explicit corpus: its size and how many of its algebroids fail
# `check_algebroid` (the hooked corpus it replaced held 1007, 473 failing)
CORPUS_SIZE = 4941
CORPUS_FAILING = 2977


def parent_dense_table(chart, rank, brackets):
    """The dense table the constructor filled from `brackets`."""
    zero_vec = tuple(Polynomial.zero(chart) for _ in range(rank))
    table = [[zero_vec] * rank for _ in range(rank)]
    for (a, b), comps in brackets.items():
        table[a][b] = tuple(comps)
        table[b][a] = tuple(-p for p in comps)
    return tuple(tuple(row) for row in table)


# --- the corpus, from explicit generators


def recorded(build):
    """`build()`, and each algebroid that the validating constructor or
    `assemble_bowtie` built while it ran, with a copy of its constructor's
    bracket input; a bowtie, which the trusted constructor builds, with the
    dense brackets of the writer its store replaced
    (`support.dense_bowtie_brackets`)."""
    built = []
    init, assemble = LieAlgebroid.__init__, matched.assemble_bowtie

    def recording(self, chart, frames, anchor, brackets=None):
        init(self, chart, frames, anchor, brackets)
        built.append((self, {pair: tuple(comps) for pair, comps in (brackets or {}).items()}))

    def recording_bowtie(mp):
        bowtie = assemble(mp)
        built.append((bowtie, {pair: tuple(comps) for pair, comps in dense_bowtie_brackets(mp).items()}))
        return bowtie

    LieAlgebroid.__init__ = recording
    matched.assemble_bowtie = liealg.assemble_bowtie = recording_bowtie
    try:
        return build(), built
    finally:
        LieAlgebroid.__init__ = init
        matched.assemble_bowtie = liealg.assemble_bowtie = assemble


def outside_algebroids():
    """The algebroids of outside input, built afresh: the seeded random
    brackets, the sides of the sweep pairs with the cotangent algebroids
    they rename, the bundled models, the catalog pairs and the sides of the
    matched-pair gate."""
    out = []
    rng = random.Random(11)
    for k in range(120):
        out.append(random_bracket(rng, tuple(f"e{i + 1}" for i in range(1 + k % 4))))
    for name, pair in sweep_pairs(range(301, 305)):
        out += pair
        if name.endswith("cotangent_pair"):  # the second, renamed from dx, dy
            out.append(cotangent_algebroid(PoissonChart(XY, pair[1].anchor)))
    for path in sorted(MODELS.glob("*")):
        model = parse_model(path.read_text())
        out += [*model.algebroids.values(), *model.lie_algebras.values()]
        out += [L for b in model.bialgebras.values() for L in (b.algebra, b.dual)]
    out += [
        *catalog.tangent_cotangent_pair(),
        *catalog.broken_dual_pair_point(),
        *catalog.broken_dual_pair_chart(),
        *catalog.broken_dual_pair_so3(),
    ]
    # the sides of the gate: the point pair (g, g*) of each seeded bialgebra,
    # whose coadjoint pair it holds, and those of its other pairs
    out += [L for b in gate_corpus() for L in (b.algebra, b.dual)]
    pairs = [*semidirect_corpus(), *random_pairs(200, seed=17)]
    return out + [L for mp in pairs for L in (mp.algebroid_a, mp.algebroid_b)]


def cotangent_input(L):
    """The brackets [dz^i, dz^j] = d(pi^ij) of the cotangent algebroid
    whose anchor holds pi, whatever its frames are named."""
    return {
        (i, j): tuple(L.anchor[i][j].partial(name) for name in L.chart.names)
        for i, j in itertools.combinations(range(L.rank), 2)
    }


def core_input(dla):
    """The core algebroid by the formulas of `doublela.core_algebroid` on
    the dense generator data: anchor(c_g) = sum_a d_A[g][a] rho_A(e_a) and
    [c_g1, c_g2] at c_d = sum_a d_A[g1][a] q^h_a[g2][d]
    - sum_b d_B[g2][b] q^v_b[g1][d]."""
    base, rc, ra, rb = dla.chart, len(dla.core_frames), dla.side_a.rank, dla.side_b.rank
    zero = Polynomial.zero(base)
    _, q_v, d_a, _ = dense_data(dla.vertical)
    _, q_h, d_b, _ = dense_data(dla.horizontal)
    anchor = [
        [sum((d_a[g][a] * dla.side_a.anchor[a][i] for a in range(ra)), zero) for i in range(base.dim)]
        for g in range(rc)
    ]
    brackets = {
        (g1, g2): [
            sum((d_a[g1][a] * q_h[a][g2][d] for a in range(ra)), zero)
            - sum((d_b[g2][b] * q_v[b][g1][d] for b in range(rb)), zero)
            for d in range(rc)
        ]
        for g1, g2 in itertools.combinations(range(rc), 2)
    }
    return base, unique_names(dla.core_frames, base.names), anchor, brackets


def permuted_input(given, columns, frames):
    """The frame change of the dense input `given` by the signed
    permutation `columns`, new frame j = s_j e_{p(j)}:
    c'^m_{ab} = s_a s_b s_m c^{p(m)}_{p(a) p(b)} on the dense table."""
    chart, _, anchor, brackets = given
    table = parent_dense_table(chart, len(columns), brackets)
    return (
        chart,
        frames,
        [[e.scale(s) for e in anchor[p]] for p, s in columns],
        {
            (a, b): [table[pa][pb][pm].scale(sa * sb * sm) for pm, sm in columns]
            for (a, (pa, sa)), (b, (pb, sb)) in itertools.combinations(enumerate(columns), 2)
        },
    )


def double_algebroids(dla):
    """The totals and induced duals of both LA-vector bundles of `dla`, its
    core and the second algebroid of its dual pair, each with the input of
    the dense writer its derivation replaced."""
    out = []
    for v in (dla.vertical, dla.horizontal):
        for built, data in ((v.total, dense_data(v)), (v.induced_dual, dense_dual_data(v))):
            names = built.chart.names[v.side.chart.dim :], built.frames[v.side.rank :]
            out.append((built, dense_generator_input(v.side, data, *names)))
    e_h = out[-1][1]  # the horizontal induced dual
    ra, rb = dla.side_a.rank, dla.side_b.rank
    columns = [(ra + beta, 1) for beta in range(rb)] + [(a, -1) for a in range(ra)]
    dual = dla.dual_pair[1]
    return out + [(dla.core, core_input(dla)), (dual, permuted_input(e_h, columns, dual.frames))]


def derived_algebroids():
    """The derived algebroids of the diagnostics doubles (the ladder rungs
    among them), the vacant doubles of the matched-pair gate and tt1..tt8,
    and the bowties of the matched-pair gate, each with its dense input."""
    out = [item for _, dla in gate_doubles() for item in double_algebroids(dla)]
    for mp in matched_gate_pairs():
        a, b = mp.algebroid_a, mp.algebroid_b
        given = mp.chart, a.frames + b.frames, a.anchor + b.anchor, dense_bowtie_brackets(mp)
        out.append((assemble_bowtie(mp), given))
    return out


@functools.cache
def explicit_corpus():
    """Each algebroid of the corpus once, with its dense bracket input: the
    outside input its validating constructor was given, or the dense
    cotangent brackets of one that a test helper renamed through
    `change_frames`; a derived one's from the dense writer, whose input the
    validating constructor must turn into the same algebroid."""
    outside, built = recorded(outside_algebroids)
    outside += [L for mp in matched_gate_pairs() for L in (mp.algebroid_a, mp.algebroid_b)]
    inputs, corpus = {}, {}
    for L, brackets in built:
        inputs.setdefault(L, brackets)
    for L in outside:
        if L not in inputs:
            inputs[L] = cotangent_input(L)
            assert LieAlgebroid(L.chart, L.frames, L.anchor, inputs[L]) == L
        corpus.setdefault(L, inputs[L])
    for L, (chart, frames, anchor, brackets) in derived_algebroids():
        assert LieAlgebroid(chart, frames, anchor, brackets) == L
        corpus.setdefault(L, brackets)
    return tuple(corpus.items())


def test_sparse_store_equals_the_dense_table():
    verdicts = Counter()
    for L, brackets in explicit_corpus():
        store = L.nonzero_structure
        assert dense_structure(L) == parent_dense_table(L.chart, L.rank, brackets)
        assert all(p for row in store for entry in row for _, p in entry)
        assert all(list(entry) == sorted(entry, key=lambda t: t[0]) for row in store for entry in row)
        assert all(store[a][a] == () for a in range(L.rank))
        for a, b in itertools.combinations(range(L.rank), 2):
            assert store[b][a] == tuple((g, -p) for g, p in store[a][b])
        by_gamma = [
            [(a, b, p) for a, b in itertools.combinations(range(L.rank), 2) for g, p in store[a][b] if g == gamma]
            for gamma in range(L.rank)
        ]
        assert [list(row) for row in L.brackets_by_gamma] == by_gamma
        verdicts[check_algebroid(L).ok] += 1
    assert (sum(verdicts.values()), verdicts[False]) == (CORPUS_SIZE, CORPUS_FAILING)


def test_axioms_equal_the_full_frame_loops():
    """`check_algebroid` decides only the frame pairs and triples that the
    sparsity pattern does not prove zero; on every algebroid of the corpus
    its report, witnesses included, is the one of the full loops."""
    for L, _ in explicit_corpus():
        assert check_algebroid(L) == full_decide_axioms(L), L.frames


def test_coadjoint_is_the_contragredient_of_the_adjoint():
    """ad*_{e_a} = (ad_{e_a})*, with ad_{e_a} e_b = [e_a, e_b] read off the
    dense table."""
    corpus = explicit_corpus()
    assert len(corpus) == CORPUS_SIZE
    for L, _ in corpus:
        table = dense_structure(L)
        adjoint = [sparse_matrix(entries(table[a]), L.rank, L.rank, "") for a in range(L.rank)]
        assert coadjoint(L) == tuple(map(contragredient, adjoint))


# --- the hooked collection the explicit corpus replaced


def build_corpus():
    """Seeded random brackets (mostly failing), the sweep pairs and what
    deciding their cotangent doubles builds, the bundled models, signed
    frame permutations, and the point pairs and doubles of the seeded
    bialgebras."""
    rng = random.Random(11)
    for k in range(120):
        L = random_bracket(rng, tuple(f"e{i + 1}" for i in range(1 + k % 4)))
        if L.rank >= 2:
            change_frames(L, [[int(i == L.rank - 1 - j) for j in range(L.rank)] for i in range(L.rank)], L.frames)
    for _, pair in sweep_pairs(range(301, 305)):
        check_double(build_cotangent_double(*pair))
    for path in sorted(MODELS.glob("*")):
        parse_model(path.read_text())
    for b in gate_corpus()[:80]:  # builds each point pair (g, g*)
        try:
            drinfeld_double(b)
        except BialgebraError:
            pass


def test_corpus_holds_every_algebroid_the_hooked_collection_records():
    """Every algebroid that `recorded` sees while the former corpus builds
    is in the explicit corpus, by `==`.  Which ones it sees follows the
    constructor each derivation calls, so routing can only shrink it."""
    corpus = dict(explicit_corpus())
    _, built = recorded(build_corpus)
    assert [L for L, _ in built if L not in corpus] == []


def test_zero_and_omitted_brackets_store_nothing():
    chart = Chart(("x",))
    zero, x = Polynomial.zero(chart), Polynomial.coordinate(chart, "x")
    L = LieAlgebroid(chart, ("a", "b", "c"), [[zero]] * 3, {(0, 1): (zero, zero, zero), (1, 2): (x, zero, -x)})
    assert L.nonzero_structure[0][1] == L.nonzero_structure[1][0] == ()
    assert L.nonzero_structure[1][2] == ((0, x), (2, -x))
    assert L.nonzero_structure[2][1] == ((0, -x), (2, x))
    assert not hasattr(L, "structure")
