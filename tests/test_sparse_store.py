"""The one store of structure functions against the dense table it replaced.

`LieAlgebroid` keeps only `nonzero_structure`: per frame pair the nonzero
c^g_{ab} as (g, c^g_{ab}).  It used to fill an r x r table of r-vectors
from its constructor input, each given pair a < b at (a, b) and negated at
(b, a), zero vectors elsewhere.  Every algebroid that the corpus below
builds, through the package's own builders or directly, is recorded with
its constructor input, and each Drinfel'd double, a bowtie built from its
store, with the dense brackets its store replaced.  Each is compared with
that table: the store expands to
it, stores no zero, has an empty diagonal and stores at (b, a) the
negation of (a, b); `brackets_by_gamma` reads the same entries.
"""

import itertools
import random
from collections import Counter

from doublealg import liealg, matched
from doublealg.algebroid import (
    LieAlgebroid,
    change_frames,
    check_algebroid,
    coadjoint,
    contragredient,
    sparse_matrix,
)
from doublealg.doublela import build_cotangent_double, check_double
from doublealg.exact import Chart, Polynomial
from doublealg.liealg import BialgebraError, drinfeld_double
from doublealg.model import parse_model
from support import (
    MODELS,
    dense_bowtie_brackets,
    dense_structure,
    entries,
    gate_corpus,
    random_bracket,
    sweep_pairs,
)


def parent_dense_table(chart, rank, brackets):
    """The dense table the constructor filled from `brackets`."""
    zero_vec = tuple(Polynomial.zero(chart) for _ in range(rank))
    table = [[zero_vec] * rank for _ in range(rank)]
    for (a, b), comps in brackets.items():
        table[a][b] = tuple(comps)
        table[b][a] = tuple(-p for p in comps)
    return tuple(tuple(row) for row in table)


def recorded(monkeypatch, build):
    """Every algebroid constructed while `build()` runs, with a copy of its
    constructor's bracket input.  A bowtie, which `assemble_bowtie` builds
    through the trusted constructor, is recorded with the dense brackets of
    the writer its store replaced (`support.dense_bowtie_brackets`)."""
    built = []
    init = LieAlgebroid.__init__
    assemble = matched.assemble_bowtie

    def recording(self, chart, frames, anchor, brackets=None):
        init(self, chart, frames, anchor, brackets)
        built.append((self, {pair: tuple(comps) for pair, comps in (brackets or {}).items()}))

    def recording_bowtie(mp):
        bowtie = assemble(mp)
        built.append((bowtie, {pair: tuple(comps) for pair, comps in dense_bowtie_brackets(mp).items()}))
        return bowtie

    monkeypatch.setattr(LieAlgebroid, "__init__", recording)
    for module in (matched, liealg):
        monkeypatch.setattr(module, "assemble_bowtie", recording_bowtie)
    try:
        build()
    finally:
        monkeypatch.undo()
    return built


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


def test_sparse_store_equals_the_dense_table(monkeypatch):
    built = recorded(monkeypatch, build_corpus)
    verdicts = Counter()
    for L, brackets in built:
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
    # seed 11 and the corpus above give 1007 algebroids, 473 of them failing
    assert sum(verdicts.values()) >= 300
    assert verdicts[False] >= 300 and verdicts[True] >= 300


def test_coadjoint_is_the_contragredient_of_the_adjoint(monkeypatch):
    """ad*_{e_a} = (ad_{e_a})*, with ad_{e_a} e_b = [e_a, e_b] read off the
    dense table."""
    built = recorded(monkeypatch, build_corpus)
    assert len(built) >= 1000
    for L, _ in built:
        table = dense_structure(L)
        adjoint = [sparse_matrix(entries(table[a]), L.rank, L.rank, "") for a in range(L.rank)]
        assert coadjoint(L) == tuple(map(contragredient, adjoint))


def test_zero_and_omitted_brackets_store_nothing():
    chart = Chart(("x",))
    zero, x = Polynomial.zero(chart), Polynomial.coordinate(chart, "x")
    L = LieAlgebroid(chart, ("a", "b", "c"), [[zero]] * 3, {(0, 1): (zero, zero, zero), (1, 2): (x, zero, -x)})
    assert L.nonzero_structure[0][1] == L.nonzero_structure[1][0] == ()
    assert L.nonzero_structure[1][2] == ((0, x), (2, -x))
    assert L.nonzero_structure[2][1] == ((0, -x), (2, x))
    assert not hasattr(L, "structure")
