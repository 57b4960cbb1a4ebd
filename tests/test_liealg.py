"""Bialgebras, doubles and Manin conditions, tested against independent oracles."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import linalg
from catalog import (
    abelian_bialgebra,
    coadjoint_pair,
    heisenberg_noncocycle_bialgebra,
    solvable2_bialgebra,
)
from doublealg.algebroid import (
    Multisection,
    check_algebroid,
    coadjoint,
    compatibility_defect,
    first_jacobiator,
    frame_defect,
)
from doublealg.doublela import assemble_vacant_double, check_double
from doublealg.exact import format_rat
from doublealg.formatting import format_pairing_lines
from doublealg.model import parse_model
from doublealg.liealg import (
    BialgebraError,
    LieAlgebra,
    check_manin,
    drinfeld_double,
)
from doublealg.matched import MatchedPair, check_matched
from manin_oracle import (
    PairedAlgebra,
    basis,
    bracket,
    check_cocycle,
    check_paired,
    cocycle_defect,
    dense_drinfeld_double,
    dual_algebra,
    dual_bracket,
    format_vector,
    formula_double,
    halves,
    hyperbolic_pairing,
    image,
    image_of,
    jacobi_report,
    paired_double,
)
from support import (
    MODELS,
    ImageBialgebra,
    bialgebra,
    component,
    constants,
    frame_section,
    gate_corpus,
    image_drinfeld_double,
    parsed_bialgebra,
    random_bialgebra,
)


def dual_bialgebra(b: ImageBialgebra) -> ImageBialgebra:
    """Swap roles: the dual bracket with the original bracket as cobracket."""
    dual = dual_bracket(b)
    n = b.dim
    images = {}
    for k in range(n):
        w = {}
        for i, j in itertools.combinations(range(n), 2):
            c = constants(b.algebra)[i][j][k]
            if c != 0:
                w[(i, j)] = c
        images[k] = w
    return bialgebra(dual, images)


def wedge_pairing_oracle(i, j, w, n):
    """<eps^i ^ eps^j, w> for w in the exterior square, by the determinant
    convention <phi^psi, X^Y> = <phi,X><psi,Y> - <phi,Y><psi,X>."""
    total = Fraction(0)
    for (a, b), coeff in w.items():
        det = (
            (Fraction(1) if i == a else Fraction(0)) * (Fraction(1) if j == b else Fraction(0))
            - (Fraction(1) if i == b else Fraction(0)) * (Fraction(1) if j == a else Fraction(0))
        )
        total += coeff * det
    return total


def jacobiator_oracle(g):
    """Independent brute force over all basis triples, using only bracket()."""
    n, c = g.rank, constants(g)
    worst = []
    for i, j, k in itertools.combinations(range(n), 3):
        value = bracket(c, bracket(c, basis(n, i), basis(n, j)), basis(n, k))
        value = tuple(
            a + b
            for a, b in zip(
                value, bracket(c, bracket(c, basis(n, j), basis(n, k)), basis(n, i))
            )
        )
        value = tuple(
            a + b
            for a, b in zip(
                value, bracket(c, bracket(c, basis(n, k), basis(n, i)), basis(n, j))
            )
        )
        if any(v != 0 for v in value):
            worst.append((i, j, k))
    return worst


class TestDualBracket:
    def test_abelian_cobracket_gives_abelian_dual(self):
        dual = dual_bracket(abelian_bialgebra(3))
        assert all(
            all(c == 0 for c in constants(dual)[i][j])
            for i in range(3)
            for j in range(3)
        )

    def test_solvable2_example_matches_determinant_oracle(self):
        b = solvable2_bialgebra()
        dual = dual_bracket(b)
        # oracle: <[eps^i, eps^j]_*, e_k> = <eps^i ^ eps^j, delta(e_k)>
        for i, j in itertools.combinations(range(2), 2):
            for k in range(2):
                expected = wedge_pairing_oracle(i, j, image(b.cobracket, k), 2)
                assert constants(dual)[i][j][k] == expected
        # explicitly: [eps1, eps2]_* = eps2
        assert constants(dual)[0][1] == (Fraction(0), Fraction(1))

    def test_biduality(self):
        for b in (solvable2_bialgebra(), abelian_bialgebra(2)):
            again = dual_bracket(dual_bialgebra(b))
            assert constants(again) == constants(b.algebra)

    def test_non_cojacobi_rejected(self):
        # delta whose dual bracket violates Jacobi: [eps1,eps2]=eps3,
        # [eps1,eps3]=eps1 on an abelian 3-dim algebra
        b = bialgebra(LieAlgebra(3, {}), {2: {(0, 1): 1}, 0: {(0, 2): 1}})
        with pytest.raises(BialgebraError):
            dual_bracket(b)
        # the ungated builder returns the same bracket, failing Jacobi
        assert not jacobi_report(dual_algebra(b)).ok
        assert not check_algebroid(b.dual).ok


class TestCocycle:
    def test_abelian_always_passes(self):
        b = bialgebra(LieAlgebra(2, {}), {0: {(0, 1): 2}, 1: {(0, 1): -3}})
        assert check_cocycle(b).ok

    def test_solvable2_passes_against_oracle(self):
        b = solvable2_bialgebra()
        assert check_cocycle(b).ok
        # independent oracle: expand both sides of the identity on (e1, e2)
        lhs = image_of(b.cobracket, constants(b.algebra)[0][1])
        def ad_oracle(x_index, w):
            out = {}
            for (a, c), coeff in w.items():
                for k, val in enumerate(constants(b.algebra)[x_index][a]):
                    if val:
                        pair = (k, c) if k < c else (c, k)
                        if k != c:
                            out[pair] = out.get(pair, Fraction(0)) + (
                                coeff * val if k < c else -coeff * val
                            )
                for k, val in enumerate(constants(b.algebra)[x_index][c]):
                    if val:
                        pair = (a, k) if a < k else (k, a)
                        if a != k:
                            out[pair] = out.get(pair, Fraction(0)) + (
                                coeff * val if a < k else -coeff * val
                            )
            return {p: v for p, v in out.items() if v != 0}
        rhs = ad_oracle(0, image(b.cobracket, 1))
        for pair, coeff in ad_oracle(1, image(b.cobracket, 0)).items():
            rhs[pair] = rhs.get(pair, Fraction(0)) - coeff
        rhs = {p: v for p, v in rhs.items() if v != 0}
        assert lhs == rhs

    def test_heisenberg_perturbation_fails_with_witness(self):
        report = check_cocycle(heisenberg_noncocycle_bialgebra())
        assert not report.ok
        assert "(e1, e2)" in report.first_failure.witness

    def test_dim2_all_cobrackets_are_cocycles(self):
        # on the 2-dim solvable algebra the exterior square is a line and
        # every antisymmetric map is a cocycle, so perturbing delta by
        # e1 ^ e2 on e1 still yields a genuine bialgebra
        g = LieAlgebra(2, {(0, 1): (0, 1)})
        perturbed = bialgebra(g, {0: {(0, 1): 1}, 1: {(0, 1): 1}})
        assert check_cocycle(perturbed).ok
        assert jacobi_report(drinfeld_double(perturbed)).ok


class TestDrinfeldDouble:
    def test_abelian_double_is_abelian_with_hyperbolic_pairing(self):
        double = drinfeld_double(abelian_bialgebra(2))
        assert jacobiator_oracle(double) == []
        assert all(
            all(c == 0 for c in constants(double)[i][j])
            for i in range(4)
            for j in range(4)
        )

    @pytest.mark.parametrize("n", range(5))
    def test_pairing_lines_print_the_hyperbolic_matrix(self, n):
        double = drinfeld_double(abelian_bialgebra(n))
        expected = [
            f"pairing({name}) = [{', '.join(format_rat(v) for v in row)}]"
            for name, row in zip(double.frames, hyperbolic_pairing(n))
        ]
        assert format_pairing_lines(double) == expected

    def test_solvable2_double_jacobi_on_all_triples(self):
        double = drinfeld_double(solvable2_bialgebra())
        assert double.rank == 4
        assert jacobiator_oracle(double) == []

    def test_marked_halves_isotropic(self):
        double = paired_double(drinfeld_double(solvable2_bialgebra()))
        for basis_vecs in (double.marked1, double.marked2):
            for u, v in itertools.product(basis_vecs, repeat=2):
                assert double.pair(u, v) == 0

    def test_subalgebra_restrictions(self):
        b = solvable2_bialgebra()
        double = drinfeld_double(b)
        dual = dual_bracket(b)
        n = b.dim
        for i, j in itertools.combinations(range(n), 2):
            assert constants(double)[i][j][:n] == constants(b.algebra)[i][j]
            assert all(c == 0 for c in constants(double)[i][j][n:])
            assert constants(double)[n + i][n + j][n:] == constants(dual)[i][j]
            assert all(c == 0 for c in constants(double)[n + i][n + j][:n])

    def test_non_cocycle_input_rejected_with_witness(self):
        with pytest.raises(BialgebraError, match="cocycle"):
            drinfeld_double(heisenberg_noncocycle_bialgebra())

    def test_rejection_is_justified_by_jacobi_failure(self):
        # assembling the would-be double of the non-cocycle input by the same
        # formulas must produce a Jacobi violation
        candidate = formula_double(heisenberg_noncocycle_bialgebra())
        assert jacobiator_oracle(candidate) != []


def invariance_oracle(p: PairedAlgebra):
    """The dense invariance loop: two basis vectors and two `pair` calls per
    triple (i, j, k) in lexicographic order; the first witness, or None."""
    g = p.algebra
    n2, names, c = g.rank, g.frames, constants(g)
    for i, j, k in itertools.product(range(n2), repeat=3):
        value = p.pair(c[i][j], basis(n2, k)) + p.pair(basis(n2, j), c[i][k])
        if value != 0:
            return (
                f"triple ({names[i]}, {names[j]}, {names[k]}): "
                f"<[z1,z2],z3> + <z2,[z1,z3]> = {format_rat(value)}"
            )
    return None


def assert_invariance_matches_oracle(p: PairedAlgebra) -> bool:
    item = check_paired(p).items[0]
    expected = invariance_oracle(p)
    assert item.check_id == "invariance"
    assert item.ok == (expected is None)
    assert item.witness == (expected or "")
    return item.ok


def with_pairing(p: PairedAlgebra, pairing) -> PairedAlgebra:
    return PairedAlgebra(p.algebra, tuple(tuple(row) for row in pairing), p.marked1, p.marked2)


small = st.integers(-2, 2).map(Fraction)


@st.composite
def random_paired_algebras(draw):
    """Random constants (Jacobi not required) with a random symmetric
    nondegenerate pairing on dim 4; most fail invariance, abelian ones pass."""
    n2 = 4
    pairs = list(itertools.combinations(range(n2), 2))
    brackets = draw(
        st.dictionaries(st.sampled_from(pairs), st.lists(small, min_size=n2, max_size=n2), max_size=3)
    )
    upper = {(i, j): draw(small) for i in range(n2) for j in range(i, n2)}
    pairing = [[upper[min(i, j), max(i, j)] for j in range(n2)] for i in range(n2)]
    assume(linalg.is_invertible(pairing))
    marked1, marked2 = halves(n2)
    return PairedAlgebra(
        LieAlgebra(n2, brackets), tuple(tuple(row) for row in pairing), marked1, marked2
    )


class TestInvarianceAgainstDenseOracle:
    """`check_paired` sums the invariance identity over nonzero structure
    constants; the dense loop it replaced is its oracle."""

    def test_fixed_corpus_of_passing_and_failing_pairings(self):
        doubles = [
            paired_double(drinfeld_double(b))
            for b in (
                solvable2_bialgebra(),
                dual_bialgebra(solvable2_bialgebra()),
                abelian_bialgebra(2),
                abelian_bialgebra(3),
            )
        ]
        corpus = list(doubles)
        for d in doubles:
            n2 = d.algebra.rank
            scaled = [[2 * c for c in row] for row in d.pairing]
            corpus.append(with_pairing(d, scaled))
            skewed = [list(row) for row in d.pairing]
            skewed[0][0] += 1
            corpus.append(with_pairing(d, skewed))
            shifted = [list(row) for row in d.pairing]
            shifted[1][n2 - 1] += Fraction(1, 3)
            shifted[n2 - 1][1] += Fraction(1, 3)
            corpus.append(with_pairing(d, shifted))
        bare = LieAlgebra(4, {(0, 1): (0, 1, 0, 0)})
        corpus.append(PairedAlgebra(bare, hyperbolic_pairing(2), *halves(4)))
        verdicts = [assert_invariance_matches_oracle(p) for p in corpus]
        assert True in verdicts and False in verdicts

    @given(random_paired_algebras())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_paired_algebras(self, p):
        assert_invariance_matches_oracle(p)


def closure_oracle(p: PairedAlgebra, basis):
    """The per-pair rank loop: one `linalg.rank` of the marked span plus the
    bracket for each pair of marked vectors in order; the first witness, or
    None."""
    g = p.algebra
    span = [list(v) for v in basis]
    base_rank = linalg.rank(span)
    for u, v in itertools.combinations(basis, 2):
        w = bracket(constants(g), u, v)
        if linalg.rank(span + [list(w)]) > base_rank:
            names = g.frames
            return (
                f"[{format_vector(u, names)}, {format_vector(v, names)}] = "
                f"{format_vector(w, names)} leaves the subspace"
            )
    return None


def assert_closure_matches_oracle(p: PairedAlgebra) -> bool:
    items = check_paired(p).items[-2:]
    labels = ("closure.marked1", "closure.marked2")
    for item, label, basis in zip(items, labels, (p.marked1, p.marked2)):
        expected = closure_oracle(p, basis)
        assert item.check_id == label
        assert item.ok == (expected is None)
        assert item.witness == (expected or "")
    return all(item.ok for item in items)


def with_marked(p: PairedAlgebra, marked1, marked2) -> PairedAlgebra:
    return PairedAlgebra(p.algebra, p.pairing, tuple(marked1), tuple(marked2))


@st.composite
def random_marked_algebras(draw):
    """Random constants (Jacobi not required) on dim 4 with a random split
    of the space into two marked halves; brackets inside one half pass
    closure, most others fail."""
    n2 = 4
    pairs = list(itertools.combinations(range(n2), 2))
    brackets = draw(
        st.dictionaries(
            st.sampled_from(pairs), st.lists(small, min_size=n2, max_size=n2), max_size=2
        )
    )
    rows = [tuple(draw(st.lists(small, min_size=n2, max_size=n2))) for _ in range(n2)]
    assume(linalg.is_invertible(rows))
    return PairedAlgebra(
        LieAlgebra(n2, brackets), hyperbolic_pairing(2), tuple(rows[:2]), tuple(rows[2:])
    )


class TestClosureAgainstRankOracle:
    """`check_paired` reduces each bracket against one echelon form per
    marked half; the per-pair rank loop it replaced is its oracle."""

    def test_fixed_corpus_of_passing_and_failing_closures(self):
        corpus = []
        for b in (
            solvable2_bialgebra(),
            dual_bialgebra(solvable2_bialgebra()),
            abelian_bialgebra(2),
        ):
            d = paired_double(drinfeld_double(b))
            n2 = d.algebra.rank
            n = n2 // 2
            z = [basis(n2, i) for i in range(n2)]
            corpus.append(d)
            # wrongly split: the first basis vectors of g and of g* swapped
            corpus.append(with_marked(d, [z[n]] + z[1:n], [z[0]] + z[n + 1 :]))
            # skewed: each half sheared by a vector of the other half
            sheared = [tuple(x + y for x, y in zip(z[0], z[n2 - 1]))] + z[1:n]
            corpus.append(with_marked(d, sheared, z[n:]))
            sheared = [tuple(x - y for x, y in zip(z[n], z[1]))] + z[n + 1 :]
            corpus.append(with_marked(d, z[:n], sheared))
            # the same halves in another basis still close
            doubled = [tuple(2 * x for x in v) for v in z[n:]]
            corpus.append(with_marked(d, list(reversed(z[:n])), doubled))
        verdicts = [assert_closure_matches_oracle(p) for p in corpus]
        assert True in verdicts and False in verdicts

    @given(random_marked_algebras())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_marked_halves(self, p):
        assert_closure_matches_oracle(p)


class TestEchelon:
    """`row_echelon` is the one elimination behind `rank`, `inverse` and the
    closure test."""

    @given(st.lists(st.lists(small, min_size=3, max_size=3), max_size=4))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_reduced_form_spans_the_rows(self, matrix):
        rows, pivots = linalg.row_echelon(matrix)
        assert len(rows) == len(pivots) == linalg.rank(matrix)
        assert pivots == sorted(set(pivots))
        for row, c in zip(rows, pivots):
            assert [r[c] for r in rows] == [Fraction(int(other is row)) for other in rows]
            assert not any(row[:c])
        for original in matrix:
            assert not any(linalg.reduce(original, (rows, pivots)))

    @given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_inverse(self, matrix):
        if not linalg.is_invertible(matrix):
            with pytest.raises(ValueError):
                linalg.inverse(matrix)
            return
        inv = linalg.inverse(matrix)
        product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)] for row in matrix]
        assert product == linalg.identity(3)


class TestManin:
    """The dense check of `manin_oracle` on paired algebras; it must fail
    where the Manin conditions fail, so the gate below is not vacuous."""

    def test_double_of_every_passing_bialgebra_passes(self):
        for b in (solvable2_bialgebra(), abelian_bialgebra(2), abelian_bialgebra(3)):
            assert check_paired(paired_double(drinfeld_double(b))).ok

    def test_hyperbolic_pairing_on_abelian_passes(self):
        g = LieAlgebra(4, {})
        p = PairedAlgebra(
            g,
            hyperbolic_pairing(2),
            (basis(4, 0), basis(4, 1)),
            (basis(4, 2), basis(4, 3)),
        )
        assert check_paired(p).ok

    def test_identity_pairing_fails_isotropy(self):
        g = LieAlgebra(4, {})
        ident = tuple(basis(4, i) for i in range(4))
        p = PairedAlgebra(
            g, ident, (basis(4, 0), basis(4, 1)), (basis(4, 2), basis(4, 3))
        )
        report = check_paired(p)
        assert not report.ok
        assert report.first_failure.check_id == "isotropy.marked1"

    def test_invariance_failure_detected(self):
        # solvable algebra paired hyperbolically without the dual bracket
        g = LieAlgebra(2, {(0, 1): (0, 1)})
        big = LieAlgebra(
            4, {(0, 1): (0, 1, 0, 0)}
        )
        p = PairedAlgebra(
            big,
            hyperbolic_pairing(2),
            (basis(4, 0), basis(4, 1)),
            (basis(4, 2), basis(4, 3)),
        )
        report = check_paired(p)
        assert not report.ok
        assert report.first_failure.check_id == "invariance"

    def test_degenerate_pairing_rejected(self):
        g = LieAlgebra(2, {})
        zero = tuple(tuple(Fraction(0) for _ in range(2)) for _ in range(2))
        with pytest.raises(ValueError):
            PairedAlgebra(g, zero, (basis(2, 0),), (basis(2, 1),))


def manin_corpus():
    """(label, bialgebra): the bundled cobrackets, the catalog bialgebras
    and 320 seeded random pairs, 64 of each dim 0-4."""
    out = []
    for path in sorted(MODELS.glob("*")):
        for name, b in parse_model(path.read_text()).bialgebras.items():
            out.append((f"{path.name}:{name}", parsed_bialgebra(b)))
    out += [
        ("solvable2", solvable2_bialgebra()),
        ("abelian2", abelian_bialgebra(2)),
        ("abelian3", abelian_bialgebra(3)),
        ("heisenberg_noncocycle", heisenberg_noncocycle_bialgebra()),
    ]
    rng = random.Random(1313)
    out += [(f"random{dim}:{k}", random_bialgebra(rng, dim)) for dim in range(5) for k in range(64)]
    return out


class TestManinByConstruction:
    """`check_manin` states the five Manin items of every double that
    `drinfeld_double` builds.  The dense oracle passes them on the double
    the same formula builds without the gates, whatever the input, and
    where the gates pass the two doubles are equal."""

    def test_stated_items(self):
        report = check_manin()
        assert report.ok
        assert [item.check_id for item in report.items] == [
            "invariance",
            "isotropy.marked1",
            "isotropy.marked2",
            "closure.marked1",
            "closure.marked2",
        ]

    def test_oracle_passes_every_formula_built_double(self):
        stated = check_manin().items
        verdicts = Counter()
        for label, b in manin_corpus():
            formula = formula_double(b)
            assert check_paired(paired_double(formula)).items == stated, label
            try:
                double = drinfeld_double(b)
            except BialgebraError:
                verdicts[label.startswith("random"), "gate fails"] += 1
                continue
            verdicts[label.startswith("random"), "gates pass"] += 1
            assert double == formula, label
        assert sum(n for (random_pair, _), n in verdicts.items() if random_pair) == 320
        assert verdicts[True, "gate fails"] >= 100
        assert verdicts[True, "gates pass"] >= 100
        assert verdicts[False, "gate fails"] and verdicts[False, "gates pass"]


def gate_outcome(build, b):
    """('double', constants, basis names) or ('error', message)."""
    try:
        double = build(b)
    except BialgebraError as exc:
        return ("error", str(exc))
    return ("double", constants(double), double.frames)


class TestGatesAgainstDenseOracle:
    """`drinfeld_double` decides Jacobi, co-Jacobi and the cocycle condition
    on the dual pair over a point; `manin_oracle.dense_drinfeld_double`
    decides them with the dense vector code that did it before.  Both must
    raise the same `BialgebraError` text or build the same double."""

    def test_same_error_text_or_same_double(self):
        verdicts = Counter()
        for b in gate_corpus():
            expected = gate_outcome(dense_drinfeld_double, b)
            assert gate_outcome(drinfeld_double, b) == expected, b
            verdicts[expected[1].split(":")[0] if expected[0] == "error" else "double"] += 1
        # seed 5 gives 162, 90, 14 and 134
        assert verdicts["algebra fails Jacobi"] >= 120
        assert verdicts["dual bracket fails Jacobi"] >= 65
        assert verdicts["cocycle condition fails"] >= 10
        assert verdicts["double"] >= 100

    def test_compatibility_defect_is_minus_the_cocycle_defect(self):
        """On every frame pair, Jacobi or not: the sign that lets
        `drinfeld_double` read the cocycle defect off the compatibility
        defect, and the closed-form `frame_defect` it reads is that defect."""
        nonzero = Counter()
        for b in gate_corpus():
            g, dual = b.algebra, b.dual
            gated = first_jacobiator(g) is None and first_jacobiator(dual) is None
            for i, j in itertools.combinations(range(b.dim), 2):
                defect = compatibility_defect(g, dual, frame_section(g, i), frame_section(g, j))
                assert Multisection(b.dim, 2, frame_defect(g, dual, i, j)) == defect
                minus = {idx: -poly.terms[0][1] for idx, poly in defect.components}
                assert minus == cocycle_defect(b, i, j)
                nonzero[gated] += not defect.is_zero
        # seed 5 gives 1229 pairs where a Jacobi gate fails first and 21
        # where both pass, so that `drinfeld_double` reads them
        assert nonzero[False] >= 900
        assert nonzero[True] >= 15


def catalog_bialgebras():
    return [
        solvable2_bialgebra(),
        abelian_bialgebra(2),
        abelian_bialgebra(3),
        heisenberg_noncocycle_bialgebra(),
        dual_bialgebra(solvable2_bialgebra()),
    ]


def outcome(build, b):
    """The double `build(b)` returns, or the type and text of its error."""
    try:
        return build(b)
    except ValueError as exc:  # BialgebraError included
        return type(exc), str(exc)


class TestPointPairStore:
    """A `Bialgebra` stores g* in place of the cobracket images that the
    test oracles keep.  `support.image_drinfeld_double` is `drinfeld_double`
    as it read those images; the two return equal doubles or raise the same
    error, and g* is the cobracket transposed by the determinant pairing."""

    def corpus(self):
        clash = bialgebra(LieAlgebra(2, {}, ("a", "a_d")), {0: {(0, 1): 1}})
        return gate_corpus() + catalog_bialgebras() + [clash]

    def test_double_equals_the_image_based_double(self):
        verdicts = Counter()
        for b in self.corpus():
            expected = outcome(image_drinfeld_double, b)
            assert outcome(drinfeld_double, b) == expected, b
            if not isinstance(expected, tuple):
                verdicts["double"] += 1
            elif expected[1].endswith("is already a basis name"):
                verdicts["clash"] += 1
            else:
                verdicts[expected[0].__name__] += 1
        # seed 5 and the catalog give 267 gate failures, 1 name clash and
        # 138 doubles
        assert verdicts["BialgebraError"] >= 250
        assert verdicts["clash"] == 1
        assert verdicts["double"] >= 130
        assert set(verdicts) == {"BialgebraError", "clash", "double"}

    def test_cobracket_dual_is_the_determinant_pairing(self):
        """<[eps^i, eps^j]_*, e_k> = <eps^i ^ eps^j, delta(e_k)> = delta^{ij}_k,
        with the dual basis named <name>_d."""
        for b in self.corpus():
            assert b.dual.frames == tuple(f"{name}_d" for name in b.algebra.frames)
            c = constants(b.dual)
            for i, j, k in itertools.product(range(b.dim), repeat=3):
                assert c[i][j][k] == component(b.cobracket, k, i, j)


class TestCoadjointCorrespondence:
    """The Drinfel'd double g + g* is the bowtie of the coadjoint matched
    pair (g, g*, ad*, ad*), and matched pairs are the vacant double Lie
    algebroids (the paper's last theorem).  So at a point three deciders
    agree on every bialgebra: `drinfeld_double` builds the double,
    `check_matched` passes on the coadjoint pair and `check_double` passes
    on its vacant double."""

    def test_double_matched_pair_and_vacant_double_agree(self):
        verdicts = Counter()
        for b in gate_corpus() + catalog_bialgebras():
            mp = MatchedPair(b.algebra, b.dual, coadjoint(b.algebra), coadjoint(b.dual))
            assert mp == coadjoint_pair(b)
            try:
                drinfeld_double(b)
                built = True
            except BialgebraError:
                built = False
            assert check_matched(mp).ok is built, b
            assert check_double(assemble_vacant_double(mp)).ok is built, b
            verdicts[built] += 1
        # seed 5 and the catalog give 138 passing and 267 failing
        assert verdicts[True] >= 130 and verdicts[False] >= 250
