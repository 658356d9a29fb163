import copy
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from fppcert import (
    ConsistencyError,
    OrderTooLarge,
    build_resolution,
    h2_of_group,
    h2_via_bar_complex,
    parse_presentation,
    todd_coxeter,
)
import fppcert.endos as endos_mod
from fppcert.certify import trace_residue
from fppcert.coset import moves
from fppcert.endos import dedup_modulo_inner, induced_h2_set
from fppcert.presentation import Word, exponent_matrix
import fppcert.resolution as res_mod
from fppcert.endos import enumerate_endomorphisms
from fppcert.resolution import (
    ORACLE_CAP,
    FreeResolution3,
    ResidueRows,
    exponent_columns,
    fill_cells,
    fox_walk,
    h1_of_group,
    induced_h2_matrix,
)
from fppcert.zmatrix import (
    ColumnEchelonSolver,
    FpAbelianGroup,
    _axpy_sparse,
    hermite_column_basis,
    homology_from_sparse,
    smith_normal_form,
)

from conftest import (
    G_TEXT,
    H_TEXT,
    PSL2_13_TEXT,
    SMALL_GROUP_TEXTS,
    Z2_CUBED_TEXT,
    Z3_CUBED_TEXT,
    Z9XZ9_TEXT,
    exponent_presentations,
)
from oracles import (
    apply_d2_integer,
    apply_word,
    augment,
    augmented_solver,
    compose,
    compose_h2,
    d1_columns,
    d2_columns,
    element_order,
    evaluate_under,
    flatten,
    fox_matrix,
    from_columns_sparse,
    full_kernel,
    gr_add_into,
    gr_augmentation,
    gr_mul,
    in_lattice,
    induced_h2,
    induced_h2_by_targets,
    invariant_factors,
    is_identity_endo,
    is_zero_endo,
    lift_chain_map,
    lifting_target,
    matmul,
    preimage,
    projected_solver,
    representative_words,
    torsion_coordinates,
    tree_rows,
    unflatten,
    word_product,
    zero_matrix,
)


def residues(h, M, vec):
    """M, the ``coordinate_rows`` of h, times a sparse vector, mod each factor."""
    return tuple(sum(m.get(e, 0) * x for e, x in vec.items()) % d
                 for m, d in zip(M, h.invariant_factors))


def assert_unit_coordinates(h):
    """Each generator cycle has coordinate 1 at its own generator, 0 elsewhere,
    by a solve and read off ``coordinate_rows``."""
    k = len(h.invariant_factors)
    M = h.coordinate_rows()
    for i, z in enumerate(h.generator_cycles):
        unit = tuple(1 if t == i else 0 for t in range(k))
        assert torsion_coordinates(h, z) == unit
        assert residues(h, M, z) == unit


def small_resolution(text):
    P = parse_presentation(text)
    T = todd_coxeter(P)
    return T, P, build_resolution(T)


def walk(T, w, h, c=1, out=None):
    """c times the ``fox_walk`` of w from h, added into a copy of out."""
    out = dict(out or {})
    _axpy_sparse(out, fox_walk(T, moves(w, T.num_generators), h), c)
    return out


def walked(monkeypatch):
    """The (moves, start) of every ``fox_walk`` the library makes from now on."""
    walks = []
    real = res_mod.fox_walk
    monkeypatch.setattr(res_mod, "fox_walk",
                        lambda T, mv, h: walks.append((mv, h)) or real(T, mv, h))
    return walks


def induced_set_and_table(monkeypatch, R, h, endos):
    """``induced_h2_set`` of R, h and endos, and the one residue table it built."""
    built = []

    class Recorded(ResidueRows):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(endos_mod, "ResidueRows", Recorded)
    classes = induced_h2_set(R, h, endos)
    [table] = built
    return classes, table


def flat_fox(T, w, h=0):
    """h times the oracle's projected Fox row of w, flattened."""
    n = T.order
    return {j * n + e: c for j, a in enumerate(fox_matrix(T, w))
            for e, c in gr_mul(T, {h: 1}, a).items()}


def apply_d1(d1, vec):
    """A flat vector of Z[G]^g times the oracle's ``d1_columns``."""
    out = {}
    for idx, x in vec.items():
        for e, v in d1[idx].items():
            out[e] = out.get(e, 0) + x * v
    return {e: v for e, v in out.items() if v}


class TestGroupRing:
    """The Fox walk, the library's one Z[G] operation: walking from h is left
    translation by h, against the oracle's group-ring product."""

    def test_mul_matches_regular_action(self, table_h):
        a = {1: 2, 3: -1}
        b = {0: 1, 2: 1}
        prod = gr_mul(table_h, a, b)
        expected = {}
        for u, cu in a.items():
            for v, cv in b.items():
                w = table_h.mult(u, v)
                expected[w] = expected.get(w, 0) + cu * cv
        assert prod == {k: v for k, v in expected.items() if v}

    def test_translate_matches_regular_action(self, table_h):
        # the walk from a is a times the walk from 1, block by block
        n = table_h.order
        for w in table_h.presentation.relators + representative_words(table_h)[1::3]:
            row = walk(table_h, w, 0)
            blocks = [{idx % n: c for idx, c in row.items() if idx // n == j}
                      for j in range(table_h.num_generators)]
            for a in range(n):
                assert walk(table_h, w, a) == {
                    j * n + e: c for j, b in enumerate(blocks)
                    for e, c in gr_mul(table_h, {a: 1}, b).items()}

    def test_translate_is_a_left_action(self, table_h):
        n = table_h.order
        for w in table_h.presentation.relators:
            for a in range(n):
                for b in (1, 2, 3, 7, 11):
                    from_b = walk(table_h, w, b)
                    assert walk(table_h, w, table_h.mult(a, b)) == {
                        idx - idx % n + table_h.mult(a, idx % n): c
                        for idx, c in from_b.items()}

    def test_augmentation_multiplicative(self, table_h):
        a = {1: 2, 3: -1}
        b = {0: 1, 2: 5}
        assert gr_augmentation(gr_mul(table_h, a, b)) == \
            gr_augmentation(a) * gr_augmentation(b)

    def test_project_fox_power(self, table_h):
        # d/dx (x^4) = 1 + x + x^2 + x^3 in the group ring, in block 0
        P = table_h.presentation
        out = walk(table_h, P.relators[0], 0)
        x = table_h.generator_element(0)
        acc, expected = 0, {}
        for _ in range(4):
            expected[acc] = expected.get(acc, 0) + 1
            acc = table_h.mult(acc, x)
        assert out == expected


class TestFoxWalk:
    """The one walk against the free-group Fox derivative, projected and
    multiplied in the oracle's group ring."""

    @pytest.mark.parametrize("name", ["table_h", "table_g", "table_z9", "table_psl"])
    def test_every_relator_and_generator(self, request, name):
        T = request.getfixturevalue(name)
        for w in T.presentation.relators:
            assert walk(T, w, 0) == flat_fox(T, w), w

    @pytest.mark.parametrize("name", ["table_g", "z5"])
    def test_every_representative_word(self, request, name):
        if name in SMALL_GROUP_TEXTS:
            T = todd_coxeter(parse_presentation(SMALL_GROUP_TEXTS[name]))
        else:
            T = request.getfixturevalue(name)
        # both trees take inverse moves, so the words carry x^-1 letters
        assert any(move >= T.num_generators for _, _, move in T.tree_edges)
        for w in representative_words(T):
            assert walk(T, w, 0) == flat_fox(T, w), w

    @pytest.mark.parametrize("name", ["table_h", "table_g"])
    def test_walk_from_h_is_h_times_the_fox_row(self, request, name):
        T = request.getfixturevalue(name)
        rng = random.Random(13)
        for w in T.presentation.relators + representative_words(T):
            for h in rng.sample(range(T.order), 4):
                assert walk(T, w, h) == flat_fox(T, w, h), (w, h)

    @pytest.mark.parametrize("name", ["table_h", "table_g"])
    def test_walk_with_a_coefficient_adds_c_times_the_row(self, request, name):
        T = request.getfixturevalue(name)
        n = T.order
        rng = random.Random(17)
        for w in T.presentation.relators + representative_words(T):
            h = rng.randrange(n)
            c = rng.choice([-3, -1, 2, 5])
            # a dict already holding entries, some on the row's support
            base = {idx: rng.choice([-2, 1, 4])
                    for idx in rng.sample(range(T.num_generators * n), 6)}
            row = flat_fox(T, w, h)
            base.update({idx: -c * v for idx, v in list(row.items())[:2]})
            expected = dict(base)
            gr_add_into(expected, row, c)
            assert walk(T, w, h, c, base) == expected, (w, h, c)


class TestResolutionStructure:
    def test_trivial_group(self):
        _, _, R = small_resolution("< x | x >")
        assert (R.g, R.presentation.num_relators, R.n) == (1, 1, 1)
        assert augmented_solver(R).kernel_columns() == []
        assert R.kernel_cols == []

    def test_cyclic_five(self):
        _, _, R = small_resolution("< x | x^5 >")
        assert R.n == 5
        # d2 is multiplication by the norm element, rank 1 = g*n - rank d1
        oracle = augmented_solver(R)
        assert oracle.rank == len(R.unit_lifts) == 1
        assert len(oracle.kernel_columns()) == 5 - 1
        # ker d2 = (1 - x) Z[G] augments to 0, and so does every cell's v_c
        assert hermite_column_basis(oracle.kernel_columns()) == []
        assert R.kernel_cols == []

    def test_sizes_for_the_order_243_group(self, res_g):
        assert (res_g.g, res_g.presentation.num_relators, res_g.n) == (2, 3, 243)
        oracle = augmented_solver(res_g)
        assert oracle.rank == len(res_g.unit_lifts) == 244
        assert len(oracle.kernel_columns()) == 3 * 243 - 244 == 485

    def test_d1_d2_composition_zero(self, res_h):
        # already enforced in the constructor; re-check every column with
        # the oracle's d1
        d1 = d1_columns(res_h)
        for col in res_h.d2_cols:
            assert apply_d1(d1, col) == {}

    @pytest.mark.parametrize("group", ["h", "g", "z9", "psl"])
    def test_d2_columns_are_translated_fox_rows(self, request, group):
        # the walk of relator i from h is the oracle's column i*|G| + h, h
        # times the projected free-group Fox row of relator i
        R = request.getfixturevalue(f"res_{group}")
        T = R.group
        cols = d2_columns(R)
        assert len(cols) == R.presentation.num_relators * R.n
        for i, w in enumerate(R.presentation.relators):
            for h in range(R.n):
                assert fox_walk(T, moves(w, R.g), h) == cols[i * R.n + h], (i, h)

    def test_d2_d3_composition_zero(self, res_h):
        kernel = full_kernel(res_h)
        assert len(kernel) == len(augmented_solver(res_h).kernel_columns())
        for col in kernel:
            assert apply_d2_integer(res_h, col) == {}

    def test_tensored_d2_is_exponent_data(self, res_g, pres_g):
        E = exponent_matrix(pres_g)
        n = res_g.n
        # the block augmentations of d2(e_i) are exponent row i
        for i in range(res_g.presentation.num_relators):
            aug = [0] * res_g.g
            for idx, x in d2_columns(res_g)[i * n].items():
                aug[idx // n] += x
            assert aug == E[i]
        t3 = from_columns_sparse(res_g.kernel_cols, res_g.presentation.num_relators)
        t2 = from_columns_sparse(exponent_columns(res_g.presentation), res_g.g)
        assert t2 == [list(col) for col in zip(*E)]
        assert matmul(t2, t3) == zero_matrix(res_g.g, len(res_g.kernel_cols))

    def test_d3_group_column_roundtrip(self, res_h):
        kernel = full_kernel(res_h)
        for l in range(0, len(kernel), 7):
            vec = unflatten(res_h, kernel[l])
            flat = flatten(res_h, vec)
            assert flat == kernel[l]


class TestAugmentedTransform:
    """The echelon oracle echelonizes d2 without its tree rows and keeps the
    transform through the augmentation only; it must equal the full Z[G]
    transform of that echelon form, augmented, and span the lattice the
    resolution's fill deduces."""

    @pytest.mark.parametrize("name", ["h", "g", "z9", "z5", "trivial"])
    def test_equals_the_augmented_full_transform(self, request, name):
        if name in SMALL_GROUP_TEXTS:
            _, _, R = small_resolution(SMALL_GROUP_TEXTS[name])
        else:
            R = request.getfixturevalue(f"res_{name}")
        full = projected_solver(R)
        oracle = augmented_solver(R)
        assert oracle.pivots == full.pivots
        augmented = [augment(R, c) for c in full.kernel_columns()]
        assert oracle.kernel_columns() == augmented
        # echelon column p has coefficients e_p, so its preimage is
        # transform column p
        assert [preimage(oracle, oracle.echelon_column(p)) for p in range(oracle.rank)] == [
            augment(R, preimage(full, full.echelon_column(p))) for p in range(full.rank)]
        assert (augmented == []) == (name == "trivial")
        assert hermite_column_basis(R.kernel_cols) == hermite_column_basis(augmented)


class TestUnitPreimages:
    """pi d2 maps onto Z^(non-tree rows), so the echelon oracle reads the
    preimage of every non-tree unit vector off one pass; the fill deduces
    other preimages, whose augmentations differ from the oracle's by
    vectors of the lattice epsilon(ker d2).  Each lift is a sum of those
    preimages, with no solve."""

    @pytest.mark.parametrize("group", ["h", "g", "z9", "psl"])
    def test_the_table_equals_one_solve_per_row(self, request, group):
        R = request.getfixturevalue(f"res_{group}")
        tree = tree_rows(R)
        rows = [row for row in range(R.g * R.n) if row not in tree]
        oracle = augmented_solver(R)
        table = oracle.unit_preimages()
        assert sorted(table) == rows
        assert table == {row: preimage(oracle, {row: 1}) for row in rows}
        assert sorted(R.unit_lifts) == rows
        for row in rows:
            diff = dict(R.unit_lifts[row])
            _axpy_sparse(diff, table[row], -1)
            assert in_lattice(R, diff), row

    def test_no_lift_solves(self, monkeypatch, table_z9, endos_z9):
        # a fresh resolution and H2, so the residue table is built in here
        R = build_resolution(table_z9)
        h = h2_of_group(R)
        calls = []
        solve = ColumnEchelonSolver.solve_coefficients

        def counted(*args):
            calls.append(args)
            return solve(*args)

        # torsion_coordinates and preimage, one solve per call, are no
        # longer in the library; every solve goes through solve_coefficients
        assert not hasattr(FpAbelianGroup, "torsion_coordinates")
        assert not hasattr(ColumnEchelonSolver, "preimage")
        monkeypatch.setattr(ColumnEchelonSolver, "solve_coefficients", counted)
        classes, table = induced_set_and_table(monkeypatch, R, h, endos_z9)
        assert sum(c.multiplicity for c in classes) == len(endos_z9) == 6561
        assert calls == []
        # every element is some phi(x), so the lazy table builds every row,
        # and no more
        assert len(table.rows) == R.n == 81


# every fixture presentation, by the name of its session fixtures where
# there are some
FIXTURE_TEXTS = dict(SMALL_GROUP_TEXTS, h=H_TEXT, g=G_TEXT, z9=Z9XZ9_TEXT, psl=PSL2_13_TEXT,
                     z2cubed=Z2_CUBED_TEXT, z3cubed=Z3_CUBED_TEXT)


def fixture_resolution(request, name):
    if name in ("h", "g", "z9", "psl"):
        return request.getfixturevalue(f"res_{name}")
    return small_resolution(FIXTURE_TEXTS[name])[2]


def echelon_builds(monkeypatch, T):
    """The resolution, and the columns of every echelon solver its build made."""
    built = []
    init = ColumnEchelonSolver.__init__

    def recording(self, columns, transform=None):
        built.append(list(columns))
        init(self, columns, transform)

    with monkeypatch.context() as m:
        m.setattr(ColumnEchelonSolver, "__init__", recording)
        R = build_resolution(T)
    return R, built


def oracle_resolution(R):
    """R with the echelon oracle's kernel columns and unit preimages in place
    of the fill's lattice generators and lifts."""
    oracle = augmented_solver(R)
    S = copy.copy(R)
    S.kernel_cols = oracle.kernel_columns()
    S.unit_lifts = oracle.unit_preimages()
    return S


def distinct_cells(R):
    """The distinct (relator, column) pairs of the oracle's d2, in column order."""
    return list(dict.fromkeys((c // R.n, frozenset(col.items()))
                              for c, col in enumerate(d2_columns(R))))


def assert_fill_matches_the_oracle(R):
    """Lattice, H2, its generator cycles and the unit lifts modulo the lattice."""
    S = oracle_resolution(R)
    assert hermite_column_basis(R.kernel_cols) == hermite_column_basis(S.kernel_cols)
    h, ho = h2_of_group(R), h2_of_group(S)
    assert (h.free_rank, h.invariant_factors) == (ho.free_rank, ho.invariant_factors)
    assert h.generator_cycles == ho.generator_cycles
    assert h.coordinate_rows() == ho.coordinate_rows()
    assert sorted(R.unit_lifts) == sorted(S.unit_lifts)
    for row, lift in R.unit_lifts.items():
        diff = dict(lift)
        _axpy_sparse(diff, S.unit_lifts[row], -1)
        assert in_lattice(R, diff), row
    # so every unit lift has the same residues in H2's coordinates
    assert ResidueRows(R, h).unit_residues == ResidueRows(S, h).unit_residues


class TestDeductionFill:
    """The fill deduces the lattice epsilon(ker d2) and the unit lifts cell by
    cell; the echelon oracle gets them from one echelon build of pi d2.
    Lattices, H2, its generator cycles, the lifts modulo the lattice and the
    induced maps must agree."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_TEXTS))
    def test_every_fixture_matches_the_echelon_oracle(self, request, name):
        assert_fill_matches_the_oracle(fixture_resolution(request, name))

    @pytest.mark.parametrize("name", sorted(n for n in FIXTURE_TEXTS if n not in ("g", "psl")))
    def test_every_induced_map_matches_the_echelon_oracle(self, request, name):
        # the fixtures of order at most 81
        R = fixture_resolution(request, name)
        assert R.n <= 81
        S, h = oracle_resolution(R), h2_of_group(R)
        endos = enumerate_endomorphisms(R.group)
        table, oracle = ResidueRows(R, h), ResidueRows(S, h)
        for images in endos:
            assert induced_h2_matrix(table, images) == induced_h2_matrix(oracle, images), images

    def test_a_seeded_corpus_matches_the_echelon_oracle(self, monkeypatch):
        from test_endos import seeded_corpus

        # 60 groups on each of 1, 2 and 3 generators, up to 300 cosets
        corpus = seeded_corpus(60, budget=10 ** 9)
        assert max(T.order for _, T in corpus) > 100
        paths = set()
        for _, T in corpus:
            R, built = echelon_builds(monkeypatch, T)
            assert_fill_matches_the_oracle(R)
            # the residue is one solver, on fewer columns than pi d2 has
            starts = R.presentation.num_relators * R.n
            assert len(built) <= 1 and all(len(cols) < starts for cols in built)
            paths.add("residue" if built else "deduction")
            if any(abs(a) > 1 for cols in built for col in cols for a in col.values()):
                paths.add("residue with a coefficient other than +-1")
        assert paths == {"deduction", "residue", "residue with a coefficient other than +-1"}

    @pytest.mark.parametrize("group,residue", [("g", None), ("z9", None), ("psl", (291, 174))],
                             ids=["g243", "z9xz9", "psl2-13"])
    def test_the_only_echelon_build_is_the_residue(self, request, monkeypatch, group, residue):
        # g243 and z9xz9 close by deduction alone; psl2-13 leaves 291 of its
        # 1,222 cells stuck, on 174 edges
        R, built = echelon_builds(monkeypatch, request.getfixturevalue(f"table_{group}"))
        sizes = [(len(cols), len({e for col in cols for e in col})) for cols in built]
        assert all(ncols < R.presentation.num_relators * R.n for ncols, _ in sizes)
        assert sizes == ([] if residue is None else [residue])

    def test_a_coefficient_of_two_is_left_to_the_residue(self):
        # one edge, cells 2 e and 3 e: neither deduces it, the residue does,
        # since gcd(2, 3) = 1, and 3 e_0 - 2 e_1 spans the lattice
        lattice, lifts = fill_cells([(0, {0: 2}), (1, {0: 3})])
        assert list(lifts) == [0]
        assert 2 * lifts[0].get(0, 0) + 3 * lifts[0].get(1, 0) == 1
        assert hermite_column_basis(lattice) == hermite_column_basis([{0: 3, 1: -2}])

    def test_a_cell_of_two_is_a_generator_once_its_edge_is_known(self):
        # cell 1 waits for cell 0 to deduce the edge, then gives e_1 - 2 e_0
        lattice, lifts = fill_cells([(0, {0: 1}), (1, {0: 2})])
        assert lifts == {0: {0: 1}}
        assert lattice == [{1: 1, 0: -2}]

    def test_an_equal_generator_is_kept_once(self):
        # once both edges are known, cells 2 and 3 each give e_1 - e_0
        lattice, lifts = fill_cells([(0, {0: 1}), (0, {1: 1}), (1, {0: 1}), (1, {1: 1})])
        assert lifts == {0: {0: 1}, 1: {0: 1}}
        assert lattice == [{1: 1, 0: -1}]

    @pytest.mark.parametrize("group,count", [("h", 4), ("g", 9), ("z9", 4), ("psl", 95)])
    def test_the_lattice_generators_are_distinct(self, request, group, count):
        # g243's 243 nonzero generators are 9 distinct vectors, psl2-13's 129 are 95
        R = request.getfixturevalue(f"res_{group}")
        assert R.m == len(R.kernel_cols) == count
        assert len({frozenset(col.items()) for col in R.kernel_cols}) == count

    @pytest.mark.parametrize("cells", [
        [(0, {0: 2})],                  # the residue's pivot is 2
        [(0, {0: 2}), (1, {0: 4})],     # 2 and 4 span 2 Z
        [(0, {0: 1, 1: 1})],            # one cell, two edges
    ])
    def test_a_residue_that_is_not_onto_raises(self, cells):
        with pytest.raises(ConsistencyError, match="not onto"):
            fill_cells(cells)

    def test_an_edge_in_no_cell_is_left_out(self, monkeypatch, table_h):
        # edge 1 of a two-edge C1 lies in no cell, so the fill never sees it
        assert fill_cells([(0, {0: 1})]) == ([], {0: {0: 1}})
        # the resolution then finds a lift missing: not exact at degree 1
        real = res_mod.fill_cells

        def one_lift_short(cells):
            lattice, lifts = real(cells)
            lifts.pop(max(lifts))
            return lattice, lifts

        monkeypatch.setattr(res_mod, "fill_cells", one_lift_short)
        with pytest.raises(ConsistencyError, match="not exact at degree 1"):
            build_resolution(table_h)

    def test_doubled_walks_raise(self, monkeypatch, table_h):
        # 2 d2 still has d1 o d2 = 0, but every cell is even, so the residue
        # is all of pi d2 and its pivots are 2
        real = res_mod.fox_walk
        monkeypatch.setattr(res_mod, "fox_walk",
                            lambda T, mv, h: {k: 2 * c for k, c in real(T, mv, h).items()})
        with pytest.raises(ConsistencyError, match="not onto the non-tree rows"):
            build_resolution(table_h)

    def test_an_inverse_letter_that_adds_before_it_steps_raises(self, monkeypatch, table_h):
        # x_j^-1 then adds -1 at the prefix before it instead of after it,
        # so d1 of a relator with an inverse letter no longer vanishes
        def adds_first(T, mv, h):
            g = T.num_generators
            steps = T.action + T.action_inv
            out = {}
            p = h
            for move in mv:
                idx = move % g * T.order + p
                out[idx] = out.get(idx, 0) + (1 if move < g else -1)
                p = steps[move][p]
            return {k: c for k, c in out.items() if c}

        monkeypatch.setattr(res_mod, "fox_walk", adds_first)
        with pytest.raises(ConsistencyError, match="d1 o d2 != 0; Fox projection is broken"):
            build_resolution(table_h)

    @pytest.mark.parametrize("group,cells", [("h", 24), ("g", 567), ("z9", 99), ("psl", 1222)],
                             ids=["h16", "g243", "z9xz9", "psl2-13"])
    def test_each_distinct_cell_is_checked_and_filled_once(
            self, request, monkeypatch, group, cells):
        # the walks of u^k from h and from h u are one column, so each
        # relator is walked from one h per orbit of its root u: 24, 567, 99
        # and 1,222 walks of the r|G| = 64, 729, 243 and 4,368 starts, and
        # only the distinct cells are checked, filled and kept
        T = request.getfixturevalue(f"table_{group}")
        checked, filled, walks = [], [], walked(monkeypatch)
        d1, fill = FreeResolution3.d1, res_mod.fill_cells
        monkeypatch.setattr(FreeResolution3, "d1",
                            lambda self, vec: checked.append(vec) or d1(self, vec))
        monkeypatch.setattr(res_mod, "fill_cells",
                            lambda cells: filled.append(cells) or fill(cells))
        R = build_resolution(T)
        assert len(walks) == len(checked) == len(filled[0]) == len(R.d2_cols) == cells
        # one cell per distinct (relator, column) of the oracle's d2, in the
        # order of the walks, and d2_cols holds each column once, uncut
        distinct = distinct_cells(R)
        assert [i for i, _ in filled[0]] == [i for i, _ in distinct]
        assert [frozenset(col.items()) for col in R.d2_cols] == [col for _, col in distinct]
        assert set(checked) == {col for _, col in distinct}

    def test_equal_columns_of_two_relators_are_two_cells(self, monkeypatch):
        # x^2 walks the one column e_0 + e_1 from both elements; keyed by the
        # column alone the second relator's cell, which gives e_1 - e_0,
        # would be lost and H2 would get free rank
        filled = []
        fill = res_mod.fill_cells
        monkeypatch.setattr(res_mod, "fill_cells",
                            lambda cells: filled.append(cells) or fill(cells))
        _, _, R = small_resolution("< x | x^2, x^2 >")
        assert d2_columns(R) == [{0: 1, 1: 1}] * 4
        assert R.d2_cols == [{0: 1, 1: 1}] * 2
        assert [i for i, _ in filled[0]] == [0, 1]
        assert hermite_column_basis(R.kernel_cols) == hermite_column_basis([{0: 1, 1: -1}])
        h = h2_of_group(R)
        assert (h.free_rank, h.invariant_factors) == (0, ())
        assert_fill_matches_the_oracle(R)


class TestWalkStarts:
    """Each relator u^k is walked from the least h of each orbit of h -> h u,
    for u its root, the shortest word with w = u^k on w's runs."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_single_run_is_walked_once(self, monkeypatch, sign):
        # x^+-1 is one cycle through all 300 elements
        walks = walked(monkeypatch)
        T, _, R = small_resolution(f"< x | x^{300 * sign} >")
        assert T.order == 300
        assert [h for _, h in walks] == [0]
        assert R.d2_cols == [{e: sign for e in range(300)}]

    def test_a_root_that_merges_runs_walks_every_element(self, monkeypatch):
        # (x y x)^2 is x y x^2 y x: its runs do not repeat, so its root is
        # itself and it walks from all 6 elements; the walks from h and from
        # h x y x still give one column, and the dedup keeps it once
        walks = walked(monkeypatch)
        T, P, R = small_resolution("< x, y | x^3, y^2, (x*y*x)^2 >")
        assert T.order == 6
        assert P.relators[2].letters == ((0, 1), (1, 1), (0, 2), (1, 1), (0, 1))
        assert [h for mv, h in walks if mv == R.moves[2]] == list(range(6))
        distinct = distinct_cells(R)
        assert [frozenset(col.items()) for col in R.d2_cols] == [col for _, col in distinct]
        # x^3 walks 2 orbits, y^2 walks 3, and (x y x)^2's 6 walks are 3 cells
        assert len(walks) == 2 + 3 + 6 and len(R.d2_cols) == 2 + 3 + 3
        assert_fill_matches_the_oracle(R)

    def test_a_root_with_a_long_run(self, monkeypatch):
        # (x^300 y)^2 has root u = x^300 y, whose run is a power of x's
        # permutation; u = x^-1 y is a reflection of the dihedral group of
        # order 602, so its orbits are the pairs {h, h u}
        walks = walked(monkeypatch)
        T, P, R = small_resolution("< x, y | x^301, y^2, (x^300*y)^2 >")
        assert T.order == 602
        w = P.relators[2]
        root, k = w.root()
        assert (root, k) == (((0, 300), (1, 1)), 2)
        u = [apply_word(T, h, Word.of(root)) for h in range(T.order)]
        assert all(u[u[h]] == h != u[h] for h in range(T.order))
        assert [h for mv, h in walks if mv == R.moves[2]] == \
            [h for h in range(T.order) if h < u[h]]
        # x^301 walks the 2 cosets of <x>, and y^2 and (x^300 y)^2 301 each
        assert len(walks) == 2 + 301 + 301
        distinct = distinct_cells(R)
        assert [frozenset(col.items()) for col in R.d2_cols] == [col for _, col in distinct]


class TestResolutionMemory:
    """The resolution walks each relator from one h per orbit of its root and
    keeps each 2-cell's column once, not all r|G| walks of d2: on psl2-13
    that is 1,222 walks and columns instead of 4,368, and the whole
    resolution took 4.2 MB while it kept them all."""

    def test_psl2_13_keeps_under_two_megabytes(self, table_psl):
        tracemalloc.start()
        try:
            R = build_resolution(table_psl)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(R.d2_cols) == 1222
        assert kept < 2 * 2 ** 20


class TestResidueRows:
    """The library reads each induced map off residue rows; the dict path in
    the oracle builds every lifting target, applies d1, sums the unit lifts
    and solves for the coordinates.  They must agree everywhere."""

    @pytest.mark.parametrize("group", ["h", "g", "z9", "psl"])
    def test_every_inner_orbit_matches_the_dict_path(self, request, group):
        R = request.getfixturevalue(f"res_{group}")
        h = request.getfixturevalue(f"h2_{group}")
        table = request.getfixturevalue(f"residues_{group}")
        endos = request.getfixturevalue(f"endos_{group}")
        reps = dedup_modulo_inner(R.group, endos)
        assert len(reps) == {"h": 64, "g": 103, "z9": 6561, "psl": 3}[group]
        for rep, _ in reps:
            assert induced_h2_matrix(table, rep) == \
                induced_h2_by_targets(R, h, rep), rep

    def test_z3_cubed_matches_the_dict_path(self):
        # k = 3 torsion factors, so every factor's rows are read
        _, _, R = small_resolution(Z3_CUBED_TEXT)
        T = R.group
        h = h2_of_group(R)
        assert h.invariant_factors == (3, 3, 3)
        table = ResidueRows(R, h)
        rng = random.Random(27)
        for _ in range(300):
            # Z3^3 is abelian of exponent 3: every image triple is an endomorphism
            images = tuple(rng.randrange(T.order) for _ in range(3))
            assert induced_h2_matrix(table, images) == induced_h2_by_targets(R, h, images)

    @pytest.mark.parametrize("group,support", [("h", 4), ("g", 1), ("z9", 1), ("psl", 3)])
    def test_the_letters_read_the_fox_walk_under_the_identity(self, request, group, support):
        # under the identity the points are the prefixes themselves, so the
        # signs that each support relator's letters carry in a cycle's terms,
        # its coefficient z_i divided out, must read the relator's Fox walk
        # from the identity: +1 before an x_j, -1 after an x_j^-1
        R = request.getfixturevalue(f"res_{group}")
        h = request.getfixturevalue(f"h2_{group}")
        table = request.getfixturevalue(f"residues_{group}")
        T = R.group
        identity = [T.generator_element(j) for j in range(R.g)]
        assert len(table.support) == support
        for terms, z in zip(table.terms, h.generator_cycles):
            for slot, i in enumerate(table.support):
                points = R.phi_on_elements(identity, i)
                read: dict = {}
                for s, gen, at, coef in terms:
                    if s == slot:
                        assert coef in (z[i], -z[i])
                        _axpy_sparse(read, {gen * R.n + points[at]: coef // z[i]}, 1)
                want = fox_walk(T, moves(R.presentation.relators[i], R.g), 0) if i in z else {}
                assert read == want, (z, i)

    @pytest.mark.parametrize("group,cycles", [
        ("h", ({0: 1, 2: -1, 3: 1}, {1: 1, 2: -1, 3: -1})),
        ("g", ({1: 1},)),
        ("z9", ({2: 1},)),
        ("psl", ({0: 21, 1: 14, 2: -6},))], ids=["h", "g", "z9", "psl"])
    def test_the_terms_read_the_cycles_fox_walks_under_the_identity(
            self, request, group, cycles):
        # the cycle-level twin of the letters' test: under the identity the
        # points are the prefixes, so the signed coordinates the terms of
        # cycle z read must be sum_i z_i times relator i's Fox walk from the
        # identity; h16's two cycles and psl2-13's 21, 14 and -6 pin the fold
        R = request.getfixturevalue(f"res_{group}")
        h = request.getfixturevalue(f"h2_{group}")
        table = request.getfixturevalue(f"residues_{group}")
        T = R.group
        assert h.generator_cycles == cycles
        assert len(table.terms) == len(cycles)
        identity = [T.generator_element(j) for j in range(R.g)]
        points = [R.phi_on_elements(identity, i) for i in table.support]
        for terms, z in zip(table.terms, cycles):
            read: dict = {}
            for slot, gen, at, coef in terms:
                _axpy_sparse(read, {gen * R.n + points[slot][at]: coef}, 1)
            want: dict = {}
            for i, zi in z.items():
                _axpy_sparse(want, fox_walk(T, moves(R.presentation.relators[i], R.g), 0), zi)
            assert read == want, z
            assert {abs(coef) for *_, coef in terms} == {abs(zi) for zi in z.values()}

    @pytest.mark.parametrize("group,support", [("h", 4), ("g", 1), ("z9", 1), ("psl", 3)])
    def test_a_lift_walks_each_support_relator_once(self, request, monkeypatch, group, support):
        # one prefix walk per support relator and lift: the bench's
        # phi_on_elements span and the refusal of open prefixes both rest on it
        R = request.getfixturevalue(f"res_{group}")
        h = request.getfixturevalue(f"h2_{group}")
        table = request.getfixturevalue(f"residues_{group}")
        endos = request.getfixturevalue(f"endos_{group}")
        walked_relators = []
        real = R.phi_on_elements
        monkeypatch.setattr(R, "phi_on_elements",
                            lambda images, i: walked_relators.append(i) or real(images, i))
        for phi in random.Random(13).sample(endos, 3):
            walked_relators.clear()
            induced_h2_matrix(table, phi)
            assert walked_relators == table.support == \
                sorted({i for z in h.generator_cycles for i in z})
            assert len(walked_relators) == support

    @pytest.mark.parametrize("group", ["h", "g", "z9", "psl"])
    def test_unit_residues_are_the_reduced_coordinates_of_the_unit_lifts(self, request, group):
        R = request.getfixturevalue(f"res_{group}")
        h = request.getfixturevalue(f"h2_{group}")
        units = R.unit_lifts
        M = h.coordinate_rows()
        V = ResidueRows(R, h).unit_residues
        assert len(V) == len(h.invariant_factors)
        for row in range(R.g * R.n):
            # a tree row has no unit lift and counts as zero
            want = residues(h, M, units[row]) if row in units else (0,) * len(V)
            assert tuple(res[row] for res in V) == want
        assert all(0 <= v < d for res, d in zip(V, h.invariant_factors) for v in res)

    @pytest.mark.parametrize("group", ["h", "g", "z9"])
    def test_a_row_is_the_residues_of_its_walks(self, request, group):
        R = request.getfixturevalue(f"res_{group}")
        h = request.getfixturevalue(f"h2_{group}")
        T = R.group
        table = request.getfixturevalue(f"residues_{group}")
        V = table.unit_residues
        rng = random.Random(11)
        # inverse moves in the tree take the -V step
        assert any(move >= R.g for _, _, move in T.tree_edges)
        for a in rng.sample(range(R.n), min(R.n, 30)):
            row = table.row(a)
            for p in rng.sample(range(R.n), 8):
                fox = walk(T, representative_words(T)[a], p)
                want = [sum(x * res[idx] for idx, x in fox.items()) % d
                        for res, d in zip(V, h.invariant_factors)]
                assert [r[p] % d for r, d in zip(row, h.invariant_factors)] == want, (a, p)

    @pytest.mark.parametrize("group,built", [("g", 78), ("psl", 4)])
    def test_only_the_rows_of_images_and_their_ancestors_are_built(
            self, request, monkeypatch, group, built):
        R = request.getfixturevalue(f"res_{group}")
        h = request.getfixturevalue(f"h2_{group}")
        endos = request.getfixturevalue(f"endos_{group}")
        _, table = induced_set_and_table(monkeypatch, R, h, endos)
        rows = table.rows
        assert len(rows) == built
        # each built row's tree parent is built too
        assert all(R.group.tree_edges[a - 1][1] in rows for a in rows if a)

    def test_the_induced_set_leaves_the_resolution_as_built(self, table_h, endos_h):
        # the residue table is the caller's: no attribute of R is set, rebound
        # or changed by reading the induced maps
        R = build_resolution(table_h)
        h = h2_of_group(R)
        before = dict(vars(R))
        data = copy.deepcopy({k: v for k, v in before.items() if k != "group"})
        induced_h2_set(R, h, endos_h)
        assert vars(R) == before
        assert {k: v for k, v in vars(R).items() if k != "group"} == data


class TestProjection:
    """The fill and its echelon oracle both work on pi d2, d2 without the
    spanning-tree rows of C1.

    pi is injective on the cycles, so it keeps ker d2, but every vector off
    the tree rows is pi of a cycle: ``induced_h2_matrix`` must check that
    its target is a cycle.  By Fox's fundamental formula d1 of the target
    of relator i is e_(phi(r_i)) - e_1, so it checks that phi closes every
    support relator."""

    @pytest.mark.parametrize("group", ["h", "g", "psl"])
    def test_every_lifting_target_is_a_cycle(self, request, group):
        R = request.getfixturevalue(f"res_{group}")
        endos = request.getfixturevalue(f"endos_{group}")
        d1 = d1_columns(R)
        for phi in random.Random(21).sample(endos, 8):
            for i in range(R.presentation.num_relators):
                assert apply_d1(d1, lifting_target(R, phi, i)) == {}, (phi, i)

    @pytest.mark.parametrize("group", ["h", "g"])
    def test_a_target_off_the_cycles_is_refused(self, request, monkeypatch, group):
        R = request.getfixturevalue(f"res_{group}")
        h = request.getfixturevalue(f"h2_{group}")
        phi = request.getfixturevalue(f"endos_{group}")[3]
        T = R.group
        # a support relator and images that break it, so its prefixes do not
        # close; one generator image is changed
        i0, bad = next((i, images) for i in sorted(h.generator_cycles[0])
                       for j in range(R.g) for e in range(R.n)
                       for images in [phi[:j] + (e,) + phi[j + 1:]]
                       if evaluate_under(T, images, R.presentation.relators[i]) != 0)
        real = R.phi_on_elements

        def open_prefixes(images, i):
            return real(bad if i == i0 else images, i)

        table = ResidueRows(R, h)
        induced_h2_matrix(table, phi)
        monkeypatch.setattr(R, "phi_on_elements", open_prefixes)
        assert R.phi_on_elements(phi, i0)[-1] != 0
        # the dict path builds its target off the same prefixes: not a cycle
        assert apply_d1(d1_columns(R), lifting_target(R, phi, i0))
        with pytest.raises(ConsistencyError):
            induced_h2_matrix(table, phi)
        monkeypatch.undo()
        # unpatched, the images themselves are refused
        assert apply_d1(d1_columns(R), lifting_target(R, bad, i0))
        with pytest.raises(ConsistencyError):
            induced_h2_matrix(table, bad)

    @pytest.mark.parametrize("group", ["h", "g", "z9"])
    def test_rank_is_the_number_of_non_tree_rows(self, request, group):
        R = request.getfixturevalue(f"res_{group}")
        tree = tree_rows(R)
        assert len(tree) == R.n - 1
        oracle = augmented_solver(R)
        assert projected_solver(R).rank == oracle.rank == R.g * R.n - len(tree) == \
            len(R.unit_lifts)
        # no pivot lies on a tree row, and no tree row gets a lift
        assert all(row not in tree for row, _ in oracle.pivots)
        assert not tree & set(R.unit_lifts)

    @pytest.mark.parametrize("group,bound", [("g", 1200), ("psl", 4000)])
    def test_pivot_columns_stay_sparse(self, request, group, bound):
        # with the tree rows, psl2-13's pivot columns carried 56,384
        # nonzeros and g243's 5,728; this keeps the echelon oracle cheap
        R = request.getfixturevalue(f"res_{group}")
        oracle = augmented_solver(R)
        nnz = sum(len(oracle.echelon_column(p)) for p in range(oracle.rank))
        assert nnz <= bound


class TestD1Rank:
    """The exactness check takes rank d1 = n - 1: d1 is the incidence matrix
    of the Cayley graph, which is connected because the table is transitive."""

    @pytest.mark.parametrize("group", ["h", "g", "z9"])
    def test_echelon_rank_is_order_minus_one(self, request, group):
        R = request.getfixturevalue(f"res_{group}")
        assert ColumnEchelonSolver(d1_columns(R)).rank == R.n - 1
        assert augmented_solver(R).rank == len(R.unit_lifts) == R.g * R.n - (R.n - 1)

    def test_trivial_generator_gives_empty_columns(self):
        # y is trivial, so its d1 columns are empty; < x, y | y > itself is Z
        _, _, R = small_resolution("< x, y | x^3, y >")
        d1 = d1_columns(R)
        assert [len(c) for c in d1] == [2, 2, 2, 0, 0, 0]
        assert ColumnEchelonSolver(d1).rank == R.n - 1 == 2


class TestHomology:
    def test_h2_values(self, h2_g, h2_h):
        assert h2_g.invariant_factors == (3,)
        assert h2_h.invariant_factors == (2, 2)
        assert h2_g.free_rank == 0
        assert h2_h.free_rank == 0

    def test_h1_values(self, pres_g, pres_h):
        assert h1_of_group(pres_g).invariant_factors == (3, 3)
        assert h1_of_group(pres_h).invariant_factors == (2, 4)

    @pytest.mark.parametrize("name", sorted(SMALL_GROUP_TEXTS) + ["g", "z9"])
    def test_h1_equals_homology_of_the_tensored_complex(self, request, name):
        # the cokernel of the tensored d2, read off its Smith normal form
        if name in SMALL_GROUP_TEXTS:
            _, P, R = small_resolution(SMALL_GROUP_TEXTS[name])
        else:
            P, R = request.getfixturevalue(f"pres_{name}"), request.getfixturevalue(f"res_{name}")
        snf = smith_normal_form(from_columns_sparse(exponent_columns(R.presentation), R.g))
        h1 = h1_of_group(P)
        assert (h1.free_rank, h1.invariant_factors) == \
            (R.g - snf.rank, invariant_factors(snf))

    @given(exponent_presentations)
    @settings(max_examples=200)
    def test_h1_equals_the_smith_form_of_random_exponent_matrices(self, P):
        g = P.num_generators
        snf = smith_normal_form(exponent_matrix(P))
        h1 = h1_of_group(P)
        assert (h1.free_rank, h1.invariant_factors) == (g - snf.rank, invariant_factors(snf))
        assert_unit_coordinates(h1)

    def test_generator_cycles_have_unit_coordinates(self, h2_g, h2_h, h2_z9, pres_g, pres_h):
        for h in (h2_g, h2_h, h2_z9, h1_of_group(pres_g), h1_of_group(pres_h)):
            assert len(h.generator_cycles) == len(h.invariant_factors) > 0
            assert_unit_coordinates(h)

    def test_trivial_group_h2(self):
        _, _, R = small_resolution("< x | x >")
        assert h2_of_group(R).invariant_factors == ()

    def test_cyclic_groups_have_trivial_h2(self):
        for text in ("< x | x^2 >", "< x | x^5 >"):
            _, _, R = small_resolution(text)
            h = h2_of_group(R)
            assert h.invariant_factors == ()
            assert h.free_rank == 0
            assert h.generator_cycles == ()


class TestBarOracle:
    @pytest.mark.parametrize("name,expected", [
        ("trivial", ()),
        ("z2", ()),
        ("z5", ()),
        ("klein", (2,)),
        ("s3", ()),
        ("d4", (2,)),
        ("q8", ()),
        ("z3xz3", (3,)),
    ])
    def test_known_schur_multipliers(self, name, expected):
        T = todd_coxeter(parse_presentation(SMALL_GROUP_TEXTS[name]))
        h = h2_via_bar_complex(T)
        assert h.invariant_factors == expected
        assert h.free_rank == 0
        assert len(h.generator_cycles) == len(expected)
        assert_unit_coordinates(h)

    def test_agrees_with_resolution(self):
        for name in ("klein", "s3", "d4", "q8", "z3xz3"):
            T, _, R = small_resolution(SMALL_GROUP_TEXTS[name])
            assert h2_of_group(R).invariant_factors == \
                h2_via_bar_complex(T).invariant_factors

    def test_agrees_with_resolution_on_the_seeded_corpus(self):
        from test_endos import seeded_corpus
        small = [(P, T) for P, T in seeded_corpus(40) if T.order <= 12]
        assert len(small) > 100
        nontrivial = 0
        for P, T in small:
            h, oracle = h2_of_group(build_resolution(T)), h2_via_bar_complex(T)
            assert (oracle.free_rank, oracle.invariant_factors) == \
                (h.free_rank, h.invariant_factors), P
            nontrivial += bool(h.invariant_factors)
        assert nontrivial

    def test_oracle_on_the_order_16_group(self, table_h, h2_h):
        assert h2_via_bar_complex(table_h).invariant_factors == \
            h2_h.invariant_factors == (2, 2)

    def test_cap(self, table_g):
        assert ORACLE_CAP == 16
        with pytest.raises(OrderTooLarge):
            h2_via_bar_complex(table_g)


def prefixes(w):
    """The prefix words of w, one per letter, from the empty word to w."""
    out = [Word()]
    for gen, exp in w.letters:
        step = Word.of([(gen, 1 if exp > 0 else -1)])
        for _ in range(abs(exp)):
            out.append(word_product(out[-1], step))
    return out


class TestPhiOnElements:
    @pytest.mark.parametrize("group", ["h", "g", "z9", "psl"])
    def test_prefix_walk_matches_word_evaluation(self, request, group):
        R = request.getfixturevalue(f"res_{group}")
        endos = request.getfixturevalue(f"endos_{group}")
        T = R.group
        for phi in random.Random(5).sample(endos, 20):
            for i, w in enumerate(R.presentation.relators):
                points = R.phi_on_elements(phi, i)
                assert points == [evaluate_under(T, phi, p) for p in prefixes(w)]
                assert points[0] == points[-1] == 0


class TestChainMaps:
    def test_identity_endo_induces_identity(self, res_g, h2_g):
        images = [res_g.group.generator_element(j) for j in range(res_g.g)]
        cm = lift_chain_map(res_g, images)
        assert is_identity_endo(induced_h2(cm, h2_g))

    def test_trivial_endo_induces_zero(self, res_g, h2_g):
        cm = lift_chain_map(res_g, [0, 0])
        e = induced_h2(cm, h2_g)
        assert is_zero_endo(e)
        assert trace_residue(e, h2_g.invariant_factors[0]) == 0

    def test_invalid_images_rejected(self, res_g, table_g):
        with pytest.raises(ValueError):
            lift_chain_map(res_g, [1])
        # x^3 is a relator, so the image of x cannot have order 9
        e9 = next(e for e in range(table_g.order) if element_order(table_g, e) == 9)
        with pytest.raises(ValueError):
            lift_chain_map(res_g, [e9, 0])

    def test_conjugation_induces_identity(self, res_h, h2_h, table_h):
        # inner automorphisms act trivially on group homology
        for c in (1, 3, 7):
            images = [
                table_h.mult(table_h.mult(c, table_h.generator_element(j)),
                             table_h.inv(c))
                for j in range(res_h.g)
            ]
            cm = lift_chain_map(res_h, images)
            assert is_identity_endo(induced_h2(cm, h2_h))

    def test_lift_independence(self, res_h, h2_h, endos_h):
        phi = endos_h[5]
        base = induced_h2(lift_chain_map(res_h, phi), h2_h)
        for seed in range(5):
            perturbed = lift_chain_map(res_h, phi, rng=random.Random(seed))
            assert induced_h2(perturbed, h2_h) == base

    def test_fast_path_matches_full_lift(self, res_h, h2_h, residues_h, endos_h):
        for phi in endos_h[::9]:
            full = induced_h2(lift_chain_map(res_h, phi), h2_h)
            fast = induced_h2_matrix(residues_h, phi)
            assert full == fast

    def test_fast_path_matches_on_the_larger_group(self, res_g, h2_g, residues_g, endos_g):
        for phi in endos_g[::500]:
            full = induced_h2(lift_chain_map(res_g, phi), h2_g)
            fast = induced_h2_matrix(residues_g, phi)
            assert full == fast

    def test_fast_path_matches_where_the_cycle_skips_relators(self, res_z9, h2_z9, residues_z9,
                                                              endos_z9):
        # H2(Z9 x Z9) = Z9 is carried by the commutator relator alone, so
        # the x^9 and y^9 lifting targets are never built
        assert h2_z9.generator_cycles == ({2: 1},)
        for phi in random.Random(3).sample(endos_z9, 40):
            full = induced_h2(lift_chain_map(res_z9, phi), h2_z9)
            fast = induced_h2_matrix(residues_z9, phi)
            assert full == fast

    def test_functoriality_sample(self, residues_h, endos_h, table_h):
        rng = random.Random(7)
        for _ in range(25):
            a = endos_h[rng.randrange(len(endos_h))]
            b = endos_h[rng.randrange(len(endos_h))]
            ab = compose(table_h, a, b)
            ea = induced_h2_matrix(residues_h, a)
            eb = induced_h2_matrix(residues_h, b)
            eab = induced_h2_matrix(residues_h, ab)
            assert eab == compose_h2(ea, eb, residues_h.homology.invariant_factors)

    def test_tensored_f2_squares(self, res_h, h2_h, endos_h):
        # chain-map condition after tensoring: t2 o f2 = f1_aug o t2
        t2 = from_columns_sparse(exponent_columns(res_h.presentation), res_h.g)
        phi = endos_h[3]
        cm = lift_chain_map(res_h, phi)
        f1_aug = [[gr_augmentation(cm.f1[j][t]) for j in range(res_h.g)]
                  for t in range(res_h.g)]
        assert matmul(t2, cm.tensored_f2) == matmul(f1_aug, t2)
