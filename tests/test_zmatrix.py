import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppcert.errors import CompositionNotZero, ConsistencyError, NoSolution
from fppcert.zmatrix import (
    ColumnEchelonSolver,
    FpAbelianGroup,
    hermite_column_basis,
    homology_from_sparse,
    smith_normal_form,
)

from oracles import (
    columns_sparse,
    from_columns_sparse,
    identity,
    invariant_factors,
    matmul,
    mul_vec,
    preimage,
    augmented_solver,
    projected_d2,
    scan_echelon,
    torsion_coordinates,
    units,
)

# dense matrices are lists of rows
small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n, max_size=n,
        )
    )
)


def det(M) -> int:
    n = len(M)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        total += sign * _prod(M[i][perm[i]] for i in range(n))
    return total


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def minors_gcd(M, k: int) -> int:
    g = 0
    for rows in itertools.combinations(range(len(M)), k):
        for cols in itertools.combinations(range(len(M[0])), k):
            g = gcd(g, det([[M[i][j] for j in cols] for i in rows]))
    return abs(g)


def echelon_solve(A, b):
    """A sparse integer solution of A x = b from the echelon solver; raises NoSolution."""
    return preimage(ColumnEchelonSolver(columns_sparse(A), units(range(len(A[0])))), b)


def echelon_kernel(A):
    """The echelon solver's kernel lattice basis, as sparse columns."""
    return ColumnEchelonSolver(columns_sparse(A), units(range(len(A[0])))).kernel_columns()


class TestSmith:
    def test_example(self):
        snf = smith_normal_form([[2, 4], [6, 8]])
        assert snf.diagonal == (2, 4)
        assert invariant_factors(snf) == (2, 4)

    def test_diagonal_input_gets_sorted_by_divisibility(self):
        snf = smith_normal_form([[6, 0], [0, 4]])
        assert snf.diagonal == (2, 12)

    def test_identity(self):
        snf = smith_normal_form(identity(4))
        assert snf.diagonal == (1, 1, 1, 1)
        assert invariant_factors(snf) == ()
        assert snf.rank == 4

    @given(small_matrices)
    @settings(max_examples=200)
    def test_smith_contract(self, A):
        snf = smith_normal_form(A)
        n, m = len(A), len(A[0])
        diag = snf.diagonal
        assert len(diag) == min(n, m)
        # some unimodular V gives U*A*V = S = diag(diagonal) exactly when the
        # columns of U*A and of S span the same lattice, that is, have the
        # same Hermite basis
        S = [[diag[i] if i == j else 0 for j in range(m)] for i in range(n)]
        assert hermite_column_basis(columns_sparse(matmul(snf.U, A))) == \
            hermite_column_basis(columns_sparse(S))
        assert abs(det(snf.U)) == 1
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            assert diag[i] >= 0

    @given(small_matrices)
    @settings(max_examples=60)
    def test_diagonal_matches_minor_gcds(self, A):
        snf = smith_normal_form(A)
        diag = snf.diagonal
        prod = 1
        for k in range(1, min(3, min(len(A), len(A[0]))) + 1):
            prod *= diag[k - 1]
            assert abs(prod) == minors_gcd(A, k)


class TestSolve:
    def test_identity(self):
        assert echelon_solve(identity(3), {0: 5, 1: -2, 2: 7}) == {0: 5, 1: -2, 2: 7}

    def test_parity_obstruction(self):
        with pytest.raises(NoSolution):
            echelon_solve([[2]], {0: 3})

    def test_bezout(self):
        x = echelon_solve([[2, 3]], {0: 1})
        assert 2 * x.get(0, 0) + 3 * x.get(1, 0) == 1

    @given(small_matrices, st.data())
    @settings(max_examples=200)
    def test_solution_by_substitution(self, A, data):
        x = data.draw(st.lists(st.integers(-5, 5), min_size=len(A[0]), max_size=len(A[0])))
        b = mul_vec(A, x)
        sol = echelon_solve(A, b)
        assert mul_vec(A, sol) == b


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert echelon_kernel(identity(3)) == []

    def test_line(self):
        K = echelon_kernel([[1, 1]])
        assert K in ([{0: 1, 1: -1}], [{0: -1, 1: 1}])

    def test_exponent_map_of_the_order_243_fixture(self):
        # exponent rows (3,0),(0,0),(-3,-3) viewed as a map Z^3 -> Z^2
        assert len(echelon_kernel([[3, 0, -3], [0, 0, -3]])) == 1

    @given(small_matrices)
    @settings(max_examples=200)
    def test_kernel_contract(self, A):
        K = echelon_kernel(A)
        snf = smith_normal_form(A)
        assert len(K) == len(A[0]) - snf.rank
        for col in K:
            assert mul_vec(A, col) == {}

    @given(small_matrices, st.data())
    @settings(max_examples=100)
    def test_brute_force_kernel_vectors_lie_in_span(self, A, data):
        # any small kernel vector must be an integer combination of the basis
        v = data.draw(st.lists(st.integers(-3, 3), min_size=len(A[0]), max_size=len(A[0])))
        if mul_vec(A, v) != {}:
            return
        K = echelon_kernel(A)
        if all(x == 0 for x in v):
            return
        solver = ColumnEchelonSolver(K)
        # raises NoSolution if not in the span
        solver.solve_coefficients({i: x for i, x in enumerate(v) if x})


sparse_matrices = st.integers(1, 6).flatmap(
    lambda n: st.integers(1, 8).flatmap(
        lambda m: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 5]),
                     min_size=m, max_size=m),
            min_size=n, max_size=n,
        )
    )
)


def push(col, transform):
    """Image of a sparse column under the linear map e_j -> transform[j]."""
    out = {}
    for j, x in col.items():
        for i, t in transform[j].items():
            out[i] = out.get(i, 0) + x * t
    return {i: x for i, x in out.items() if x}


# initial transform columns: sparse vectors of Z^4, zero ones included
transform_columns = st.dictionaries(st.integers(0, 3), st.integers(-3, 3).filter(bool),
                                    max_size=3)


class TestLabelledTransform:
    """A solver whose transform starts at given columns equals the full one
    pushed through the linear map e_c -> transform[c]; labels, the unit
    vectors e_(labels[c]), are the special case the augmentation uses."""

    @given(sparse_matrices, st.data())
    @settings(max_examples=200)
    def test_projected_solver_equals_the_full_one(self, A, data):
        n, m = len(A), len(A[0])
        transform = data.draw(st.one_of(
            st.lists(st.integers(0, 3), min_size=m, max_size=m).map(units),
            st.lists(transform_columns, min_size=m, max_size=m)))
        cols = columns_sparse(A)
        full = ColumnEchelonSolver(cols, units(range(m)))
        proj = ColumnEchelonSolver(cols, transform)
        assert proj.pivots == full.pivots
        assert proj.rank == full.rank
        for p in range(full.rank):
            assert proj.echelon_column(p) == full.echelon_column(p)
            # echelon column p has coefficients e_p, so its preimage is
            # transform column p
            assert preimage(proj, proj.echelon_column(p)) == \
                push(preimage(full, full.echelon_column(p)), transform)
        assert proj.kernel_columns() == [push(c, transform) for c in full.kernel_columns()]
        x = data.draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
        b = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        for rhs in (mul_vec(A, x), {i: v for i, v in enumerate(b) if v}):
            try:
                want = full.solve_coefficients(rhs)
            except NoSolution:
                with pytest.raises(NoSolution):
                    proj.solve_coefficients(rhs)
            else:
                assert proj.solve_coefficients(rhs) == want

    def test_without_labels_there_is_no_transform(self):
        solver = ColumnEchelonSolver([{0: 2}, {0: 3}])
        assert solver.rank == 1
        with pytest.raises(ValueError):
            solver.kernel_columns()
        with pytest.raises(ValueError):
            preimage(solver, {0: 2})
        with pytest.raises(ValueError):
            solver.unit_preimages()

    def test_a_kernel_column_can_augment_to_zero(self):
        # (1, -1) spans the kernel of [1 1]; both coordinates map to 0
        solver = ColumnEchelonSolver([{0: 1}, {0: 1}], units([0, 0]))
        assert solver.kernel_columns() == [{}]

    def test_the_transform_columns_are_not_modified(self):
        start = [{0: 1, 2: 3}, {0: 1}]
        solver = ColumnEchelonSolver([{0: 1}, {0: 1}], start)
        assert solver.kernel_columns() == [{2: -3}]
        assert start == [{0: 1, 2: 3}, {0: 1}]


def random_columns(rng):
    """Sparse columns with empty rows and zero columns, and a transform or None:
    the identity, unit vectors at labels, or arbitrary columns."""
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 9)
    rows = [i for i in range(nrows) if rng.random() < 0.75]
    cols = []
    for _ in range(ncols):
        if not rows or rng.random() < 0.15:
            cols.append({})
            continue
        col = {i: rng.choice([-6, -3, -2, -1, 1, 1, 2, 4, 5])
               for i in rng.sample(rows, rng.randint(1, len(rows)))}
        cols.append(col)
    transform = rng.choice([
        None, units(range(ncols)), units([rng.randrange(3) for _ in range(ncols)]),
        [{i: rng.choice([-2, -1, 1, 3]) for i in rng.sample(range(4), rng.randint(0, 2))}
         for _ in range(ncols)]])
    return cols, nrows, transform


def assert_same_echelon(solver, ref):
    """The bucketed solver left exactly what the row scan leaves."""
    assert solver.pivots == ref.pivots
    assert solver._cols == ref.cols
    assert [solver.echelon_column(p) for p in range(solver.rank)] == \
        [ref.cols[c] for _, c in ref.pivots]
    assert solver._free == ref.free
    if ref.trans is not None:
        assert solver.kernel_columns() == [ref.trans[c] for c in ref.free]


class TestBucketedEchelon:
    """The solver finds a row's live columns in buckets keyed by least row;
    ``scan_echelon`` scans every active column at every row."""

    def test_random_matrices_match_the_row_scan(self):
        rng = random.Random(2024)
        shapes = set()
        for _ in range(400):
            cols, nrows, transform = random_columns(rng)
            assert_same_echelon(ColumnEchelonSolver(cols, transform),
                                scan_echelon(cols, nrows, transform))
            used = {i for c in cols for i in c}
            shapes.add((any(not c for c in cols),
                        len(used) < 1 + max(used, default=-1), transform is None))
        # zero columns, empty rows below the last one, and a transform or
        # none, all occurred
        assert len(shapes) == 8

    @pytest.mark.parametrize("group", ["g", "psl"])
    def test_projected_d2_matches_the_row_scan(self, request, group):
        # the echelon path the resolution once took, now the fill's oracle
        R = request.getfixturevalue(f"res_{group}")
        labels = [c // R.n for c in range(R.presentation.num_relators * R.n)]
        assert_same_echelon(augmented_solver(R),
                            scan_echelon(projected_d2(R), R.g * R.n, units(labels)))

    def test_a_tie_on_the_entry_goes_to_the_sparser_column(self):
        # both live columns have |entry| 1 at row 0; the longer one has the
        # lower index, so the shorter one must pivot and the longer one is
        # reduced by it
        cols = [{0: 1, 1: 5, 2: 7}, {0: -1, 3: 2}]
        solver = ColumnEchelonSolver(cols, units(range(2)))
        assert solver.pivots[0] == (0, 1)
        assert solver.echelon_column(0) == {0: 1, 3: -2}
        assert_same_echelon(solver, scan_echelon(cols, 4, units(range(2))))

    @pytest.mark.parametrize("cols", [[{5: 1}], [{0: 1}, {0: 1, 3: 1}], [{1: 2}, {1: 3, 2: 1}]])
    def test_entries_below_the_last_row_raise(self, cols):
        # the row scan takes a row count; column 1 of the second and third
        # cases keeps only rows >= nrows once it is reduced.  The solver
        # reads its rows off the columns, so it has no such case.
        with pytest.raises(ConsistencyError):
            scan_echelon(cols, 2, units(range(len(cols))))


class TestUnitPreimages:
    """``unit_preimages`` reads ``preimage({row: 1})`` for every pivot row off
    one backward pass, and refuses unless the image is the coordinate
    lattice of the pivot rows."""

    def test_random_matrices_match_the_solves(self):
        rng = random.Random(15)
        outcomes = set()
        for _ in range(400):
            cols, _, transform = random_columns(rng)
            solver = ColumnEchelonSolver(cols, transform or units(range(len(cols))))
            try:
                table = solver.unit_preimages()
            except NoSolution:
                # then some pivot row's unit vector has no preimage
                refused = 0
                for row, _ in solver.pivots:
                    try:
                        preimage(solver, {row: 1})
                    except NoSolution:
                        refused += 1
                assert refused
                outcomes.add(False)
                continue
            assert table == {row: preimage(solver, {row: 1}) for row, _ in solver.pivots}
            outcomes.add(True)
        assert outcomes == {True, False}

    def test_a_pivot_other_than_one_raises(self):
        with pytest.raises(NoSolution):
            ColumnEchelonSolver([{0: 2}], units([0])).unit_preimages()

    def test_an_entry_on_a_row_without_a_pivot_raises(self):
        solver = ColumnEchelonSolver([{0: 1, 1: 1}], units([0]))
        assert solver.pivots == [(0, 0)]
        with pytest.raises(NoSolution):
            preimage(solver, {0: 1})
        with pytest.raises(NoSolution):
            solver.unit_preimages()

    def test_later_rows_are_subtracted(self):
        # [[1, 0], [2, 1]]: e_0 = col 0 - 2 col 1
        solver = ColumnEchelonSolver([{0: 1, 1: 2}, {1: 1}], units(range(2)))
        assert solver.unit_preimages() == {0: {0: 1, 1: -2}, 1: {1: 1}}


class TestLatticeBasis:
    def test_redundant_columns_collapse(self):
        cols = [{0: 2}, {0: 4}, {0: 3}]
        basis = hermite_column_basis(cols)
        assert basis == [{0: 1}]

    def test_preserves_lattice(self):
        cols = [{0: 2, 1: 2}, {0: 4, 1: 0}]
        basis = hermite_column_basis(cols)
        snf = smith_normal_form(from_columns_sparse(basis, 2))
        orig = smith_normal_form(from_columns_sparse(cols, 2))
        assert invariant_factors(snf) == invariant_factors(orig)
        assert snf.rank == orig.rank


def remix(cols, data):
    """The same lattice from other generators: shuffled, duplicated, negated
    and combined by unimodular column operations."""
    cols = [dict(c) for c in cols]
    for _ in range(data.draw(st.integers(0, 6))):
        move = data.draw(st.sampled_from(["add", "negate", "duplicate"]))
        i = data.draw(st.integers(0, len(cols) - 1))
        if move == "negate":
            cols[i] = {r: -x for r, x in cols[i].items()}
        elif move == "duplicate":
            cols.append(dict(cols[i]))
        elif len(cols) > 1:
            j = data.draw(st.integers(0, len(cols) - 1).filter(lambda j: j != i))
            q = data.draw(st.integers(-3, 3))
            for r, x in cols[j].items():
                cols[i][r] = cols[i].get(r, 0) + q * x
            cols[i] = {r: x for r, x in cols[i].items() if x}
    return data.draw(st.permutations(cols))


class TestHermiteBasis:
    """The Hermite basis is a function of the lattice, not of its generators."""

    @given(sparse_matrices, st.data())
    @settings(max_examples=200)
    def test_basis_depends_on_the_lattice_only(self, A, data):
        cols = columns_sparse(A)
        basis = hermite_column_basis(cols)
        assert hermite_column_basis(remix(cols, data)) == basis
        # Hermite shape: positive leading entries, later pivot rows reduced
        leads = [min(c) for c in basis]
        assert leads == sorted(set(leads))
        for i, col in enumerate(basis):
            assert col[leads[i]] > 0
            for k in range(i + 1, len(basis)):
                assert 0 <= col.get(leads[k], 0) < basis[k][leads[k]]
        # same lattice both ways
        in_basis = ColumnEchelonSolver(basis)
        in_input = ColumnEchelonSolver(cols)
        for col in cols:
            in_basis.solve_coefficients(col)
        for col in basis:
            in_input.solve_coefficients(col)


def combine(cols, coefficients):
    """The sparse integer combination of sparse columns."""
    out = {}
    for col, q in zip(cols, coefficients):
        for i, x in col.items():
            out[i] = out.get(i, 0) + q * x
    return {i: x for i, x in out.items() if x}


class TestHomologyOfPair:
    """``homology_from_sparse`` at the middle of Z^? --hi--> Z^mid --lo--> Z^low."""

    def test_free_of_rank_two(self):
        h = homology_from_sparse([], [{}, {}])
        assert h.free_rank == 2
        assert h.invariant_factors == ()

    def test_z_mod_3(self):
        h = homology_from_sparse([{0: 3}], [{}])
        assert h.free_rank == 0
        assert h.invariant_factors == (3,)

    def test_composition_check(self):
        with pytest.raises(CompositionNotZero):
            homology_from_sparse([{0: 1}, {1: 1}], [{0: 1}, {1: 1}])

    def test_coordinates_kill_boundaries(self):
        # Z^2 with relations (2,0) and (0,4): coordinates of relation images vanish
        h = homology_from_sparse([{0: 2}, {1: 4}], [{}, {}])
        assert h.invariant_factors == (2, 4)
        assert torsion_coordinates(h, {0: 2}) == (0, 0)
        assert torsion_coordinates(h, {1: 4}) == (0, 0)
        assert torsion_coordinates(h, {0: 2, 1: 4}) == (0, 0)

    def test_generator_cycles_have_unit_coordinates(self):
        h = homology_from_sparse([{0: 2}, {1: 4}], [{}, {}])
        assert len(h.generator_cycles) == 2
        for i, z in enumerate(h.generator_cycles):
            coords = torsion_coordinates(h, z)
            expected = tuple(1 if t == i else 0 for t in range(2))
            assert coords == expected

    def test_degree_one_reproduces_abelianization(self):
        # exponent rows (3,0),(0,0),(-3,-3) of the order-243 presentation,
        # as relation columns in Z^2
        h = homology_from_sparse([{0: 3}, {}, {0: -3, 1: -3}], [{}, {}])
        assert h.invariant_factors == (3, 3)
        assert h.free_rank == 0

    @pytest.mark.parametrize("hi_cols", [[], [{}], [{}, {}]])
    def test_no_cycles_give_the_empty_group(self, hi_cols):
        # lo is injective, so there are no cycles (k = 0) and hi must vanish
        h = homology_from_sparse(hi_cols, [{0: 1}, {0: 1, 1: 2}])
        assert (h.free_rank, h.invariant_factors, h.generator_cycles) == (0, (), ())
        assert torsion_coordinates(h, {}) == ()
        with pytest.raises(NoSolution):
            torsion_coordinates(h, {0: 1})

    def test_coordinate_rows_read_the_coordinates_of_random_cycles(self):
        # M z = torsion_coordinates(h, z) mod d for M the linear extension of
        # the coordinates, and L B = I for the echelon cycle basis B
        rng = random.Random(41)
        seen = set()
        for _ in range(150):
            mid, low = rng.randint(1, 6), rng.randint(0, 3)
            lo = [{i: rng.choice([-2, -1, 1, 3]) for i in range(low) if rng.random() < 0.4}
                  for _ in range(mid)]
            cycles = echelon_kernel(from_columns_sparse(lo, low)) if low else \
                [{i: 1} for i in range(mid)]
            hi = []
            for _ in range(rng.randint(0, 4)):
                hi.append(combine(cycles, [rng.choice([0, 2, 3, -4, 6]) for _ in cycles]))
            h = homology_from_sparse(hi, lo)
            solver = h._kernel_solver
            B = [solver.echelon_column(p) for p in range(solver.rank)]
            L = h.cycle_left_inverse()
            assert [[sum(l.get(e, 0) * x for e, x in b.items()) for b in B] for l in L] == \
                identity(len(B))
            M = h.coordinate_rows()
            assert len(M) == len(h.invariant_factors)
            for m, d in zip(M, h.invariant_factors):
                assert all(0 < x < d for x in m.values())
            for _ in range(5):
                z = combine(cycles, [rng.randint(-7, 7) for _ in cycles])
                assert tuple(sum(m.get(e, 0) * x for e, x in z.items()) % d
                             for m, d in zip(M, h.invariant_factors)) == \
                    torsion_coordinates(h, z)
            seen.add(min(len(h.invariant_factors), 2))
        # no torsion, one factor and several factors all occurred
        assert seen == {0, 1, 2}

    def test_cycles_off_a_direct_summand_are_refused(self):
        # the one cycle 2 e_0 spans 2Z, which is not a summand of Z, so no
        # integer row reads its coefficient
        h = FpAbelianGroup(ColumnEchelonSolver([{0: 2}]), smith_normal_form([[3]]))
        with pytest.raises(ConsistencyError, match="the cycles do not span a direct summand"):
            h.coordinate_rows()
