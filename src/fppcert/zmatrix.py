"""Exact integer linear algebra on sparse columns.

Vectors are sparse columns, dicts {row: nonzero entry}.  The module has a
sparse column-echelon solver (rank, repeated exact solves, and a
kernel lattice basis kept as its image under a linear map given by the
initial transform columns, so a caller that needs only an image of the
kernel, such as the boundary lattice of H2, never builds the kernel
itself), a Smith normal form of a small dense list
of rows that keeps only its diagonal and its row transform U, and one
homology routine, ``homology_from_sparse``, that every homology
computation goes through.  It takes the boundary lattice in Hermite normal
form from the same solver, so homology coordinates depend on the lattice
alone and not on the order of its spanning columns.  Everything is exact,
nothing floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CompositionNotZero, ConsistencyError, NoSolution

SparseCol = Dict[int, int]


def _axpy_sparse(dst: SparseCol, src: SparseCol, q: int) -> None:
    """dst += q * src in place, dropping zeros."""
    for i, x in src.items():
        v = dst.get(i, 0) + q * x
        if v:
            dst[i] = v
        else:
            dst.pop(i, None)


class ColumnEchelonSolver:
    """Column echelon form of an integer matrix by unimodular column operations.

    Gives the rank, a lattice basis of the kernel, and repeated exact solves
    of A x = b.  With ``transform`` given, transform column c starts as
    ``transform[c]`` and takes the same column operations as column c, so
    every transform column (and kernel column) is the image of the full one
    under the linear map e_c -> transform[c].  ``[{c: 1} for c in
    range(ncols)]`` keeps the full transform; None keeps none.  The column
    operations, pivots and solves do not depend on ``transform``.

    The rows, up to the largest row index of any input column (a column
    operation brings in no other), are eliminated in order.  At each row
    the live columns, those with an entry there, are reduced by the one of
    least absolute value until one is left, the pivot.  A tie on the entry
    goes to the column with the fewest nonzeros, whose multiples bring the
    least fill into the others (Markowitz, *Management Sci.* 3, 1957), and
    then to the lower index, so the pivots do not depend on the order in
    which the live columns were found.  An unpivoted column has no entry
    above the row being processed, so the live columns are found in buckets
    keyed by least row, and empty rows cost nothing.
    """

    def __init__(self, columns: Sequence[SparseCol],
                 transform: Optional[Sequence[SparseCol]] = None):
        self.ncols = len(columns)
        cols: List[SparseCol] = [dict(c) for c in columns]
        nrows = 1 + max((max(c) for c in cols if c), default=-1)
        trans: Optional[List[SparseCol]] = (
            [dict(t) for t in transform] if transform is not None else None
        )

        def negate(c):
            cols[c] = {i: -x for i, x in cols[c].items()}
            if trans is not None:
                trans[c] = {i: -x for i, x in trans[c].items()}

        # columns by least row; a reduced column moves to its new least row
        buckets: Dict[int, List[int]] = {}
        for c, col in enumerate(cols):
            if col:
                buckets.setdefault(min(col), []).append(c)
        pivots: List[Tuple[int, int]] = []  # (row, column index) in elimination order
        for row in range(nrows):
            live = buckets.pop(row, None)
            if live is None:
                continue
            while len(live) > 1:
                c0 = min(live, key=lambda c: (abs(cols[c][row]), len(cols[c]), c))
                if cols[c0][row] < 0:
                    negate(c0)
                p = cols[c0][row]
                kept = []
                for c in live:
                    if c != c0:
                        # |cols[c][row]| >= p, so q is never 0
                        q = cols[c][row] // p
                        _axpy_sparse(cols[c], cols[c0], -q)
                        if trans is not None:
                            _axpy_sparse(trans[c], trans[c0], -q)
                        if row not in cols[c]:
                            if cols[c]:
                                buckets.setdefault(min(cols[c]), []).append(c)
                            continue
                    kept.append(c)
                live = kept
            c0 = live[0]
            if cols[c0][row] < 0:
                negate(c0)
            pivots.append((row, c0))
        # self-check: every column left unpivoted has been reduced to zero
        pivot_cols = {c for _, c in pivots}
        free = [c for c in range(self.ncols) if c not in pivot_cols]
        if any(cols[c] for c in free):
            raise ConsistencyError("non-pivot column left nonzero after echelon pass")
        self._cols = cols
        self._trans = trans
        self.pivots = pivots
        self.rank = len(pivots)
        self._free = free

    def kernel_columns(self) -> List[SparseCol]:
        """Lattice basis of the kernel, one sparse column per free column.

        Each column is given as its image under ``transform``.
        """
        if self._trans is None:
            raise ValueError("solver built without transform")
        return [dict(self._trans[c]) for c in self._free]

    def solve_coefficients(self, b: SparseCol) -> List[int]:
        """Coefficients over the echelon pivot columns solving A x = b.

        Raises NoSolution when no integer solution exists.
        """
        r: SparseCol = {i: x for i, x in b.items() if x}
        y: List[int] = []
        for row, c in self.pivots:
            v = r.get(row, 0)
            if v == 0:
                y.append(0)
                continue
            p = self._cols[c][row]
            if v % p:
                raise NoSolution(f"divisibility failure at pivot row {row}")
            t = v // p
            y.append(t)
            _axpy_sparse(r, self._cols[c], -t)
        if r:
            raise NoSolution("residual nonzero outside pivot rows")
        return y

    def unit_preimages(self) -> Dict[int, SparseCol]:
        """An integer x with A x = e_row, as its image under ``transform``,
        for every pivot row, in one backward pass.

        Echelon column c of pivot (row, c) is e_row plus entries at later
        pivot rows i, so its transform column minus the sum of E_c[i] times
        the preimage of e_i is the preimage of e_row; the pivots are walked
        in reverse elimination order.  The coefficients over the pivot
        columns are unique, so this is the transform of the coefficients
        ``solve_coefficients`` gives for e_row.  Raises NoSolution unless
        every pivot is 1 and every echelon entry lies on a pivot row, that
        is unless the image is the coordinate lattice of the pivot rows.
        """
        if self._trans is None:
            raise ValueError("solver built without transform")
        out: Dict[int, SparseCol] = {}
        for row, c in reversed(self.pivots):
            col = self._cols[c]
            if col[row] != 1:
                raise NoSolution(f"pivot {col[row]} at row {row} is not a unit")
            x = dict(self._trans[c])
            for i, e in col.items():
                if i != row:
                    if i not in out:
                        raise NoSolution(f"row {i} has no pivot")
                    _axpy_sparse(x, out[i], -e)
            out[row] = x
        return out

    def echelon_column(self, pivot_index: int) -> SparseCol:
        """The ``pivot_index``-th echelonized pivot column itself.

        These columns span the same lattice as the input and are the basis
        in which ``solve_coefficients`` expresses its answers.
        """
        return dict(self._cols[self.pivots[pivot_index][1]])


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = S with unimodular U and V and S diagonal with d1 | d2 | ...

    Only the ``diagonal`` of S, of length min(rows, cols), and the rows of U
    are kept: homology coordinates need the row transform alone.
    """

    diagonal: Tuple[int, ...]
    U: Tuple[Tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def smith_normal_form(rows: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form, with its unimodular row transform, of a list of rows.

    Pivot strategy: least-absolute-value entry of the trailing submatrix,
    Euclidean clearing of its row and column, then a divisibility fix-up
    folding any violating entry into the pivot row.
    """
    M = [list(r) for r in rows]
    n, m = len(M), len(M[0]) if M else 0
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, k):
        M[i], M[k] = M[k], M[i]
        U[i], U[k] = U[k], U[i]

    def swap_cols(j, k):
        for row in M:
            row[j], row[k] = row[k], row[j]

    def negate_row(i):
        M[i] = [-x for x in M[i]]
        U[i] = [-x for x in U[i]]

    def row_axpy(i, k, q):
        M[i] = [a + q * b for a, b in zip(M[i], M[k])]
        U[i] = [a + q * b for a, b in zip(U[i], U[k])]

    def col_axpy(j, k, q):
        for row in M:
            row[j] += q * row[k]

    t = 0
    while t < min(n, m):
        # locate a least-absolute-value pivot in the trailing submatrix
        best = None
        for i in range(t, n):
            for j in range(t, m):
                x = M[i][j]
                if x and (best is None or abs(x) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if M[t][t] < 0:
            negate_row(t)
        while True:
            i = next((i for i in range(t + 1, n) if M[i][t]), None)
            if i is not None:
                q = M[i][t] // M[t][t]
                row_axpy(i, t, -q)
                if M[i][t]:
                    swap_rows(t, i)
                continue
            j = next((j for j in range(t + 1, m) if M[t][j]), None)
            if j is not None:
                q = M[t][j] // M[t][t]
                col_axpy(j, t, -q)
                if M[t][j]:
                    swap_cols(t, j)
                continue
            # row and column clear; check the divisibility condition
            p = M[t][t]
            bad = None
            for i in range(t + 1, n):
                row = M[i]
                for j in range(t + 1, m):
                    if row[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_axpy(t, bad, 1)
        t += 1
    return SmithDecomposition(tuple(M[i][i] for i in range(min(n, m))),
                              tuple(map(tuple, U)))


def hermite_column_basis(columns: Sequence[SparseCol]) -> List[SparseCol]:
    """Hermite normal form basis of the lattice spanned by sparse integer columns.

    The echelon columns of ``ColumnEchelonSolver`` have a positive leading
    entry at their pivot row; reducing each column at every later pivot row
    into [0, pivot) leaves the one basis the lattice determines (Cohen, *A
    Course in Computational Algebraic Number Theory*, GTM 138, section 2.4),
    whatever the order or redundancy of the input columns.
    """
    solver = ColumnEchelonSolver(columns)
    basis = [solver.echelon_column(i) for i in range(solver.rank)]
    for i, col in enumerate(basis):
        for (row, _), piv in zip(solver.pivots[i + 1:], basis[i + 1:]):
            q = col.get(row, 0) // piv[row]
            if q:
                _axpy_sparse(col, piv, -q)
    return basis


class FpAbelianGroup:
    """A finitely generated abelian group ker(lo)/im(hi), in canonical coordinates.

    ``invariant_factors`` are > 1 and in divisibility order; ``free_rank``
    counts the infinite cyclic summands.  ``generator_cycles`` holds one
    sparse ambient cycle per torsion generator.  The coordinates of a cycle
    are its residues in those generators: the rows of the Smith form
    ``snf``'s transform U at the torsion positions, times the cycle's
    coefficients in the echelon basis of the cycles that ``kernel_solver``
    solves in.  ``coordinate_rows`` extends them linearly to the whole
    ambient lattice, so a caller reads the coordinates of a cycle off its
    entries with no solve.
    """

    def __init__(self, kernel_solver: ColumnEchelonSolver, snf: SmithDecomposition):
        k = kernel_solver.rank
        diag = snf.diagonal + (0,) * (k - len(snf.diagonal))
        torsion_pos = [i for i, d in enumerate(diag) if d > 1]
        self._kernel_solver = kernel_solver
        self._torsion_rows = [snf.U[i] for i in torsion_pos]
        self.invariant_factors = tuple(diag[i] for i in torsion_pos)
        self.free_rank = diag.count(0)
        # the generator at diagonal position pos is U^-1 e_pos, the one
        # solution of U x = e_pos, pushed through the echelon cycle basis;
        # U is unimodular, so every row is a pivot row with pivot 1
        cycles = []
        if torsion_pos:
            inverse = ColumnEchelonSolver([{i: row[j] for i, row in enumerate(snf.U) if row[j]}
                                           for j in range(k)],
                                          [{j: 1} for j in range(k)]).unit_preimages()
            for pos in torsion_pos:
                z: SparseCol = {}
                for p, x in inverse[pos].items():
                    _axpy_sparse(z, kernel_solver.echelon_column(p), x)
                cycles.append(z)
        self.generator_cycles: Tuple[SparseCol, ...] = tuple(cycles)

    def cycle_left_inverse(self) -> List[SparseCol]:
        """Sparse rows L with L B = I, for B the echelon basis of the cycles.

        The cycles are the kernel of an integer map, so they span a direct
        summand of the ambient lattice and B^T maps onto Z^k.  Row p of L is
        the preimage of e_p under B^T, whose columns are the ambient
        coordinates in the cycles' support: one solver of B^T, its transform
        kept under those coordinates, gives every row in one
        ``unit_preimages`` pass.  Coordinates off that support get 0.
        """
        solver = self._kernel_solver
        k = solver.rank
        transposed: Dict[int, SparseCol] = {}
        for p in range(k):
            for e, x in solver.echelon_column(p).items():
                transposed.setdefault(e, {})[p] = x
        coords = sorted(transposed)
        try:
            table = ColumnEchelonSolver([transposed[e] for e in coords],
                                        [{e: 1} for e in coords]).unit_preimages()
        except NoSolution as exc:
            raise ConsistencyError("the cycles do not span a direct summand") from exc
        return [table[p] for p in range(k)]

    def coordinate_rows(self) -> Tuple[SparseCol, ...]:
        """Sparse rows M over the ambient lattice that read a cycle's coordinates.

        M is the torsion rows of U times ``cycle_left_inverse``: a cycle z
        is B y for y its echelon coefficients, so L z = y and M z = U y at
        the torsion positions.  Row i is reduced mod d_i and gives residue i
        mod d_i of every cycle; on a vector that is not a cycle it means
        nothing.
        """
        L = self.cycle_left_inverse()
        rows = []
        for u, d in zip(self._torsion_rows, self.invariant_factors):
            m: SparseCol = {}
            for p, x in enumerate(u):
                if x:
                    _axpy_sparse(m, L[p], x)
            rows.append({e: v % d for e, v in m.items() if v % d})
        return tuple(rows)

    def __repr__(self):
        return f"FpAbelianGroup(free_rank={self.free_rank}, invariant_factors={list(self.invariant_factors)})"


def homology_from_sparse(hi_cols: Sequence[SparseCol],
                         lo_cols: Sequence[SparseCol]) -> FpAbelianGroup:
    """Homology ker(lo)/im(hi) of Z^? --hi--> Z^len(lo_cols) --lo--> Z^?.

    ``lo_cols`` are the images of the mid-degree basis vectors in the low
    degree, one column each; ``hi_cols`` live in the mid degree.  Checks
    lo o hi = 0.
    """
    for col in hi_cols:
        image: SparseCol = {}
        for i, x in col.items():
            _axpy_sparse(image, lo_cols[i], x)
        if image:
            raise CompositionNotZero("boundary maps do not compose to zero")
    lo_solver = ColumnEchelonSolver(lo_cols, [{i: 1} for i in range(len(lo_cols))])
    k_solver = ColumnEchelonSolver(lo_solver.kernel_columns())
    # boundaries in the echelon basis of the cycles, one column each
    rel_cols = [k_solver.solve_coefficients(col) for col in hermite_column_basis(hi_cols)]
    rows = [list(r) for r in zip(*rel_cols)] if rel_cols else [[]] * k_solver.rank
    return FpAbelianGroup(k_solver, smith_normal_form(rows))
