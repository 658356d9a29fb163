"""Independent reference implementations the library no longer carries.

* ``fox_derivative`` takes Fox derivatives in the integral group ring of the
  free group, as dicts {reduced word: coefficient}.  The library projects
  them into Z[G], already multiplied by h on the left, in one walk of the
  word from h (``resolution.fox_walk``); projecting this oracle through
  the table and multiplying by h with ``gr_mul`` must give the same flat
  row.
* ``apply_word`` moves one element through a word, one letter at a time,
  through ``GroupTable.action`` and ``action_inv``; ``project`` reads the
  words of a free group ring element off it.  The library's own closure
  check, ``GroupTable._verify``, moves every element through a relator at
  once and applies each run by repeated squaring of its permutation.
* The group ring itself: elements of Z[G] as dicts {element: coefficient}
  with ``gr_add_into``, ``gr_mul``, ``gr_apply_endo`` and
  ``gr_augmentation``, and ``flatten`` / ``unflatten`` between vectors of
  them and the flat regular realization the library keeps
  (coordinate (j, e) is j*|G| + e).  ``d1_columns`` is d1 in that
  realization.  The library has no group-ring product: its one Z[G]
  operation is the Fox walk, which left-translates by starting the walk
  at the translating element.
* ``d2_columns`` builds all r|G| columns of d2 itself: column i*|G| + h
  is h times the projected free-group Fox row of relator i, moved by
  ``GroupTable.mult``.  The library walks each column with ``fox_walk``
  and keeps only the distinct ones, the 2-cells, in ``R.d2_cols``.
  ``full_solver`` echelonizes d2 with the full column transform, so its
  kernel columns are a Z[G]-lattice basis of ker d2 in Z^(r|G|).
  ``tree_rows`` reads the rows of the spanning tree off ``tree_edges``
  itself, ``projected_d2`` drops them, which keeps the kernel, and
  ``projected_solver`` echelonizes that with the full transform;
  ``augment`` maps full columns down to compare.
* ``augmented_solver`` is the echelon path the library filled the Cayley
  complex by before it deduced the fill cell by cell: it echelonizes pi d2
  with the transform kept only through the augmentation Z^(r|G|) -> Z^r,
  so its kernel columns span the lattice epsilon(ker d2) whose generators
  ``FreeResolution3.kernel_cols`` holds, and its ``unit_preimages`` are
  unit lifts.  The library's lifts may differ from these by lattice
  vectors, which ``in_lattice`` recognizes; the lattices themselves are
  compared through their Hermite bases (``zmatrix.hermite_column_basis``).
  None of ``full_solver``, ``projected_solver``, ``augmented_solver`` and
  ``apply_d2_integer``, d2 applied to a flat vector, may reach
  ``fox_walk`` or ``R.d2_cols``; ``tests/test_source.py`` checks that.
* ``preimage`` solves A x = b through ``solve_coefficients`` and the
  solver's transform, one solve per right-hand side: the reference for
  ``ColumnEchelonSolver.unit_preimages``, which reads every unit vector's
  preimage off one backward pass.
* ``scan_echelon`` is the column echelon elimination that scans every
  active column at every row, the reference for the solver's bucketed
  search for live columns.
* ``lift_chain_map`` lifts an endomorphism to a full equivariant chain map
  through degree 2, checking both chain-map squares, and ``induced_h2``
  reads its action on H2.  The library computes only the induced H2 matrix
  (``resolution.induced_h2_matrix``); the full lift is the oracle for it.
  It builds f1 and its lifting targets from ``fox_derivative``,
  ``project`` and group-ring products, never from the library's Fox walk
  or residue tables; ``tests/test_source.py`` checks that.
* ``induced_h2_by_targets`` is the dict path the library read its induced
  maps off before it kept only residues: ``lifting_target`` builds each
  support relator's target as a dict of Fox walks, the cycle check applies
  d1 to their sum b, the lift is b's entries times the unit lifts, and
  ``torsion_coordinates`` solves for its coordinates.  It shares the unit
  lifts and the Fox walk with the library, and checks the residue reads.
  ``torsion_coordinates`` reads the coordinates of one cycle by an echelon
  solve; the library reads them off ``FpAbelianGroup.coordinate_rows``.
* ``evaluate_under`` evaluates a word under generator images one letter
  at a time through ``GroupTable.mult``; the library evaluates a relator
  under every candidate image at once (``GroupTable.solutions``).
  ``search_endomorphisms`` is the plain depth-first search built on it,
  which tries every element for every generator and checks every relator
  at every node: the reference for ``enumerate_endomorphisms``.  Neither
  it nor ``is_endomorphism`` may reach ``solutions`` or
  ``enumerate_endomorphisms``; ``tests/test_source.py`` checks that.
  ``element_order`` counts the powers of an element through
  ``GroupTable.mult``, the reference for the pure-power filter that
  ``solutions`` applies.
  ``orbit_walk_dedup`` walks each inner orbit by conjugating with every
  generator, the reference for ``dedup_modulo_inner``, which leaves the
  central generators out.
* ``representative_words`` rebuilds each element's tree word, the moves
  on its path from 0 in ``GroupTable.tree_edges``; the library keeps only
  the edges.  Endomorphisms are plain tuples of generator images, as the
  library lists them.
* Matrix, word and endomorphism helpers that only the tests need: dense
  matrices as plain lists of rows, with ``zero_matrix``, ``identity``,
  ``matmul``, ``mul_vec``, ``columns_sparse``, ``from_columns_sparse`` and
  ``invariant_factors`` of a Smith form; ``mult_row``, a row of the group
  table read through ``GroupTable.mult`` alone; ``word_product``, the
  reduced product of words, which the library never forms, and
  ``word_length``; ``is_zero_endo``,
  ``is_identity_endo``, ``is_endomorphism``, ``conjugate_endomorphism``,
  ``compose`` of two endomorphisms and ``compose_h2`` of two induced maps.
* ``wedge_presentation`` writes the free product of two presentations, the
  presentation whose complex is their wedge.  The CLI ``wedge`` works from
  the components' certificates and never builds it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from fppcert.coset import GroupTable, moves
from fppcert.errors import ConsistencyError, NoSolution
from fppcert.presentation import Presentation, Word
from fppcert.resolution import FreeResolution3, H2Matrix, fox_walk
from fppcert.zmatrix import (
    ColumnEchelonSolver,
    FpAbelianGroup,
    SparseCol,
    _axpy_sparse,
)

FreeRingElement = Dict[Word, int]
GroupRingElement = Dict[int, int]


def gr_add_into(dst: GroupRingElement, src: GroupRingElement, coeff: int = 1) -> None:
    _axpy_sparse(dst, src, coeff)


def gr_mul(T: GroupTable, a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    out: GroupRingElement = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = T.mult(u, v)
            s = out.get(w, 0) + cu * cv
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def gr_apply_endo(phi_elem: Sequence[int], a: GroupRingElement) -> GroupRingElement:
    """Push a group-ring element through an endomorphism given on elements."""
    out: GroupRingElement = {}
    for u, c in a.items():
        gr_add_into(out, {phi_elem[u]: c})
    return out


def gr_augmentation(a: GroupRingElement) -> int:
    return sum(a.values())


def fox_derivative(w: Word, j: int, num_generators: Optional[int] = None) -> FreeRingElement:
    """Fox derivative of ``w`` with respect to generator ``j`` in Z[F].

    Satisfies the product rule d(uv) = du + u.dv with d(x_j) = 1 and
    d(x_j^-1) = -x_j^-1.  Zero coefficients are not stored.
    """
    if j < 0 or (num_generators is not None and j >= num_generators):
        raise IndexError(f"invalid generator index {j}")
    terms: FreeRingElement = {}
    prefix = Word()
    for gen, exp in w.letters:
        if gen < 0 or (num_generators is not None and gen >= num_generators):
            raise IndexError(f"invalid generator index {gen} in word")
        if gen == j:
            # d(x^n) = 1 + x + ... + x^(n-1);  d(x^-n) = -(x^-1 + ... + x^-n)
            if exp > 0:
                for s in range(exp):
                    t = word_product(prefix, Word.of([(gen, s)]))
                    terms[t] = terms.get(t, 0) + 1
            else:
                for s in range(1, -exp + 1):
                    t = word_product(prefix, Word.of([(gen, -s)]))
                    terms[t] = terms.get(t, 0) - 1
        prefix = word_product(prefix, Word.of([(gen, exp)]))
    return {t: c for t, c in terms.items() if c}


def apply_word(T: GroupTable, e: int, w: Word) -> int:
    """Right action of the word on element e, letter by letter.

    Reads the generator actions only, never the multiplication table.
    """
    for j, exp in w.letters:
        if j >= T.num_generators:
            raise IndexError(f"invalid generator index {j}")
        if exp > 0:
            for _ in range(exp):
                e = T.action[j][e]
        else:
            for _ in range(-exp):
                e = T.action_inv[j][e]
    return e


def project(T, a: FreeRingElement) -> GroupRingElement:
    """Image of a free group ring element in Z[G] under the table."""
    out: GroupRingElement = {}
    for word, c in a.items():
        e = apply_word(T, 0, word)
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def preimage(solver: ColumnEchelonSolver, b: SparseCol) -> SparseCol:
    """An integer x with A x = b, as its image under the solver's ``transform``.

    It is the sum over the pivots of the coefficient from
    ``solve_coefficients`` times that pivot's transform column, one solve
    per right-hand side.  Raises NoSolution when no integer solution
    exists, and ValueError when the solver keeps no transform.
    """
    if solver._trans is None:
        raise ValueError("solver built without transform")
    x: SparseCol = {}
    for (_, c), t in zip(solver.pivots, solver.solve_coefficients(b)):
        if t:
            for i, v in solver._trans[c].items():
                x[i] = x.get(i, 0) + t * v
    return {i: v for i, v in x.items() if v}


@lru_cache(maxsize=None)
def d2_columns(R: FreeResolution3) -> List[SparseCol]:
    """d2 as its r|G| columns in Z^(g|G|), from the free-group Fox derivative.

    Column i*|G| + h is h times the projected Fox row of relator i
    (``fox_matrix``), each entry e of block j moved to coordinate
    j*|G| + h e by ``GroupTable.mult``.
    """
    T, n = R.group, R.n
    cols: List[SparseCol] = []
    for w in R.presentation.relators:
        row = fox_matrix(T, w)
        cols += [{j * n + T.mult(h, e): c for j, a in enumerate(row) for e, c in a.items()}
                 for h in range(n)]
    return cols


@lru_cache(maxsize=None)
def full_solver(R: FreeResolution3) -> ColumnEchelonSolver:
    """The echelon solver of R's d2 with the full transform in Z^(r|G|)."""
    return ColumnEchelonSolver(d2_columns(R), units(range(R.presentation.num_relators * R.n)))


def tree_rows(R: FreeResolution3) -> set:
    """The rows of C1 on the BFS spanning tree of ``tree_edges``.

    The move x_j from parent to t is row j*|G| + parent, and an inverse
    move, t x_j = parent, row j*|G| + t.
    """
    g, n = R.g, R.n
    rows = set()
    for t, parent, move in R.group.tree_edges:
        j = move if move < g else move - g
        rows.add(j * n + (parent if move < g else t))
    return rows


def projected_d2(R: FreeResolution3) -> List[SparseCol]:
    """The columns of pi d2: d2 without its spanning-tree rows."""
    tree = tree_rows(R)
    return [{i: x for i, x in col.items() if i not in tree} for col in d2_columns(R)]


@lru_cache(maxsize=None)
def projected_solver(R: FreeResolution3) -> ColumnEchelonSolver:
    """The echelon solver of pi d2 with the full transform in Z^(r|G|)."""
    return ColumnEchelonSolver(projected_d2(R), units(range(R.presentation.num_relators * R.n)))


@lru_cache(maxsize=None)
def augmented_solver(R: FreeResolution3) -> ColumnEchelonSolver:
    """The echelon solver of pi d2 with its transform augmented to Z^r.

    Column i*|G| + h augments to relator i.  Its kernel columns span
    epsilon(ker d2) and its ``unit_preimages`` are unit lifts.
    """
    return ColumnEchelonSolver(projected_d2(R),
                               units([c // R.n for c in range(R.presentation.num_relators * R.n)]))


@lru_cache(maxsize=None)
def lattice_solver(R: FreeResolution3) -> ColumnEchelonSolver:
    """The echelon solver of ``R.kernel_cols``, the library's lattice generators."""
    return ColumnEchelonSolver(R.kernel_cols)


def in_lattice(R: FreeResolution3, vec: SparseCol) -> bool:
    """Whether a vector of Z^r lies in the lattice ``R.kernel_cols`` spans."""
    try:
        lattice_solver(R).solve_coefficients(vec)
    except NoSolution:
        return False
    return True


def units(labels: Sequence[int]) -> List[SparseCol]:
    """Initial transform columns e_(labels[c]): the coordinate map c -> labels[c]."""
    return [{l: 1} for l in labels]


def full_kernel(R: FreeResolution3) -> List[SparseCol]:
    """A lattice basis of the integer kernel of d2, the columns of d3 flattened."""
    return full_solver(R).kernel_columns()


@dataclass(frozen=True)
class ScanEchelon:
    """The column echelon form ``scan_echelon`` leaves."""

    pivots: List[Tuple[int, int]]  # (row, column index) in elimination order
    cols: List[SparseCol]
    trans: Optional[List[SparseCol]]
    free: List[int]


def scan_echelon(columns: Sequence[SparseCol], nrows: int,
                 transform: Optional[Sequence[SparseCol]] = None) -> ScanEchelon:
    """Column echelon form by scanning every active column at every row.

    The same elimination as ``ColumnEchelonSolver``, which finds the live
    columns of a row in buckets keyed by least row instead.
    """
    cols: List[SparseCol] = [dict(c) for c in columns]
    trans = [dict(t) for t in transform] if transform is not None else None

    def negate(c):
        cols[c] = {i: -x for i, x in cols[c].items()}
        if trans is not None:
            trans[c] = {i: -x for i, x in trans[c].items()}

    active = list(range(len(cols)))
    pivots: List[Tuple[int, int]] = []
    for row in range(nrows):
        live = [c for c in active if row in cols[c]]
        while len(live) > 1:
            c0 = min(live, key=lambda c: (abs(cols[c][row]), len(cols[c]), c))
            if cols[c0][row] < 0:
                negate(c0)
            p = cols[c0][row]
            for c in live:
                q = cols[c][row] // p
                if c != c0 and q:
                    _axpy_sparse(cols[c], cols[c0], -q)
                    if trans is not None:
                        _axpy_sparse(trans[c], trans[c0], -q)
            live = [c for c in live if row in cols[c]]
        if live:
            if cols[live[0]][row] < 0:
                negate(live[0])
            pivots.append((row, live[0]))
            active.remove(live[0])
    if any(cols[c] for c in active):
        raise ConsistencyError("non-pivot column left nonzero after echelon pass")
    return ScanEchelon(pivots, cols, trans, active)


def augment(R: FreeResolution3, vec: SparseCol) -> SparseCol:
    """Image of a flat Z^(r|G|) vector under the augmentation to Z^r."""
    out: SparseCol = {}
    for idx, x in vec.items():
        out[idx // R.n] = out.get(idx // R.n, 0) + x
    return {i: x for i, x in out.items() if x}


def apply_d2_integer(R: FreeResolution3, vec: SparseCol) -> SparseCol:
    """d2 of a flat Z^(r|G|) vector, through ``d2_columns``."""
    cols = d2_columns(R)
    out: SparseCol = {}
    for idx, x in vec.items():
        _axpy_sparse(out, cols[idx], x)
    return out


def validate_endomorphism(R: FreeResolution3, images: Sequence[int]) -> None:
    if len(images) != R.g:
        raise ValueError("one image per generator required")
    if any(evaluate_under(R.group, images, w) != 0 for w in R.presentation.relators):
        raise ValueError("generator images do not satisfy the relators")


def unflatten(R: FreeResolution3, vec: SparseCol) -> List[GroupRingElement]:
    """A flat Z^(r|G|) vector as r group-ring elements (inverse of ``flatten``)."""
    out: List[GroupRingElement] = [dict() for _ in range(R.presentation.num_relators)]
    for idx, x in vec.items():
        out[idx // R.n][idx % R.n] = x
    return out


def flatten(R: FreeResolution3, vec: Sequence[GroupRingElement]) -> SparseCol:
    """A vector of group-ring elements in the flat regular realization."""
    return {j * R.n + e: c for j, a in enumerate(vec) for e, c in a.items()}


def fox_matrix(T: GroupTable, w: Word) -> List[GroupRingElement]:
    """The projected free-group Fox derivatives of w, one per generator."""
    return [project(T, fox_derivative(w, j)) for j in range(T.num_generators)]


def d1_columns(R: FreeResolution3) -> List[SparseCol]:
    """d1(e_j) = x_j - 1 in the regular realization: column j*|G| + h is h x_j - h."""
    cols: List[SparseCol] = []
    for j in range(R.g):
        for h, t in enumerate(R.group.action[j]):
            cols.append({} if t == h else {t: 1, h: -1})
    return cols


@dataclass(frozen=True)
class ChainMap3:
    """A phi-equivariant chain self-map of the resolution through degree 2."""

    images: Tuple[int, ...]
    f1: Tuple[Tuple[GroupRingElement, ...], ...]  # f1[j][t]
    f2: Tuple[Tuple[GroupRingElement, ...], ...]  # f2[target i'][source i]
    tensored_f2: Tuple[Tuple[int, ...], ...]  # rows


def lift_chain_map(R: FreeResolution3, images: Sequence[int],
                   rng: Optional[random.Random] = None) -> ChainMap3:
    """Lift an endomorphism to an equivariant chain map, verifying the squares.

    With ``rng`` given, a random kernel element is added to each degree-2
    solution; any such perturbation is an equally valid lift.
    """
    T = R.group
    validate_endomorphism(R, images)
    phi_elem = [evaluate_under(T, images, w) for w in representative_words(T)]
    f1 = [fox_matrix(T, representative_words(T)[img]) for img in images]
    # target i: f1 applied to d2(e_i), scalars twisted through phi
    targets = []
    for w in R.presentation.relators:
        tgt: List[GroupRingElement] = [dict() for _ in range(R.g)]
        for j, a in enumerate(fox_matrix(T, w)):
            twisted = gr_apply_endo(phi_elem, a)
            for t in range(R.g):
                gr_add_into(tgt[t], gr_mul(T, twisted, f1[j][t]))
        targets.append(tgt)

    # square at degree 1: sum_t f1[j][t] * (x_t - 1) must equal phi(x_j) - 1
    for j in range(R.g):
        out: GroupRingElement = {}
        for t in range(R.g):
            xt = {T.generator_element(t): 1, 0: -1}
            if T.generator_element(t) == 0:
                xt = {}
            gr_add_into(out, gr_mul(T, f1[j][t], xt))
        expected: GroupRingElement = {}
        if images[j] != 0:
            expected = {images[j]: 1, 0: -1}
        if out != expected:
            raise ConsistencyError("degree-1 chain-map square fails")

    kernel = full_kernel(R) if rng is not None else []
    r = R.presentation.num_relators
    f2_cols: List[List[GroupRingElement]] = []
    tensored_rows = [[0] * r for _ in range(r)]
    for i in range(r):
        b = flatten(R, targets[i])
        try:
            x = preimage(full_solver(R), b)
        except NoSolution as exc:
            raise ConsistencyError(
                "degree-2 lifting system unsolvable; exactness is broken") from exc
        if kernel:
            for _ in range(3):
                l = rng.randrange(len(kernel))
                c = rng.randint(-2, 2)
                if c:
                    _axpy_sparse(x, kernel[l], c)
        check = apply_d2_integer(R, x)
        if check != b:
            raise ConsistencyError("degree-2 chain-map square fails after solve")
        col = unflatten(R, x)
        f2_cols.append(col)
        for ip in range(r):
            tensored_rows[ip][i] = gr_augmentation(col[ip])

    f2 = tuple(tuple(f2_cols[i][ip] for i in range(r)) for ip in range(r))
    return ChainMap3(
        images=tuple(images),
        f1=tuple(tuple(row) for row in f1),
        f2=f2,
        tensored_f2=tuple(map(tuple, tensored_rows)),
    )


def induced_h2(cm: ChainMap3, h: FpAbelianGroup) -> H2Matrix:
    """Action of a lifted chain map on H2 in canonical coordinates, as a matrix."""
    factors = h.invariant_factors
    k = len(factors)
    cols = []
    for j in range(k):
        image = mul_vec(cm.tensored_f2, h.generator_cycles[j])
        cols.append(torsion_coordinates(h, image))
    return tuple(
        tuple(cols[j][i] % factors[i] for j in range(k)) for i in range(k)
    )


def torsion_coordinates(h: FpAbelianGroup, cycle: SparseCol) -> Tuple[int, ...]:
    """Torsion residues of a sparse cycle by one solve, residue i in [0, d_i).

    The cycle's coefficients in the echelon basis h's kernel solver solves
    in, times the rows of the Smith transform U at the torsion positions.
    Raises NoSolution if the vector is not a cycle.
    """
    y = h._kernel_solver.solve_coefficients(cycle)
    return tuple(sum(a * b for a, b in zip(row, y)) % d
                 for row, d in zip(h._torsion_rows, h.invariant_factors))


def lifting_target(R: FreeResolution3, images: Sequence[int], i: int) -> SparseCol:
    """Degree-2 lifting target of relator i under an endomorphism, as a dict.

    The first chain-map square sends e_j to the Fox row of phi(x_j)'s
    representative word; the target is that map applied to d2(e_i) with
    scalars twisted through phi.  A letter x_j walks phi(x_j)'s word from
    phi of the prefix before it with +1, a letter x_j^-1 from phi of the
    prefix after it with -1, all into one dict.
    """
    T = R.group
    words = representative_words(T)
    points = R.phi_on_elements(images, i)
    out: SparseCol = {}
    k = 0  # points[k] is phi of the prefix before the run
    for gen, exp in R.presentation.relators[i].letters:
        w = moves(words[images[gen]], R.g)
        if exp > 0:
            for p in points[k:k + exp]:
                _axpy_sparse(out, fox_walk(T, w, p), 1)
        else:
            for p in points[k + 1:k + 1 - exp]:
                _axpy_sparse(out, fox_walk(T, w, p), -1)
        k += abs(exp)
    return out


def induced_h2_by_targets(R: FreeResolution3, h: FpAbelianGroup,
                          images: Sequence[int]) -> H2Matrix:
    """The induced H2 map from dict lifting targets and one solve per lift.

    Each generator cycle z gives the cycle b = sum_i z_i target_i, checked
    by applying d1; the augmented lift is the sum of b's entries times the
    unit lifts, and ``torsion_coordinates`` reads its coordinates.
    """
    factors = h.invariant_factors
    k = len(factors)
    if k == 0:
        return ()
    support = {i for z in h.generator_cycles for i in z}
    targets = {i: lifting_target(R, images, i) for i in support}
    lifts = R.unit_lifts
    cols = []
    for z in h.generator_cycles:
        b: SparseCol = {}
        for i, zi in z.items():
            _axpy_sparse(b, targets[i], zi)
        if R.d1(b.items()):
            raise ConsistencyError("degree-2 lifting target is not a cycle")
        aug: SparseCol = {}
        for row, c in b.items():
            if row in lifts:
                _axpy_sparse(aug, lifts[row], c)
        cols.append(torsion_coordinates(h, aug))
    return tuple(
        tuple(cols[j][i] % factors[i] for j in range(k)) for i in range(k)
    )


Matrix = List[List[int]]  # a dense matrix as its list of rows


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def columns_sparse(A: Sequence[Sequence[int]]) -> List[SparseCol]:
    """The columns of a dense matrix with at least one row as sparse dicts, zeros dropped."""
    return [{i: row[j] for i, row in enumerate(A) if row[j]} for j in range(len(A[0]))]


def from_columns_sparse(cols: Sequence[SparseCol], rows: int) -> Matrix:
    """The dense matrix with the given sparse columns."""
    out = [[0] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            out[i][j] = x
    return out


def mul_vec(A: Sequence[Sequence[int]], v) -> SparseCol:
    """A times a vector given densely or as a sparse dict, as a sparse dict."""
    items = list(v.items() if isinstance(v, dict) else enumerate(v))
    out: SparseCol = {}
    for i, row in enumerate(A):
        x = sum(row[j] * vj for j, vj in items)
        if x:
            out[i] = x
    return out


def mult_row(T: GroupTable, a: int) -> Tuple[int, ...]:
    """Row a of the multiplication table: a * b for every element b."""
    return tuple(T.mult(a, b) for b in range(T.order))


@lru_cache(maxsize=None)
def representative_words(T: GroupTable) -> Tuple[Word, ...]:
    """Each element's tree word: the moves on its path from 0 in ``tree_edges``.

    The edges come in BFS order, so a parent's word is built before its
    children's; move m < g is x_m and move m >= g is x_(m-g)^-1.
    """
    g = T.num_generators
    words = [Word()] * T.order
    for t, parent, move in T.tree_edges:
        words[t] = word_product(words[parent], Word.of([(move % g, 1 if move < g else -1)]))
    return tuple(words)


def word_product(*words: Word) -> Word:
    """The freely reduced product of the words, left to right."""
    return Word.of(letter for w in words for letter in w.letters)


def word_length(w: Word) -> int:
    """Total letter count, the sum of |exponent| over all runs."""
    return sum(abs(e) for _, e in w.letters)


def invariant_factors(snf) -> Tuple[int, ...]:
    """The diagonal entries of a Smith form above 1: the torsion of its cokernel."""
    return tuple(d for d in snf.diagonal if d > 1)


def matmul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> Matrix:
    """The product of two dense matrices, B with at least one row."""
    if any(len(row) != len(B) for row in A):
        raise ValueError("dimension mismatch")
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def is_zero_endo(matrix: H2Matrix) -> bool:
    return all(x == 0 for row in matrix for x in row)


def is_identity_endo(matrix: H2Matrix) -> bool:
    # every invariant factor exceeds 1, so the identity's diagonal is 1
    return all(x == (i == j) for i, row in enumerate(matrix) for j, x in enumerate(row))


def evaluate_under(T: GroupTable, images: Sequence[int], w: Word) -> int:
    """The element w evaluates to when x_j is sent to images[j], letter by letter."""
    acc = 0
    for j, exp in w.letters:
        step = images[j] if exp > 0 else T.inv(images[j])
        for _ in range(abs(exp)):
            acc = T.mult(acc, step)
    return acc


def element_order(T: GroupTable, e: int) -> int:
    """The least k >= 1 with e^k the identity, by repeated multiplication."""
    k, acc = 1, e
    while acc != 0:
        acc = T.mult(acc, e)
        k += 1
    return k


def search_endomorphisms(T: GroupTable) -> List[Tuple[int, ...]]:
    """Every endomorphism, in lexicographic order of images, by a plain search.

    Depth-first over all |G| images of each generator in turn; at every
    node every relator whose generators all have images is evaluated
    again, pure powers included.
    """
    g = T.num_generators
    found: List[Tuple[int, ...]] = []
    images = [0] * g

    def extend(depth: int):
        if depth == g:
            found.append(tuple(images))
            return
        for img in range(T.order):
            images[depth] = img
            if all(evaluate_under(T, images, w) == 0
                   for w in T.presentation.relators if w.max_generator() <= depth):
                extend(depth + 1)

    extend(0)
    return found


def orbit_walk_dedup(T: GroupTable, endos: Sequence[Tuple[int, ...]]
                     ) -> List[Tuple[Tuple[int, ...], int]]:
    """Inner orbits by a walk that conjugates by every generator, central or not.

    Returns (least orbit member, listed members with repetition) pairs
    sorted by representative.
    """
    listed = Counter(endos)
    conj = [[T.mult(T.mult(T.generator_element(j), e), T.inv(T.generator_element(j)))
             for e in range(T.order)] for j in range(T.num_generators)]
    classes = []
    for images in list(listed):
        if images not in listed:
            continue
        orbit = {images}
        frontier = [images]
        while frontier:
            f = frontier.pop()
            for c in conj:
                h = tuple(c[img] for img in f)
                if h not in orbit:
                    orbit.add(h)
                    frontier.append(h)
        classes.append((min(orbit), sum(listed.pop(h, 0) for h in orbit)))
    classes.sort()
    return classes


def is_endomorphism(T: GroupTable, images: Sequence[int]) -> bool:
    return all(evaluate_under(T, images, w) == 0 for w in T.presentation.relators)


def conjugate_endomorphism(T: GroupTable, a: int, f: Tuple[int, ...]) -> Tuple[int, ...]:
    """c_a o f, where c_a is conjugation x -> a x a^-1."""
    ainv = T.inv(a)
    return tuple(T.mult(T.mult(a, img), ainv) for img in f)


def compose(T: GroupTable, outer: Tuple[int, ...], inner: Tuple[int, ...]) -> Tuple[int, ...]:
    """The endomorphism outer o inner."""
    words = representative_words(T)
    return tuple(evaluate_under(T, outer, words[img]) for img in inner)


def compose_h2(outer: H2Matrix, inner: H2Matrix, factors: Sequence[int]) -> H2Matrix:
    """The matrix product outer o inner, row i reduced modulo the invariant factor d_i."""
    k = len(factors)
    return tuple(
        tuple(sum(outer[i][t] * inner[t][j] for t in range(k)) % factors[i] for j in range(k))
        for i in range(k))


def wedge_presentation(P1: Presentation, P2: Presentation) -> Presentation:
    """Presentation of the free product; its complex is the wedge of the two.

    Colliding generator names in the second operand get a numeric suffix.
    """
    names = list(P1.generator_names)
    used = set(names)
    for name in P2.generator_names:
        candidate = name
        suffix = 2
        while candidate in used:
            candidate = f"{name}{suffix}"
            suffix += 1
        names.append(candidate)
        used.add(candidate)
    shift = P1.num_generators
    shifted = tuple(
        Word(tuple((g + shift, e) for g, e in w.letters)) for w in P2.relators
    )
    return Presentation(tuple(names), P1.relators + shifted)
