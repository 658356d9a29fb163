"""Free resolution of the trivial module over the integral group ring.

Builds the presentation-induced resolution F3 -> F2 -> F1 -> F0 -> Z for a
finite group given by its coset table, keeping d3 only through its
augmentation Z^m -> Z^r, computes H2 of the tensored complex and H1 from
the exponent matrix through the one homology routine, computes the map an
endomorphism induces on H2 by solving one lifting system per homology
generator, and provides an independent bar-complex oracle for small
groups.

Group-ring elements are plain dicts {element index: coefficient} with no
zero coefficients stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .coset import GroupTable
from .errors import ConsistencyError, InfiniteGroup, NoSolution, OrderTooLarge
from .presentation import Presentation, Word, exponent_matrix
from .zmatrix import (
    ColumnEchelonSolver,
    FpAbelianGroup,
    SparseCol,
    _axpy_sparse,
    homology_from_sparse,
)

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


def gr_apply_endo(T: GroupTable, phi_elem: Sequence[int], a: GroupRingElement) -> GroupRingElement:
    """Push a group-ring element through an endomorphism given on elements."""
    out: GroupRingElement = {}
    for u, c in a.items():
        w = phi_elem[u]
        s = out.get(w, 0) + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def gr_augmentation(a: GroupRingElement) -> int:
    return sum(a.values())


def project_fox(T: GroupTable, w: Word, j: int) -> GroupRingElement:
    """Fox derivative of w by generator j, projected into the group ring.

    One walk along the prefixes p of w (Fox, Ann. of Math. 57, 1953): a
    letter x_j adds +p before stepping, a letter x_j^-1 steps first and
    then adds -p x_j^-1; other letters only step.
    """
    if not 0 <= j < T.num_generators:
        raise IndexError(f"invalid generator index {j}")
    out: GroupRingElement = {}
    p = 0
    for gen, exp in w.letters:
        step = T.action[gen] if exp > 0 else T.action_inv[gen]
        if gen != j:
            for _ in range(abs(exp)):
                p = step[p]
            continue
        sign = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if sign < 0:
                p = step[p]
            out[p] = out.get(p, 0) + sign
            if sign > 0:
                p = step[p]
    return {e: c for e, c in out.items() if c}


@dataclass(frozen=True)
class H2Endo:
    """Induced endomorphism of H2 in canonical homology coordinates.

    Entry (i, j) is a residue in [0, d_i), the i-th coordinate of the image
    of the j-th torsion generator.
    """

    matrix: Tuple[Tuple[int, ...], ...]
    factors: Tuple[int, ...]

    def trace_residue(self) -> Optional[int]:
        if not self.factors:
            return None
        d1 = self.factors[0]
        return sum(self.matrix[i][i] for i in range(len(self.factors))) % d1

    def compose(self, other: "H2Endo") -> "H2Endo":
        """Matrix product self o other, reduced modulo the invariant factors."""
        k = len(self.factors)
        rows = []
        for i in range(k):
            rows.append(tuple(
                sum(self.matrix[i][t] * other.matrix[t][j] for t in range(k)) % self.factors[i]
                for j in range(k)))
        return H2Endo(tuple(rows), self.factors)


class FreeResolution3:
    """Boundary data of the resolution through degree 3.

    d1(e_j) = x_j - 1;  d2(e_i) is the row of projected Fox derivatives of
    relator i;  the columns of d3 are a lattice basis of the integer kernel
    of d2's regular realization, reinterpreted as group-ring vectors.  Only
    their augmentation is kept: ``kernel_cols`` holds the tensored d3 as
    sparse columns in Z^r, one per kernel basis vector, ``tensored_d2``
    the tensored d2 as r sparse columns in Z^g, and ``_aug_pivot`` the
    augmented echelon transform columns that ``induced_h2_matrix`` reads.
    H2 needs nothing else, since it is the homology of Z (x)_{Z[G]} F.
    """

    def __init__(self, table: GroupTable, presentation: Presentation):
        self.group = table
        self.presentation = presentation
        n = table.order
        g = presentation.num_generators
        r = presentation.num_relators
        self.g, self.r, self.n = g, r, n

        self._fox_rows: Dict[int, List[GroupRingElement]] = {}
        self.d2_group: List[List[GroupRingElement]] = [
            [project_fox(table, presentation.relators[i], j) for j in range(g)]
            for i in range(r)
        ]

        # integer realizations via the regular representation; coordinate
        # (module index, group element) flattens to index*|G| + element
        self.d1_cols: List[SparseCol] = []
        for j in range(g):
            xj = table.generator_element(j)
            for h in range(n):
                col: SparseCol = {}
                t = table.mult(h, xj)
                col[t] = col.get(t, 0) + 1
                col[h] = col.get(h, 0) - 1
                self.d1_cols.append({i: x for i, x in col.items() if x})

        self.d2_cols: List[SparseCol] = []
        for i in range(r):
            row = self.d2_group[i]
            for h in range(n):
                col: SparseCol = {}
                for j in range(g):
                    for t, c in row[j].items():
                        idx = j * n + table.mult(h, t)
                        s = col.get(idx, 0) + c
                        if s:
                            col[idx] = s
                        else:
                            col.pop(idx, None)
                self.d2_cols.append(col)

        self._check_d1_d2()

        # the transform is kept only through the augmentation Z[G]^r -> Z^r,
        # which takes coordinate i*|G| + h to relator i
        self.solver = ColumnEchelonSolver(
            self.d2_cols, g * n, labels=[c // n for c in range(r * n)])
        self.kernel_cols = self.solver.kernel_columns()
        self.m = len(self.kernel_cols)

        if self.solver.rank != g * n - self._d1_rank():
            raise ConsistencyError("resolution is not exact at degree 1")

        # tensored (augmented) d2: column i holds the exponent sums of relator i
        self.tensored_d2: List[SparseCol] = [
            {j: s for j in range(g) if (s := gr_augmentation(self.d2_group[i][j]))}
            for i in range(r)]

        # augmentation of each echelon transform column, for fast induced maps
        self._aug_pivot: List[Tuple[int, ...]] = []
        for p in range(self.solver.rank):
            aug = [0] * r
            for i, x in self.solver.transform_column(p).items():
                aug[i] = x
            self._aug_pivot.append(tuple(aug))

    def _d1_rank(self) -> int:
        """Rank of d1, the incidence matrix of the Cayley graph: n - components.

        Each column is {h * x_j: 1, h: -1}, or empty when x_j is trivial.
        """
        parent = list(range(self.n))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        rank = 0
        for col in self.d1_cols:
            if col:
                a, b = (find(v) for v in col)
                if a != b:
                    parent[a] = b
                    rank += 1
        return rank

    def _check_d1_d2(self):
        for col in self.d2_cols:
            out: SparseCol = {}
            for idx, x in col.items():
                _axpy_sparse(out, self.d1_cols[idx], x)
            if out:
                raise ConsistencyError("d1 o d2 != 0; Fox projection is broken")

    def phi_on_elements(self, images: Sequence[int]) -> List[int]:
        """Extend generator images to the whole group along the BFS spanning tree.

        phi(parent * x) = phi(parent) * phi(x), so any spanning tree works.
        """
        T = self.group
        steps = list(images) + [T.inv(img) for img in images]
        out = [0] * self.n
        for t, parent, move in T.tree_edges:
            out[t] = T.mult(out[parent], steps[move])
        return out

    def fox_row(self, e: int) -> List[GroupRingElement]:
        """Projected Fox derivatives of e's representative word, by generator.

        Cached per element; callers must not mutate the returned dicts.
        """
        row = self._fox_rows.get(e)
        if row is None:
            w = self.group.representative_words[e]
            row = self._fox_rows[e] = [project_fox(self.group, w, t) for t in range(self.g)]
        return row

    def lifting_targets(self, images: Sequence[int], phi_elem: Sequence[int],
                        relators: Sequence[int]) -> Dict[int, List[GroupRingElement]]:
        """Degree-2 lifting targets of an endomorphism, keyed by relator index.

        The first chain-map square is f1[j][t] = projected Fox derivative of
        the representative word of phi(x_j) by x_t;  target[i] in Z[G]^g is
        f1 applied, with scalars twisted through phi, to d2(e_i).  Targets
        are built for the given relators only.
        """
        T = self.group
        g = self.g
        f1 = [self.fox_row(img) for img in images]
        targets: Dict[int, List[GroupRingElement]] = {}
        for i in relators:
            tgt: List[GroupRingElement] = [dict() for _ in range(g)]
            for j in range(g):
                twisted = gr_apply_endo(T, phi_elem, self.d2_group[i][j])
                for t in range(g):
                    if f1[j][t]:
                        gr_add_into(tgt[t], gr_mul(T, twisted, f1[j][t]))
            targets[i] = tgt
        return targets

    def _flatten_module_vec(self, vec: Sequence[GroupRingElement]) -> SparseCol:
        out: SparseCol = {}
        for idx, a in enumerate(vec):
            for e, c in a.items():
                out[idx * self.n + e] = c
        return out


def build_resolution(T: GroupTable, P: Presentation) -> FreeResolution3:
    if T.presentation is not P and T.presentation != P:
        raise ValueError("the table was not enumerated from this presentation")
    return FreeResolution3(T, P)


def h2_of_group(R: FreeResolution3) -> FpAbelianGroup:
    """H2 of the tensored complex Z^m -> Z^r -> Z^g, with its generator cycles."""
    return homology_from_sparse(R.kernel_cols, R.tensored_d2, R.r, R.g)


def h1_of_group(P: Presentation) -> FpAbelianGroup:
    """The abelianization Z^g / (span of the exponent rows).

    Row i of the exponent matrix is the tensored d2 of relator i, so this is
    H1 of the tensored complex, taken by the one homology routine with the
    zero map Z^g -> 0 below; it needs no enumeration.
    """
    g = P.num_generators
    rows = [{j: x for j, x in enumerate(row) if x} for row in exponent_matrix(P)]
    return homology_from_sparse(rows, [{}] * g, g, 0)


def finite_h1(P: Presentation) -> FpAbelianGroup:
    """H1 of a group about to be enumerated; InfiniteGroup if it has free rank.

    A free summand means no coset enumeration can close, so every command
    that enumerates calls this first.
    """
    h1 = h1_of_group(P)
    if h1.free_rank:
        raise InfiniteGroup(h1.free_rank)
    return h1


def induced_h2_matrix(R: FreeResolution3, h: FpAbelianGroup, images: Sequence[int]) -> H2Endo:
    """Induced H2 map of an endomorphism in canonical coordinates.

    Solves one lifting system per homology generator, not the full chain
    map, and reads off the augmentation through the precomputed echelon
    transform.
    """
    factors = h.invariant_factors
    k = len(factors)
    if k == 0:
        return H2Endo((), ())
    # only relators in the support of some generator cycle feed the solves
    support = sorted({i for z in h.generator_cycles for i, zi in enumerate(z) if zi})
    phi_elem = R.phi_on_elements(images)
    targets = R.lifting_targets(images, phi_elem, support)
    flat_targets = {i: R._flatten_module_vec(t) for i, t in targets.items()}
    cols = []
    for j in range(k):
        z = h.generator_cycles[j]
        b: SparseCol = {}
        for i, zi in enumerate(z):
            if zi:
                _axpy_sparse(b, flat_targets[i], zi)
        try:
            y = R.solver.solve_coefficients(b)
        except NoSolution as exc:
            raise ConsistencyError(
                "degree-2 lifting system unsolvable; exactness is broken") from exc
        aug = [0] * R.r
        for t, augcol in zip(y, R._aug_pivot):
            if t:
                for ip in range(R.r):
                    aug[ip] += t * augcol[ip]
        cols.append(h.torsion_coordinates(aug))
    matrix = tuple(
        tuple(cols[j][i] % factors[i] for j in range(k)) for i in range(k)
    )
    return H2Endo(matrix, factors)


ORACLE_CAP = 16


def h2_via_bar_complex(T: GroupTable) -> FpAbelianGroup:
    """Independent oracle: H2 from the normalized bar complex.

    Chains live on tuples of non-identity elements; tuples acquiring an
    identity coordinate under the simplicial boundary are dropped.  Only
    groups of order at most ``ORACLE_CAP`` are accepted.
    """
    n = T.order
    if n > ORACLE_CAP:
        raise OrderTooLarge(f"group order {n} exceeds the oracle cap {ORACLE_CAP}")
    nz = n - 1  # non-identity elements are 1..n-1; index e-1

    def c2_index(a: int, b: int) -> int:
        return (a - 1) * nz + (b - 1)

    lo_cols: List[SparseCol] = []
    for a in range(1, n):
        for b in range(1, n):
            col: SparseCol = {}
            ab = T.mult(a, b)
            for e, s in ((b, 1), (ab, -1), (a, 1)):
                if e != 0:
                    v = col.get(e - 1, 0) + s
                    if v:
                        col[e - 1] = v
                    else:
                        col.pop(e - 1, None)
            lo_cols.append(col)

    hi_cols: List[SparseCol] = []
    for a in range(1, n):
        for b in range(1, n):
            ab = T.mult(a, b)
            for c in range(1, n):
                bc = T.mult(b, c)
                col: SparseCol = {}
                for pair, s in (((b, c), 1), ((ab, c), -1), ((a, bc), 1), ((a, b), -1)):
                    if pair[0] != 0 and pair[1] != 0:
                        i = c2_index(*pair)
                        v = col.get(i, 0) + s
                        if v:
                            col[i] = v
                        else:
                            col.pop(i, None)
                hi_cols.append(col)

    return homology_from_sparse(hi_cols, lo_cols, nz * nz, nz)
