"""Free resolution of the trivial module over the integral group ring.

Builds the presentation-induced resolution F3 -> F2 -> F1 -> F0 -> Z for a
finite group given by its coset table, computes degree-2 homology with
coordinate data, lifts group endomorphisms to equivariant chain maps, and
provides an independent bar-complex oracle for small groups.

Group-ring elements are plain dicts {element index: coefficient} with no
zero coefficients stored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .coset import GroupTable
from .errors import ConsistencyError, NoSolution, OrderTooLarge
from .presentation import Presentation, Word, fox_derivative
from .zmatrix import (
    ColumnEchelonSolver,
    FpAbelianGroup,
    SparseCol,
    ZMatrix,
    _axpy_sparse,
    homology_from_sparse,
    homology_of_pair,
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
    """Fox derivative of w by generator j, projected into the group ring."""
    fd = fox_derivative(w, j, T.num_generators)
    out: GroupRingElement = {}
    for word, coeff in fd.terms:
        e = T.apply_word(0, word)
        s = out.get(e, 0) + coeff
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


@dataclass(frozen=True)
class H2Data:
    """Degree-2 homology of the tensored resolution with coordinate data."""

    group: FpAbelianGroup
    generator_cycles: Tuple[Tuple[int, ...], ...]  # one ambient cycle in Z^r per factor

    @property
    def invariant_factors(self) -> Tuple[int, ...]:
        return self.group.invariant_factors


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

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.matrix)

    def is_identity(self) -> bool:
        return all(
            self.matrix[i][j] == (1 % self.factors[i] if i == j else 0)
            for i in range(len(self.factors))
            for j in range(len(self.factors))
        )

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
    of d2's regular realization, reinterpreted as group-ring vectors.
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

        self.solver = ColumnEchelonSolver(self.d2_cols, g * n, transform=True)
        self.kernel_cols = self.solver.kernel_columns()
        self.m = len(self.kernel_cols)

        d1_rank = ColumnEchelonSolver(self.d1_cols, n, transform=False).rank
        if self.solver.rank != g * n - d1_rank:
            raise ConsistencyError("resolution is not exact at degree 1")

        # tensored (augmented) complex Z^m -> Z^r -> Z^g
        self.tensored_d2 = ZMatrix.from_rows(
            [[gr_augmentation(self.d2_group[i][j]) for i in range(r)] for j in range(g)],
            cols=r)
        t3_rows = [[0] * self.m for _ in range(r)]
        for l, col in enumerate(self.kernel_cols):
            for idx, x in col.items():
                t3_rows[idx // n][l] += x
        self.tensored_d3 = ZMatrix.from_rows(t3_rows, cols=self.m)

        # augmentation of each echelon transform column, for fast induced maps
        self._aug_pivot: List[Tuple[int, ...]] = []
        for p in range(self.solver.rank):
            aug = [0] * r
            for idx, x in self.solver.transform_column(p).items():
                aug[idx // n] += x
            self._aug_pivot.append(tuple(aug))

    def _check_d1_d2(self):
        for col in self.d2_cols:
            out: SparseCol = {}
            for idx, x in col.items():
                _axpy_sparse(out, self.d1_cols[idx], x)
            if out:
                raise ConsistencyError("d1 o d2 != 0; Fox projection is broken")

    def d3_group_column(self, l: int) -> List[GroupRingElement]:
        """Column l of d3 as a vector of group-ring elements over Z[G]^r."""
        n = self.n
        out: List[GroupRingElement] = [dict() for _ in range(self.r)]
        for idx, x in self.kernel_cols[l].items():
            out[idx // n][idx % n] = x
        return out

    def apply_d2_integer(self, vec: SparseCol) -> SparseCol:
        out: SparseCol = {}
        for idx, x in vec.items():
            _axpy_sparse(out, self.d2_cols[idx], x)
        return out

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

    def validate_endomorphism(self, images: Sequence[int]) -> None:
        T = self.group
        if len(images) != self.g:
            raise ValueError("one image per generator required")
        for w in self.presentation.relators:
            acc = 0
            for j, exp in w.letters:
                t = images[j] if exp > 0 else T.inv(images[j])
                for _ in range(abs(exp)):
                    acc = T.mult(acc, t)
            if acc != 0:
                raise ValueError("generator images do not satisfy the relators")

    def _f1_and_targets(self, images: Sequence[int], phi_elem: Sequence[int],
                        relators: Sequence[int]):
        """First chain-map square and the degree-2 lifting targets.

        f1[j][t] = projected Fox derivative of the representative word of
        phi(x_j) by x_t;  target[i] in Z[G]^g is f1 applied, with scalars
        twisted through phi, to d2(e_i).  Targets are built for the given
        relators only, keyed by relator index.
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
        return f1, targets

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


def tensor_trivial(R: FreeResolution3) -> Tuple[ZMatrix, ZMatrix]:
    """The tensored chain complex Z^m -> Z^r -> Z^g as (degree-3, degree-2) maps."""
    return R.tensored_d3, R.tensored_d2


def h2_of_group(R: FreeResolution3) -> H2Data:
    group = homology_of_pair(R.tensored_d3, R.tensored_d2, coordinates=True)
    cycles = tuple(
        tuple(group.torsion_generator_cycle(i))
        for i in range(len(group.invariant_factors))
    )
    return H2Data(group=group, generator_cycles=cycles)


def h1_of_group(R: FreeResolution3) -> FpAbelianGroup:
    """Degree-1 homology of the tensored complex (the abelianization)."""
    zero = ZMatrix.zero(0, R.g)
    return homology_of_pair(R.tensored_d2, zero, coordinates=False)


@dataclass(frozen=True)
class ChainMap3:
    """A phi-equivariant chain self-map of the resolution through degree 2."""

    images: Tuple[int, ...]
    f1: Tuple[Tuple[GroupRingElement, ...], ...]  # f1[j][t]; the cached fox_row dicts, read-only
    f2: Tuple[Tuple[GroupRingElement, ...], ...]  # f2[target i'][source i]
    tensored_f2: ZMatrix


def lift_chain_map(R: FreeResolution3, images: Sequence[int],
                   rng: Optional[random.Random] = None) -> ChainMap3:
    """Lift an endomorphism to an equivariant chain map, verifying the squares.

    With ``rng`` given, a random kernel element is added to each degree-2
    solution; any such perturbation is an equally valid lift.
    """
    T = R.group
    R.validate_endomorphism(images)
    phi_elem = R.phi_on_elements(images)
    f1, targets = R._f1_and_targets(images, phi_elem, range(R.r))

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

    f2_cols: List[List[GroupRingElement]] = []
    tensored_rows = [[0] * R.r for _ in range(R.r)]
    for i in range(R.r):
        b = R._flatten_module_vec(targets[i])
        try:
            x = R.solver.solve(b)
        except NoSolution as exc:
            raise ConsistencyError(
                "degree-2 lifting system unsolvable; exactness is broken") from exc
        if rng is not None and R.m:
            for _ in range(3):
                l = rng.randrange(R.m)
                c = rng.randint(-2, 2)
                if c:
                    _axpy_sparse(x, R.kernel_cols[l], c)
        check = R.apply_d2_integer(x)
        if check != b:
            raise ConsistencyError("degree-2 chain-map square fails after solve")
        col: List[GroupRingElement] = [dict() for _ in range(R.r)]
        for idx, v in x.items():
            col[idx // R.n][idx % R.n] = v
        f2_cols.append(col)
        for ip in range(R.r):
            tensored_rows[ip][i] = gr_augmentation(col[ip])

    f2 = tuple(tuple(f2_cols[i][ip] for i in range(R.r)) for ip in range(R.r))
    return ChainMap3(
        images=tuple(images),
        f1=tuple(tuple(row) for row in f1),
        f2=f2,
        tensored_f2=ZMatrix.from_rows(tensored_rows, cols=R.r),
    )


def induced_h2(cm: ChainMap3, h: H2Data) -> H2Endo:
    """Action of a lifted chain map on H2 in canonical coordinates."""
    factors = h.invariant_factors
    k = len(factors)
    cols = []
    for j in range(k):
        image = cm.tensored_f2.mul_vec(list(h.generator_cycles[j]))
        cols.append(h.group.torsion_coordinates(image))
    matrix = tuple(
        tuple(cols[j][i] % factors[i] for j in range(k)) for i in range(k)
    )
    return H2Endo(matrix, factors)


def induced_h2_matrix(R: FreeResolution3, h: H2Data, images: Sequence[int]) -> H2Endo:
    """Induced H2 map of an endomorphism without materializing the full lift.

    Solves one lifting system per homology generator and reads off the
    augmentation through the precomputed echelon transform.
    """
    factors = h.invariant_factors
    k = len(factors)
    if k == 0:
        return H2Endo((), ())
    # only relators in the support of some generator cycle feed the solves
    support = sorted({i for z in h.generator_cycles for i, zi in enumerate(z) if zi})
    phi_elem = R.phi_on_elements(images)
    _, targets = R._f1_and_targets(images, phi_elem, support)
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
        cols.append(h.group.torsion_coordinates(aug))
    matrix = tuple(
        tuple(cols[j][i] % factors[i] for j in range(k)) for i in range(k)
    )
    return H2Endo(matrix, factors)


def h2_via_bar_complex(T: GroupTable, cap: int = 16) -> FpAbelianGroup:
    """Independent oracle: H2 from the normalized bar complex.

    Chains live on tuples of non-identity elements; tuples acquiring an
    identity coordinate under the simplicial boundary are dropped.
    """
    n = T.order
    if n > cap:
        raise OrderTooLarge(f"group order {n} exceeds the oracle cap {cap}")
    if n == 1:
        return FpAbelianGroup(0, (), 0)
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

    return homology_from_sparse(hi_cols, lo_cols, nz * nz, nz, coordinates=False)
