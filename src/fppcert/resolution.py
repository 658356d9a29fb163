"""Free resolution of the trivial module over the integral group ring.

Builds the presentation-induced resolution F3 -> F2 -> F1 -> F0 -> Z for a
finite group given by its coset table, keeping d3 only through its
augmentation Z^m -> Z^r, computes H2 of the tensored complex and H1 from
the exponent matrix through the one homology routine, computes the map an
endomorphism induces on H2 by reading residues off a table the caller
builds once per H2, and provides an independent bar-complex oracle for
small groups.

A free module Z[G]^k lives in one realization, the regular one: the
coordinate (j, e) of module index j and group element e is j*|G| + e, and
vectors are sparse dicts {coordinate: coefficient} with no zeros stored.
The one Z[G] operation is ``fox_walk``: it returns h times the projected
Fox row of a word, walked from h, and it builds the columns of d2.

H2 and the lifts are read off pi d2, d2 without the n - 1 rows of C1 on
the BFS spanning tree, Reidemeister-Schreier rewriting in matrix form
(Magnus, Karrass and Solitar, *Combinatorial Group Theory*, section 2.3): a
nonzero cycle cannot lie in a tree, so deleting those rows keeps the kernel
of d2, and a cycle b is d2 x exactly when the two agree off the tree.  pi d2
is then onto the non-tree rows, so the augmented preimages of their unit
vectors, the unit lifts, are a degree-1 contracting homotopy read through
the augmentation (Ellis, "Computing group resolutions", J. Symbolic Comput.
38, 2004): the lift of a cycle b is the sum of b's entries times those
preimages, with no solve.  H2 needs only the lattice epsilon(ker d2) in
Z^r.  ``fill_cells`` deduces both from the distinct 2-cells of the Cayley
complex, the columns of pi d2, as coset enumeration deduces table entries;
only the cells it cannot deduce go to an echelon solver, on their own rows.

The induced map does not depend on the chain map chosen (Brown,
*Cohomology of Groups*, GTM 87, ch. I.7), and its coordinates are linear
in the lift, so each preimage is kept only as its residues in H2's
coordinates, and each lifting target, a sum of Fox walks of
representative words, only as the residues of those walks (``ResidueRows``).
By Fox's fundamental formula, d1 of the walk of w from p is e_(p w) - e_p
(Fox, Ann. of Math. 57, 1953), so a target is a cycle exactly when phi
closes its relator; that is checked on every lift.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coset import GroupTable, moves
from .errors import ConsistencyError, NoSolution, OrderTooLarge
from .presentation import Presentation, Word, exponent_matrix
from .zmatrix import (
    ColumnEchelonSolver,
    FpAbelianGroup,
    SparseCol,
    _axpy_sparse,
    homology_from_sparse,
)

# an induced H2 map: row c holds the c-th coordinates of the images of the
# torsion generators, residues in [0, d_c); () for a trivial H2
H2Matrix = Tuple[Tuple[int, ...], ...]


def fox_walk(T: GroupTable, mv: Sequence[int], h: int) -> SparseCol:
    """h times the flat row of projected Fox derivatives of a word, zeros dropped.

    ``mv`` is the word written out by ``coset.moves``, one move per letter:
    x_j is j and x_j^-1 is g + j.  One walk along the prefixes p of the
    word started at h, so p runs over h times the prefixes (Fox, Ann. of
    Math. 57, 1953): a move x_j adds +1 at coordinate j*|G| + p and then
    steps, a move x_j^-1 steps first and then adds -1 there.  Starting at h
    rather than at the identity is left translation by h.
    """
    n, g = T.order, T.num_generators
    steps = T.steps
    out: SparseCol = {}
    p = h
    for move in mv:
        if move < g:
            k = move * n + p
            out[k] = out.get(k, 0) + 1
            p = steps[move][p]
        else:
            p = steps[move][p]
            k = (move - g) * n + p
            out[k] = out.get(k, 0) - 1
    return {k: c for k, c in out.items() if c}


def _walk_starts(T: GroupTable, w: Word) -> Sequence[int]:
    """The least h of each orbit of h -> h u, in order, for u the root of w.

    u is ``w.root()``, the shortest word with w = u^k on w's runs.  The walks
    of w from h and h u are one column.  u's permutation is its
    ``GroupTable._word_action``, off the generator actions alone.
    """
    root, k = w.root()
    if k == 1:
        return range(T.order)  # u = w is the identity: every orbit is a point
    u = T._word_action(root)  # u[h] is h u
    seen, starts = [False] * T.order, []
    for h in range(T.order):
        if not seen[h]:
            starts.append(h)
            p = h
            while not seen[p]:
                seen[p] = True
                p = u[p]
    return starts


def exponent_columns(P: Presentation) -> List[SparseCol]:
    """Exponent sums of each relator as sparse columns in Z^g.

    Column i is the tensored d2 of relator i: the augmentation of its
    projected Fox derivatives.
    """
    return [{j: x for j, x in enumerate(row) if x} for row in exponent_matrix(P)]


def fill_cells(cells: Sequence[Tuple[int, SparseCol]]
               ) -> Tuple[List[SparseCol], Dict[int, SparseCol]]:
    """Distinct generators of the lattice epsilon(ker d2) in Z^r, and the unit lifts.

    Cell c is (i, A_c): column c of pi d2, and the relator i that its basis
    vector e_c augments to; the cells are distinct.  A unit lift L(e)
    is the augmentation of some x_e with pi d2 x_e = e_e; edge e is known
    once L(e) is set.  For any such choice, each cell gives the lattice
    vector v_c = e_i - sum_e A_(e,c) L(e): it is the augmentation of
    e_c - sum_e A_(e,c) x_e, which lies in ker pi d2 = ker d2, and for k in
    ker d2, sum_c k_c v_c = epsilon(k), so the v_c span the lattice.

    Cells with at most one unknown edge are queued, as coset enumeration
    queues deductions (the modified Todd-Coxeter method; Neubueser, "An
    elementary introduction to coset table methods", 1982).  A cell whose
    one unknown edge e has coefficient a = +-1 sets
    L(e) = a (e_i - sum over its known edges of A L), and its own v_c is 0;
    a cell with no unknown edge gives its v_c.  A cell whose unknown edge
    has a coefficient of absolute value 2 or more waits until the edge is
    known.

    The cells left over are the only ones with an entry on an unknown edge,
    so, pi d2 being onto the non-tree rows, they map onto the unknown rows
    by themselves.  One ``ColumnEchelonSolver`` on them, restricted to those
    rows, which it reads off them, with transform column c starting at the
    cell's known part e_i - sum of the known A L, gives the other
    generators as its kernel columns and the other lifts as its
    ``unit_preimages``.  Raises ConsistencyError if the left cells do not
    map onto those rows with unit pivots; an edge in no cell gets no lift.
    Each nonzero v_c is kept once.
    """
    unknown = [len(col) for _, col in cells]
    cells_at: Dict[int, List[int]] = {}  # edge -> the cells it occurs in
    for c, (_, col) in enumerate(cells):
        for e in col:
            cells_at.setdefault(e, []).append(c)
    lifts: Dict[int, SparseCol] = {}
    lattice: List[SparseCol] = []
    done = [False] * len(cells)

    def known_part(i: int, col: SparseCol) -> SparseCol:
        acc = {i: 1}
        for e, a in col.items():
            if e in lifts:
                _axpy_sparse(acc, lifts[e], -a)
        return acc

    queue = [c for c, k in enumerate(unknown) if k <= 1]
    for c in queue:  # the queue grows as edges become known
        if done[c]:
            continue
        i, col = cells[c]
        acc = known_part(i, col)
        if unknown[c] == 0:
            done[c] = True
            if acc:
                lattice.append(acc)
            continue
        e, a = next((e, a) for e, a in col.items() if e not in lifts)
        if a not in (1, -1):
            continue  # requeued once e is known
        done[c] = True
        lifts[e] = acc if a == 1 else {j: -v for j, v in acc.items()}
        for c2 in cells_at[e]:
            unknown[c2] -= 1
            if unknown[c2] <= 1 and not done[c2]:
                queue.append(c2)

    rest = [c for c in range(len(cells)) if not done[c]]
    if rest:
        solver = ColumnEchelonSolver(
            [{e: a for e, a in cells[c][1].items() if e not in lifts} for c in rest],
            [known_part(*cells[c]) for c in rest])
        try:
            lifts.update(solver.unit_preimages())
        except NoSolution as exc:
            raise ConsistencyError(
                "pi d2 is not onto the non-tree rows; exactness is broken") from exc
        lattice += [v for v in solver.kernel_columns() if v]
    return list({frozenset(v.items()): v for v in lattice}.values()), lifts


class FreeResolution3:
    """Boundary data of the resolution through degree 3, in the regular realization.

    ``FreeResolution3(table)`` reads the presentation off the table:
    ``presentation`` is ``table.presentation``.  A vector of Z[G]^k is a
    sparse dict over the coordinates j*|G| + e (module index j, group
    element e).  d1(e_j) = x_j - 1 is applied on the fly: coordinate
    (j, h) goes to h x_j - h.  d2 has r|G| columns in Z^(g|G|): column
    i*|G| + h is h times the flat row of projected Fox derivatives of
    relator i, the ``fox_walk`` of relator i from h.  The walks of u^k from
    h and from h u are one column, so relator i is walked from one h per
    orbit of h -> h u, u its root (``_walk_starts``), and the 2-cells are
    the distinct (relator, column) pairs, each checked for d1 o d2 = 0, cut
    to pi and filled once; the build reads no table column.  ``d2_cols``
    holds each cell's column once, uncut, in the order of the fill; the
    library does not read it back.  pi deletes the rows of the spanning
    tree in ``GroupTable.tree_edges``; pi is injective on the cycles, so
    pi d2 has the kernel of d2.  ``fill_cells`` deduces
    from the cells of pi d2 ``unit_lifts``, row -> the augmentation of an x
    with pi d2 x = e_row for every non-tree row, and ``kernel_cols``, ``m``
    distinct sparse columns in Z^r that generate the lattice
    epsilon(ker d2), the image of the tensored d3.  A tree row has no unit
    lift and counts as zero: the sum of b_row times the unit lifts over the
    rows of a cycle b is the augmentation of a solution of d2 x = b.  With
    the tensored d2, the presentation's ``exponent_columns``, H2 needs
    nothing else, since it is the homology of Z (x)_{Z[G]} F.  The
    induced maps need only the unit lifts, read in the coordinates of one
    H2 by the ``ResidueRows`` the caller builds for it; the resolution
    keeps no state past its construction.  The Fox walks and the lift read
    relator i's letters only as ``moves[i]``, one ``coset.moves`` entry
    per letter.
    """

    def __init__(self, table: GroupTable):
        self.group = table
        self.presentation = presentation = table.presentation
        n, g = table.order, presentation.num_generators
        self.g, self.n = g, n
        self.moves = [moves(w, g) for w in presentation.relators]

        # the rows of the BFS tree edges: x_j from parent to t is row
        # j*|G| + parent, and an inverse move, t x_j = parent, row j*|G| + t
        tree = frozenset((move % g) * n + (parent if move < g else t)
                         for t, parent, move in table.tree_edges)
        d2_cols: List[SparseCol] = []
        cells: List[Tuple[int, SparseCol]] = []
        for i, w in enumerate(presentation.relators):
            # each distinct walk of relator i once, keyed by its (edge, coefficient) pairs
            walks = (fox_walk(table, self.moves[i], h) for h in _walk_starts(table, w))
            for pairs, col in {frozenset(c.items()): c for c in walks}.items():
                if self.d1(pairs):
                    raise ConsistencyError("d1 o d2 != 0; Fox projection is broken")
                d2_cols.append(col)
                cells.append((i, {e: a for e, a in pairs if e not in tree}))
        self.d2_cols = d2_cols
        self.kernel_cols, self.unit_lifts = fill_cells(cells)
        self.m = len(self.kernel_cols)
        # the table is transitive, so the Cayley graph is connected and d1,
        # its incidence matrix, has rank n - 1: pi d2 must be onto the rest
        if len(self.unit_lifts) != g * n - (n - 1):
            raise ConsistencyError("resolution is not exact at degree 1")

    def d1(self, vec: Iterable[Tuple[int, int]]) -> SparseCol:
        """d1 of the (coordinate, coefficient) pairs of a vector of Z[G]^g: (j, h) to h x_j - h."""
        n = self.n
        action = self.group.action
        out: SparseCol = {}
        for idx, c in vec:
            j, h = divmod(idx, n)
            t = action[j][h]
            out[t] = out.get(t, 0) + c
            out[h] = out.get(h, 0) - c
        return {e: c for e, c in out.items() if c}

    def phi_on_elements(self, images: Sequence[int], i: int) -> List[int]:
        """phi of the prefixes of relator i, walked under the images.

        Point k is phi(p_k) for p_k the first k letters of relator i, so the
        list starts at the identity and, since the relator holds, ends there.
        Each of ``moves[i]`` is a lookup in one of the 2g columns taken per call.
        """
        T = self.group
        column, inverse = T.column, T.inverse
        # plain loops: a lift is a few dozen steps, and a comprehension
        # would cost a call frame of its own
        steps = []
        for b in images:
            steps.append(column(b))
        for b in images:
            steps.append(column(inverse[b]))
        acc = 0
        points = [acc]
        for move in self.moves[i]:
            acc = steps[move][acc]
            points.append(acc)
        return points


class ResidueRows:
    """The lift of every lifting target of R, read in the coordinates of H2 = h.

    ``resolution`` and ``homology`` are R and h: ``induced_h2_set`` builds
    one table per H2 and reads every induced map off it.

    ``unit_residues[i][row]`` is V[row] = M L(row) mod d at torsion factor
    i, for L the ``unit_lifts`` and M the ``coordinate_rows`` of h, over the
    g|G| rows of C1; a tree row counts as zero.  The lift of a cycle b of C1
    is sum_row b_row L(row), so its coordinates are sum_row b_row V[row]
    mod d.

    ``row(a)`` holds, for each torsion factor and each element p, the
    residue sum of the Fox walk of a's tree word from p, the word of the
    moves on the tree path from 0 to a.  Since the tree word of t is the
    tree word of parent followed by s along each tree edge (t, parent, s),
    row t is row parent plus the step s taken from q = p*parent: +V at row
    j*|G| + q for s = x_j, and -V at row j*|G| + q x_j^-1 for s = x_j^-1.
    A row is built on first use, with its tree ancestors, so only the
    images that occur cost a row.  ``support`` lists the relators in the
    support of h's generator cycles.  Each of their letters is read off the
    relator's ``moves`` as (generator, index into ``phi_on_elements``,
    sign): move k = x_j reads prefix k with +1, and move k = x_j^-1 prefix
    k + 1 with -1.  ``generators`` are the generators those letters use.
    ``terms`` folds each generator cycle z into the letters once per
    table: one flat list of (slot, generator, prefix index, z_i * sign)
    over the letters of every relator i of z, slot being i's position in
    ``support``, so a lift reads no cycle and no letter.
    """

    def __init__(self, R: FreeResolution3, h: FpAbelianGroup):
        T, n, g = R.group, R.n, R.g
        self.resolution = R
        self.homology = h
        units = R.unit_lifts
        self.unit_residues: List[List[int]] = []
        for m, d in zip(h.coordinate_rows(), h.invariant_factors):
            res = [0] * (g * n)
            for row, lift in units.items():
                res[row] = sum([m.get(e, 0) * x for e, x in lift.items()]) % d
            self.unit_residues.append(res)
        # steps[move][i][q]: residue i of the one-letter walk of move from q
        self._steps = [tuple(res[move * n:(move + 1) * n] for res in self.unit_residues)
                       for move in range(g)]
        self._steps += [tuple([-res[j * n + p] for p in T.action_inv[j]]
                              for res in self.unit_residues)
                        for j in range(g)]
        self.rows: Dict[int, Tuple[List[int], ...]] = {
            0: tuple([0] * n for _ in self.unit_residues)}

        self.support = sorted({i for z in h.generator_cycles for i in z})
        letters = {
            i: [(m, k, 1) if m < g else (m - g, k + 1, -1) for k, m in enumerate(R.moves[i])]
            for i in self.support}
        self.generators = sorted({gen for out in letters.values() for gen, _, _ in out})
        slot = {i: s for s, i in enumerate(self.support)}
        self.terms: List[List[Tuple[int, int, int, int]]] = [
            [(slot[i], gen, at, zi * sign) for i, zi in z.items() for gen, at, sign in letters[i]]
            for z in h.generator_cycles]

    def row(self, a: int) -> Tuple[List[int], ...]:
        """Per torsion factor, the residues of the walks of a's word from every p."""
        rows = self.rows
        T = self.resolution.group
        path = []
        t = a
        # the tree discovers 1, ..., n-1 in order: edge t - 1 discovered t
        while t not in rows:
            path.append(t)
            t = T.tree_edges[t - 1][1]
        for t in reversed(path):
            _, parent, move = T.tree_edges[t - 1]
            col = T.column(parent)
            rows[t] = tuple([w + s[q] for w, q in zip(prev, col)]
                            for prev, s in zip(rows[parent], self._steps[move]))
        return rows[a]


def build_resolution(T: GroupTable) -> FreeResolution3:
    """The resolution of the group of T, from the presentation T was enumerated from."""
    return FreeResolution3(T)


def h2_of_group(R: FreeResolution3) -> FpAbelianGroup:
    """H2 of the tensored complex Z^m -> Z^r -> Z^g, with its generator cycles."""
    return homology_from_sparse(R.kernel_cols, exponent_columns(R.presentation))


def h1_of_group(P: Presentation) -> FpAbelianGroup:
    """The abelianization Z^g / (span of the exponent columns).

    The exponent columns are the tensored d2, so this is H1 of the tensored
    complex, taken by the one homology routine with the zero map Z^g -> 0
    below; it needs no enumeration.
    """
    return homology_from_sparse(exponent_columns(P), [{}] * P.num_generators)


def induced_h2_matrix(table: ResidueRows, images: Sequence[int]) -> H2Matrix:
    """Induced H2 map of an endomorphism, in the canonical coordinates of table's H2.

    Only the relators in the support of the generator cycles are lifted.
    The lifting target of relator i walks, for each letter x_j, the
    representative word of phi(x_j) from phi of the prefix before it with
    +1, and for each letter x_j^-1 from phi of the prefix after it with -1;
    so the coordinates of its lift are the sum over the letters of those
    signs times ``ResidueRows.row(phi(x_j))`` at those prefixes, and entry
    (c, j) is the sum of z_ji times the lift of relator i, mod d_c.  The
    table's ``terms`` hold that double sum folded flat, so a call walks
    phi of each support relator's prefixes once, takes one row per image
    of ``table.generators``, and makes one accumulate over cycle j's terms
    per torsion factor, in plain loops.  By Fox's fundamental formula d1 of
    the target is e_(phi(r_i)) - e_1, so each relator's prefixes must close
    at the identity; ConsistencyError otherwise.  No vector is built and no
    system is solved per endomorphism.
    """
    R = table.resolution
    points = []
    for i in table.support:
        walk = R.phi_on_elements(images, i)
        if walk[-1] != 0:
            raise ConsistencyError("degree-2 lifting target is not a cycle")
        points.append(walk)
    rows = {}
    for gen in table.generators:
        rows[gen] = table.row(images[gen])
    factors = table.homology.invariant_factors
    matrix = []
    for c, d in enumerate(factors):
        entries = []
        for terms in table.terms:
            acc = 0
            for slot, gen, at, coef in terms:
                acc += coef * rows[gen][c][points[slot][at]]
            entries.append(acc % d)
        matrix.append(tuple(entries))
    return tuple(matrix)


ORACLE_CAP = 16


def h2_via_bar_complex(T: GroupTable) -> FpAbelianGroup:
    """Independent oracle: H2 from the normalized bar complex.

    Chains live on tuples of non-identity elements, [a] at a - 1 and [a|b]
    at (a - 1)(n - 1) + b - 1.  ``chain`` sums a boundary's signed cells
    and drops the degenerate ones, with an identity coordinate.  Only
    groups of order at most ``ORACLE_CAP`` are accepted.
    """
    n = T.order
    if n > ORACLE_CAP:
        raise OrderTooLarge(f"group order {n} exceeds the oracle cap {ORACLE_CAP}")
    nz = n - 1  # non-identity elements are 1..n-1

    def one(a: int) -> Optional[int]:
        return a - 1 if a else None

    def two(a: int, b: int) -> Optional[int]:
        return (a - 1) * nz + (b - 1) if a and b else None

    def chain(terms: Iterable[Tuple[Optional[int], int]]) -> SparseCol:
        col: SparseCol = {}
        for i, s in terms:
            if i is not None:
                _axpy_sparse(col, {i: s}, 1)
        return col

    pairs = [(a, b) for a in range(1, n) for b in range(1, n)]
    lo_cols = [chain([(one(b), 1), (one(T.mult(a, b)), -1), (one(a), 1)]) for a, b in pairs]
    hi_cols = [chain([(two(b, c), 1), (two(T.mult(a, b), c), -1),
                      (two(a, T.mult(b, c)), 1), (two(a, b), -1)])
               for a, b in pairs for c in range(1, n)]
    return homology_from_sparse(hi_cols, lo_cols)
