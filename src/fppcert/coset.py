"""Todd-Coxeter coset enumeration, and the group table built on it.

Produces the regular permutation representation of the group defined by a
presentation.  ``todd_coxeter`` first enumerates the cosets of H = <u> for
the relator u^k with the largest k, and takes the action on the orbit of a
base tuple of cosets; when that orbit has m k points, m = |G : H|, the
action on it is regular.  Otherwise it enumerates the cosets of the
trivial subgroup, the empty subgroup word.  Both are one HLT pass,
``_hlt``: one scan of the subgroup word at coset 0, then one pass over
the cosets, each scan walking its relator once.  ``GroupTable`` numbers
the regular action in breadth-first order from point 0, derives the
generator actions, the move table ``steps``, inverses, the spanning tree
and, composed along the tree by ``operator.itemgetter``, the
right-multiplication columns from that one walk, and checks every relator
at all points at once.  The finished table is immutable.  Words are
evaluated in three places, each for its own reader:
``GroupTable.solutions`` tests a relator u^k through its root u under
every candidate image of its last generator at once, for the endomorphism
search; ``GroupTable._word_action`` moves every element through a word by
the generator actions alone, for ``_verify`` and ``_walk_starts``; and
``FreeResolution3.phi_on_elements`` walks a relator's prefixes under the
generator images, for the lift.  ``_power`` takes every power: of
generator permutations for ``_word_action``, of lists for ``solutions``.
``moves`` writes a word out, one move per letter, for HLT and the lift.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from .errors import ConsistencyError, CosetLimitExceeded, RelatorTooLong
from .presentation import MAX_COSETS, Presentation, Word


class GroupTable:
    """A finite group realized by its regular action.

    The action must be the regular one, one permutation per generator, in
    which point 0 stands for the identity.  That is not checked, since it
    would cost g n^2, as much as the table: the one-point action of
    < x | x^2 > is taken for a group of order 1.  The constructor numbers
    the points in the order of one breadth-first walk from point 0,
    generators in declaration order and inverses after positives, and
    relabels the action to that numbering.
    The same walk gives the spanning tree ``tree_edges``: (element, parent,
    move) in BFS order, where element = parent * x_move for move < g and
    parent * x_(move-g)^-1 otherwise.  ``action[j][e]`` is e * x_j in the
    new numbering, so element 0 is the identity and the tree discovers
    elements 1, 2, ..., n-1 in order.  Element t's tree word, the moves on
    the tree path from 0 to t, is a shortest word for t.

    The multiplication table is kept as its n right-multiplication
    columns, the tuple ``columns``, built from the tree: column b is the
    right action of b's tree word, columns[b][a] = a * b, so for a tree
    edge (t, parent, move), columns[t] = steps[move] o columns[parent],
    and column 0 is the identity; ``steps`` = action + action_inv is each
    move's permutation.  Callers read a column by subscript.  Each column
    is one ``itemgetter(*columns[parent])`` applied to steps[move]: n^2 lookups
    in C, and no word replay.  The inverses come off the same tree:
    t = parent * s has t^-1 = s^-1 * parent^-1, one lookup per edge.
    ``_verify`` then checks every relator at every element, and every tree
    edge, against the generator actions alone: ``_word_action`` moves all n
    elements through a relator u^k at once, through its root u run by run,
    a run x_j^e as the |e|-th power of x_j's permutation, and then raises
    u's permutation to the k-th power, each by ``_power``, so a run x_j^e
    costs O(n log |e|) and the power O(n log k).
    """

    def __init__(self, presentation: Presentation, action: Sequence[Sequence[int]]):
        self.presentation = presentation
        self.num_generators = presentation.num_generators
        if len(action) != self.num_generators:
            raise ConsistencyError(f"{len(action)} generator actions for "
                                   f"{self.num_generators} generators")
        self.order = len(action[0])
        if not self.order:
            raise ConsistencyError("the action has no points")
        for j, perm in enumerate(action):
            if sorted(perm) != list(range(self.order)):
                raise ConsistencyError(f"generator {j} does not act by a permutation")
        self.action, self.action_inv, self.tree_edges = self._number_by_bfs(action)
        self.steps = self.action + self.action_inv  # the permutation of each move
        self.columns = self._build_mult_table()
        self.inverse = self._tree_inverses()
        self._verify()

    def _number_by_bfs(self, action: Sequence[Sequence[int]]):
        """Relabelled action and its inverse, and the tree edges of one BFS."""
        n = self.order
        g = self.num_generators
        steps = [tuple(perm) for perm in action]
        for perm in action:
            inv = [0] * n
            for e, t in enumerate(perm):
                inv[t] = e
            steps.append(inv)
        number: List[Optional[int]] = [None] * n
        number[0] = 0
        points = [0]  # points in discovery order; the loop walks it as it grows
        edges = []
        for parent, p in enumerate(points):
            for move, step in enumerate(steps):
                t = step[p]
                if number[t] is None:
                    number[t] = len(points)
                    points.append(t)
                    edges.append((number[t], parent, move))
        if len(points) != n:
            raise ConsistencyError("the action is not transitive from the identity")
        relabelled = tuple(tuple(number[step[p]] for p in points) for step in steps)
        return relabelled[:g], relabelled[g:], tuple(edges)

    def _build_mult_table(self) -> Tuple[Tuple[int, ...], ...]:
        n = self.order
        # cols[b][a] = a * b; a * (parent * s) = (a * parent) * s, and n >= 2
        # when there is an edge, so itemgetter returns a tuple, not a scalar
        cols = [tuple(range(n))] * n  # column 0 is the identity
        for t, parent, move in self.tree_edges:
            cols[t] = itemgetter(*cols[parent])(self.steps[move])
        return tuple(cols)

    def _tree_inverses(self) -> Tuple[int, ...]:
        # steps_inv[move] is the element s^-1 of the move s
        steps_inv = [inv[0] for inv in self.action_inv] + [act[0] for act in self.action]
        inverse = [0] * self.order
        for t, parent, move in self.tree_edges:
            inverse[t] = self.columns[inverse[parent]][steps_inv[move]]
        return tuple(inverse)

    def _verify(self):
        """Check every relator and tree edge against the generator actions alone."""
        identity = list(range(self.order))
        for w in self.presentation.relators:
            if self._word_action(w.letters) != identity:
                raise ConsistencyError("a relator does not act trivially")
        # by induction along the tree, each element's tree word leads from 0 to it
        for t, parent, move in self.tree_edges:
            if self.steps[move][parent] != t:
                raise ConsistencyError("a tree edge does not follow its generator")

    def _word_action(self, runs: Sequence[Tuple[int, int]]) -> List[int]:
        """[e w for e in G] for w the word of these runs, from the generator actions
        alone.  w is u^k for its root u (``Word.root``): u is read run by run,
        a run x_j^e the |e|-th ``_power`` of x_j^(+-1)'s permutation, and
        u's permutation is then raised to the k-th ``_power``."""
        root, k = Word(tuple(runs)).root()
        compose, square = (lambda p, q: [q[x] for x in p]), (lambda p: [p[x] for x in p])
        points = list(range(self.order))  # points[e] is e times the runs read so far
        for j, exp in root:
            step = _power(self.steps[j if exp > 0 else self.num_generators + j], abs(exp),
                          compose, square)
            points = [step[p] for p in points]
        return _power(points, k, compose, square)

    def mult(self, a: int, b: int) -> int:
        return self.columns[b][a]

    def inv(self, e: int) -> int:
        return self.inverse[e]

    def solutions(self, images: Sequence[int], w: Word,
                  candidates: Sequence[int]) -> List[int]:
        """The candidates c, in order, that make w the identity.

        w's last generator x_k, k = ``w.max_generator()``, goes to c and
        every x_j with j < k to ``images[j]``.  w is u^m for its root u
        (``Word.root``), and every element's order divides |G|, so w is the
        identity exactly when phi(u)^(m mod |G|) is.  All candidates are
        evaluated at once, one run of u at a time, as one list of partial
        products: a run x_j^e of an assigned generator is one column, that
        of phi(x_j)^(e mod |G|), applied to the list, and a run of x_k takes
        each candidate's own power.  The list is then raised to the
        (m mod |G|)-th power, and every power is taken by ``_powers``, so a
        run or a power e costs O(log e) passes.  A pure
        power x_k^e has root x_k^(+-1) and reads no image: it keeps the
        candidates whose order divides e.
        """
        k = w.max_generator()
        n = self.order
        root, m = w.root()
        m %= n
        if not m:
            return list(candidates)
        cols = self.columns
        inverse = self.inverse
        acc = None  # phi of the prefix of u read so far; None while it is empty
        for j, exp in root:
            e = abs(exp) % n
            if not e:
                continue
            if j == k:
                src = self._powers(candidates if exp > 0 else [inverse[c] for c in candidates], e)
                acc = src if acc is None else [cols[c][a] for c, a in zip(src, acc)]
            else:
                b = self._powers([images[j] if exp > 0 else inverse[images[j]]], e)[0]
                col = cols[b]
                acc = [b] * len(candidates) if acc is None else [col[a] for a in acc]
        if acc is None:
            return list(candidates)
        acc = self._powers(acc, m)
        return [c for c, a in zip(candidates, acc) if a == 0]

    def _powers(self, elems: Sequence[int], e: int) -> Sequence[int]:
        """[a^e for a in elems] for e >= 1 by ``_power``, a product or a squaring
        one pass through the columns; ``elems`` itself when e = 1."""
        cols = self.columns
        return _power(elems, e, lambda x, y: [cols[b][a] for a, b in zip(x, y)],
                      lambda x: [cols[a][a] for a in x])

    def generator_element(self, j: int) -> int:
        return self.action[j][0]


def _power(x, e: int, mul, square):
    """x^e for e >= 1 by repeated squaring, mul the product of two powers of x
    and square the square of one: a squaring per bit of e below its highest,
    a product per set bit above its lowest, and x itself when e = 1."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return out
        x = square(x)


def moves(w: Word, g: int) -> List[int]:
    """w written out per letter as moves of ``tree_edges``: x_j is j and x_j^-1 is g + j."""
    return [j if exp > 0 else g + j for j, exp in w.letters for _ in range(abs(exp))]


def todd_coxeter(P: Presentation, max_cosets: int = MAX_COSETS) -> GroupTable:
    """The regular action of the group G of P, as a ``GroupTable``.

    Take the relator u^k with the largest k >= 2 (``Word.root``; the first
    of several), so H = <u> has order at most k, and enumerate the m cosets
    of H with ``_hlt``.  Then take the orbit of the base tuple of cosets
    (0, ..., s - 1) under the generators, for s = 1, 2, 4, ... up to m.
    An orbit of m k points gives m k <= |G| = m |H| <= m k, so G acts on it
    with trivial stabilizers: the action on the orbit, numbered from the
    base, is the regular one, and ``GroupTable``'s breadth-first numbering
    makes it the very table the trivial subgroup gives.  At s = m the orbit
    is G / core(H), so this route is taken exactly when u has order k and
    H has trivial core.  Otherwise, or when no relator is a proper power,
    or when the enumeration over H hits the cap, ``_hlt`` enumerates the
    cosets of its default subgroup, the trivial one, instead.  An orbit has
    at most |G| points of at most m cosets each, so a refused route costs
    at most about 2 g |G| m lookups, within a small factor of the table's
    |G|^2.

    ``max_cosets`` bounds each enumeration on its own: the one over H runs
    under it, and so does the fallback after it, so an input whose
    trivial-subgroup enumeration closes under the cap still closes.  It
    counts cosets defined, not elements, so a group that the route reaches
    may have more elements than the cap.  Raises what ``_hlt`` raises.
    """
    return GroupTable(P, _regular_orbit(P, max_cosets) or _hlt(P, max_cosets))


def _regular_orbit(P: Presentation, max_cosets: int) -> Optional[List[List[int]]]:
    """The regular action on the orbit of a base of the cosets of <u>, as in
    ``todd_coxeter``, or None where that route is refused.  Points are
    numbered in discovery order from the base, so the base is point 0."""
    root, k = max((w.root() for w in P.relators), key=itemgetter(1), default=((), 1))
    if k < 2:
        return None
    try:
        cosets = _hlt(P, max_cosets, Word(root))
    except CosetLimitExceeded:
        return None
    m = len(cosets[0])
    s = 1
    while True:
        base = tuple(range(s))
        number = {base: 0}
        points = [base]
        action: List[List[int]] = [[] for _ in cosets]
        for p in points:  # the loop walks points as it grows
            for perm, images in zip(cosets, action):
                q = tuple([perm[c] for c in p])
                t = number.setdefault(q, len(points))
                if t == len(points):
                    points.append(q)
                images.append(t)
        if len(points) == m * k:
            return action
        if s == m:
            return None
        s = min(2 * s, m)


def _hlt(P: Presentation, max_cosets: int, subgroup: Word = Word()) -> List[List[int]]:
    """Enumerate the cosets of <subgroup>, by default the trivial subgroup, by
    HLT with immediate coincidences; returns the action on them, one
    permutation per generator, in which coset 0 is the subgroup itself.

    The subgroup word is scanned at coset 0 first, as in HLT's
    subgroup-generator step; the empty word closes at once.  That scan
    leaves no coincidence to process: on a fresh table it defines one chain
    of fresh cosets along the word, the backward walk can only follow that
    chain, as the word is freely reduced, and its one deduction fills two
    slots that the forward and backward walks have just found empty.
    Then one pass over the cosets in order:
    processing coset alpha scans every relator at alpha, filling in
    definitions and deductions, and then defines alpha's missing entries,
    x_0, x_0^-1, x_1, x_1^-1, ... in turn;
    rows and relators are indexed by ``moves``, and ``flip`` inverts a move.
    A scan keeps its forward and backward positions across a definition, as
    in SCAN_AND_FILL of Holt, Eick and O'Brien (*Handbook of Computational
    Group Theory*, ch. 5): a definition fills an empty entry with a fresh
    coset and merges nothing, so the scan resumes where it stopped and walks
    each relator once.  A definition writes its two entries directly, since
    it fills an empty slot of a live coset and one of a fresh row.
    ``set_entry`` is passed live cosets, and it and the scans call ``find``
    only on a table entry that names a coset merged away.  A coincidence
    always keeps the smaller coset, and a closed scan or a filled entry
    stays so under later definitions and coincidences, so once alpha passes
    the last coset the table is complete and every relator holds at every
    coset.  The live cosets are compacted in index order.

    Raises CosetLimitExceeded if more than ``max_cosets`` cosets get defined
    before the table closes, and its subclass RelatorTooLong, before
    enumerating, if a relator written out has more than ``max_cosets``
    letters: a scan of such a relator where its cycle is still open defines
    one coset per letter.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    for w in P.relators:
        length = sum(abs(exp) for _, exp in w.letters)
        if length > max_cosets:
            raise RelatorTooLong(max_cosets, length)
    g = P.num_generators
    nslots = 2 * g
    relators = [moves(w, g) for w in P.relators]
    flip = list(range(g, nslots)) + list(range(g))  # the inverse of each move
    fill = [s for j in range(g) for s in (j, g + j)]  # x_0, x_0^-1, x_1, ...

    table: List[Optional[List[Optional[int]]]] = [[None] * nslots]
    parent = [0]
    pending: deque = deque()

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def set_entry(c: int, s: int, d: int):
        # c and d are live: scan_and_fill passes the f and b it has just
        # resolved, merge its root keep and find(d), and set_entry itself
        # only queues coincidences, so no merge comes in between
        row = table[c]
        cur = row[s]
        if cur is None:
            row[s] = d
        else:
            if parent[cur] != cur:
                cur = find(cur)
            if cur != d:
                pending.append((cur, d))
        srow = table[d]
        sinv = flip[s]
        cur = srow[sinv]
        if cur is None:
            srow[sinv] = c
        else:
            if parent[cur] != cur:
                cur = find(cur)
            if cur != c:
                pending.append((cur, c))

    def merge(a: int, b: int):
        a, b = find(a), find(b)
        if a == b:
            return
        keep, lose = (a, b) if a < b else (b, a)
        parent[lose] = keep
        row = table[lose]
        table[lose] = None
        for s, d in enumerate(row):
            if d is not None:
                set_entry(keep, s, find(d))

    def define(c: int, s: int):
        # c is live and its slot s empty, and the new row is fresh, so the
        # two entries are written directly; rows are never removed, so
        # len(table) counts the cosets defined
        d = len(table)
        if d >= max_cosets:
            raise CosetLimitExceeded(max_cosets, d)
        parent.append(d)
        row: List[Optional[int]] = [None] * nslots
        row[flip[s]] = c
        table.append(row)
        table[c][s] = d

    def scan_and_fill(a: int, rel: List[int]):
        # a is live; rel[:i] leads from a to f and rel[j:] from b to a
        f, i, b, j = a, 0, a, len(rel)
        while True:
            while i < j:
                d = table[f][rel[i]]
                if d is None:
                    break
                f = d if parent[d] == d else find(d)
                i += 1
            while j > i:
                d = table[b][flip[rel[j - 1]]]
                if d is None:
                    break
                b = d if parent[d] == d else find(d)
                j -= 1
            if j == i:
                if f != b:
                    pending.append((f, b))
                return
            if j == i + 1:
                set_entry(f, rel[i], b)
                return
            define(f, rel[i])  # merges nothing, so (f, i) and (b, j) still hold

    scan_and_fill(0, moves(subgroup, g))
    alpha = 0
    while alpha < len(table):
        if table[alpha] is not None:
            for rel in relators:
                scan_and_fill(alpha, rel)
                while pending:
                    merge(*pending.popleft())
                if table[alpha] is None:
                    break
            else:
                for s in fill:
                    if table[alpha][s] is None:
                        # fills an empty slot of a live coset and one of a
                        # fresh row: no coincidence to process
                        define(alpha, s)
        alpha += 1

    live = [c for c in range(len(table)) if table[c] is not None]
    # coset 0 is never merged away, so it stays point 0
    point = {c: k for k, c in enumerate(live)}
    return [[point[find(table[c][s])] for c in live] for s in range(g)]
