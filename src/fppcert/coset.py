"""Todd-Coxeter coset enumeration over the trivial subgroup.

Produces the regular permutation representation of the group defined by a
presentation: generator actions, inverses, a full multiplication table and
breadth-first representative words.  The finished table is immutable.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConsistencyError, CosetLimitExceeded
from .presentation import Presentation, Word


class GroupTable:
    """A finite group realized by its regular action.

    Element 0 is the identity.  ``action[j][e]`` is e * x_j; representative
    words come from a breadth-first spanning tree of the Cayley graph with
    generators in declaration order and inverses after positives.  The same
    tree is kept as ``tree_edges``: (element, parent, move) in BFS order,
    where element = parent * x_move for move < g and parent * x_(move-g)^-1
    otherwise.

    The multiplication table is built from the tree, one column per
    element: column b is the right action of b's tree word, so for a tree
    edge (t, parent, move), col[t] = step[move] o col[parent] with
    step = action + action_inv, and column 0 is the identity.  That is n^2
    table lookups and no word replay; the columns are then transposed into
    the row-major table.
    """

    def __init__(self, presentation: Presentation, action: Sequence[Sequence[int]]):
        self.presentation = presentation
        self.num_generators = presentation.num_generators
        self.order = len(action[0]) if action else 1
        self.action = tuple(tuple(row) for row in action)
        self.identity = 0
        n = self.order
        self.action_inv = []
        for j, perm in enumerate(self.action):
            if sorted(perm) != list(range(n)):
                raise ConsistencyError(f"generator {j} does not act by a permutation")
            inv = [0] * n
            for e, t in enumerate(perm):
                inv[t] = e
            self.action_inv.append(tuple(inv))
        self.action_inv = tuple(self.action_inv)
        self.representative_words, self.tree_edges = self._spanning_tree()
        self._mult = self._build_mult_table()
        self.inverse = tuple(self._mult_row_inverse())
        self._orders: List[Optional[int]] = [None] * n
        self._verify()

    def _spanning_tree(self) -> Tuple[Tuple[Word, ...], Tuple[Tuple[int, int, int], ...]]:
        n = self.order
        g = self.num_generators
        words: List[Optional[Word]] = [None] * n
        edges = []
        words[0] = Word()
        moves = [(j, 1) for j in range(g)] + [(j, -1) for j in range(g)]
        queue = deque([0])
        while queue:
            e = queue.popleft()
            for j, sign in moves:
                t = self.action[j][e] if sign > 0 else self.action_inv[j][e]
                if words[t] is None:
                    words[t] = words[e] * Word.of([(j, sign)])
                    edges.append((t, e, j if sign > 0 else g + j))
                    queue.append(t)
        if any(w is None for w in words):
            raise ConsistencyError("the action is not transitive from the identity")
        return tuple(words), tuple(edges)

    def _build_mult_table(self) -> Tuple[Tuple[int, ...], ...]:
        n = self.order
        steps = self.action + self.action_inv
        # cols[b][a] = a * b; a * (parent * s) = (a * parent) * s
        cols: List[Sequence[int]] = [range(n)] * n  # column 0 is the identity
        for t, parent, move in self.tree_edges:
            step = steps[move]
            cols[t] = [step[a] for a in cols[parent]]
        return tuple(zip(*cols))

    def _mult_row_inverse(self) -> List[int]:
        inv = [0] * self.order
        for a in range(self.order):
            inv[a] = self._mult[a].index(0)
        return inv

    def _verify(self):
        for w in self.presentation.relators:
            for e in range(self.order):
                if self.apply_word(e, w) != e:
                    raise ConsistencyError("a relator does not act trivially")
        for e in range(self.order):
            if self.apply_word(0, self.representative_words[e]) != e:
                raise ConsistencyError("representative word does not evaluate to its element")

    def mult(self, a: int, b: int) -> int:
        return self._mult[a][b]

    def inv(self, e: int) -> int:
        return self.inverse[e]

    def apply_word(self, e: int, w: Word) -> int:
        """Right action of the word on element e, letter by letter.

        Reads the generator actions only, never the multiplication table, so
        ``_verify`` checks the table against the coset action independently.
        """
        for j, exp in w.letters:
            if j >= self.num_generators:
                raise IndexError(f"invalid generator index {j}")
            if exp > 0:
                for _ in range(exp):
                    e = self.action[j][e]
            else:
                for _ in range(-exp):
                    e = self.action_inv[j][e]
        return e

    def evaluate_under(self, images: Sequence[int], w: Word) -> int:
        """Element the word evaluates to when x_j is sent to images[j]."""
        mult = self._mult
        acc = 0
        for j, exp in w.letters:
            t = images[j] if exp > 0 else self.inverse[images[j]]
            for _ in range(abs(exp)):
                acc = mult[acc][t]
        return acc

    def element_order(self, e: int) -> int:
        if self._orders[e] is None:
            n = 1
            acc = e
            while acc != 0:
                acc = self._mult[acc][e]
                n += 1
            self._orders[e] = n
        return self._orders[e]

    def generator_element(self, j: int) -> int:
        return self.action[j][0]


def _expand_relator(w: Word) -> List[int]:
    # slots: 2j is x_j, 2j+1 is x_j^-1
    out = []
    for j, exp in w.letters:
        slot = 2 * j if exp > 0 else 2 * j + 1
        out.extend([slot] * abs(exp))
    return out


def todd_coxeter(P: Presentation, max_cosets: int = 1_000_000) -> GroupTable:
    """Enumerate cosets of the trivial subgroup (HLT with immediate coincidences).

    Raises CosetLimitExceeded if more than ``max_cosets`` cosets get defined
    before the table closes.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    g = P.num_generators
    nslots = 2 * g
    relators = [_expand_relator(w) for w in P.relators]

    table: List[Optional[List[Optional[int]]]] = [[None] * nslots]
    parent = [0]
    defined = 1
    pending: deque = deque()

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def set_entry(c: int, s: int, d: int):
        c, d = find(c), find(d)
        row = table[c]
        cur = row[s]
        if cur is None:
            row[s] = d
        elif find(cur) != d:
            pending.append((find(cur), d))
        srow = table[d]
        sinv = s ^ 1
        cur = srow[sinv]
        if cur is None:
            srow[sinv] = c
        elif find(cur) != c:
            pending.append((find(cur), c))

    merge_count = 0

    def merge(a: int, b: int):
        nonlocal merge_count
        a, b = find(a), find(b)
        if a == b:
            return
        merge_count += 1
        keep, lose = (a, b) if a < b else (b, a)
        parent[lose] = keep
        row = table[lose]
        table[lose] = None
        for s, d in enumerate(row):
            if d is not None:
                set_entry(keep, s, find(d))

    def process_pending():
        while pending:
            a, b = pending.popleft()
            merge(a, b)

    def define(c: int, s: int) -> int:
        nonlocal defined
        if defined >= max_cosets:
            raise CosetLimitExceeded(max_cosets, defined)
        table.append([None] * nslots)
        parent.append(len(table) - 1)
        defined += 1
        idx = len(table) - 1
        set_entry(c, s, idx)
        return idx

    def scan_and_fill(a: int, rel: List[int]):
        n = len(rel)
        while True:
            a = find(a)
            f, i = a, 0
            while i < n:
                d = table[f][rel[i]]
                if d is None:
                    break
                f = find(d)
                i += 1
            if i == n:
                if f != a:
                    pending.append((f, a))
                return
            b, j = a, n
            while j > i:
                d = table[b][rel[j - 1] ^ 1]
                if d is None:
                    break
                b = find(d)
                j -= 1
            if j == i:
                if f != b:
                    pending.append((f, b))
                return
            if j == i + 1:
                set_entry(f, rel[i], b)
                return
            define(f, rel[i])
            # continue scanning the same relator with the new entry in place

    while True:
        start = (defined, merge_count)
        alpha = 0
        while alpha < len(table):
            if table[alpha] is None:
                alpha += 1
                continue
            for rel in relators:
                scan_and_fill(alpha, rel)
                process_pending()
                if table[alpha] is None:
                    break
            if table[alpha] is not None:
                for s in range(nslots):
                    if table[alpha][s] is None:
                        define(alpha, s)
                        process_pending()
                        if table[alpha] is None:
                            break
            alpha += 1
        process_pending()
        complete = all(row is None or all(d is not None for d in row) for row in table)
        # a full pass with no definitions and no merges over a complete table
        # means every relator scan closed cleanly
        if complete and (defined, merge_count) == start:
            break

    live = [c for c in range(len(table)) if table[c] is not None]
    # canonical renumbering: BFS from coset 0, generators in declaration
    # order, inverse moves after positive ones
    slot_order = [2 * j for j in range(g)] + [2 * j + 1 for j in range(g)]
    number: Dict[int, int] = {find(0): 0}
    bfs = deque([find(0)])
    order_list = [find(0)]
    while bfs:
        c = bfs.popleft()
        for s in slot_order:
            d = find(table[c][s])
            if d not in number:
                number[d] = len(number)
                order_list.append(d)
                bfs.append(d)
    if len(number) != len(live):
        raise ConsistencyError("coset table closed but is not transitive")
    action = []
    for j in range(g):
        perm = [number[find(table[c][2 * j])] for c in order_list]
        action.append(perm)
    return GroupTable(P, action)
