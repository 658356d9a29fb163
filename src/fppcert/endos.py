"""Enumeration of group endomorphisms and their induced maps on H2."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from .coset import GroupTable
from .presentation import Word
from .resolution import FreeResolution3, H2Matrix, ResidueRows, induced_h2_matrix
from .zmatrix import FpAbelianGroup


def enumerate_endomorphisms(T: GroupTable) -> List[Tuple[int, ...]]:
    """All endomorphisms of T's group as image tuples, one element per generator,
    in lexicographic order.

    Depth-first over generator images, checking the relators of
    ``T.presentation``, each through one ``GroupTable.solutions`` call
    that narrows a candidate list to the images for which the relator
    holds.  A pure power x_k^e depends on no other image, so it narrows
    the candidates of x_k once, before the search.  Every other relator
    is checked at the depth of its last generator, once the earlier ones
    have images, and the search recurses over the survivors only, so the
    order of the candidates is the order of the result.  The recursion is
    the module-level ``_extend``, with its state passed in: a nested
    function that calls itself is a reference cycle, which would hold T
    until the cyclic collector runs.

    phi and c_a o phi are endomorphisms together, and (c_a o phi)(x_0) =
    a phi(x_0) a^-1, so the search takes phi(x_0) only at the least
    member of each conjugacy class of x_0's candidates; the pure-power
    filter keeps whole classes, since conjugation keeps the order.  Each
    class is walked from that member by the conjugations of the generators
    that are not central, and a member t = c(s) takes the endomorphisms of
    s with c applied to every image, sorted.  The lists, concatenated in
    the order of x_0's candidates, are the search's own lexicographic
    list, each popped as it is copied.  When every class is one element, as
    when every generator is central, there is nothing to walk, and the
    search over the representatives is the whole list.
    """
    g = T.num_generators
    candidates = [list(range(T.order)) for _ in range(g)]
    # the relators of two or more runs, by the depth of their last generator
    by_depth: List[List[Word]] = [[] for _ in range(g)]
    for w in T.presentation.relators:
        if len(w.letters) == 1:  # a pure power
            k = w.max_generator()
            candidates[k] = T.solutions((), w, candidates[k])
        elif w.letters:
            by_depth[w.max_generator()].append(w)
    conj = _conjugations(T)
    reps = []
    walk = []  # (t, s, c) with t = c(s), each class in the order its walk reaches it
    seen = set()
    for r in candidates[0]:
        if r in seen:
            continue
        seen.add(r)
        reps.append(r)
        frontier = [r]  # the loop walks it as it grows
        for s in frontier:
            for c in conj:
                t = c[s]
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
                    walk.append((t, s, c))
    found: List[Tuple[int, ...]] = []
    _extend(T, [reps] + candidates[1:], by_depth, [0] * g, found, 0)
    if not walk:  # every class is one element
        return found
    pieces: Dict[int, List[Tuple[int, ...]]] = {r: [] for r in reps}
    for f in found:
        pieces[f[0]].append(f)
    for t, s, c in walk:
        # c applied image by image: one column of the piece at a time, zipped back
        piece = list(zip(*[map(c.__getitem__, col) for col in zip(*pieces[s])]))
        piece.sort()
        pieces[t] = piece
    found = []
    for e in candidates[0]:
        found.extend(pieces.pop(e))
    return found


def _conjugations(T: GroupTable) -> List[List[int]]:
    """[x_j e x_j^-1 for every e], for each generator x_j that is not central."""
    identity = list(range(T.order))
    columns = T.columns
    conj = []
    for j in range(T.num_generators):
        a = T.generator_element(j)
        c = [columns[b][a] for b in columns[T.inv(a)]]  # a (e a^-1)
        if c != identity:
            conj.append(c)
    return conj


def _extend(T: GroupTable, candidates: List[List[int]], by_depth: List[List[Word]],
            images: List[int], found: List[Tuple[int, ...]], depth: int):
    """Append to found each completion of images[:depth] that passes the relators."""
    survivors: Sequence[int] = candidates[depth]
    for w in by_depth[depth]:
        survivors = T.solutions(images, w, survivors)
    if depth == len(images) - 1:
        for img in survivors:
            images[depth] = img
            found.append(tuple(images))
        return
    for img in survivors:
        images[depth] = img
        _extend(T, candidates, by_depth, images, found, depth + 1)


def dedup_modulo_inner(T: GroupTable,
                       endos: Sequence[Tuple[int, ...]]
                       ) -> List[Tuple[Tuple[int, ...], int]]:
    """Partition endomorphisms into inner-conjugation orbits.

    Walks each orbit once from its first listed member, conjugating by the
    generators only: a -> c_a o f is a homomorphism, so they generate
    Inn(G).  The maps are ``_conjugations``, the ones that walk x_0's
    classes in ``enumerate_endomorphisms``: a central generator conjugates
    trivially and is left out; when every generator is central, Inn(G) is
    trivial and each distinct endomorphism is its own orbit, so nothing is
    walked.  The list may come in any order, with repetition; the search's
    comes sorted, as the concatenation of one sorted list per image of x_0,
    each image's list the conjugate of its class representative's.  Returns
    (representative, class size) pairs sorted by representative, the
    representative being the lexicographically least orbit member and the
    size counting the listed members, with repetition.
    """
    listed = Counter(endos)
    conj = _conjugations(T)
    if not conj:
        return sorted(listed.items())
    classes = []
    for images in list(listed):
        if images not in listed:  # popped with an earlier orbit
            continue
        orbit = {images}
        frontier = [images]
        while frontier:
            # a non-central generator means g >= 2, so the getter returns a
            # tuple, not a scalar; it is built once and read by every map
            images_of = itemgetter(*frontier.pop())
            for c in conj:
                h = images_of(c)
                if h not in orbit:
                    orbit.add(h)
                    frontier.append(h)
        classes.append((min(orbit), sum(listed.pop(h, 0) for h in orbit)))
    classes.sort()
    return classes


@dataclass(frozen=True)
class InducedH2Class:
    """One distinct induced H2 map, the size of its fiber and the fiber's least member."""

    matrix: H2Matrix
    multiplicity: int
    witness_images: Tuple[int, ...]


def induced_h2_set(R: FreeResolution3, h: FpAbelianGroup,
                   endomorphisms: Sequence[Tuple[int, ...]],
                   inner_dedup: bool = True) -> List[InducedH2Class]:
    """The set of distinct induced H2 endomorphisms over the given endomorphisms.

    The endomorphisms are of ``R.group``.  Every induced map is read off
    one ``ResidueRows(R, h)``, with ``inner_dedup`` once per inner orbit;
    multiplicities still count every endomorphism.  The classes are taken
    sorted by representative, so each fiber's first representative is its
    least, its witness, and the output comes sorted by witness image tuple.
    """
    if inner_dedup:
        classes = dedup_modulo_inner(R.group, endomorphisms)
    else:
        classes = [(f, 1) for f in sorted(endomorphisms)]
    table = ResidueRows(R, h)
    fibers: Dict[H2Matrix, List] = {}  # matrix -> [size, witness]
    for rep, size in classes:
        matrix = induced_h2_matrix(table, rep)
        fiber = fibers.get(matrix)
        if fiber is None:
            fibers[matrix] = [size, rep]
        else:
            fiber[0] += size
    return [InducedH2Class(matrix, size, witness)
            for matrix, (size, witness) in fibers.items()]
