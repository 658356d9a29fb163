"""Enumeration of group endomorphisms and their induced maps on H2."""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .coset import GroupTable
from .presentation import Presentation, Word
from .resolution import FreeResolution3, H2Data, H2Endo, induced_h2_matrix


@dataclass(frozen=True)
class GroupEndomorphism:
    """An endomorphism given by one element index per generator."""

    images: Tuple[int, ...]


def _evaluate_relator(T: GroupTable, images: Sequence[int], w: Word) -> int:
    acc = 0
    for j, exp in w.letters:
        t = images[j] if exp > 0 else T.inv(images[j])
        for _ in range(abs(exp)):
            acc = T.mult(acc, t)
    return acc


def is_endomorphism(T: GroupTable, P: Presentation, images: Sequence[int]) -> bool:
    return all(_evaluate_relator(T, images, w) == 0 for w in P.relators)


def apply_to_element(T: GroupTable, images: Sequence[int], e: int) -> int:
    """Image of an arbitrary element under the endomorphism."""
    return _evaluate_relator(T, images, T.representative_words[e])


def compose(T: GroupTable, outer: GroupEndomorphism, inner: GroupEndomorphism) -> GroupEndomorphism:
    """The endomorphism outer o inner."""
    return GroupEndomorphism(tuple(
        apply_to_element(T, outer.images, img) for img in inner.images))


def conjugate_endomorphism(T: GroupTable, a: int, f: GroupEndomorphism) -> GroupEndomorphism:
    """c_a o f, where c_a is conjugation x -> a x a^-1."""
    ainv = T.inv(a)
    return GroupEndomorphism(tuple(
        T.mult(T.mult(a, img), ainv) for img in f.images))


def _candidate_images(T: GroupTable, P: Presentation) -> List[List[int]]:
    """Per-generator candidate image lists, cut down by pure-power relators."""
    g = P.num_generators
    candidates = [list(range(T.order)) for _ in range(g)]
    for w in P.relators:
        if len(w.letters) == 1:
            j, exp = w.letters[0]
            nn = abs(exp)
            candidates[j] = [e for e in candidates[j] if nn % T.element_order(e) == 0]
    return candidates


def enumerate_endomorphisms(T: GroupTable, P: Presentation,
                            workers: int = 1) -> List[GroupEndomorphism]:
    """All endomorphisms, in lexicographic order of their image tuples.

    Depth-first over generator images; a partial assignment is pruned as
    soon as a relator supported on the assigned generators fails.  The
    worker count only partitions the first generator's range; the merged
    result is identical for any count.
    """
    g = P.num_generators
    candidates = _candidate_images(T, P)
    # relators checkable once all their generators are assigned
    by_depth: List[List[Word]] = [[] for _ in range(g)]
    for w in P.relators:
        by_depth[w.max_generator()].append(w)

    def search(first_images: Sequence[int]) -> List[GroupEndomorphism]:
        found: List[GroupEndomorphism] = []
        images: List[int] = [0] * g

        def extend(depth: int):
            if depth == g:
                found.append(GroupEndomorphism(tuple(images)))
                return
            for img in candidates[depth]:
                images[depth] = img
                if all(_evaluate_relator(T, images, w) == 0 for w in by_depth[depth]):
                    extend(depth + 1)

        for img0 in first_images:
            images[0] = img0
            if all(_evaluate_relator(T, images, w) == 0 for w in by_depth[0]):
                extend(1)
        return found

    if workers <= 1:
        return search(candidates[0])
    size = (len(candidates[0]) + workers - 1) // workers
    chunks = [candidates[0][i:i + size] for i in range(0, len(candidates[0]), size)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(search, chunks))
    out: List[GroupEndomorphism] = []
    for part in parts:
        out.extend(part)
    return out


def dedup_modulo_inner(T: GroupTable,
                       endos: Sequence[GroupEndomorphism]
                       ) -> List[Tuple[GroupEndomorphism, int]]:
    """Partition endomorphisms into inner-conjugation orbits.

    Walks each orbit once from its first listed member, conjugating by the
    generators only: a -> c_a o f is a homomorphism, so they generate
    Inn(G).  Returns (representative, class size) pairs sorted by
    representative, the representative being the lexicographically least
    orbit member and the size counting the listed members, with repetition.
    """
    listed = Counter(f.images for f in endos)
    conj = []  # conj[j][e] = x_j e x_j^-1
    for j in range(T.num_generators):
        a = T.generator_element(j)
        ainv = T.inv(a)
        conj.append([T.mult(T.mult(a, e), ainv) for e in range(T.order)])
    classes = []
    for images in list(listed):
        if images not in listed:  # popped with an earlier orbit
            continue
        orbit = {images}
        frontier = [images]
        while frontier:
            f = frontier.pop()
            for c in conj:
                h = tuple([c[img] for img in f])
                if h not in orbit:
                    orbit.add(h)
                    frontier.append(h)
        classes.append((min(orbit), sum(listed.pop(h, 0) for h in orbit)))
    classes.sort()
    return [(GroupEndomorphism(images), size) for images, size in classes]


@dataclass(frozen=True)
class InducedH2Class:
    """One distinct induced H2 map with its fiber size and a witness."""

    endo: H2Endo
    multiplicity: int
    witness_images: Tuple[int, ...]


def induced_h2_set(T: GroupTable, P: Presentation, R: FreeResolution3, h: H2Data,
                   inner_dedup: bool = True,
                   endomorphisms: Optional[Sequence[GroupEndomorphism]] = None,
                   workers: int = 1) -> List[InducedH2Class]:
    """The set of distinct induced H2 endomorphisms over all endomorphisms.

    With ``inner_dedup`` the induced map is computed once per inner orbit;
    multiplicities still count every endomorphism.  Output is sorted by
    witness image tuple.
    """
    if endomorphisms is None:
        endomorphisms = enumerate_endomorphisms(T, P, workers=workers)
    if inner_dedup:
        classes = dedup_modulo_inner(T, endomorphisms)
    else:
        classes = [(f, 1) for f in endomorphisms]
    fibers: Dict[Tuple, List] = {}
    for rep, size in classes:
        endo = induced_h2_matrix(R, h, rep.images)
        key = endo.matrix
        if key in fibers:
            fibers[key][1] += size
            if rep.images < fibers[key][2]:
                fibers[key][2] = rep.images
        else:
            fibers[key] = [endo, size, rep.images]
    out = [InducedH2Class(endo, count, tuple(witness))
           for endo, count, witness in fibers.values()]
    out.sort(key=lambda c: c.witness_images)
    return out
