import itertools
import random

import pytest

from fppcert import (
    GroupEndomorphism,
    dedup_modulo_inner,
    enumerate_endomorphisms,
    induced_h2_set,
    parse_presentation,
    todd_coxeter,
)
from fppcert.endos import (
    apply_to_element,
    compose,
    conjugate_endomorphism,
    is_endomorphism,
)

from conftest import SMALL_GROUP_TEXTS


def brute_force_endos(T, P):
    g = P.num_generators
    out = []
    for images in itertools.product(range(T.order), repeat=g):
        if is_endomorphism(T, P, images):
            out.append(GroupEndomorphism(images))
    return out


def brute_force_dedup(T, endos):
    """Canonical form of each endomorphism as its least conjugate by all of G."""
    classes = {}
    for f in endos:
        canon = min(
            tuple(T.mult(T.mult(a, img), T.inv(a)) for img in f.images)
            for a in range(T.order)
        )
        classes[canon] = classes.get(canon, 0) + 1
    return [(GroupEndomorphism(images), count)
            for images, count in sorted(classes.items())]


class TestEnumeration:
    def test_counts_on_the_main_groups(self, endos_g, endos_h):
        assert len(endos_g) == 4455
        assert len(endos_h) == 128

    def test_trivial_group(self):
        P = parse_presentation("< x | x >")
        T = todd_coxeter(P)
        assert enumerate_endomorphisms(T, P) == [GroupEndomorphism((0,))]

    def test_cyclic_five(self):
        P = parse_presentation("< x | x^5 >")
        T = todd_coxeter(P)
        endos = enumerate_endomorphisms(T, P)
        assert len(endos) == 5

    @pytest.mark.parametrize("name", ["klein", "s3", "d4", "q8", "z3xz3"])
    def test_matches_brute_force(self, name):
        P = parse_presentation(SMALL_GROUP_TEXTS[name])
        T = todd_coxeter(P)
        assert enumerate_endomorphisms(T, P) == brute_force_endos(T, P)

    def test_klein_count(self):
        # every map of the two generators into the group extends: 4^2 = 16
        P = parse_presentation(SMALL_GROUP_TEXTS["klein"])
        T = todd_coxeter(P)
        assert len(enumerate_endomorphisms(T, P)) == 16

    def test_lexicographic_and_duplicate_free(self, endos_h):
        images = [e.images for e in endos_h]
        assert images == sorted(set(images))

    def test_all_results_are_endomorphisms(self, endos_h, table_h, pres_h):
        for f in endos_h:
            assert is_endomorphism(table_h, pres_h, f.images)

    def test_identity_and_trivial_present(self, endos_h, table_h):
        ident = tuple(table_h.generator_element(j) for j in range(2))
        images = {e.images for e in endos_h}
        assert (0, 0) in images
        assert ident in images

    def test_workers_do_not_change_the_result(self, pres_h, table_h, endos_h):
        for workers in (2, 3, 8):
            assert enumerate_endomorphisms(table_h, pres_h, workers=workers) == endos_h


class TestEndoAlgebra:
    def test_apply_to_element_extends_images(self, table_h, endos_h):
        f = endos_h[7]
        for j in range(2):
            assert apply_to_element(table_h, f.images, table_h.generator_element(j)) \
                == f.images[j]

    def test_apply_is_a_homomorphism(self, table_h, endos_h):
        f = endos_h[7]
        for a in range(0, 16, 3):
            for b in range(16):
                lhs = apply_to_element(table_h, f.images, table_h.mult(a, b))
                rhs = table_h.mult(apply_to_element(table_h, f.images, a),
                                   apply_to_element(table_h, f.images, b))
                assert lhs == rhs

    def test_compose_closure(self, table_h, pres_h, endos_h):
        images = {e.images for e in endos_h}
        for a in endos_h[::13]:
            for b in endos_h[::13]:
                c = compose(table_h, a, b)
                assert c.images in images

    def test_compose_associative_sample(self, table_h, endos_h):
        a, b, c = endos_h[3], endos_h[40], endos_h[100]
        assert compose(table_h, compose(table_h, a, b), c) == \
            compose(table_h, a, compose(table_h, b, c))

    def test_conjugate_is_an_endomorphism(self, table_h, pres_h, endos_h):
        for f in endos_h[::17]:
            for a in range(0, 16, 5):
                g = conjugate_endomorphism(table_h, a, f)
                assert is_endomorphism(table_h, pres_h, g.images)


class TestInnerDedup:
    def test_class_count_on_the_order_243_group(self, endos_g, table_g):
        classes = dedup_modulo_inner(table_g, endos_g)
        assert len(classes) == 103
        assert sum(size for _, size in classes) == 4455

    def test_sizes_preserved(self, endos_h, table_h):
        classes = dedup_modulo_inner(table_h, endos_h)
        assert sum(size for _, size in classes) == 128

    def test_representatives_are_lex_least(self, endos_h, table_h):
        for rep, _ in dedup_modulo_inner(table_h, endos_h):
            orbit = {conjugate_endomorphism(table_h, a, rep).images
                     for a in range(table_h.order)}
            assert rep.images == min(orbit)

    def test_abelian_groups_have_singleton_classes(self):
        P = parse_presentation(SMALL_GROUP_TEXTS["z3xz3"])
        T = todd_coxeter(P)
        endos = enumerate_endomorphisms(T, P)
        classes = dedup_modulo_inner(T, endos)
        assert len(classes) == len(endos)
        assert all(size == 1 for _, size in classes)

    @pytest.mark.parametrize("group, size", [("h", 40), ("h", 200), ("g", 300)])
    def test_orbit_walk_matches_brute_force_on_sublists(self, request, group, size):
        # sampled with replacement: not closed under conjugation, with repeats
        T = request.getfixturevalue(f"table_{group}")
        endos = request.getfixturevalue(f"endos_{group}")
        for seed in range(3):
            sub = random.Random(seed).choices(endos, k=size)
            assert dedup_modulo_inner(T, sub) == brute_force_dedup(T, sub)

    def test_orbit_walk_matches_brute_force_on_the_full_lists(self, table_h, endos_h,
                                                             table_g, endos_g):
        assert dedup_modulo_inner(table_h, endos_h) == brute_force_dedup(table_h, endos_h)
        assert dedup_modulo_inner(table_g, endos_g) == brute_force_dedup(table_g, endos_g)

    def test_identity_orbit_size_is_the_inner_count(self, endos_h, table_h):
        # the orbit of the identity automorphism is G/Z(G); for this group
        # the center has order 4
        ident = GroupEndomorphism(tuple(table_h.generator_element(j) for j in range(2)))
        classes = dedup_modulo_inner(table_h, [ident])
        assert classes[0][1] == 1
        orbit = {conjugate_endomorphism(table_h, a, ident).images
                 for a in range(table_h.order)}
        assert len(orbit) == 4


class TestInducedSet:
    def test_order_243_group(self, table_g, pres_g, res_g, h2_g, endos_g):
        classes = induced_h2_set(table_g, pres_g, res_g, h2_g,
                                 endomorphisms=endos_g)
        assert len(classes) == 2
        zero, ident = classes
        assert zero.endo.is_zero() and zero.multiplicity == 2997
        assert ident.endo.is_identity() and ident.multiplicity == 1458
        assert zero.witness_images == (0, 0)

    def test_order_16_group(self, table_h, pres_h, res_h, h2_h, endos_h):
        classes = induced_h2_set(table_h, pres_h, res_h, h2_h,
                                 endomorphisms=endos_h)
        assert len(classes) == 3
        matrices = {c.endo.matrix: c.multiplicity for c in classes}
        assert matrices[((0, 0), (0, 0))] == 96
        assert matrices[((1, 0), (0, 1))] == 16
        assert matrices[((0, 1), (1, 0))] == 16
        swap = next(c.endo for c in classes if c.endo.matrix == ((0, 1), (1, 0)))
        assert swap.compose(swap).is_identity()

    def test_dedup_off_agrees(self, table_h, pres_h, res_h, h2_h, endos_h):
        on = induced_h2_set(table_h, pres_h, res_h, h2_h,
                            inner_dedup=True, endomorphisms=endos_h)
        off = induced_h2_set(table_h, pres_h, res_h, h2_h,
                             inner_dedup=False, endomorphisms=endos_h)
        assert [(c.endo.matrix, c.multiplicity) for c in on] == \
            [(c.endo.matrix, c.multiplicity) for c in off]

    def test_set_closed_under_composition(self, table_h, pres_h, res_h, h2_h, endos_h):
        classes = induced_h2_set(table_h, pres_h, res_h, h2_h,
                                 endomorphisms=endos_h)
        matrices = {c.endo.matrix for c in classes}
        for a in classes:
            for b in classes:
                assert a.endo.compose(b.endo).matrix in matrices
