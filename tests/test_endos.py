import itertools
import random

import pytest

from fppcert import (
    CosetLimitExceeded,
    Presentation,
    Word,
    dedup_modulo_inner,
    enumerate_endomorphisms,
    induced_h2_set,
    parse_presentation,
    todd_coxeter,
)

from conftest import SMALL_GROUP_TEXTS
from oracles import (
    compose,
    compose_h2,
    conjugate_endomorphism,
    element_order,
    evaluate_under,
    is_endomorphism,
    is_identity_endo,
    is_zero_endo,
    orbit_walk_dedup,
    representative_words,
    search_endomorphisms,
)
from test_certify import FIXTURE_CERTIFICATES

Z2XS3_TEXT = "< z, a, b | z^2, a^3, b^2, (a*b)^2, z*a*z^-1*a^-1, z*b*z^-1*b^-1 >"

# presentations whose relators the search must read right: an empty
# relator, negative pure powers, and relators whose last generator comes
# back in runs of exponent +-2 and +-3, first or after an assigned letter
EDGE_CASES = {
    "empty_relator": Presentation(("x", "y"), tuple(
        parse_presentation("< x, y | x^2, y^3, (x*y)^2 >").relators) + (Word(),)),
    "negative_powers": parse_presentation("< x, y | x^-3, y^-2, (x*y)^-2 >"),
    "runs_of_two": parse_presentation(
        "< x, y | x^2, y^6, (x*y)^2, y^2*x*y^2*x, x^-1*y^-2*x^-1*y^-2 >"),
    "runs_of_three": parse_presentation(
        "< x, y | x^2, y^6, (x*y)^2, y^3*x*y^-3*x, y^-3*x^-1*y^-3*x^-1 >"),
    "three_generators": parse_presentation(
        "< x, y, z | x^2, y^3, (x*y)^2, z^2, z^-2*x*z^3*x*z^-1, x*y^-2*z*y^2*x*z^-1 >"),
}


def random_word(rng, g, runs, exponents=(-3, -2, -1, 1, 2, 3)):
    return Word.of((rng.randrange(g), rng.choice(exponents)) for _ in range(runs))


def seeded_corpus(per_generator_count, max_cosets=300, budget=40_000):
    """Nontrivial finite groups on 1, 2 and 3 generators, as many of each.

    Each generator gets a pure power; then g - 1 or g relators, each a
    random word, a commutator of two generators, or a power of a short
    word.  A presentation is kept when it closes under ``max_cosets``
    cosets and the plain search, at most order^g leaves, stays within
    ``budget``.
    """
    rng = random.Random(2027)
    kept = {1: [], 2: [], 3: []}
    while any(len(v) < per_generator_count for v in kept.values()):
        g = rng.randint(1, 3)
        relators = [Word.of([(j, rng.choice([-4, -3, -2, 2, 3, 4, 5, 6]))]) for j in range(g)]
        for _ in range(rng.randint(g - 1, g)):
            kind = rng.random()
            if kind < 0.3:
                relators.append(random_word(rng, g, rng.randint(2, 6)))
            elif kind < 0.5:
                a, b = rng.sample(range(g), 2) if g > 1 else (0, 0)
                relators.append(Word.of([(a, 1), (b, 1), (a, -1), (b, -1)]))
            else:
                relators.append(random_word(rng, g, rng.randint(2, 4), (-1, 1)) ** rng.randint(2, 4))
        if len(kept[g]) == per_generator_count:
            continue
        P = Presentation(tuple(f"x{j}" for j in range(g)), tuple(relators))
        try:
            T = todd_coxeter(P, max_cosets=max_cosets)
        except CosetLimitExceeded:
            continue
        if T.order > 1 and T.order ** g <= budget:
            kept[g].append((P, T))
    return [case for cases in kept.values() for case in cases]


def image_tuples(T, endos):
    """Each endomorphism is a plain tuple of one element index per generator."""
    return all(type(f) is tuple and len(f) == T.num_generators
               and all(type(e) is int and 0 <= e < T.order for e in f) for f in endos)


def brute_force_endos(T):
    g = T.num_generators
    out = []
    for images in itertools.product(range(T.order), repeat=g):
        if is_endomorphism(T, images):
            out.append(images)
    return out


def brute_force_dedup(T, endos):
    """Canonical form of each endomorphism as its least conjugate by all of G."""
    classes = {}
    for f in endos:
        canon = min(
            tuple(T.mult(T.mult(a, img), T.inv(a)) for img in f)
            for a in range(T.order)
        )
        classes[canon] = classes.get(canon, 0) + 1
    return sorted(classes.items())


class TestEnumeration:
    def test_counts_on_the_main_groups(self, endos_g, endos_h):
        assert len(endos_g) == 4455
        assert len(endos_h) == 128

    def test_trivial_group(self):
        P = parse_presentation("< x | x >")
        T = todd_coxeter(P)
        assert enumerate_endomorphisms(T) == [(0,)]

    def test_cyclic_five(self):
        P = parse_presentation("< x | x^5 >")
        T = todd_coxeter(P)
        endos = enumerate_endomorphisms(T)
        assert len(endos) == 5

    @pytest.mark.parametrize("name", ["klein", "s3", "d4", "q8", "z3xz3"])
    def test_matches_brute_force(self, name):
        P = parse_presentation(SMALL_GROUP_TEXTS[name])
        T = todd_coxeter(P)
        assert enumerate_endomorphisms(T) == brute_force_endos(T)

    def test_klein_count(self):
        # every map of the two generators into the group extends: 4^2 = 16
        P = parse_presentation(SMALL_GROUP_TEXTS["klein"])
        T = todd_coxeter(P)
        assert len(enumerate_endomorphisms(T)) == 16

    def test_lexicographic_and_duplicate_free(self, endos_h):
        assert endos_h == sorted(set(endos_h))

    def test_all_results_are_endomorphisms(self, endos_h, table_h):
        for f in endos_h:
            assert is_endomorphism(table_h, f)

    def test_identity_and_trivial_present(self, endos_h, table_h):
        ident = tuple(table_h.generator_element(j) for j in range(2))
        assert (0, 0) in endos_h
        assert ident in endos_h

class TestSolutions:
    def test_matches_the_letter_by_letter_evaluation(self, table_g, table_h):
        # random words with runs of +-1..3, the last generator's runs included
        rng = random.Random(41)
        for T in (table_g, table_h):
            for _ in range(60):
                w = random_word(rng, 2, rng.randint(1, 7))
                k = w.max_generator()
                images = [rng.randrange(T.order) for _ in range(2)]
                candidates = rng.sample(range(T.order), rng.randint(1, T.order))
                expected = [c for c in candidates
                            if evaluate_under(T, images[:k] + [c], w) == 0]
                assert T.solutions(images, w, candidates) == expected, w

    def test_keeps_the_order_of_the_candidates(self, table_h, pres_h):
        w = pres_h.relators[2]  # (x*y)^2
        candidates = list(range(table_h.order))
        random.Random(3).shuffle(candidates)
        x = table_h.generator_element(0)
        found = table_h.solutions([x], w, candidates)
        assert found == [c for c in candidates if evaluate_under(table_h, [x, c], w) == 0]
        assert len(found) > 1 and found != sorted(found)

    def test_no_candidates(self, table_h, pres_h):
        assert table_h.solutions([1], pres_h.relators[2], []) == []

    def test_the_empty_word_keeps_every_candidate(self, table_h):
        assert table_h.solutions([], Word(), [5, 0, 3]) == [5, 0, 3]

    @pytest.mark.parametrize("exp", [3, -3])
    def test_a_pure_power_keeps_the_elements_of_dividing_order(self, table_g, exp):
        w = Word.of([(1, exp)])
        assert table_g.solutions([0], w, range(table_g.order)) == \
            [e for e in range(table_g.order) if 3 % element_order(table_g, e) == 0]

    @pytest.mark.parametrize("group", ["h", "g", "z9"])
    def test_the_pure_power_filter_matches_the_element_orders(self, request, group):
        # exponents below, at and past the group order, of both signs
        T = request.getfixturevalue(f"table_{group}")
        n = T.order
        for exp in (1, 2, 3, 4, 8, 9, 27, n - 1, n, n + 3, 2 * n + 9, -2, -9, -n, -(n + 4)):
            for j in range(T.num_generators):
                candidates = list(range(n))
                random.Random(exp).shuffle(candidates)
                assert T.solutions((), Word.of([(j, exp)]), candidates) == \
                    [e for e in candidates if exp % element_order(T, e) == 0], exp

    @pytest.mark.parametrize("group", ["h", "g", "z9"])
    def test_a_proper_power_is_tested_through_its_root(self, request, group):
        # u^k over random roots of several runs, k at, below and past |G|
        # and negative, where the root of u^-k is u^-1
        T = request.getfixturevalue(f"table_{group}")
        n = T.order
        rng = random.Random(n)
        filtered = False
        for _ in range(2):
            u = random_word(rng, 2, rng.randint(2, 4))
            while len(u.letters) < 2 or u.letters[0][0] == u.letters[-1][0] or u.root()[1] > 1:
                u = random_word(rng, 2, rng.randint(2, 4))
            for k in (2, 3, 7, n - 1, n, n + 1, 2 * n + 3):
                for power in (k, -k):
                    w = u ** power
                    assert w.root() == ((u if power > 0 else u.inverse()).letters, k)
                    last = w.max_generator()
                    images = [rng.randrange(n) for _ in range(2)]
                    candidates = rng.sample(range(n), min(n, 24))
                    expected = [c for c in candidates
                                if evaluate_under(T, images[:last] + [c], w) == 0]
                    assert T.solutions(images, w, candidates) == expected, (u, power)
                    filtered |= 0 < len(expected) < len(candidates)
        assert filtered

    def test_runs_that_vanish_modulo_the_order_keep_every_candidate(self, table_h):
        # every run of x^16 y^32 x^-16 y^16 is the identity, and so is its
        # mix with a run that is not
        candidates = [5, 0, 3, 9]
        w = Word.of([(0, 16), (1, 32), (0, -16), (1, 16)])
        assert table_h.solutions([7], w, candidates) == candidates
        w = Word.of([(0, 16), (1, 2), (0, -16), (1, 16)])
        assert table_h.solutions([7], w, candidates) == \
            [c for c in candidates if evaluate_under(table_h, [7, c], w) == 0]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_run_is_reduced_modulo_the_group_order(self, sign):
        # 6 * 10**18 + 2 passes would not finish; the run is applied twice
        T = todd_coxeter(parse_presentation("< x | x^6 >"))
        huge = Word.of([(0, sign * (6 * 10**18 + 2))])
        assert T.solutions([], huge, range(6)) == T.solutions([], Word.of([(0, 2 * sign)]), range(6))
        assert T.solutions([], huge, range(6)) == \
            [e for e in range(6) if 2 % element_order(T, e) == 0]


class TestSearchParity:
    """``enumerate_endomorphisms`` against the plain search of the oracle:
    the same endomorphisms in the same order."""

    @pytest.mark.parametrize("text", [f[1] for f in FIXTURE_CERTIFICATES],
                             ids=[f[0] for f in FIXTURE_CERTIFICATES])
    def test_every_fixture(self, text):
        P = parse_presentation(text)
        T = todd_coxeter(P)
        endos = enumerate_endomorphisms(T)
        assert endos == search_endomorphisms(T)
        assert image_tuples(T, endos)

    def test_psl2_13(self, table_psl, endos_psl):
        assert endos_psl == search_endomorphisms(table_psl)
        assert image_tuples(table_psl, endos_psl)

    @pytest.mark.parametrize("inner_dedup", [True, False])
    def test_the_induced_set_takes_the_search_output(self, table_h, res_h, h2_h, endos_h,
                                                      inner_dedup):
        classes = induced_h2_set(res_h, h2_h, endos_h, inner_dedup=inner_dedup)
        assert classes == induced_h2_set(res_h, h2_h, search_endomorphisms(table_h),
                                         inner_dedup=inner_dedup)
        assert sum(c.multiplicity for c in classes) == len(endos_h) == 128
        assert all(c.witness_images in endos_h for c in classes)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases(self, name):
        P = EDGE_CASES[name]
        T = todd_coxeter(P)
        expected = search_endomorphisms(T)
        assert len(expected) > 1
        assert enumerate_endomorphisms(T) == expected

    @pytest.mark.parametrize("text,completed,classes", [
        # x_0 is central and x_1 is not, so x_0's classes are walked by x_1 and x_2
        (Z2XS3_TEXT, 4, 4),
        # x^6 admits the involutions, but y x y^-1 = x^2 forces phi(x)^3 = 1,
        # so the class of involutions is a representative with no completion
        ("< x, y | x^6, y^2, y*x*y^-1*x^-2 >", 2, 3),
        # Q8 with no pure power: every element is a candidate for x_0
        ("< x, y | x*y*x*y^-1, y*x*y*x^-1 >", 5, 5),
        # Z2 x S3 with the middle generator central: the walk skips x_1
        ("< a, z, b | a^3, z^2, b^2, (a*b)^2, z*a*z^-1*a^-1, z*b*z^-1*b^-1 >", 2, 2),
    ], ids=["x0_central", "a_class_without_completion", "no_pure_power", "x1_central"])
    def test_the_class_search(self, text, completed, classes):
        T = todd_coxeter(parse_presentation(text))
        expected = search_endomorphisms(T)
        assert enumerate_endomorphisms(T) == expected
        assert len({least_conjugate(T, f[0]) for f in expected}) == completed
        assert len({least_conjugate(T, e) for e in x0_candidates(T)}) == classes

    @pytest.mark.parametrize("text,count", [
        ("< x | x^6, x^-100 >", 2),
        ("< x, y | x^4, x^6, y^-35, x*y*x^-1*y^-1 >", 70),
    ], ids=["z2_from_two_powers", "z2xz35_from_three_powers"])
    def test_pure_powers_past_the_group_order(self, text, count):
        # the exponents 100 and 35 are past or at the group order, so the
        # pure-power filter runs on reduced exponents
        T = todd_coxeter(parse_presentation(text))
        expected = search_endomorphisms(T)
        assert len(expected) == count
        assert enumerate_endomorphisms(T) == expected

    def test_seeded_corpus(self):
        corpus = seeded_corpus(40)
        assert max(T.order for _, T in corpus) > 100
        for P, T in corpus:
            expected = search_endomorphisms(T)
            assert enumerate_endomorphisms(T) == expected, P


def x0_candidates(T):
    """The elements whose order divides the exponent of each pure power of x_0."""
    exponents = [w.letters[0][1] for w in T.presentation.relators
                 if len(w.letters) == 1 and w.max_generator() == 0]
    return [e for e in range(T.order)
            if all(exp % element_order(T, e) == 0 for exp in exponents)]


def least_conjugate(T, e):
    return min(T.mult(T.mult(a, e), T.inv(a)) for a in range(T.order))


class TestClassSearch:
    """The search below x_0 runs once per conjugacy class of x_0's candidates,
    from the class's least member."""

    @pytest.mark.parametrize("group,classes,candidates", [("g", 7, 63), ("psl", 2, 92)])
    def test_x0_takes_the_least_member_of_each_class(self, monkeypatch, request, group,
                                                      classes, candidates):
        T = request.getfixturevalue(f"table_{group}")
        solutions = T.solutions
        first_images = set()

        def recording(images, w, survivors):
            if images and w.max_generator() >= 1:  # a search node, not a pure power
                first_images.add(images[0])
            return solutions(images, w, survivors)

        monkeypatch.setattr(T, "solutions", recording)
        endos = enumerate_endomorphisms(T)
        monkeypatch.undo()
        assert endos == request.getfixturevalue(f"endos_{group}")
        members = {least_conjugate(T, e) for e in x0_candidates(T)}
        assert first_images == members
        assert (len(members), len(x0_candidates(T))) == (classes, candidates)


class TestEndoAlgebra:
    # an endomorphism applies to an element by evaluating the element's
    # representative word under the generator images

    def test_apply_to_element_extends_images(self, table_h, endos_h):
        f = endos_h[7]
        words = representative_words(table_h)
        for j in range(2):
            assert evaluate_under(
                table_h, f, words[table_h.generator_element(j)]) == f[j]

    def test_apply_is_a_homomorphism(self, table_h, endos_h):
        f = endos_h[7]
        words = representative_words(table_h)
        for a in range(0, 16, 3):
            for b in range(16):
                lhs = evaluate_under(table_h, f, words[table_h.mult(a, b)])
                rhs = table_h.mult(evaluate_under(table_h, f, words[a]),
                                   evaluate_under(table_h, f, words[b]))
                assert lhs == rhs

    def test_compose_closure(self, table_h, endos_h):
        images = set(endos_h)
        for a in endos_h[::13]:
            for b in endos_h[::13]:
                c = compose(table_h, a, b)
                assert c in images

    def test_compose_associative_sample(self, table_h, endos_h):
        a, b, c = endos_h[3], endos_h[40], endos_h[100]
        assert compose(table_h, compose(table_h, a, b), c) == \
            compose(table_h, a, compose(table_h, b, c))

    def test_conjugate_is_an_endomorphism(self, table_h, endos_h):
        for f in endos_h[::17]:
            for a in range(0, 16, 5):
                g = conjugate_endomorphism(table_h, a, f)
                assert is_endomorphism(table_h, g)


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
            orbit = {conjugate_endomorphism(table_h, a, rep)
                     for a in range(table_h.order)}
            assert rep == min(orbit)

    def test_abelian_groups_have_singleton_classes(self):
        P = parse_presentation(SMALL_GROUP_TEXTS["z3xz3"])
        T = todd_coxeter(P)
        endos = enumerate_endomorphisms(T)
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
        ident = tuple(table_h.generator_element(j) for j in range(2))
        classes = dedup_modulo_inner(table_h, [ident])
        assert classes[0][1] == 1
        orbit = {conjugate_endomorphism(table_h, a, ident)
                 for a in range(table_h.order)}
        assert len(orbit) == 4


class TestDedupParity:
    """``dedup_modulo_inner`` against the oracle's walk by every generator:
    the same classes, sizes and order."""

    def test_abelian_z9xz9(self, table_z9, endos_z9):
        classes = dedup_modulo_inner(table_z9, endos_z9)
        assert len(classes) == 6561
        assert classes == orbit_walk_dedup(table_z9, endos_z9)
        assert image_tuples(table_z9, [rep for rep, _ in classes])

    def test_h16(self, table_h, endos_h):
        classes = dedup_modulo_inner(table_h, endos_h)
        assert classes == orbit_walk_dedup(table_h, endos_h)
        assert image_tuples(table_h, [rep for rep, _ in classes])

    def test_a_central_generator(self):
        P = parse_presentation(Z2XS3_TEXT)
        T = todd_coxeter(P)
        assert T.order == 12
        z = T.generator_element(0)
        assert all(T.mult(z, e) == T.mult(e, z) for e in range(T.order))
        endos = enumerate_endomorphisms(T)
        classes = dedup_modulo_inner(T, endos)
        assert classes == orbit_walk_dedup(T, endos) == brute_force_dedup(T, endos)
        assert any(size > 1 for _, size in classes)

    @pytest.mark.parametrize("group", ["h", "z9"])
    def test_repeated_endomorphisms(self, request, group):
        T = request.getfixturevalue(f"table_{group}")
        endos = request.getfixturevalue(f"endos_{group}")
        listed = random.Random(9).choices(endos, k=300) + endos[:5] * 3
        classes = dedup_modulo_inner(T, listed)
        assert classes == orbit_walk_dedup(T, listed)
        assert sum(size for _, size in classes) == len(listed)
        assert any(size > 1 for _, size in classes)


class TestInducedSet:
    def test_order_243_group(self, res_g, h2_g, endos_g):
        classes = induced_h2_set(res_g, h2_g, endos_g)
        assert len(classes) == 2
        zero, ident = classes
        assert is_zero_endo(zero.matrix) and zero.multiplicity == 2997
        assert is_identity_endo(ident.matrix) and ident.multiplicity == 1458
        assert zero.witness_images == (0, 0)

    def test_order_16_group(self, res_h, h2_h, endos_h):
        classes = induced_h2_set(res_h, h2_h, endos_h)
        assert len(classes) == 3
        matrices = {c.matrix: c.multiplicity for c in classes}
        assert matrices[((0, 0), (0, 0))] == 96
        assert matrices[((1, 0), (0, 1))] == 16
        assert matrices[((0, 1), (1, 0))] == 16
        swap = ((0, 1), (1, 0))
        assert is_identity_endo(compose_h2(swap, swap, h2_h.invariant_factors))

    def test_dedup_off_agrees(self, res_h, h2_h, endos_h):
        on = induced_h2_set(res_h, h2_h, endos_h, inner_dedup=True)
        off = induced_h2_set(res_h, h2_h, endos_h, inner_dedup=False)
        assert [(c.matrix, c.multiplicity) for c in on] == \
            [(c.matrix, c.multiplicity) for c in off]

    @pytest.mark.parametrize("group", ["h", "g"])
    def test_dedup_off_keeps_the_least_witness_in_any_order(self, request, group):
        # in reverse order each fiber meets its least member last: the set
        # sorts the endomorphisms first, so the witness stays the least
        R = request.getfixturevalue(f"res_{group}")
        h = request.getfixturevalue(f"h2_{group}")
        endos = request.getfixturevalue(f"endos_{group}")
        off = induced_h2_set(R, h, endos, inner_dedup=False)
        assert any(c.multiplicity > 1 for c in off)
        assert induced_h2_set(R, h, endos[::-1], inner_dedup=False) == off
        assert induced_h2_set(R, h, endos) == off

    def test_set_closed_under_composition(self, res_h, h2_h, endos_h):
        classes = induced_h2_set(res_h, h2_h, endos_h)
        matrices = {c.matrix for c in classes}
        for a in classes:
            for b in classes:
                assert compose_h2(a.matrix, b.matrix, h2_h.invariant_factors) in matrices
