import random
import time
import tracemalloc

import pytest

from fppcert import (
    ConsistencyError,
    CosetLimitExceeded,
    GroupTable,
    RelatorTooLong,
    Word,
    parse_presentation,
    todd_coxeter,
)
from fppcert.coset import _hlt, _power, _regular_orbit
from fppcert.presentation import MAX_COSETS

from conftest import SMALL_GROUP_TEXTS, Z9XZ9_TEXT
from oracles import (
    apply_word,
    element_order,
    evaluate_under,
    mult_row,
    representative_words,
    word_length,
    word_product,
)


FIXTURE_IDS = ["h16", "g243", "z9xz9", "psl2-13", "d4", "klein", "q8", "s3", "trivial",
               "z2", "z3", "z3xz3", "z4", "z5"]


def fixture_table(request, name):
    """The presentation and table of a fixture, by its short name."""
    if name in SMALL_GROUP_TEXTS:
        P = parse_presentation(SMALL_GROUP_TEXTS[name])
        return P, todd_coxeter(P)
    return request.getfixturevalue(f"pres_{name}"), request.getfixturevalue(f"table_{name}")


def evaluate_word(T, w):
    """Element index the word evaluates to: its right action on the identity."""
    return apply_word(T, 0, w)


EXPECTED_ORDERS = {
    "trivial": 1,
    "z2": 2,
    "z3": 3,
    "z4": 4,
    "z5": 5,
    "klein": 4,
    "s3": 6,
    "d4": 8,
    "q8": 8,
    "z3xz3": 9,
}


class TestOrders:
    def test_order_243(self, table_g):
        assert table_g.order == 243

    def test_order_16(self, table_h):
        assert table_h.order == 16

    @pytest.mark.parametrize("name", sorted(SMALL_GROUP_TEXTS))
    def test_small_groups(self, name):
        T = todd_coxeter(parse_presentation(SMALL_GROUP_TEXTS[name]))
        assert T.order == EXPECTED_ORDERS[name]

    @pytest.mark.parametrize("name", ["s3", "d4", "q8", "z3xz3"])
    def test_against_sympy(self, name):
        sympy = pytest.importorskip("sympy")
        from sympy.combinatorics.fp_groups import FpGroup
        from sympy.combinatorics.free_groups import free_group

        P = parse_presentation(SMALL_GROUP_TEXTS[name])
        F, x, y = free_group("x, y")
        gens = {0: x, 1: y}
        rels = []
        for w in P.relators:
            e = F.identity
            for j, exp in w.letters:
                e = e * gens[j] ** exp
            rels.append(e)
        G = FpGroup(F, rels)
        assert todd_coxeter(P).order == G.order()


class TestLimits:
    def test_free_group_hits_the_cap(self):
        with pytest.raises(CosetLimitExceeded) as exc:
            todd_coxeter(parse_presentation("< x, y | >"), max_cosets=50)
        assert exc.value.limit == 50
        assert exc.value.defined >= 50

    def test_tight_cap_on_finite_group(self, pres_g):
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(pres_g, max_cosets=10)

    def test_generous_cap_still_closes(self, pres_h):
        assert todd_coxeter(pres_h, max_cosets=100_000).order == 16

    def test_bad_cap(self, pres_h):
        with pytest.raises(ValueError):
            todd_coxeter(pres_h, max_cosets=0)

    def test_relator_too_long_to_write_out_is_refused(self):
        P = parse_presentation("< x | x^100000000000000000000 >")
        with pytest.raises(RelatorTooLong) as exc:
            todd_coxeter(P)
        assert isinstance(exc.value, CosetLimitExceeded)
        assert exc.value.limit == 1_000_000
        assert str(exc.value) == (
            "a relator of length 100000000000000000000 is longer than the cap of "
            "1000000 cosets; scanning it could define one coset per letter")

    def test_relator_length_is_compared_with_the_cap(self):
        # the written-out length counts every letter of every run: 6 + 3000 + 2
        P = parse_presentation("< x, y | x^6, x^3000*y^-2, y >")
        with pytest.raises(RelatorTooLong, match="length 3002 is longer than the cap of 3001"):
            todd_coxeter(P, max_cosets=3001)
        assert todd_coxeter(P, max_cosets=3002).order == 6

    @pytest.mark.parametrize("name,defined", [
        ("h", 19), ("g", 132), ("z9", 130), ("psl", 1_897),
        ("d4", 8), ("klein", 4), ("q8", 8), ("s3", 6), ("trivial", 1),
        ("z2", 2), ("z3", 3), ("z3xz3", 10), ("z4", 4), ("z5", 5),
    ], ids=FIXTURE_IDS)
    def test_cosets_defined_on_the_fixtures(self, request, name, defined):
        # the enumeration over <u> closes g243 and psl2-13 under a cap below
        # what the trivial subgroup needs; the other fixtures refuse that
        # route and fall back to the counts pinned below
        P, T = fixture_table(request, name)
        self.assert_cap_closes_at(lambda cap: todd_coxeter(P, max_cosets=cap).action,
                                  P, T, defined)

    @pytest.mark.parametrize("name,defined", [
        ("h", 19), ("g", 359), ("z9", 130), ("psl", 17_152),
        ("d4", 8), ("klein", 4), ("q8", 8), ("s3", 6), ("trivial", 1),
        ("z2", 2), ("z3", 3), ("z3xz3", 10), ("z4", 4), ("z5", 5),
    ], ids=FIXTURE_IDS)
    def test_trivial_subgroup_cosets_defined_on_the_fixtures(self, request, name, defined):
        P, T = fixture_table(request, name)
        self.assert_cap_closes_at(lambda cap: GroupTable(P, _hlt(P, cap)).action,
                                  P, T, defined)

    @staticmethod
    def assert_cap_closes_at(table_action, P, T, defined):
        # the enumeration defines exactly this many cosets, so the cap closes
        # at it and not below; the trivial group defines none, and a cap of 0
        # is refused, and a cap below the longest relator is refused before
        # enumerating
        assert table_action(defined) == T.action
        if defined == 1:
            with pytest.raises(ValueError):
                table_action(0)
            return
        with pytest.raises(CosetLimitExceeded) as exc:
            table_action(defined - 1)
        longest = max(sum(abs(exp) for _, exp in w.letters) for w in P.relators)
        assert isinstance(exc.value, RelatorTooLong) == (longest > defined - 1)
        if longest <= defined - 1:
            assert exc.value.defined == defined - 1

    def test_a_long_relator_is_scanned_in_linear_time(self):
        # scanning x^20000 at coset 0 defines 19,999 cosets in one scan
        P = parse_presentation("< x | x^20000, x^4 >")
        start = time.perf_counter()
        T = todd_coxeter(P, max_cosets=20_010)
        assert T.order == 4
        assert time.perf_counter() - start < 5


class TestRegularOrbit:
    """The regular action as the orbit of a base of the cosets of <u>."""

    @staticmethod
    def routed(named_presentations):
        """The names of the presentations whose route is taken, each action
        checked, after the table's numbering, against the trivial subgroup's."""
        taken = []
        for name, P in named_presentations:
            action = _regular_orbit(P, MAX_COSETS)
            if action is not None:
                assert GroupTable(P, action).action == GroupTable(P, _hlt(P, MAX_COSETS)).action
                taken.append(name)
        return taken

    def test_the_route_gives_the_trivial_subgroup_action_on_the_fixtures(self):
        from test_resolution import FIXTURE_TEXTS
        named = [(name, parse_presentation(text)) for name, text in sorted(FIXTURE_TEXTS.items())]
        assert self.routed(named) == ["g", "psl"]

    def test_the_route_gives_the_trivial_subgroup_action_on_the_corpus(self):
        from test_endos import seeded_corpus
        corpus = seeded_corpus(40)
        assert len(self.routed(enumerate(P for P, _ in corpus))) == 4

    @pytest.mark.parametrize("text,order", [
        (Z9XZ9_TEXT, 81),
        ("< x, y | x^16, y^16, x*y*x^-1*y^-1 >", 256),
        ("< x | x^3000 >", 3000),
        ("< x | x^6, x^4 >", 2),
        ("< x, y | x*y^-2, y*x^-3 >", 5),
    ], ids=["z9xz9", "z16xz16", "H=G", "u-of-order-below-k", "no-proper-power"])
    def test_the_route_is_refused(self, text, order):
        # <x> is normal, or all of G, or of order 2 < 6, so no orbit of the
        # cosets of <x> reaches m k points; accepting a shorter orbit would
        # take the action on G / core(H), a quotient GroupTable cannot tell
        # from G: z9xz9 would get order 9.  With no proper power there is no
        # subgroup to enumerate
        P = parse_presentation(text)
        assert _regular_orbit(P, MAX_COSETS) is None
        assert todd_coxeter(P).order == order

    def test_an_infinite_group_raises_the_fallbacks_limit(self):
        # the route over <x> hits the cap, and so does the fallback after it
        P = parse_presentation("< x, y | x^2 >")
        assert _regular_orbit(P, 50) is None
        with pytest.raises(CosetLimitExceeded) as fallback:
            _hlt(P, 50)
        with pytest.raises(CosetLimitExceeded) as exc:
            todd_coxeter(P, max_cosets=50)
        assert type(exc.value) is CosetLimitExceeded
        assert (exc.value.limit, exc.value.defined) == (fallback.value.limit,
                                                        fallback.value.defined)


class TestTableStructure:
    def test_identity_is_zero(self, table_g):
        assert all(table_g.mult(0, e) == e == table_g.mult(e, 0) for e in range(table_g.order))
        assert representative_words(table_g)[0] == Word()

    def test_actions_are_permutations(self, table_g):
        n = table_g.order
        for perm in table_g.action:
            assert sorted(perm) == list(range(n))

    def test_relators_act_trivially(self, table_g, pres_g):
        for w in pres_g.relators:
            for e in range(table_g.order):
                assert apply_word(table_g, e, w) == e

    def test_representative_words_evaluate(self, table_h):
        seen = set()
        for e, w in enumerate(representative_words(table_h)):
            assert evaluate_word(table_h, w) == e
            seen.add(e)
        assert len(seen) == table_h.order

    def test_representative_words_are_geodesic_under_bfs(self, table_h):
        lengths = [word_length(w) for w in representative_words(table_h)]
        assert lengths[0] == 0
        # BFS layers: lengths never decrease along the numbering
        assert all(b >= a for a, b in zip(lengths, lengths[1:]))

    def test_mult_associative_on_sample(self, table_h):
        n = table_h.order
        for a in range(n):
            for b in range(n):
                for c in range(0, n, 5):
                    assert table_h.mult(table_h.mult(a, b), c) == \
                        table_h.mult(a, table_h.mult(b, c))

    def test_inverses(self, table_h):
        for e in range(table_h.order):
            assert table_h.mult(e, table_h.inv(e)) == 0
            assert table_h.mult(table_h.inv(e), e) == 0

    @pytest.mark.parametrize("name", ["table_g", "table_z9", "table_psl"]
                             + sorted(SMALL_GROUP_TEXTS))
    def test_tree_inverses_on_every_fixture_group(self, request, name):
        if name in SMALL_GROUP_TEXTS:
            T = todd_coxeter(parse_presentation(SMALL_GROUP_TEXTS[name]))
        else:
            T = request.getfixturevalue(name)
        for e in range(T.order):
            assert T.mult(e, T.inv(e)) == T.mult(T.inv(e), e) == 0, e

    def test_generator_elements(self, table_g, pres_g):
        for j in range(pres_g.num_generators):
            assert table_g.generator_element(j) == \
                evaluate_word(table_g, Word.of([(j, 1)]))

    def test_word_closure_covers_group(self, table_g):
        # multiplying the generator set transitively reaches every element
        reached = {0}
        frontier = [0]
        while frontier:
            e = frontier.pop()
            for j in range(table_g.num_generators):
                for t in (table_g.action[j][e], table_g.action_inv[j][e]):
                    if t not in reached:
                        reached.add(t)
                        frontier.append(t)
        assert len(reached) == 243


class TestElementOrders:
    """The table's element orders, read through the oracle's ``mult`` walk."""

    def test_identity(self, table_g):
        assert element_order(table_g, 0) == 1

    def test_lagrange_in_the_order_243_group(self, table_g):
        orders = {element_order(table_g, e) for e in range(table_g.order)}
        assert orders <= {1, 3, 9, 27, 81, 243}

    def test_order_divides_group_order(self, table_h):
        for e in range(table_h.order):
            assert 16 % element_order(table_h, e) == 0

    def test_power_to_order_is_identity(self, table_h):
        for e in range(table_h.order):
            n = element_order(table_h, e)
            acc = 0
            for _ in range(n):
                acc = table_h.mult(acc, e)
            assert acc == 0

    def test_cyclic(self):
        T = todd_coxeter(parse_presentation("< x | x^5 >"))
        x = T.generator_element(0)
        assert element_order(T, x) == 5


class TestEvaluateWord:
    def test_empty_word(self, table_h):
        assert evaluate_word(table_h, Word()) == 0

    def test_homomorphism_property(self, table_h):
        words = [Word.of([(0, 1)]), Word.of([(1, 1)]), Word.of([(0, 1), (1, -1)]),
                 Word.of([(0, 2), (1, 3)]), Word.of([(1, -2), (0, -1)])]
        for u in words:
            for v in words:
                assert evaluate_word(table_h, word_product(u, v)) == \
                    table_h.mult(evaluate_word(table_h, u), evaluate_word(table_h, v))

    def test_invalid_generator(self, table_h):
        with pytest.raises(IndexError):
            evaluate_word(table_h, Word.of([(5, 1)]))


def relabelled(action, seed):
    """The same action with points 1..n-1 shuffled; point 0 stays put."""
    n = len(action[0])
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    sigma = [0] + rest
    out = [[0] * n for _ in action]
    for perm, new in zip(action, out):
        for p in range(n):
            new[sigma[p]] = sigma[perm[p]]
    return out


class TestGroupTableRejects:
    def test_an_action_that_is_not_a_permutation(self):
        P = parse_presentation("< x | x^3 >")
        with pytest.raises(ConsistencyError, match="generator 0 does not act by a permutation"):
            GroupTable(P, [[1, 2, 2]])

    def test_an_action_on_no_points(self):
        P = parse_presentation("< x | x^3 >")
        with pytest.raises(ConsistencyError, match="the action has no points"):
            GroupTable(P, [[]])

    @pytest.mark.parametrize("action,count", [
        ([], 0),
        # the regular action of Z2 x Z2, with a third permutation
        ([[1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], 3),
    ], ids=["none", "three"])
    def test_an_action_count_that_is_not_the_generator_count(self, action, count):
        P = parse_presentation("< x, y | x^2, y^2, (x*y)^2 >")
        with pytest.raises(ConsistencyError, match=f"{count} generator actions for 2 generators"):
            GroupTable(P, action)

    def test_a_relator_that_does_not_act_trivially(self):
        # the regular action of Z4 does not satisfy x^3
        P = parse_presentation("< x | x^3 >")
        with pytest.raises(ConsistencyError, match="a relator does not act trivially"):
            GroupTable(P, [[1, 2, 3, 0]])

    def test_a_huge_power_is_checked_by_squaring(self):
        # 10^20 times x^6; replayed letter by letter this would never end
        P = parse_presentation("< x | x^6, x^600000000000000000000 >")
        assert GroupTable(P, [[1, 2, 3, 4, 5, 0]]).order == 6

    @pytest.mark.parametrize("exp", ["600000000000000000001", "-600000000000000000001"])
    def test_a_huge_power_that_does_not_act_trivially(self, exp):
        P = parse_presentation(f"< x | x^6, x^{exp} >")
        with pytest.raises(ConsistencyError, match="a relator does not act trivially"):
            GroupTable(P, [[1, 2, 3, 4, 5, 0]])

    def test_a_tree_edge_that_does_not_follow_its_generator(self, pres_h, table_h):
        # the last element is not a neighbour of the identity, so its edge
        # read from parent 0 leads elsewhere
        assert table_h.tree_edges[-1][1] != 0

        class CorruptTree(GroupTable):
            def _number_by_bfs(self, action):
                action, action_inv, edges = super()._number_by_bfs(action)
                t, _, move = edges[-1]
                return action, action_inv, edges[:-1] + ((t, 0, move),)

        with pytest.raises(ConsistencyError, match="a tree edge does not follow its generator"):
            CorruptTree(pres_h, table_h.action)

    def test_an_action_that_is_not_transitive(self):
        # Z2 acting on two orbits {0, 1} and {2, 3}
        P = parse_presentation("< x | x^2 >")
        with pytest.raises(ConsistencyError, match="not transitive"):
            GroupTable(P, [[1, 0, 3, 2]])

    @pytest.mark.parametrize("name,pres", [("table_h", "pres_h"), ("table_g", "pres_g"),
                                           ("table_z9", "pres_z9")], ids=["h", "g", "z9"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_relabelled_action_gives_the_same_table(self, request, name, pres, seed):
        T = request.getfixturevalue(name)
        P = request.getfixturevalue(pres)
        shuffled = relabelled(T.action, seed)
        assert shuffled != [list(perm) for perm in T.action]
        U = GroupTable(P, shuffled)
        assert U.action == T.action
        assert U.action_inv == T.action_inv
        assert [w.letters for w in representative_words(U)] == \
            [w.letters for w in representative_words(T)]
        assert U.tree_edges == T.tree_edges
        assert all(mult_row(U, a) == mult_row(T, a) for a in range(T.order))


class TestDeterminism:
    def test_same_numbering_across_runs(self, pres_h, table_h):
        again = todd_coxeter(pres_h)
        assert again.action == table_h.action
        assert representative_words(again) == representative_words(table_h)


def replay_mult_row(T, a):
    """Brute-force oracle: row a of the table, replaying every representative word from a."""
    return tuple(apply_word(T, a, w) for w in representative_words(T))


class TestMultTable:
    @pytest.mark.parametrize("name", [
        "table_h", "table_g", "table_z9",
        # order 1 has no tree edge; order 2 composes its one column from
        # a parent column of two entries
        pytest.param("< x | x >", id="trivial"), pytest.param("< x | x^2 >", id="z2")])
    def test_tree_table_equals_word_replay(self, request, name):
        T = request.getfixturevalue(name) if name.startswith("table_") else \
            todd_coxeter(parse_presentation(name))
        assert all(mult_row(T, a) == replay_mult_row(T, a) for a in range(T.order))
        assert type(T.columns) is tuple and len(T.columns) == T.order
        assert all(type(col) is tuple and len(col) == T.order for col in T.columns)

    def test_seeded_rows_of_psl2_13_equal_word_replay(self, table_psl):
        rows = random.Random(13).sample(range(table_psl.order), 50)
        assert all(mult_row(table_psl, a) == replay_mult_row(table_psl, a) for a in rows)

    def test_tree_with_inverse_moves(self):
        # x^-1 reaches element 2 of Z5, so the tree takes an inverse move
        T = todd_coxeter(parse_presentation("< x | x^5 >"))
        assert any(move >= T.num_generators for _, _, move in T.tree_edges)
        assert all(mult_row(T, a) == replay_mult_row(T, a) for a in range(T.order))

    def test_cyclic_of_order_1000_adds_exponents(self):
        n = 1000
        T = todd_coxeter(parse_presentation(f"< x | x^{n} >"))
        assert T.order == n
        exponent = [sum(exp for _, exp in w.letters) % n for w in representative_words(T)]
        assert sorted(exponent) == list(range(n))
        for a in range(n):
            ea = exponent[a]
            assert [exponent[T.mult(a, b)] for b in range(n)] == \
                [(ea + eb) % n for eb in exponent]
            assert exponent[T.inv(a)] == -ea % n


class TestTableMemory:
    """The table is held once: n columns of n references, 8 n^2 bytes.

    A second n^2 copy alive during the build, such as a transpose of the
    columns, would push the traced peak past 2 x 8 n^2.
    """

    @pytest.mark.parametrize("name,pres", [("table_g", "pres_g"), ("table_psl", "pres_psl")],
                             ids=["g243", "psl2-13"])
    def test_build_peak_is_one_table(self, request, name, pres):
        T = request.getfixturevalue(name)
        P = request.getfixturevalue(pres)
        tracemalloc.start()
        try:
            GroupTable(P, T.action)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 8 * T.order ** 2


class TestPSL213Table:
    @pytest.fixture(scope="class")
    def table(self, table_psl):
        return table_psl

    def test_order(self, table):
        assert table.order == 1092

    def test_inverses(self, table):
        assert all(table.mult(a, table.inv(a)) == 0 for a in range(table.order))

    def test_associative_on_a_seeded_sample(self, table):
        rng = random.Random(13)
        for _ in range(20000):
            a, b, c = (rng.randrange(table.order) for _ in range(3))
            assert table.mult(table.mult(a, b), c) == table.mult(a, table.mult(b, c))

    def test_sampled_rows_equal_word_replay(self, table):
        for a in random.Random(7).sample(range(table.order), 10):
            assert mult_row(table, a) == replay_mult_row(table, a)


def power_exponents(n):
    """1, 2, 3, 7, 8, 2^k - 1 for k the bit length of n, n - 1, n, n + 1 and 10^20 + 1."""
    return sorted({1, 2, 3, 7, 8, 2 ** n.bit_length() - 1, n - 1, n, n + 1, 10 ** 20 + 1})


def then(p, q):
    """The permutation p followed by q, as lists of images."""
    return [q[x] for x in p]


def repeated(x, exponents, mul, one, n):
    """{e: x^e} by repeated multiplication from ``one``; past n + 1 the
    exponent is taken mod n, as x^n = 1 for every x of a group of order n."""
    out, acc, k = {}, one, 0
    for e in sorted(exponents, key=lambda e: e if e <= n + 1 else e % n):
        while k < (e if e <= n + 1 else e % n):
            acc, k = mul(acc, x), k + 1
        out[e] = acc
    return out


class TestPower:
    """``_power`` is the one power routine: it raises generator permutations
    for the relator check and the walk starts (``_word_action``), and lists
    of elements for the search (``_powers``)."""

    @pytest.mark.parametrize("name", ["table_h", "table_g", "table_psl"])
    def test_permutation_powers_match_repeated_composition(self, request, name):
        T = request.getfixturevalue(name)
        n = T.order
        word = Word.of([(0, 2), (1, -1), (0, 1)])
        for perm in list(T.action) + list(T.action_inv) + [T._word_action(word.letters)]:
            perm = list(perm)
            expected = repeated(perm, power_exponents(n), then, list(range(n)), n)
            for e, p in expected.items():
                assert _power(perm, e, then, lambda q: then(q, q)) == p, e

    @pytest.mark.parametrize("name", ["table_h", "table_g", "table_psl"])
    def test_element_powers_match_repeated_multiplication(self, request, name):
        T = request.getfixturevalue(name)
        n = T.order
        elems = list(range(n))
        random.Random(n).shuffle(elems)
        expected = repeated(elems, power_exponents(n),
                            lambda xs, ys: [T.mult(a, b) for a, b in zip(xs, ys)], [0] * n, n)
        for e, powers in expected.items():
            assert list(T._powers(elems, e)) == powers, e
        assert T._powers(elems, 1) is elems

    @pytest.mark.parametrize("name", ["table_h", "table_g", "table_psl"])
    def test_word_action_matches_the_letter_by_letter_walk(self, request, name):
        # runs past the order, of both signs, and a huge one
        T = request.getfixturevalue(name)
        n = T.order
        rng = random.Random(n)
        for exps in ([n + 3, -(n - 1)], [-7, 10 ** 20 + 1, 2], [8, -3, 2 ** 11 - 1]):
            w = Word.of((rng.randrange(2), e) for e in exps)
            small = Word.of((j, e % n if abs(e) > 2 * n else e) for j, e in w.letters)
            assert T._word_action(w.letters) == [apply_word(T, e, small) for e in range(n)], w


class TestEvaluateUnder:
    def test_generator_images_evaluate_like_the_word(self, table_g):
        images = [table_g.generator_element(j) for j in range(table_g.num_generators)]
        for e, w in enumerate(representative_words(table_g)):
            assert evaluate_under(table_g, images, w) == e

    def test_relator_under_an_endomorphism(self, table_h, pres_h, endos_h):
        for phi in endos_h[::9]:
            assert all(evaluate_under(table_h, phi, w) == 0 for w in pres_h.relators)
