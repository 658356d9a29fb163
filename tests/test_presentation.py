import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppcert.errors import ParseError
from fppcert.presentation import (
    MAX_POWER_RUNS,
    Presentation,
    Word,
    euler_characteristic,
    exponent_matrix,
    format_presentation,
    format_word,
    parse_presentation,
)

from oracles import fox_derivative, wedge_presentation, word_length, word_product


def free_reduce(w: Word) -> Word:
    """Freely reduce a word; idempotent on already-reduced input."""
    return Word.of(w.letters)


words = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-3, 3).filter(bool)), max_size=20
).map(lambda pairs: Word.of(pairs))


def W(*pairs):
    return Word.of(pairs)


def ring_add(a, b, sign=1):
    """a + sign * b in the free group ring, dropping zero coefficients."""
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + sign * c
    return {w: c for w, c in out.items() if c}


def ring_mul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = word_product(w1, w2)
            out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


class TestWords:
    def test_cancellation(self):
        assert free_reduce(Word(((0, 1), (0, -1)))) == Word()

    def test_partial_cancellation(self):
        assert free_reduce(Word(((0, 2), (0, -1), (1, 1)))) == W((0, 1), (1, 1))

    @given(words)
    def test_free_reduce_idempotent(self, w):
        assert free_reduce(w) == w
        assert free_reduce(free_reduce(w)) == free_reduce(w)

    @given(words, words)
    def test_product_reduced_and_length_nonincreasing(self, u, v):
        p = word_product(u, v)
        assert free_reduce(p) == p
        assert word_length(p) <= word_length(u) + word_length(v)

    @given(words)
    def test_inverse(self, w):
        assert word_product(w, w.inverse()).is_identity()

    @given(words, st.integers(-6, 6))
    def test_power_matches_repeated_multiplication(self, w, n):
        base = w if n >= 0 else w.inverse()
        expected = Word()
        for _ in range(abs(n)):
            expected = word_product(expected, base)
        assert w ** n == expected

    def test_power_of_a_conjugate_cancels_inside(self):
        x, y = W((0, 1)), W((1, 1))
        xyx = word_product(x, y, x.inverse())
        assert xyx ** 5 == word_product(x, y ** 5, x.inverse())
        assert xyx ** -2 == word_product(x, y ** -2, x.inverse())

    def test_power_of_a_single_run_scales_the_exponent(self):
        # one run, not two million multiplications
        assert W((0, 1)) ** 2_000_000 == Word(((0, 2_000_000),))
        assert W((1, -3)) ** -4 == Word(((1, 12),))


class TestRoot:
    """``Word.root`` splits w into the runs of its shortest root u and the
    power k with w = u^k."""

    @pytest.mark.parametrize("text,root,k", [
        ("x^6", ((0, 1),), 6),
        ("x^-6", ((0, -1),), 6),
        ("y", ((1, 1),), 1),
        ("(x*y)^7", ((0, 1), (1, 1)), 7),
        ("(x^-1*y^-1*x*y)^7", ((0, -1), (1, -1), (0, 1), (1, 1)), 7),
        ("(x^2*y^-3)^-2", ((1, 3), (0, -2)), 2),
        # x y x^2 y x: its runs do not repeat, so the root is the whole word
        ("(x*y*x)^2", ((0, 1), (1, 1), (0, 2), (1, 1), (0, 1)), 1),
        ("x*y*x^-1*y^2", ((0, 1), (1, 1), (0, -1), (1, 2)), 1),
    ])
    def test_root_and_power(self, text, root, k):
        w = parse_presentation(f"< x, y | {text} >").relators[0]
        assert w.root() == (root, k)
        assert Word(root) ** k == w

    def test_the_empty_word_is_its_own_root(self):
        assert Word().root() == ((), 1)

    @given(words.filter(lambda w: len(w.letters) > 1), st.integers(1, 5))
    def test_a_power_of_a_root_has_that_root(self, u, k):
        # a u whose runs merge when repeated is not a root of its powers
        root, j = u.root()
        w = Word(root * (j * k))
        if w == u ** k:
            assert w.root() == (root, j * k)


class TestParser:
    def test_order_243_fixture(self):
        P = parse_presentation(
            "< x, y | x^3, x*y*x^-1*y*x*y^-1*x^-1*y^-1, x^-1*y^-4*x^-1*y^2*x^-1*y^-1 >")
        assert P.num_generators == 2
        assert P.num_relators == 3
        assert P.relators[0] == W((0, 3))

    def test_order_16_fixture_with_parens(self):
        Q = parse_presentation("< x, y | x^4, y^4, (x*y)^2, (x^-1*y)^2 >")
        assert Q.num_generators == 2
        assert Q.num_relators == 4
        assert Q.relators[2] == W((0, 1), (1, 1), (0, 1), (1, 1))

    def test_minimal_trivial_group(self):
        P = parse_presentation("< x | x >")
        assert P.num_generators == 1
        assert P.relators == (W((0, 1)),)

    def test_no_relators(self):
        P = parse_presentation("< x | >")
        assert P.num_relators == 0

    def test_comments_and_whitespace(self):
        P = parse_presentation("# a circle\n< x |  # gens done\n x^3 >")
        assert P.relators == (W((0, 3)),)

    def test_roundtrip_is_identity(self):
        text = "< x, y | x^3, x*y*x^-1*y*x*y^-1*x^-1*y^-1, x^-1*y^-4*x^-1*y^2*x^-1*y^-1 >"
        P = parse_presentation(text)
        assert format_presentation(P) == text
        assert parse_presentation(format_presentation(P)) == P

    def test_relators_come_out_reduced(self):
        P = parse_presentation("< x, y | x^2*x^-1*y >")
        assert P.relators[0] == W((0, 1), (1, 1))

    @pytest.mark.parametrize("bad", [
        "< | x >",
        "< x, x | x >",
        "< x | y >",
        "< x | x^0 >",
        "< x | x*x^-1 >",
        "< x | x > trailing",
        "< x ",
        "x^2",
        "< x | x @ >",
    ])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse_presentation(bad)

    def test_a_generator_as_exponent(self):
        with pytest.raises(ParseError, match="expected integer exponent, found 'y'") as exc:
            parse_presentation("< x | x^y >")
        assert exc.value.position == len("< x | x^")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation("< x | y >")
        assert exc.value.position == 6

    def test_huge_power_of_several_runs_is_a_parse_error(self):
        # written out run by run, this power cannot even be sized
        text = "< x, y | x^2, y^2, (x*y)^100000000000000000000 >"
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert exc.value.position == text.index("100000000000000000000")
        with pytest.raises(ParseError):
            parse_presentation("< x, y | (x*y)^-100000000000000000000 >")

    def test_huge_power_of_one_run_still_parses(self):
        P = parse_presentation("< x | x^100000000000000000000, (x)^-100000000000000000000 >")
        assert P.relators == (W((0, 10 ** 20)), W((0, -10 ** 20)))

    def test_long_product_parses_in_linear_time(self):
        # the product is reduced once, not rebuilt at every "*"
        text = "< x, y | " + "*".join("xy" * 5_000) + " >"
        start = time.perf_counter()
        P = parse_presentation(text)
        assert time.perf_counter() - start < 1.0
        assert P.relators == (Word(((0, 1), (1, 1)) * 5_000),)

    @pytest.mark.parametrize("depth", [5_000, 100_000])
    def test_deep_parentheses_parse_in_linear_time(self, depth):
        # nesting is kept on a list, not on the Python call stack
        text = "< x, y | " + "(" * depth + "x*y^-1" + ")" * depth + " >"
        start = time.perf_counter()
        P = parse_presentation(text)
        assert time.perf_counter() - start < depth / 25_000
        assert P.relators == (W((0, 1), (1, -1)),)

    @pytest.mark.parametrize("depth", [1, 2, 399, 400, 5_001])
    def test_powers_of_nested_words(self, depth):
        # each level inverts, so the word is x*y for even depths
        text = "< x, y | " + "(" * depth + "x*y" + ")^-1" * depth + "*x^2 >"
        want = W((0, 1), (1, 1), (0, 2)) if depth % 2 == 0 else W((1, -1), (0, 1))
        assert parse_presentation(text).relators == (want,)

    def test_long_product_reduces_across_factors(self):
        text = "< x, y | " + "*".join(["x", "y"] * 3 + ["y^-1", "x^-1"] * 3 + ["x^2"]) + " >"
        assert parse_presentation(text).relators == (W((0, 2)),)

    def test_powers_may_write_out_up_to_the_run_limit(self):
        assert MAX_POWER_RUNS == 1_000_000
        P = parse_presentation("< x, y | (x*y)^500000 >")
        assert len(P.relators[0].letters) == MAX_POWER_RUNS
        text = "< x, y | (x*y)^500001 >"
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert str(exc.value) == (
            "exponent 500001 is too large for a word of 2 runs (at position 15)")

    def test_the_run_limit_counts_across_relators(self):
        text = "< x, y | (x*y)^300000, (x*y)^300000 >"
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert exc.value.position == text.rindex("300000")

    def test_the_run_limit_counts_nested_powers(self):
        # the inner power writes 2 * 1000 runs, the outer one 2000 * 500
        assert parse_presentation("< x, y | ((x*y)^1000)^499 >")
        with pytest.raises(ParseError):
            parse_presentation("< x, y | ((x*y)^1000)^500 >")


class TestPresentationInCode:
    """A ``Presentation`` built in code, not parsed, is checked on construction."""

    def test_no_generators_are_refused(self):
        with pytest.raises(ValueError, match="at least one generator"):
            Presentation((), ())

    def test_duplicate_names_are_refused(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            Presentation(("x", "x"), ())

    @pytest.mark.parametrize("name", ["x y", "", "1x", "_x", "x^2", "x\n"])
    def test_a_name_the_parser_cannot_read_is_refused(self, name):
        # < x y | x y^3 > would not parse back
        with pytest.raises(ValueError, match="does not match"):
            Presentation((name,), (W((0, 3)),))

    def test_a_presentation_built_in_code_parses_back(self):
        P = Presentation(("a", "B_2", "x10"), (W((0, 3), (1, -2)), W((2, 5)), W((1, 1), (0, 1))))
        assert parse_presentation(format_presentation(P)) == P

    def test_an_undeclared_generator_is_refused(self):
        with pytest.raises(ValueError, match="undeclared generator"):
            Presentation(("x",), (W((0, 2)), W((1, 1))))

    @pytest.mark.parametrize("letters", [((0, 0),), ((0, 1), (0, -1)), ((0, 1), (0, 2))],
                             ids=["zero_exponent", "cancelling_runs", "adjacent_runs"])
    def test_an_unreduced_relator_is_refused(self, letters):
        # Word(letters) skips Word.of's reduction; the cancelling runs reduce
        # to the empty word
        with pytest.raises(ValueError, match="not a freely reduced word"):
            Presentation(("x",), (Word(letters), W((0, 2))))

    def test_a_negative_generator_index_is_refused(self):
        # it would index the generators from the end, as the last one
        with pytest.raises(ValueError, match="undeclared generator"):
            Presentation(("x", "y"), (Word(((-1, 2),)),))

    def test_an_empty_relator_is_accepted(self):
        assert Presentation(("x",), (Word(),)).relators == (Word(),)

    def test_the_empty_word_cannot_be_formatted(self):
        assert format_word(W((0, 1), (1, -2)), ("x", "y")) == "x*y^-2"
        with pytest.raises(ValueError, match="cannot format the empty word"):
            format_word(Word(), ("x",))


class TestFoxCalculus:
    """The free-group Fox derivative kept in the tests as the reference."""

    def test_power_rule(self):
        d = fox_derivative(W((0, 3)), 0)
        assert d == {Word(): 1, W((0, 1)): 1, W((0, 2)): 1}

    def test_middle_letter_only(self):
        d = fox_derivative(W((0, 1), (1, 1), (0, -1)), 1)
        assert d == {W((0, 1)): 1}

    def test_commutator(self):
        d = fox_derivative(W((0, 1), (1, 1), (0, -1), (1, -1)), 0)
        assert d == {Word(): 1, W((0, 1), (1, 1), (0, -1)): -1}

    def test_invalid_generator(self):
        with pytest.raises(IndexError):
            fox_derivative(W((0, 1)), -1)
        with pytest.raises(IndexError):
            fox_derivative(W((2, 1)), 0, num_generators=2)

    @given(words)
    @settings(max_examples=200)
    def test_fundamental_identity(self, w):
        # sum_j (dw/dx_j) * (x_j - 1) = w - 1
        total = {}
        for j in range(3):
            xj_minus_1 = {W((j, 1)): 1, Word(): -1}
            total = ring_add(total, ring_mul(fox_derivative(w, j), xj_minus_1))
        expected = ring_add({w: 1}, {Word(): 1}, sign=-1)
        assert total == expected

    @given(words)
    def test_augmentation_is_exponent_sum(self, w):
        for j in range(3):
            expected = sum(e for g, e in w.letters if g == j)
            assert sum(fox_derivative(w, j).values()) == expected


class TestExponentMatrix:
    def test_order_243_fixture_matrix(self):
        P = parse_presentation(
            "< x, y | x^3, x*y*x^-1*y*x*y^-1*x^-1*y^-1, x^-1*y^-4*x^-1*y^2*x^-1*y^-1 >")
        assert exponent_matrix(P) == [[3, 0], [0, 0], [-3, -3]]

    def test_order_16_fixture_matrix(self):
        Q = parse_presentation("< x, y | x^4, y^4, (x*y)^2, (x^-1*y)^2 >")
        assert exponent_matrix(Q) == [[4, 0], [0, 4], [2, 2], [-2, 2]]

    def test_single(self):
        assert exponent_matrix(parse_presentation("< x | x >")) == [[1]]


class TestEulerCharacteristic:
    def test_values(self):
        P = parse_presentation(
            "< x, y | x^3, x*y*x^-1*y*x*y^-1*x^-1*y^-1, x^-1*y^-4*x^-1*y^2*x^-1*y^-1 >")
        Q = parse_presentation("< x, y | x^4, y^4, (x*y)^2, (x^-1*y)^2 >")
        circle = parse_presentation("< x | >")
        assert euler_characteristic(P) == 2
        assert euler_characteristic(Q) == 3
        assert euler_characteristic(circle) == 0


class TestWedge:
    @pytest.fixture
    def P(self):
        return parse_presentation(
            "< x, y | x^3, x*y*x^-1*y*x*y^-1*x^-1*y^-1, x^-1*y^-4*x^-1*y^2*x^-1*y^-1 >")

    @pytest.fixture
    def Q(self):
        return parse_presentation("< x, y | x^4, y^4, (x*y)^2, (x^-1*y)^2 >")

    def test_p_wedge_q(self, P, Q):
        W_ = wedge_presentation(P, Q)
        assert W_.num_generators == 4
        assert W_.num_relators == 7
        assert euler_characteristic(W_) == 4

    def test_p_wedge_p(self, P):
        assert euler_characteristic(wedge_presentation(P, P)) == 3

    def test_disjoint_names(self, P):
        Z = parse_presentation("< z | z >")
        W_ = wedge_presentation(P, Z)
        assert W_.generator_names == ("x", "y", "z")
        assert W_.num_relators == 4

    def test_collision_gets_suffix(self, P):
        W_ = wedge_presentation(P, P)
        assert W_.generator_names == ("x", "y", "x2", "y2")
        # relators of the second copy use the renamed generators
        assert W_.relators[3] == Word(((2, 3),))

    def test_chi_additive(self, P, Q):
        for A, B in [(P, Q), (Q, P), (P, P)]:
            assert euler_characteristic(wedge_presentation(A, B)) == \
                euler_characteristic(A) + euler_characteristic(B) - 1
