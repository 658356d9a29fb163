"""Tietze moves leave the group, its table and its certificate invariants alone.

Cyclically permuting, inverting or conjugating a relator replaces it by a
relator with the same normal closure, so the presented group, with the same
generators, does not change (Magnus, Karrass and Solitar, *Combinatorial
Group Theory*, ch. 1).  The numbered table is a function of the group and
its generators, so it must come out identical, and so must the order, H1,
H2, the trace residues and the verdict.  Adding a consequence relator keeps
the group and adds one relator, so the deficiency gap (r - g) - k grows by
exactly one.  The Nielsen substitution x -> x y is an automorphism of the
free group, so it presents the same group on other generators (ibid.): the
table changes, but no isomorphism invariant of the certificate does.

Every property runs under a derandomized hypothesis profile, so the drawn
moves are the same on every run.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppcert import (
    CosetLimitExceeded,
    Presentation,
    Word,
    fpp_certificate,
    parse_presentation,
    todd_coxeter,
)

from conftest import G_TEXT, H_TEXT, PSL2_13_TEXT, Z2_CUBED_TEXT
from oracles import mult_row, representative_words, word_product

SEEDED = settings(derandomize=True, database=None, deadline=None)


def unit_letters(w: Word):
    return [(j, 1 if e > 0 else -1) for j, e in w.letters for _ in range(abs(e))]


def words(g: int, max_size: int = 3):
    return st.lists(st.tuples(st.integers(0, g - 1), st.sampled_from([-1, 1])),
                    min_size=1, max_size=max_size).map(Word.of)


def with_relators(P: Presentation, relators) -> Presentation:
    return Presentation(P.generator_names, tuple(relators))


def tietze_move(data, P: Presentation) -> Presentation:
    """P with one relator cyclically permuted, inverted or conjugated."""
    i = data.draw(st.integers(0, P.num_relators - 1), label="relator")
    move = data.draw(st.sampled_from(["cycle", "invert", "conjugate"]), label="move")
    w = P.relators[i]
    if move == "cycle":
        letters = unit_letters(w)
        k = data.draw(st.integers(1, len(letters)), label="shift")
        new = Word.of(letters[k:] + letters[:k])
    elif move == "invert":
        new = w.inverse()
    else:
        u = data.draw(words(P.num_generators), label="conjugator")
        new = word_product(u, w, u.inverse())
    return with_relators(P, P.relators[:i] + (new,) + P.relators[i + 1:])


def table_signature(T):
    rows = tuple(mult_row(T, a) for a in range(T.order))
    return (T.action, T.action_inv, representative_words(T), T.tree_edges, rows)


@functools.lru_cache(maxsize=None)
def base_table(text):
    return table_signature(todd_coxeter(parse_presentation(text)))


@functools.lru_cache(maxsize=None)
def base_certificate(text):
    return fpp_certificate(parse_presentation(text))


def invariants(cert):
    return (cert.order, cert.h1_invariant_factors, cert.h2_invariant_factors,
            cert.deficiency_gap, cert.trace_residues, cert.bing, cert.fpp_certified)


class TestTietzeMoves:
    @settings(SEEDED, max_examples=15)
    @given(data=st.data(), text=st.sampled_from([H_TEXT, G_TEXT, Z2_CUBED_TEXT]))
    def test_a_move_leaves_the_table_identical(self, data, text):
        P = tietze_move(data, parse_presentation(text))
        assert table_signature(todd_coxeter(P)) == base_table(text)

    @settings(SEEDED, max_examples=3)
    @given(data=st.data())
    def test_a_move_leaves_the_psl2_13_table_identical(self, data):
        P = tietze_move(data, parse_presentation(PSL2_13_TEXT))
        assert table_signature(todd_coxeter(P)) == base_table(PSL2_13_TEXT)

    @settings(SEEDED, max_examples=8)
    @given(data=st.data(), text=st.sampled_from([H_TEXT, G_TEXT, Z2_CUBED_TEXT]))
    def test_a_move_leaves_the_certificate_invariants(self, data, text):
        P = tietze_move(data, parse_presentation(text))
        assert invariants(fpp_certificate(P)) == invariants(base_certificate(text))

    @settings(SEEDED, max_examples=6)
    @given(data=st.data(), text=st.sampled_from([H_TEXT, G_TEXT, Z2_CUBED_TEXT]))
    def test_a_consequence_relator_raises_the_gap_by_one(self, data, text):
        P = parse_presentation(text)
        r = st.integers(0, P.num_relators - 1)
        i, k = data.draw(r, label="first"), data.draw(r, label="second")
        u = data.draw(words(P.num_generators), label="conjugator")
        consequence = word_product(u, P.relators[i], u.inverse(), P.relators[k])
        cert = fpp_certificate(with_relators(P, P.relators + (consequence,)))
        base = base_certificate(text)
        assert cert.deficiency_gap == base.deficiency_gap + 1
        assert not cert.efficient
        assert cert.order == base.order
        assert cert.h2_invariant_factors == base.h2_invariant_factors


def nielsen(P: Presentation) -> Presentation:
    """P with every x_0 in its relators replaced by x_0 x_1."""
    xy = Word(((0, 1), (1, 1)))
    return with_relators(P, (
        Word.of([run for gen, exp in w.letters
                 for run in ((xy ** exp).letters if gen == 0 else ((gen, exp),))])
        for w in P.relators))


class TestNielsenSubstitution:
    @pytest.mark.parametrize("text", [H_TEXT, G_TEXT, Z2_CUBED_TEXT], ids=["h16", "g243", "z2_cubed"])
    def test_the_substitution_keeps_the_certificate_invariants(self, text):
        P = parse_presentation(text)
        substituted = nielsen(P)
        assert substituted.relators != P.relators
        cert, base = fpp_certificate(substituted), base_certificate(text)
        # invariants() holds the order, H1, H2, the gap, the sorted trace
        # residues, Bing and the verdict
        assert invariants(cert) == invariants(base)
        assert cert.endomorphism_count == base.endomorphism_count
        assert len(cert.induced_h2_maps) == len(base.induced_h2_maps)


def small_presentations():
    """1 to 3 generators, each with a power relator, plus up to 3 short words."""
    def build(g):
        powers = st.lists(st.integers(2, 6), min_size=g, max_size=g)
        return st.tuples(powers, st.lists(words(g, 6), max_size=3)).map(
            lambda pr: Presentation(
                tuple(f"x{j}" for j in range(g)),
                tuple(Word.of([(j, n)]) for j, n in enumerate(pr[0])) + tuple(pr[1])))
    return st.integers(1, 3).flatmap(build)


@settings(SEEDED, max_examples=150)
@given(P=small_presentations())
def test_the_tree_discovers_the_elements_in_order(P):
    try:
        T = todd_coxeter(P, max_cosets=300)
    except CosetLimitExceeded:
        return
    steps = T.action + T.action_inv
    assert [t for t, _, _ in T.tree_edges] == list(range(1, T.order))
    assert all(parent < t and steps[move][parent] == t for t, parent, move in T.tree_edges)
