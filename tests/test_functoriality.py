"""Independent checks on induced H2 maps, mostly above the bar-complex oracle's cap.

* Functoriality, on seeded samples from the order-16 group H16, the
  order-243 group, Z9 x Z9 and PSL(2,13): H2(psi o phi) = H2(psi) H2(phi),
  inner automorphisms act trivially, the identity induces I and the
  trivial map 0 (Brown, *Cohomology of Groups*, GTM 87, ch. II).
* The abelian oracle: for abelian G, H2(G) = Lambda^2 G and H2(phi) is
  Lambda^2 of the map phi induces on G (Brown, ch. V.6).  The matrix A_phi
  of that map is read off the exponent sums of each image's
  representative word.  On Z9 x Z9, H2 = Z9 and H2(phi) is det A_phi; on
  Z3^3 the trace of H2(phi) is the trace of Lambda^2 A_phi, the sum of the
  principal 2x2 minors of A_phi.  Both are basis-free, so they hold in
  whatever coordinates the library picks.  On Z16 x Z16, order 256, every
  pair of images is an endomorphism, so H2(phi) = det A_phi mod 16 is
  checked on seeded random pairs without enumerating the 65536 maps.
"""

import itertools
import random

import pytest

from fppcert import build_resolution, h2_of_group, parse_presentation, todd_coxeter
from fppcert.certify import trace_residue
from fppcert.endos import enumerate_endomorphisms
from fppcert.resolution import ResidueRows, induced_h2_matrix

from conftest import Z3_CUBED_TEXT
from oracles import (
    compose,
    compose_h2,
    conjugate_endomorphism,
    is_identity_endo,
    is_zero_endo,
    representative_words,
)

Z16XZ16_TEXT = "< x, y | x^16, y^16, x*y*x^-1*y^-1 >"

# fixture suffix -> sampled pairs; H16 has k = 2 torsion generators
GROUPS = {"g": 40, "h": 40, "psl": 12, "z9": 40}


@pytest.fixture(params=sorted(GROUPS))
def group(request):
    name = request.param
    return (request.getfixturevalue(f"res_{name}"), request.getfixturevalue(f"residues_{name}"),
            request.getfixturevalue(f"endos_{name}"), GROUPS[name])


class TestFunctoriality:
    def test_composition(self, group):
        R, table, endos, pairs = group
        rng = random.Random(17)
        for _ in range(pairs):
            psi, phi = rng.choice(endos), rng.choice(endos)
            both = compose(R.group, psi, phi)
            assert induced_h2_matrix(table, both) == compose_h2(
                induced_h2_matrix(table, psi), induced_h2_matrix(table, phi),
                table.homology.invariant_factors)

    def test_inner_automorphisms_act_trivially(self, group):
        R, table, endos, pairs = group
        T = R.group
        for phi in random.Random(23).sample(endos, pairs // 4):
            base = induced_h2_matrix(table, phi)
            for j in range(R.g):
                conj = conjugate_endomorphism(T, T.generator_element(j), phi)
                assert induced_h2_matrix(table, conj) == base

    def test_identity_and_trivial_map(self, group):
        R, table, _, _ = group
        identity = induced_h2_matrix(table, [R.group.generator_element(j) for j in range(R.g)])
        trivial = induced_h2_matrix(table, [0] * R.g)
        assert table.homology.invariant_factors
        assert is_identity_endo(identity) and is_zero_endo(trivial)


def abelianized(T, f):
    """A_phi for the image tuple f: column j holds the exponent sums of phi(x_j)'s tree word."""
    A = [[0] * T.num_generators for _ in range(T.num_generators)]
    words = representative_words(T)
    for j, img in enumerate(f):
        for gen, exp in words[img].letters:
            A[gen][j] += exp
    return A


class TestAbelianOracle:
    def test_z9xz9_induces_the_determinant(self, res_z9, h2_z9, residues_z9, endos_z9):
        assert h2_z9.invariant_factors == (9,)
        for phi in random.Random(29).sample(endos_z9, 500):
            (a, b), (c, d) = abelianized(res_z9.group, phi)
            assert induced_h2_matrix(residues_z9, phi) == \
                (((a * d - b * c) % 9,),)

    def test_z16xz16_induces_the_determinant(self):
        P = parse_presentation(Z16XZ16_TEXT)
        T = todd_coxeter(P)
        R = build_resolution(T)
        h = h2_of_group(R)
        assert (T.order, h.invariant_factors, h.free_rank) == (256, (16,), 0)
        table = ResidueRows(R, h)
        rng = random.Random(16)
        for _ in range(500):
            phi = (rng.randrange(256), rng.randrange(256))
            (a, b), (c, d) = abelianized(T, phi)
            assert induced_h2_matrix(table, phi) == (((a * d - b * c) % 16,),)

    def test_z3_cubed_trace_is_the_sum_of_principal_minors(self):
        P = parse_presentation(Z3_CUBED_TEXT)
        T = todd_coxeter(P)
        R = build_resolution(T)
        h = h2_of_group(R)
        assert (h.invariant_factors, h.free_rank) == ((3, 3, 3), 0)
        endos = enumerate_endomorphisms(T)
        assert len(endos) == 3 ** 9
        table = ResidueRows(R, h)
        for phi in random.Random(31).sample(endos, 300):
            A = abelianized(T, phi)
            minors = sum(A[s][s] * A[t][t] - A[s][t] * A[t][s]
                         for s, t in itertools.combinations(range(3), 2))
            assert trace_residue(induced_h2_matrix(table, phi), 3) == minors % 3
