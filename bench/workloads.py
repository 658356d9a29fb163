"""The benchmark's workloads: fixed presentations, their seeded variants,
and the certificate facts each one must show.

Seed 0 is the presentation exactly as written.  Any other seed renames
the generators, which leaves every layer's work unchanged: the certificate
differs from seed 0's only in its ``presentation`` string.  Reordering or
rotating relators would present the same group too, but it permutes the
columns of d2, and the echelon build's cost depends on column order (a
factor of 5 in kernel nonzeros on psl2-13), so each such variant would be
another workload.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Workload:
    name: str
    text: str
    # certificate fields known independently of fppcert, plus
    # ``distinct_maps``, the length of ``induced_h2_maps``
    facts: Dict[str, object]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    # Criterion-1 fixture: dominated by the inner-orbit walk (dedup).
    Workload(
        "g243",
        "< x, y | x^3, x*y*x^-1*y*x*y^-1*x^-1*y^-1, x^-1*y^-4*x^-1*y^2*x^-1*y^-1 >",
        {"order": 243, "h1_invariant_factors": [3, 3], "h2_invariant_factors": [3],
         "endomorphism_count": 4455, "distinct_maps": 2, "deficiency_gap": 0,
         "fpp_certified": True}),
    # Abelian, so every inner orbit is a singleton: 9^4 endomorphisms, as
    # many lifts.  H2 = Z_gcd(9,9) and H2(phi) = det(phi) mod 9, which takes
    # all 9 values, -1 among them, so the group is not Bing.
    Workload(
        "z9xz9",
        "< x, y | x^9, y^9, x*y*x^-1*y^-1 >",
        {"order": 81, "h1_invariant_factors": [9, 9], "h2_invariant_factors": [9],
         "endomorphism_count": 6561, "distinct_maps": 9, "deficiency_gap": 0,
         "fpp_certified": False}),
    # PSL(2,13): perfect, Schur multiplier Z2, |Aut| = |PGL(2,13)| = 2184
    # automorphisms plus the trivial map.  Two generators and four
    # relators against one H2 factor leave a gap of 1, so not efficient.
    # Dominated by the group table and the echelon build; only 3 lifts.
    Workload(
        "psl2-13",
        "< x, y | x^2, y^3, (x*y)^7, (x^-1*y^-1*x*y)^7 >",
        {"order": 1092, "h1_invariant_factors": [], "h2_invariant_factors": [2],
         "endomorphism_count": 2185, "distinct_maps": 2, "deficiency_gap": 1,
         "fpp_certified": False}),
    # Self-test only: too short to time, but it runs every layer.
    Workload(
        "h16",
        "< x, y | x^4, y^4, (x*y)^2, (x^-1*y)^2 >",
        {"order": 16, "h1_invariant_factors": [2, 4], "h2_invariant_factors": [2, 2],
         "endomorphism_count": 128, "distinct_maps": 3, "deficiency_gap": 0,
         "fpp_certified": True}),
]}

TIMED = ("g243", "z9xz9", "psl2-13")

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NAME_POOL = [c + (str(i) if i else "") for c in string.ascii_lowercase for i in range(10)]


def presentation_text(workload: Workload, seed: int) -> str:
    """The workload's presentation for ``seed``; seed 0 is the text as written."""
    if seed == 0:
        return workload.text
    names = list(dict.fromkeys(_NAME.findall(workload.text)))
    renamed = dict(zip(names, random.Random(seed).sample(_NAME_POOL, len(names))))
    return _NAME.sub(lambda m: renamed[m.group()], workload.text)


def certificate_facts(cert_json: dict) -> Dict[str, object]:
    """The fields of a certificate's JSON that ``Workload.facts`` names."""
    facts = {k: cert_json[k] for k in (
        "order", "h1_invariant_factors", "h2_invariant_factors",
        "endomorphism_count", "deficiency_gap", "fpp_certified")}
    facts["distinct_maps"] = len(cert_json["induced_h2_maps"])
    return facts
