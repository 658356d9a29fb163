"""Certificates: efficiency + Bing checks, wedge analysis, report rendering."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import endos as endos_mod
from . import resolution as res_mod
from .coset import GroupTable, todd_coxeter
from .errors import ConsistencyError
from .presentation import (
    Presentation,
    euler_characteristic,
    exponent_matrix,
    format_presentation,
)
from .zmatrix import ColumnEchelonSolver, ZMatrix


@dataclass
class CertifyOptions:
    max_cosets: int = 1_000_000
    inner_dedup: bool = True
    oracle_check: bool = False
    oracle_cap: int = 16
    workers: int = 1


def _exponent_map_rank(P: Presentation) -> int:
    E = ZMatrix.from_rows(exponent_matrix(P), cols=P.num_generators)
    cols = [{i: row[j] for i, row in enumerate(E.entries) if row[j]}
            for j in range(E.cols)]
    return ColumnEchelonSolver(cols, E.rows, transform=False).rank


def efficiency_check(P: Presentation, h2_factors: Sequence[int]) -> Tuple[int, int, bool]:
    """Deficiency gap, kernel rank of the exponent map, efficiency verdict.

    The gap is (r - g) minus the number of invariant factors of H2(G); the
    presentation is efficient exactly when the gap is zero.  A negative gap
    or a mismatch between the two efficiency equalities signals a bug.
    """
    g, r = P.num_generators, P.num_relators
    k = len(h2_factors)
    rk_h2_complex = r - _exponent_map_rank(P)
    gap = (r - g) - k
    if gap < 0:
        raise ConsistencyError(
            f"deficiency gap {gap} < 0; H2 computation must be wrong")
    efficient = gap == 0
    if (rk_h2_complex == k) != efficient:
        raise ConsistencyError(
            "rank of H2 of the complex disagrees with the deficiency gap")
    return gap, rk_h2_complex, efficient


def bing_check(induced: Sequence[endos_mod.InducedH2Class],
               d1: Optional[int]) -> Tuple[Tuple[int, ...], bool]:
    """Distinct trace residues mod d1 and the Bing verdict.

    Bing means the residue d1 - 1 never occurs.  With trivial H2 there is
    no d1; the group is reported Bing under the recorded convention.
    """
    if d1 is None:
        return (), True
    residues = sorted({c.endo.trace_residue() for c in induced})
    bing = (d1 - 1) % d1 not in residues
    return tuple(residues), bing


@dataclass
class Certificate:
    presentation: str
    order: int
    h1_invariant_factors: Tuple[int, ...]
    h2_invariant_factors: Tuple[int, ...]
    deficiency_gap: int
    rk_h2_complex: int
    efficient: bool
    chi: int
    endomorphism_count: int
    induced_h2_maps: List[endos_mod.InducedH2Class]
    trace_residues: Tuple[int, ...]
    bing: bool
    fpp_certified: bool
    conventions: Dict[str, bool]
    timings: Dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        k = len(self.h2_invariant_factors)
        if self.efficient != (self.deficiency_gap == 0):
            raise ConsistencyError("efficiency flag disagrees with the gap")
        if self.efficient != (self.rk_h2_complex == k):
            raise ConsistencyError("efficiency flag disagrees with rk H2 of the complex")
        if k:
            d1 = self.h2_invariant_factors[0]
            if self.bing != ((d1 - 1) % d1 not in self.trace_residues):
                raise ConsistencyError("Bing flag disagrees with the trace residues")
        elif not self.bing:
            raise ConsistencyError("trivial H2 must be reported Bing under the convention")
        if self.fpp_certified != (self.efficient and self.bing):
            raise ConsistencyError("certificate conclusion is not efficiency AND Bing")

    def to_json_dict(self, include_timings: bool = True) -> Dict:
        d = {
            "presentation": self.presentation,
            "order": self.order,
            "h1_invariant_factors": list(self.h1_invariant_factors),
            "h2_invariant_factors": list(self.h2_invariant_factors),
            "deficiency_gap": self.deficiency_gap,
            "rk_h2_complex": self.rk_h2_complex,
            "efficient": self.efficient,
            "chi": self.chi,
            "endomorphism_count": self.endomorphism_count,
            "induced_h2_maps": [
                {
                    "matrix": [list(row) for row in c.endo.matrix],
                    "trace_residue": c.endo.trace_residue(),
                    "multiplicity": c.multiplicity,
                    "witness_images": list(c.witness_images),
                }
                for c in self.induced_h2_maps
            ],
            "bing": self.bing,
            "fpp_certified": self.fpp_certified,
            "conventions": dict(self.conventions),
        }
        if include_timings:
            d["timings"] = dict(self.timings)
        return d


def fpp_certificate(P: Presentation, options: Optional[CertifyOptions] = None) -> Certificate:
    """Run the full pipeline and assemble the audit record.

    Stages: coset enumeration, resolution, homology, endomorphism
    enumeration, induced H2 set, efficiency and Bing checks.
    """
    opts = options or CertifyOptions()
    timings: Dict[str, float] = {}

    def timed(stage, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[stage] = time.perf_counter() - t0
        return out

    T = timed("enumerate", lambda: todd_coxeter(P, opts.max_cosets))
    R = timed("resolve", lambda: res_mod.build_resolution(T, P))
    h1 = timed("homology_1", lambda: res_mod.h1_of_group(R))
    if h1.free_rank != 0:
        raise ConsistencyError("closed enumeration but infinite abelianization")
    h2 = timed("homology_2", lambda: res_mod.h2_of_group(R))
    if h2.group.free_rank != 0:
        raise ConsistencyError("H2 of a finite group cannot have free rank")

    if opts.oracle_check and T.order <= opts.oracle_cap:
        oracle = timed("oracle", lambda: res_mod.h2_via_bar_complex(T, opts.oracle_cap))
        if oracle.invariant_factors != h2.invariant_factors:
            raise ConsistencyError(
                f"bar-complex oracle disagrees: {list(oracle.invariant_factors)} "
                f"vs {list(h2.invariant_factors)}")

    endos = timed("endomorphisms",
                  lambda: endos_mod.enumerate_endomorphisms(T, P, workers=opts.workers))
    induced = timed("induced_set", lambda: endos_mod.induced_h2_set(
        T, P, R, h2, inner_dedup=opts.inner_dedup, endomorphisms=endos))

    gap, rk, efficient = efficiency_check(P, h2.invariant_factors)
    d1 = h2.invariant_factors[0] if h2.invariant_factors else None
    residues, bing = bing_check(induced, d1)
    chi = euler_characteristic(P)
    if chi != 1 + rk - h1.free_rank:
        raise ConsistencyError("Euler characteristic cross-check failed")

    cert = Certificate(
        presentation=format_presentation(P),
        order=T.order,
        h1_invariant_factors=h1.invariant_factors,
        h2_invariant_factors=h2.invariant_factors,
        deficiency_gap=gap,
        rk_h2_complex=rk,
        efficient=efficient,
        chi=chi,
        endomorphism_count=len(endos),
        induced_h2_maps=induced,
        trace_residues=residues,
        bing=bing,
        fpp_certified=efficient and bing,
        conventions={
            "inner_dedup": opts.inner_dedup,
            "trivial_h2_is_bing": d1 is None,
            "oracle_checked": bool(opts.oracle_check and T.order <= opts.oracle_cap),
        },
        timings=timings,
    )
    cert.validate()
    return cert


def _prime_power_split(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def merge_invariant_factors(factor_lists: Sequence[Sequence[int]]) -> List[int]:
    """Invariant factors of the direct sum, by prime-power multiset merge."""
    powers: Dict[int, List[int]] = {}
    for factors in factor_lists:
        for f in factors:
            for p, e in _prime_power_split(f).items():
                powers.setdefault(p, []).append(e)
    k = max((len(v) for v in powers.values()), default=0)
    out = []
    for i in range(k):
        d = 1
        for p, exps in powers.items():
            exps_sorted = sorted(exps, reverse=True)
            if i < len(exps_sorted):
                d *= p ** exps_sorted[i]
        out.append(d)
    out.reverse()  # divisibility order, smallest first
    return out


CONCLUSION_FPP = "FPP_CERTIFIED"
CONCLUSION_NO_FPP = "NO_FPP_BY_CITED_RESULTS"
CONCLUSION_INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class WedgeReport:
    """Analysis of a wedge of presentation complexes plus optional extra disks.

    Extra disks are attached along arcs and collapse away; they change no
    homology and are recorded as construction notes only.
    """

    components: List[Certificate]
    extra_disks: int
    combined_h2_invariant_factors: List[int]
    combined_rank: int
    gap: int
    chi: int
    conclusion: str
    notes: List[str]

    def to_json_dict(self, include_timings: bool = True) -> Dict:
        return {
            "components": [c.to_json_dict(include_timings) for c in self.components],
            "extra_disks": self.extra_disks,
            "combined_h2_invariant_factors": list(self.combined_h2_invariant_factors),
            "combined_rank": self.combined_rank,
            "gap": self.gap,
            "chi": self.chi,
            "conclusion": self.conclusion,
            "notes": list(self.notes),
        }


def wedge_analysis(certs: Sequence[Certificate], extra_disks: int = 0) -> WedgeReport:
    """Combine component certificates for the wedge of their complexes.

    H2 of the free product is the direct sum of the components' H2; the
    rank of H2 of the wedge is the sum of the component ranks.  A positive
    gap rules out the fixed point property only through externally cited
    results, which additionally need the extra disk to kill the global
    separating point at the wedge vertex.
    """
    combined = merge_invariant_factors([c.h2_invariant_factors for c in certs])
    rank = sum(c.rk_h2_complex for c in certs)
    gap = rank - len(combined)
    chi = sum(c.chi for c in certs) - (len(certs) - 1) + extra_disks
    notes = []
    if extra_disks:
        notes.append(
            f"{extra_disks} extra disk(s) attached along arcs; each collapses "
            "to the wedge, leaving homotopy type and homology unchanged")
    if gap > 0 and extra_disks >= 1:
        conclusion = CONCLUSION_NO_FPP
        notes.append(
            "rank of H2 of the space exceeds the invariant factor count of "
            "H2 of its fundamental group; no fixed point property by cited "
            "external results (taken as premises, not re-proved here)")
    elif gap == 0 and extra_disks == 0 and all(c.fpp_certified for c in certs):
        conclusion = CONCLUSION_FPP
        notes.append(
            "every component is certified and a wedge of complexes with the "
            "fixed point property has the fixed point property")
    else:
        conclusion = CONCLUSION_INCONCLUSIVE
        if gap > 0:
            notes.append(
                "positive gap, but without an extra disk the wedge point is a "
                "global separating point and the cited results do not apply")
    return WedgeReport(
        components=list(certs),
        extra_disks=extra_disks,
        combined_h2_invariant_factors=combined,
        combined_rank=rank,
        gap=gap,
        chi=chi,
        conclusion=conclusion,
        notes=notes,
    )


def render_report(obj, fmt: str = "human", include_timings: bool = True) -> str:
    """Render a certificate or wedge report as human text or canonical JSON."""
    if isinstance(obj, Certificate):
        obj.validate()
        if fmt == "json":
            return json.dumps(obj.to_json_dict(include_timings), indent=2,
                              ensure_ascii=False)
        lines = [
            f"presentation: {obj.presentation}",
            f"group order: {obj.order}",
            f"H1 invariant factors: {list(obj.h1_invariant_factors)}",
            f"H2 invariant factors: {list(obj.h2_invariant_factors)}",
            f"deficiency gap (r - g) - k: {obj.deficiency_gap}",
            f"rank of H2 of the complex: {obj.rk_h2_complex}",
            f"efficient: {obj.efficient}",
            f"χ(X_P) = {obj.chi}",
            f"endomorphisms: {obj.endomorphism_count}",
            f"distinct induced H2 maps: {len(obj.induced_h2_maps)}",
        ]
        for c in obj.induced_h2_maps:
            lines.append(
                f"  matrix {[list(r) for r in c.endo.matrix]} "
                f"trace residue {c.endo.trace_residue()} "
                f"multiplicity {c.multiplicity} witness {list(c.witness_images)}")
        lines += [
            f"trace residues mod d1: {list(obj.trace_residues)}",
            f"Bing: {obj.bing}",
            f"fixed point property certified: {obj.fpp_certified}",
            f"conventions: {obj.conventions}",
        ]
        return "\n".join(lines)
    if isinstance(obj, WedgeReport):
        if fmt == "json":
            return json.dumps(obj.to_json_dict(include_timings), indent=2,
                              ensure_ascii=False)
        lines = [
            f"wedge of {len(obj.components)} components, {obj.extra_disks} extra disk(s)",
            f"combined H2 invariant factors: {obj.combined_h2_invariant_factors}",
            f"combined rank of H2: {obj.combined_rank}",
            f"gap: {obj.gap}",
            f"χ = {obj.chi}",
            f"conclusion: {obj.conclusion}",
        ]
        for note in obj.notes:
            lines.append(f"note: {note}")
        for c in obj.components:
            lines.append(f"component {c.presentation}: order {c.order}, "
                         f"H2 {list(c.h2_invariant_factors)}, certified {c.fpp_certified}")
        return "\n".join(lines)
    raise TypeError(f"cannot render {type(obj).__name__}")
