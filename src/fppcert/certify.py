"""Certificates: efficiency + Bing checks, wedge analysis, report rendering."""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from . import endos as endos_mod
from . import resolution as res_mod
from .coset import todd_coxeter
from .errors import ConsistencyError, InfiniteGroup
from .presentation import (
    MAX_COSETS,
    Presentation,
    euler_characteristic,
    exponent_matrix,
    format_presentation,
    parse_presentation,
)
from .zmatrix import smith_normal_form


@dataclass
class CertifyOptions:
    max_cosets: int = MAX_COSETS
    inner_dedup: bool = True
    oracle_check: bool = False
    workers: int = 1  # the search runs on one thread; ROADMAP item 5 deletes this field


def _exponent_map_rank(P: Presentation) -> int:
    """Rank of the exponent matrix by Smith normal form.

    ``h1_of_group`` takes the same matrix through the echelon solver and the
    Hermite basis, so the Euler characteristic check in
    ``Certificate.validate`` compares two mechanisms.
    """
    return smith_normal_form(exponent_matrix(P)).rank


def efficiency_check(P: Presentation, h2_factors: Sequence[int]) -> Tuple[int, int, bool]:
    """Deficiency gap, kernel rank of the exponent map, efficiency verdict.

    The gap is (r - g) minus the number of invariant factors of H2(G); the
    presentation is efficient exactly when the gap is zero.  This only
    computes: ``Certificate.validate`` holds the rules the values obey.
    """
    gap = (P.num_relators - P.num_generators) - len(h2_factors)
    return gap, P.num_relators - _exponent_map_rank(P), gap == 0


def trace_residue(matrix: Sequence[Sequence[int]], d1: Optional[int]) -> Optional[int]:
    """The trace of an induced H2 matrix mod d1, which Bing's test reads; None for trivial H2."""
    if d1 is None:
        return None
    return sum(row[i] for i, row in enumerate(matrix)) % d1


def bing_check(induced: Sequence[endos_mod.InducedH2Class],
               d1: Optional[int]) -> Tuple[Tuple[int, ...], bool]:
    """Distinct trace residues mod d1 and the Bing verdict.

    Bing means the residue d1 - 1 never occurs.  With trivial H2 there is
    no d1; the group is reported Bing under the recorded convention.
    """
    if d1 is None:
        return (), True
    residues = sorted({trace_residue(c.matrix, d1) for c in induced})
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

    @property
    def d1(self) -> Optional[int]:
        """H2's first invariant factor, None for a trivial H2."""
        return self.h2_invariant_factors[0] if self.h2_invariant_factors else None

    def validate(self) -> None:
        """The record's rules, each stated once; ConsistencyError on the first broken.

        Besides relating the record's numbers to each other, they read g and
        r off the record's own text, which always parses back.
        """
        P = parse_presentation(self.presentation)
        g, r = P.num_generators, P.num_relators
        factors = self.h2_invariant_factors
        k = len(factors)
        for name, fs in (("H1", self.h1_invariant_factors), ("H2", factors)):
            if any(f < 2 for f in fs) or any(b % a for a, b in zip(fs, fs[1:])):
                raise ConsistencyError(f"{name} invariant factors {list(fs)} are not a "
                                       "divisibility chain above 1")
        if self.deficiency_gap < 0:
            raise ConsistencyError(
                f"deficiency gap {self.deficiency_gap} < 0; H2 computation must be wrong")
        if self.efficient != (self.deficiency_gap == 0):
            raise ConsistencyError("efficiency flag disagrees with the gap")
        # H1 is finite, so the exponent map has rank g and rk H2 of the
        # complex is r - g: χ = 1 - g + r is 1 + that, and the gap is that - k
        if (self.chi, self.rk_h2_complex) != (1 - g + r, r - g):
            raise ConsistencyError(
                f"Euler characteristic disagrees with rk H2 of the complex or with the text: "
                f"g = {g} and r = {r} give χ = 1 - g + r = {1 - g + r} and rk = r - g = "
                f"{r - g}, not {self.chi} and {self.rk_h2_complex}")
        if self.deficiency_gap != self.rk_h2_complex - k:
            raise ConsistencyError("deficiency gap disagrees with rk H2 of the complex")
        for c in self.induced_h2_maps:
            # row c of a matrix holds coordinates in Z/d_c, read before any trace is taken
            if len(c.matrix) != k or any(len(row) != k or min(row) < 0 or max(row) >= d
                                         for row, d in zip(c.matrix, factors)):
                raise ConsistencyError(f"induced H2 matrix {[list(row) for row in c.matrix]} "
                                       f"is not {k}x{k} with row c in [0, d_c)")
            # a witness is an endomorphism: one element per generator
            if len(c.witness_images) != g or not all(0 <= e < self.order for e in c.witness_images):
                raise ConsistencyError(f"witness {list(c.witness_images)} is not {g} "
                                       f"elements of a group of order {self.order}")
        # the trace residues are recomputed from the matrices, never stored
        residues, bing = bing_check(self.induced_h2_maps, self.d1)
        if tuple(self.trace_residues) != residues:
            raise ConsistencyError("trace residues disagree with the induced H2 maps")
        if self.bing != bing:
            raise ConsistencyError("Bing flag disagrees with the trace residues" if k else
                                   "trivial H2 must be reported Bing under the convention")
        if self.fpp_certified != (self.efficient and self.bing):
            raise ConsistencyError("certificate conclusion is not efficiency AND Bing")
        if sum(c.multiplicity for c in self.induced_h2_maps) != self.endomorphism_count:
            raise ConsistencyError("the fiber multiplicities do not sum to the endomorphism count")

    def to_json_dict(self, include_timings: bool = True) -> Dict:
        d1 = self.d1
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
                    "matrix": [list(row) for row in c.matrix],
                    "trace_residue": trace_residue(c.matrix, d1),
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


@contextmanager
def collector_paused():
    """Hold CPython's cyclic garbage collector off for the block.

    The pipeline builds no reference cycle, so what a run allocates is
    freed by reference count, and a collection during the run would only
    scan the n^2 group table, which cannot be garbage yet.  The pause is
    process-wide, for every thread, until the block exits.  Then the
    collector is enabled again only if it was enabled on entry, so nested
    pauses, and a ``gc.disable()`` made before entry, keep their state.
    The state is not synchronised: a ``gc.disable()`` that another thread
    makes while the block runs is undone when it exits.  Pause around a
    call, not inside one: the frame that holds the table must be gone
    before the collector is back, or its next collection scans it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Pipeline:
    """The certifier's stages for one presentation, each computed on its first read.

    ``h1`` -> ``table`` -> ``resolution`` -> ``h2``, and ``endomorphisms``
    of the table, then ``induced``.  A stage reads the stages it needs, so
    a command computes only what it reads, and ``InfiniteGroup`` is raised
    by ``h1`` before any enumeration.  Each stage's wall time goes into
    ``timings`` under the certificate's key, through ``timed``.  Each stage
    calls its function through the module that holds it, at call time, so
    a wrapper patched onto that name sees the call.  The object holds
    nothing that refers back to it, so it is freed by reference count once
    its last reader lets go of it.
    """

    def __init__(self, P: Presentation, options: CertifyOptions):
        self.P = P
        self.options = options
        self.timings: Dict[str, float] = {}

    def timed(self, key: str, compute):
        """``compute()``, timed under ``key`` less the stages it computed on the way."""
        t0, nested = time.perf_counter(), sum(self.timings.values())
        out = compute()
        self.timings[key] = time.perf_counter() - t0 - (sum(self.timings.values()) - nested)
        return out

    @cached_property
    def h1(self):
        h1 = self.timed("homology_1", lambda: res_mod.h1_of_group(self.P))
        if h1.free_rank:
            raise InfiniteGroup(h1.free_rank)
        return h1

    @cached_property
    def table(self):
        self.h1  # a free summand means no enumeration can close
        return self.timed("enumerate", lambda: todd_coxeter(self.P, self.options.max_cosets))

    @cached_property
    def resolution(self):
        return self.timed("resolve", lambda: res_mod.build_resolution(self.table))

    @cached_property
    def h2(self):
        return self.timed("homology_2", lambda: res_mod.h2_of_group(self.resolution))

    @cached_property
    def endomorphisms(self):
        return self.timed("endomorphisms", lambda: endos_mod.enumerate_endomorphisms(self.table))

    @cached_property
    def induced(self):
        return self.timed("induced_set", lambda: endos_mod.induced_h2_set(
            self.resolution, self.h2, self.endomorphisms, inner_dedup=self.options.inner_dedup))


@collector_paused()
def fpp_certificate(P: Presentation, options: Optional[CertifyOptions] = None) -> Certificate:
    """Run the full pipeline and assemble the audit record.

    Reads every stage of a ``Pipeline``, and the bar-complex oracle when
    asked, then makes the efficiency and Bing checks.  Raises
    InfiniteGroup before any enumeration when H1 has free rank, and
    ValueError before any work when ``workers`` is not 1, or when a relator
    is the empty word, which a ``Presentation`` built in code can hold.

    The run holds the cyclic collector off by ``collector_paused``, as a
    decorator, so that the collector is back only once this frame, and the
    group table with it, is gone.
    """
    opts = options or CertifyOptions()
    if opts.workers != 1:
        raise ValueError(f"workers must be 1, got {opts.workers}")
    for i, w in enumerate(P.relators):
        if not w.letters:
            raise ValueError(f"relator {i} is the empty word")
    run = Pipeline(P, opts)
    h1, T, h2 = run.h1, run.table, run.h2
    if h2.free_rank != 0:
        raise ConsistencyError("H2 of a finite group cannot have free rank")

    oracle_checked = bool(opts.oracle_check and T.order <= res_mod.ORACLE_CAP)
    if oracle_checked:
        oracle = run.timed("oracle", lambda: res_mod.h2_via_bar_complex(T))
        if oracle.invariant_factors != h2.invariant_factors:
            raise ConsistencyError(
                f"bar-complex oracle disagrees: {list(oracle.invariant_factors)} "
                f"vs {list(h2.invariant_factors)}")

    gap, rk, efficient = efficiency_check(P, h2.invariant_factors)
    d1 = h2.invariant_factors[0] if h2.invariant_factors else None
    residues, bing = bing_check(run.induced, d1)
    cert = Certificate(
        presentation=format_presentation(P),
        order=T.order,
        h1_invariant_factors=h1.invariant_factors,
        h2_invariant_factors=h2.invariant_factors,
        deficiency_gap=gap,
        rk_h2_complex=rk,
        efficient=efficient,
        chi=euler_characteristic(P),
        endomorphism_count=len(run.endomorphisms),
        induced_h2_maps=run.induced,
        trace_residues=residues,
        bing=bing,
        fpp_certified=efficient and bing,
        conventions={
            "inner_dedup": opts.inner_dedup,
            "trivial_h2_is_bing": d1 is None,
            "oracle_checked": oracle_checked,
        },
        timings=run.timings,
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
    out = [1] * k
    for p, exps in powers.items():
        for i, e in enumerate(sorted(exps, reverse=True)):
            out[i] *= p ** e
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

    Every component must pass ``Certificate.validate`` (ConsistencyError
    otherwise), which runs once per distinct record, however often it is
    listed.  H2 of the free product is the direct sum of the components'
    H2, its rank the sum of theirs, and χ, which the collapsing extra disks
    leave alone, is 1 + that rank: their χ rules summed, less one per
    component after the first.  A positive gap rules out the fixed point
    property only through externally cited results, which additionally need
    the extra disk to kill the global separating point at the wedge vertex.
    """
    for c in {id(c): c for c in certs}.values():  # each distinct record once
        c.validate()
    combined = merge_invariant_factors([c.h2_invariant_factors for c in certs])
    rank = sum(c.rk_h2_complex for c in certs)
    gap = rank - len(combined)
    chi = sum(c.chi for c in certs) - (len(certs) - 1)
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
    if not isinstance(obj, (Certificate, WedgeReport)):
        raise TypeError(f"cannot render {type(obj).__name__}")
    if fmt not in ("human", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    if isinstance(obj, Certificate):
        obj.validate()
    if fmt == "json":
        return json.dumps(obj.to_json_dict(include_timings), indent=2, ensure_ascii=False)
    if isinstance(obj, Certificate):
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
                f"  matrix {[list(r) for r in c.matrix]} "
                f"trace residue {trace_residue(c.matrix, obj.d1)} "
                f"multiplicity {c.multiplicity} witness {list(c.witness_images)}")
        lines += [
            f"trace residues mod d1: {list(obj.trace_residues)}",
            f"Bing: {obj.bing}",
            f"fixed point property certified: {obj.fpp_certified}",
            f"conventions: {obj.conventions}",
        ]
        return "\n".join(lines)
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
