"""Command line interface.

Exit codes: 0 success, 2 the group is infinite, or coset enumeration hit
its cap, 3 parse error or an option out of its range (``--max-cosets``
less than 1, ``--copies`` outside 1 to ``MAX_COPIES``, ``--extra-disks``
less than 0), 4 internal consistency failure.

Click rejects a malformed command line before any of that runs and also
exits 2, printing its ``Usage:`` block and the reason: an unknown option
(among them the thread count that ``certify`` once took), an option value
that is not an integer, a file that does not exist, or a missing
``homology --degree``.

``--max-cosets`` bounds each coset enumeration on its own: the one over
the cyclic subgroup of a relator's root runs under it, and so does the
one over the trivial subgroup that follows when that is refused or hits
the cap (``todd_coxeter``).  An infinite group with a power relator thus
runs both to the cap before exiting 2.

``wedge`` lists every copy in its report, about 14 KB of memory and 1.8 KB
of output per copy of a small group, so ``--copies`` is capped at
``MAX_COPIES``.
"""

from __future__ import annotations

import sys

import click

from . import certify as certify_mod
from . import endos as endos_mod
from . import resolution as res_mod
from .coset import todd_coxeter
from .errors import ConsistencyError, CosetLimitExceeded, InfiniteGroup, ParseError
from .presentation import MAX_COSETS, euler_characteristic, parse_presentation


def _load_presentation(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_presentation(text)
    except (ParseError, ValueError, OSError) as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(3)


def _guarded(fn):
    try:
        return fn()
    except (CosetLimitExceeded, InfiniteGroup) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except ConsistencyError as exc:
        click.echo(f"internal consistency failure: {exc}", err=True)
        sys.exit(4)


MAX_COPIES = 1_000


def _within(minimum, maximum=None):
    def check(ctx, param, value):
        if value < minimum:
            bound = f"at least {minimum}"
        elif maximum is not None and value > maximum:
            bound = f"at most {maximum}"
        else:
            return value
        click.echo(f"error: --{param.name.replace('_', '-')} must be {bound}", err=True)
        sys.exit(3)
    return check


def _finite_table(P, max_cosets):
    res_mod.finite_h1(P)
    return todd_coxeter(P, max_cosets)


max_cosets_option = click.option("--max-cosets", default=MAX_COSETS, show_default=True,
                                 type=int, callback=_within(1))


@click.group()
def main():
    """Verify fixed point property certificates for finite presentations."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Emit the canonical JSON certificate.")
@max_cosets_option
@click.option("--no-inner-dedup", is_flag=True,
              help="Compute the induced map of every endomorphism individually.")
@click.option("--oracle-check", is_flag=True,
              help="Cross-check H2 against the bar-complex oracle (order <= 16 only).")
def certify(file, as_json, max_cosets, no_inner_dedup, oracle_check):
    """Full certificate: order, homology, efficiency, Bing, conclusion."""
    P = _load_presentation(file)
    opts = certify_mod.CertifyOptions(
        max_cosets=max_cosets,
        inner_dedup=not no_inner_dedup,
        oracle_check=oracle_check,
    )
    cert = _guarded(lambda: certify_mod.fpp_certificate(P, opts))
    click.echo(certify_mod.render_report(cert, "json" if as_json else "human"))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@max_cosets_option
def order(file, max_cosets):
    """Order of the presented group."""
    P = _load_presentation(file)
    T = _guarded(lambda: _finite_table(P, max_cosets))
    click.echo(str(T.order))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--degree", type=click.Choice(["1", "2"]), required=True)
@max_cosets_option
def homology(file, degree, max_cosets):
    """Invariant factors of group homology in the given degree."""
    P = _load_presentation(file)
    if degree == "1":
        # abelianization straight from the exponent matrix, no enumeration
        h1 = res_mod.h1_of_group(P)
        factors, free_rank = list(h1.invariant_factors), h1.free_rank
    else:
        def run():
            T = _finite_table(P, max_cosets)
            R = res_mod.build_resolution(T)
            h2 = res_mod.h2_of_group(R)
            return list(h2.invariant_factors), h2.free_rank
        factors, free_rank = _guarded(run)
    click.echo(f"invariant factors: {factors}")
    click.echo(f"free rank: {free_rank}")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def chi(file):
    """Euler characteristic of the presentation complex."""
    P = _load_presentation(file)
    click.echo(str(euler_characteristic(P)))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--induced", is_flag=True, help="Also list the induced H2 maps.")
@max_cosets_option
def endos(file, induced, max_cosets):
    """Count (and optionally classify) endomorphisms of the presented group."""
    P = _load_presentation(file)

    def run():
        T = _finite_table(P, max_cosets)
        fs = endos_mod.enumerate_endomorphisms(T)
        lines = [f"endomorphisms: {len(fs)}"]
        if induced:
            R = res_mod.build_resolution(T)
            h2 = res_mod.h2_of_group(R)
            classes = endos_mod.induced_h2_set(R, h2, fs)
            lines.append(f"distinct induced H2 maps: {len(classes)}")
            for c in classes:
                lines.append(
                    f"  matrix {[list(r) for r in c.matrix]} "
                    f"multiplicity {c.multiplicity} witness {list(c.witness_images)}")
        return lines

    for line in _guarded(run):
        click.echo(line)


@main.command()
@click.argument("files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--copies", default=1, show_default=True, type=int,
              callback=_within(1, MAX_COPIES),
              help=f"Number of wedge copies of each file's complex, at most {MAX_COPIES}.")
@click.option("--extra-disks", default=0, show_default=True, type=int, callback=_within(0))
@click.option("--json", "as_json", is_flag=True)
@max_cosets_option
def wedge(files, copies, extra_disks, as_json, max_cosets):
    """Wedge analysis across one or more certified components."""
    presentations = [_load_presentation(f) for f in files]

    def run():
        certs = []
        for P in presentations:
            cert = certify_mod.fpp_certificate(
                P, certify_mod.CertifyOptions(max_cosets=max_cosets))
            certs.extend([cert] * copies)
        return certify_mod.wedge_analysis(certs, extra_disks=extra_disks)

    report = _guarded(run)
    click.echo(certify_mod.render_report(report, "json" if as_json else "human"))


if __name__ == "__main__":
    main()
