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

``order``, ``homology --degree 2`` and ``endos`` read the stages they
need off one ``certify.Pipeline``, the object ``fpp_certificate`` reads
too, so ``order`` builds no resolution and ``homology --degree 2``
enumerates no endomorphism.  ``homology --degree 1`` reads
``h1_of_group`` alone, without enumerating.  ``endos`` computes every
stage it prints before it prints, so a stage that fails prints its
failure line and nothing else.

``wedge`` lists every copy in its report, about 14 KB of memory and 1.8 KB
of output per copy of a small group, so ``--copies`` is capped at
``MAX_COPIES``.
"""

from __future__ import annotations

import sys

import click

from . import certify as certify_mod
from . import resolution as res_mod
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


def _pipeline(P, max_cosets):
    return certify_mod.Pipeline(P, certify_mod.CertifyOptions(max_cosets=max_cosets))


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
    T = _guarded(lambda: _pipeline(P, max_cosets).table)
    click.echo(str(T.order))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--degree", type=click.Choice(["1", "2"]), required=True)
@max_cosets_option
def homology(file, degree, max_cosets):
    """Invariant factors of group homology in the given degree."""
    P = _load_presentation(file)
    h = (res_mod.h1_of_group(P) if degree == "1"  # the abelianization, with no enumeration
         else _guarded(lambda: _pipeline(P, max_cosets).h2))
    click.echo(f"invariant factors: {list(h.invariant_factors)}")
    click.echo(f"free rank: {h.free_rank}")


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
    run = _pipeline(P, max_cosets)
    # every stage the output needs, before any of it is printed
    _guarded(lambda: run.induced if induced else run.endomorphisms)
    click.echo(f"endomorphisms: {len(run.endomorphisms)}")
    if induced:
        click.echo(f"distinct induced H2 maps: {len(run.induced)}")
        for c in run.induced:
            click.echo(f"  matrix {[list(r) for r in c.matrix]} "
                       f"multiplicity {c.multiplicity} witness {list(c.witness_images)}")


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
