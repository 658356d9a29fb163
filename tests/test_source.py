"""Checks on the library source itself, and on the oracle's independence.

A function or class under ``src/`` that no module under ``src/``
references is either dead or a helper only the tests call; such helpers
belong in the tests.  The one exception is the click commands, which the
command group dispatches by name.  Likewise an instance
attribute that ``src/`` sets but never reads is dead state; the exceptions
are the payloads of the exception types, which callers read,
``FreeResolution3.m``, the number of distinct lattice generators the fill
deduced, which the bench harness reads as its kernel rank, and
``FreeResolution3.d2_cols``, the columns of the distinct 2-cells, whose
entries the bench harness counts.  And a default
parameter of a ``src/`` function that no call under ``src/`` passes is an
option only the tests use; the one exception is ``render_report``'s
``include_timings``, which the bench harness passes to leave the timings
out of the certificates it hashes.

No function nested inside a ``src/`` function may reference its own
name.  Such a closure holds the cell that holds it, a reference cycle
that keeps everything the closure reaches alive until the cyclic
collector runs; the pipeline runs with that collector paused, and relies
on reference counts alone to free its group table.

The command line reads the certifier's stages through one ``Pipeline``:
``cli.py`` references, or imports, none of the stage functions
``todd_coxeter``, ``build_resolution``, ``h2_of_group``,
``enumerate_endomorphisms`` and ``induced_h2_set``.  ``h1_of_group`` is
not among them, since ``homology --degree 1`` reads it without
enumerating.

The certifier runs on one thread, so a fresh import of the library or its
command line loads no thread pool: ``concurrent.futures`` stays out of
``sys.modules``.

An oracle in ``tests/oracles.py`` checks a library path, so it must not
be built from that path.  Each oracle root has its own forbidden names,
which neither it nor any oracle helper it calls may reference: the full
chain-map lift, ``lift_chain_map`` and ``induced_h2``, may not reach the
library's Fox walk, unit lifts, residue tables, prefix walk of phi or
induced-map routine, and the plain search, ``search_endomorphisms`` and
``is_endomorphism``, may not reach the library's relator evaluator
``solutions`` or its search ``enumerate_endomorphisms``.  The echelon
oracles of d2, ``full_solver``, ``projected_solver``, ``augmented_solver``
and ``apply_d2_integer``, build d2 from the free-group Fox derivative, so
they may not reach the library's Fox walk ``fox_walk`` or its 2-cells
``d2_cols``.

The same reach check holds the resolution's build off the
multiplication table: ``FreeResolution3.__init__``, and every function
and ``FreeResolution3`` method of ``resolution.py`` it reaches, read the
group through its generator actions and tree alone, never a table column
(``column``, ``mult``, ``_cols``).  ``phi_on_elements`` reads columns,
but only the lifts call it.  And it holds the table's own check off what
the check is meant to confirm: ``GroupTable._verify``, and every
``GroupTable`` method and ``coset.py`` function it reaches, read the
generator actions and the tree alone, never the columns, the inverses or
the list powers built from them (``_cols``, ``column``, ``mult``,
``inverse``, ``_powers``).  It reaches ``_word_action``, which the
resolution's ``_walk_starts`` calls too.  And it holds the lift to one
write-out of each relator: ``FreeResolution3.phi_on_elements``,
``ResidueRows.__init__`` and ``induced_h2_matrix``, and all they reach,
read a relator only through ``FreeResolution3.moves``, never
``relators``.  And it holds the fold of the generator cycles to once per
residue table: ``induced_h2_matrix``, and every ``FreeResolution3`` and
``ResidueRows`` method it reaches, read neither ``generator_cycles`` nor
``letters``, only the ``terms`` that ``ResidueRows.__init__`` folds them
into.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fppcert"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
RESOLUTION = SRC / "resolution.py"
COSET = SRC / "coset.py"
CLI = SRC / "cli.py"

def _is_click_command(node) -> bool:
    """Decorated with ``@<group>.command(...)`` or ``@click.group(...)``."""
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def unreferenced_definitions(src: Path = SRC):
    """Sorted ``module:name`` of definitions no source module refers to.

    A reference is a name read or an attribute access anywhere under
    ``src/``; imports alone do not count.  Dunder methods are called by
    Python itself and are skipped.
    """
    defined = []  # (module, qualified name, name)
    referenced = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(item): f"{node.name}." for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")) \
                        and not _is_click_command(node):
                    defined.append((path.stem, owner.get(id(node), "") + node.name, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(f"{module}:{qualified}" for module, qualified, name in defined
                  if name not in referenced)


def test_every_definition_is_referenced_by_the_library():
    assert unreferenced_definitions() == []


def test_the_check_finds_a_test_only_helper(tmp_path):
    copy = tmp_path / "fppcert"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    with open(copy / "presentation.py", "a") as fh:
        fh.write("\n\ndef word_length(w):\n    return sum(abs(e) for _, e in w.letters)\n")
    assert unreferenced_definitions(copy) == ["presentation:word_length"]


ATTRIBUTES_ALLOWED = {"position", "limit", "defined", "FreeResolution3.m",
                      "FreeResolution3.d2_cols"}


def unread_instance_attributes(src: Path = SRC):
    """Sorted ``module:Class.name`` of ``self.name = ...`` never read in ``src/``.

    A read is an attribute load, ``obj.name``, on any object anywhere under
    ``src/``.  An attribute is allowed by its bare name or by
    ``Class.name``.
    """
    stored = set()
    read = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name) and node.value.id == "self":
                    stored.add((path.stem, cls.name, node.attr))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{module}:{cls}.{name}" for module, cls, name in stored
                  if name not in read and name not in ATTRIBUTES_ALLOWED
                  and f"{cls}.{name}" not in ATTRIBUTES_ALLOWED)


def test_every_instance_attribute_is_read_by_the_library():
    assert unread_instance_attributes() == []


def test_the_check_finds_an_unread_attribute(tmp_path):
    copy = tmp_path / "fppcert"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    text = (copy / "coset.py").read_text()
    anchor = "        self.num_generators = presentation.num_generators\n"
    assert anchor in text
    (copy / "coset.py").write_text(text.replace(anchor, anchor + "        self.identity = 0\n"))
    assert unread_instance_attributes(copy) == ["coset:GroupTable.identity"]


DEFAULTS_ALLOWED = {"certify:render_report(include_timings)"}


def _defaults(fn, offset: int):
    """(name, positional index past ``offset`` or None) of fn's parameters with a default."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    return [(p.arg, k - offset) for k, p in enumerate(pos) if k >= first] + \
        [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def unpassed_defaults(src: Path = SRC):
    """Sorted ``module:function(parameter)`` of defaults that no ``src/`` call passes.

    Calls are matched by name, as references are: ``f(...)`` and
    ``obj.f(...)`` call every f, and ``C(...)`` calls ``C.__init__``.  A
    call passes a parameter by position or by keyword; one with ``*args``
    or ``**kwargs`` passes them all.  A method's positional indices skip
    its first parameter.
    """
    defined = []  # (module, qualified name, callee names, defaults)
    calls = {}  # callee name -> [(positional count, keywords, unpacks)]
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(item): node for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls = owner.get(id(node))
                method = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                names = {node.name}
                if method and node.name == "__init__":
                    names.add(cls.name)
                found = _defaults(node, 1 if method else 0)
                if found:
                    qualified = f"{cls.name}.{node.name}" if cls else node.name
                    defined.append((path.stem, qualified, names, found))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                unpacks = any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, unpacks))
    return sorted(
        f"{module}:{qualified}({param})" for module, qualified, names, found in defined
        for param, index in found
        if not any(unpacks or param in keywords or (index is not None and index < count)
                   for name in names for count, keywords, unpacks in calls.get(name, [])))


def test_every_default_is_passed_by_the_library():
    assert [d for d in unpassed_defaults() if d not in DEFAULTS_ALLOWED] == []


def test_the_check_finds_a_test_only_default(tmp_path):
    copy = tmp_path / "fppcert"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    assert unpassed_defaults(copy) == sorted(DEFAULTS_ALLOWED)
    added = ("\n\ndef word_length(w, absolute=True):\n"
             "    return sum(abs(e) if absolute else e for _, e in w.letters)\n\n\n"
             "def total_length(words):\n"
             "    return sum(word_length(w) for w in words)\n")
    with open(copy / "presentation.py", "a") as fh:
        fh.write(added)
    assert unpassed_defaults(copy) == sorted(
        DEFAULTS_ALLOWED | {"presentation:word_length(absolute)"})
    # passed by keyword, or by position, it is an option the library uses
    text = (copy / "presentation.py").read_text()
    for call in ("word_length(w, absolute=False)", "word_length(w, False)"):
        (copy / "presentation.py").write_text(text.replace("word_length(w)", call))
        assert unpassed_defaults(copy) == sorted(DEFAULTS_ALLOWED)


PIPELINE_STAGES = frozenset({"todd_coxeter", "build_resolution", "h2_of_group",
                             "enumerate_endomorphisms", "induced_h2_set"})


def stage_references(path: Path = CLI):
    """Sorted stage functions that ``path`` names, reads as an attribute or imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return sorted(found & PIPELINE_STAGES)


def test_the_cli_reads_the_stages_through_one_pipeline():
    assert stage_references() == []


def test_the_check_finds_a_stage_in_the_cli(tmp_path):
    text = CLI.read_text()
    read = "_pipeline(P, max_cosets).table"
    imports = "from . import resolution as res_mod\n"
    assert text.count(read) == 1 and text.count(imports) == 1
    copy = tmp_path / "cli.py"
    # a module attribute, as the command bodies once called the stages
    copy.write_text(text.replace(read, "res_mod.build_resolution(_pipeline(P, max_cosets).table)"))
    assert stage_references(copy) == ["build_resolution"]
    # a name imported by value, and called
    copy.write_text(text.replace(read, "todd_coxeter(P, max_cosets)").replace(
        imports, imports + "from .coset import todd_coxeter\n"))
    assert stage_references(copy) == ["todd_coxeter"]
    # the abelianization is no stage: degree 1 reads it without enumerating
    assert "res_mod.h1_of_group(P)" in text


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_referencing_closures(src: Path = SRC):
    """Sorted ``module:outer.inner`` of functions nested in a function that name themselves.

    ``outer`` is any function the nested one lies inside, so a function
    nested two deep is listed under both of its enclosing functions.
    """
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, FUNCTIONS):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, FUNCTIONS) and any(
                        isinstance(node, ast.Name) and node.id == inner.name
                        for node in ast.walk(inner)):
                    found.add(f"{path.stem}:{outer.name}.{inner.name}")
    return sorted(found)


def test_no_nested_function_references_itself():
    assert self_referencing_closures() == []


def test_the_check_finds_a_recursive_closure(tmp_path):
    copy = tmp_path / "fppcert"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    with open(copy / "presentation.py", "a") as fh:
        fh.write("\n\ndef flatten(items):\n"
                 "    out = []\n\n"
                 "    def visit(x):\n"
                 "        if isinstance(x, list):\n"
                 "            for y in x:\n"
                 "                visit(y)\n"
                 "        else:\n"
                 "            out.append(x)\n\n"
                 "    visit(items)\n"
                 "    return out\n")
    assert self_referencing_closures(copy) == ["presentation:flatten.visit"]
    # a module-level recursion is no closure, and makes no cycle
    (copy / "presentation.py").write_text(
        (SRC / "presentation.py").read_text() +
        "\n\ndef depth(x):\n"
        "    return 1 + max(map(depth, x), default=0) if isinstance(x, list) else 0\n")
    assert self_referencing_closures(copy) == []


LIBRARY_LIFT = frozenset({
    "lifting_target", "fox_walk", "phi_on_elements", "unit_lifts", "unit_preimages",
    "induced_h2_matrix", "residue_rows", "ResidueRows", "unit_residues", "coordinate_rows",
    "cycle_left_inverse"})
LIBRARY_SEARCH = frozenset({"solutions", "enumerate_endomorphisms"})
LIBRARY_D2 = frozenset({"fox_walk", "d2_cols"})
LIFT_ROOTS = {"lift_chain_map": LIBRARY_LIFT, "induced_h2": LIBRARY_LIFT}
SEARCH_ROOTS = {"search_endomorphisms": LIBRARY_SEARCH, "is_endomorphism": LIBRARY_SEARCH}
D2_ROOTS = {root: LIBRARY_D2 for root in (
    "full_solver", "projected_solver", "augmented_solver", "apply_d2_integer")}


def library_references(roots, path: Path = ORACLES, cls: str = ""):
    """Sorted ``root:name`` of forbidden library names a root reaches.

    ``roots`` maps each root to its forbidden names.  A root reaches the
    names its body references and, through every module-level function of
    ``path`` it references, the names those reach.  The methods of class
    ``cls``, if given, count as such functions, by their bare names.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    functions.update({node.name: node for owner in tree.body
                      if isinstance(owner, ast.ClassDef) and owner.name == cls
                      for node in owner.body if isinstance(node, ast.FunctionDef)})
    found = set()
    for root, forbidden in roots.items():
        seen, frontier = {root}, [root]
        while frontier:
            for node in ast.walk(functions[frontier.pop()]):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in forbidden:
                    found.add(f"{root}:{name}")
                elif name in functions and name not in seen:
                    seen.add(name)
                    frontier.append(name)
    return sorted(found)


def test_the_lift_oracle_is_independent_of_the_library_lift():
    assert library_references(LIFT_ROOTS) == []


def test_the_check_finds_a_library_call_in_the_oracle(tmp_path):
    text = ORACLES.read_text()
    direct = "phi_elem = [evaluate_under(T, images, w) for w in representative_words(T)]"
    indirect = "project(T, fox_derivative(w, j))"
    assert direct in text and indirect in text
    copy = tmp_path / "oracles.py"
    copy.write_text(text.replace(direct, "phi_elem = R.phi_on_elements(images)"))
    assert library_references(LIFT_ROOTS, copy) == ["lift_chain_map:phi_on_elements"]
    # fox_matrix is an oracle helper that lift_chain_map calls
    copy.write_text(text.replace(indirect, "fox_walk(T, w, 0)"))
    assert library_references(LIFT_ROOTS, copy) == ["lift_chain_map:fox_walk"]
    # induced_h2 reading the residue table's coordinates
    coords = "cols.append(torsion_coordinates(h, image))"
    assert coords in text
    copy.write_text(text.replace(coords, "cols.append(h.coordinate_rows())"))
    assert library_references(LIFT_ROOTS, copy) == ["induced_h2:coordinate_rows"]


def test_the_search_oracle_is_independent_of_the_library_search():
    assert library_references(SEARCH_ROOTS) == []


def test_the_check_finds_the_library_evaluator_in_the_search_oracle(tmp_path):
    text = ORACLES.read_text()
    scalar = "evaluate_under(T, images, w) == 0"
    # once in search_endomorphisms, then once in is_endomorphism
    assert text.count(scalar) == 2
    listwise = "T.solutions(images, w, [images[w.max_generator()]])"
    copy = tmp_path / "oracles.py"
    copy.write_text(text.replace(scalar, listwise, 1))
    assert library_references(SEARCH_ROOTS, copy) == ["search_endomorphisms:solutions"]
    copy.write_text(text.replace(scalar, listwise))
    assert library_references(SEARCH_ROOTS, copy) == [
        "is_endomorphism:solutions", "search_endomorphisms:solutions"]
    # the lift oracle may call the library's evaluator; only the search may not
    assert library_references(LIFT_ROOTS, copy) == []


def test_the_d2_oracles_are_independent_of_the_library_walk():
    assert library_references(D2_ROOTS) == []


def test_the_check_finds_the_library_cells_in_the_d2_oracle(tmp_path):
    text = ORACLES.read_text()
    built = "        row = fox_matrix(T, w)\n"
    assert text.count(built) == 1
    copy = tmp_path / "oracles.py"
    # d2_columns reading the library's cells back: every d2 oracle reaches them
    copy.write_text(text.replace(built, "        return R.d2_cols\n"))
    assert library_references(D2_ROOTS, copy) == sorted(f"{root}:d2_cols" for root in D2_ROOTS)
    # fox_matrix is an oracle helper that d2_columns calls
    indirect = "project(T, fox_derivative(w, j))"
    copy.write_text(text.replace(indirect, "fox_walk(T, w, 0)"))
    assert library_references(D2_ROOTS, copy) == sorted(f"{root}:fox_walk" for root in D2_ROOTS)


TABLE_COLUMNS = frozenset({"column", "mult", "_cols"})
RESOLUTION_ROOTS = {"__init__": TABLE_COLUMNS}


def test_the_resolution_build_reads_no_table_column():
    assert library_references(RESOLUTION_ROOTS, RESOLUTION, "FreeResolution3") == []


def test_the_check_finds_a_table_column_in_the_resolution_build(tmp_path):
    text = RESOLUTION.read_text()
    # the lifts' prefix walk reads columns, but the build does not reach it
    assert "T.column(" in text
    copy = tmp_path / "resolution.py"
    # fox_walk is a module function the build calls
    steps = "    steps = T.steps\n    out: SparseCol = {}\n"
    assert text.count(steps) == 1
    copy.write_text(text.replace(
        steps, "    steps = [T.column(T.generator_element(j)) for j in range(g)] + "
               "list(T.action_inv)\n    out: SparseCol = {}\n"))
    assert library_references(RESOLUTION_ROOTS, copy, "FreeResolution3") == ["__init__:column"]
    # d1 is a method the build calls through self
    image = "            t = action[j][h]\n"
    assert text.count(image) == 1
    copy.write_text(text.replace(image, "            t = self.group.mult(h, action[j][0])\n"))
    assert library_references(RESOLUTION_ROOTS, copy, "FreeResolution3") == ["__init__:mult"]
    # phi_on_elements is exempt only while the build does not reach it
    built = "        self.d2_cols = d2_cols\n"
    assert text.count(built) == 1
    copy.write_text(text.replace(built, built + "        self.phi_on_elements([0] * g, 0)\n"))
    assert library_references(RESOLUTION_ROOTS, copy, "FreeResolution3") == ["__init__:column"]


RELATORS = frozenset({"relators"})
LIFT_READ_ROOTS = {"FreeResolution3": {"phi_on_elements": RELATORS,
                                       "induced_h2_matrix": RELATORS},
                   "ResidueRows": {"__init__": RELATORS}}


def lift_relator_reads(path: Path = RESOLUTION):
    """Sorted ``root:relators`` of the lift's roots that read the relators themselves."""
    return sorted(found for cls, roots in LIFT_READ_ROOTS.items()
                  for found in library_references(roots, path, cls))


def test_the_lift_reads_relators_only_as_moves():
    assert lift_relator_reads() == []


def test_the_check_finds_a_relator_in_the_prefix_walk(tmp_path):
    text = RESOLUTION.read_text()
    walk = "        for move in self.moves[i]:\n"
    assert text.count(walk) == 1
    copy = tmp_path / "resolution.py"
    copy.write_text(text.replace(
        walk, "        for move in moves(self.presentation.relators[i], self.g):\n"))
    # induced_h2_matrix reaches the prefix walk through R
    assert lift_relator_reads(copy) == [
        "induced_h2_matrix:relators", "phi_on_elements:relators"]


PER_TABLE = frozenset({"generator_cycles", "letters"})


def lift_per_table_reads(path: Path = RESOLUTION):
    """Sorted ``induced_h2_matrix:name`` of the layouts a lift reads that the table folds.

    The lift reaches ``FreeResolution3`` methods through R and
    ``ResidueRows`` methods through the table, so both are followed.
    """
    return sorted({found for cls in ("FreeResolution3", "ResidueRows")
                   for found in library_references({"induced_h2_matrix": PER_TABLE}, path, cls)})


def test_a_lift_reads_the_cycles_only_as_folded_terms():
    assert lift_per_table_reads() == []


def test_the_check_finds_a_cycle_read_in_the_lift(tmp_path):
    text = RESOLUTION.read_text()
    # the table folds the cycles into the letters, once
    assert "for z in h.generator_cycles]" in text and "for gen, at, sign in letters[i]]" in text
    copy = tmp_path / "resolution.py"
    # the lift itself reading the cycles on every call
    factors = "    factors = table.homology.invariant_factors\n"
    assert text.count(factors) == 1
    copy.write_text(text.replace(
        factors, factors + "    cycles = table.homology.generator_cycles\n"))
    assert lift_per_table_reads(copy) == ["induced_h2_matrix:generator_cycles"]
    # row is a ResidueRows method the lift reaches through the table
    rows = "        rows = self.rows\n"
    assert text.count(rows) == 1
    copy.write_text(text.replace(rows, rows + "        assert self.letters\n"))
    assert lift_per_table_reads(copy) == ["induced_h2_matrix:letters"]


VERIFY_ROOTS = {"_verify": frozenset({"_cols", "column", "mult", "inverse", "_powers"})}


def test_the_table_check_reads_the_generator_actions_alone():
    assert library_references(VERIFY_ROOTS, COSET, "GroupTable") == []


def test_the_check_finds_the_table_in_the_table_check(tmp_path):
    text = COSET.read_text()
    # the table's own list powers read columns, but the check does not reach them
    assert "cols[a][a]" in text
    copy = tmp_path / "coset.py"
    # _word_action is a method the check calls through self
    start = "        points = list(range(self.order))  # points[e]"
    assert text.count(start) == 1
    cols = text.replace(start, "        points = list(self._cols[0])  # points[e]")
    copy.write_text(cols)
    assert library_references(VERIFY_ROOTS, copy, "GroupTable") == ["_verify:_cols"]
    relator = "            if self._word_action(w.letters) != identity:\n"
    assert text.count(relator) == 1
    powers = "            if self._powers(self._word_action(w.letters), 1) != identity:\n"
    copy.write_text(text.replace(relator, powers))
    assert library_references(VERIFY_ROOTS, copy, "GroupTable") == ["_verify:_powers"]
    copy.write_text(cols.replace(relator, powers))
    assert library_references(VERIFY_ROOTS, copy, "GroupTable") == [
        "_verify:_cols", "_verify:_powers"]


@pytest.mark.parametrize("module", ["fppcert", "fppcert.cli"])
def test_a_fresh_import_loads_no_thread_pool(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = f"import sys, {module}; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "False\n"
