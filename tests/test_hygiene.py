"""Leftover names and reference cycles in the library: every import is
used, every private module-level function is referenced, every public
function and class is exported or referenced, no module runs a call at
import, and no closure refers to itself, so the library frees its memos
and trees by reference counting alone. The source is read with the
standard `ast` only; the start-up test imports the package in a fresh
interpreter, and the last test runs each command family."""

import ast
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from hgpoly import cli, corpus, pba
from hgpoly.constructs import print_construct
from hgpoly.operadic import OperadicTree
from hgpoly.truncation import round_state_to_json_dict

SRC = Path(__file__).resolve().parent.parent / "src" / "hgpoly"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _annotation_names(node) -> set[str]:
    # a string annotation such as "Construct | Omega" names its types too
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _read_names(node) -> set[str]:
    """Every name read below node, the names inside string annotations
    included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation is not None:
            names |= _annotation_names(sub.annotation)
        elif isinstance(sub, ast.FunctionDef) and sub.returns is not None:
            names |= _annotation_names(sub.returns)
    return names


def _referenced(node) -> set[str]:
    """The names read below node and the attribute names it reads, as in
    `constructs._spans`."""
    return _read_names(node) | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _imported(tree: ast.Module) -> list[str]:
    """The names a module binds by its imports, `from __future__` aside."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return bound


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue  # the package re-exports what it imports
        used = _read_names(tree)
        unused += [f"{name}: {bound}" for bound in _imported(tree) if bound not in used]
    assert not unused, unused


def _unreferenced(modules: dict[str, ast.Module], wanted) -> list[str]:
    """The module-level definitions for which wanted(node) holds and that
    nothing in the library reads outside their own body."""
    reads = [(node, _referenced(node)) for tree in modules.values() for node in tree.body]
    return [
        f"{name}: {node.name}"
        for name, tree in modules.items() for node in tree.body
        if wanted(node) and not any(node.name in names for other, names in reads if other is not node)
    ]


# the README's pipeline order: a module may import only the ones before it
PIPELINE = ("hypergraph", "constructs", "nestedsets", "realization", "operadic",
            "truncation", "pba", "corpus", "verification", "cli")


def _imported_modules(tree: ast.Module):
    """(level, top-level module name) of each import in tree, nested ones
    included; `from . import corpus` gives (1, "corpus")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.level, node.module.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.level, alias.name) for alias in node.names)


def test_modules_import_the_standard_library_and_earlier_stages_only():
    # the library has no third-party dependency, and no stage reaches a
    # later one
    modules = _modules()
    assert set(modules) == {f"{m}.py" for m in PIPELINE} | {"__init__.py"}
    wrong = []
    for name, tree in modules.items():
        if name == "__init__.py":
            continue  # the package gathers every stage
        earlier = PIPELINE[:PIPELINE.index(name[:-3])]
        wrong += [
            f"{name}: {'.' * level}{module}" for level, module in _imported_modules(tree)
            if not (level == 0 and module in sys.stdlib_module_names or level == 1 and module in earlier)
        ]
    assert not wrong, wrong


def test_no_module_imports_dataclasses():
    # the records are tuples or plain classes: building dataclasses at import
    # time, and the modules dataclasses loads, would cost every command
    found = [
        name for name, tree in _modules().items()
        if any(module == "dataclasses" for _, module in _imported_modules(tree))
    ]
    assert not found, found


def test_import_loads_neither_dataclasses_nor_the_checklist():
    # corpus verify imports the acceptance checks itself; no other command
    # pays for them
    code = (
        "import sys, hgpoly, hgpoly.cli, hgpoly.corpus; "
        "print(sorted({'dataclasses', 'inspect', 'hgpoly.verification'} & sys.modules.keys()))"
    )
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout == "[]\n"


def test_every_private_function_is_referenced():
    unreferenced = _unreferenced(_modules(), lambda node: (
        isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
    ))
    assert not unreferenced, unreferenced


def test_every_public_name_is_exported_or_referenced():
    # a public function or class the package does not re-export is API only
    # if some other code in the library uses it
    modules = _modules()
    exported = set(_imported(modules["__init__.py"]))
    unreferenced = _unreferenced(modules, lambda node: (
        isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in exported
    ))
    assert not unreferenced, unreferenced


def test_every_hypergraph_slot_is_set_and_read():
    # a slot nothing reads is a leftover memo; one __init__ never sets would
    # raise AttributeError on first use
    modules = _modules()
    cls = next(
        node for node in modules["hypergraph.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "Hypergraph"
    )
    (slots,) = [
        ast.literal_eval(node.value) for node in cls.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__slots__"]
    ]
    init = next(node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assigned = {
        call.args[1].value for call in ast.walk(init)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == "__setattr__" and isinstance(call.args[1], ast.Constant)
    }
    read = {
        sub.attr for tree in modules.values() for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    assert set(slots) - assigned == set()
    assert set(slots) - read == set()


def test_no_module_runs_a_call_at_import():
    # a bare call at module level fills shared state at import time, as a
    # registry filled on import once did; build such state on each call
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items() for node in tree.body
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
    ]
    assert not calls, calls


def test_no_nonlocal_and_no_closure_refers_to_itself():
    # a nested function that calls itself, or calls a sibling that calls it
    # back, holds a cell that holds the function: a cycle that only the
    # collector frees, with everything the closure reaches
    found = set()
    for name, tree in _modules().items():
        found |= {f"{name}:{node.lineno}: nonlocal" for node in ast.walk(tree) if isinstance(node, ast.Nonlocal)}
        for outer in ast.walk(tree):
            if not isinstance(outer, ast.FunctionDef):
                continue
            reads = {
                node.name: _read_names(node) for node in ast.walk(outer)
                if node is not outer and isinstance(node, ast.FunctionDef)
            }
            for inner, names in reads.items():
                if any(inner in reads[other] for other in names & reads.keys()):
                    found.add(f"{name}: {outer.name}.{inner}")
    assert not found, sorted(found)


def _command_lines(tmp_path, n: int) -> list[list[str]]:
    """One command line of each family on inputs of n atoms: the complete
    graph K_n, the star tree with n edges (whose edge graph is K_n), and the
    words-with-holes polytope on n - 1 letters with its round-2 state."""
    graph = tmp_path / f"k{n}.json"
    graph.write_text(json.dumps(corpus.complete_graph(n).to_json_dict()))
    tree = tmp_path / f"star{n}.json"
    tree.write_text(json.dumps(OperadicTree("a", tuple(map(OperadicTree, "bcdefgh"[:n]))).to_json_dict()))
    setup = pba.pba_setup(n - 2)
    state = tmp_path / f"state{n}.json"
    state.write_text(json.dumps(round_state_to_json_dict(setup.state)))
    face = pba.face_constructs(setup)[-1]
    m = str(n - 2)
    return [
        ["hg", "faces", str(graph)], ["hg", "hasse", str(graph)], ["hg", "realize", "--verify", str(graph)],
        ["op", "classify", "--tree", str(tree)], ["op", "words", "--tree", str(tree)],
        ["trunc", "round", "--state", str(state)],
        ["pba", "encode", m, print_construct(setup.hypergraph, face)],
        ["pba", "decode", m, pba.word_text(pba.encode(setup, face))],
        ["pba", "census", m],
    ]


def test_commands_leave_no_cyclic_garbage(tmp_path, fresh_pba_setups):
    # argparse's HelpFormatter makes cycles of its own when the parser is built
    cli._build_parser()
    flags = gc.get_debug()
    counts = {}
    try:
        for n in (4, 6):
            argvs = _command_lines(tmp_path, n)
            # the pba commands below must build their setup, not reuse the
            # one the command lines were made from
            pba._build_setup.cache_clear()
            gc.collect()
            gc.garbage.clear()
            gc.set_debug(flags | gc.DEBUG_SAVEALL)
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, argv
            gc.collect()
            gc.set_debug(flags)
            ours = [
                f"{o.__module__}.{o.__qualname__}" for o in gc.garbage
                if isinstance(o, types.FunctionType) and (o.__module__ or "").startswith("hgpoly")
            ]
            assert not ours, (n, sorted(set(ours)))
            counts[n] = len(gc.garbage)
            gc.garbage.clear()
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert counts[6] <= counts[4], counts
