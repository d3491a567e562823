"""Command-line front end.

Groups: `hg` works on hypergraph JSON files, `op` on operadic tree JSON
files, `trunc` on truncation round states, `pba` on the words-with-holes
polytopes, and `corpus verify` runs the acceptance checklist.  Exit
status 0 on success, 1 when a verification fails (the report is still
printed) or an invariant breaks (one `error:` line on stderr, nothing on
stdout), 2 on any input error.  A handler writes stdout only after its
last check that can raise; identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections.abc import Iterable
from functools import cache
from itertools import islice
from json.encoder import encode_basestring_ascii as _quoted
from typing import TextIO

from .constructs import (
    MAX_CARRIER,
    _bits,
    _counted_text,
    _keyed_node,
    _text,
    enumerate_constructions,
    enumerate_constructs,
    parse_construct,
    print_construct,
)
from .hypergraph import GuardExceeded, Hypergraph, InvariantError
from .operadic import (
    EdgeGraph,
    _dot,
    build_edge_graph,
    decomposition_words,
    skeleton_dot,
    tree_from_json_dict,
)
from .pba import MAX_N, census, decode, encode, parse_word, pba_setup, word_text
from .realization import (
    MAX_HREP_CARRIER,
    f_vector,
    hrep,
    verify_isomorphism,
    vertices_to_json_dict,
)
from .truncation import (
    _tamed_counts,
    advance,
    next_round,
    round_state_from_json_dict,
    round_state_to_json_dict,
    simplex_round,
)


class CliError(ValueError):
    """Input error reported with exit status 2."""


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # or nested too deep
        raise CliError(f"malformed JSON in {path}: {exc}") from exc


def _load_hypergraph(args) -> Hypergraph:
    return Hypergraph.from_json_dict(
        _load_json(args.input), atomize=getattr(args, "atomize", False)
    )


def _dump_json(out: TextIO, data) -> None:
    _write_rows(out, _json_rows(data, "\n"))
    out.write("\n")


def _spell(x) -> str:
    """A scalar's JSON text; no handler writes a float, so one is refused."""
    if x.__class__ not in (str, int, bool, type(None)):
        raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")
    return json.dumps(x)


def _json_rows(x, newline: str, lead: str = ""):
    """x as json.dumps(x, indent=2, sort_keys=True) spells it, which with an
    indent encodes in Python: lead first, newline being "\n" and x's indent.
    A scalar or a container of scalars is one chunk, others one per member."""
    if x.__class__ is dict:
        keys = sorted(x)  # _quoted refuses a key that is not a str
        heads, values, ends = [_quoted(k) + ": " for k in keys], [x[k] for k in keys], "{}"
    elif x.__class__ is list:
        heads, values, ends = None, x, "[]"
    else:
        yield lead + _spell(x)
        return
    inner, kinds = newline + "  ", set(map(type, values))
    if not values or not kinds & {dict, list}:
        body = map(_quoted if kinds == {str} else _spell, values)
        body = map(str.__add__, heads, body) if heads else body
        yield lead + (ends[0] + inner + ("," + inner).join(body) + newline + ends[1] if values else ends)
        return
    sep = lead + ends[0] + inner
    for i, v in enumerate(values):
        yield from _json_rows(v, inner, sep + heads[i] if heads else sep)
        sep = "," + inner
    yield newline + ends[1]


def _write_rows(out: TextIO, rows: Iterable[str]) -> None:
    """Write rows in joined chunks: a write per row costs more than the row."""
    rows = iter(rows)
    while chunk := list(islice(rows, 1024)):  # a row may be empty
        out.write("".join(chunk))


def _load_edge_graph(args) -> EdgeGraph:
    tree = tree_from_json_dict(_load_json(args.tree))
    names = None
    if args.names:
        names = {}
        for entry in args.names.split(","):
            label, _, name = entry.partition("=")
            if not label or not name:
                raise CliError(f"bad name mapping {entry!r}, expected label=name")
            if label in names:
                raise CliError(f"label {label!r} is named twice in --names")
            names[label] = name
    return build_edge_graph(tree, names=names)


# -- hg -------------------------------------------------------------------


def _faces(args, node) -> tuple[int, list]:
    """The carrier size n and every construct as the builder node(h) makes it."""
    h = _load_hypergraph(args)
    return len(h.carrier), enumerate_constructs(h, max_carrier=args.max_carrier, node=node(h))


def _by_nodes(n: int, rows) -> list[list[str]]:
    """The texts of rows (text, node count) in row order, by node count from
    n (dimension 0) down; a polytope has faces of every dimension, so none is empty."""
    buckets = [[] for _ in range(n + 1)]
    for text, count in rows:
        buckets[count].append(text)
    return buckets[:0:-1]


def _hg_faces(args, out: TextIO) -> int:
    n, trees = _faces(args, _counted_text)
    for dim, texts in enumerate(_by_nodes(n, trees)):  # dimension, then text
        out.write(f"{dim}\t" + f"\n{dim}\t".join(sorted(texts)) + "\n")
    return 0


def _hg_fvector(args, out: TextIO) -> int:
    h = _load_hypergraph(args)
    out.write(" ".join(str(c) for c in f_vector(h, max_carrier=args.max_carrier)) + "\n")
    return 0


def _hg_constructions(args, out: TextIO) -> int:
    h = _load_hypergraph(args)
    texts = enumerate_constructions(h, max_carrier=args.max_carrier, node=_text(h))
    out.write("\n".join(sorted(texts)) + "\n")
    return 0


def _hg_hasse(args, out: TextIO) -> int:
    n, trees = _faces(args, lambda h: _keyed_node(h, _text(h)))
    faces = {key: _dot(text) for text, key, _ in trees}  # as DOT IDs
    del trees  # so the sorts below do not raise the peak RSS
    by_text = sorted(zip(faces.values(), faces))  # the IDs are distinct: no key is compared
    carrier = min(faces)  # the key of the one-node face: the carrier bit alone
    out.write("digraph hasse {\n")
    counted = ((text, key.bit_count()) for text, key in by_text)  # a key member per node
    for texts in _by_nodes(n, counted):  # as hg faces
        out.write("  " + ";\n  ".join(texts) + ";\n")
    # a cover drops one non-carrier key member. Rows of s share `  "s" -> ` and no
    # text prefixes another (labels hold none of `{}(),`, and escaping `\` and `"`
    # keeps that): face by face is one sort.
    _write_rows(out, ("".join(sorted(f"  {text} -> {faces[s ^ b]};\n" for b in _bits(s ^ carrier)))
                      for text, s in by_text))
    out.write("}\n")
    return 0


def _hg_realize(args, out: TextIO) -> int:
    h = _load_hypergraph(args)
    if args.hrep:
        out.write(hrep(h, max_carrier=args.max_carrier or MAX_HREP_CARRIER).to_text())
        return 0
    max_carrier = args.max_carrier or MAX_CARRIER
    if args.vertices:
        _dump_json(out, vertices_to_json_dict(h, max_carrier=max_carrier))
        return 0
    report = verify_isomorphism(h, max_carrier=max_carrier)
    out.write(report.summary() + "\n")
    return 0 if report.ok else 1


# -- op -------------------------------------------------------------------


def _op_graph(args, out: TextIO) -> int:
    g = _load_edge_graph(args)
    out.write("graph edges {\n")
    labels = (f"  {_dot(v)} [label={_dot(f'{v} (level {g.level[v]})')}];\n" for v in sorted(g.vertex_names))
    _write_rows(out, labels)
    rows = []
    for kind, pairs in (("solid", g.solid), ("dashed", g.dashed)):
        for pair in pairs:
            a, b = sorted(pair)
            rows.append(f"  {_dot(a)} -- {_dot(b)} [style={kind}];\n")
    out.writelines(sorted(rows))
    out.write("}\n")
    return 0


def _op_classify(args, out: TextIO) -> int:
    out.write(skeleton_dot(_load_edge_graph(args)))
    return 0


def _op_words(args, out: TextIO) -> int:
    _write_rows(out, (word + "\n" for word in decomposition_words(_load_edge_graph(args))))
    return 0


# -- trunc ----------------------------------------------------------------


def _trunc_init(args, out: TextIO) -> int:
    ht = Hypergraph.from_json_dict(_load_json(args.truncations))
    _dump_json(out, round_state_to_json_dict(simplex_round(ht.carrier, ht)))
    return 0


def _trunc_round(args, out: TextIO) -> int:
    data = _load_json(args.state)
    # the outputs of `pba setup` and `trunc round --truncations` wrap a state
    if isinstance(data, dict) and "round" not in data and isinstance(data.get("state"), dict):
        data = data["state"]
    state = round_state_from_json_dict(data)
    if args.truncations is None:
        tr = next_round(state)
        names = [m.text() for m in tr.facets]
        index = {name: i for i, name in enumerate(names)}
        _dump_json(out, {
            "format": 1,
            "round": state.round_index + 1,
            "facets": [m.to_json_dict() for m in tr.facets],
            "facet_names": names,
            "vertex_hypergraph": sorted(
                sorted(fam, key=index.__getitem__) for fam in tr.vertex_sets
            ),
        })
        return 0
    new = advance(state, Hypergraph.from_json_dict(_load_json(args.truncations)))
    constructs, constructions = _tamed_counts(new)
    _dump_json(out, {
        "format": 1,
        "state": round_state_to_json_dict(new),
        "tamed": {"constructs": constructs, "constructions": constructions, "constrs": len(new._constr_masks)},
    })
    return 0


# -- pba ------------------------------------------------------------------


def _pba_setup(args, out: TextIO) -> int:
    setup = pba_setup(args.n, max_n=args.max_n)
    _dump_json(out, {
        "format": 1,
        "n": setup.n,
        "letters": list(setup.letters),
        "state": round_state_to_json_dict(setup.state),
    })
    return 0


def _pba_encode(args, out: TextIO) -> int:
    setup = pba_setup(args.n, max_n=args.max_n)
    t = parse_construct(setup.hypergraph, args.face)
    w = encode(setup, t)
    out.write(word_text(w, ascii_symbols=args.ascii, square=False) + "\n")
    return 0


def _pba_decode(args, out: TextIO) -> int:
    setup = pba_setup(args.n, max_n=args.max_n)
    t = decode(setup, parse_word(args.word))
    out.write(print_construct(setup.hypergraph, t) + "\n")
    return 0


def _pba_census(args, out: TextIO) -> int:
    setup = pba_setup(args.n, max_n=args.max_n)
    c = census(setup)
    out.write(f"vertices {c.vertices}\nedges {c.edges}\nfacets {c.facets}\nfaces {c.faces}\n")
    _write_rows(out, ("profile %s %d\n" % (",".join(map(str, sizes)), count)
                      for sizes, count in sorted(c.facet_profiles)))
    return 0


# -- corpus ---------------------------------------------------------------


def _corpus_verify(args, out: TextIO) -> int:
    from .verification import CHECKS, VerificationFailure  # loaded only by this command

    lines, failed = [], 0
    for name, fn in CHECKS:
        try:
            fn()
        except VerificationFailure as exc:
            failed += 1
            lines.append(f"FAIL {name}: {exc}\n")
        else:
            lines.append(f"ok   {name}\n")
    lines.append(f"{failed} of {len(CHECKS)} checks failed\n" if failed else
                 f"all {len(CHECKS)} checks passed\n")
    out.write("".join(lines))  # after the last check: an InvariantError leaves stdout empty
    return 1 if failed else 0


# -- wiring ---------------------------------------------------------------


def _add_hg_common(p: argparse.ArgumentParser, default: str = str(MAX_CARRIER)) -> None:
    p.add_argument("input", help="hypergraph JSON file")
    p.add_argument("--atomize", action="store_true",
                   help="add missing singleton hyperedges on load")
    p.add_argument("--max-carrier", type=_positive, default=MAX_CARRIER,
                   help=f"enumeration guard (default {default})")


def _add_op_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tree", required=True, help="operadic tree JSON file")
    p.add_argument("--names", default=None,
                   help="rename tree edges, e.g. c=x,d=y,b=z")


def _add_pba_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=_positive, help="number of letters minus one")
    p.add_argument("--max-n", type=_positive, default=MAX_N,
                   help=f"setup guard (default {MAX_N})")


def _command(cmds, name: str, help: str, handler, common=None) -> argparse.ArgumentParser:
    """Add subcommand name with its handler, and common's arguments if given."""
    p = cmds.add_parser(name, help=help)
    if common is not None:
        common(p)
    p.set_defaults(handler=handler)
    return p


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: the handlers read the module's globals when
    # they run, so the shared parser holds no state between calls
    parser = argparse.ArgumentParser(
        prog="hgpoly",
        description="Hypergraph polytopes: faces, realizations, coherence "
        "diagrams, truncation rounds, and words with holes.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    hg = groups.add_parser("hg", help="hypergraph face lattices and realizations")
    hg_cmds = hg.add_subparsers(dest="command", required=True)
    _command(hg_cmds, "faces", "list every construct with its dimension", _hg_faces, _add_hg_common)
    _command(hg_cmds, "fvector", "face counts per dimension, vertices first", _hg_fvector, _add_hg_common)
    _command(hg_cmds, "constructions", "list the vertex constructs", _hg_constructions, _add_hg_common)
    _command(hg_cmds, "hasse", "cover relations of the face order as DOT", _hg_hasse, _add_hg_common)
    p = _command(hg_cmds, "realize", "exact half-space realization", _hg_realize)
    _add_hg_common(p, f"{MAX_CARRIER}, or {MAX_HREP_CARRIER} with --hrep")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--hrep", action="store_true", help="print the half-spaces")
    mode.add_argument("--vertices", action="store_true",
                      help="print exact vertex coordinates as JSON")
    mode.add_argument("--verify", action="store_true",
                      help="check the face order against the geometry")
    p.set_defaults(max_carrier=None)  # resolved by the mode

    op = groups.add_parser("op", help="operadic trees and coherence diagrams")
    op_cmds = op.add_subparsers(dest="command", required=True)
    _command(op_cmds, "graph", "the derived edge graph as DOT", _op_graph, _add_op_common)
    _command(op_cmds, "classify", "the labeled skeleton as DOT", _op_classify, _add_op_common)
    _command(op_cmds, "words", "all full decomposition words", _op_words, _add_op_common)

    trunc = groups.add_parser("trunc", help="iterated truncation rounds")
    trunc_cmds = trunc.add_subparsers(dest="command", required=True)
    p = _command(trunc_cmds, "init", "round 1: a simplex with truncations", _trunc_init)
    p.add_argument("--truncations", required=True, help="truncation hypergraph JSON")
    p = _command(trunc_cmds, "round", "advance one round", _trunc_round)
    p.add_argument("--state", required=True, help="round state JSON")
    p.add_argument("--truncations", default=None,
                   help="next truncation hypergraph JSON; omit to preview "
                   "the new facets and vertex families")

    pba = groups.add_parser("pba", help="the words-with-holes polytopes")
    pba_cmds = pba.add_subparsers(dest="command", required=True)
    _command(pba_cmds, "setup", "letters and round-2 state as JSON", _pba_setup, _add_pba_common)
    p = _command(pba_cmds, "encode", "construct text to word", _pba_encode, _add_pba_common)
    p.add_argument("face", help="construct text over the facet names")
    p.add_argument("--ascii", action="store_true",
                   help="print x1 and .1 instead of subscripts")
    p = _command(pba_cmds, "decode", "word to construct text", _pba_decode, _add_pba_common)
    p.add_argument("word", help="word with holes, ascii or subscripts")
    _command(pba_cmds, "census", "face counts and facet profiles", _pba_census, _add_pba_common)

    corpus_p = groups.add_parser("corpus", help="the acceptance checklist")
    corpus_cmds = corpus_p.add_subparsers(dest="command", required=True)
    _command(corpus_cmds, "verify", "run every exhaustive check", _corpus_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # the library makes no reference cycles: a handler runs with the collector paused
    collecting = gc.isenabled()
    gc.disable()
    try:
        status = args.handler(args, sys.stdout)  # read per call: capsys and redirect_stdout swap it
    except GuardExceeded as exc:
        print(f"error: guard exceeded: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: invariant broken: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
