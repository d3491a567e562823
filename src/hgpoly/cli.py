"""Command-line front end.

Groups: `hg` works on hypergraph JSON files, `op` on operadic tree JSON
files, `trunc` on truncation round states, `pba` on the words-with-holes
polytopes, and `corpus verify` runs the acceptance checklist.  Exit
status 0 on success, 1 when a verification fails (the report is still
printed) or an invariant breaks (one `error:` line on stderr, nothing on
stdout), 2 on any input error.  Output is buffered and flushed once,
and identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from functools import cache

from .constructs import MAX_CARRIER, _bits, _keyed, _submasks, parse_construct, print_construct
from .hypergraph import GuardExceeded, Hypergraph, InvariantError
from .operadic import (
    EdgeGraph,
    build_edge_graph,
    decomposition_words,
    skeleton_dot,
    tree_from_json_dict,
)
from .pba import MAX_N, census, decode, encode, parse_word, pba_setup, word_text
from .realization import (
    f_vector,
    hrep,
    verify_isomorphism,
    vertices_to_json_dict,
)
from .truncation import (
    advance,
    constrs,
    next_round,
    round_state_from_json_dict,
    round_state_to_json_dict,
    simplex_round,
    tamed_constructions,
    tamed_constructs,
)
from .verification import CHECKS, VerificationFailure


class CliError(Exception):
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
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}") from exc


def _load_hypergraph(args) -> Hypergraph:
    return Hypergraph.from_json_dict(
        _load_json(args.input), atomize=getattr(args, "atomize", False)
    )


def _dump_json(out: io.StringIO, data) -> None:
    json.dump(data, out, indent=2, sort_keys=True)
    out.write("\n")


def _load_edge_graph(args) -> EdgeGraph:
    tree = tree_from_json_dict(_load_json(args.tree))
    names = None
    if args.names:
        names = {}
        for entry in args.names.split(","):
            label, _, name = entry.partition("=")
            if not label or not name:
                raise CliError(f"bad name mapping {entry!r}, expected label=name")
            names[label] = name
    return build_edge_graph(tree, names=names)


# -- hg -------------------------------------------------------------------


def _faces(args) -> tuple[dict[int, str], list[tuple[int, str]]]:
    """Every construct as psi key -> text, and its (dimension, text) rows in
    print order: a face of dimension d has n - d nodes, one key bit each."""
    h = _load_hypergraph(args)
    faces = _keyed(h, _submasks, "constructs", args.max_carrier)
    n = len(h.carrier)
    return faces, sorted((n - key.bit_count(), text) for key, text in faces.items())


def _hg_faces(args, out: io.StringIO) -> int:
    for dim, text in _faces(args)[1]:
        out.write(f"{dim}\t{text}\n")
    return 0


def _hg_fvector(args, out: io.StringIO) -> int:
    h = _load_hypergraph(args)
    out.write(" ".join(str(c) for c in f_vector(h, max_carrier=args.max_carrier)))
    out.write("\n")
    return 0


def _hg_constructions(args, out: io.StringIO) -> int:
    h = _load_hypergraph(args)
    for text in sorted(_keyed(h, _bits, "constructions", args.max_carrier).values()):
        out.write(text + "\n")
    return 0


def _hg_hasse(args, out: io.StringIO) -> int:
    faces, rows = _faces(args)
    carrier = min(faces)  # the key of the one-node face: the carrier bit alone
    out.write("digraph hasse {\n")
    out.writelines(f'  "{text}";\n' for _, text in rows)
    # a cover contracts one tree edge: its key drops one non-carrier member
    edges = [f'  "{faces[s]}" -> "{faces[s ^ b]}";\n' for s in faces for b in _bits(s ^ carrier)]
    out.writelines(sorted(edges))
    out.write("}\n")
    return 0


def _hg_realize(args, out: io.StringIO) -> int:
    h = _load_hypergraph(args)
    if args.hrep:
        out.write(hrep(h).to_text())
        return 0
    if args.vertices:
        _dump_json(out, vertices_to_json_dict(h, max_carrier=args.max_carrier))
        return 0
    report = verify_isomorphism(h, max_carrier=args.max_carrier)
    out.write(report.summary() + "\n")
    return 0 if report.ok else 1


# -- op -------------------------------------------------------------------


def _op_graph(args, out: io.StringIO) -> int:
    g = _load_edge_graph(args)
    out.write("graph edges {\n")
    for name in sorted(g.vertex_names):
        out.write(f'  "{name}" [label="{name} (level {g.level[name]})"];\n')
    rows = []
    for kind, pairs in (("solid", g.solid), ("dashed", g.dashed)):
        for pair in pairs:
            a, b = sorted(pair)
            rows.append(f'  "{a}" -- "{b}" [style={kind}];\n')
    for row in sorted(rows):
        out.write(row)
    out.write("}\n")
    return 0


def _op_classify(args, out: io.StringIO) -> int:
    out.write(skeleton_dot(_load_edge_graph(args)))
    return 0


def _op_words(args, out: io.StringIO) -> int:
    for word in decomposition_words(_load_edge_graph(args)):
        out.write(word + "\n")
    return 0


# -- trunc ----------------------------------------------------------------


def _trunc_init(args, out: io.StringIO) -> int:
    ht = Hypergraph.from_json_dict(_load_json(args.truncations))
    _dump_json(out, round_state_to_json_dict(simplex_round(ht.carrier, ht)))
    return 0


def _trunc_round(args, out: io.StringIO) -> int:
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
    _dump_json(out, {
        "format": 1,
        "state": round_state_to_json_dict(new),
        "tamed": {
            "constructs": len(tamed_constructs(new)),
            "constructions": len(tamed_constructions(new)),
            "constrs": len(constrs(new)),
        },
    })
    return 0


# -- pba ------------------------------------------------------------------


def _pba_setup(args, out: io.StringIO) -> int:
    setup = pba_setup(args.n, max_n=args.max_n)
    _dump_json(out, {
        "format": 1,
        "n": setup.n,
        "letters": list(setup.letters),
        "state": round_state_to_json_dict(setup.state),
    })
    return 0


def _pba_encode(args, out: io.StringIO) -> int:
    setup = pba_setup(args.n, max_n=args.max_n)
    t = parse_construct(setup.hypergraph, args.face)
    w = encode(setup, t)
    out.write(word_text(w, ascii_symbols=args.ascii, square=False) + "\n")
    return 0


def _pba_decode(args, out: io.StringIO) -> int:
    setup = pba_setup(args.n, max_n=args.max_n)
    t = decode(setup, parse_word(args.word))
    out.write(print_construct(setup.hypergraph, t) + "\n")
    return 0


def _pba_census(args, out: io.StringIO) -> int:
    setup = pba_setup(args.n, max_n=args.max_n)
    c = census(setup)
    out.write(f"vertices {c.vertices}\n")
    out.write(f"edges {c.edges}\n")
    out.write(f"facets {c.facets}\n")
    out.write(f"faces {c.faces}\n")
    for sizes, count in sorted(c.facet_profiles):
        out.write("profile %s %d\n" % (",".join(map(str, sizes)), count))
    return 0


# -- corpus ---------------------------------------------------------------


def _corpus_verify(args, out: io.StringIO) -> int:
    failed = 0
    for name, fn in CHECKS:
        try:
            fn()
        except VerificationFailure as exc:
            failed += 1
            out.write(f"FAIL {name}: {exc}\n")
        else:
            out.write(f"ok   {name}\n")
    if failed:
        out.write(f"{failed} of {len(CHECKS)} checks failed\n")
        return 1
    out.write(f"all {len(CHECKS)} checks passed\n")
    return 0


# -- wiring ---------------------------------------------------------------


def _add_hg_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="hypergraph JSON file")
    p.add_argument("--atomize", action="store_true",
                   help="add missing singleton hyperedges on load")
    p.add_argument("--max-carrier", type=_positive, default=MAX_CARRIER,
                   help=f"enumeration guard (default {MAX_CARRIER})")


def _add_op_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tree", required=True, help="operadic tree JSON file")
    p.add_argument("--names", default=None,
                   help="rename tree edges, e.g. c=x,d=y,b=z")


def _add_pba_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=_positive, help="number of letters minus one")
    p.add_argument("--max-n", type=_positive, default=MAX_N,
                   help=f"setup guard (default {MAX_N})")


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
    p = hg_cmds.add_parser("faces", help="list every construct with its dimension")
    _add_hg_common(p)
    p.set_defaults(handler=_hg_faces)
    p = hg_cmds.add_parser("fvector", help="face counts per dimension, vertices first")
    _add_hg_common(p)
    p.set_defaults(handler=_hg_fvector)
    p = hg_cmds.add_parser("constructions", help="list the vertex constructs")
    _add_hg_common(p)
    p.set_defaults(handler=_hg_constructions)
    p = hg_cmds.add_parser("hasse", help="cover relations of the face order as DOT")
    _add_hg_common(p)
    p.set_defaults(handler=_hg_hasse)
    p = hg_cmds.add_parser("realize", help="exact half-space realization")
    _add_hg_common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--hrep", action="store_true", help="print the half-spaces")
    mode.add_argument("--vertices", action="store_true",
                      help="print exact vertex coordinates as JSON")
    mode.add_argument("--verify", action="store_true",
                      help="check the face order against the geometry")
    p.set_defaults(handler=_hg_realize)

    op = groups.add_parser("op", help="operadic trees and coherence diagrams")
    op_cmds = op.add_subparsers(dest="command", required=True)
    p = op_cmds.add_parser("graph", help="the derived edge graph as DOT")
    _add_op_common(p)
    p.set_defaults(handler=_op_graph)
    p = op_cmds.add_parser("classify", help="the labeled skeleton as DOT")
    _add_op_common(p)
    p.set_defaults(handler=_op_classify)
    p = op_cmds.add_parser("words", help="all full decomposition words")
    _add_op_common(p)
    p.set_defaults(handler=_op_words)

    trunc = groups.add_parser("trunc", help="iterated truncation rounds")
    trunc_cmds = trunc.add_subparsers(dest="command", required=True)
    p = trunc_cmds.add_parser("init", help="round 1: a simplex with truncations")
    p.add_argument("--truncations", required=True, help="truncation hypergraph JSON")
    p.set_defaults(handler=_trunc_init)
    p = trunc_cmds.add_parser("round", help="advance one round")
    p.add_argument("--state", required=True, help="round state JSON")
    p.add_argument("--truncations", default=None,
                   help="next truncation hypergraph JSON; omit to preview "
                   "the new facets and vertex families")
    p.set_defaults(handler=_trunc_round)

    pba = groups.add_parser("pba", help="the words-with-holes polytopes")
    pba_cmds = pba.add_subparsers(dest="command", required=True)
    p = pba_cmds.add_parser("setup", help="letters and round-2 state as JSON")
    _add_pba_common(p)
    p.set_defaults(handler=_pba_setup)
    p = pba_cmds.add_parser("encode", help="construct text to word")
    _add_pba_common(p)
    p.add_argument("face", help="construct text over the facet names")
    p.add_argument("--ascii", action="store_true",
                   help="print x1 and .1 instead of subscripts")
    p.set_defaults(handler=_pba_encode)
    p = pba_cmds.add_parser("decode", help="word to construct text")
    _add_pba_common(p)
    p.add_argument("word", help="word with holes, ascii or subscripts")
    p.set_defaults(handler=_pba_decode)
    p = pba_cmds.add_parser("census", help="face counts and facet profiles")
    _add_pba_common(p)
    p.set_defaults(handler=_pba_census)

    corpus_p = groups.add_parser("corpus", help="the acceptance checklist")
    corpus_cmds = corpus_p.add_subparsers(dest="command", required=True)
    p = corpus_cmds.add_parser("verify", help="run every exhaustive check")
    p.set_defaults(handler=_corpus_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        status = args.handler(args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"error: guard exceeded: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: invariant broken: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out.getvalue())
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
