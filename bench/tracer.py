"""Spans around hgpoly's layer functions, recorded from the outside.

`install` wraps each function named in LAYERS wherever any hgpoly module
binds it (the CLI imports names directly, so patching only the defining
module would miss its calls).  A recursive function opens one span per
outermost call.  Spans are kept in memory as (name, start, end, parent)
and written out once, when the run ends; a span's self time is its
length minus the length of its direct child spans.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

LAYERS = {
    "hypergraph": ("components_mask", "connected_subset_masks", "restrict"),
    "constructs": ("enumerate_constructs", "enumerate_constructions", "covers", "leq",
                   "vertices_below", "validate_construct", "parse_construct",
                   "print_construct"),
    "nestedsets": ("psi",),
    "realization": ("f_vector", "hrep", "vertex_of_construction", "verify_isomorphism",
                    "vertices_to_json_dict"),
    "operadic": ("build_edge_graph", "classify_edge", "construction_to_word", "min_path"),
    "truncation": ("next_round", "tamed_constructs", "tamed_constructions", "constrs"),
    "pba": ("pba_setup", "face_constructs", "encode", "decode", "census", "parse_word",
            "word_text"),
    "corpus": ("all_connected_atomic",),
    "cli": ("main",),
}
LEQ_VARIANTS = ("rules", "v2", "v3")
FACES = "constructs.enumerate_constructs.faces"


def span_names() -> list[str]:
    """Every span name, leq split by variant."""
    out = []
    for module, functions in LAYERS.items():
        for fn in functions:
            if (module, fn) == ("constructs", "leq"):
                out.extend(f"constructs.leq.{v}" for v in LEQ_VARIANTS)
            else:
                out.append(f"{module}.{fn}")
    return out


def metric_names() -> list[str]:
    return [f"{n}.{kind}" for n in span_names() for kind in ("calls", "self_s")] + [FACES]


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.names = span_names()
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.faces = 0
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._stack: list[list] = []  # [span index, start, child seconds]

    def _open(self, name_id: int) -> int:
        start = perf_counter()
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([index, start, 0.0])
        return index

    def _close(self, name_id: int) -> None:
        end = perf_counter()
        index, start, child = self._stack.pop()
        self.span_end[index] = end
        length = end - start
        self.self_s[name_id] += length - child
        self.calls[name_id] += 1
        if self._stack:
            self._stack[-1][2] += length

    def wrap(self, fn, module: str, name: str):
        tracer = self
        busy = False
        if (module, name) == ("constructs", "leq"):
            ids = {v: self.ids[f"constructs.leq.{v}"] for v in LEQ_VARIANTS}

            def name_id(args, kwargs) -> int:
                variant = args[3] if len(args) > 3 else kwargs.get("variant", "v2")
                return ids[variant]
        else:
            fixed = self.ids[f"{module}.{name}"]

            def name_id(args, kwargs) -> int:
                return fixed

        count_faces = (module, name) == ("constructs", "enumerate_constructs")

        def wrapper(*args, **kwargs):
            nonlocal busy
            if busy or not tracer.on:
                return fn(*args, **kwargs)
            busy = True
            nid = name_id(args, kwargs)
            tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(nid)
                busy = False
            if count_faces:
                tracer.faces += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package_name: str = "hgpoly") -> None:
        """Replace every binding of each listed function in the loaded
        hgpoly modules (and the Hypergraph method) with its wrapper."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package_name or k.startswith(package_name + "."))]
        hypergraph_cls = sys.modules[f"{package_name}.hypergraph"].Hypergraph
        for module, functions in LAYERS.items():
            home = sys.modules[f"{package_name}.{module}"]
            for fn_name in functions:
                if fn_name == "components_mask":
                    original = hypergraph_cls.components_mask
                    setattr(hypergraph_cls, fn_name, self.wrap(original, module, fn_name))
                    continue
                original = getattr(home, fn_name)
                wrapper = self.wrap(original, module, fn_name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        out[FACES] = self.faces
        return out

    def dump(self, path: str) -> None:
        """Write the spans, gzip-compressed, as tab-separated name, start,
        end and parent span number (-1 for none), times in microseconds
        from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_us\tend_us\tparent\n")
            fh.writelines(
                f"{names[nid]}\t{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\t{parent}\n"
                for nid, start, end, parent in zip(self.span_name, self.span_start,
                                                    self.span_end, self.span_parent))
