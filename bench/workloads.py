"""The three workloads: seeded inputs, the jobs, and their checks.

A workload's set-up builds one list of jobs from the seed.  A job is
one call into hgpoly's public surface, usually `hgpoly.cli.main(argv)`
with stdout captured, and returns the text the user would see.  The
check of a job compares that text with the independent oracle.

`lattice` builds or counts whole face lattices; `order` compares faces
pairwise on small lattices; `words` exercises the syntax layers (words
with holes, operadic words, truncation rounds).  Within a workload the
job sizes are spread over one continuous range of running times, and
the same seed gives the same job list.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random

import oracle

ATOMS = "abcdefghijklmnop"


class JobFailed(Exception):
    """The program refused a job (non-zero exit status)."""


class Job:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind: str, run, check) -> None:
        self.kind = kind
        self.run = run
        self.check = check


def call_cli(hg, argv: list[str]) -> str:
    """Run `hgpoly.cli.main(argv)` in-process and return its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = hg.cli.main(argv)
    if status != 0:
        raise JobFailed(f"hgpoly {' '.join(argv)} exited {status}")
    return buf.getvalue()


def cli_job(hg, kind: str, argv: list[str], check) -> Job:
    return Job(kind, lambda: call_cli(hg, argv), check)


def write_json(workdir: str, name: str, data) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def random_hypergraph(rng: random.Random, n: int,
                      extra: int | None = None) -> tuple[list[str], list[list[str]]]:
    """A random connected atomic hypergraph on n atoms: the singletons
    plus `extra` (by default between n-1 and 3n) random edges of two to
    four atoms."""
    atoms = list(ATOMS[:n])
    while True:
        edges = [[a] for a in atoms]
        for _ in range(extra if extra is not None else rng.randint(n - 1, 3 * n)):
            size = min(n, rng.choice((2, 2, 2, 3, 3, 4)))
            edges.append(sorted(rng.sample(atoms, size)))
        g = oracle.Graph(atoms, edges)
        if g.connected(g.full):
            return atoms, edges


def log_targets(lo: float, hi: float, k: int) -> list[float]:
    """k targets spread evenly in log scale over [lo, hi]."""
    return [lo * (hi / lo) ** ((i + 0.5) / k) for i in range(k)]


# -- lattice --------------------------------------------------------------------

# Work proxies, one per command, so that every command's jobs run over
# the same range of times (about 10-250 ms on the reference host):
# faces, fvector and hasse scale with the face count F, constructions
# with the vertex count f0, vertices with f0 times the connected
# subsets, hrep with the 2^n masks times the edges.  Each job draws
# random hypergraphs until one's proxy lies close to its target, so the
# work of a round hardly depends on the seed.  The carrier sizes are
# those whose proxies cover the range densely; hrep takes larger
# carriers because at 5-7 atoms it finishes in a few milliseconds.
LATTICE = {
    # name: (argv, carrier sizes, proxy, low, high, check)
    "faces": (["hg", "faces"], (5, 6), "faces", 270, 2700, oracle.check_faces),
    "fvector": (["hg", "fvector"], (5, 6), "faces", 300, 3000, oracle.check_fvector),
    "constructions": (["hg", "constructions"], (6, 7), "vertices", 200, 2000,
                      oracle.check_constructions),
    "hasse": (["hg", "hasse"], (5, 6), "faces", 100, 600, oracle.check_hasse),
    "vertices": (["hg", "realize", "--vertices"], (5, 6), "bounds", 500, 5000,
                 oracle.check_vertices),
    "hrep": (["hg", "realize", "--hrep"], (11, 12, 13), "masks", 40_000, 400_000,
             oracle.check_hrep),
}
LATTICE_JOBS_PER_COMMAND = 24
LATTICE_TOLERANCE = 0.12  # a draw within 12% of its target (in log scale) is kept
LATTICE_MAX_DRAWS = 80  # otherwise the nearest of this many draws


def _submasks(s: int):
    y = s
    while y:
        yield y
        y = (y - 1) & s


def count_constructs(g: oracle.Graph, singletons: bool = False) -> int:
    """The number of constructs of g (with singletons, of constructions:
    every decoration one atom), by the scalar form of the face recursion."""
    memo = {0: 1}
    parts: dict[int, list[int]] = {}

    def components(sub: int) -> list[int]:
        if sub not in parts:
            parts[sub] = g.components(sub)
        return parts[sub]

    def rec(s: int) -> int:
        if s not in memo:
            ys = [1 << i for i in range(g.n) if s >> i & 1] if singletons else _submasks(s)
            memo[s] = sum(math.prod(rec(c) for c in components(s & ~y)) for y in ys)
        return memo[s]

    return rec(g.full)


def _proxy(kind: str, g: oracle.Graph) -> float:
    if kind == "masks":
        return float((1 << g.n) * len(g.edges))
    if kind == "faces":
        return float(count_constructs(g))
    f0 = count_constructs(g, singletons=True)
    return float(f0 if kind == "vertices" else f0 * len(g.connected_subsets()))


def draw_near(rng: random.Random, sizes: tuple, proxy: str, target: float):
    """Draw random hypergraphs until one's proxy lies within
    LATTICE_TOLERANCE of the target; after LATTICE_MAX_DRAWS draws, take
    the nearest.  The proxies grow with the number of edges, so each miss
    narrows the edge counts tried next for that carrier size."""
    span = {n: [n - 1, 3 * n] for n in sizes}
    best = None
    for _ in range(LATTICE_MAX_DRAWS):
        n = rng.choice(sizes)
        lo, hi = span[n] if span[n][0] <= span[n][1] else (n - 1, 3 * n)
        extra = rng.randint(lo, hi)
        atoms, edges = random_hypergraph(rng, n, extra)
        miss = math.log(_proxy(proxy, oracle.Graph(atoms, edges)) / target)
        if best is None or abs(miss) < best[0]:
            best = (abs(miss), atoms, edges)
        if abs(miss) <= LATTICE_TOLERANCE:
            break
        if miss < 0:
            span[n][0] = extra + 1
        else:
            span[n][1] = extra - 1
    return best[1], best[2]


def lattice_jobs(hg, rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    for name, (argv, sizes, proxy, lo, hi, check) in LATTICE.items():
        for i, target in enumerate(log_targets(lo, hi, LATTICE_JOBS_PER_COMMAND)):
            atoms, edges = draw_near(rng, sizes, proxy, target)
            data = {"format": 1, "carrier": atoms, "hyperedges": edges}
            path = write_json(workdir, f"{name}-{i}.json", data)
            g = oracle.Graph(atoms, edges)
            jobs.append(cli_job(hg, name, argv + [path],
                                lambda out, g=g, check=check: check(g, out)))
    return jobs


# -- order ----------------------------------------------------------------------

VARIANTS = ("rules", "v2", "v3")


def order_job(hg, path: str, data: dict) -> Job:
    def run() -> str:
        text = call_cli(hg, ["hg", "realize", "--verify", path])
        h = hg.Hypergraph.from_json_dict(data)
        faces = hg.enumerate_constructs(h)
        rows = [text.rstrip("\n")]
        for variant in VARIANTS:
            for s in faces:
                rows.append("".join("1" if hg.leq(s, t, h, variant) else "0" for t in faces))
        return "\n".join(rows) + "\n"

    def check(out: str) -> None:
        g = oracle.Graph.from_json(data)
        h = hg.Hypergraph.from_json_dict(data)
        spans = [_construct_spans(t) for t in hg.enumerate_constructs(h)]
        lines = out.splitlines()
        head = len(lines) - len(VARIANTS) * len(spans)
        oracle.check_verify(g, "\n".join(lines[:head]))
        body = lines[head:]
        results = {
            v: [[ch == "1" for ch in row] for row in body[k * len(spans):(k + 1) * len(spans)]]
            for k, v in enumerate(VARIANTS)
        }
        oracle.check_order(spans, results)

    return Job("order", run, check)


def _construct_spans(t) -> frozenset:
    """Subtree unions of a library construct, read off its tree."""
    out = set()

    def rec(node) -> frozenset:
        up = frozenset(node.decoration).union(*(rec(c) for c in node.children))
        out.add(up)
        return up

    rec(t)
    return frozenset(out)


def order_jobs(hg, rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    for i, h in enumerate(hg.corpus.all_connected_atomic(4)):
        carrier = list(h.carrier)
        image = dict(zip(carrier, rng.sample(carrier, len(carrier))))
        edges = [sorted(image[a] for a in e) for e in h.hyperedges]
        data = {"format": 1, "carrier": carrier, "hyperedges": edges}
        jobs.append(order_job(hg, write_json(workdir, f"order-{i}.json", data), data))
    return jobs


# -- words ----------------------------------------------------------------------

# Job counts per round, chosen so that the syntax layers (pba,
# operadic, truncation) take most of the time and every kind's times
# overlap another's: trunc and op words run in 4-25 ms, pba n=3 in about
# 15 ms, census and pba n=4 in 40-55 ms, op classify in 20-250 ms.  The
# 20 six-node classify jobs (90-250 ms) are the top sixth of the jobs,
# so the 90th percentile falls inside their range.
PBA_FACES_PER_N = 8
PBA_CENSUS_JOBS = 4
TRUNC_PER_KIND = 12
TREE_SIZES = (5, 6)


def tree_shapes(n: int) -> list[tuple[int, ...]]:
    """One parent array per rooted tree shape with n nodes (node 0 is
    the root, node i hangs below an earlier node)."""
    seen = {}
    for parents in itertools.product(*(range(i) for i in range(1, n))):
        par = (None,) + parents
        kids = {i: [] for i in range(n)}
        for i in range(1, n):
            kids[par[i]].append(i)

        def canon(i: int) -> str:
            return "(" + "".join(sorted(canon(c) for c in kids[i])) + ")"

        seen.setdefault(canon(0), par)
    return [seen[k] for k in sorted(seen)]


def _tree_json(labels: list[str], par: tuple, i: int = 0) -> dict:
    kids = [c for c in range(1, len(par)) if par[c] == i]
    return {"label": labels[i], "children": [_tree_json(labels, par, c) for c in kids]}


def _encode_check(hg, setup, text: str, seen: dict[str, str]):
    """decode inverts encode, and distinct faces get distinct words."""

    def check(out: str) -> None:
        back = hg.print_construct(setup.hypergraph, hg.decode(setup, hg.parse_word(out.strip())))
        oracle.require(back == text, f"decode(encode({text})) gives {back}")
        oracle.require(seen.setdefault(out, text) == text, f"{text} and {seen[out]} share a word")

    return check


def words_jobs(hg, rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    for n in (3, 4):
        setup = hg.pba_setup(n)
        ht = setup.hypergraph
        faces = rng.sample(hg.face_constructs(setup), 2 * PBA_FACES_PER_N)
        texts = [hg.print_construct(ht, t) for t in faces]
        seen: dict[str, str] = {}
        for text in texts[:PBA_FACES_PER_N]:
            jobs.append(cli_job(hg, f"pba-encode-{n}", ["pba", "encode", str(n), text],
                                _encode_check(hg, setup, text, seen)))
        for t, text in zip(faces[PBA_FACES_PER_N:], texts[PBA_FACES_PER_N:]):
            word = hg.word_text(hg.encode(setup, t))
            jobs.append(cli_job(hg, f"pba-decode-{n}", ["pba", "decode", str(n), word],
                                lambda out, text=text: oracle.require(
                                    out == text + "\n", f"decode gives {out.strip()}, not {text}")))
    for _ in range(PBA_CENSUS_JOBS):
        jobs.append(cli_job(hg, "pba-census-3", ["pba", "census", "3"], oracle.check_census3))

    for n in TREE_SIZES:
        for k, par in enumerate(tree_shapes(n)):
            labels = rng.sample("abcdefghij", n)
            data = dict(format=1, **_tree_json(labels, par))
            path = write_json(workdir, f"tree-{n}-{k}.json", data)
            parent = {labels[i]: labels[par[i]] for i in range(1, n)}
            kind = None
            if all(par[i] == i - 1 for i in range(1, n)):
                kind = "beta"
            elif all(p == 0 for p in par[1:]):
                kind = "theta"
            jobs.append(cli_job(hg, "op-words", ["op", "words", "--tree", path],
                                lambda out, p=parent: oracle.check_op_words(p, out)))
            jobs.append(cli_job(hg, "op-classify", ["op", "classify", "--tree", path],
                                lambda out, p=parent, kd=kind: oracle.check_op_classify(p, out, kd)))

    for k in range(TRUNC_PER_KIND):
        size = 3 + k % 2
        atoms, edges = random_hypergraph(rng, size)
        data = {"format": 1, "carrier": atoms, "hyperedges": edges}
        ht_path = write_json(workdir, f"trunc-{k}.json", data)
        ht = hg.Hypergraph.from_json_dict(data)
        state = hg.simplex_round(ht.carrier, ht)
        state_path = write_json(workdir, f"state-{k}.json", hg.round_state_to_json_dict(state))
        jobs.append(cli_job(hg, "trunc-init", ["trunc", "init", "--truncations", ht_path],
                            lambda out, s=size: oracle.check_trunc_state(s, json.loads(out))))
        jobs.append(cli_job(hg, "trunc-round", ["trunc", "round", "--state", state_path],
                            lambda out, s=size: oracle.check_trunc_state(s, json.loads(out))))
        if size == 3:
            # the next round's truncations: a path through the new facets
            names = [m.text() for m in hg.next_round(state).facets]
            path_edges = [[a] for a in names] + [list(p) for p in zip(names, names[1:])]
            nxt = write_json(workdir, f"trunc-next-{k}.json",
                             {"format": 1, "carrier": names, "hyperedges": path_edges})
            jobs.append(cli_job(
                hg, "trunc-advance",
                ["trunc", "round", "--state", state_path, "--truncations", nxt],
                lambda out, s=size: oracle.check_trunc_state(s, json.loads(out)["state"])))
    return jobs


WORKLOADS = {"lattice": lattice_jobs, "order": order_jobs, "words": words_jobs}


def build_jobs(name: str, hg, seed: int, workdir: str) -> list[Job]:
    """The job list of one round, in one seeded interleaved order."""
    rng = random.Random(f"{name}:{seed}")
    jobs = WORKLOADS[name](hg, rng, workdir)
    rng.shuffle(jobs)
    return jobs
