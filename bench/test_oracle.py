"""Tests of the benchmark's own oracle.

    python3 -m unittest discover -s bench -p 'test_*.py'

The recursion is checked against closed forms (n!, Catalan numbers,
2^n - 1).  Every check must accept the real hgpoly output and reject
the same output perturbed in one place.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import unittest
from itertools import combinations
from math import comb, factorial

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import hgpoly  # noqa: E402
import hgpoly.cli  # noqa: E402
import hgpoly.corpus  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402


def complete(n: int) -> oracle.Graph:
    a = [str(i) for i in range(n)]
    return oracle.Graph(a, [[x] for x in a] + [list(p) for p in combinations(a, 2)])


def path(n: int) -> oracle.Graph:
    a = [str(i) for i in range(n)]
    return oracle.Graph(a, [[x] for x in a] + [[a[i], a[i + 1]] for i in range(n - 1)])


def simplex(n: int) -> oracle.Graph:
    a = [str(i) for i in range(n)]
    return oracle.Graph(a, [[x] for x in a] + [a])


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


class Recursion(unittest.TestCase):
    def test_closed_forms(self):
        for n in range(1, 8):
            self.assertEqual(complete(n).f_vector()[0], factorial(n))
            self.assertEqual(path(n).f_vector()[0], catalan(n))
            self.assertEqual(sum(simplex(n).f_vector()), 2 ** n - 1)

    def test_identities(self):
        for g in (complete(5), path(6), simplex(4)):
            oracle.check_fvector_identities(g, g.f_vector())

    def test_scalar_counts_match_polynomial(self):
        rng = random.Random(0)
        for _ in range(20):
            atoms, edges = workloads.random_hypergraph(rng, rng.choice((4, 5, 6)))
            g = oracle.Graph(atoms, edges)
            self.assertEqual(workloads.count_constructs(g), sum(g.f_vector()))
            self.assertEqual(workloads.count_constructs(g, singletons=True), g.f_vector()[0])


def cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = hgpoly.cli.main(argv)
    assert status == 0, argv
    return buf.getvalue()


def drop_line(text: str, i: int = 1) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:i] + lines[i + 1:])


class Checks(unittest.TestCase):
    """Each check passes on the real output and fails on a perturbed one."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        h = hgpoly.corpus.hemiassociahedron()
        cls.data = h.to_json_dict()
        cls.g = oracle.Graph.from_json(cls.data)
        cls.path = workloads.write_json(cls.tmp.name, "h.json", cls.data)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def assert_rejects(self, check, good: str, *bad: str):
        check(good)
        for text in bad:
            with self.assertRaises(CheckFailed):
                check(text)

    def hg(self, *argv: str) -> str:
        return cli(["hg", *argv, self.path])

    def test_fvector(self):
        good = self.hg("fvector")
        f = [int(x) for x in good.split()]
        bad = " ".join(map(str, [f[0] + 1] + f[1:])) + "\n"
        self.assert_rejects(lambda o: oracle.check_fvector(self.g, o), good, bad)

    def test_faces(self):
        good = self.hg("faces")
        lines = good.splitlines()
        dim, text = lines[0].split("\t")
        wrong_dim = f"{int(dim) + 1}\t{text}\n" + "".join(line + "\n" for line in lines[1:])
        self.assert_rejects(lambda o: oracle.check_faces(self.g, o), good,
                            drop_line(good), wrong_dim, good + lines[0] + "\n")

    def test_constructions(self):
        good = self.hg("constructions")
        first = good.splitlines()[0]
        not_a_construct = good.replace(first, first[::-1], 1)
        self.assert_rejects(lambda o: oracle.check_constructions(self.g, o), good,
                            drop_line(good), not_a_construct)

    def test_hasse(self):
        good = self.hg("hasse")
        edges = [i for i, line in enumerate(good.splitlines()) if " -> " in line]
        lines = good.splitlines(keepends=True)
        a, _, b = lines[edges[0]].strip().rstrip(";").partition(" -> ")
        reversed_edge = "".join(lines[:edges[0]] + [f"  {b} -> {a};\n"] + lines[edges[0] + 1:])
        self.assert_rejects(lambda o: oracle.check_hasse(self.g, o), good,
                            drop_line(good, edges[0]), reversed_edge)

    def test_hrep(self):
        good = self.hg("realize", "--hrep")
        first = good.splitlines()[0]
        left, op, rhs = first.rsplit(" ", 2)
        bad_bound = good.replace(first, f"{left} {op} {int(rhs) + 1}", 1)
        self.assert_rejects(lambda o: oracle.check_hrep(self.g, o), good,
                            drop_line(good), bad_bound)

    def test_vertices(self):
        good = self.hg("realize", "--vertices")
        data = json.loads(good)
        key = sorted(data["vertices"])[0]
        coords = data["vertices"][key]
        coords[0], coords[1] = str(int(coords[0]) + 1), str(int(coords[1]) - 1)
        self.assert_rejects(lambda o: oracle.check_vertices(self.g, o), good, json.dumps(data))

    def test_verify(self):
        good = self.hg("realize", "--verify")
        self.assert_rejects(lambda o: oracle.check_verify(self.g, o), good,
                            good.replace("PASS", "FAIL"),
                            good.replace("dimension: 3", "dimension: 2"))

    def test_order(self):
        job = workloads.order_job(hgpoly, self.path, self.data)
        good = job.run()
        lines = good.splitlines()
        flipped = "0" if lines[-1][0] == "1" else "1"
        bad = "\n".join(lines[:-1] + [flipped + lines[-1][1:]]) + "\n"
        self.assert_rejects(job.check, good, bad)

    def test_census3(self):
        good = cli(["pba", "census", "3"])
        self.assert_rejects(oracle.check_census3, good, good.replace("vertices 120", "vertices 121"))

    def test_op(self):
        for shape, kind in (("a(b(c(d(e))))", "beta"), ("a(b,c,d,e)", "theta"), ("a(b(c),d(e))", None)):
            tree = hgpoly.parse_tree(shape)
            parent = {c: p for p, c in tree.edges()}
            p = workloads.write_json(self.tmp.name, "t.json", tree.to_json_dict())
            words = cli(["op", "words", "--tree", p])
            self.assert_rejects(lambda o: oracle.check_op_words(parent, o), words,
                                drop_line(words, 0), words.replace("a", "b", 1))
            dot = cli(["op", "classify", "--tree", p])
            edge = next(i for i, line in enumerate(dot.splitlines()) if " -> " in line)
            bad = [drop_line(dot, edge)]
            if kind is not None:
                other = "theta" if kind == "beta" else "beta"
                bad.append(dot.replace(f'label="{kind}"', f'label="{other}"', 1))
            self.assert_rejects(lambda o: oracle.check_op_classify(parent, o, kind), dot, *bad)

    def test_trunc(self):
        p = workloads.write_json(self.tmp.name, "ht.json", {
            "format": 1, "carrier": ["x", "y", "z"],
            "hyperedges": [["x"], ["y"], ["z"], ["x", "y"], ["y", "z"]]})
        good = cli(["trunc", "init", "--truncations", p])
        data = json.loads(good)
        data["vertex_hypergraph"][0] = data["vertex_hypergraph"][0][:1]
        self.assert_rejects(lambda o: oracle.check_trunc_state(3, json.loads(o)), good,
                            json.dumps(data))

    def test_pba_round_trip(self):
        setup = hgpoly.pba_setup(3)
        faces = hgpoly.face_constructs(setup)[100:102]
        texts = [hgpoly.print_construct(setup.hypergraph, t) for t in faces]
        seen: dict[str, str] = {}
        check = workloads._encode_check(hgpoly, setup, texts[0], seen)
        good = cli(["pba", "encode", "3", texts[0]])
        other = cli(["pba", "encode", "3", texts[1]])
        self.assert_rejects(check, good, other)
        repeat = workloads._encode_check(hgpoly, setup, texts[1], seen)
        with self.assertRaises(CheckFailed):
            repeat(good)  # a second face may not reuse a word


class Workloads(unittest.TestCase):
    def test_decode_check(self):
        with tempfile.TemporaryDirectory() as d:
            jobs = [j for j in workloads.build_jobs("words", hgpoly, 3, d) if j.kind == "pba-decode-3"]
            good = jobs[0].run()
            jobs[0].check(good)
            with self.assertRaises(CheckFailed):
                jobs[0].check(jobs[1].run())


    def test_same_seed_same_inputs(self):
        for name in ("lattice", "words"):
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                one = workloads.build_jobs(name, hgpoly, 7, a)
                two = workloads.build_jobs(name, hgpoly, 7, b)
                self.assertEqual([j.kind for j in one], [j.kind for j in two])
                files = sorted(os.listdir(a))
                self.assertEqual(files, sorted(os.listdir(b)))
                for f in files:
                    with open(os.path.join(a, f)) as fa, open(os.path.join(b, f)) as fb:
                        self.assertEqual(fa.read(), fb.read(), f)

    def test_tree_shapes(self):
        self.assertEqual([len(workloads.tree_shapes(n)) for n in range(1, 7)], [1, 1, 2, 4, 9, 20])


class Declaration(unittest.TestCase):
    def test_benchmark_json_lists_every_metric(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
            declared = json.load(fh)
        self.assertEqual([m["name"] for m in declared["per_layer"]],
                         tracer.metric_names() + ["trace.overhead_s"])
        self.assertEqual(sorted(w["name"] for w in declared["workloads"]),
                         sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
