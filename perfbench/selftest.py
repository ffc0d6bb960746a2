"""Self-tests of the benchmark harness; none of them runs a full workload.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import anick  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class ChecksTest(unittest.TestCase):
    def xyz_table(self, degree):
        diag = wl.expected_betti_diagonal(degree)
        return [[diag[i] if i == j else 0 for j in range(degree + 1)] for i in range(degree + 1)]

    def test_betti_check_accepts_the_closed_form(self):
        wl.check_betti_values(self.xyz_table(12), 12)

    def test_betti_check_rejects_a_perturbed_entry(self):
        for i, j in [(2, 2), (4, 4), (5, 5), (1, 2), (3, 12)]:
            table = self.xyz_table(12)
            table[i][j] += 1
            with self.assertRaises(wl.CheckFailure):
                wl.check_betti_values(table, 12)

    def test_hilbert_check_rejects_a_wrong_coefficient(self):
        good = wl.expected_g4_hilbert(6)
        self.assertEqual(good, [1, 4, 12, 32, 80, 192, 448])
        wl.check_hilbert(good, 6)
        for k in range(len(good)):
            bad = list(good)
            bad[k] -= 1
            with self.assertRaises(wl.CheckFailure):
                wl.check_hilbert(bad, 6)

    def test_normal_word_counts_by_brute_force(self):
        # Two letters, obstruction aa: words without aa, counted by Fibonacci.
        self.assertEqual(wl.normal_word_counts([(0, 0)], 2, 5), [1, 2, 3, 5, 8, 13])
        self.assertEqual(wl.normal_word_counts([], 3, 3), [1, 3, 9, 27])

    def test_g4_hilbert_holds_under_every_precedence(self):
        degree = 4
        for perm in itertools.permutations(wl.G4_LETTERS):
            rels = [r.format(**{c: c for c in wl.G4_LETTERS}) for r in wl.G4_RELATIONS]
            p = anick.parse_presentation(wl._presentation_text(list(perm), "Q", rels))
            gb = anick.complete(p, degree)
            counts = wl.normal_word_counts(gb.obstructions, 4, degree)
            wl.check_hilbert(counts, degree)

    def test_xyz_basis_check(self):
        for field in ("Q", "Fp 32003"):
            text = wl.relabelled_presentation("xyz", wl.LETTERS, wl.XYZ_RELATIONS, field, 7)
            gb = anick.complete(anick.parse_presentation(text), 7)
            wl.check_xyz_basis(gb.elements, 7)
            with self.assertRaises(wl.CheckFailure):
                wl.check_xyz_basis(gb.elements[1:], 7)
            with self.assertRaises(wl.CheckFailure):
                wl.check_xyz_basis(gb.elements, 8)

    def test_cli_check_rejects_a_changed_payload(self):
        def render(verdict, seconds):
            report = {"command": "koszul", "config": {"max_deg": 8},
                      "payload": {"verdict": verdict}, "timing": {"seconds": seconds}}
            return json.dumps(report, indent=2) + "\n"

        out = render("koszul-up-to(8)", 0.25)
        saved = wl.CLI_DIGESTS["koszul"]
        try:
            wl.CLI_DIGESTS["koszul"] = wl.cli_output_digest("koszul", out)
            wl.check_cli_output("koszul", 0, out, "")
            wl.check_cli_output("koszul", 0, render("koszul-up-to(8)", 1.5), "")
            for bad_code, bad_out in [(0, render("fails-at(2,3)", 0.25)), (1, out), (0, "")]:
                with self.assertRaises(wl.CheckFailure):
                    wl.check_cli_output("koszul", bad_code, bad_out, "")
        finally:
            wl.CLI_DIGESTS["koszul"] = saved

    def test_seeded_inputs(self):
        for name, workload in wl.WORKLOADS.items():
            self.assertEqual(workload.input_text(5), workload.input_text(5), name)
        g4 = wl.WORKLOADS["gb-g4"]
        self.assertIn("vars: a > b > c > d\n", g4.input_text(0))
        self.assertIn("vars: x > y > z\n", wl.WORKLOADS["betti-xyz"].input_text(0))
        texts = {g4.input_text(seed) for seed in range(8)}
        self.assertGreater(len(texts), 1)


class ReferenceSpeedTest(unittest.TestCase):
    def test_rounds_are_rescaled_by_the_loop_around_them(self):
        ref = reference.SLICE_S
        worker = {
            "references": [[2 * ref, 4 * ref], [4 * ref, 2 * ref, 3 * ref, ref]],
            "jobs": [
                {"round": 0, "wall_s": 1.0},
                {"round": 0, "wall_s": 2.0},
                {"round": 1, "wall_s": 5.0},
            ],
        }
        self.assertEqual(run.round_times(worker), [3.0, 5.0])
        # The loop ran three times slower than at reference speed around
        # round 0, and 2.5 times slower around round 1.
        power = reference.SLOWDOWN_EXPONENT
        scaled = run.rounds_at_reference_speed(worker)
        self.assertAlmostEqual(scaled[0], 3.0 / 3.0 ** power)
        self.assertAlmostEqual(scaled[1], 5.0 / 2.5 ** power)

    def test_deadline_grows_with_the_run(self):
        self.assertLess(run.run_deadline_s(25), 180)
        self.assertGreater(run.run_deadline_s(200), 400)


class SelfTimeTest(unittest.TestCase):
    def test_nested_trace(self):
        # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and two
        # overlapping children b [5, 6] and c [5.5, 7].
        spans = [
            ["root", 0.0, 10.0, -1, "j"],
            ["a", 1.0, 4.0, 0, "j"],
            ["g", 2.0, 3.0, 1, "j"],
            ["b", 5.0, 6.0, 0, "j"],
            ["c", 5.5, 7.0, 0, "j"],
        ]
        self.assertEqual(tr.self_times(spans), [5.0, 2.0, 1.0, 1.0, 1.5])

    def test_tracer_records_parents_jobs_and_restores(self):
        ticks = itertools.count()
        tracer = tr.Tracer(clock=lambda: float(next(ticks)))

        class Box:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        original = Box.outer
        tracer.span(Box, "outer", "box.outer")
        tracer.span(Box, "inner", "box.inner")
        tracer.begin((0, "job"))
        self.assertEqual(Box().outer(), 2)
        tracer.finish()
        self.assertEqual(
            tracer.spans,
            [["box.outer", 0.0, 3.0, -1, (0, "job")], ["box.inner", 1.0, 2.0, 0, (0, "job")]],
        )
        self.assertEqual(tr.self_times(tracer.spans), [2.0, 1.0])
        tracer.uninstall()
        self.assertIs(Box.outer, original)

    def test_traced_pipeline_reports_every_layer(self):
        import anick.groebner

        original = anick.groebner.normal_form
        tracer = tr.Tracer()
        tr.install(tracer, anick)
        try:
            text = wl.relabelled_presentation("xyz", wl.LETTERS, wl.XYZ_RELATIONS, "Q", 0)
            p = anick.parse_presentation(text)
            for round_index in range(2):
                tracer.begin((round_index, "betti"))
                gb = anick.complete(p, 8)
                ctx = anick.ResolutionContext(gb, level_max=8, deg_max=8)
                anick.betti_table(p, 8, 8, ctx=ctx)
            tracer.finish()
        finally:
            tracer.uninstall()
        self.assertIs(anick.groebner.normal_form, original)
        values, unstable = tr.layer_metrics(tracer)
        self.assertEqual(unstable, [])
        self.assertEqual(set(values), set(tr.PER_LAYER_UNITS) - {"trace.round_s", "trace.overhead_s"})
        self.assertEqual(values["groebner.basis_size"], 9)
        self.assertEqual(values["automaton.states"], 9)
        self.assertEqual(values["groebner.complete_calls"], 1)
        self.assertGreater(values["linalg.rank_calls"], 0)
        self.assertGreater(values["homology.matrix_entries"], values["homology.matrix_nnz"])


    def test_xyz_counts_reproduce_the_d12_baseline(self):
        # The Betti job at D=12 with rank stubbed out: the counts come from
        # the same calls, without the rank work that is most of the time.
        import anick.linalg

        real_rank = anick.linalg.rank
        anick.linalg.rank = lambda rows, field: 0
        tracer = tr.Tracer()
        tr.install(tracer, anick)
        try:
            text = wl.relabelled_presentation("xyz", wl.LETTERS, wl.XYZ_RELATIONS, "Q", 3)
            p = anick.parse_presentation(text)
            tracer.begin((0, "betti"))
            gb = anick.complete(p, 12)
            ctx = anick.ResolutionContext(gb, level_max=12, deg_max=12)
            anick.betti_table(p, 12, 12, ctx=ctx)
            tracer.finish()
        finally:
            tracer.uninstall()
            anick.linalg.rank = real_rank
        values, _ = tr.layer_metrics(tracer)
        for name, want in wl.XYZ_D12_ANCHORS.items():
            self.assertEqual(values[name], want, name)


class MetricNamesTest(unittest.TestCase):
    def test_names_units_and_benchmark_file(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)
        self.assertEqual(layers, tr.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))
        names = list(e2e) + list(layers) + list(run.REPORTED_ONLY_UNITS) + list(wl.WORKLOADS)
        for name in names:
            self.assertRegex(name, NAME)
            self.assertTrue(NAME.fullmatch(name), name)
        for workload in wl.WORKLOADS.values():
            self.assertLessEqual(set(workload.anchors), set(layers))


if __name__ == "__main__":
    unittest.main()
