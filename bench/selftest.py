"""Self-tests of the benchmark's generators, output checks, calibration
and tracer.

    python3 bench/selftest.py

Takes a few seconds; writes only under ``.bench_out/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402 (loads every dmuss layer, cli included)
from dmuss import AccessStructure, in_capacity_region  # noqa: E402
from dmuss.errors import ShapeMismatchError  # noqa: E402
from tracer import Tracer  # noqa: E402

MINI_LADDER = (
    (6, 24, gen.P16, "in", Fraction(3, 4)),
    (6, 24, gen.P31, "out", Fraction(1)),
    (5, 20, gen.P16, "half", Fraction(1)),
)
CHAIN = {
    "in": ["check", "plan", "encode", "decode", "decode", "verify"],
    "half": ["check", "plan", "encode", "decode", "decode", "verify"],
    "out": ["check", "plan"],
}


def all_inputs(seed: int) -> str:
    """Every input the three workloads draw from one seed, serialised."""
    ladder = [
        (inst.instance_doc(), inst.messages_doc(), inst.users)
        for inst in gen.provision_ladder(seed)
    ]
    return json.dumps(
        [vars(gen.store_input(seed)), vars(gen.retrieve_input(seed)), ladder], default=str
    )


class GeneratorTests(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for seed in (0, 7):
            self.assertEqual(all_inputs(seed), all_inputs(seed))
        self.assertNotEqual(all_inputs(0), all_inputs(7))

    def test_generators_do_not_import_dmuss(self):
        code = (
            f"import sys; sys.path.insert(0, {str(BENCH)!r}); import gen;"
            "gen.provision_ladder(1); gen.store_input(1); gen.retrieve_input(1);"
            "sys.exit(any(m.split('.')[0] == 'dmuss' for m in sys.modules))"
        )
        self.assertEqual(subprocess.run([sys.executable, "-c", code], check=False).returncode, 0)

    def test_region_verdicts(self):
        for seed in range(3):
            for inp in (gen.store_input(seed), gen.retrieve_input(seed)):
                report = in_capacity_region(AccessStructure.of(inp.access), inp.rates)
                self.assertTrue(report.ok, report.describe())
            for inst in gen.provision_ladder(seed):
                report = in_capacity_region(AccessStructure.of(inst.access), inst.rates)
                self.assertEqual(report.ok, inst.kind != "out", (seed, inst.k, inst.n, inst.kind))

    def test_rational_cases_scale_back_into_region(self):
        for seed in range(5):
            for inst in gen.provision_ladder(seed):
                if inst.kind != "half":
                    continue
                self.assertTrue(any(Fraction(r).denominator == 2 for r in inst.rates))
                corner = gen.scale_to_integers(inst.rates)
                self.assertEqual(corner, [int(2 * r) for r in inst.rates])
                acc = AccessStructure.of(inst.access)
                self.assertTrue(in_capacity_region(acc, corner).ok)
                self.assertEqual([len(m) for m in inst.blocks[0]], corner)


class CheckerTests(unittest.TestCase):
    def setUp(self):
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=OUT_DIR)

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_bad_outputs_count_as_failures(self):
        store = workloads.Store(seed=3, workdir=self.tmp)
        store.setup()
        plan = store.plan
        msgs = gen.messages(gen.random.Random(1), plan.field.p, plan.rates)
        shares = workloads.codec.encode(plan, msgs, seed=2).shares
        k = max(range(1, plan.K + 1), key=lambda u: plan.rates[u - 1])
        view = workloads.user_view(plan, k, shares)

        corrupted = dict(view)
        node = min(corrupted)
        corrupted[node] = (corrupted[node] + 1) % plan.field.p
        short = dict(view)
        del short[node]
        outside = gen.ladder_instance(gen.random.Random(5), *MINI_LADDER[1])
        path = Path(self.tmp) / "outside.json"
        path.write_text(json.dumps(outside.instance_doc()))

        tally = workloads.Tally()
        self.assertTrue(tally.run(lambda: workloads.read_back(plan, k, view, msgs[k - 1])))
        self.assertFalse(tally.run(lambda: workloads.read_back(plan, k, corrupted, msgs[k - 1])))
        self.assertFalse(tally.run(lambda: workloads.expect_exit(["check", str(path)], 0)))
        self.assertFalse(tally.run(lambda: workloads.read_back(plan, k, short, msgs[k - 1])))
        self.assertEqual((tally.attempted, tally.failed), (4, 3))
        self.assertEqual(len(tally.latencies), 4)
        kinds = [f.split(":")[0] for f in tally.failures]
        self.assertEqual(kinds, ["WrongOutput", "WrongOutput", ShapeMismatchError.__name__])

    def test_expected_rejection_is_a_success_and_chains_stop_at_a_failure(self):
        prov = workloads.Provision(seed=2, workdir=self.tmp, ladder=MINI_LADDER[1:2])
        prov.setup()
        tally = workloads.Tally()
        workloads.timed_loop(prov.batches(), tally, 0.0)
        self.assertEqual((tally.attempted, tally.failed), (2, 0))

        calls = []
        chain = [lambda: calls.append(1), lambda: 1 / 0, lambda: calls.append(3)]
        workloads.timed_loop(iter([[(0, chain)]]), tally, 0.0)
        self.assertEqual(calls, [1])
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        prov.close()

    def test_bare_directory_fails_without_a_result(self):
        bare = Path(self.tmp) / "bare"
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "store", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class CalibrationTests(unittest.TestCase):
    def test_kernel_does_not_import_dmuss(self):
        code = (
            f"import sys; sys.path.insert(0, {str(BENCH)!r}); import calib; calib.reading();"
            "sys.exit(any(m.split('.')[0] == 'dmuss' for m in sys.modules))"
        )
        self.assertEqual(subprocess.run([sys.executable, "-c", code], check=False).returncode, 0)

    def test_every_op_is_scaled_by_the_readings_around_it(self):
        tally = workloads.Tally()
        chain = [lambda: time.sleep(0.2)] * 4  # longer than two reading intervals
        workloads.timed_loop(iter([[(0, chain)]]), tally, 0.0)
        r, segments = tally.readings, tally.segments
        self.assertEqual(len(segments), 4)
        self.assertEqual(segments, sorted(segments))
        self.assertGreater(segments[-1], segments[0])
        self.assertTrue(all(0 <= s and s + 1 < len(r) for s in segments))
        for t, s, c in zip(tally.latencies, segments, tally.calibrated()):
            self.assertAlmostEqual(c, t * calib.REF_NOMINAL_S * 2 / (r[s] + r[s + 1]))


def dmuss_bindings() -> dict:
    """Every attribute of every loaded dmuss module, plus Field.__init__."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "dmuss":
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    out[("Field", "__init__")] = sys.modules["dmuss.gf"].Field.__dict__["__init__"]
    return out


class TracerTests(unittest.TestCase):
    def test_traced_pass(self):
        OUT_DIR.mkdir(exist_ok=True)
        prov = workloads.Provision(seed=4, workdir=str(OUT_DIR), ladder=MINI_LADDER)
        before = dmuss_bindings()
        tally = workloads.Tally()
        tracer = Tracer()
        try:
            with tracer:
                wrapped = dmuss_bindings()
                tracer.op = -1
                prov.setup()
                workloads.timed_loop(prov.batches(), tally, 0.0, tracer)
        finally:
            prov.close()
        after = dmuss_bindings()

        self.assertEqual((tally.attempted, tally.failed), (14, 0))
        changed = {key for key in before if wrapped[key] is not before[key]}
        self.assertIn(("dmuss.planner", "in_capacity_region"), changed)
        self.assertIn(("dmuss.cli", "main"), changed)
        self.assertIn(("Field", "__init__"), changed)
        self.assertEqual(set(after), set(before))
        for key, value in before.items():
            self.assertIs(after[key], value, key)
            self.assertFalse(hasattr(after[key], "bench_span"), key)

        self.assertTrue(all(s >= 0 for s in tracer.self_times()))

        commands: dict = {}
        for name, _, _, _, op in tracer.spans:
            if name.startswith("cli."):
                commands.setdefault(op, []).append(name[4:])
        self.assertEqual(list(commands), [0, 1, 2])
        for op, rung in zip(commands, MINI_LADDER):
            self.assertEqual(commands[op], CHAIN[rung[3]])

        metrics = tracer.layer_metrics(tally.attempted)
        self.assertEqual(metrics["cli.check.calls"][0], 3 / 14)
        self.assertGreater(metrics["access.in_capacity_region.rejected"][0], 0)
        self.assertGreater(metrics["planner.choose_zeta.det_calls"][0], 0)
        self.assertGreater(metrics["access.raised"][0], 0)


if __name__ == "__main__":
    unittest.main()
