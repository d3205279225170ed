"""Self-test of the benchmark on the tiny test geometry (2 antennas, two
layers of 4x4 cells). Runs every workload untraced and traced through
run.py, then shows that each output check rejects a corrupted output.

    python3 perfbench/selftest.py

Takes about half a minute; the time goes to starting fresh processes.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench_checks as bc  # noqa: E402
from bench_child import TINY_TRIALS, WORKLOADS, check_round  # noqa: E402
from simstack.experiment import read_ber_csv  # noqa: E402

OUT = ROOT / ".perfbench-out"


def run_tiny(workload, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                          capture_output=True, text=True, timeout=120)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    """Every workload path, untraced and traced, passes its checks and
    reports every metric BENCHMARK.json lists."""

    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.names = {0: {m["name"] for m in spec["end_to_end"]},
                     1: {m["name"] for m in spec["per_layer"]}}
        cls.results = {(w, t): run_tiny(w, t) for w in WORKLOADS for t in (0, 1)}

    def test_runs_pass(self):
        for (workload, trace), (proc, result) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), self.names[trace])
                self.assertNotIn("FAIL", proc.stdout)

    def test_traced_layers_do_work(self):
        m = {w: self.results[(w, 1)][1]["metrics"] for w in WORKLOADS}
        value = {w: {k: v["value"] for k, v in m[w].items()} for w in WORKLOADS}
        n, points = TINY_TRIALS, 5
        ref = value["reference"]
        # 40 iterations per operating point
        self.assertEqual(ref["training.train.calls"], n * points)
        self.assertEqual(ref["training.iterations"], n * points * 40)
        # taus runs twice per training iteration: for the forward pass and in param_grad
        self.assertGreaterEqual(ref["device.taus.calls"], 2 * n * points * 40)
        self.assertEqual(value["synthesis"]["training.train.calls"], 0)
        self.assertEqual(value["synthesis"]["design.fit.calls"], n)
        ber = value["ber_sweep"]
        self.assertEqual(ber["propagation.forward.calls"], 0)
        # every trial of every pool worker is traced
        self.assertEqual(ber["linklevel.simulate_block.calls"], n * points)
        self.assertEqual(ber["linklevel.bits"], n * points * 2 * 100000)
        for w in WORKLOADS:
            self.assertEqual(value[w]["experiment.run_trial.calls"], n)


class ChecksReject(unittest.TestCase):
    """Each check fails on a deliberately corrupted output."""

    @classmethod
    def setUpClass(cls):
        cls.dir = OUT / "selftest-ber_sweep"
        shutil.rmtree(cls.dir, ignore_errors=True)
        proc = subprocess.run([sys.executable, str(HERE / "bench_child.py"), "measure",
                               "--workload", "ber_sweep", "--seed", "7", "--seconds", "0.1",
                               "--trace", "0", "--out", str(cls.dir), "--tiny"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        cls.round = cls.dir / "round_0"
        cls.manifest = json.loads((cls.round / "manifest.json").read_text())
        cls.qpsk = read_ber_csv(cls.round / "ber_qpsk.csv")
        cls.qam16 = read_ber_csv(cls.round / "ber_qam16.csv")

    def sim(self):
        return self.manifest["config"]["simulation"]

    def test_bits(self):
        s = self.sim()
        args = (s["n_trials"], s["n_users"], s["bits_per_user"])
        self.assertTrue(bc.check_bits(self.qpsk, *args)[0])
        short = [dict(r) for r in self.qpsk]
        short[0]["bits"] -= 2
        self.assertFalse(bc.check_bits(short, *args)[0])
        over = [dict(r) for r in self.qpsk]
        over[-1]["errors"] = over[-1]["bits"] + 1
        self.assertFalse(bc.check_bits(over, *args)[0])

    def test_failed_trials(self):
        self.assertTrue(bc.check_no_failures(self.manifest)[0])
        self.assertFalse(bc.check_no_failures(dict(self.manifest, n_failed=1))[0])

    def test_fit_residuals(self):
        self.assertTrue(bc.check_fit_residuals([0.2, 0.62])[0])
        self.assertFalse(bc.check_fit_residuals([0.62, 1.3])[0])
        self.assertFalse(bc.check_fit_residuals([0.0, 0.62])[0])

    def test_gradients(self):
        self.assertTrue(bc.check_gradients({"device": 3e-8, "precoder": 5e-9})[0])
        self.assertFalse(bc.check_gradients({"device": 3e-8, "precoder": 2e-4})[0])

    def test_training_improves(self):
        self.assertTrue(bc.check_training_improves([(1.9, 0.4)])[0])
        self.assertFalse(bc.check_training_improves([(1.9, 0.4), (0.8, 0.8)])[0])

    def test_qam16_falls(self):
        self.assertTrue(bc.check_falls(self.qam16, "no_sim", "16-QAM")[0])
        swapped = [dict(r) for r in self.qam16]
        swapped[0]["ber"], swapped[-1]["ber"] = swapped[-1]["ber"], swapped[0]["ber"]
        self.assertFalse(bc.check_falls(swapped, "no_sim", "16-QAM")[0])

    def test_qpsk_exact(self):
        conf = self.manifest["config"]
        expected = bc.qpsk_expectations(conf, bc.direct_channels(conf))
        self.assertTrue(bc.check_qpsk_exact(self.qpsk, expected)[0])
        shifted = [dict(r) for r in self.qpsk]
        mean, var = expected[shifted[0]["ebn0_db"]]
        shifted[0]["errors"] = round(mean + 6 * math.sqrt(var))
        self.assertFalse(bc.check_qpsk_exact(shifted, expected)[0])
        # the channels of another seed predict other error counts
        other = dict(conf, simulation=dict(conf["simulation"], master_seed=8))
        self.assertFalse(bc.check_qpsk_exact(
            self.qpsk, bc.qpsk_expectations(conf, bc.direct_channels(other)))[0])

    def test_exact_ber_single_user(self):
        # one user, F = 1: the textbook QPSK BER Q(sqrt(2 Eb/N0)) per bit
        import numpy as np
        for ebn0_db in (0.0, 4.0, 8.0):
            g = 10 ** (ebn0_db / 10)
            mean, _ = bc.exact_slot_errors(np.eye(1), 1 / (2 * g))
            self.assertAlmostEqual(mean / 2, 0.5 * math.erfc(math.sqrt(g)), places=15)

    def test_corrupted_csv_file_fails_round(self):
        broken = self.dir / "broken"
        shutil.copytree(self.round, broken, dirs_exist_ok=True)
        path = broken / "ber_qpsk.csv"
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[5] = str(int(fields[5]) + int(fields[4]) // 20)
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        self.assertTrue(all(ok for _, ok, _ in check_round("ber_sweep", self.round)))
        failed = {name for name, ok, _ in check_round("ber_sweep", broken) if not ok}
        self.assertEqual(failed, {"qpsk_exact_ber"})


if __name__ == "__main__":
    unittest.main(verbosity=2)
