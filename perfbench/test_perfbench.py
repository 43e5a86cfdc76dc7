"""The benchmark's own tests.

    python3 -m unittest perfbench/test_perfbench.py          # everything
    python3 -m unittest perfbench.test_perfbench.MetricMath  # no build

MetricMath checks the metric arithmetic against hand-computed values;
Smoke builds the benchmark and runs every workload briefly with all of
its answer checks, then validates the printed result against
BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402

ROOT = os.path.dirname(HERE)


class MetricMath(unittest.TestCase):

    def test_percentile_needs_ten_samples_beyond(self):
        self.assertEqual(M.samples_needed(0.5), 20)
        self.assertEqual(M.samples_needed(0.9), 100)
        self.assertEqual(M.samples_needed(0.99), 1000)
        values = list(range(1000))
        self.assertIsNone(M.percentile(values[:999], 0.99))
        self.assertAlmostEqual(M.percentile(values, 0.99), 989.01)
        self.assertIsNone(M.percentile(values[:19], 0.5))
        self.assertEqual(M.percentile(values[:21], 0.5), 10)

    def test_percentile_interpolates_between_ranks(self):
        values = [float(v) for v in range(100, 0, -1)]
        self.assertAlmostEqual(M.percentile(values, 0.9), 90.1)
        self.assertAlmostEqual(M.percentile(values, 0.5), 50.5)

    def test_latency_counts_from_due_time(self):
        # Requests due every 20 ms; the second one stalls 50 ms, so the
        # third is sent late and its latency includes the wait.
        due = [0.000, 0.020, 0.040]
        sent = [0.000, 0.020, 0.071]
        done = [0.001, 0.071, 0.072]
        latency = M.latencies_from_due(due, done)
        self.assertEqual([round(x, 3) for x in latency], [0.001, 0.051, 0.032])
        from_send = [d - s for s, d in zip(sent, done)]
        self.assertLess(from_send[2], latency[2])

    def test_window_rates_use_first_to_last_completion(self):
        # Completions every 0.1 s of 1024 updates; the window [1, 2) also
        # holds a stall, the partial window [2, 2.5) is dropped.
        done = [i / 10 for i in range(10)] + [1.0, 1.1, 1.5, 1.9, 2.2]
        rates = M.window_rates(done, 1024, 1.0, 2.5)
        self.assertEqual(len(rates), 2)
        self.assertAlmostEqual(rates[0], 9 * 1024 / 0.9)
        self.assertAlmostEqual(rates[1], 3 * 1024 / 0.9)
        self.assertAlmostEqual(M.median(rates + [0.0]), 3 * 1024 / 0.9)

    def test_faster_quartile_across_windows(self):
        # Twenty 1-second windows; a steal burst slows five of them. The
        # faster quartile ignores the burst, the plain mean does not.
        rates = [100.0] * 15 + [60.0] * 5
        self.assertEqual(M.quantile(rates, 0.75), 100.0)
        self.assertEqual(M.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0)
        self.assertAlmostEqual(M.quantile([1.0, 2.0], 0.75), 1.75)
        self.assertLess(M.mean(rates), 100.0)

    def test_windows_and_cpu_interpolation(self):
        done = [0.2, 0.9, 1.1, 1.5, 2.7]
        self.assertEqual(M.windows(done, 1.0, 2.5), [[0, 1], [2, 3]])
        trace = [(10.0, 1.00), (10.5, 1.40), (11.0, 1.60)]
        self.assertAlmostEqual(M.interpolate(trace, 10.25), 1.20)
        self.assertAlmostEqual(M.interpolate(trace, 9.0), 1.00)
        self.assertAlmostEqual(M.interpolate(trace, 12.0), 1.60)
        self.assertAlmostEqual(
            M.interpolate(trace, 11.0) - M.interpolate(trace, 10.0), 0.60)

    def test_self_time_subtracts_the_called_layer(self):
        # Replay totals of identical inputs: client -> registry -> window
        # -> sketch. Self times telescope back to the outermost total.
        totals = {"client": 980.0, "registry": 800.0, "window": 790.0,
                  "sketch": 650.0}
        chain = ["client", "registry", "window", "sketch"]
        selfs = [M.self_time(totals[a], totals[b])
                 for a, b in zip(chain, chain[1:])] + [totals["sketch"]]
        self.assertEqual(selfs, [180.0, 10.0, 140.0, 650.0])
        self.assertEqual(sum(selfs), totals["client"])

    def test_proc_stat_cpu_reader(self):
        # A command name with spaces and parentheses must not shift the
        # utime (14) / stime (15) fields.
        stat = ("4242 (lps serve) (x)) S 1 4242 4242 0 -1 4194304 10 0 0 0 "
                "1234 567 0 0 20 0 9 0 100 1000 200 0\n")
        self.assertEqual(M.parse_proc_stat(stat), 1234 + 567)
        with tempfile.TemporaryDirectory() as proc:
            os.makedirs(os.path.join(proc, "4242"))
            with open(os.path.join(proc, "4242", "stat"), "w") as f:
                f.write(stat)
            self.assertAlmostEqual(
                M.read_proc_cpu_seconds(4242, proc, ticks_per_second=100),
                18.01)

    def test_vm_hwm_reader(self):
        status = "Name:\tlps_serve\nVmPeak:\t 300000 kB\nVmHWM:\t  115200 kB\n"
        self.assertEqual(M.parse_vm_hwm_kb(status), 115200)
        with tempfile.TemporaryDirectory() as proc:
            os.makedirs(os.path.join(proc, "7"))
            with open(os.path.join(proc, "7", "status"), "w") as f:
                f.write(status)
            self.assertAlmostEqual(M.read_vm_hwm_mb(7, proc), 112.5)
        with self.assertRaises(ValueError):
            M.parse_vm_hwm_kb("Name:\tx\n")

    def test_host_steal_share(self):
        before = M.parse_cpu_line("cpu  100 0 50 800 10 0 0 40 0 0\n")
        after = M.parse_cpu_line("cpu  200 0 100 1600 20 0 0 80 7 0\n")
        self.assertEqual(before, (1000, 40))
        self.assertAlmostEqual(M.steal_pct(before, after), 4.0)


def run_bench(workload, seconds, trace=0):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)


class Smoke(unittest.TestCase):
    """Short runs: every answer check runs; percentiles may lack samples,
    so `correct` may be false here, but no answer may be wrong."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check(self, workload, seconds, trace=0):
        r = run_bench(workload, seconds, trace)
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = self.bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], float)
        self.assertIn("metric error_rate 0 ratio", r.stdout)
        for key in ("kernel_backend", "io_backend", "hardware_threads"):
            self.assertTrue(any(l.startswith(f"meta {key} ") for l in lines))
        return result

    def test_firehose_hh(self):
        self.check("firehose_hh", 2)

    def test_paper_samplers(self):
        self.check("paper_samplers", 2)

    def test_dup_replay(self):
        result = self.check("dup_replay", 1)
        self.assertTrue(result["correct"])

    def test_traced_firehose_hh(self):
        result = self.check("firehose_hh", 2, trace=1)
        self.assertGreater(result["metrics"]["heavy.update_us_per_update"]
                           ["value"], 0)


if __name__ == "__main__":
    unittest.main()
