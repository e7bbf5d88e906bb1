"""Process-level tests of the benchmark driver.

Run through `python3 perfbench/run.py --self-test`, which builds the
driver and passes its path in PERFBENCH_DRIVER and a scratch directory
in PERFBENCH_SCRATCH.
"""

import json
import os
import re
import subprocess
import unittest
from pathlib import Path

DRIVER = os.environ.get("PERFBENCH_DRIVER")
SCRATCH = Path(os.environ.get("PERFBENCH_SCRATCH", "test-scratch"))
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def driver_cmd(workload, seed=3, trace=0, seconds="0.5"):
    return [DRIVER, "--workload", workload, "--seed", str(seed), "--seconds", seconds,
            "--trace", str(trace), "--tiny", "--out-dir", str(SCRATCH / "out"),
            "--tmp-dir", str(SCRATCH / "tmp")]


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@unittest.skipUnless(DRIVER, "PERFBENCH_DRIVER not set")
class DriverTest(unittest.TestCase):
    def test_concurrent_runs_use_distinct_scratch_dirs(self):
        procs = [subprocess.Popen(driver_cmd("stream_spill", seed=s), stdout=subprocess.PIPE,
                                  text=True) for s in (1, 2)]
        outs = [p.communicate(timeout=120)[0] for p in procs]
        dirs = []
        for p, out in zip(procs, outs):
            self.assertEqual(p.returncode, 0, out)
            r = result_of(out)
            self.assertTrue(r["correct"], out)
            self.assertEqual(r["failed"], 0)
            dirs.append(re.search(r"^scratch_dir=(.*)$", out, re.M).group(1))
        self.assertNotEqual(dirs[0], dirs[1])
        for d in dirs:
            self.assertFalse(Path(d).exists(), f"{d} left behind")

    def test_metrics_match_benchmark_json(self):
        spec = json.loads(BENCHMARK.read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(driver_cmd("scatter_large", trace=trace), stdout=subprocess.PIPE,
                                 text=True, check=True).stdout
            r = result_of(out)
            self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in r["metrics"].items()}
            self.assertEqual(got, want)

    def test_result_file_stores_fingerprint(self):
        subprocess.run(driver_cmd("algos_program", seed=5), stdout=subprocess.DEVNULL,
                       check=True)
        stored = json.loads((SCRATCH / "out" / "result-algos_program-seed5-tiny-trace0.json")
                            .read_text())
        self.assertEqual(set(stored["fingerprint"]),
                         {"cpu_model", "nproc", "compiler", "build_type", "dxbsp_simd",
                          "dxbsp_obs_trace", "ndebug", "sanitizer"})
        self.assertEqual(stored["failed_frac"], 0)
        self.assertRegex(stored["model_rel_err_bits"], r"^[0-9a-f]{16}$")
        self.assertIn("samples", stored["metrics"]["op_ms_p50"])

    def test_bad_arguments_exit_nonzero_without_result(self):
        out = subprocess.run([DRIVER, "--workload", "nope", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
