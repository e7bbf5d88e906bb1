#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-baseline
    python3 perfbench/run.py --self-test

Builds the simulator library and the driver from source into
.bench_build/ at the repository root, then runs one workload. The
driver's last stdout line is the result JSON. Results, Chrome traces and
spill scratch stay under .bench_build/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
MANIFEST = HERE / "manifest.json"
WORKLOADS = ["scatter_large", "scatter_scheduled", "algos_program", "stream_spill"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(tests=False):
    """Configures and builds; returns the build directory."""
    bdir = BUILD / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release",
         f"-DPERFBENCH_TESTS={'ON' if tests else 'OFF'}"],
        ["cmake", "--build", str(bdir), "-j", jobs, "--target", "perfbench_driver"]
        + (["perfbench_test"] if tests else []),
    ]
    for cmd in steps:
        try:
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                 text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return bdir


def load_manifest():
    with open(MANIFEST) as f:
        return json.load(f)


def run_driver(bdir, args):
    """Runs the driver with inherited stdout; returns its exit code."""
    cmd = [str(bdir / "perfbench_driver")] + args
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s", 1)


def write_baseline():
    bdir = build()
    manifest = load_manifest()
    seed = str(manifest["default_seed"])
    digests = {}
    model_errs = {}
    for w in WORKLOADS:
        out = subprocess.run(
            [str(bdir / "perfbench_driver"), "--workload", w, "--seed", seed,
             "--baseline", "--tmp-dir", str(BUILD / "tmp")],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        if out.returncode != 0:
            fail(f"baseline refused or failed for {w} (exit {out.returncode})",
                 out.returncode)
        _, name, digest, model_err_bits = out.stdout.split()
        digests[name] = digest
        model_errs[name] = model_err_bits
    manifest["digests"] = digests
    manifest["model_rel_err_bits"] = model_errs
    with open(MANIFEST, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    print(json.dumps({"digests": digests, "model_rel_err_bits": model_errs}, indent=2))


def self_test():
    bdir = build(tests=True)
    scratch = bdir / "test-scratch"
    shutil.rmtree(scratch, ignore_errors=True)  # no stored results from older builds
    code = subprocess.run([str(bdir / "perfbench_test")], cwd=bdir).returncode
    if code != 0:
        sys.exit(code)
    env = dict(os.environ, PERFBENCH_DRIVER=str(bdir / "perfbench_driver"),
               PERFBENCH_SCRATCH=str(scratch))
    code = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", str(HERE / "tests"),
         "-p", "test_*.py", "-v"], env=env).returncode
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-baseline", action="store_true",
                    help="record the default-seed output digests and model errors "
                         "in manifest.json")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        self_test()
    if args.write_baseline:
        write_baseline()
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")

    bdir = build()
    manifest = load_manifest()
    driver_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(BUILD / "results"), "--tmp-dir", str(BUILD / "tmp"),
    ]
    if args.seed == manifest["default_seed"]:
        digest = manifest.get("digests", {}).get(args.workload)
        model_err = manifest.get("model_rel_err_bits", {}).get(args.workload)
        if digest:
            driver_args += ["--expect-digest", digest]
        if model_err:
            driver_args += ["--expect-model-err", model_err]
    sys.exit(run_driver(bdir, driver_args))


if __name__ == "__main__":
    main()
