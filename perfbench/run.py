#!/usr/bin/env python3
"""Builds and runs the pim end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cold_fit|golden_signoff|warm_serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds pimd and perfbench_driver into .bench_build/ (CMake + Ninja, the
repository's own flags); later runs rebuild incrementally. Everything the
benchmark writes stays under .bench_build/. The last stdout line is the
result object; the exit code is non-zero when a correctness check failed
or the benchmark could not run.

    python3 perfbench/run.py --workload all --seed N --seconds S

runs the three workloads in turn and prints every figure by name and unit.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
STATE = os.path.join(ROOT, ".bench_build", "state")
WORKLOADS = ["cold_fit", "golden_signoff", "warm_serve"]
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds perfbench_driver and pimd (a no-op when current)."""
    for need in ("CMakeLists.txt", "src", os.path.join("tools", "pimd.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no pim source tree here (missing %s); run from a full checkout" % need)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "build.ninja")):
            subprocess.run(
                ["cmake", "-S", ROOT, "-B", BUILD, "-G", "Ninja",
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                 "-DCMAKE_PROJECT_pim_INCLUDE=" + os.path.join(ROOT, "perfbench", "build.cmake")],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "perfbench_driver", "pimd",
             "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr)


def clean_env():
    """perfbench_driver and pimd see no PIM_* settings from the caller's shell."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PIM_")}


def run_workload(workload, args, capture):
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--state", STATE,
           "--pimd", os.path.join(BUILD, "tools", "pimd")]
    # Own process group, so a timeout also stops the pimd it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(), start_new_session=True,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    build()
    if args.workload != "all":
        code, _ = run_workload(args.workload, args, capture=False)
        sys.exit(code)
    worst = 0
    combined = {}
    for workload in WORKLOADS:
        code, out = run_workload(workload, args, capture=True)
        worst = worst or code
        lines = out.strip().splitlines()
        for line in lines[:-2]:
            print("%s %s" % (workload, line))
        detail = json.loads(lines[-2]) if len(lines) >= 2 else {}
        result = json.loads(lines[-1]) if lines else {}
        combined[workload] = {"detail": detail, "result": result}
        for name, m in sorted(result.get("metrics", {}).items()):
            print("%s %s = %s %s" % (workload, name, m["value"], m["unit"]))
        attempted = result.get("attempted", 0)
        print("%s fail_frac = %s 1" % (workload, result.get("failed", 0) / max(attempted, 1)))
    print(json.dumps(combined, sort_keys=True))
    sys.exit(worst)


if __name__ == "__main__":
    main()
