#!/usr/bin/env python3
"""Build and run the cholcomm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs one
workload in its own process and relays its output; the last line of
standard output is the result JSON.  Settings the library would otherwise
read from the environment are pinned here: every CHOLCOMM_* variable is
cleared, and the global pool that the service's shards reach is set to
2 workers.  Exits non-zero, without a result, if the build or the run fails.
"""

import argparse
import glob
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dense_incore", "ooc_file", "serve_mix", "paper_report")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
GLOBAL_POOL_WORKERS = "2"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("CHOLCOMM_")}
    env["CHOLCOMM_THREADS"] = GLOBAL_POOL_WORKERS
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        for d in glob.glob(os.path.join(".perfbench_out", f"{args.workload}-{args.seed}-*")):
            shutil.rmtree(d, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    print(f"perfbench: {args.workload} finished in {time.monotonic() - start:.1f} s", file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
