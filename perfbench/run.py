#!/usr/bin/env python3
"""Builds the mcc release binary and the benchmark, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <compile-cold|serve-hit> \
        --seed <n> --seconds <n> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default: .bench_build), offline.
Scratch files (cache directories, span logs) go to
<target dir>/perfbench-work. Build output goes to stderr; the last line
of stdout is the benchmark's result object. Exits non-zero, printing no
result, when anything cannot be built or run.
"""

import json
import os
import subprocess
import sys

# The benchmark itself stops within this many seconds; a hang is killed.
RUN_LIMIT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(args, env):
    r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                       stdout=sys.stderr, env=env)
    if r.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}")


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        fail("run from the root of an mcc checkout (no Cargo.toml here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["--bin", "mcc"], env)
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], env)
    exe = os.path.join(target, "release")
    cmd = [os.path.join(exe, "mcc-perfbench")] + sys.argv[1:] + [
        "--mcc", os.path.join(exe, "mcc"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark did not finish within {RUN_LIMIT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"benchmark failed with exit code {proc.returncode}")
    args = sys.argv[1:]
    check_metrics(lines[-1], any(a == "--trace" and v == "1" for a, v in zip(args, args[1:])))
    sys.stdout.write(out)
    sys.exit(proc.returncode)


def check_metrics(line, traced):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)["per_layer" if traced else "end_to_end"]
    got = json.loads(line)["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    have = {name: m["unit"] for name, m in got.items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        units = sorted(n for n in set(want) & set(have) if want[n] != have[n])
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}, units {units}")


if __name__ == "__main__":
    main()
