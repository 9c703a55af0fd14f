#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a Cargo package with a
workspace of its own, depending on the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload, stamps
the host fingerprint, writes the full result to
`<target>/perfbench-out/`, and prints the one-line JSON result last.
Exits nonzero, without a result line, when the build or the run cannot
produce one; exits nonzero after the result line when a check failed.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
WORKLOADS = ("explore-paxos3", "kv-chaos")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= a.seconds <= 120:
        p.error("--seconds must be in 1..120")
    return a


def cmd_out(cmd):
    try:
        r = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """sha256 over the sources the benchmark builds: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    files = []
    for r in roots:
        path = os.path.join(REPO, r)
        if os.path.isfile(path):
            files.append(r)
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
            for n in names:
                files.append(os.path.relpath(os.path.join(d, n), REPO))
    for f in sorted(files):
        h.update(f.encode() + b"\0")
        with open(os.path.join(REPO, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "rustc": cmd_out(["rustc", "-V"]) or "unknown",
        "git_rev": cmd_out(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_digest": source_digest(),
    }


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=REPO, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}", 3)


def run(binary, args, out_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    # A session of its own, so a timeout can stop the node processes too.
    proc = subprocess.Popen(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    return proc.returncode, stdout.splitlines()


def result_line(lines):
    for i in range(len(lines) - 1, -1, -1):
        try:
            obj = json.loads(lines[i])
        except ValueError:
            continue
        if isinstance(obj, dict) and set(obj) == RESULT_KEYS:
            return i, obj
    return None, None


def main():
    args = parse_args()
    if not os.path.isdir(os.path.join(REPO, "crates")):
        fail(f"no crates/ next to {BENCH_DIR}: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(REPO, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    binary = os.path.join(target, "release", "afd-perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    host = fingerprint()
    code, lines = run(binary, args, out_dir)
    idx, result = result_line(lines)
    if result is None:
        print("\n".join(lines))
        fail(f"the run printed no result (exit code {code})", code or 5)
    for line in lines[:idx] + lines[idx + 1:]:
        print(line)
    print("host: " + json.dumps(host, sort_keys=True))
    os.makedirs(out_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "exit_code": code,
              "log": lines[:idx], "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(lines[idx], flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
