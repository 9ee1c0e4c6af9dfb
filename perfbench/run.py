#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds perfbench/perfbench.exe with dune (inside the
checkout's _build/) and runs it with the given arguments; its last stdout
line is the JSON result.  The second form runs every workload at tiny sizes
and checks that each metric named in BENCHMARK.json is emitted with its unit
and that a deliberately wrong pin shows up as failed reps, not as a crash.
"""

import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, env=None, capture=False, quiet=False):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else None,
        stderr=subprocess.DEVNULL if quiet else None,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, (out.decode() if capture else None)


def build():
    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die("run from the root of a full checkout (%s is missing)" % need, 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT,
        env=env,
    )
    if code != 0:
        die("build failed (dune exit %d)" % code)


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        r = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return r


def self_test():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []

    def check(cond, msg):
        if not cond:
            problems.append(msg)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            cmd = [EXE, "--workload", name, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--size", "tiny"]
            code, out = run_group(cmd, RUN_TIMEOUT, capture=True)
            r = result_of(out)
            tag = "%s --trace %s" % (name, trace)
            check(code == 0, tag + ": exit code %d" % code)
            if r is None:
                problems.append(tag + ": no JSON result line")
                continue
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  tag + ": checks failed (%d of %d)" % (r["failed"], r["attempted"]))
            got = r["metrics"]
            check(set(got) == {m["name"] for m in wanted},
                  tag + ": metric names differ: %s" % sorted(set(got) ^ {m["name"] for m in wanted}))
            for m in wanted:
                if m["name"] in got:
                    check(got[m["name"]]["unit"] == m["unit"],
                          tag + ": %s unit %r, want %r" % (m["name"], got[m["name"]]["unit"], m["unit"]))
        cmd = [EXE, "--workload", name, "--seed", "7", "--seconds", "1",
               "--trace", "0", "--size", "tiny", "--corrupt-pin"]
        code, out = run_group(cmd, RUN_TIMEOUT, capture=True, quiet=True)
        r = result_of(out)
        tag = name + " --corrupt-pin"
        check(code == 0, tag + ": exit code %d (a wrong pin must not crash)" % code)
        check(r is not None and not r["correct"] and r["failed"] > 0,
              tag + ": the wrong pin did not show as failed reps")
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv):
    build()
    if argv == ["--self-test"]:
        return self_test()
    code, out = run_group([EXE] + argv, RUN_TIMEOUT, capture=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0 and result_of(out) is None:
        die("no JSON result line")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
