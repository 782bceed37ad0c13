#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/main.exe with dune, runs it with the same arguments and
passes its output through.  The result line must carry exactly the
metrics BENCHMARK.json names for the mode (end-to-end with --trace 0,
per-layer with --trace 1); otherwise the run fails.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload with --trace 0, one after the other, and fails if
any of them fails.

    python3 perfbench/run.py --selfcheck NAME [--seed N] [--seconds S]

runs NAME twice with seed N and once with seed N+1: the two same-seed
runs must print byte-identical virtual-time metrics and per-layer
counts, and the second seed must stay within BENCHMARK.json's bounds.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")

def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    if not os.path.isfile("dune-project"):
        fail("not at the root of a checkout (no dune-project)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")


def run(args):
    """Runs main.exe; returns (exit code, stdout lines, parsed result)."""
    r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return r.returncode, lines, result


def measure(spec, workload, seed, seconds, trace):
    code, lines, result = run(["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)])
    for line in lines[:-1]:
        print(line)
    if code != 0 or result is None:
        if lines:
            print(lines[-1])
        fail("%s seed %d: benchmark failed (exit %d)" % (workload, seed, code))
    wanted = [(m["name"], m["unit"])
              for m in spec["per_layer" if trace else "end_to_end"]]
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if got != wanted:
        fail("metrics do not match BENCHMARK.json: got %s"
             % sorted(set(got) ^ set(wanted)))
    # main.exe marks the figures timed on a clock; every other figure
    # must repeat exactly for a seed.  The printed line carries no mark.
    clocked = {k for k, v in result["metrics"].items() if v.pop("clock", False)}
    return lines, result, clocked


def selfcheck(spec, workload, seed, seconds):
    """Same seed twice: identical virtual figures; next seed: in bounds."""
    clocked = set()

    def figures(trace, s):
        _, result, timed = measure(spec, workload, s, seconds, trace)
        clocked.update(timed)
        return {k: v["value"] for k, v in result["metrics"].items()}

    ok = True
    runs = {}
    for trace in (0, 1):
        a = runs[trace] = figures(trace, seed)
        b = figures(trace, seed)
        for k in a:
            if k not in clocked and a[k] != b[k]:
                print("selfcheck: %s differs between identical runs: %r vs %r"
                      % (k, a[k], b[k]))
                ok = False
    first, second = runs[0], figures(0, seed + 1)
    for m in spec["end_to_end"]:
        k = m["name"]
        if k in clocked:
            continue
        base = first[k]
        worse = (second[k] - base) if m["better"] == "lower" else (base - second[k])
        if base and worse / abs(base) > m["bound"]:
            print("selfcheck: %s seed %d -> %d moves %r -> %r, beyond its bound %s"
                  % (k, seed, seed + 1, base, second[k], m["bound"]))
            ok = False
    print("selfcheck %s: %s" % (workload, "ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def parse(argv):
    opts, i = {}, 0
    while i < len(argv):
        key = argv[i]
        if key == "--all":
            opts[key], i = "", i + 1
        elif key in ("--workload", "--seed", "--seconds", "--trace",
                     "--selfcheck") and i + 1 < len(argv):
            opts[key], i = argv[i + 1], i + 2
        else:
            fail("usage: see the docstring of perfbench/run.py")
    return opts


def main(argv):
    opts = parse(argv)
    spec = load_spec()
    build()
    try:
        seed = int(opts.get("--seed", "1"))
        seconds = int(opts.get("--seconds", "1"))
        trace = int(opts.get("--trace", "0"))
    except ValueError:
        fail("usage: see the docstring of perfbench/run.py")
    if "--all" in opts:
        for w in spec["workloads"]:
            measure(spec, w["name"], seed, seconds, 0)
        return
    if "--selfcheck" in opts:
        selfcheck(spec, opts["--selfcheck"], seed, seconds)
    workload = opts.get("--workload")
    if workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % workload)
    _, result, _ = measure(spec, workload, seed, seconds, trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
