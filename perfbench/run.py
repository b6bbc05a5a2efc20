#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload g500-manual --seed 1 --seconds 25 --trace 0

It builds the perfbench Go program (a module of its own that imports the
simulator from the repository root) into .bench_build/, keeping the Go build
cache and every temporary file inside the repository, then runs it. The
program's last line of standard output is the JSON result. --seconds
defaults to BENCHMARK.json's run_seconds, the length every comparison uses.
--record rewrites perfbench/digests.json with this run's simulation digests.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
    })
    return env


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    # The benchmark simulates the repository it sits in; without the module
    # root beside it there is nothing to build.
    gomod = os.path.join(ROOT, "go.mod")
    if not os.path.isfile(gomod) or not os.path.isdir(os.path.join(ROOT, "internal", "harness")):
        fail("no eventpf module at %s: run from a full checkout of the repository" % ROOT, 2)
    with open(gomod) as f:
        if "module eventpf\n" not in f.read():
            fail("%s is not the eventpf module" % gomod, 2)
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH", 2)

    seconds = args.seconds if args.seconds is not None else run_seconds()

    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                           cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    workdir = os.path.join(BUILD, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(seconds), "-trace", str(args.trace), "-workdir", workdir]
    if args.record:
        cmd += ["-record", os.path.join(HERE, "digests.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
