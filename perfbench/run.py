#!/usr/bin/env python3
"""Repository benchmark: times the planner (core), the solver (ilp) and the
event simulator (sim) on three fixed-seed workloads.

    python3 perfbench/run.py --workload <fig8b_pair|mq_shared|fig9_plan> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run compiles the harness together
with src/main/scala with sbt into .bench_build/ and caches the result keyed by
a hash of the sources; later runs start the JVM directly. The JVM is pinned to
the flags in JVM_FLAGS, whatever the test build uses.

The human-readable report goes to stdout. The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: with --trace 0 the
`end_to_end` metrics named in BENCHMARK.json, with --trace 1 its `per_layer`
metrics. A traced run also writes its spans to .bench_build/traces/. The exit
code is non-zero when the build fails or an output check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
MAIN = "repro.perfbench.Main"
JVM_FLAGS = [
    "-Xms1g", "-Xmx1g", "-Xmn600m",
    "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2",
    "-Xss16m",
    "-XX:-UsePerfData",
]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_files():
    roots = [os.path.join(HERE, "src"), os.path.join(ROOT, "src", "main", "scala")]
    files = [os.path.join(HERE, "build.sbt"),
             os.path.join(HERE, "project", "build.properties"),
             os.path.join(ROOT, "src", "test", "scala", "repro", "TestData.scala")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def build():
    """Compile with sbt unless the sources are unchanged; return the classpath."""
    main_src = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(main_src):
        log(f"no program sources at {os.path.relpath(main_src, ROOT)}; run from a full checkout")
        sys.exit(2)
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    stamp = h.hexdigest()
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                with open(cp_file) as fh:
                    return fh.read().strip()
    log("building with sbt (first run in this checkout)")
    os.makedirs(BUILD, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.supershell=false",
           "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        p = subprocess.run(cmd, cwd=HERE, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("sbt timed out")
        sys.exit(2)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    cp = next((l for l in reversed(lines) if not l.startswith("[") and ".bench_build" in l), None)
    if p.returncode != 0 or cp is None:
        sys.stderr.write(p.stdout[-6000:])
        log(f"build failed (sbt exit {p.returncode})")
        sys.exit(2)
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp


def runtime_classpath(cp):
    """Put the compiled classes and the Scala library first. The JVM searches
    the classpath in order and opens each jar on the way, so with the ~280
    Spark jars in front, start-up (part of setup_s) opens most of them."""
    entries = cp.split(os.pathsep)
    first = [e for e in entries if not e.endswith(".jar")] + \
        [e for e in entries if os.path.basename(e).startswith("scala-library")]
    return os.pathsep.join(first + [e for e in entries if e not in first])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if a.trace else "end_to_end"]

    cp = runtime_classpath(build())
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    trace_out = os.path.join(BUILD, "traces", f"{a.workload}-seed{a.seed}.jsonl")
    cmd = [java] + JVM_FLAGS + [f"-Djava.io.tmpdir={tmp}", "-cp", cp, MAIN,
                                "--workload", a.workload, "--seed", str(a.seed),
                                "--seconds", str(a.seconds), "--trace", str(a.trace),
                                "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness killed after {RUN_TIMEOUT_S} s")
        sys.exit(3)
    result = None
    for line in proc.stdout.splitlines(keepends=True):
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            sys.stdout.write(line)
    if result is None:
        log(f"harness exited {proc.returncode} without a result")
        sys.exit(3)

    compare_fingerprint(a.workload, result.get("fingerprint", {}))
    if a.trace:
        print(f"spans written to {os.path.relpath(trace_out, ROOT)}")
    have = result["per_layer" if a.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in have]
    if missing:
        log(f"harness did not report {', '.join(missing)}")
        sys.exit(4)
    metrics = {m["name"]: {"value": have[m["name"]]["value"], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


def compare_fingerprint(workload, fingerprint):
    """Report whether the simulator counters equal the ones recorded in
    trajectory.json. A performance change must leave them identical."""
    path = os.path.join(HERE, "trajectory.json")
    if not os.path.exists(path):
        return
    with open(path) as fh:
        pinned = json.load(fh).get("fingerprint", {}).get(workload, {})
    for label, want in pinned.items():
        got = fingerprint.get(label, {})
        diff = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
        if diff:
            print(f"fingerprint {workload}/{label}: DIFFERS from trajectory.json (got, recorded): {diff}")
        else:
            print(f"fingerprint {workload}/{label}: matches trajectory.json")


if __name__ == "__main__":
    main()
