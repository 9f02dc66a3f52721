#!/usr/bin/env python3
"""Benchmark of the sofa reproduction.

Run one workload from the root of the repository:

    python3 perfbench/run.py --workload stream-fold --seed 1 --seconds 20 --trace 0

The first run builds the harness and the program's sources with sbt into
perfbench/target; later runs reuse the build while the sources are
unchanged. The last line of standard output is the result,
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report, which is also saved under perfbench/target/results/.

Compare two sets of saved reports (refused unless their environments agree):

    python3 perfbench/run.py compare BEFORE.json... -- AFTER.json...
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "main" / "scala"
TARGET = HERE / "target"
STAMP = TARGET / "perfbench-build.json"
WORKLOADS = ("bmf-linesearch", "bicluster-planted", "stream-fold")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HEAP = "3g"
# The throughput collector, with a heap that starts large enough that it
# does not grow during the timed ops: both make op times steadier than
# the default G1 growing from a small heap.
GC = ["-XX:+UseParallelGC", "-Xms1g"]

# Spark on JDK 17 needs these opened; spark-submit adds the same list.
JVM_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]

# Fields two results must share to be compared.
ENV_KEYS = ("workload", "seconds", "nproc", "master", "default_parallelism", "driver_heap_mb", "jdk")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for base in (HERE / "src", PROGRAM):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    return files


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        fail("no Spark distribution found: set SPARK_HOME")
    return home


def build(src_digest):
    """Compile with sbt when the sources changed; return the classpath."""
    if STAMP.is_file():
        stamp = json.loads(STAMP.read_text())
        if stamp.get("digest") == src_digest:
            return stamp["classpath"]
    sbt = shutil.which("sbt")
    if not sbt:
        fail("sbt is not on PATH")
    env = dict(os.environ, SPARK_HOME=spark_home())
    env.setdefault("COURSIER_MODE", "offline")
    tmp = TARGET / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true", "-J-XX:-UsePerfData",
           f"-Dsbt.global.base={TARGET / 'sbt-global'}", f"-Djava.io.tmpdir={tmp}",
           "export Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                             text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build took longer than {BUILD_TIMEOUT_S} s")
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines or "[error]" in lines[-1]:
        sys.stderr.write("\n".join(l for l in lines if "[error]" in l)[-8000:] + "\n")
        fail("build failed")
    classpath = lines[-1].strip()
    TARGET.mkdir(parents=True, exist_ok=True)
    STAMP.write_text(json.dumps({"digest": src_digest, "classpath": classpath}))
    return classpath


def git_sha():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    if not (PROGRAM / "repro" / "core").is_dir():
        fail(f"the program's sources are missing: {PROGRAM.relative_to(ROOT)}")
    src_digest = digest(sources())
    classpath = build(src_digest)
    work = TARGET / "run"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if os.environ.get("JAVA_HOME") else shutil.which("java")
    cmd = [str(java), f"-Xmx{HEAP}", *GC, "-XX:-UsePerfData", *JVM_OPENS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={work / 'spark-local'}",
           f"-Dspark.sql.warehouse.dir={work / 'warehouse'}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.driver.bindAddress=127.0.0.1",
           f"-Dperfbench.gitSha={git_sha()}", f"-Dperfbench.sourceDigest={src_digest}",
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # SPARK_LOCAL_DIRS would override spark.local.dir and put shuffle files
    # outside the checkout.
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    try:
        out = subprocess.run(cmd, cwd=work, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run took longer than {RUN_TIMEOUT_S} s")
    lines = out.stdout.splitlines()
    sys.stdout.write(out.stdout)
    if len(lines) < 2:
        fail(f"no result (exit {out.returncode})", out.returncode or 2)
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    results = TARGET / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1))
    missing = set(declared(args.trace)) ^ set(result["metrics"])
    if missing:
        fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    return out.returncode


def compare(argv):
    """Median of each end-to-end metric before and after, against its bound."""
    if "--" not in argv:
        fail("usage: run.py compare BEFORE.json... -- AFTER.json...")
    cut = argv.index("--")
    sides = [[json.loads(Path(p).read_text()) for p in paths] for paths in (argv[:cut], argv[cut + 1:])]
    if not all(sides):
        fail("each side needs at least one saved report")
    envs = {tuple(r["report"]["env"][k] for k in ENV_KEYS) for side in sides for r in side}
    if len(envs) != 1:
        fail(f"results from different environments are not comparable: {sorted(envs)}", 3)
    seeds = [sorted(r["report"]["env"]["seed"] for r in side) for side in sides]
    if seeds[0] != seeds[1]:
        fail(f"the two sides ran different seeds: {seeds}", 3)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        vals = [[r["result"]["metrics"][m["name"]]["value"] for r in side] for side in sides]
        before, after = (statistics.median(v) for v in vals)
        worse = (after - before) / before * (1 if m["better"] == "lower" else -1) if before else 0.0
        verdict = "worse beyond bound" if worse > m["bound"] else "within bound"
        print(f"{m['name']:24s} {before:14.6g} -> {after:14.6g} {m['unit']:11s} {worse:+8.2%}  {verdict}")
    return 0


def main():
    # SIGTERM unwinds through subprocess.run, which then kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if sys.argv[1:2] == ["compare"]:
        return compare(sys.argv[2:])
    p = argparse.ArgumentParser(description="Run one workload of the sofa benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
