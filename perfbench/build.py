"""Build file of the search benchmark.

Compiles the program (`src/main/scala`) together with the benchmark
(`perfbench/src`) with the Scala compiler that ships in Spark's `jars/`
directory, into `.bench_build/classes`. A stamp of the source contents skips
the compile when nothing changed. Everything written stays under
`.bench_build/` in the current directory, which must be the repository root.

    python3 perfbench/build.py      # build (or confirm the build is current)
"""

import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
SOURCE_ROOTS = ("src/main/scala", "perfbench/src")


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        raise BuildError("SPARK_HOME must name a Spark distribution with a jars/ directory")
    return os.path.join(home, "jars")


def sources():
    found = []
    for root in SOURCE_ROOTS:
        if not os.path.isdir(root):
            raise BuildError(f"missing source directory {root}; run from the repository root")
        for d, _, files in os.walk(root):
            found.extend(os.path.join(d, f) for f in files if f.endswith(".scala"))
    return sorted(found)


def source_digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(f.encode())
        h.update(b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def build(log=sys.stderr):
    """Compile if needed; return (classes dir, source digest)."""
    files = sources()
    digest = source_digest(files)
    classes = os.path.join(BUILD_DIR, "classes")
    stamp = os.path.join(BUILD_DIR, "classes.stamp")
    if os.path.isdir(classes) and os.path.isfile(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == digest:
                return classes, digest
    staging = os.path.join(BUILD_DIR, "classes.staging")
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    jars = os.path.join(spark_jars(), "*")
    print(f"[build] compiling {len(files)} Scala files", file=log, flush=True)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", jars, "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", staging] + files
    proc = subprocess.run(cmd, stdout=log, stderr=log)
    if proc.returncode != 0:
        raise BuildError(f"scalac exited with {proc.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    os.replace(staging, classes)
    with open(stamp, "w") as fh:
        fh.write(digest + "\n")
    return classes, digest


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"[build] error: {e}", file=sys.stderr)
        sys.exit(2)
