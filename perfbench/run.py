"""Search benchmark: one command that builds the program, runs a workload and
prints every metric by name and unit, with every answer checked.

    python3 perfbench/run.py --workload porto-topk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The lines before it are
the human-readable report, the listed answer mismatches and a provenance
record. Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("porto-topk", "xian-pruned")
JVM_TIMEOUT_S = 170

# Spark on Java 17 needs these module opens (spark-submit adds them itself).
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio",
         "java.base/java.util", "java.base/java.util.concurrent",
         "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
         "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
         "java.base/sun.util.calendar"]


def git_sha():
    if not os.path.isdir(".git"):
        return ""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def jvm_command(classes, digest, main, args):
    tmp = os.path.abspath(os.path.join(build.BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    here = os.path.dirname(os.path.abspath(__file__))
    cp = os.pathsep.join([classes, os.path.join(build.spark_jars(), "*")])
    return (["java", "-Xmx3g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
             f"-Dlog4j2.configurationFile={os.path.join(here, 'log4j2.properties')}",
             f"-Dperfbench.buildDir={os.path.abspath(build.BUILD_DIR)}",
             f"-Dperfbench.gitSha={git_sha()}", f"-Dperfbench.sourceSha256={digest}"]
            + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
            + ["-cp", cp, main] + args)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own checks on Workloads.tiny")
    a = ap.parse_args()
    if not a.self_test and (a.workload is None or a.seed is None or a.seconds is None or a.seconds < 1):
        ap.error("--workload, --seed and --seconds (>= 1) are required")
    try:
        classes, digest = build.build()
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2
    if a.self_test:
        cmd = jvm_command(classes, digest, "repro.perfbench.SelfTest", [])
    else:
        cmd = jvm_command(classes, digest, "repro.perfbench.Main",
                          ["--workload", a.workload, "--seed", str(a.seed),
                           "--seconds", str(a.seconds), "--trace", str(a.trace)])
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[perfbench] run exceeded {JVM_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
