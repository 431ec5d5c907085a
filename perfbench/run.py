"""Runs one benchmark run of the LMFAO batch benchmark.

    python3 perfbench/run.py --workload retailer-covar --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the engine and the benchmark if
needed (perfbench/build.py), then starts one JVM that runs the workload's
closed loop and prints, as its last line, the result object. Workloads,
metrics and the trace file are described in perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["retailer-covar", "retailer-mi", "yelp-cart"]

# Driver heap, set explicitly rather than inherited from the build's test
# setting (48 GB by default): sized for a 4-core 15 GB host shared with
# other jobs.
HEAP = "4g"
# A run must end within 180 s; the JVM is stopped before that.
RUN_TIMEOUT_S = 170

# JDK 17 module opens Spark needs (the standard Spark launcher set).
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio",
         "java.base/java.util", "java.base/java.util.concurrent",
         "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
         "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
         "java.base/sun.util.calendar"]


def revision():
    """Git HEAD when run from a clone, else a digest of the sources."""
    try:
        res = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            return res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "src-" + build.source_digest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--sf", type=float, help="override the workload's scale factor (smoke check only)")
    a = ap.parse_args()

    try:
        cp = build.ensure()
    except build.BuildError as e:
        sys.exit(f"build failed: {e}")

    tmp = os.path.join(build.BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Temporary files stay in the build directory; -XX:-UsePerfData stops the
    # JVM writing its own statistics file to the system temp directory.
    cmd = [build.java(), f"-Xmx{HEAP}", "-Xss32m", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           "-Dlog4j2.configurationFile=" + os.path.join(build.ROOT, "perfbench", "conf", "log4j2.properties"),
           ] + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS] + [
           "-cp", os.pathsep.join(cp), "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out", build.BUILD, "--rev", revision()]
    if a.sf is not None:
        cmd += ["--sf", str(a.sf)]

    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(build.BUILD, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, start_new_session=True)

    def stop():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_term(*_):
        stop()
        sys.exit(143)

    signal.signal(signal.SIGTERM, on_term)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        sys.exit(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    except KeyboardInterrupt:
        stop()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
