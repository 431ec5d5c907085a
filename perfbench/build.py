"""Build file of the benchmark.

Compiles the engine's sources (src/main/scala) together with the
benchmark's own (perfbench/src) with the Scala compiler that ships with
Spark, into .bench_build/classes. The build is skipped while the sources,
the compiler and the library jars are unchanged.

    python3 perfbench/build.py      # prints the run-time classpath
"""
import glob
import hashlib
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(BUILD, "classes")
STAMP = os.path.join(BUILD, "classes.stamp")
ENGINE_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(ROOT, "perfbench", "src")


class BuildError(Exception):
    pass


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java found (set JAVA_HOME or put java on PATH)")
    return exe


def spark_jars():
    """The jar directory of the Spark distribution the engine is built against."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not glob.glob(os.path.join(jars, "spark-sql_*.jar")):
        raise BuildError("no Spark distribution found (set SPARK_HOME)")
    return jars


def duckdb_jar():
    """The DuckDB JDBC driver at the version build.sbt pins, from the local
    dependency caches (the benchmark never downloads anything)."""
    version = "*"
    sbt = os.path.join(ROOT, "build.sbt")
    if os.path.exists(sbt):
        m = re.search(r'"duckdb_jdbc"\s*%\s*"([^"]+)"', open(sbt).read())
        if m:
            version = m.group(1)
    caches = [os.environ.get("COURSIER_CACHE"),
              os.path.expanduser("~/.cache/coursier"),
              os.path.expanduser("~/.m2/repository"),
              os.path.expanduser("~/.ivy2")]
    for cache in filter(None, caches):
        hits = sorted(glob.glob(os.path.join(cache, "**", f"duckdb_jdbc-{version}.jar"), recursive=True))
        if hits:
            return hits[-1]
    raise BuildError(f"duckdb_jdbc-{version}.jar not found in the local dependency caches")


def sources():
    if not os.path.isdir(ENGINE_SRC):
        raise BuildError(f"engine sources missing: {ENGINE_SRC}")
    found = sorted(glob.glob(os.path.join(ENGINE_SRC, "**", "*.scala"), recursive=True))
    found += sorted(glob.glob(os.path.join(BENCH_SRC, "**", "*.scala"), recursive=True))
    return found


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def classpath():
    jars = spark_jars()
    return [CLASSES, os.path.join(jars, "*"), duckdb_jar()]


def source_digest():
    return digest(sources())


def ensure():
    """Compiles if needed; returns the run-time classpath as a list."""
    srcs = sources()
    jars = spark_jars()
    duck = duckdb_jar()
    stamp = digest(srcs) + "|" + duck + "|" + ",".join(sorted(os.listdir(jars)))
    if os.path.isdir(CLASSES) and os.path.exists(STAMP) and open(STAMP).read() == stamp:
        return classpath()
    tmp = os.path.join(BUILD, "tmp")
    out = CLASSES + ".new"
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    os.makedirs(tmp, exist_ok=True)
    cmd = [java(), "-Xss32m", "-Xmx2g", f"-Djava.io.tmpdir={tmp}",
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-nowarn", "-classpath", os.pathsep.join([os.path.join(jars, "*"), duck]),
           "-d", out] + srcs
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        raise BuildError(f"scalac failed with exit code {res.returncode}")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(out, CLASSES)
    with open(STAMP, "w") as fh:
        fh.write(stamp)
    return classpath()


if __name__ == "__main__":
    try:
        print(os.pathsep.join(ensure()))
    except BuildError as e:
        sys.exit(f"build failed: {e}")
