"""Smoke check of the benchmark itself, at a tiny scale factor.

    python3 perfbench/smoke.py

For every workload, runs the benchmark untraced and traced and asserts
that the run reports success, that no task failed (fail_frac is 0), and
that every metric BENCHMARK.json names is emitted with its unit: the
end-to-end metrics untraced, the per-layer metrics traced. Takes a few
minutes; exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SF = 0.002
SECONDS = 1

# Metrics named in perfbench/README.md that the result line does not carry,
# and why.
DROPPED = {
    "fail_frac": "never 0 is required of a metric, and it is 0 on a correct run; the result "
                 "line carries it as failed/attempted and the summary line prints it",
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", str(SECONDS), "--trace", str(trace), "--sf", str(SF)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = [json.loads(l) for l in p.stdout.splitlines() if l.startswith("{")]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{workload} trace={trace}: exit {p.returncode}")
    return lines[-1], next(l["summary"] for l in lines if "summary" in l)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    # Every workload run.py knows, also any BENCHMARK.json leaves out.
    sys.path.insert(0, HERE)
    from run import WORKLOADS
    for w in WORKLOADS:
        for trace in (0, 1):
            result, summary = run(w, trace)
            where = f"{w} trace={trace}"
            assert result["correct"] is True, f"{where}: not correct: {summary}"
            assert result["failed"] == 0 and result["attempted"] >= 1, f"{where}: {result}"
            assert summary["fail_frac"] == 0, f"{where}: fail_frac {summary['fail_frac']}"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], f"{where}: metrics differ: {sorted(set(got) ^ set(expected[trace]))}"
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), f"{where}: {k} has no value"
            print(f"ok  {where}: {len(got)} metrics, fail_frac 0, {result['attempted']} tasks", flush=True)
    for name, why in DROPPED.items():
        print(f"not a metric: {name} ({why})")


if __name__ == "__main__":
    main()
