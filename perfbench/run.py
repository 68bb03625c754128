"""harperlab benchmark: one workload, timed in fresh interpreters, checked for correctness.

Usage, from the repository root:

    python3 perfbench/run.py --workload {butterfly,critical,resolvent} \\
        --seed N --seconds S --trace {0,1}

Each pass runs the whole workload in a new interpreter (perfbench/child.py)
with one BLAS thread, so lru caches start cold and set-up is paid as a CLI
user pays it.  Passes repeat while the next one still fits in S seconds
(at least two untraced passes, or one untraced and one traced pass with
--trace 1).  Progress and the workload's own metrics go to stdout as
comment lines; the last line is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics, whose self times come from spans recorded
by wrappers around harperlab's entry points (perfbench/tracing.py).  Every
time is rescaled to the reference machine at full speed by a calibration
kernel timed around and during each operation (perfbench/calibration.py);
the unscaled wall time and the host's slowdown are printed alongside.
Artifacts live under .perfbench_work/ in the repository root and are
removed on exit.  Exit status is 0 only when every correctness check holds.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # the whole run, builds and passes included
SETUP_PROBES = 4  # bare `import harperlab` interpreters, besides one per pass
CAL_WINDOW_S = 1.0  # how far from an op the calibration runs that rescale it may lie

# which op groups form each workload's two stages: step (a) and render; the gaps
# at each coupling; the Lyapunov and the coefficient calls
STAGES = {
    "butterfly": ("butterfly_s", "render_s"),
    "critical": ("gap@0.5", "gap@1.0"),
    "resolvent": ("lyapunov_s", "coeffs_s"),
}
# each workload's metrics under the names the design uses, printed as comments
NAMED = {
    "butterfly": ("butterfly_s", "butterfly_w2_s", "render_s", "count_s", "band_edge_err"),
    "critical": ("spectrum_s", "gap_p50_ms", "gap_p90_ms", "critical_g0_resid",
                 "band_edge_err"),
    "resolvent": ("lyapunov_s", "coeffs_s", "lyapunov_spread", "sheet_rel_resid"),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env(tmp):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["TMPDIR"] = tmp
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, env, cwd, timeout):
    """Run one interpreter in its own process group; on timeout the whole group is killed."""
    proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"a pass exceeded the {DEADLINE_S:.0f} s deadline")
    return proc.returncode, out, err


PROBE = ("import time, harperlab; t = time.monotonic(); import calibration; "
         "print(t, *(calibration.kernel() for _ in range(3)))")


def setup_probe(env, cwd):
    """Seconds from spawning an interpreter until `import harperlab` has completed."""
    spawn = time.monotonic()
    code, out, err = run_child(["-c", PROBE], env, cwd, 60)
    if code != 0:
        sys.stderr.write(err[-4000:])
        fail("importing harperlab failed")
    ready, *cal = map(float, out.split())
    return (ready - spawn) / (statistics.median(cal) / calibration.NOMINAL_S)


def run_pass(args, trace, tmp, env, index, start):
    workdir = tempfile.mkdtemp(dir=tmp, prefix=f"pass{index}-")
    out = os.path.join(workdir, "result.json")
    timeout = DEADLINE_S - (time.monotonic() - start)
    if timeout <= 0:
        fail("out of time before a pass could start")
    spawn = time.monotonic()
    code, _, err = run_child([str(HERE / "child.py"), args.workload, str(args.seed), str(trace),
                              workdir, repr(spawn), out], env, workdir, timeout)
    if code != 0 or not os.path.exists(out):
        sys.stderr.write(err[-4000:])
        fail(f"pass {index} exited with status {code}")
    with open(out) as fh:
        res = json.load(fh)
    res["elapsed"] = time.monotonic() - spawn
    res["raw_wall_s"] = sum(op[2] for op in res["ops"])
    res["setup_s"] /= res["cal"][0][1] / calibration.NOMINAL_S
    normalize(res)
    res["wall_s"] = sum(op[2] for op in res["ops"])
    shutil.rmtree(workdir, ignore_errors=True)
    return res


def normalize(res):
    """Rescale each op's time to the calibration kernel's nominal speed.

    The host's speed during an op is the median time of the kernel runs from
    CAL_WINDOW_S before it to CAL_WINDOW_S after it, and at least of the
    nearest runs on either side: the host's slow spells last seconds, while
    one kernel run is too short to time it alone.
    """
    cal = sorted(res["cal"])
    starts = [c[0] for c in cal]
    factors = []
    for op in res["ops"]:
        i = min(bisect.bisect_left(starts, op[5] - CAL_WINDOW_S),
                bisect.bisect_right(starts, op[5]) - 1)
        j = max(bisect.bisect_right(starts, op[6] + CAL_WINDOW_S),
                bisect.bisect_left(starts, op[6]) + 1)
        near = [c[1] for c in cal[max(i, 0):j]]
        factor = statistics.median(near) / calibration.NOMINAL_S
        op[2] /= factor
        factors.append(factor)
    res["slowdown"] = statistics.median(factors) if factors else 1.0


def run_passes(args, tmp, env, start):
    """Untraced (and, with --trace 1, alternating traced) passes within the time budget."""
    plan = [0, 1] if args.trace else [0, 0]
    passes = []
    while True:
        trace = plan[len(passes)] if len(passes) < len(plan) else (
            len(passes) % 2 if args.trace else 0)
        passes.append((trace, run_pass(args, trace, tmp, env, len(passes), start)))
        longest = max(r["elapsed"] for _, r in passes)
        if len(passes) >= len(plan) and time.monotonic() - start + longest > args.seconds:
            return passes


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def request_ms(run):
    """Latency of each request of a pass: the summed time of the ops made for it."""
    out = {}
    for op in run["ops"]:
        out[op[7]] = out.get(op[7], 0.0) + op[2] * 1e3
    return list(out.values())


def workload_metrics(workload, runs, probes):
    """End-to-end figures from untraced passes: medians over passes, quantiles over requests."""
    med = statistics.median
    group_s = lambda r, g: sum(op[2] for op in r["ops"] if op[1] == g)  # noqa: E731
    lat = [ms for r in runs for ms in request_ms(r)]
    s1, s2 = STAGES[workload]
    e2e = {
        "setup_s": med(probes + [r["setup_s"] for r in runs]),
        "wall_s": med([r["wall_s"] for r in runs]),
        "request_p50_ms": quantile(lat, 50),
        "request_p90_ms": quantile(lat, 90),
        "stage1_s": med([group_s(r, s1) for r in runs]),
        "stage2_s": med([group_s(r, s2) for r in runs]),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in runs]),
    }
    attempted = sum(len(r["ops"]) + r["rows"][0] for r in runs)
    failed = sum(sum(1 for op in r["ops"] if not op[3]) + r["rows"][1] for r in runs)
    e2e["ok_frac"] = 1.0 - failed / attempted
    accuracy = {k: max(r["accuracy"][k] for r in runs) for k in runs[0]["accuracy"]}
    floors = runs[0]["floors"]
    e2e["err_over_floor"] = max([1.0] + [v / floors[k] for k, v in accuracy.items()])
    named = dict(accuracy, fail_frac=failed / attempted)
    for g in {op[1] for r in runs for op in r["ops"]}:
        named[g] = med([group_s(r, g) for r in runs])
    gap_lat = [op[2] * 1e3 for r in runs for op in r["ops"] if op[1].startswith("gap@")]
    if gap_lat:
        named.update(gap_p50_ms=quantile(gap_lat, 50), gap_p90_ms=quantile(gap_lat, 90))
    return e2e, named, attempted, failed, len(lat)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(STAGES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    if not (ROOT / "src" / "harperlab" / "__init__.py").is_file():
        fail(f"no harperlab sources under {ROOT / 'src'}")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=work)
    env = child_env(tmp)
    try:
        # byte-compile once, so no timed set-up pays for it
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "harperlab"),
                        str(HERE)], env=env, check=True, stdout=subprocess.DEVNULL,
                       timeout=60)
        probes = [setup_probe(env, tmp) for _ in range(SETUP_PROBES)]
        passes = run_passes(args, tmp, env, start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass

    plain = [r for t, r in passes if not t]
    traced = [r for t, r in passes if t]
    e2e, named, attempted, failed, n_lat = workload_metrics(args.workload, plain, probes)
    checks = [c for _, r in passes for c in r["checks"]]
    bad = [c for c in checks if not c[1]]
    print(f"# workload={args.workload} seed={args.seed} passes={len(plain)} untraced"
          f" + {len(traced)} traced, request latency samples={n_lat}")
    print(f"# machine {json.dumps(plain[0]['machine'], sort_keys=True)}")
    slowdowns = ", ".join(f"{r['slowdown']:.3f}" for r in plain)
    print(f"# unnormalized wall_s = {statistics.median(r['raw_wall_s'] for r in plain):.6g}, "
          f"host slowdown per pass = {slowdowns}")
    for k in NAMED[args.workload] + ("fail_frac",):
        print(f"# {k} = {named[k]:.6g}")
    for k, v in e2e.items():
        print(f"# {k} = {v:.6g}")
    errors = sorted({op[4] for r in plain for op in r["ops"] if not op[3]})
    for err in errors[:5]:
        print(f"# failed op: {err[:160]}")
    for name, _, detail in bad:
        print(f"# CHECK FAILED {name}: {detail}")

    if args.trace:
        times = {m["name"] for m in spec["per_layer"] if m["unit"] == "s"}
        for r in traced:  # in seconds at the reference speed, like the ops
            r["layers"] = {k: v / r["slowdown"] if k in times else v
                           for k, v in r["layers"].items()}
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        # a traced pass is sampled only between ops, so both sides use the pass's median slowdown
        traced_wall = statistics.median(r["raw_wall_s"] / r["slowdown"] for r in traced)
        layers["trace.overhead_s"] = traced_wall - statistics.median(
            r["raw_wall_s"] / r["slowdown"] for r in plain)
        over = [r for r in traced if r["layer_self_s"] > r["raw_wall_s"]]
        if over:
            bad.append(["trace.self_within_wall", False, ""])
            print("# CHECK FAILED trace.self_within_wall")
        absent = sorted({a for r in traced for a in r["absent"]})
        print(f"# traced wall_s = {traced_wall:.6g}, spans = {traced[0]['spans']}, "
              f"absent layers = {','.join(absent) or 'none'}")
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
