"""One pass of one workload, in a fresh interpreter started by run.py.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE WORKDIR SPAWN_TIME OUT

SPAWN_TIME is the parent's time.monotonic() just before it started this
interpreter; the monotonic clock is shared by all processes of the machine,
so the set-up time covers interpreter start and `import harperlab`.
"""

import time

import harperlab  # noqa: F401  (the set-up being timed)

READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def machine():
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv):
    workload, seed, trace, workdir, spawn, out = argv
    import tracing
    import workloads

    tracer = None
    if trace == "1":
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
    run = workloads.Pass(tracer)
    workloads.WORKLOADS[workload](run, int(seed), workdir)
    run.calibrate(force=True)
    result = {
        "setup_s": READY - float(spawn),
        "ops": run.ops,
        "cal": run.cal,
        "rows": run.rows,
        "checks": run.checks,
        "accuracy": run.accuracy,
        "floors": workloads.FLOORS,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if tracer is not None:
        tracer.active = False
        layers, layer_self, n_spans = tracing.layer_metrics(tracer)
        result.update(layers=layers, layer_self_s=layer_self, spans=n_spans,
                      absent=tracer.absent + sorted(tracer.unreadable))
    with open(out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
