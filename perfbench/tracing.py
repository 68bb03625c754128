"""Span tracing of harperlab's layers, installed from outside the package.

Each traced entry point is replaced, at every module that imported it, by a
wrapper that records a span (name, start, end, parent, op id) in memory.  A
name that a later version of harperlab no longer has is reported as an
absent layer and simply reads as zero.  Nothing here changes results: the
wrappers call the original function with the original arguments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
from collections import Counter, defaultdict

# span name -> (module of harperlab, attribute path in that module)
TARGETS = {
    "spectrum.chambers": ("spectrum", "chambers"),
    "spectrum.band_edges": ("spectrum", "band_edges"),
    "spectrum.gaps": ("spectrum", "gaps"),
    "spectrum.ids": ("spectrum", "ids"),
    "spectrum.detdata.P": ("spectrum", "ChambersData.P"),
    "spectrum.detdata.dP": ("spectrum", "ChambersData.dP"),
    "spectrum.detdata.d2P": ("spectrum", "ChambersData.d2P"),
    "spectrum.detdata.dbeta_P": ("spectrum", "ChambersData.dbeta_P"),
    "spectrum.detdata.dbeta_dP": ("spectrum", "ChambersData.dbeta_dP"),
    "spectrum.detdata.d2beta_P": ("spectrum", "ChambersData.d2beta_P"),
    "torus.averages": ("_torus", "averages"),
    "lyapunov.transfer": ("lyapunov", "lyapunov_transfer"),
    "lyapunov.thouless": ("lyapunov", "lyapunov_thouless"),
    "lyapunov.trace": ("lyapunov", "lyapunov_trace"),
    "lyapunov.log_potential": ("lyapunov", "log_potential"),
    "lyapunov.gradient": ("lyapunov", "gradient"),
    "lyapunov.hessian": ("lyapunov", "hessian"),
    "lyapunov.critical_scan": ("lyapunov", "critical_scan"),
    "coefficients.sheet": ("coefficients", "coefficient_sheet"),
    "coefficients.recursion": ("coefficients", "recursion_sheets"),
    "coefficients.residual": ("coefficients", "system_residual"),
    "coefficients.decay": ("coefficients", "decay_rate"),
    "butterfly.orchestrate": ("butterfly", "compute_butterfly"),
    "butterfly.checkpoint": ("butterfly", "_flush_checkpoint"),
    "butterfly.serialize": ("butterfly", "serialize_dataset"),
    "butterfly.parse": ("butterfly", "parse_dataset"),
    "butterfly.render": ("butterfly", "render"),
    "numbertheory.farey": ("numbertheory", "farey"),
    "numbertheory.component_count": ("numbertheory", "component_count"),
}

# numpy.linalg routines whose matrix count is charged to the innermost open span
LINALG_COUNTED = {"eigvalsh": "eigensolves", "eigh": "eigensolves", "inv": "inverses"}


class Tracer:
    """In-memory span list plus counters; one per traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.op = None
        self.active = False
        self.counts = Counter()  # (span name, counter) -> total
        self.band_edge_keys = []  # (p, q, beta) per band_edges call, for the reuse ratio
        self.torus_args = []  # (A, B, C, base) per averages call
        self.absent = []
        self.unreadable = set()  # spans whose counters could not be read from the arguments

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1,
                           self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None


def _freq_beta_key(args):
    """(p, q, beta) from the arguments of a spectrum entry point, whatever its signature."""
    for a in args:
        freq, beta = getattr(a, "freq", None), getattr(a, "beta", None)
        if freq is not None and beta is not None:
            return (freq.p, freq.q, float(beta))
    freq = next((a for a in args if hasattr(a, "p") and hasattr(a, "q")), None)
    beta = next((a for a in args if isinstance(a, float)), None)
    return None if freq is None else (freq.p, freq.q, beta)


def _post_band_edges(tracer, args, kwargs, out):
    tracer.band_edge_keys.append(_freq_beta_key(args))


def _post_averages(tracer, args, kwargs, out):
    A, B, C = args[:3]
    tracer.torus_args.append((A, B, C, kwargs.get("base")))


def _post_checkpoint(tracer, args, kwargs, out):
    path = args[0] if args else kwargs.get("path")
    if path and os.path.exists(path):
        tracer.counts[("butterfly.checkpoint", "bytes")] += os.path.getsize(path)


def _post_serialize(tracer, args, kwargs, out):
    tracer.counts[("butterfly.serialize", "bytes")] += len(out.encode())


def _post_compute_butterfly(tracer, args, kwargs, out):
    rows = getattr(out, "rows", ())
    tracer.counts[("butterfly.rows", "attempted")] += len(rows)
    tracer.counts[("butterfly.rows", "failed")] += sum(1 for r in rows if getattr(r, "error", None))


POST = {
    "spectrum.band_edges": _post_band_edges,
    "torus.averages": _post_averages,
    "butterfly.checkpoint": _post_checkpoint,
    "butterfly.serialize": _post_serialize,
    "butterfly.orchestrate": _post_compute_butterfly,
}


def _wrap(tracer, name, fn):
    post = POST.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if post is not None:
            try:
                post(tracer, args, kwargs, out)
            except Exception:  # a changed signature loses a counter, never the call
                tracer.unreadable.add(name)
        return out
    return wrapper


def _wrap_linalg(tracer, fn, counter):
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        if tracer.active and tracer.stack:
            shape = getattr(a, "shape", ())
            n = 1
            for s in shape[:-2]:
                n *= s
            tracer.counts[(tracer.innermost(), counter)] += n
        return fn(a, *args, **kwargs)
    return wrapper


def install(tracer):
    """Wrap every target at every harperlab module that refers to it."""
    import harperlab
    import numpy as np

    for info in pkgutil.iter_modules(harperlab.__path__):
        importlib.import_module(f"harperlab.{info.name}")
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "harperlab" or k.startswith("harperlab."))]
    for name, (modname, attr) in TARGETS.items():
        mod = sys.modules.get(f"harperlab.{modname}")
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner_name:
            orig = owner.__dict__.get(leaf) if inspect.isclass(owner) else None
        else:
            orig = getattr(owner, leaf, None)
        if not inspect.isfunction(orig):
            tracer.absent.append(name)
            continue
        wrapped = _wrap(tracer, name, orig)
        if owner_name:
            setattr(owner, leaf, wrapped)
            continue
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapped)
    for fname, counter in LINALG_COUNTED.items():
        setattr(np.linalg, fname, _wrap_linalg(tracer, getattr(np.linalg, fname), counter))


def _self_times(spans):
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(tracer):
    """Per-layer numbers of one traced pass, keyed like BENCHMARK.json's per_layer names."""
    spans = tracer.spans
    dur, self_t = _self_times(spans)
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    for s, d, st in zip(spans, dur, self_t):
        calls[s[0]] += 1
        self_s[s[0]] += st
        total_s[s[0]] += d
    detdata = [n for n in calls if n.startswith("spectrum.detdata.")]
    scan_dp = sum(1 for s in spans
                  if s[0] == "spectrum.detdata.dP" and s[3] >= 0
                  and spans[s[3]][0] == "lyapunov.critical_scan")
    keys = tracer.band_edge_keys
    psi_count = getattr(sys.modules.get("harperlab._torus"), "_psi_count", None)
    psi_nodes = 0
    try:
        for A, B, C, base in tracer.torus_args:
            psi_nodes += psi_count(A, B, C) if base is None else psi_count(A, B, C, base=base)
    except (TypeError, ValueError):
        tracer.unreadable.add("torus.psi_nodes")
        psi_nodes = 0
    recompute = sum(d for s, d in zip(spans, dur)
                    if s[0] == "butterfly.orchestrate" and s[4] == "render")
    out = {
        "spectrum.chambers.calls": calls["spectrum.chambers"],
        "spectrum.chambers.self_s": self_s["spectrum.chambers"],
        "spectrum.band_edges.calls": calls["spectrum.band_edges"],
        "spectrum.band_edges.self_s": self_s["spectrum.band_edges"],
        "spectrum.band_edges.reuse": len(set(keys)) / len(keys) if keys else 0.0,
        "spectrum.gaps.self_s": self_s["spectrum.gaps"],
        "spectrum.detdata.calls": sum(calls[n] for n in detdata),
        "spectrum.detdata.self_s": sum(self_s[n] for n in detdata),
        "spectrum.ids.calls": calls["spectrum.ids"],
        "spectrum.ids.self_s": self_s["spectrum.ids"],
        "torus.averages.calls": calls["torus.averages"],
        "torus.averages.self_s": self_s["torus.averages"],
        "torus.psi_nodes": psi_nodes,
        "lyapunov.critical_scan.self_s": self_s["lyapunov.critical_scan"],
        "lyapunov.critical_scan.dP_per_gap": (scan_dp / calls["lyapunov.critical_scan"]
                                              if calls["lyapunov.critical_scan"] else 0.0),
        "lyapunov.gradient.self_s": self_s["lyapunov.gradient"],
        "lyapunov.hessian.self_s": self_s["lyapunov.hessian"],
        "lyapunov.transfer.self_s": self_s["lyapunov.transfer"],
        "lyapunov.thouless.self_s": self_s["lyapunov.thouless"],
        "lyapunov.trace.self_s": self_s["lyapunov.trace"],
        "lyapunov.trace.eigensolves": tracer.counts[("lyapunov.trace", "eigensolves")],
        "lyapunov.log_potential.self_s": self_s["lyapunov.log_potential"],
        "coefficients.sheet.self_s": self_s["coefficients.sheet"],
        "coefficients.sheet.inverses": tracer.counts[("coefficients.sheet", "inverses")],
        "coefficients.recursion.self_s": self_s["coefficients.recursion"],
        "coefficients.residual.self_s": self_s["coefficients.residual"],
        "coefficients.decay.self_s": self_s["coefficients.decay"],
        "butterfly.orchestrate.self_s": self_s["butterfly.orchestrate"],
        "butterfly.checkpoint.s": total_s["butterfly.checkpoint"],
        "butterfly.checkpoint.bytes": tracer.counts[("butterfly.checkpoint", "bytes")],
        "butterfly.rows.attempted": tracer.counts[("butterfly.rows", "attempted")],
        "butterfly.rows.failed": tracer.counts[("butterfly.rows", "failed")],
        "butterfly.serialize.self_s": self_s["butterfly.serialize"],
        "butterfly.serialize.bytes": tracer.counts[("butterfly.serialize", "bytes")],
        "butterfly.parse.self_s": self_s["butterfly.parse"],
        "butterfly.render.self_s": self_s["butterfly.render"],
        "cli.render.recompute_s": recompute,
        "numbertheory.farey.self_s": self_s["numbertheory.farey"],
        "numbertheory.component_count.self_s": self_s["numbertheory.component_count"],
    }
    # op spans enclose every layer span, so layer self times cannot exceed the op time
    layer_self = sum(st for s, st in zip(spans, self_t) if s[0] in TARGETS)
    return out, layer_self, len(spans)
