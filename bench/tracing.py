"""Layer spans for the traced run.

The tracer replaces, for the duration of ``with Tracer():``, every public
function of the eight scatlin layer modules by a timing wrapper.  The wrapper
is installed on every module attribute that holds the function, because that
is what callers look up: ``scatlin.mrd.mat_rank`` is ``linalg.rank`` under
another name, and ``scatter`` calls ``multilinear_det_expansion`` through its
own namespace.  The numpy exponent kernels and ``RankCode.codeword_rank`` are
methods and are wrapped on their class.  Scalar ``Field.add``/``mul`` are not
wrapped: per-call wrapping would dominate them, so their cost shows up as self
time of the ``linalg``, ``geom`` and ``qpoly`` spans that call them.

A span is ``[name, start, end, parent, question, extra, error]``.  Spans stay
in memory; ``layer_metrics`` folds them into the per-layer metrics and
``run.py`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time

import numpy as np

from scatlin import gf, mrd

LAYERS = ("gf", "linalg", "qpoly", "scatter", "family", "geom", "equiv", "mrd")

KERNELS = ("v_add", "v_sub", "v_neg", "v_mul", "v_mul_const", "v_frob",
           "v_p_power", "v_inv")

METHODS = [(gf.Field, "gf", name) for name in KERNELS]
METHODS.append((mrd.RankCode, "mrd", "codeword_rank"))


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes_computed"):
        return "B"
    if metric == "trace.coverage":
        return "ratio"
    return "count"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _kernel_extra(args, out):
    """(elements produced, bytes of array operands and result)."""
    if not isinstance(out, np.ndarray):
        return None
    nbytes = out.nbytes + sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    return (out.size, nbytes)


def _searched(args, out):
    return out.searched


EXTRA = {"gf." + k: _kernel_extra for k in KERNELS}
EXTRA["equiv.gl_equivalent"] = _searched


class Tracer:
    """Context manager that installs the layer wrappers and collects spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.question = None
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        extra = EXTRA.get(name)
        rss = name == "gf.make_field"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.question,
                    None, None]
            spans.append(span)
            stack.append(idx)
            rss0 = _maxrss_mb() if rss else 0.0
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if rss:
                span[5] = _maxrss_mb() - rss0
            elif extra is not None:
                span[5] = extra(args, out)
            return out
        return wrapper

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "scatlin" or n.startswith("scatlin.")]
        for layer in LAYERS:
            mod = sys.modules["scatlin." + layer]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or inspect.isclass(fn) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                wrapper = self._wrap("%s.%s" % (layer, attr), fn)
                for owner in modules:
                    for oattr, val in list(vars(owner).items()):
                        if val is fn:
                            self._undo.append((owner, oattr, fn))
                            setattr(owner, oattr, wrapper)
        for cls, layer, attr in METHODS:
            fn = cls.__dict__[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap("%s.%s" % (layer, attr), fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()
        return False


def layer_metrics(spans, questions: set, wall_s: float,
                  untraced_wall_s: float) -> dict:
    """Per-layer metrics from the spans of one traced pass (plus set-up and
    probe spans where a metric is about those).

    ``questions`` holds the question ids of the traced pass and ``wall_s`` is
    its wall time; ``untraced_wall_s`` is the same pass answered untraced.
    """
    child = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    def dur(s):
        return s[2] - s[1]

    def of(name, where=questions):
        return [(i, spans[i]) for i in by_name.get(name, ())
                if where is None or spans[i][4] in where]

    def total(name, where=questions):
        return sum(dur(s) for _, s in of(name, where))

    def calls(name):
        return len(of(name))

    def self_time(pairs):
        return sum(dur(s) - child[i] for i, s in pairs)

    kernels = [p for k in KERNELS for p in of("gf." + k)]
    gl = [s for _, s in of("equiv.gl_equivalent") if s[5] is not None]
    lemma = [s for _, s in of("family.lemma_roots", None)]
    top = sum(dur(s) for s in spans if s[3] < 0 and s[4] in questions)
    out = {
        "gf.make_field_s": total("gf.make_field", None),
        "gf.make_field_rss_mb": sum(s[5] or 0.0 for _, s in of("gf.make_field", None)),
        "gf.kernel_calls": len(kernels),
        "gf.kernel_self_s": self_time(kernels),
        "gf.kernel_elems": sum(s[5][0] for _, s in kernels if s[5]),
        "gf.kernel_bytes_computed": sum(s[5][1] for _, s in kernels if s[5]),
        "scatter.oracle_s": total("scatter.is_scattered_oracle"),
        "scatter.oracle_self_s": self_time(of("scatter.is_scattered_oracle")),
        "scatter.spectrum_s": total("scatter.weight_spectrum"),
        "scatter.dickson_s": total("scatter.is_scattered_dickson"),
        "scatter.dickson_calls": calls("scatter.is_scattered_dickson"),
        "qpoly.expansion_s": total("qpoly.multilinear_det_expansion"),
        "qpoly.expansion_calls": calls("qpoly.multilinear_det_expansion"),
    }
    for fn in ("det", "rank", "rref"):
        out["linalg.%s_calls" % fn] = calls("linalg." + fn)
        out["linalg.%s_s" % fn] = total("linalg." + fn)
    out.update({
        "geom.intn_calls": calls("geom.intn"),
        "geom.intn_s": total("geom.intn"),
        "geom.gamma_of_s": total("geom.gamma_of"),
        "mrd.rank_distribution_s": total("mrd.rank_distribution"),
        "mrd.eliminations": calls("mrd.codeword_rank"),
        "equiv.gl_calls": calls("equiv.gl_equivalent"),
        "equiv.gl_s": total("equiv.gl_equivalent"),
        "equiv.triples": sum(s[5] for s in gl),
        "equiv.verify_calls": calls("equiv.verify_witness"),
        "equiv.verify_s": total("equiv.verify_witness"),
        "equiv.l4_calls": calls("equiv.check_system_L4"),
        "equiv.l4_s": total("equiv.check_system_L4"),
        "family.lemma_roots_s": sum(dur(s) for s in lemma),
        "family.lemma_calls": len(lemma),
        "family.lemma_gaps": sum(1 for s in lemma if s[6] == "ClassificationGap"),
        "trace.coverage": top / wall_s if wall_s > 0 else 0.0,
        "trace.overhead_s": wall_s - untraced_wall_s,
    })
    return out
