"""scatlin benchmark: time the paper's three questions end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload scattered-q13 --seed 1 --seconds 40 --trace 0

Untraced (``--trace 0``): set up (import scatlin, build every field and
polynomial), then answer whole passes of the workload's questions while
another pass still fits in ``--seconds`` (at least one pass).  Set-up is
repeated in fresh child processes and reported as a median.

Traced (``--trace 1``): one untraced pass, then the same pass with every
layer function wrapped (see ``tracing.py``); the per-layer metrics, tracing
overhead and coverage come from that pair.  The spans are written to
``bench/out/``.

Every answer is checked against the paper's closed forms.  A wrong answer or
an exception counts as a failed question, by type; so does an answer that
differs from the first pass's answer to the same question, or, when traced,
from the untraced answer.  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the full report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
SETUP_SAMPLES = 5  # set-ups per run: this process plus SETUP_SAMPLES - 1 children

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "verdict_p50_s": "s", "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _cap_threads() -> None:
    """One process, no extra threads: numpy's pools are capped at nproc."""
    n = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)


def _check_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "scatlin", "__init__.py")):
        raise SystemExit("bench: no scatlin sources under %s" % SRC)


def _import_workloads():
    _check_sources()
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    import scatlin
    if not os.path.abspath(scatlin.__file__).startswith(SRC + os.sep):
        raise SystemExit("bench: imported scatlin from %s, not %s" %
                         (scatlin.__file__, SRC))
    return workloads


def _setup(name: str, seed: int):
    """Cold start to inputs ready: import scatlin, build fields and inputs."""
    t0 = time.perf_counter()
    wl = _import_workloads().build(name, seed)
    return wl, time.perf_counter() - t0


def _child_setup(name: str, seed: int) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=120)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# answering questions
# ---------------------------------------------------------------------------

class Check:
    """Compares answers against a workload's expected values.

    Each mismatch is recorded under the name of the expected value it broke,
    and every name consulted is remembered, so the self-test can corrupt one
    expected value at a time and see the matching check fail.
    """

    def __init__(self, expect: dict):
        self.expect = expect
        self.failures: list[str] = []
        self.used: list[str] = []

    def eq(self, key: str, got) -> None:
        if key not in self.used:
            self.used.append(key)
        want = self.expect[key]
        if got != want:
            self.failures.append("%s: got %r, expected %r" % (key, got, want))


def _answer(question, expect: dict, tracer=None) -> dict:
    chk = Check(expect)
    if tracer is not None:
        tracer.question = question.qid
    t0 = time.perf_counter()
    try:
        answer, work = question.run(chk)
        error = "WrongAnswer" if chk.failures else None
    except Exception as exc:  # every raise is a counted, typed failure
        answer, work = {"raised": type(exc).__name__, "message": str(exc)}, None
        error = type(exc).__name__
    seconds = time.perf_counter() - t0
    return {"qid": question.qid, "seconds": seconds, "answer": answer,
            "work": work, "error": error, "failures": chk.failures,
            "checked": chk.used}


def _run_pass(wl, tracer=None) -> dict:
    t0 = time.perf_counter()
    outcomes = [_answer(q, wl.expect, tracer) for q in wl.questions]
    return {"wall_s": time.perf_counter() - t0, "outcomes": outcomes}


def _digest(p: dict) -> str:
    """sha256 of a pass's answers, timings excluded."""
    blob = json.dumps([[o["qid"], o["answer"]] for o in p["outcomes"]],
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _compare(reference: dict, p: dict, error: str) -> None:
    """Mark each answer of ``p`` that differs from ``reference`` as failed."""
    for ref, o in zip(reference["outcomes"], p["outcomes"]):
        if o["answer"] != ref["answer"] and o["error"] is None:
            o["error"] = error


def _failures(passes) -> dict:
    out: dict[str, int] = {}
    for p in passes:
        for o in p["outcomes"]:
            if o["error"]:
                out[o["error"]] = out.get(o["error"], 0) + 1
    return out


# ---------------------------------------------------------------------------
# host and input record
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _host(wl) -> dict:
    import numpy as np
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, idx, "level"))
        kind = _read(os.path.join(base, idx, "type"))
        if level in ("2", "3") and kind == "Unified":
            caches["L%s" % level] = _read(os.path.join(base, idx, "size"))
    fields = []
    for F in wl.fields:
        tables = sum(v.nbytes for v in vars(F).values() if isinstance(v, np.ndarray))
        fields.append({"summary": F.summary(), "table_bytes_computed": tables})
    return {
        "nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
        "cache_per_core": caches, "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "fields": fields,
    }


# ---------------------------------------------------------------------------
# the two modes; each returns (workload, metrics, units, passes, report)
# ---------------------------------------------------------------------------

def _untraced(name: str, seed: int, seconds: float):
    samples = [_child_setup(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    wl, setup_s = _setup(name, seed)
    samples.append(setup_s)
    t_ready = time.perf_counter()
    passes = [_run_pass(wl)]
    while (time.perf_counter() - t_ready
           + statistics.fmean(p["wall_s"] for p in passes) <= seconds):
        passes.append(_run_pass(wl))
    for p in passes[1:]:
        _compare(passes[0], p, "AnswerChanged")
    outcomes = [o for p in passes for o in p["outcomes"]]
    times = [o["seconds"] for o in outcomes]
    counted = [o for o in outcomes if o["work"] is not None]
    metrics = {
        "setup_s": statistics.median(samples),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "verdict_p50_s": statistics.median(times),
        "work_per_s": (sum(o["work"] for o in counted)
                       / sum(o["seconds"] for o in counted)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # the issue's names for the same figures, and the p90 where at least
    # ten samples lie beyond it; reported, but not in BENCHMARK.json
    more = {wl.work_unit: {"value": metrics["work_per_s"], "unit": "1/s"}}
    if len(times) >= 100:
        more["verdict_p90_s"] = {"value": statistics.quantiles(times, n=10)[-1],
                                 "unit": "s"}
    report = {
        "passes": len(passes), "pass_walls_s": [p["wall_s"] for p in passes],
        "setup_samples_s": samples, "verdict_samples": len(times), "more": more,
    }
    return wl, metrics, END_TO_END, passes, report


def _traced(name: str, seed: int):
    workloads = _import_workloads()
    import tracing
    tracer = tracing.Tracer()
    tracer.question = "setup"
    with tracer:  # so that make_field shows up as a layer span
        wl = workloads.build(name, seed)
    plain = _run_pass(wl)
    with tracer:
        traced = _run_pass(wl, tracer)
        tracer.question = "probe"
        probes = []
        for probe in wl.probes:
            try:
                probe()
                probes.append(None)
            except Exception as exc:  # reported by type, never dropped
                probes.append(type(exc).__name__)
    _compare(plain, traced, "TraceChangedAnswer")
    qids = {o["qid"] for o in traced["outcomes"]}
    metrics = tracing.layer_metrics(tracer.spans, qids, traced["wall_s"],
                                    plain["wall_s"])
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-%d.jsonl" % (name, seed))
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    report = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "traced_digest": _digest(traced), "probe_errors": probes,
              "spans": len(tracer.spans), "spans_file": os.path.relpath(path, ROOT)}
    units = {k: tracing.unit(k) for k in metrics}
    return wl, metrics, units, [plain, traced], report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time one cold set-up and print it (internal)")
    args = ap.parse_args(argv)
    _check_sources()
    _cap_threads()

    if args.setup_probe:
        _, setup_s = _setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        wl, metrics, units, passes, extra = _traced(args.workload, args.seed)
    else:
        wl, metrics, units, passes, extra = _untraced(args.workload, args.seed,
                                                      args.seconds)

    failures = _failures(passes)
    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = sum(failures.values())
    values = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": _digest(passes[0]),
        "metrics": {**values,
                    "ops": {"value": attempted, "unit": "count"},
                    "ops_failed": {"value": failed, "unit": "count"},
                    **extra.pop("more", {})},
        "failures_by_type": failures,
        "failed_questions": [
            {"qid": o["qid"], "error": o["error"], "failures": o["failures"],
             "answer": o["answer"] if o["error"] != "WrongAnswer" else None}
            for p in passes for o in p["outcomes"] if o["error"]],
        **extra, "host": _host(wl),
    }
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
