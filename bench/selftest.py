"""Self-test of the benchmark's own checks.

1. Each workload answers one pass at its smallest size (scattered at q = 5,
   invariants at q = 3, new at q = 3) and every answer must be correct.
2. Each expected value is corrupted in turn, and the first question that
   consults it is asked again; it must fail on exactly that check, so no
   check is vacuous.
3. A question that raises counts as failed under its exception type,
   including AssertionError, ClassificationGap, BudgetExceeded and TooLarge.

The checks use no ``assert``, so the result is the same under ``python -O``.

Usage, from the repository root:

    python3 bench/selftest.py

Exit status 0 when every step holds.
"""

from __future__ import annotations

import json
import os
import sys

import run


def corrupt(value):
    """A wrong value of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "'"
    if isinstance(value, list):
        return [corrupt(value[0])] + value[1:]
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: corrupt(value[key])}
    raise TypeError("cannot corrupt %r" % (value,))


def _raising(exc):
    def question(chk):
        raise exc
    return question


def _declared_metrics() -> list[str]:
    """Metric names or units that differ between BENCHMARK.json and run.py."""
    import tracing
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    emitted = {
        "end_to_end": dict(run.END_TO_END),
        "per_layer": {k: tracing.unit(k) for k in tracing.layer_metrics([], set(), 1.0, 1.0)},
    }
    problems = []
    for kind, got in emitted.items():
        want = {m["name"]: m["unit"] for m in declared[kind]}
        if want != got:
            problems.append("%s: BENCHMARK.json declares %s, run.py emits %s" %
                            (kind, want, got))
    return problems


def main() -> int:
    workloads = run._import_workloads()
    from scatlin.errors import BudgetExceeded, ClassificationGap, TooLarge
    problems = [("BENCHMARK.json", p) for p in _declared_metrics()]

    for name in workloads.WORKLOADS:
        wl = workloads.build(name, seed=0, smallest=True)
        clean = run._run_pass(wl)
        wrong = [(o["qid"], o["error"], o["failures"]) for o in clean["outcomes"]
                 if o["error"]]
        print("%-14s at q=%d: one pass, %d questions, %.2fs, failed %d, digest %s" %
              (name, wl.fields[0].q, len(clean["outcomes"]), clean["wall_s"],
               len(wrong), run._digest(clean)[:16]))
        problems += [("%s clean pass" % name, w) for w in wrong]

        first_user = {}
        for question, outcome in zip(wl.questions, clean["outcomes"]):
            for key in outcome["checked"]:
                first_user.setdefault(key, question)
        for key in wl.expect:
            question = first_user.get(key)
            if question is None:
                problems.append((name, "expected value %r is never checked" % key))
                continue
            expect = dict(wl.expect)
            expect[key] = corrupt(expect[key])
            outcome = run._answer(question, expect)
            caught = (outcome["error"] == "WrongAnswer"
                      and {f.split(":")[0] for f in outcome["failures"]} == {key})
            print("  corrupt %-24s -> %-9s (%s)" %
                  (key, "caught" if caught else "MISSED", question.qid))
            if not caught:
                problems.append((name, "corrupted %r not caught: %r" %
                                 (key, outcome["failures"] or outcome["error"])))

    exceptions = [AssertionError("decider disagreement (bug)"),
                  ClassificationGap("root matches no listed case"),
                  BudgetExceeded("budget"), TooLarge("too large")]
    fake = {"outcomes": [run._answer(workloads.Question("raises", _raising(e)), {})
                         for e in exceptions]}
    counted = run._failures([fake])
    want = {type(e).__name__: 1 for e in exceptions}
    print("raised exceptions counted by type:", counted)
    if counted != want:
        problems.append(("exceptions", "counted %r, expected %r" % (counted, want)))

    for where, what in problems:
        print("PROBLEM %s: %s" % (where, what))
    print("selftest", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
