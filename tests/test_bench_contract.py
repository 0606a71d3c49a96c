"""The benchmark under bench/ reaches into the library by name: the tracer
wraps Field's vector kernels and RankCode.codeword_rank through the class
__dict__, and every workload calls the public layer functions.  These tests
run the benchmark's own self-test and one traced call, so a deletion in the
library that breaks the benchmark fails here first."""

import pathlib
import subprocess
import sys

from scatlin import mrd
from scatlin.family import family_poly

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_tracer_wraps_and_restores(f3, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    before = {(cls, attr): cls.__dict__[attr] for cls, _, attr in tracing.METHODS}
    layer_fn = mrd.rank_distribution
    C = mrd.code_from(family_poly(f3, "pseudoregulus"))
    with tracing.Tracer() as tr:
        dist = mrd.rank_distribution(C)
    assert dist.min_distance() == 5
    names = {span[0] for span in tr.spans}
    assert {"mrd.rank_distribution", "mrd.codeword_rank"} <= names
    assert all(cls.__dict__[attr] is fn for (cls, attr), fn in before.items())
    assert mrd.rank_distribution is layer_fn
