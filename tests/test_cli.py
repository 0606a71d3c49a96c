"""CLI smoke tests: schemas, exit codes, determinism, checkpointing."""

import ast
import json
import pathlib
import subprocess
import sys

import scatlin
from scatlin import cli
from scatlin.mrd import RankCode


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "scatlin", *argv],
                          capture_output=True, text=True)
    return proc


def run_json(*argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr or proc.stdout
    return json.loads(proc.stdout)


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items()
                if k not in ("elapsed_s",)}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def test_check_pseudoregulus():
    rep = run_json("check", "--field", "3^1",
                   "--poly", '{"coeffs":["0","g^0","0","0","0","0"]}')
    assert rep["result"]["scattered"] is True
    assert rep["result"]["oracle"]["scattered"] is True
    assert rep["result"]["dickson"]["scattered"] is True
    assert rep["field"]["p"] == 3 and "fingerprint" in rep["field"]


def test_check_family_grammar():
    rep = run_json("check", "--field", "5^1", "--poly", "new_fh:h=2",
                   "--method", "oracle")
    assert rep["result"]["scattered"] is True
    assert rep["result"]["oracle"]["spectrum"] == {"1": 3906}


def test_check_negative_with_witnesses():
    rep = run_json("check", "--field", "3^1", "--poly", "case1", "--exhaustive")
    assert rep["result"]["scattered"] is False
    assert len(rep["result"]["dickson"]["witnesses"]) == 2


def test_linset_report():
    rep = run_json("linset", "--field", "3^1", "--poly", "case1")
    assert rep["result"]["spectrum"] == {"1": 338, "3": 2}
    assert rep["result"]["mass_conserved"] is True


def test_enumerate_h_cli():
    rep = run_json("enumerate-h", "--field", "3^1")
    assert rep["result"]["count"] == 28
    rep = run_json("enumerate-h", "--field", "2^2")
    assert rep["result"]["count"] == 65


def test_intn_cli():
    rep = run_json("intn", "--field", "3^1", "--h", "g^13")
    assert rep["result"]["intn"] == 3
    assert rep["result"]["dims_chain"][:3] == [3, 1, -1]


def test_equiv_cli_with_checkpoint(tmp_path):
    ck = tmp_path / "ck.json"
    rep = run_json("equiv", "--field", "3^1", "--left", "new_fh:h=g^13",
                   "--right", "pseudoregulus", "--budget", "800000",
                   "--checkpoint-out", str(ck))
    assert rep["result"]["verdict"] == "budget_exceeded"
    assert ck.exists()
    rep2 = run_json("equiv", "--field", "3^1", "--left", "new_fh:h=g^13",
                    "--right", "pseudoregulus", "--resume", str(ck))
    assert rep2["result"]["verdict"] == "not_equivalent"
    assert rep2["result"]["searched"] == 6 * 729**2


def test_equiv_cli_checkpoint_misuse_exit_2(tmp_path, capsys):
    """Resuming a checkpoint made for other inputs, and --resume or
    --checkpoint-out where no single search runs, are usage errors."""
    ck = tmp_path / "ck.json"
    base = ["equiv", "--field", "3^1", "--left", "new_fh:h=g^13"]
    assert cli.main(base + ["--right", "pseudoregulus", "--budget", "1000",
                            "--checkpoint-out", str(ck)]) == 0
    assert cli.main(base + ["--right", "case1", "--resume", str(ck)]) == 2
    for flag in ("--resume", "--checkpoint-out"):
        assert cli.main(base + ["--right", "pseudoregulus", "--pgl", flag, str(ck)]) == 2
        assert cli.main(base + ["--trinomial-search", flag, str(ck)]) == 2
    assert json.loads(ck.read_text())["tried"] == 1000
    assert cli.main(base + ["--right", "pseudoregulus", "--workers", "2"]) == 2


def test_equiv_cli_pgl():
    rep = run_json("equiv", "--field", "3^1", "--left", "new_fh:h=g^91",
                   "--right", "trinomial:h=g^91", "--pgl")
    assert rep["result"]["verdict"] == "equivalent"
    assert rep["result"]["branch"] == "direct"


def test_mrd_cli():
    rep = run_json("mrd", "--field", "3^1", "--poly", "new_fh:h=g^13",
                   "--full-distribution")
    assert rep["result"]["mrd"] is True
    assert rep["result"]["min_distance"] == 5
    assert rep["result"]["distribution"]["0"] == 1


def test_mrd_cli_q7_full_distribution():
    """The default budget reaches q = 7: the counts come from the buckets."""
    rep = run_json("mrd", "--field", "7^1", "--family", "new_fh", "--h", "g^171",
                   "--full-distribution")
    a5 = (7**6 - 1) ** 2 // 6
    assert rep["result"]["distribution"] == {"0": 1, "5": a5, "6": 7**12 - 1 - a5}
    assert rep["result"]["mrd"] is True


def test_internal_invariant_exit_3(monkeypatch, capsys):
    """A failed cross-check is a bug signal: exit 3, not 1 or 2."""
    monkeypatch.setattr(RankCode, "codeword_rank", lambda C, a, b: 4)
    assert cli.main(["mrd", "--field", "3^1", "--poly", "case1"]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "InternalInvariant"
    # so is a disagreement of the two scatteredness deciders
    real = cli.is_scattered_dickson

    def flipped(f, **kw):
        v = real(f, **kw)
        v.scattered = not v.scattered
        return v
    monkeypatch.setattr(cli, "is_scattered_dickson", flipped)
    assert cli.main(["check", "--field", "3^1", "--poly", "case1"]) == 3


def test_invariant_checks_fire_under_python_O():
    """Invariant checks are explicit raises, so python -O keeps them."""
    script = """
import sys
from scatlin import family_poly, make_field, scatter
from scatlin.errors import InternalInvariant
real = scatter.is_scattered_dickson
def flipped(f, **kw):
    v = real(f, **kw)
    v.scattered = not v.scattered
    return v
scatter.is_scattered_dickson = flipped
try:
    scatter.is_scattered(family_poly(make_field(3, 1), "case1"))
except InternalInvariant as exc:
    print(sys.flags.optimize, type(exc).__name__)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.stdout.split() == ["1", "InternalInvariant"], proc.stderr


def test_no_bare_assert_in_src():
    """python -O strips assert statements, so the package has none: every
    invariant check is an explicit raise."""
    files = sorted(pathlib.Path(scatlin.__file__).parent.rglob("*.py"))
    assert files
    found = [(path.name, node.lineno) for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_lemmas_cli():
    rep = run_json("lemmas", "--field", "5^1", "--h", "2")
    assert rep["result"]["lemma1"]["item1_hq_ne_minus_h"] is True
    assert "roots" in rep["result"]["lemma3"]


def test_lemmas_cli_gap_is_an_error():
    """A ClassificationGap is a bug signal and exits 1; only a lemma whose
    hypotheses h violates is reported as skipped."""
    proc = run_cli("lemmas", "--field", "5^1", "--h", "g^62", "--which", "lemma2")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == "ClassificationGap"
    rep = run_json("lemmas", "--field", "5^1", "--h", "g^62", "--which", "lemma3")
    assert "skipped" in rep["result"]["lemma3"]


def test_json_flag_removed():
    # JSON is the only default output; the old no-op --json flag is unknown
    proc = run_cli("linset", "--field", "3^1", "--poly", "case1", "--json")
    assert proc.returncode == 2


def test_reproduce_exit_codes():
    proc = run_cli("reproduce", "case1-q5")
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["result"]["ok"] is True


def test_reproduce_unknown_tag_is_usage_error():
    proc = run_cli("reproduce", "no-such-tag")
    assert proc.returncode == 2


def test_usage_error_exit_2():
    proc = run_cli("equiv", "--field", "3^1", "--left", "case1")
    assert proc.returncode == 2


def test_report_roundtrip_deterministic():
    a = run_json("linset", "--field", "3^1", "--poly", "case1")
    b = run_json("linset", "--field", "3^1", "--poly", "case1")
    assert strip_timings(a) == strip_timings(b)


def test_table_output():
    proc = run_cli("check", "--field", "3^1", "--poly", "pseudoregulus", "--table")
    assert proc.returncode == 0
    assert "result.scattered" in proc.stdout
