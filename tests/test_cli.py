"""CLI smoke tests: schemas, exit codes, determinism."""

import ast
import hashlib
import json
import pathlib
import shlex
import subprocess
import sys

import pytest

import scatlin
from scatlin import cli, family, scatter
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
        return {k: strip_timings(v) for k, v in obj.items() if k != "timing"}
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
    rep = run_json("check", "--field", "5^1", "--poly", "new_fh:h=2")
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


def test_intn_cli(capsys):
    """intn takes any polynomial; x -> a x has no vertex and exits 1."""
    rep = run_json("intn", "--field", "3^1", "--poly", "new_fh:h=g^13")
    assert rep["result"]["intn"] == 3
    assert rep["result"]["dims_chain"][:3] == [3, 1, -1]
    rep = run_json("intn", "--field", "3^1", "--poly", "pseudoregulus", "--power", "5")
    assert (rep["result"]["intn"], rep["result"]["dims_chain"]) == (1, [3, 2])
    assert cli.main(["intn", "--field", "3^1", "--poly", '{"coeffs":["g^0"]}']) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "DegenerateInput"


def test_equiv_cli_pgl():
    rep = run_json("equiv", "--field", "3^1", "--left", "new_fh:h=g^91",
                   "--right", "trinomial:h=g^91", "--pgl")
    assert rep["result"]["verdict"] == "equivalent"
    assert rep["result"]["branch"] == "direct"


def test_mrd_cli(capsys):
    """A code of q^12 maps reports its idealiser dimensions; f = g x spans
    only F_{q^6} x and exits 1."""
    rep = run_json("mrd", "--field", "3^1", "--poly", "new_fh:h=g^13",
                   "--full-distribution")
    assert rep["result"]["mrd"] is True
    assert rep["result"]["min_distance"] == 5
    assert rep["result"]["distribution"]["0"] == 1
    assert rep["result"]["idealisers"] == {"left": 6, "right": 2}
    assert cli.main(["mrd", "--field", "3^1", "--poly", '{"coeffs":["g^1"]}']) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "DegenerateInput"


def test_mrd_cli_q7_full_distribution():
    """The default budget reaches q = 7: the counts come from the buckets."""
    rep = run_json("mrd", "--field", "7^1", "--poly", "new_fh:h=g^171",
                   "--full-distribution")
    a5 = (7**6 - 1) ** 2 // 6
    assert rep["result"]["distribution"] == {"0": 1, "5": a5, "6": 7**12 - 1 - a5}
    assert rep["result"]["mrd"] is True


def test_mrd_cli_idealisers_over_f4():
    """At q = 4 the idealisers are F_2-kernels, and the report gives their
    F_q-dimensions, 6 and 6 for the Gabidulin-like code of x^q."""
    rep = run_json("mrd", "--field", "2^2", "--poly", "pseudoregulus")
    assert rep["result"]["idealisers"] == {"left": 6, "right": 6}


def test_internal_invariant_exit_3(monkeypatch, capsys):
    """A failed cross-check is a bug signal: exit 3, not 1 or 2."""
    monkeypatch.setattr(RankCode, "codeword_rank", lambda C, a, b: 4)
    assert cli.main(["mrd", "--field", "3^1", "--poly", "case1"]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "InternalInvariant"
    # so is a disagreement of the two scatteredness deciders, even one that
    # leaves both verdicts "not scattered": case1 at q = 3 has two Dickson
    # witnesses, and the point of the one dropped is then certified by neither
    real = scatter.is_scattered_dickson

    def dropped(f):
        v = real(f)
        v.witnesses.pop()
        return v
    monkeypatch.setattr(scatter, "is_scattered_dickson", dropped)
    capsys.readouterr()
    assert cli.main(["check", "--field", "3^1", "--poly", "case1"]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "InternalInvariant"


def test_invariant_checks_fire_under_python_O():
    """Invariant checks are explicit raises, so python -O keeps them."""
    script = """
import sys
from scatlin import family_poly, make_field, scatter
from scatlin.errors import InternalInvariant
real = scatter.is_scattered_dickson
def dropped(f):
    v = real(f)
    v.witnesses.pop()
    return v
scatter.is_scattered_dickson = dropped
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


def test_lemmas_cli_gap_is_an_error(monkeypatch, capsys):
    """A ClassificationGap is a bug signal and exits 1; only a lemma whose
    hypotheses h violates is reported as skipped.  The correct Lemma 2
    polynomial has no unclassified root, so the gap is provoked in process
    by flipping the signs of its c1 and c0 rows, which gives 6 unclassified
    roots at q = 5, h = g^62."""
    argv = ["lemmas", "--field", "5^1", "--h", "g^62"]
    rep = run_json(*argv)
    assert [r["class"] for r in rep["result"]["lemma2"]["roots"]] == ["minus", "plus"]
    assert "skipped" in rep["result"]["lemma3"]
    rows = family.LEMMA_POLYS["lemma2"]
    flipped = rows[:2] + tuple((tpow, tuple((-sign, d) for sign, d in monos))
                               for tpow, monos in rows[2:])
    monkeypatch.setitem(family.LEMMA_POLYS, "lemma2", flipped)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "ClassificationGap"


@pytest.mark.parametrize("argv", [
    # JSON is the only default output; the old no-op --json flag is unknown
    "linset --field 3^1 --poly case1 --json",
    # --poly NAME:h=ELT is the one polynomial grammar; the old --family,
    # --h and --delta flags of check, linset and mrd are unknown
    "check --field 3^1 --family case1",
    # the exploratory trinomial scan is deleted
    "equiv --field 3^1 --left new_fh:h=g^13 --right pseudoregulus --trinomial-search",
    # mrd's elimination cap is deleted: the cross-check always runs its 32
    "mrd --field 3^1 --poly case1 --budget 1000",
    # check always runs both deciders, enumerate-h takes the parity of the
    # field, lemmas reports all three lemmas, and intn takes --poly
    "check --field 3^1 --poly case1 --method oracle",
    "enumerate-h --field 3^1 --variant odd",
    "lemmas --field 3^1 --h g^13 --which lemma1",
    "intn --field 3^1 --poly case1 --h g^13",
    # equiv has no budget: a search runs to its first witness or to the end,
    # so there is nothing to resume and no checkpoint to write
    "equiv --field 3^1 --left case1 --right pseudoregulus --budget 1",
    "equiv --field 3^1 --left case1 --right pseudoregulus --resume ck.json",
    "equiv --field 3^1 --left case1 --right pseudoregulus --checkpoint-out ck.json",
], ids=["json", "family", "trinomial-search", "mrd-budget", "check-method",
        "enumerate-h-variant", "lemmas-which", "intn-h", "equiv-budget",
        "equiv-resume", "equiv-checkpoint-out"])
def test_removed_flag_is_unknown(argv):
    assert run_cli(*argv.split()).returncode == 2


def test_reproduce_exit_codes():
    proc = run_cli("reproduce", "case1-q5")
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["result"]["ok"] is True


def test_reproduce_all_in_process(capsys):
    """The headline reproduction: every tag ok, exit 0, through main's
    field-less path."""
    assert cli.main(["reproduce", "all"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["ok"] is True and "field" not in rep


def test_reproduce_unknown_tag_is_usage_error():
    proc = run_cli("reproduce", "no-such-tag")
    assert proc.returncode == 2


def test_usage_error_exit_2():
    proc = run_cli("equiv", "--field", "3^1", "--left", "case1")
    assert proc.returncode == 2


def test_report_timings_under_one_key():
    """make_field is timed as field_s, the rest as elapsed_s, both under
    "timing"; a reproduce report has no field and one timing per tag."""
    rep = run_json("linset", "--field", "3^1", "--poly", "case1")
    assert set(rep["timing"]) == {"field_s", "elapsed_s"}
    assert "elapsed_s" not in rep
    rep = run_json("reproduce", "case1-q3-negative")
    assert set(rep["timing"]) == {"elapsed_s"}
    assert set(rep["result"]["timing"]) == {"elapsed_s"}


def test_report_roundtrip_deterministic():
    a = run_json("linset", "--field", "3^1", "--poly", "case1")
    b = run_json("linset", "--field", "3^1", "--poly", "case1")
    assert strip_timings(a) == strip_timings(b)


def test_table_output():
    proc = run_cli("check", "--field", "3^1", "--poly", "pseudoregulus", "--table")
    assert proc.returncode == 0
    assert "result.scattered" in proc.stdout


# sha256 of json.dumps(report minus "timing", sort_keys=True) for each
# command, as computed before the polynomial-arithmetic backend was deleted
# (the intn entry since intn reads its vertex off --poly, the mrd entries
# since the report carries the idealiser dimensions)
GOLDEN_REPORTS = {
    "check --field 3^1 --poly case1 --exhaustive":
        "dc583e998080315462cff145bdcf8f48127f8c4f53b966f40c40b8fb257bfa8e",
    "linset --field 3^1 --poly new_fh:h=g^13":
        "f23ee8af445ccaadf4d96e79ee733a11f3b95357b02c7e5e1bc141e8cf05505f",
    "enumerate-h --field 3^1":
        "ce3ed28748d3f25561d0374853de9f992a8d1fe3a2993669ffaf24440c6d74a7",
    "intn --field 3^1 --poly new_fh:h=g^13":
        "5f11a7f110cf76f932e50d040ef0b7de452d2b81fedc5d7859b4c8031f60cd23",
    "mrd --field 3^1 --poly new_fh:h=g^13 --full-distribution":
        "cc0a79c224840044c0e73b5fe352c820a7f98c14dfac905401bb415de2095b70",
    "mrd --field 5^1 --poly case1":
        "90d55f10500184bb0c2450c8e0113705badcb805399e32e71404e48b4b01cb37",
    "lemmas --field 3^1 --h g^13":
        "1813c332cc55492b4188fc6f36b4b6cae6465109e8ede36def5876280a18cfb6",
    "equiv --field 3^1 --left new_fh:h=g^91 --right trinomial:h=g^91 --pgl":
        "81523f617678b6991ea98c1c9603bb641acdba1c1fe90e69251512d5b166555f",
    "check --field 5^1 --poly case1 --exhaustive":
        "cb1c7037783f45e917e52c6a79691a4d7400cfbf1f78a181ab8b06634e8092a1",
}


@pytest.mark.parametrize("chunk", [None, 1 << 6])
def test_golden_reports(chunk, f3, f5, with_chunk, capsys):
    """Whole CLI reports minus timing are pinned, and do not depend on the
    slice size of the whole-field scans."""
    for F in (f3, f5):
        with_chunk(F, chunk)
    for command, digest in GOLDEN_REPORTS.items():
        assert cli.main(command.split()) == 0, command
        rep = strip_timings(json.loads(capsys.readouterr().out))
        got = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
        assert got == digest, command


@pytest.mark.parametrize("argv", [
    "linset --field 3^x --poly case1",
    "intn --field 3^1 --poly new_fh:h=foo",
    "lemmas --field 3^1 --h poly:1,2,3,4,5,6,7",
    "check --field 3^1 --poly {bad",
    'check --field 3^1 --poly {"x":1}',
    'check --field 3^1 --poly {"coeffs":5}',
    "check --field 3^1 --poly new_fh:h=g^x",
    # a family takes its own parameter only: none, h or delta
    "linset --field 3^1 --poly new_fh",
    "linset --field 3^1 --poly case1:h=g^2",
    "linset --field 3^1 --poly pseudoregulus:delta=g^1",
    "linset --field 3^1 --poly new_fh:delta=g^13",
    "linset --field 3^1 --poly lp:h=g^1",
    "linset --field 3^1 --poly u4:h=g^455",
])
def test_malformed_input_is_usage_error(argv, capsys):
    """Malformed field, element and polynomial input exits 2 with one
    usage-error line on stderr, not a traceback."""
    assert cli.main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err


def test_order_limit_is_an_error(capsys):
    """make_field refuses fields above 2^24 elements, so every command
    exits 1 with a TooLarge error there."""
    for argv in (["enumerate-h", "--field", "17^1"],
                 ["check", "--field", "17^1", "--poly", "case1"]):
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "TooLarge"


def test_readme_commands_parse():
    """Every scatlin line of README's command-line block (continuation
    lines joined) parses, so a flag deleted from the code cannot stay in
    the docs.  Nothing is run."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(ln, comments=True)
                for ln in block.replace("\\\n", " ").splitlines() if ln.strip()]
    assert len(commands) >= 10 and all(argv[0] == "scatlin" for argv in commands)
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail("README command does not parse: %s" % " ".join(argv))
