"""Command-line surface: machine-readable reports for every subsystem.

Every command takes `--field p^s`, prints a JSON report (or an aligned table
with `--table`) carrying the command echo, the field summary with its modulus
fingerprint, the result payload, and its timings under one "timing" key
(field_s for make_field, elapsed_s for the rest).  Exit codes: 0 success, 1 a
reproduction/math mismatch or another library error (a ClassificationGap from
`lemmas` and TooLarge for a field above 2^24 elements included), 2 usage
errors (an unknown flag, a missing required one such as `equiv --right`, or
a malformed field, element, polynomial or checkpoint file), 3 an
internal-invariant failure (a bug, never a property of the input).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .equiv import gl_equivalent, pgl_linear_sets_equivalent
from .errors import (HypothesisViolated, InternalInvariant, InvalidParameter,
                     ScatlinError, UsageError)
from .family import enumerate_h, family_poly, lemma1_checks, lemma_roots
from .geom import gamma_of, intn
from .gf import Field, make_field, parse_field_spec
from .mrd import code_from, left_idealiser_field_check, mrd_report
from .qpoly import QPoly
from .reproduce import TAGS, run_tag
from .scatter import is_scattered_dickson, is_scattered_oracle, weight_spectrum

_FAMILY_ALIASES = {
    "u1": "pseudoregulus", "u2": "lp", "u3": "csajbok_mp", "u4": "csajbok_mz",
    "pseudoregulus": "pseudoregulus", "lp": "lp", "csajbok_mp": "csajbok_mp",
    "csajbok_mz": "csajbok_mz", "new_fh": "new_fh", "case1": "case1",
    "trinomial": "trinomial",
}


def parse_poly_spec(ctx: Field, text: str) -> QPoly:
    """A polynomial spec: family grammar, adjoint(...), or JSON coeffs.

    Examples: 'case1', 'pseudoregulus', 'new_fh:h=g^13', 'u4:delta=g^455',
    'adjoint(pseudoregulus)', '{"coeffs": ["0","g^0","0","0","0","0"]}'.
    """
    text = text.strip()
    if text.startswith("adjoint(") and text.endswith(")"):
        return parse_poly_spec(ctx, text[8:-1]).adjoint()
    if text.startswith("{") or text.startswith("["):
        try:
            return QPoly.from_json(ctx, json.loads(text))
        except ValueError as exc:  # malformed JSON or element literal
            raise UsageError("bad polynomial %r: %s" % (text, exc)) from exc
    name, _, arg = text.partition(":")
    name = _FAMILY_ALIASES.get(name.lower())
    if name is None:
        raise UsageError("unknown polynomial spec %r" % text)
    param = None
    if arg:
        key, _, val = arg.partition("=")
        if key not in ("h", "delta"):
            raise UsageError("family parameter must be h=... or delta=...")
        param = _element(ctx, val)
    return family_poly(ctx, name, param)


def _element(ctx: Field, text: str):
    """ctx.element(text); a malformed literal is a usage error."""
    try:
        return ctx.element(text)
    except ValueError as exc:
        raise UsageError("bad element %r: %s" % (text, exc)) from exc


def _field_from_args(args) -> tuple[Field, float]:
    """The --field context and the seconds its make_field call took."""
    try:
        p, s = parse_field_spec(args.field)
    except ValueError as exc:
        raise UsageError("bad --field %r: %s" % (args.field, exc)) from exc
    t0 = time.perf_counter()
    ctx = make_field(p, s)
    return ctx, time.perf_counter() - t0


def _report(args, field: Field | None, payload: dict, t0: float,
            field_s: float | None = None) -> dict:
    """The report of one command.  Every timing sits under "timing":
    field_s is the make_field call and elapsed_s the rest, from t0."""
    timing = {"elapsed_s": round(time.perf_counter() - t0, 3)}
    rep = {
        "command": " ".join(args._argv),
        "version": __version__,
        "result": payload,
        "timing": timing,
    }
    if field is not None:
        rep["field"] = field.summary()
        timing["field_s"] = round(field_s, 3)
    return rep


def _emit(args, report: dict) -> None:
    if getattr(args, "table", False):
        _print_table(report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _print_table(obj, prefix: str = "") -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _print_table(obj[k], prefix + str(k) + ".")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _print_table(v, prefix + str(i) + ".")
    else:
        print("%-48s %s" % (prefix.rstrip("."), obj))


# -- subcommand handlers -------------------------------------------------------


def _cmd_check(args) -> tuple[int, dict]:
    ctx, field_s = _field_from_args(args)
    t0 = time.perf_counter()
    f = parse_poly_spec(ctx, args.poly)
    payload: dict = {"poly": f.to_json()}
    if args.method in ("oracle", "both"):
        v = is_scattered_oracle(f, exhaustive=args.exhaustive)
        payload["oracle"] = v.to_json()
        payload["spectrum"] = v.spectrum.to_json()
        if v.witness is not None:
            payload["witness"] = ctx.format(v.witness)
    if args.method in ("dickson", "both"):
        v = is_scattered_dickson(f, exhaustive=args.exhaustive)
        payload["dickson"] = v.to_json()
        if "witness" not in payload and v.witness is not None:
            payload["witness"] = ctx.format(v.witness)
    verdicts = [payload[m]["scattered"] for m in ("oracle", "dickson")
                if m in payload]
    payload["scattered"] = all(verdicts)
    if len(verdicts) == 2 and verdicts[0] != verdicts[1]:
        return 3, _report(args, ctx, payload, t0, field_s)  # decider disagreement: a bug
    return 0, _report(args, ctx, payload, t0, field_s)


def _cmd_linset(args) -> tuple[int, dict]:
    ctx, field_s = _field_from_args(args)
    t0 = time.perf_counter()
    f = parse_poly_spec(ctx, args.poly)
    sp = weight_spectrum(f)
    payload = {
        "poly": f.to_json(),
        "spectrum": sp.to_json(),
        "size": sp.size,
        "scattered": sp.scattered,
        "mass_conserved": sp.mass_ok(),
        "infinity_point_weight": sp.infinity_weight,
    }
    return 0, _report(args, ctx, payload, t0, field_s)


def _cmd_enumerate_h(args) -> tuple[int, dict]:
    ctx, field_s = _field_from_args(args)
    t0 = time.perf_counter()
    hs = enumerate_h(ctx, args.variant)
    payload = {
        "variant": args.variant or ("even" if ctx.p == 2 else "odd"),
        "count": len(hs),
        "h": [ctx.format(h) for h in hs],
    }
    return 0, _report(args, ctx, payload, t0, field_s)


def _cmd_intn(args) -> tuple[int, dict]:
    ctx, field_s = _field_from_args(args)
    t0 = time.perf_counter()
    h = _element(ctx, args.h)
    G = gamma_of(h)
    r, dims = intn(G, args.power)
    payload = {"h": ctx.format(h), "power": args.power,
               "dims_chain": dims, "intn": r}
    return 0, _report(args, ctx, payload, t0, field_s)


def _cmd_equiv(args) -> tuple[int, dict]:
    ctx, field_s = _field_from_args(args)
    t0 = time.perf_counter()
    left = parse_poly_spec(ctx, args.left)
    if args.pgl and (args.resume or args.checkpoint_out):
        raise UsageError("--resume and --checkpoint-out apply to a single "
                         "gl search, not to --pgl")
    resume = None
    if args.resume:
        try:
            with open(args.resume) as fh:
                resume = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, or not JSON
            raise UsageError("--resume %s: %s" % (args.resume, exc)) from exc
        if not isinstance(resume, dict):
            raise UsageError("--resume %s: not a checkpoint object" % args.resume)
    right = parse_poly_spec(ctx, args.right)
    if args.pgl:
        name, _, _ = args.right.partition(":")
        fam = _FAMILY_ALIASES.get(name.lower(), "")
        res = pgl_linear_sets_equivalent(left, right, fam, budget=args.budget)
        payload = {"left": left.to_json(), "right": right.to_json(),
                   "verdict": "equivalent" if res["equivalent"] else "not_equivalent",
                   "branch": res["branch"], "searched": res["searched"]}
        if res["witness"] is not None:
            payload["witness"] = res["witness"].to_json()
    else:
        try:
            res = gl_equivalent(left, right, budget=args.budget, resume=resume)
        except InvalidParameter as exc:  # only a checkpoint that does not fit
            raise UsageError("--resume %s: %s" % (args.resume, exc)) from exc
        payload = {"left": left.to_json(), "right": right.to_json()}
        payload.update(res.to_json())
        if res.status == "budget_exceeded" and args.checkpoint_out:
            with open(args.checkpoint_out, "w") as fh:
                json.dump(res.checkpoint, fh)
            payload["checkpoint_file"] = args.checkpoint_out
    return 0, _report(args, ctx, payload, t0, field_s)


def _cmd_mrd(args) -> tuple[int, dict]:
    ctx, field_s = _field_from_args(args)
    t0 = time.perf_counter()
    f = parse_poly_spec(ctx, args.poly)
    C = code_from(f)
    rep = mrd_report(C)
    payload = {
        "poly": f.to_json(),
        "min_distance": rep["min_distance"],
        "cardinality": rep["cardinality"],
        "singleton_equality": rep["singleton_equality"],
        "mrd": rep["mrd"],
        "left_idealiser_field": left_idealiser_field_check(C),
    }
    if args.full_distribution:
        payload["distribution"] = rep["distribution"].to_json()
    return 0, _report(args, ctx, payload, t0, field_s)


def _cmd_lemmas(args) -> tuple[int, dict]:
    ctx, field_s = _field_from_args(args)
    t0 = time.perf_counter()
    h = _element(ctx, args.h)
    payload: dict = {"h": ctx.format(h)}
    if args.which in ("lemma1", "all"):
        payload["lemma1"] = lemma1_checks(h)
    for name in ("lemma2", "lemma3"):
        if args.which not in (name, "all"):
            continue
        try:
            roots = lemma_roots(h, name)
            payload[name] = {"roots": [{"sigma": ctx.format(t), "class": c}
                                       for t, c in roots]}
        except HypothesisViolated as exc:  # the lemma does not apply to h
            payload[name] = {"skipped": str(exc)}
    return 0, _report(args, ctx, payload, t0, field_s)


def _cmd_reproduce(args) -> tuple[int, dict]:
    t0 = time.perf_counter()
    report = run_tag(args.tag)
    rc = 0 if report["ok"] else 1
    return rc, _report(args, None, report, t0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scatlin",
        description="Exact toolkit for scattered linearized polynomials over F_{q^6}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_common(p, field=True):
        if field:
            p.add_argument("--field", required=True, help="field spec p^s, e.g. 5^1")
        p.add_argument("--table", action="store_true", help="aligned table output")

    def add_poly(p):
        p.add_argument("--poly", required=True,
                       help="family spec (e.g. new_fh:h=g^13) or JSON coefficients")

    p = sub.add_parser("check", help="decide scatteredness")
    add_common(p)
    add_poly(p)
    p.add_argument("--method", choices=("oracle", "dickson", "both"), default="both")
    p.add_argument("--exhaustive", action="store_true",
                   help="report every witness, not just the first")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("linset", help="weight spectrum of the linear set")
    add_common(p)
    add_poly(p)
    p.set_defaults(fn=_cmd_linset)

    p = sub.add_parser("enumerate-h", help="all h with h^(q^3+1) = -1 (or 1)")
    add_common(p)
    p.add_argument("--variant", choices=("odd", "even"), default=None)
    p.set_defaults(fn=_cmd_enumerate_h)

    p = sub.add_parser("intn", help="intersection number of the projection vertex")
    add_common(p)
    p.add_argument("--h", required=True)
    p.add_argument("--power", type=int, choices=(1, 5), default=1)
    p.set_defaults(fn=_cmd_intn)

    p = sub.add_parser("equiv", help="semilinear equivalence search")
    add_common(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="max (rho, a, b) triples to try")
    p.add_argument("--resume", help="checkpoint file from a budget-exceeded run")
    p.add_argument("--checkpoint-out", help="where to write a checkpoint")
    p.add_argument("--pgl", action="store_true",
                   help="decide linear-set equivalence via the adjoint reduction")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("mrd", help="rank-metric code checks")
    add_common(p)
    add_poly(p)
    p.add_argument("--full-distribution", action="store_true")
    p.set_defaults(fn=_cmd_mrd)

    p = sub.add_parser("lemmas", help="auxiliary-lemma checks for one h")
    add_common(p)
    p.add_argument("--h", required=True)
    p.add_argument("--which", choices=("lemma1", "lemma2", "lemma3", "all"),
                   default="all")
    p.set_defaults(fn=_cmd_lemmas)

    p = sub.add_parser("reproduce", help="re-derive a known statement")
    add_common(p, field=False)
    p.add_argument("tag", choices=sorted(TAGS) + ["all"])
    p.set_defaults(fn=_cmd_reproduce)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args._argv = ["scatlin"] + argv
    try:
        rc, report = args.fn(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except ScatlinError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         indent=2))
        return 3 if isinstance(exc, InternalInvariant) else 1
    _emit(args, report)
    return rc


if __name__ == "__main__":
    sys.exit(main())
