"""Command-line surface: machine-readable reports for every subsystem.

Every command but `reproduce` takes `--field p^s`.  `main` builds that field,
calls the command's handler with (args, ctx), and prints one JSON report (or
an aligned table with `--table`) carrying the command echo, the field summary
with its modulus fingerprint, the handler's result payload, and its timings
under one "timing" key (field_s for make_field, elapsed_s for the handler).
Polynomials come from `--poly` (and `--left`/`--right`), in the grammar of
parse_poly_spec.  Exit codes: 0 success, 1 a reproduction/math mismatch or
another library error (a ClassificationGap from `lemmas`, a DegenerateInput
from `intn` or `mrd` and TooLarge for a field above 2^24 elements included),
2 usage errors (an unknown flag, a missing required one such as `equiv
--right`, or a malformed field, element or polynomial), 3 an
internal-invariant failure (a bug, never a property of the input, such as
the two scatteredness deciders disagreeing).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .equiv import gl_equivalent, pgl_linear_sets_equivalent
from .errors import (HypothesisViolated, InternalInvariant, ScatlinError,
                     UsageError)
from .family import (FAMILY_PARAMS, enumerate_h, family_poly, lemma1_checks,
                     lemma_roots)
from .geom import intn, vertex
from .gf import Field, make_field, parse_field_spec
from .mrd import code_from, mrd_report
from .qpoly import QPoly
from .reproduce import TAGS, run_tag
from .scatter import is_scattered, weight_spectrum

_FAMILY_ALIASES = {"u1": "pseudoregulus", "u2": "lp", "u3": "csajbok_mp", "u4": "csajbok_mz",
                   **{tag: tag for tag in FAMILY_PARAMS}}


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
    key, _, val = arg.partition("=")
    want = FAMILY_PARAMS[name]
    if key != (want or ""):
        raise UsageError("family %s takes %s" % (name, want + "=..." if want else "no parameter"))
    return family_poly(ctx, name, _element(ctx, val) if want else None)


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


# -- subcommand handlers: (args, ctx) -> result payload -----------------------


def _cmd_check(args, ctx: Field) -> dict:
    f = parse_poly_spec(ctx, args.poly)
    v = is_scattered(f)
    oracle = v["oracle"]
    payload = {"poly": f.to_json(), "oracle": oracle.to_json(),
               "spectrum": oracle.spectrum.to_json(),
               "dickson": v["dickson"].to_json(), "scattered": oracle.scattered}
    if oracle.witness is not None:
        payload["witness"] = ctx.format(oracle.witness)
    if not args.exhaustive:  # the lists are an output choice only
        for name in ("oracle", "dickson"):
            del payload[name]["witnesses"]
    return payload


def _cmd_linset(args, ctx: Field) -> dict:
    f = parse_poly_spec(ctx, args.poly)
    sp = weight_spectrum(f)
    return {
        "poly": f.to_json(),
        "spectrum": sp.to_json(),
        "size": sp.size,
        "scattered": sp.scattered,
        "mass_conserved": sp.mass_ok(),
        "infinity_point_weight": sp.infinity_weight,
    }


def _cmd_enumerate_h(args, ctx: Field) -> dict:
    hs = enumerate_h(ctx)
    return {
        "variant": "even" if ctx.p == 2 else "odd",
        "count": len(hs),
        "h": [ctx.format(h) for h in hs],
    }


def _cmd_intn(args, ctx: Field) -> dict:
    f = parse_poly_spec(ctx, args.poly)
    r, dims = intn(vertex(f), args.power)
    return {"poly": f.to_json(), "power": args.power, "dims_chain": dims, "intn": r}


def _cmd_equiv(args, ctx: Field) -> dict:
    left = parse_poly_spec(ctx, args.left)
    right = parse_poly_spec(ctx, args.right)
    payload = {"left": left.to_json(), "right": right.to_json()}
    if args.pgl:
        res = pgl_linear_sets_equivalent(left, right, right.tag)
        payload.update(verdict="equivalent" if res["equivalent"] else "not_equivalent",
                       branch=res["branch"], searched=res["searched"])
        if res["witness"] is not None:
            payload["witness"] = res["witness"].to_json()
        return payload
    payload.update(gl_equivalent(left, right).to_json())
    return payload


def _cmd_mrd(args, ctx: Field) -> dict:
    f = parse_poly_spec(ctx, args.poly)
    rep = mrd_report(code_from(f))
    dist = rep.pop("distribution")
    if args.full_distribution:
        rep["distribution"] = dist.to_json()
    return {"poly": f.to_json(), **rep}


def _cmd_lemmas(args, ctx: Field) -> dict:
    h = _element(ctx, args.h)
    payload = {"h": ctx.format(h), "lemma1": lemma1_checks(h)}
    for name in ("lemma2", "lemma3"):
        try:
            roots = lemma_roots(h, name)
            payload[name] = {"roots": [{"sigma": ctx.format(t), "class": c}
                                       for t, c in roots]}
        except HypothesisViolated as exc:  # the lemma does not apply to h
            payload[name] = {"skipped": str(exc)}
    return payload


def _cmd_reproduce(args, ctx) -> dict:
    return run_tag(args.tag)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scatlin",
        description="Exact toolkit for scattered linearized polynomials over F_{q^6}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, fn, help, field=True, poly=False):
        # no flag abbreviations, so a deleted flag such as intn's old --h is
        # unknown instead of a prefix of --help
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if field:
            p.add_argument("--field", required=True, help="field spec p^s, e.g. 5^1")
        p.add_argument("--table", action="store_true", help="aligned table output")
        if poly:
            p.add_argument("--poly", required=True,
                           help="family spec (e.g. new_fh:h=g^13) or JSON coefficients")
        p.set_defaults(fn=fn)
        return p

    p = command("check", _cmd_check, "decide scatteredness", poly=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="report every witness, not just the first")

    command("linset", _cmd_linset, "weight spectrum of the linear set", poly=True)

    command("enumerate-h", _cmd_enumerate_h, "all h with h^(q^3+1) = -1")

    p = command("intn", _cmd_intn, "intersection number of the projection vertex",
                poly=True)
    p.add_argument("--power", type=int, choices=(1, 5), default=1)

    p = command("equiv", _cmd_equiv, "semilinear equivalence search")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--pgl", action="store_true",
                   help="decide linear-set equivalence via the adjoint reduction")

    p = command("mrd", _cmd_mrd, "rank-metric code checks", poly=True)
    p.add_argument("--full-distribution", action="store_true")

    p = command("lemmas", _cmd_lemmas, "auxiliary-lemma checks for one h")
    p.add_argument("--h", required=True)

    p = command("reproduce", _cmd_reproduce, "re-derive a known statement", field=False)
    p.add_argument("tag", choices=sorted(TAGS) + ["all"])

    return ap


def main(argv=None) -> int:
    """Run one command and print its report.  Every timing sits under
    "timing": field_s is the make_field call and elapsed_s the handler."""
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        ctx, field_s = _field_from_args(args) if "field" in args else (None, None)
        t0 = time.perf_counter()
        payload = args.fn(args, ctx)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except ScatlinError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         indent=2))
        return 3 if isinstance(exc, InternalInvariant) else 1
    report = {"command": " ".join(["scatlin"] + argv), "version": __version__,
              "result": payload,
              "timing": {"elapsed_s": round(time.perf_counter() - t0, 3)}}
    if ctx is not None:
        report["field"] = ctx.summary()
        report["timing"]["field_s"] = round(field_s, 3)
    _emit(args, report)
    return 0 if payload.get("ok", True) else 1  # a reproduce mismatch exits 1


if __name__ == "__main__":
    sys.exit(main())
