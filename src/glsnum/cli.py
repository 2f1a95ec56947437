"""Command-line front end.

Every subcommand reads its data from files or inline JSON, runs one of the
library computations, and prints a JSON report to stdout (keys sorted, two
space indent) so runs are easy to diff and archive.  Exit codes: 0 on
success, 1 on validation problems (bad arguments, malformed files, domain
errors), 2 when the `verify` battery reports a failing check.

Input formats
-------------
* function data: CSV with header ``weight,value`` (one atom per row), or
  JSON ``{"weights": [...], "values": [...]}`` where values may be a list of
  lists for a family; inline JSON is accepted wherever a path is.
* generating functions: descriptor JSON such as
  ``{"family": "power", "params": {"m": 2}}``; see `psi_from_descriptor`.
* rate functions: ``{"family": "quadratic"}`` or
  ``{"family": "power", "params": {"m": 3}}``.
* set functions: JSON ``{"weights": [...], "gamma": [...]}`` with gamma the
  atom values of the set function.

Every computation runs with the library's own defaults (grids, caps and
tolerances), so a subcommand prints the value of the matching library call.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from glsnum.bphi import (RandomVariableSample, bphi_norm, membership_check,
                         phi_from_descriptor, psi_from_phi)
from glsnum.convex import exponent_V, h_of, young_fenchel_point
from glsnum.duality import (SetFunction, associate_bound,
                            associate_norm_oracle, setfunction_norm,
                            verify_representation)
from glsnum.glnorm import family_unit_norm_check, gls_norm
from glsnum.measure import (MeasurableFunction, _read_json, lp_norm, load_csv,
                            load_json, make_space, parse_space_dict)
from glsnum.orlicz import (DEFAULT_U_MAX, build_N, conjugate_young_point,
                           luxemburg_norm, power_young, validate_young)
from glsnum.psi import adjacent, export_psi_csv, natural_function, \
    psi_from_descriptor
from glsnum.search import BracketError
from glsnum.verify import run_verification_suite

__all__ = ["main"]


def _jsonable(obj):
    """Recursively coerce a report into plain JSON types; non-finite floats
    become the strings "inf" / "-inf" / "nan" so the output stays strict."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)


def _load_functions(source: str):
    """Load (space, [functions]) from a CSV path, JSON path, or inline JSON."""
    text = source.lstrip()
    if text.startswith("{"):
        return parse_space_dict(json.loads(source))
    path = Path(source)
    if path.suffix.lower() == ".csv":
        space, f = load_csv(path)
        return space, [f]
    return load_json(path)


def _load_one_function(source: str) -> MeasurableFunction:
    space, fs = _load_functions(source)
    if len(fs) != 1:
        raise ValueError(
            f"expected exactly one function in {source!r}, found {len(fs)}")
    return fs[0]


def _young_from(args: argparse.Namespace):
    if getattr(args, "power", None) is not None:
        if args.psi is not None:
            raise ValueError("give either --psi or --power, not both")
        return power_young(args.power)
    if args.psi is None:
        raise ValueError("one of --psi or --power is required")
    psi = psi_from_descriptor(args.psi)
    return build_N(psi)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns an exit code)
# ---------------------------------------------------------------------------


def _cmd_gnorm(args) -> int:
    f = _load_one_function(args.input)
    psi = psi_from_descriptor(args.psi)
    res = gls_norm(f, psi)
    _emit({"command": "gnorm", "psi": psi.label, "n_atoms": f.space.n_atoms,
           "result": res.to_dict()}, args.out)
    return 0


def _cmd_lp(args) -> int:
    f = _load_one_function(args.input)
    p = math.inf if args.p.lower() in ("inf", "infinity") else float(args.p)
    _emit({"command": "lp", "p": p, "value": lp_norm(f, p, f.space),
           "n_atoms": f.space.n_atoms}, args.out)
    return 0


def _cmd_natural(args) -> int:
    space, family = _load_functions(args.input)
    report = family_unit_norm_check(family, space)
    if args.csv:  # only the export needs natural_function's 4,096-node table
        export_psi_csv(natural_function(family, space), args.csv)
    _emit({"command": "natural", "n_members": len(family),
           "psi": f"natural(k={len(family)})",
           "sup_member_norm": report.sup_norm,
           "deviation_from_1": report.deviation,
           "member_norms": list(report.member_norms),
           "csv": args.csv}, args.out)
    return 0


def _cmd_adjacent(args) -> int:
    psi = psi_from_descriptor(args.psi)
    nu = adjacent(psi)
    qs = [float(q) for q in args.q]
    _emit({"command": "adjacent", "psi": psi.label,
           "support_q": [nu.q_lower, nu.q_upper],
           "values": [{"q": q, "nu": float(nu(q))} for q in qs]}, args.out)
    return 0


def _cmd_dual_bound(args) -> int:
    g = _load_one_function(args.input)
    psi = psi_from_descriptor(args.psi)
    res = associate_bound(g, psi)
    _emit({"command": "dual-bound", "psi": psi.label,
           "result": res.to_dict()}, args.out)
    return 0


def _cmd_dual_oracle(args) -> int:
    g = _load_one_function(args.input)
    psi = psi_from_descriptor(args.psi)
    bound = associate_bound(g, psi)
    report = {"command": "dual-oracle", "psi": psi.label,
              "bound": bound.to_dict()}
    if args.representation:
        # the representation check runs the oracle itself
        rep = verify_representation(g, psi, check_growth=False)
        oracle = rep.oracle
        report["setnorm"] = rep.setnorm
        report["representation_difference"] = rep.difference
    else:
        oracle = associate_norm_oracle(g, psi)
    _emit(report | {"oracle": oracle, "gap": bound.value - oracle}, args.out)
    return 0


def _cmd_setnorm(args) -> int:
    data = _read_json(args.input)
    if "weights" not in data or "gamma" not in data:
        raise ValueError("setnorm input needs 'weights' and 'gamma' fields")
    space = make_space(data["weights"])
    gamma = SetFunction(space, data["gamma"])
    psi = psi_from_descriptor(args.psi)
    value = setfunction_norm(gamma, psi)
    _emit({"command": "setnorm", "psi": psi.label, "value": value,
           "total_mass": gamma.total}, args.out)
    return 0


def _cmd_legendre(args) -> int:
    psi = psi_from_descriptor(args.psi)
    h = h_of(psi)
    report = {"command": "legendre", "psi": psi.label,
              "domain": [h.lo, h.hi], "capped": h.capped}
    if args.v:
        rows = []
        for v in args.v:
            pt = young_fenchel_point(h, float(v))
            rows.append({"v": float(v), "value": pt.value,
                         "argmax_p": pt.argmax_z, "hit_cap": pt.hit_cap})
        report["conjugate"] = rows
    if args.u:
        report["exponent"] = [
            {"u": float(u),
             "V": exponent_V(psi, float(u), h=h)}
            for u in args.u]
    if not args.v and not args.u:
        raise ValueError("give at least one --v or --u to evaluate")
    _emit(report, args.out)
    return 0


def _cmd_orlicz_build(args) -> int:
    psi = psi_from_descriptor(args.psi)
    N = build_N(psi)
    checks = validate_young(N)
    if args.csv:
        us = np.geomspace(1e-3, DEFAULT_U_MAX, 512)
        with Path(args.csv).open("w") as fh:
            fh.write("u,N\n")
            for u, val in zip(us, N(us)):
                fh.write(f"{float(u)!r},{float(val)!r}\n")
    _emit({"command": "orlicz-build", "psi": psi.label, "label": N.label,
           "branch_point": N.branch_point, "trusted_up_to": N.trusted_up_to,
           "value_at_1": float(N(1.0)), "value_at_e": float(N(math.e)),
           "validation": checks, "csv": args.csv}, args.out)
    return 0


def _cmd_orlicz_norm(args) -> int:
    f = _load_one_function(args.input)
    N = _young_from(args)
    value = luxemburg_norm(f, N)
    _emit({"command": "orlicz-norm", "young": N.label, "value": value},
          args.out)
    return 0


def _cmd_conjugate_young(args) -> int:
    N = _young_from(args)
    rows = []
    for y in args.y:
        pt = conjugate_young_point(N, float(y))
        rows.append({"y": float(y), "value": pt.value,
                     "argmax_u": pt.argmax_z, "hit_cap": pt.hit_cap})
    _emit({"command": "conjugate-young", "young": N.label, "values": rows},
          args.out)
    return 0


def _cmd_bphi_norm(args) -> int:
    space, fs = _load_functions(args.input)
    if len(fs) != 1:
        raise ValueError("bphi-norm expects exactly one value row")
    if not space.is_probability:
        raise ValueError("bphi-norm needs a probability space "
                         "(weights summing to 1)")
    values = fs[0].value_array
    if args.center:
        values = values - float(np.dot(values, space.weight_array))
    xi = RandomVariableSample(space.function(values))
    phi = phi_from_descriptor(args.phi)
    report = {"command": "bphi-norm", "phi": phi.label}
    if args.membership:
        # the membership report carries the mgf-ball norm it computed
        psi = psi_from_phi(phi)
        mem = membership_check(xi, phi, psi=psi)
        report["membership"] = mem.to_dict() | {"psi": psi.label}
        report["value"] = mem.bphi
    else:
        report["value"] = bphi_norm(xi, phi)
    _emit(report, args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_verification_suite(args.seed)
    _emit({"command": "verify"} | report, args.out)
    return 0 if report["all_passed"] else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the JSON report to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glsnum",
        description="Numerics for grand Lebesgue norms, their associate "
                    "spaces, and exponential Orlicz companions on finite "
                    "measure spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gnorm", help="grand norm of one function")
    p.add_argument("--input", required=True)
    p.add_argument("--psi", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_gnorm)

    p = sub.add_parser("lp", help="classical p-norm")
    p.add_argument("--input", required=True)
    p.add_argument("--p", required=True, help="exponent (>= 1, or 'inf')")
    _add_common(p)
    p.set_defaults(handler=_cmd_lp)

    p = sub.add_parser("natural",
                       help="natural generating function of a family")
    p.add_argument("--input", required=True,
                   help="JSON with values as a list of lists")
    p.add_argument("--csv", default=None, help="export the p,psi table here")
    _add_common(p)
    p.set_defaults(handler=_cmd_natural)

    p = sub.add_parser("adjacent", help="evaluate the adjacent function")
    p.add_argument("--psi", required=True)
    p.add_argument("--q", action="append", required=True,
                   help="conjugate exponent to evaluate at (repeatable)")
    _add_common(p)
    p.set_defaults(handler=_cmd_adjacent)

    p = sub.add_parser("dual-bound",
                       help="adjacent-function bound on the associate norm")
    p.add_argument("--input", required=True)
    p.add_argument("--psi", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_dual_bound)

    p = sub.add_parser("dual-oracle",
                       help="associate-norm oracle with the bound bracket")
    p.add_argument("--input", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--representation", action="store_true",
                   help="also compute the induced set-function norm")
    _add_common(p)
    p.set_defaults(handler=_cmd_dual_oracle)

    p = sub.add_parser("setnorm", help="norm of a finitely additive "
                                       "set function")
    p.add_argument("--input", required=True,
                   help='JSON {"weights": [...], "gamma": [...]}')
    p.add_argument("--psi", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_setnorm)

    p = sub.add_parser("legendre",
                       help="Young conjugate of p ln psi(p) and the "
                            "exponent function")
    p.add_argument("--psi", required=True)
    p.add_argument("--v", action="append", type=float, default=[],
                   help="slope to evaluate the conjugate at (repeatable)")
    p.add_argument("--u", action="append", type=float, default=[],
                   help="argument for the exponent V(u), |u| >= e "
                        "(repeatable)")
    _add_common(p)
    p.set_defaults(handler=_cmd_legendre)

    p = sub.add_parser("orlicz-build",
                       help="build and validate the exponential Young "
                            "function of psi")
    p.add_argument("--psi", required=True)
    p.add_argument("--csv", default=None, help="export a u,N table here")
    _add_common(p)
    p.set_defaults(handler=_cmd_orlicz_build)

    p = sub.add_parser("orlicz-norm", help="Luxemburg norm of a function")
    p.add_argument("--input", required=True)
    p.add_argument("--psi", default=None,
                   help="build the exponential Young function of this psi")
    p.add_argument("--power", type=float, default=None,
                   help="use N(u) = |u|^p instead of --psi")
    _add_common(p)
    p.set_defaults(handler=_cmd_orlicz_norm)

    p = sub.add_parser("conjugate-young",
                       help="conjugate Young function values")
    p.add_argument("--psi", default=None)
    p.add_argument("--power", type=float, default=None)
    p.add_argument("--y", action="append", type=float, required=True,
                   help="argument to evaluate N* at (repeatable)")
    _add_common(p)
    p.set_defaults(handler=_cmd_conjugate_young)

    p = sub.add_parser("bphi-norm",
                       help="mgf-ball norm of a centered random variable")
    p.add_argument("--input", required=True,
                   help="probability weights + values (JSON or CSV)")
    p.add_argument("--phi", required=True,
                   help="rate-function descriptor (JSON or path)")
    p.add_argument("--center", action="store_true",
                   help="subtract the mean before computing")
    p.add_argument("--membership", action="store_true",
                   help="also compare with the grand norm under the "
                        "companion generating function")
    _add_common(p)
    p.set_defaults(handler=_cmd_bphi_norm)

    p = sub.add_parser("verify",
                       help="run the seeded self-verification battery")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built on first use and reused: parse_args keeps
    no state between calls (the append defaults are copied, not extended)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, BracketError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
