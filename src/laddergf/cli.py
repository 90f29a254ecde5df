"""Command-line driver: load a problem instance, compute, verify, benchmark.

An instance file is a single JSON document:

    {
      "a": 13, "b": 15,
      "f": [7, 7, 7, 7, 10, 11, 12, 13, 16, 16, 16, 16, 16, 16],
      "u": [1, 2, 4, 6], "v": [1, 2, 3, 6],
      "starts": [[0, 6]], "ends": [[7, 15]]
    }

"f" has a+1 weakly increasing values; "u"/"v" give the cogenerating minor
for the ``hilbert`` subcommand; "starts"/"ends" give explicit path endpoints
for ``pathgf``.  ``verify`` and ``bench`` take the explicit endpoints, else
the minor's; ``bench`` times both engines on that turn generating function.
The loader checks only the JSON shape: an object with the required keys,
lists where lists belong, and both or neither of each pair.  The library
checks the numbers, so an instance file obeys the same integer rule as a
library call.  Coefficients print as exact decimal strings because they
routinely exceed 64-bit range.

Exit codes: 0 success, 2 validation error, 3 verification mismatch,
4 resource guard tripped.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import genfun, oracle
from .errors import (
    CapExceeded,
    InstanceTooLarge,
    LadderError,
    MismatchFound,
    ValidationError,
)
from .hilbert import METHODS, hilbert_series, matrix_specs, path_gf
from .model import (
    Bivector,
    EndpointConfig,
    LadderFunction,
    as_point,
    endpoints_from_bivector,
    validate_general_endpoints,
    validate_ladder,
)
from .polyring import HalfPolynomial, HilbertSeries, _format_poly, series_expand


@dataclass(frozen=True)
class ProblemInstance:
    ladder: LadderFunction
    bivector: Bivector | None
    starts: tuple | None
    ends: tuple | None


def load_instance(path: str) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: not a JSON object")
    for key in ("a", "b", "f"):
        if key not in data:
            raise ValidationError(f"{path}: missing required key {key!r}")
    for key in ("f", "u", "v", "starts", "ends"):
        if key in data and not isinstance(data[key], list):
            raise ValidationError(f"{path}: {key!r} must be a list")
    for one, other in (("u", "v"), ("starts", "ends")):
        if (one in data) != (other in data):
            raise ValidationError(f"{path}: provide both {one!r} and {other!r} or neither")
    ladder = validate_ladder(data["a"], data["b"], data["f"])
    bivector = Bivector(tuple(data["u"]), tuple(data["v"])) if "u" in data else None
    starts, ends = (tuple(map(as_point, data[key])) if key in data else None
                    for key in ("starts", "ends"))
    return ProblemInstance(ladder, bivector, starts, ends)


def _z_strings(poly: HalfPolynomial) -> list[str]:
    return [str(c) for c in poly.coeffs[::2]]


def render_z_poly(coeffs: list[str]) -> str:
    return _format_poly([int(c) for c in coeffs], "z")


def _endpoint_config(instance: ProblemInstance) -> EndpointConfig:
    """The instance's path endpoints: explicit ``starts``/``ends``, else the
    minor's."""
    if instance.starts is not None:
        return validate_general_endpoints(
            instance.ladder, instance.starts, instance.ends
        )
    if instance.bivector is None:
        raise ValidationError("instance has neither 'starts'/'ends' nor 'u'/'v'")
    return endpoints_from_bivector(instance.ladder, instance.bivector)


def _difference(left: HalfPolynomial, right: HalfPolynomial) -> str | None:
    """Where two polynomials first differ, or None if they are equal."""
    for k in range(max(left.degree, right.degree) + 1):
        if left.coefficient(k) != right.coefficient(k):
            return (f"first differing coefficient at q^{k}: "
                    f"{left.coefficient(k)} vs {right.coefficient(k)}")
    return None


def _require_equal(name: str, difference: str | None) -> None:
    if difference is not None:
        raise MismatchFound(f"{name}: {difference}")


def _run_engines(methods, compute) -> tuple[object, dict[str, float], str | None]:
    """Run ``compute(method)`` for each method in turn, timed: the first
    result, the seconds per method, and ``_difference`` of the first and
    last results (a HilbertSeries compared by its numerator)."""
    results, seconds = [], {}
    for method in methods:
        t0 = time.perf_counter()
        results.append(compute(method))
        seconds[method] = time.perf_counter() - t0
    first, last = (r.numerator if isinstance(r, HilbertSeries) else r
                   for r in (results[0], results[-1]))
    return results[0], seconds, _difference(first, last)


def _answer(name: str, method: str, compute):
    """The chosen engine's result; with ``both``, the recursive engine's once
    the direct one agrees with it."""
    result, _, difference = _run_engines(
        METHODS if method == "both" else (method,), compute)
    _require_equal(name, difference)
    return result


def cmd_hilbert(instance: ProblemInstance, args) -> dict:
    if instance.bivector is None:
        raise ValidationError("instance has no 'u'/'v' bivector")
    series = _answer("hilbert numerator", args.method,
                     lambda m: hilbert_series(instance.ladder, instance.bivector, m))
    payload = {
        "numerator": _z_strings(series.numerator),
        "denominator_exponent": series.denom_exponent,
        "method": args.method,
    }
    if args.series_terms:
        payload["hilbert_function"] = [
            str(v) for v in series_expand(series, args.series_terms)
        ]
    return payload


def cmd_pathgf(instance: ProblemInstance, args) -> dict:
    if instance.starts is None:
        raise ValidationError("instance has no 'starts'/'ends' endpoints")
    gf = _answer("turn generating function", args.method,
                 lambda m: path_gf(instance.ladder, instance.starts, instance.ends, m))
    return {"turn_gf": _z_strings(gf), "method": args.method}


def cmd_verify(instance: ProblemInstance, args) -> dict:
    checks = []
    cfg = _endpoint_config(instance)
    if args.scope in ("tagf", "all"):
        specs = [spec for row in matrix_specs(instance.ladder, cfg) for spec in row]
        for i, spec in enumerate(specs):
            if oracle.array_candidates(spec) > oracle.ORACLE_ARRAY_GUARD:
                raise InstanceTooLarge(
                    f"matrix entry {i}: too many candidate arrays for the oracle"
                )
        for i, spec in enumerate(specs):
            truth = oracle.enumerate_arrays(spec)
            for method, gf in (("recursive", genfun.gf_recursive), ("direct", genfun.gf_direct)):
                _require_equal(f"entry {i} ({method} vs oracle)", _difference(gf(spec), truth))
            checks.append({"check": f"tagf entry {i}", "status": "ok"})
    if args.scope in ("pathgf", "all"):
        truth = oracle.enumerate_path_families(instance.ladder, cfg.starts, cfg.ends)
        for method in METHODS:
            got = path_gf(instance.ladder, cfg.starts, cfg.ends, method)
            _require_equal(f"path gf ({method} vs oracle)", _difference(got, truth))
            checks.append({"check": f"pathgf {method}", "status": "ok"})
    return {"scope": args.scope, "checks": checks, "status": "ok"}


def cmd_bench(instance: ProblemInstance, args) -> dict:
    cfg = _endpoint_config(instance)
    _, seconds, difference = _run_engines(
        METHODS, lambda m: path_gf(instance.ladder, cfg.starts, cfg.ends, m))
    t_rec, t_dir = seconds["recursive"], seconds["direct"]
    return {
        "times_seconds": {"direct": round(t_dir, 6), "recursive": round(t_rec, 6)},
        "ratio_direct_over_recursive": round(t_dir / t_rec, 3) if t_rec > 0 else None,
        "results_match": difference is None,
    }


def _pretty_hilbert(payload: dict) -> str:
    numerator = render_z_poly(payload["numerator"])
    text = f"({numerator}) / (1 - z)^{payload['denominator_exponent']}\n"
    if "hilbert_function" in payload:
        text += "hilbert function: " + ", ".join(payload["hilbert_function"]) + "\n"
    return text


def _pretty_verify(payload: dict) -> str:
    lines = [f"{c['check']}: {c['status']}" for c in payload["checks"]]
    lines.append(f"verify [{payload['scope']}]: {payload['status']}")
    return "\n".join(lines) + "\n"


def _pretty_bench(payload: dict) -> str:
    times = payload["times_seconds"]
    return (
        f"recursive: {times['recursive']}s\n"
        f"direct:    {times['direct']}s\n"
        f"direct/recursive ratio: {payload['ratio_direct_over_recursive']}\n"
        f"results match: {payload['results_match']}\n"
    )


def _nonnegative_int(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    """The parser.  Each subcommand's defaults hold its handler ``run``,
    called with the instance and the arguments, and its ``pretty`` renderer."""
    parser = argparse.ArgumentParser(
        prog="laddergf",
        description="Exact Hilbert series of one-sided ladder determinantal rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, pretty, method=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--input", required=True, help="instance JSON file")
        if method:
            p.add_argument("--method", choices=(*METHODS, "both"), default="recursive")
        p.add_argument("--format", choices=("json", "pretty"), default="json")
        p.set_defaults(run=run, pretty=pretty)
        return p

    command("hilbert", "Hilbert series from a bivector", cmd_hilbert, _pretty_hilbert,
            method=True).add_argument("--series-terms", type=_nonnegative_int, default=0,
                                      help="also print this many Hilbert function values")
    command("pathgf", "turn generating function from endpoints", cmd_pathgf,
            lambda payload: render_z_poly(payload["turn_gf"]) + "\n", method=True)
    command("verify", "cross-check methods against brute force", cmd_verify,
            _pretty_verify).add_argument("--scope", choices=("tagf", "pathgf", "all"),
                                         default="all")
    command("bench", "time both methods on the instance's endpoints", cmd_bench,
            _pretty_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.run(load_instance(args.input), args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MismatchFound as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 3
    except (CapExceeded, InstanceTooLarge) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4
    except LadderError as exc:  # anything else from the library is a bug
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(payload, indent=2) + "\n" if args.format == "json" else args.pretty(payload)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
