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
for ``pathgf``.  Coefficients print as exact decimal strings because they
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
from .hilbert import hilbert_series, matrix_specs, path_gf
from .model import (
    Bivector,
    EndpointConfig,
    LadderFunction,
    endpoints_from_bivector,
    validate_general_endpoints,
    validate_ladder,
)
from .polyring import HalfPolynomial, series_expand

ORACLE_ARRAY_GUARD = 2_000_000   # candidate row pairs per matrix entry
ORACLE_FAMILY_GUARD = 10**7     # candidate path families


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
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    for key in ("a", "b", "f"):
        if key not in data:
            raise ValidationError(f"{path}: missing required key {key!r}")
    ladder = validate_ladder(int(data["a"]), int(data["b"]), list(data["f"]))
    bivector = None
    if "u" in data or "v" in data:
        if "u" not in data or "v" not in data:
            raise ValidationError(f"{path}: provide both 'u' and 'v' or neither")
        bivector = Bivector(tuple(data["u"]), tuple(data["v"]))
    starts = ends = None
    if "starts" in data or "ends" in data:
        if "starts" not in data or "ends" not in data:
            raise ValidationError(f"{path}: provide both 'starts' and 'ends' or neither")
        starts = tuple((int(p[0]), int(p[1])) for p in data["starts"])
        ends = tuple((int(p[0]), int(p[1])) for p in data["ends"])
    return ProblemInstance(ladder, bivector, starts, ends)


def _z_strings(poly: HalfPolynomial) -> list[str]:
    cs = poly.coeffs
    return [str(cs[k]) for k in range(0, len(cs), 2)]


def render_z_poly(coeffs: list[str]) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        val = int(c)
        if val == 0:
            continue
        var = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
        if not var:
            parts.append(str(val))
        elif abs(val) == 1:
            parts.append(var if val == 1 else f"-{var}")
        else:
            parts.append(f"{val}*{var}")
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")


def _require(instance: ProblemInstance, what: str):
    if what == "bivector" and instance.bivector is None:
        raise ValidationError("instance has no 'u'/'v' bivector")
    if what == "endpoints" and instance.starts is None:
        raise ValidationError("instance has no 'starts'/'ends' endpoints")


def _endpoint_config(instance: ProblemInstance) -> EndpointConfig:
    if instance.starts is not None:
        return validate_general_endpoints(
            instance.ladder, instance.starts, instance.ends
        )
    _require(instance, "bivector")
    return endpoints_from_bivector(instance.ladder, instance.bivector)


def cmd_hilbert(instance: ProblemInstance, method: str, series_terms: int) -> dict:
    _require(instance, "bivector")
    if method == "both":
        series_r = hilbert_series(instance.ladder, instance.bivector, "recursive")
        series_d = hilbert_series(instance.ladder, instance.bivector, "direct")
        _compare("hilbert numerator", series_d.numerator, series_r.numerator)
        series = series_r
    else:
        series = hilbert_series(instance.ladder, instance.bivector, method)
    payload = {
        "numerator": _z_strings(series.numerator),
        "denominator_exponent": series.denom_exponent,
        "method": method,
    }
    if series_terms > 0:
        payload["hilbert_function"] = [
            str(v) for v in series_expand(series, series_terms)
        ]
    return payload


def cmd_pathgf(instance: ProblemInstance, method: str) -> dict:
    _require(instance, "endpoints")
    if method == "both":
        gf_r = path_gf(instance.ladder, instance.starts, instance.ends, "recursive")
        gf_d = path_gf(instance.ladder, instance.starts, instance.ends, "direct")
        _compare("turn generating function", gf_d, gf_r)
        gf = gf_r
    else:
        gf = path_gf(instance.ladder, instance.starts, instance.ends, method)
    return {"turn_gf": _z_strings(gf), "method": method}


def _compare(name: str, left: HalfPolynomial, right: HalfPolynomial) -> None:
    if left == right:
        return
    top = max(left.degree, right.degree)
    for k in range(top + 1):
        if left.coefficient(k) != right.coefficient(k):
            raise MismatchFound(
                f"{name}: first differing coefficient at q^{k}: "
                f"{left.coefficient(k)} vs {right.coefficient(k)}"
            )
    raise MismatchFound(f"{name}: polynomials differ")  # pragma: no cover


def cmd_verify(instance: ProblemInstance, scope: str) -> dict:
    checks = []
    if scope in ("tagf", "all"):
        rows = matrix_specs(instance.ladder, _endpoint_config(instance))
        specs = [spec for row in rows for spec in row]
        # the oracle tries every unrestricted array: the trivial form at q = 1
        for i, spec in enumerate(specs):
            if sum(genfun.gf_trivial(spec.l, spec.start, spec.end).coeffs) > ORACLE_ARRAY_GUARD:
                raise InstanceTooLarge(
                    f"matrix entry {i}: too many candidate arrays for the oracle"
                )
        for i, spec in enumerate(specs):
            truth = oracle.enumerate_arrays(spec)
            _compare(f"entry {i} (recursive vs oracle)", genfun.gf_recursive(spec), truth)
            _compare(f"entry {i} (direct vs oracle)", genfun.gf_direct(spec), truth)
            checks.append({"check": f"tagf entry {i}", "status": "ok"})
    if scope in ("pathgf", "all"):
        cfg = _endpoint_config(instance)
        truth = oracle.enumerate_path_families(
            instance.ladder, cfg.starts, cfg.ends, max_candidates=ORACLE_FAMILY_GUARD
        )
        for method in ("recursive", "direct"):
            got = path_gf(instance.ladder, cfg.starts, cfg.ends, method)
            _compare(f"path gf ({method} vs oracle)", got, truth)
            checks.append({"check": f"pathgf {method}", "status": "ok"})
    return {"scope": scope, "checks": checks, "status": "ok"}


def cmd_bench(instance: ProblemInstance) -> dict:
    def run(method: str):
        t0 = time.perf_counter()
        if instance.bivector is not None:
            result = hilbert_series(instance.ladder, instance.bivector, method).numerator
        else:
            _require(instance, "endpoints")
            result = path_gf(instance.ladder, instance.starts, instance.ends, method)
        return time.perf_counter() - t0, result

    t_rec, out_rec = run("recursive")
    t_dir, out_dir = run("direct")
    return {
        "times_seconds": {"direct": round(t_dir, 6), "recursive": round(t_rec, 6)},
        "ratio_direct_over_recursive": round(t_dir / t_rec, 3) if t_rec > 0 else None,
        "results_match": out_rec == out_dir,
    }


def _render(payload: dict, fmt: str, command: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if command == "hilbert":
        numerator = render_z_poly(payload["numerator"])
        text = f"({numerator}) / (1 - z)^{payload['denominator_exponent']}\n"
        if "hilbert_function" in payload:
            text += "hilbert function: " + ", ".join(payload["hilbert_function"]) + "\n"
        return text
    if command == "pathgf":
        return render_z_poly(payload["turn_gf"]) + "\n"
    if command == "verify":
        lines = [f"{c['check']}: {c['status']}" for c in payload["checks"]]
        lines.append(f"verify [{payload['scope']}]: {payload['status']}")
        return "\n".join(lines) + "\n"
    times = payload["times_seconds"]
    return (
        f"recursive: {times['recursive']}s\n"
        f"direct:    {times['direct']}s\n"
        f"direct/recursive ratio: {payload['ratio_direct_over_recursive']}\n"
        f"results match: {payload['results_match']}\n"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laddergf",
        description="Exact Hilbert series of one-sided ladder determinantal rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, method=False):
        p.add_argument("--input", required=True, help="instance JSON file")
        if method:
            p.add_argument(
                "--method",
                choices=("direct", "recursive", "both"),
                default="recursive",
            )
        p.add_argument("--format", choices=("json", "pretty"), default="json")

    p_hilbert = sub.add_parser("hilbert", help="Hilbert series from a bivector")
    common(p_hilbert, method=True)
    p_hilbert.add_argument(
        "--series-terms", type=int, default=0,
        help="also print this many Hilbert function values",
    )

    p_pathgf = sub.add_parser("pathgf", help="turn generating function from endpoints")
    common(p_pathgf, method=True)

    p_verify = sub.add_parser("verify", help="cross-check methods against brute force")
    common(p_verify)
    p_verify.add_argument("--scope", choices=("tagf", "pathgf", "all"), default="all")

    p_bench = sub.add_parser("bench", help="time both methods on the instance")
    common(p_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        instance = load_instance(args.input)
        if args.command == "hilbert":
            payload = cmd_hilbert(instance, args.method, args.series_terms)
        elif args.command == "pathgf":
            payload = cmd_pathgf(instance, args.method)
        elif args.command == "verify":
            payload = cmd_verify(instance, args.scope)
        else:
            payload = cmd_bench(instance)
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
    sys.stdout.write(_render(payload, args.format, args.command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
