"""The command-line driver: formats, exit codes, determinism."""

import json

import pytest

import laddergf.cli
import laddergf.genfun
import laddergf.oracle
from laddergf import HalfPolynomial, HilbertSeries, LadderError
from laddergf.cli import main, render_z_poly
from helpers import FLAGSHIP_F, FLAGSHIP_NUMERATOR, FLAGSHIP_U, FLAGSHIP_V


def write_instance(tmp_path, name="instance.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


@pytest.fixture
def hypersurface(tmp_path):
    return write_instance(tmp_path, a=1, b=1, f=[2, 2], u=[1], v=[1])


@pytest.fixture
def small_instance(tmp_path):
    return write_instance(
        tmp_path, a=3, b=3, f=[2, 3, 4, 4], u=[1, 2], v=[1, 2],
        starts=[[0, 0]], ends=[[2, 3]],
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_json(capsys, hypersurface):
    code, out, err = run(capsys, ["hilbert", "--input", hypersurface, "--series-terms", "6"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["numerator"] == ["1", "1"]
    assert payload["denominator_exponent"] == 3
    assert payload["hilbert_function"] == ["1", "4", "9", "16", "25", "36"]


def test_hilbert_pretty(capsys, hypersurface):
    code, out, _ = run(capsys, ["hilbert", "--input", hypersurface, "--format", "pretty"])
    assert code == 0
    assert out.splitlines()[0] == "(1 + z) / (1 - z)^3"
    code, out, _ = run(capsys, ["hilbert", "--input", hypersurface, "--format", "pretty",
                                "--series-terms", "4"])
    assert code == 0
    assert out.splitlines() == ["(1 + z) / (1 - z)^3", "hilbert function: 1, 4, 9, 16"]


@pytest.mark.parametrize("command, last_line", [
    ("verify", "verify [all]: ok"),
    ("bench", "results match: True"),
])
def test_pretty_verify_and_bench(capsys, small_instance, command, last_line):
    code, out, err = run(capsys, [command, "--input", small_instance, "--format", "pretty"])
    assert code == 0, err
    assert out.endswith("\n") and out.splitlines()[-1] == last_line


def test_hilbert_flagship(capsys, tmp_path):
    path = write_instance(tmp_path, a=13, b=15, f=FLAGSHIP_F,
                          u=list(FLAGSHIP_U), v=list(FLAGSHIP_V))
    code, out, err = run(capsys, ["hilbert", "--input", path])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["numerator"] == [str(c) for c in FLAGSHIP_NUMERATOR]
    assert payload["denominator_exponent"] == 99


def test_hilbert_both_methods(capsys, hypersurface):
    code, out, _ = run(capsys, ["hilbert", "--input", hypersurface, "--method", "both"])
    assert code == 0
    assert json.loads(out)["numerator"] == ["1", "1"]


def test_malformed_boundary_exits_2(capsys, tmp_path):
    path = write_instance(tmp_path, a=1, b=1, f=[2, 1], u=[1], v=[1])
    code, _, err = run(capsys, ["hilbert", "--input", path])
    assert code == 2
    assert "NotWeaklyIncreasing" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["hilbert", "--input", str(tmp_path / "nope.json")])
    assert code == 2


def test_pathgf_trivial(capsys, tmp_path):
    path = write_instance(tmp_path, a=1, b=1, f=[2, 2],
                          starts=[[0, 0]], ends=[[1, 1]])
    code, out, _ = run(capsys, ["pathgf", "--input", path, "--format", "pretty"])
    assert code == 0
    assert out == "1 + z\n"
    code, out, _ = run(capsys, ["pathgf", "--input", path])
    assert json.loads(out)["turn_gf"] == ["1", "1"]


def test_pathgf_chain_violation_exits_2(capsys, tmp_path):
    path = write_instance(tmp_path, a=3, b=3, f=[4, 4, 4, 4],
                          starts=[[0, 2], [1, 2]], ends=[[1, 3], [2, 2]])
    code, _, err = run(capsys, ["pathgf", "--input", path])
    assert code == 2
    assert "ChainViolation" in err


def test_pathgf_without_endpoints_exits_2(capsys, hypersurface):
    code, _, err = run(capsys, ["pathgf", "--input", hypersurface])
    assert code == 2


@pytest.mark.parametrize("command, instance, message", [
    ("hilbert", {"a": 1, "b": 1, "u": [1], "v": [1]}, "missing required key 'f'"),
    ("hilbert", {"a": 1, "b": 1, "f": [2, 2], "u": [1]}, "provide both 'u' and 'v'"),
    ("hilbert", {"a": 1, "b": 1, "f": [2, 2], "starts": [[0, 0]], "ends": [[1, 1]]},
     "no 'u'/'v' bivector"),
    ("verify", {"a": 1, "b": 1, "f": [2, 2]}, "neither 'starts'/'ends' nor 'u'/'v'"),
    ("bench", {"a": 1, "b": 1, "f": [2, 2]}, "neither 'starts'/'ends' nor 'u'/'v'"),
], ids=["missing-key", "u-without-v", "hilbert-without-minor", "verify-without-either",
        "bench-without-either"])
def test_incomplete_instance_exits_2(capsys, tmp_path, command, instance, message):
    code, _, err = run(capsys, [command, "--input", write_instance(tmp_path, **instance)])
    assert code == 2
    assert "validation error" in err and message in err


def test_verify_small_instance(capsys, small_instance):
    code, out, err = run(capsys, ["verify", "--input", small_instance, "--scope", "all"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert any(c["check"].startswith("tagf") for c in payload["checks"])
    assert any(c["check"].startswith("pathgf") for c in payload["checks"])


def test_verify_detects_corruption(capsys, small_instance, monkeypatch):
    real = laddergf.genfun.gf_recursive

    def corrupted(spec):
        return real(spec) + HalfPolynomial.monomial(2, 1)

    monkeypatch.setattr(laddergf.genfun, "gf_recursive", corrupted)
    code, _, err = run(capsys, ["verify", "--input", small_instance, "--scope", "tagf"])
    assert code == 3
    assert "differing coefficient" in err


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_method_rejected_where_both_engines_run(capsys, small_instance, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", small_instance, "--method", "direct"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method direct" in capsys.readouterr().err


def test_verify_guard_exits_4(capsys, tmp_path):
    path = write_instance(tmp_path, a=13, b=15, f=FLAGSHIP_F,
                          u=list(FLAGSHIP_U), v=list(FLAGSHIP_V))
    code, _, err = run(capsys, ["verify", "--input", path, "--scope", "tagf"])
    assert code == 4
    assert "guard" in err


def test_verify_guard_precedes_enumeration(capsys, tmp_path, monkeypatch):
    """The flagship's entry 6 trips the guard, so no entry is enumerated:
    every entry's candidate count is checked before the oracle runs."""

    def unavailable(spec):
        raise RuntimeError("the oracle ran before the guard was checked")

    monkeypatch.setattr(laddergf.oracle, "enumerate_arrays", unavailable)
    path = write_instance(tmp_path, a=13, b=15, f=FLAGSHIP_F,
                          u=list(FLAGSHIP_U), v=list(FLAGSHIP_V))
    code, _, err = run(capsys, ["verify", "--input", path, "--scope", "tagf"])
    assert code == 4
    assert "guard" in err


def test_verify_path_guard_exits_4(capsys, tmp_path, monkeypatch):
    """One path across a 13 x 13 box has 2.7 million candidates; verify
    refuses it with exit 4 before the oracle builds any path."""

    def unavailable(A, E):
        raise RuntimeError("paths were enumerated before the guard was checked")

    monkeypatch.setattr(laddergf.oracle, "_paths_between", unavailable)
    path = write_instance(tmp_path, a=12, b=12, f=[13] * 13,
                          starts=[[0, 0]], ends=[[12, 12]])
    code, _, err = run(capsys, ["verify", "--input", path, "--scope", "pathgf"])
    assert code == 4
    assert "guard" in err


def test_pathgf_matches_hilbert_numerator(capsys, tmp_path):
    # the minor's own path endpoints must reproduce the series numerator
    hilbert_path = write_instance(tmp_path, "h.json", a=13, b=15, f=FLAGSHIP_F,
                                  u=list(FLAGSHIP_U), v=list(FLAGSHIP_V))
    pathgf_path = write_instance(
        tmp_path, "p.json", a=13, b=15, f=FLAGSHIP_F,
        starts=[[0, 5], [0, 3], [0, 1], [0, 0]],
        ends=[[8, 15], [11, 15], [12, 15], [13, 15]],
    )
    _, h_out, _ = run(capsys, ["hilbert", "--input", hilbert_path])
    code, p_out, err = run(capsys, ["pathgf", "--input", pathgf_path])
    assert code == 0, err
    assert json.loads(p_out)["turn_gf"] == json.loads(h_out)["numerator"]


def test_verify_single_path_subinstance(capsys, tmp_path):
    path = write_instance(tmp_path, a=13, b=15, f=FLAGSHIP_F,
                          starts=[[0, 5]], ends=[[8, 15]])
    code, out, err = run(capsys, ["verify", "--input", path, "--scope", "all"])
    assert code == 0, err
    assert json.loads(out)["status"] == "ok"


def test_bench_staircase_reports(capsys, tmp_path):
    path = write_instance(tmp_path, a=4, b=4, f=[1, 2, 3, 4, 5], u=[1], v=[1])
    code, out, _ = run(capsys, ["bench", "--input", path])
    assert code == 0
    assert json.loads(out)["results_match"] is True


def test_bench_runs(capsys, hypersurface):
    code, out, _ = run(capsys, ["bench", "--input", hypersurface])
    assert code == 0
    payload = json.loads(out)
    assert payload["results_match"] is True
    assert set(payload["times_seconds"]) == {"direct", "recursive"}


def test_output_deterministic_and_round_trips(capsys, hypersurface):
    _, first, _ = run(capsys, ["hilbert", "--input", hypersurface, "--series-terms", "3"])
    _, second, _ = run(capsys, ["hilbert", "--input", hypersurface, "--series-terms", "3"])
    assert first == second
    assert json.dumps(json.loads(first), indent=2) + "\n" == first


def test_render_z_poly():
    assert render_z_poly(["1", "1"]) == "1 + z"
    assert render_z_poly(["0"]) == "0"
    assert render_z_poly(["2", "0", "7"]) == "2 + 7*z^2"
    assert render_z_poly(["1", "-1", "1"]) == "1 - z + z^2"


@pytest.mark.parametrize("fields", [
    {"a": "x"},
    {"a": 1.7},
    {"b": True},
    {"f": 5},
    {"f": [2.0, 2]},
    {"u": ["1"]},
    {"starts": [[0]], "ends": [[1, 1]]},
    {"starts": [[0, 0]], "ends": [[1, "1"]]},
], ids=str)
def test_malformed_field_exits_2(capsys, tmp_path, fields):
    instance = {"a": 1, "b": 1, "f": [2, 2], "u": [1], "v": [1], **fields}
    command = "pathgf" if "starts" in fields else "hilbert"
    code, _, err = run(capsys, [command, "--input", write_instance(tmp_path, **instance)])
    assert code == 2
    assert "validation error" in err
    assert "Traceback" not in err


def test_hilbert_rejects_malformed_endpoints(capsys, tmp_path):
    """Endpoints are checked at load time, even by a command that uses the
    minor instead."""
    path = write_instance(tmp_path, a=1, b=1, f=[2, 2], u=[1], v=[1],
                          starts=[[0, 0.5]], ends=[[1, 1]])
    code, _, err = run(capsys, ["hilbert", "--input", path])
    assert code == 2
    assert "validation error" in err
    assert "Traceback" not in err


def test_instance_not_an_object_exits_2(capsys, tmp_path):
    path = tmp_path / "string.json"
    path.write_text('"a b f"')
    code, _, err = run(capsys, ["hilbert", "--input", str(path)])
    assert code == 2
    assert "validation error" in err


def test_instance_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b'\xff\xfe{"a":1}')
    code, _, err = run(capsys, ["hilbert", "--input", str(path)])
    assert code == 2
    assert "validation error" in err
    assert "Traceback" not in err


def test_negative_series_terms_rejected(capsys, hypersurface):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--input", hypersurface, "--series-terms", "-3"])
    assert exc.value.code == 2
    assert "--series-terms" in capsys.readouterr().err


def _skew_direct(monkeypatch, name):
    """Make the CLI's ``name`` answer the direct engine with one extra q^2."""
    real = getattr(laddergf.cli, name)
    bump = HalfPolynomial.monomial(2)

    def skewed(*args):
        result = real(*args)
        if args[-1] != "direct":
            return result
        if isinstance(result, HilbertSeries):
            return HilbertSeries(result.numerator + bump, result.denom_exponent)
        return result + bump

    monkeypatch.setattr(laddergf.cli, name, skewed)


@pytest.mark.parametrize("command, name", [("hilbert", "hilbert_series"),
                                           ("pathgf", "path_gf")])
def test_both_methods_disagreeing_exit_3(capsys, small_instance, monkeypatch, command, name):
    _skew_direct(monkeypatch, name)
    code, _, err = run(capsys, [command, "--input", small_instance, "--method", "both"])
    assert code == 3
    assert "differing coefficient" in err


def test_bench_reports_disagreement(capsys, small_instance, monkeypatch):
    _skew_direct(monkeypatch, "path_gf")
    code, out, _ = run(capsys, ["bench", "--input", small_instance])
    assert code == 0
    assert json.loads(out)["results_match"] is False


def test_bench_times_explicit_endpoints(capsys, small_instance, monkeypatch):
    """With both a minor and explicit endpoints, bench times the endpoints'
    turn generating function, as verify checks it; no Hilbert series runs."""

    def unavailable(*args):
        raise RuntimeError("bench computed a Hilbert series")

    monkeypatch.setattr(laddergf.cli, "hilbert_series", unavailable)
    code, out, err = run(capsys, ["bench", "--input", small_instance])
    assert code == 0, err
    assert json.loads(out)["results_match"] is True


def test_untyped_library_error_exits_1(capsys, hypersurface, monkeypatch):
    """A LadderError that is no validation, mismatch or guard error is a bug
    in the library, reported as an internal error."""

    def broken(*args):
        raise LadderError("an invariant broke")

    monkeypatch.setattr(laddergf.cli, "hilbert_series", broken)
    code, out, err = run(capsys, ["hilbert", "--input", hypersurface])
    assert code == 1 and out == ""
    assert "internal error: an invariant broke" in err
