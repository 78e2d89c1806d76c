import csv
import io
import json
import math
import re

import numpy as np
import pytest

import numrad.cli as cli
import numrad.fuzzing as fuzz_mod
from numrad import Timeout, render_matrix
from numrad.worked_examples import LOWER_TRIANGULAR_2 as T2, SHIFT_3 as T3


@pytest.fixture
def t2_file(tmp_path):
    path = tmp_path / "t2.json"
    path.write_text(render_matrix(T2, "json"))
    return str(path)


@pytest.fixture
def t3_file(tmp_path):
    path = tmp_path / "t3.txt"
    path.write_text(render_matrix(T3, "text"))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRadius:
    def test_json_output(self, capsys, t2_file):
        code, out, _ = run_cli(capsys, "radius", t2_file, "--tol", "1e-9")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == pytest.approx(1.5, abs=1e-9)
        assert payload["upper"] - payload["lower"] <= 1e-9
        assert len(payload["witness"]) == 2

    def test_deterministic_bytes(self, capsys, t3_file):
        _, first, _ = run_cli(capsys, "radius", t3_file)
        _, second, _ = run_cli(capsys, "radius", t3_file)
        assert first == second


class TestReport:
    def test_csv_columns(self, capsys, t3_file):
        code, out, _ = run_cli(capsys, "report", t3_file, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "bound_id",
            "kind",
            "value_on_w_scale",
            "alpha_at",
            "r_at",
            "slack_vs_w_lower",
        ]
        assert len(rows) == 17  # header + 16 bounds
        by_id = {r[0]: r for r in rows[1:]}
        assert float(by_id["KITTANEH_MODULI"][2]) == pytest.approx(1.5, abs=1e-9)
        assert by_id["KITTANEH_MODULI"][3] == ""  # no alpha marker
        assert float(by_id["TH1"][4]) == 0.5
        assert float(by_id["LOW1"][5]) == pytest.approx(0.0, abs=1e-7)

    def test_json_output(self, capsys, t3_file):
        code, out, _ = run_cli(capsys, "report", t3_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["tightest_upper"] == "COR1_GAMMA"
        assert payload["w_lower"] == pytest.approx(math.sqrt(5) / 2, abs=1e-8)
        assert len(payload["entries"]) == 16

    def test_table_output(self, capsys, t3_file):
        code, out, _ = run_cli(capsys, "report", t3_file)
        assert code == 0
        assert "COR1_GAMMA" in out and "tightest upper" in out

    def test_deterministic_bytes(self, capsys, t3_file):
        _, first, _ = run_cli(capsys, "report", t3_file, "--format", "csv")
        _, second, _ = run_cli(capsys, "report", t3_file, "--format", "csv")
        assert first == second


class TestAlphaNormAndAbnormal:
    def test_alpha_norm(self, capsys, t2_file):
        code, out, _ = run_cli(
            capsys, "alpha-norm", t2_file, "--alpha", "1.0", "--restarts", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["best_value"] == pytest.approx(1.5, abs=1e-6)
        assert payload["best_value"] <= payload["upper_cert"] + 1e-9

    def test_abnormal(self, capsys, t2_file):
        code, out, _ = run_cli(capsys, "abnormal", t2_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_ab_normal"] is True
        assert payload["alpha_best"] ** 2 == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-9)

    def test_abnormal_infinite_beta_rendered_null(self, capsys, t3_file):
        code, out, _ = run_cli(capsys, "abnormal", t3_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_ab_normal"] is False
        assert payload["beta_best"] is None


class TestFuzzCommand:
    def test_clean_run_exits_zero(self, capsys):
        code, out, err = run_cli(
            capsys,
            "fuzz",
            "--dims",
            "2,3",
            "--trials",
            "3",
            "--ensemble",
            "ginibre",
            "--seed",
            "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_violations"] == 0
        assert len(payload["cells"]) == 2
        assert set(payload["config"]) == {"dims", "trials", "ensembles", "seed", "tol"}
        assert "0 violations" in err

    def test_deterministic_excluding_elapsed(self, capsys):
        argv = ["fuzz", "--dims", "2", "--trials", "3", "--ensemble", "normal", "--seed", "9"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        strip = lambda text: re.sub(r'"elapsed": [0-9.e+-]+', '"elapsed": X', text)
        assert strip(first) == strip(second)

    def test_injected_violation_exits_one(self, capsys, monkeypatch):
        def always_fails(ctx):
            yield {"broken": 1.0}

        monkeypatch.setattr(
            fuzz_mod,
            "DEFAULT_PROPERTIES",
            tuple(fuzz_mod.DEFAULT_PROPERTIES) + (("fake-bound", always_fails),),
        )
        code, out, _ = run_cli(
            capsys, "fuzz", "--dims", "2", "--trials", "2", "--ensemble", "ginibre"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["total_violations"] == 2
        violation = payload["cells"][0]["violations"][0]
        assert violation["property_id"] == "fake-bound"
        assert violation["matrix"]["n"] == 2  # replayable matrix embedded

    def test_trials_zero_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "fuzz", "--trials", "0")
        assert code == 2
        assert "error" in err


class TestPaperExamplesCommand:
    def test_table_passes(self, capsys):
        code, out, _ = run_cli(capsys, "paper-examples")
        assert code == 0
        assert out.count("PASS") == 9
        assert "FAIL" not in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "paper-examples", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"] is True
        assert len(payload["rows"]) == 9

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "paper_examples", lambda: ([{"case": "x", "quantity": "q",
                                              "computed": 0.0, "expected": 1.0,
                                              "error": 1.0, "comparison": "abs-error",
                                              "ok": False}], False)
        )
        code, _, _ = run_cli(capsys, "paper-examples")
        assert code == 1


class TestExitCodes:
    def test_parse_error_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n":2,"m":2,"entries":[[1,0]]}')
        code, _, err = run_cli(capsys, "radius", str(bad))
        assert code == 2
        assert "error" in err

    def test_nan_tol_is_two(self, capsys, t2_file):
        code, _, err = run_cli(capsys, "radius", t2_file, "--tol", "nan")
        assert code == 2
        assert "tol" in err

    def test_oversized_integer_is_two(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text('{"n":1,"m":2,"entries":[[1' + "0" * 400 + ',0],[0,0]]}')
        code, _, err = run_cli(capsys, "radius", str(big))
        assert code == 2
        assert "error" in err

    def test_missing_file_is_two(self, capsys):
        code, _, _ = run_cli(capsys, "radius", "/nonexistent/x.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["radius", "report"])
    def test_gram_overflow_is_three(self, capsys, tmp_path, command):
        # A valid matrix whose T*T overflows: not an input error, and no bracket.
        huge = tmp_path / "huge.json"
        huge.write_text(render_matrix(1e200 * np.array([[1.0, 2.0j], [0.5, -1.0]]), "json"))
        code, out, err = run_cli(capsys, command, str(huge))
        assert (code, out) == (3, "")
        assert "non-finite" in err

    def test_numerical_failure_is_three(self, capsys, monkeypatch, t2_file):
        def boom(*args, **kwargs):
            raise Timeout("synthetic")

        monkeypatch.setattr(cli, "numerical_radius", boom)
        code, _, err = run_cli(capsys, "radius", t2_file)
        assert code == 3
        assert "numerical failure" in err
