import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hitcalc import cli
from hitcalc.cli import main, thm21_expected
from hitcalc.hit import cohit_dim
from hitcalc.homology import DElement
from hitcalc.reports import VerdictReport, emit_report


@pytest.fixture()
def run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestQueries:
    def test_mu(self, run):
        code, out, _ = run("mu", "50")
        assert code == 0 and out.strip() == "4"

    def test_alpha(self, run):
        code, out, _ = run("alpha", "7")
        assert code == 0 and out.strip() == "3"

    def test_cohit_basis(self, run):
        code, out, _ = run("cohit", "-n", "2", "-d", "3", "--basis")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "dimension 3"
        assert lines[1:4] == ["0.3", "2.1", "3.0"]

    def test_primitives(self, run):
        code, out, _ = run("primitives", "-n", "2", "-d", "2", "--basis")
        assert code == 0
        assert out.splitlines() == ["dimension 1", "(1).(1)"]

    def test_lambda_nf(self, run):
        code, out, _ = run("lambda-nf", "2,0")
        assert code == 0 and out.strip() == "1,1"

    def test_lambda_d(self, run):
        code, out, _ = run("lambda-d", "2")
        assert code == 0 and out.strip() == "0,1"

    def test_ext(self, run):
        code, out, _ = run("ext", "-s", "2", "-w", "2")
        assert code == 0 and out.strip() == "1"

    def test_invalid_input(self, run):
        code, _, err = run("lambda-nf", "2,x")
        assert code == 2 and "invalid input" in err

    def test_unknown_command(self, run):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_unknown_option(self, run):
        code, _, _ = run("--threads", "2", "alpha", "7")
        assert code == 2


def readme_examples():
    """The README command lines that state their output as '# ... -> X'."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = []
    for line in readme.read_text().splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("hitcalc ") and "->" in comment:
            examples.append((shlex.split(command)[1:], comment.rsplit("->", 1)[1].strip()))
    assert examples, "README has no '-> X' examples"
    return examples


@pytest.mark.parametrize(
    "argv, expected", readme_examples(), ids=lambda v: " ".join(v) if isinstance(v, list) else v
)
def test_readme_example(run, argv, expected):
    assert run(*argv) == (0, expected + "\n", "")


class TestVerify:
    def test_thm21_pass(self, run):
        code, out, _ = run("verify", "thm21", "-t", "1", "-s", "2", "-u", "1")
        assert code == 0
        assert out.startswith("PASS thm2.1:t=1,s=2,u=1")

    def test_thm21_zero_row(self, run):
        code, out, _ = run("verify", "thm21", "-t", "1", "-s", "1", "-u", "1")
        assert code == 0 and "expected 0, computed 0" in out

    def test_cor22_json(self, run):
        code, out, _ = run("--json", "verify", "cor22", "-t", "1", "-s", "2", "-u", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["claim"] == "cor2.2:d=23"
        assert payload[0]["pass"] is True
        assert payload[0]["representatives"][0]["label"] == "h_4c_0"

    def test_cor22_zero_row(self, run):
        code, out, _ = run("verify", "cor22", "-t", "1", "-s", "1", "-u", "1")
        assert code == 0
        assert out.startswith("PASS cor2.2:d=11: expected 0, computed 0")

    def test_thm23_requires_heavy(self, run):
        code, _, err = run("verify", "thm23", "-t", "0")
        assert code == 3 and "allow-heavy" in err

    def test_csv_format(self, run):
        code, out, _ = run("--csv", "verify", "thm21", "-t", "1", "-s", "1", "-u", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "claim,n,d,expected,computed,pass"
        assert lines[1] == '"thm2.1:t=1,s=1,u=1",4,11,0,0,true'

    def test_thm21_non_primitive_zeta_fails(self, run, monkeypatch):
        # Sq^8 of the dual of (23).(0).(0).(0) is nonzero
        monkeypatch.setattr(cli, "_zeta_for", lambda *tsu: DElement([(23, 0, 0, 0)], 4))
        code, out, _ = run("verify", "thm21", "-t", "1", "-s", "2", "-u", "1")
        assert code == 1
        assert out.startswith("FAIL thm2.1:t=1,s=2,u=1") and "primitive=False" in out

    def test_warm_cache_is_byte_identical(self, run):
        args = ("--csv", "verify", "thm21", "-t", "1", "-s", "2", "-u", "1")
        code1, out1, _ = run(*args)
        code2, out2, _ = run(*args)
        assert code1 == code2 == 0
        assert out1 == out2  # csv output carries no timing fields


class TestBudget:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "verify thm21 -t 2 -s 2 -u 2",
                "primitive space (4, 81) needs about 1082 MiB, budget is 512 MiB",
            ),
            (
                "--budget-mb 1 cohit -n 4 -d 47",
                "hit space (4, 47) needs about 45 MiB, budget is 1 MiB",
            ),
            ("ext -s 6 -w 120", "bidegree (6, 120) exceeds the word budget"),
            (
                "--budget-mb 0 ext -s 4 -w 41",
                "echelon basis needs about 0 MiB, budget is 0 MiB",
            ),
        ],
    )
    def test_refusal(self, run, argv, message):
        assert run(*argv.split()) == (3, "", f"budget exceeded: {message}\n")

    def test_library_calls_after_a_command_use_the_default(self, run):
        # the hit space (4, 25) needs about 1.3 MiB
        assert run("--budget-mb", "1", "cohit", "-n", "4", "-d", "25")[0] == 3
        assert cohit_dim(4, 25) == 120


class TestExpectedTable:
    @pytest.mark.parametrize(
        "t, s, u, dim",
        [
            (1, 1, 1, 0),
            (2, 1, 1, 0),
            (1, 1, 2, 0),
            (1, 3, 1, 0),
            (1, 2, 1, 1),
            (1, 2, 2, 1),
            (2, 1, 2, 1),
            (3, 2, 1, 0),
            (1, 1, 3, 0),
            (2, 2, 2, 1),
            (1, 3, 2, 0),
        ],
    )
    def test_rows(self, t, s, u, dim):
        assert thm21_expected(t, s, u)[0] == dim

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            thm21_expected(0, 1, 1)


class TestEmitReport:
    def test_empty_json(self):
        assert emit_report([], "json") == "[]"

    def test_csv_header(self):
        out = emit_report(
            [VerdictReport("x", 1, 2, 3, 3, True)], "csv"
        ).splitlines()
        assert out[0] == "claim,n,d,expected,computed,pass"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml")


def test_cli_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = "import sys, hitcalc.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
