import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hitcalc import glrep, homology, lambda_algebra
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

    def test_internal_error(self, run, monkeypatch):
        # a differential that raises a first index trips the stream's guard;
        # only the stream's sources, of length 3, rise, so the boundary into
        # (3, 5), which is built first, sees the true differential.  The
        # stream skips the boundary's top coordinate (2, 2, 1)
        real = lambda_algebra._differential_words
        monkeypatch.setattr(
            lambda_algebra,
            "_differential_words",
            lambda words: real(words)
            | {(u[0] + 1, 0) + u[1:] for u in words if len(u) == 3},
        )
        assert run("--no-cache", "ext", "-s", "3", "-w", "5") == (
            4,
            "",
            "internal error: d(1, 2, 2) holds (2, 0, 2, 2): its first index rose\n",
        )

    def test_a_boundary_outside_the_bidegree_is_an_internal_error(
        self, run, monkeypatch
    ):
        # a differential that holds a word of another weight; the boundaries'
        # pass walks its sources in descending lex order, so (4, 2) is first
        real = lambda_algebra._differential_words
        monkeypatch.setattr(
            lambda_algebra,
            "_differential_words",
            lambda words: real(words) | {(0,) + u for u in words},
        )
        assert run("--no-cache", "ext", "-s", "3", "-w", "5") == (
            4,
            "",
            "internal error: d(4, 2) holds (0, 4, 2), not a word of bidegree (3, 5)\n",
        )

    def test_an_action_that_is_not_equivariant_is_an_internal_error(
        self, run, monkeypatch
    ):
        # the transvection u_1 -> u_1 + u_2 with Lucas's theorem read backwards:
        # (u_1 + u_2)^a keeps the terms of even binomial coefficient
        real, transvection = glrep._act_exponents, glrep.generators(3)[-1]

        def lucas_reversed(g, exps):
            if g != transvection:
                return real(g, exps)
            a, b, c = exps
            return frozenset((i, a - i + b, c) for i in range(a + 1) if i & ~a)

        monkeypatch.setattr(glrep, "_act_exponents", lucas_reversed)
        assert run("--no-cache", "coinvariants", "-n", "3", "-d", "9") == (
            4,
            "",
            "internal error: a generator acts on the cohits as no involution\n",
        )

    def test_an_action_that_breaks_the_group_is_an_internal_error(
        self, run, monkeypatch
    ):
        # an image that keeps only its highest term: the transvection then
        # induces the identity on the cohits, an involution, but t s_1 no
        # longer has order 3
        real = glrep._act_exponents
        monkeypatch.setattr(
            glrep, "_act_exponents", lambda g, exps: frozenset({max(real(g, exps))})
        )
        assert run("--no-cache", "coinvariants", "-n", "3", "-d", "9") == (
            4,
            "",
            "internal error: t s_1 acts on the cohits with a cube other than 1\n",
        )

    def test_dependent_invariants_are_an_internal_error(self, run, monkeypatch):
        real = glrep.invariant_basis
        monkeypatch.setattr(glrep, "invariant_basis", lambda n, d: 2 * real(n, d))
        assert run("--no-cache", "coinvariants", "-n", "3", "-d", "9") == (
            4,
            "",
            "internal error: the invariants pair dependently with the primitives\n",
        )


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


@pytest.mark.parametrize("via", ["--cache-dir", "HITCALC_CACHE"])
def test_a_cache_that_cannot_be_written_only_warns(run, tmp_path, monkeypatch, via):
    # a directory under a regular file can be neither made nor read
    (tmp_path / "file").write_text("")
    blocked = tmp_path / "file" / "sub"
    command = ("cohit", "-n", "3", "-d", "9")
    if via == "HITCALC_CACHE":
        monkeypatch.setenv(via, str(blocked))
        code, out, err = run(*command)
    else:
        code, out, err = run(via, str(blocked), *command)
    assert code == 0 and out == run("--no-cache", *command)[1]
    lines = err.splitlines()
    assert len(lines) == 3
    for k, line in enumerate(lines, 1):
        path = blocked / f"hit_plus_k{k}_d9.hpb2"
        assert line.startswith(f"warning: not caching {path}: ")
    assert not blocked.exists()


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

    @pytest.mark.parametrize("claim", ["thm23", "cor24"])
    def test_rank5_claims_need_t_at_least_zero(self, run, claim):
        for heavy in ((), ("--allow-heavy",)):
            assert run(*heavy, "--no-cache", "verify", claim, "-t", "-1") == (
                2,
                "",
                "invalid input: the degree 5(2^t - 1) + 50*2^t needs t >= 0\n",
            )

    def test_cor24_refuses_before_any_work(self, run, monkeypatch):
        def computed(*sw):
            raise AssertionError("the Ext side ran before the heavy check")

        monkeypatch.setattr(lambda_algebra, "homology_dim", computed)
        code, _, err = run("--no-cache", "verify", "cor24", "-t", "0")
        assert code == 3 and "allow-heavy" in err

    def test_csv_format(self, run):
        code, out, _ = run("--csv", "verify", "thm21", "-t", "1", "-s", "1", "-u", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "claim,n,d,expected,computed,pass"
        assert lines[1] == '"thm2.1:t=1,s=1,u=1",4,11,0,0,true'

    def test_thm21_non_primitive_zeta_fails(self, run, monkeypatch):
        # Sq^8 of the dual of (23).(0).(0).(0) is nonzero
        non_primitive = DElement([(23, 0, 0, 0)], 4)
        monkeypatch.setattr(homology, "zeta_element", lambda *fam_tsu: non_primitive)
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
                "--budget-mb 1 verify thm21 -t 1 -s 1 -u 3",
                "echelon basis needs about 1.1 MiB, budget is 1.0 MiB",
            ),
            (
                "--budget-mb 1 cohit -n 4 -d 47",
                "echelon basis needs about 1.1 MiB, budget is 1.0 MiB",
            ),
            ("ext -s 6 -w 120", "bidegree (6, 120) exceeds the word budget"),
            (
                "--budget-mb 0 ext -s 4 -w 41",
                "echelon basis needs about 0.1 MiB, budget is 0.0 MiB",
            ),
        ],
    )
    def test_refusal(self, run, argv, message):
        assert run(*argv.split()) == (3, "", f"budget exceeded: {message}\n")

    def test_library_calls_after_a_command_use_the_default(self, run):
        # the rows of the hit block P^+_4(35) take more than 1 MiB
        assert run("--budget-mb", "1", "cohit", "-n", "4", "-d", "35")[0] == 3
        assert cohit_dim(4, 35) == 120


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


def test_cli_import_leaves_tempfile_unloaded():
    # with -S no site module imports it first; only a cache write needs it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = "import sys, hitcalc.cli; print('tempfile' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/trace_cli.py looks the engine names it wraps up with getattr,
    # so a renamed or deleted one would otherwise break only traced runs
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    probe = (
        "import sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import trace_cli\n"
        "trace_cli.install(trace_cli.Tracer())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=root, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def modules_loaded(tmp_path, *argv):
    """The modules a fresh interpreter holds after importing hitcalc.cli and
    running argv, with no bytecode written or read from a cache."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    probe = (
        "import sys, hitcalc.cli\n"
        "if sys.argv[1:]:\n"
        "    hitcalc.cli.main(sys.argv[1:])\n"
        "print('\\n' + ' '.join(sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(result.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv, absent, present",
    [
        (
            (),
            ("dataclasses", "json", "csv", "hitcalc.glrep", "hitcalc.hit")
            + ("hitcalc.homology", "hitcalc.lambda_algebra", "hitcalc.transfer"),
            ("hitcalc.cli",),
        ),
        (
            ("--no-cache", "ext", "-s", "3", "-w", "5"),
            ("hitcalc.glrep", "hitcalc.hit", "hitcalc.transfer"),
            ("hitcalc.lambda_algebra",),
        ),
        (
            ("--no-cache", "--json", "verify", "thm21", "-t", "1", "-s", "1", "-u", "1"),
            (),
            ("json",),
        ),
        (
            ("verify", "cor22", "-t", "1", "-s", "2", "-u", "1"),
            ("hitcalc.hit",),
            ("hitcalc.glrep", "hitcalc.transfer"),
        ),
    ],
    ids=["import", "ext", "json-verify", "warm-cor22"],
)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, absent, present):
    if argv and "--no-cache" not in argv:
        modules_loaded(tmp_path, *argv)  # fills the cache: the run below is warm
    loaded = modules_loaded(tmp_path, *argv)
    assert not loaded & set(absent)
    assert set(present) <= loaded
