"""The braidforge command line: exit codes, JSON output, and determinism."""

import csv
import importlib.metadata
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

import jsonschema
import pytest

from braidforge.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = json.loads(
    (REPO / "docs" / "invariant_report.schema.json").read_text()
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyRelations:
    def test_series_pass(self, capsys):
        code, out, _ = run_cli(["verify", "--mode", "relations"], capsys)
        assert code == 0
        assert "PASS BRAID_ALGEBRA" in out

    def test_degenerate_fails(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--mode", "relations", "--degenerate"], capsys
        )
        assert code == 1
        assert "FAIL 2.2(i)" in out

    def test_series_vi(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--mode", "relations", "--series", "VI"], capsys
        )
        assert code == 0
        assert "PASS" in out

    def test_unknown_set_is_config_error(self, capsys):
        code, _, err = run_cli(
            ["verify", "--mode", "relations", "--set", "NOPE"], capsys
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("series", ["SQUARE_ZERO", "square_zero"])
    def test_square_zero_without_matrices_is_config_error(self, series, capsys):
        code, out, err = run_cli(
            ["verify", "--mode", "relations", "--series", series], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: SQUARE_ZERO requires three square matrices (A, B, C)\n"


class TestVerifyBraidEquation:
    def test_standard_tensor(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--mode", "braid-equation", "--m", "2", "--seed", "3"], capsys
        )
        assert code == 0
        assert "PASS braid-equation" in out

    def test_swap_tensor(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--mode", "braid-equation", "--tensor", "swap"], capsys
        )
        assert code == 0


class TestVerifyMarkov:
    def test_tensor_trace(self, capsys):
        code, out, _ = run_cli(
            [
                "verify", "--mode", "markov", "--type", "tensor-trace",
                "--strands", "2", "--word", "1 1 1", "--trials", "4",
                "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("PASS markov tensor-trace")


class TestInvariantCommand:
    ARGS = [
        "invariant", "--type", "tensor-trace", "--strands", "2",
        "--word", "1 1 1", "--seed", "31", "--json",
    ]

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["invariant"] == "tensor-trace"
        assert report["braid"] == {"strands": 2, "letters": [1, 1, 1]}

    def test_all_invariants_validate(self, capsys):
        for inv in (
            "tensor-trace",
            "charpoly-class",
            "charpoly-family",
            "group-trace",
            "bracket",
        ):
            code, out, _ = run_cli(
                [
                    "invariant", "--type", inv, "--strands", "2",
                    "--word", "1 1 1", "--seed", "31", "--json",
                ],
                capsys,
            )
            assert code == 0
            jsonschema.validate(json.loads(out), SCHEMA)

    def test_deterministic_bytes(self, capsys):
        _, out_a, _ = run_cli(self.ARGS, capsys)
        _, out_b, _ = run_cli(self.ARGS, capsys)
        assert out_a == out_b

    def test_seed_changes_value(self, capsys):
        base = self.ARGS[:-1]
        _, out_a, _ = run_cli(base, capsys)
        other = [x if x != "31" else "32" for x in base]
        _, out_b, _ = run_cli(other, capsys)
        # Different seeds give different tensors; the normalized value may
        # coincide, but at minimum both runs succeed and print something.
        assert out_a.strip() and out_b.strip()

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BRAIDFORGE_SEED", "31")
        other = [x if x != "31" else "99" for x in self.ARGS]
        _, out_env, _ = run_cli(other, capsys)
        monkeypatch.delenv("BRAIDFORGE_SEED")
        _, out_plain, _ = run_cli(self.ARGS, capsys)
        assert json.loads(out_env)["value"] == json.loads(out_plain)["value"]
        assert json.loads(out_env)["parameters"]["seed"] == 31

    def test_unknot_equality(self, capsys):
        values = []
        for strands, word in (("1", ""), ("2", "1"), ("3", "1 2")):
            _, out, _ = run_cli(
                [
                    "invariant", "--type", "tensor-trace", "--strands", strands,
                    "--word", word, "--seed", "31",
                ],
                capsys,
            )
            values.append(out.strip())
        assert values[0] == values[1] == values[2]

    def test_bad_word_is_config_error(self, capsys):
        code, _, err = run_cli(
            [
                "invariant", "--type", "tensor-trace", "--strands", "2",
                "--word", "7",
            ],
            capsys,
        )
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--mode", "relations", "--m", "0"],
        ["verify", "--mode", "braid-equation", "--tensor", "identity", "--m", "0"],
        ["verify", "--mode", "markov", "--m", "0"],
        ["invariant", "--type", "tensor-trace", "--strands", "2", "--word", "1",
         "--m", "0"],
        ["table", "--type", "charpoly-class", "--m", "-1"],
    ],
    ids=["relations", "braid-equation", "markov", "invariant", "table"],
)
def test_nonpositive_m_is_config_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --m must be at least 1")


@pytest.mark.parametrize("trials", ["-1", "0"])
def test_nonpositive_trials_is_config_error(trials, capsys):
    code, out, err = run_cli(
        ["verify", "--mode", "markov", "--trials", trials], capsys
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--type", "bracket", "--strands", "2", "--word", "1",
         "--t", "0"],
        ["table", "--type", "bracket", "--t", "0"],
    ],
    ids=["invariant", "table"],
)
def test_zero_bracket_t_is_config_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: t must be nonzero\n"


@pytest.mark.parametrize(
    "invariant, t, message",
    [
        ("bracket", "abc", "t must be a rational number, got 'abc'"),
        ("charpoly-class", "x", "t must be an integer, got 'x'"),
        ("charpoly-class", "1/2", "t must be an integer, got '1/2'"),
        ("charpoly-family", "x", "t must be an integer, got 'x'"),
        ("charpoly-family", "1/2", "t must be an integer, got '1/2'"),
    ],
    ids=["bracket-abc", "class-x", "class-half", "family-x", "family-half"],
)
def test_unreadable_t_is_config_error(invariant, t, message, capsys):
    argv = ["invariant", "--type", invariant, "--strands", "2", "--word", "1", "--t", t]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_unreadable_env_seed_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDFORGE_SEED", "x")
    code, out, err = run_cli(
        ["invariant", "--type", "tensor-trace", "--strands", "2", "--word", "1"], capsys
    )
    assert code == 2
    assert out == ""
    assert err == "error: BRAIDFORGE_SEED must be an integer, got 'x'\n"


class TestTableCommand:
    @pytest.mark.parametrize(
        "inv", ["tensor-trace", "charpoly-class", "group-trace", "bracket"]
    )
    def test_all_rows_match(self, inv, capsys):
        code, out, _ = run_cli(
            ["table", "--type", inv, "--seed", "31"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["fixture", "strands", "word", "value", "matches_base"]
        data = rows[1:]
        assert len(data) == 15  # five fixtures, each with two variants
        for row in data:
            assert row[4] in ("", "yes")

    def test_values_present(self, capsys):
        _, out, _ = run_cli(["table", "--type", "tensor-trace", "--seed", "31"], capsys)
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert all(row[3] for row in rows)


def load_pyproject() -> dict:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    return tomllib.loads((REPO / "pyproject.toml").read_text())


def test_version_declared_once():
    """The distribution reads its version from `braidforge.__version__`."""
    pyproject = load_pyproject()
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    declared = pyproject["tool"]["setuptools"]["dynamic"]["version"]
    assert declared == {"attr": "braidforge.__version__"}
    module, _, attr = declared["attr"].rpartition(".")
    assert isinstance(getattr(importlib.import_module(module), attr), str)


def test_console_script_installed():
    """The `braidforge` console script is declared and runs `cli.main`.

    The tier-1 suite runs from `src` without installing the package, so the
    script is checked from its declaration: `pyproject.toml` names the entry
    point, the entry point loads `braidforge.cli.main`, and the wrapper an
    installer writes passes `main`'s exit code to the process. Where a
    `braidforge` distribution is installed, its script must also be on PATH.
    """
    pyproject = load_pyproject()
    scripts = pyproject["project"]["scripts"]
    assert scripts == {"braidforge": "braidforge.cli:main"}

    entry = importlib.metadata.EntryPoint(
        name="braidforge", value=scripts["braidforge"], group="console_scripts"
    )
    assert entry.load() is main

    wrapper = "import sys; from braidforge.cli import main; sys.exit(main())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )

    def run_script(*args):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    helped = run_script("--help")
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: braidforge")
    failed = run_script("verify", "--mode", "relations", "--degenerate")
    assert failed.returncode == 1
    assert "FAIL 2.2(i)" in failed.stdout

    try:
        importlib.metadata.distribution("braidforge")
    except importlib.metadata.PackageNotFoundError:
        return
    assert shutil.which("braidforge") is not None
