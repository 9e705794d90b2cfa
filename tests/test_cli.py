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

from braidforge import cli
from braidforge.braids import BraidWord, random_markov_perturbation
from braidforge.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = json.loads(
    (REPO / "docs" / "invariant_report.schema.json").read_text()
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env() -> dict:
    """The environment with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return env


# Imports braidforge, runs the calls, imports every module again as
# perfbench/run.py does for each set-up, then runs them through both `cli`s.
REIMPORT_SCRIPT = """
import contextlib, importlib, io, json, pkgutil, sys

def fresh_cli():
    for name in [n for n in sys.modules if n.split(".")[0] == "braidforge"]:
        del sys.modules[name]
    package = importlib.import_module("braidforge")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module("braidforge." + info.name)
    return sys.modules["braidforge.cli"]

def run(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return [code, out.getvalue()]

argvs = json.loads(sys.argv[1])
old = fresh_cli()
first = [run(old, argv) for argv in argvs]
new = fresh_cli()
assert new is not old
print(json.dumps({
    "first": first,
    "old_after": [run(old, argv) for argv in argvs],
    "new_after": [run(new, argv) for argv in argvs],
}))
"""


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
        # The CLI cannot give SQUARE_ZERO its three matrices, so --series
        # lists only the series it can build.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mode", "relations", "--series", series])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --series: invalid choice: 'SQUARE_ZERO'" in captured.err

    def test_series_names_are_case_insensitive(self, capsys):
        lower = run_cli(["verify", "--mode", "relations", "--series", "iii"], capsys)
        upper = run_cli(["verify", "--mode", "relations", "--series", "III"], capsys)
        assert lower == upper and lower[0] == 0

    def test_survives_reimport(self, capsys):
        """Calls keep working after every braidforge module is imported again.

        perfbench/run.py drops and re-imports the package for each set-up
        while the first import's functions go on running, so a module-level
        name looked up again at call time (a function-local import) finds
        the new module's objects: ring descriptors compare by identity, and
        "ring mismatch: integer vs integer" follows.  The subprocess runs
        each call, re-imports every module, and runs it again through the
        old and the new `cli`.
        """
        argvs = [
            ["verify", "--mode", "relations", "--series", "III", "--m", "3",
             "--seed", "5"],
            ["verify", "--mode", "relations", "--series", "II", "--m", "1"],
            ["verify", "--mode", "relations", "--degenerate"],
            ["invariant", "--type", "bracket", "--strands", "3", "--word", "1 2 -1"],
        ]
        expected = [list(run_cli(argv, capsys)[:2]) for argv in argvs]
        assert [code for code, _ in expected] == [0, 0, 1, 0]
        done = subprocess.run(
            [sys.executable, "-c", REIMPORT_SCRIPT, json.dumps(argvs)],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert json.loads(done.stdout) == {
            "first": expected, "old_after": expected, "new_after": expected,
        }

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

    def test_fail_prints_reproducible_mismatches(self, capsys, monkeypatch):
        # A pipeline that reads the strand count, which stabilization moves.
        monkeypatch.setattr(cli, "invariant_function", lambda *args: lambda w: w.strands)
        argv = [
            "verify", "--mode", "markov", "--type", "group-trace", "--strands", "3",
            "--word", "1 -2 1 -2", "--trials", "6", "--seed", "7",
        ]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == "FAIL markov group-trace trials=6\n"
        records = [json.loads(line.removeprefix("mismatch ")) for line in err.splitlines()]
        assert records and all(line.startswith("mismatch {") for line in err.splitlines())
        base = BraidWord(3, (1, -2, 1, -2))
        for record in records:
            assert record["trial_seed"] == 7 * 7_919 + record["trial"]
            word = random_markov_perturbation(base, 5, record["trial_seed"])
            assert word.to_jsonable() == record["word"]
            assert record["value"] == word.strands != record["base_value"] == 3


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


def fresh_run(argv):
    """(exit code, stdout, stderr) of `main(argv)` in a new process that
    inherits this one's environment."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from braidforge.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


VALID_ARGV = ["verify", "--mode", "relations", "--series", "III", "--m", "2"]


class TestParserReuse:
    """main parses with one parser per process; every call must behave as
    the first call of a new process would."""

    def test_parser_built_once_and_kept_apart(self, capsys):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli._parser()
        # Changing a parser from build_parser does not reach main.
        cli.build_parser().set_defaults(relation_set="NOPE")
        assert run_cli(VALID_ARGV, capsys) == fresh_run(VALID_ARGV)

    def test_argparse_rejection_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mode", "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert run_cli(VALID_ARGV, capsys) == fresh_run(VALID_ARGV)

    def test_invalid_spec_then_valid_call(self, capsys):
        code, out, err = run_cli(VALID_ARGV + ["--m", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --m must be at least 1, got 0\n"
        assert run_cli(VALID_ARGV, capsys) == fresh_run(VALID_ARGV)

    def test_env_seed_read_on_every_call(self, capsys, monkeypatch):
        argv = ["invariant", "--type", "tensor-trace", "--strands", "3",
                "--word", "1 -2 1", "--json"]
        outs = []
        for seed in ("3", "4"):
            monkeypatch.setenv("BRAIDFORGE_SEED", seed)
            result = run_cli(argv, capsys)
            assert result == fresh_run(argv)
            assert json.loads(result[1])["parameters"]["seed"] == int(seed)
            outs.append(result[1])
        assert outs[0] != outs[1]

    def test_help_twice(self, capsys, monkeypatch):
        # A fixed width, so argparse wraps the text alike in both processes.
        monkeypatch.setenv("COLUMNS", "80")
        expected = fresh_run(["--help"])
        assert expected[0] == 0 and expected[1].startswith("usage: braidforge")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out, captured.err) == expected


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

    def run_script(*args):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *args],
            capture_output=True, text=True, env=src_env(), timeout=120,
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
