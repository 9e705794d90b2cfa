"""Seeded output against the recorded golden files, byte for byte.

perfbench/golden_tables.json holds the stdout of ``braidforge table`` for
every invariant and seed; perfbench/golden_values.json holds the anchor
inputs of the evaluating benchmark workloads and their rendered values.
Both were recorded at a trusted commit; this test only reads them.
"""

import contextlib
import io
import json
import pathlib

import pytest

from braidforge.braids import BraidWord
from braidforge.cli import main
from braidforge.invariants import value_to_jsonable
from braidforge.presets import invariant_function

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TABLES = json.loads((PERFBENCH / "golden_tables.json").read_text())
VALUES = json.loads((PERFBENCH / "golden_values.json").read_text())

TABLE_CASES = [
    (invariant, seed, out)
    for invariant, by_seed in sorted(TABLES.items())
    for seed, out in sorted(by_seed.items())
]
ANCHOR_CASES = [
    (f"{name}/{i}", case) for name, cases in VALUES.items() for i, case in enumerate(cases)
]


def test_golden_files_complete():
    assert len(TABLE_CASES) == 40
    assert len(ANCHOR_CASES) == 42


@pytest.mark.parametrize(
    "invariant, seed, expected", TABLE_CASES, ids=[f"{i}-{s}" for i, s, _ in TABLE_CASES]
)
def test_table_stdout(invariant, seed, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["table", "--type", invariant, "--seed", seed])
    assert code == 0
    assert out.getvalue() == expected


@pytest.mark.parametrize("case", [c for _, c in ANCHOR_CASES], ids=[i for i, _ in ANCHOR_CASES])
def test_anchor_value(case):
    fn = invariant_function(case["invariant"], case["m"], case["t"], case["seed"])
    value = value_to_jsonable(fn(BraidWord(case["strands"], tuple(case["letters"]))))
    assert json.dumps(value) == json.dumps(case["value"])
