"""Record the expected outputs that the benchmark's checks compare against.

    python3 perfbench/record_golden.py

Writes two files next to this file:

golden_tables.json  for every invariant and every seed in
                    workloads.TABLE_SEEDS, the exact stdout of
                    ``braidforge table --type <invariant> --seed <seed>``
                    (cli-blocks).
golden_values.json  for tensor-m3 and gbraid-m2, the anchor inputs of
                    workloads.anchor_cases and the value of each, rendered by
                    ``value_to_jsonable``.

The CLI promises byte-identical seeded output, and the pipelines are exact, so
the files are recorded once, at a commit whose output is trusted, and every
later run of the benchmark is checked against them.  Refuses to record a table
whose command does not exit 0.
"""

import json
import sys

from run import import_braidforge
from workloads import (
    ANCHOR_SHAPES,
    GOLDEN_TABLES,
    GOLDEN_VALUES,
    INVARIANT_IDS,
    TABLE_SEEDS,
    anchor_cases,
    run_cli,
)


def main() -> int:
    bf = import_braidforge()
    golden = {}
    for invariant in INVARIANT_IDS:
        golden[invariant] = {}
        for seed in TABLE_SEEDS:
            code, out = run_cli(bf, ["table", "--type", invariant, "--seed", str(seed)])
            if code != 0:
                print(f"table --type {invariant} --seed {seed} exited {code}", file=sys.stderr)
                return 1
            golden[invariant][str(seed)] = out
    GOLDEN_TABLES.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")

    values = {}
    for name in ANCHOR_SHAPES:
        values[name] = []
        for case in anchor_cases(bf, name):
            fn = bf.presets.invariant_function(case["invariant"], case["m"], case["t"],
                                               case["seed"])
            word = bf.braids.BraidWord(case["strands"], tuple(case["letters"]))
            values[name].append({**case, "value": bf.invariants.value_to_jsonable(fn(word))})
    GOLDEN_VALUES.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(c)}" for c in cases) + "\n ]"
        for name, cases in values.items()
    ) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
