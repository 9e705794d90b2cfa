"""Self-checks of the benchmark, run from the root of a source checkout.

    python3 perfbench/check.py

1. BENCHMARK.json names exactly the workloads and metrics that run.py
   reports, with the same units.
2. Gate sensitivity: the tensor-m3 op stream is replayed with its pipelines
   swapped for the unnormalized ``tensor_rep_trace``, which stabilization
   changes, and the tensor-m3 and gbraid-m2 streams with pipelines that
   ignore their input and return one fixed value, which Markov moves cannot
   change.  The correctness gate must fail some of those ops, and none of
   the same ops with the genuine pipelines.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from functools import partial

from run import END_TO_END_UNITS, ROOT, Gate, fresh_setup, input_rng
from tracer import PER_LAYER
from workloads import WORKLOADS


def check_manifest() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END_UNITS:
        problems.append("end_to_end metrics differ from run.END_TO_END_UNITS")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(PER_LAYER):
        problems.append("per_layer metrics differ from tracer.PER_LAYER")
    return problems


def with_pipelines(state, make):
    """A tensor-m3 or gbraid-m2 state whose pipelines are make(genuine, seed)."""
    def pool(entries):
        return [(seed, make(fn, seed)) for seed, fn in entries]

    replaced = {
        "anchors": {
            key: [(case, make(fn, case["seed"]), word) for case, fn, word in cases]
            for key, cases in state["anchors"].items()
        }
    }
    if "pool" in state:
        replaced["pool"] = pool(state["pool"])
    else:
        replaced["pools"] = {kind: pool(entries) for kind, entries in state["pools"].items()}
    return replaced


def unnormalized(bf):
    def make(fn, seed):
        return partial(bf.tensors.tensor_rep_trace, bf.presets.standard_tensor(3, seed))
    return make


def ignores_input(bf):
    """Each pipeline returns its value on one fixed 3-strand word, whatever the input."""
    word = bf.braids.BraidWord(3, (1, -2, 1))

    def make(fn, seed):
        value = fn(word)
        return lambda w: value
    return make


def gate_run(name, seed, count, corruption=None) -> Gate:
    workload = WORKLOADS[name]
    bf, state, _ = fresh_setup(workload, seed)
    if corruption:
        state = with_pipelines(state, corruption(bf))
    gate = Gate(workload, seed)
    stream = workload.ops(bf, state, input_rng(workload, seed))
    for index in range(count):
        gate.run(index, next(stream))
    return gate


# (label, workload, ops, corruption); corruption None is the genuine control.
SENSITIVITY = (
    ("unnormalized trace", "tensor-m3", 24, unnormalized),
    ("input-ignoring pipelines", "tensor-m3", 60, ignores_input),
    ("input-ignoring pipelines", "gbraid-m2", 70, ignores_input),
    ("genuine pipelines", "tensor-m3", 8, None),
    ("genuine pipelines", "gbraid-m2", 70, None),
)


def main() -> int:
    problems = check_manifest()
    seed = 1
    for label, name, count, corruption in SENSITIVITY:
        gate = gate_run(name, seed, count, corruption)
        share = gate.failed / gate.attempted
        print(f"gate sensitivity: {name} with {label}: failed_share {share:.3f} "
              f"({gate.failed}/{gate.attempted} ops)")
        if gate.records:
            print(f"  first failure record: {json.dumps(gate.records[0])}")
        if corruption and not gate.failed:
            problems.append(f"the gate passed every {name} op with {label}")
        if not corruption and gate.failed:
            problems.append(f"the gate failed {name} ops with {label}")
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print("PASS benchmark self-checks")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
