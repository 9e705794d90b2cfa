"""The four benchmark workloads.

Each workload has a ``setup`` that builds its pipelines from a seeded
generator, and an endless ``ops`` stream that draws fresh inputs from a second
seeded generator and yields one ``Op`` at a time.  The library only ever sees
the generated inputs.  Every op carries its own correctness check and the
inputs that reproduce it.

Ops come in rounds or Markov groups that mix the workload's input shapes, so
a run that stops at any point has measured nearly the same mix.  Pipelines
and tensors come from pools built at set-up and are used in turn.  The
tensor workloads size their pools so that a run at the baseline's speed uses
each tensor once or twice, because a check's cost depends strongly on its
tensor; a faster program revisits pool entries rather than pay more set-up.

A Markov check alone passes any pipeline whose value does not change under
Markov moves, a constant for one.  So the two evaluating workloads also run
anchor groups: fixed inputs whose base values were recorded once, at a trusted
commit, in golden_values.json.  Every ANCHOR_EVERY-th group is one, keyed to
the shape the stream would have used there, so the mix stays the same.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

GOLDEN_TABLES = Path(__file__).resolve().parent / "golden_tables.json"
GOLDEN_VALUES = Path(__file__).resolve().parent / "golden_values.json"
TABLE_SEEDS = tuple(range(8))
INVARIANT_IDS = ("tensor-trace", "charpoly-class", "charpoly-family", "group-trace", "bracket")

MISSING = object()


@dataclass
class Op:
    """One unit of a workload's work and its correctness check.

    ``check(value)`` returns (passed, expected); ``inputs`` holds what is
    needed to reproduce the op outside the benchmark.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, object]]
    inputs: dict


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (bf, rng) -> state
    ops: Callable  # (bf, state, rng) -> Iterator[Op]
    planned_ops: int  # ops in one timed run at the baseline commit
    trace_ops: int  # ops in one traced pass

    @property
    def tail_pct(self) -> int:
        """The highest whole percentile with at least ten of planned_ops beyond it."""
        return (100 * (self.planned_ops - 10)) // self.planned_ops


# -- inputs -----------------------------------------------------------------


def random_word(bf, rng, strands: int, letters: int):
    return bf.braids.BraidWord(
        strands,
        tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(letters)),
    )


def word_text(w) -> str:
    return f"{w.strands}:{w.text()}"


def markov_group(bf, kind, fn, base, rng, inputs, perturbations, steps=4,
                 golden=MISSING) -> Iterator[Op]:
    """The base evaluation, then perturbations whose value must equal it exactly.

    With a ``golden`` value the base must also render to it (through
    ``value_to_jsonable``); without one any value passes.  Perturbed words are
    drawn lazily, after the base op has run, so the perturbation cost falls
    between ops rather than inside one.
    """
    group = {}

    def check_base(value):
        group["base"] = value
        if golden is MISSING:
            return value is not None, "a value"
        return bf.invariants.value_to_jsonable(value) == golden, golden

    def check_moved(value):
        expected = group.get("base", MISSING)
        return value == expected, expected

    yield Op(kind, partial(fn, base), check_base, {**inputs, "word": word_text(base)})
    for _ in range(perturbations):
        trial_seed = rng.randrange(1 << 31)
        moved = bf.braids.random_markov_perturbation(base, steps, trial_seed)
        yield Op(
            kind,
            partial(fn, moved),
            check_moved,
            {
                **inputs,
                "base_word": word_text(base),
                "trial_seed": trial_seed,
                "steps": steps,
                "perturbed_word": word_text(moved),
            },
        )


# -- anchors --------------------------------------------------------------------
# Fixed inputs whose base values golden_values.json records; ANCHOR_SHAPES,
# after the workloads, gives their shapes.


def anchor_cases(bf, name):
    """The fixed anchor inputs of a workload, for record_golden.py to record."""
    m, extra, per_shape, shapes = ANCHOR_SHAPES[name]
    rng = random.Random(f"{name}/anchors")
    cases = []
    for invariant, t, strands in shapes:
        for _ in range(per_shape):
            seed = rng.randrange(1 << 30)
            w = random_word(bf, rng, strands, strands + extra)
            cases.append({"invariant": invariant, "m": m, "t": t, "seed": seed,
                          "strands": strands, "letters": list(w.letters)})
    return cases


def anchor_setup(bf, name):
    """Pipelines for the recorded anchors, by (invariant, strands)."""
    anchors = {}
    for case in json.loads(GOLDEN_VALUES.read_text())[name]:
        fn = bf.presets.invariant_function(case["invariant"], case["m"], case["t"], case["seed"])
        word = bf.braids.BraidWord(case["strands"], tuple(case["letters"]))
        anchors.setdefault((case["invariant"], case["strands"]), []).append((case, fn, word))
    return anchors


def anchor_group(bf, cycles, invariant, strands, rng, perturbations):
    case, fn, word = next(cycles[invariant, strands])
    inputs = {"m": case["m"], "t": case["t"], "seed": case["seed"], "anchor": True}
    return markov_group(bf, invariant, fn, word, rng, inputs, perturbations,
                        golden=case["value"])


def _equals(expected):
    return lambda value: (value == expected, expected)


# -- tensor-m3 ----------------------------------------------------------------
# op = one normalized tensor-trace evaluation at m = 3.  Each op recomputes the
# partial traces, whose 9x9 Laurent inverse is nearly all of its cost.

TENSOR_STRANDS = (3, 5, 8)
TENSOR_POOL = 12
TENSOR_ANCHOR_EVERY = 4  # coprime to the 3 strand shapes, so each gets anchors


def tensor_m3_setup(bf, rng):
    # One op's cost is almost all its tensor's, and that varies about 2x
    # between tensors.  A pool drawn from --seed made the median op time
    # depend on which tensors a seed drew, so the pool is the same for every
    # seed, like the anchors, and --seed draws the words and perturbations.
    # A run at the baseline's speed goes through the pool about twice.
    pool_rng = random.Random("tensor-m3/pool")
    seeds = [pool_rng.randrange(1 << 30) for _ in range(TENSOR_POOL)]
    return {
        "pool": [(s, bf.presets.invariant_function("tensor-trace", 3, 1, s)) for s in seeds],
        "anchors": anchor_setup(bf, "tensor-m3"),
    }


def tensor_m3_ops(bf, state, rng):
    pool = itertools.cycle(state["pool"])
    anchors = {key: itertools.cycle(cases) for key, cases in state["anchors"].items()}
    for g in itertools.count():
        strands = TENSOR_STRANDS[g % 3]
        if g % TENSOR_ANCHOR_EVERY == 0:
            yield from anchor_group(bf, anchors, "tensor-trace", strands, rng, perturbations=2)
            continue
        seed, fn = next(pool)
        base = random_word(bf, rng, strands, strands + 2)
        yield from markov_group(
            bf, "tensor-trace", fn, base, rng, {"m": 3, "seed": seed}, perturbations=2
        )


# -- gbraid-m2 ----------------------------------------------------------------
# op = one G-braid invariant evaluation at m = 2; thousands of 2x2 matrix ops.

GBRAID_KINDS = (("charpoly-class", 2), ("charpoly-family", 1), ("group-trace", 1))
GBRAID_STRANDS = (5, 8)
GBRAID_POOL = 8
GBRAID_ANCHOR_EVERY = 7  # coprime to the 6 (invariant, strands) shapes


def gbraid_m2_setup(bf, rng):
    pools = {
        kind: [
            (s, bf.presets.invariant_function(kind, 2, t, s))
            for s in (rng.randrange(1 << 30) for _ in range(GBRAID_POOL))
        ]
        for kind, t in GBRAID_KINDS
    }
    return {"pools": pools, "anchors": anchor_setup(bf, "gbraid-m2")}


def gbraid_m2_ops(bf, state, rng):
    pools = {kind: itertools.cycle(pool) for kind, pool in state["pools"].items()}
    anchors = {key: itertools.cycle(cases) for key, cases in state["anchors"].items()}
    for g in itertools.count():
        kind, t = GBRAID_KINDS[g % 3]
        strands = GBRAID_STRANDS[(g // 3) % 2]
        if g % GBRAID_ANCHOR_EVERY == 0:
            yield from anchor_group(bf, anchors, kind, strands, rng, perturbations=4)
            continue
        seed, fn = next(pools[kind])
        base = random_word(bf, rng, strands, strands + 3)
        yield from markov_group(
            bf, kind, fn, base, rng, {"m": 2, "t": t, "seed": seed}, perturbations=4
        )


# Per evaluating workload: m, letters beyond the strand count, anchors per
# shape, and the (invariant, t, strands) shapes its groups take.  There are
# enough anchors that a run at the baseline's speed uses each about once.
ANCHOR_SHAPES = {
    "tensor-m3": (3, 2, 2, [("tensor-trace", 1, s) for s in TENSOR_STRANDS]),
    "gbraid-m2": (2, 3, 6, [(kind, t, s) for kind, t in GBRAID_KINDS for s in GBRAID_STRANDS]),
}


# -- verify-tensors -------------------------------------------------------------
# op = one verification: a braid-equation check, or the three-route trace
# cross-check.  The tensors layer verifies here rather than evaluates.

# A zero entry in the seeded matrix makes a tensor's checks several times
# cheaper, so each op takes the next tensor and a run averages over many.
# The slowest ops, and so op_tail_ms, are the ~24 m = 3 checks of a run; with
# pools drawn from --seed the tail depended on which tensors a seed drew.  So
# the pools are the same for every seed, and --seed draws the trace words.
VERIFY_POOLS = {2: 200, 3: 24}


def verify_tensors_setup(bf, rng):
    pool_rng = random.Random("verify-tensors/pools")
    return {
        m: [
            (s, bf.presets.standard_tensor(m, s))
            for s in (pool_rng.randrange(1 << 30) for _ in range(size))
        ]
        for m, size in VERIFY_POOLS.items()
    }


def _trace_routes(bf, tensor, w):
    routes = ("slots", "contract", "dense") if w.strands <= 4 else ("slots", "contract")
    return {r: bf.tensors.tensor_rep_trace(tensor, w, r) for r in routes}


def _routes_agree(values):
    expected = values["slots"]
    return all(v == expected for v in values.values()), expected


def _braid_equation(bf, *tensors):
    return bf.tensors.check_braid_equation(*tensors)


def verify_tensors_ops(bf, pools, rng):
    m2, m3 = itertools.cycle(pools[2]), itertools.cycle(pools[3])
    while True:
        seed, tensor = next(m3)
        yield Op("braid-equation", partial(_braid_equation, bf, tensor), _equals([]),
                 {"m": 3, "seed": seed})
        for _ in range(2):
            seed, tensor = next(m2)
            yield Op("braid-equation", partial(_braid_equation, bf, tensor), _equals([]),
                     {"m": 2, "seed": seed})
        # Two period-2 checks a round put the median op among them, where
        # costs do not depend on the seed, rather than between two clusters.
        for _ in range(2):
            (s1, t1), (s2, t2) = next(m2), next(m2)
            yield Op("braid-equation-period2", partial(_braid_equation, bf, t1, t2),
                     _equals([]), {"m": 2, "seeds": [s1, s2]})
        for strands in (2, 3, 4, 5, 6):
            seed, tensor = next(m2)
            w = random_word(bf, rng, strands, strands + 2)
            yield Op("trace-routes", partial(_trace_routes, bf, tensor, w), _routes_agree,
                     {"m": 2, "seed": seed, "word": word_text(w)})


# -- cli-blocks -----------------------------------------------------------------
# op = one in-process CLI call; exit code and stdout must match exactly.


def run_cli(bf, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bf.cli.main(argv)
    return code, out.getvalue()


def bracket_stdout(strands: int, letters) -> str:
    """The expected `invariant --type bracket` output, computed without braidforge.

    With the swap block representation the word's matrix is the permutation
    matrix of its underlying permutation, tr D = tr D1 = 0, and the bracket is
    twice the number of fixed points, printed with its modulus 2t = 2.
    """
    images = list(range(strands))
    for k in letters:
        i = abs(k) - 1
        images = [i + 1 if x == i else i if x == i + 1 else x for x in images]
    fixed = sum(1 for j, x in enumerate(images) if j == x)
    return f"{{'residue': '{2 * fixed}', 'modulus': '2'}}\n"


def cli_blocks_setup(bf, rng):
    return json.loads(GOLDEN_TABLES.read_text())


def cli_blocks_ops(bf, golden, rng):
    def op(argv, expected):
        return Op(argv[0], partial(run_cli, bf, argv), _equals(expected), {"argv": argv})

    for round_ in itertools.count():
        for series, m in (("I", 2), ("II", 2), ("III", 2), ("VI", 2),
                          ("I", 3), ("II", 3), ("III", 3)):
            seed = rng.randrange(1 << 20)
            argv = ["verify", "--mode", "relations", "--series", series,
                    "--m", str(m), "--seed", str(seed)]
            yield op(argv, (0, "PASS BRAID_ALGEBRA\n"))
        for invariant in INVARIANT_IDS:
            seed = rng.choice(TABLE_SEEDS)
            yield op(["table", "--type", invariant, "--seed", str(seed)],
                     (0, golden[invariant][str(seed)]))
        # The 16-strand brackets are the slowest ops and their cost grows
        # with the word's length, so lengths sweep n..2n in turn rather than
        # at random, and op_tail_ms does not depend on the lengths a seed drew.
        for strands in (8, 12, 16):
            w = random_word(bf, rng, strands, strands + round_ % (strands + 1))
            argv = ["invariant", "--type", "bracket", "--strands", str(strands),
                    "--word", w.text()]
            yield op(argv, (0, bracket_stdout(strands, w.letters)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tensor-m3", tensor_m3_setup, tensor_m3_ops, planned_ops=75, trace_ops=9),
        Workload("gbraid-m2", gbraid_m2_setup, gbraid_m2_ops, planned_ops=1150, trace_ops=150),
        Workload("verify-tensors", verify_tensors_setup, verify_tensors_ops,
                 planned_ops=220, trace_ops=20),
        Workload("cli-blocks", cli_blocks_setup, cli_blocks_ops, planned_ops=400, trace_ops=30),
    )
}
