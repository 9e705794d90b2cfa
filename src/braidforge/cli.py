"""Command-line interface: verify relation catalogs, compute invariants,
and tabulate invariant values over the builtin link fixtures.

Subcommands:
  verify     run a relation-set, braid-equation, or Markov-invariance check
  invariant  evaluate one invariant on one braid word, JSON or plain output
  table      CSV of invariant values over builtin fixtures and their Markov
             variants; variant rows must match their base rows

The environment variable BRAIDFORGE_SEED, when set, overrides --seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from .blockreps import check_relation_set, series_blocks
from .braids import BraidWord, Conjugate, Stabilize, markov_move, parse_braid_word
from .errors import BraidforgeError, InvalidSpec, ParseError
from .invariants import (
    InvariantReport,
    markov_invariance_suite,
    value_to_jsonable,
)
from .matrix import RingMatrix
from .presets import (
    FIXTURES,
    INVARIANT_IDS,
    invariant_function,
    standard_tensor,
    seeded_matrix,
)
from .rings import LAURENT, RATIONAL, LaurentPoly
from .tensors import check_braid_equation, identity_tensor, swap_tensor


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidforge",
        description="Exact braid-group representations and link invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--mode",
        required=True,
        choices=("relations", "braid-equation", "markov"),
    )
    p_verify.add_argument("--series", default="II", type=str.upper,
                          choices=("I", "II", "III", "VI"),
                          help="series for relations mode")
    p_verify.add_argument(
        "--set", dest="relation_set", default="BRAID_ALGEBRA",
        help="relation catalog for relations mode",
    )
    p_verify.add_argument(
        "--degenerate",
        action="store_true",
        help="relations mode: use the all-identity assignment instead of a series",
    )
    p_verify.add_argument(
        "--tensor",
        default="standard",
        choices=("standard", "identity", "swap"),
        help="tensor choice for braid-equation mode",
    )
    p_verify.add_argument("--type", dest="invariant", default="tensor-trace",
                          choices=INVARIANT_IDS)
    p_verify.add_argument("--strands", type=int, default=2)
    p_verify.add_argument("--word", default="1")
    p_verify.add_argument("--trials", type=int, default=5)
    p_verify.add_argument("--m", type=int, default=2)
    p_verify.add_argument("--t", default="1")
    p_verify.add_argument("--seed", type=int, default=0)

    p_inv = sub.add_parser("invariant", help="compute one invariant")
    p_inv.add_argument("--type", dest="invariant", required=True,
                       choices=INVARIANT_IDS)
    p_inv.add_argument("--strands", type=int, required=True)
    p_inv.add_argument("--word", required=True)
    p_inv.add_argument("--m", type=int, default=2)
    p_inv.add_argument("--t", default="1")
    p_inv.add_argument("--seed", type=int, default=0)
    p_inv.add_argument("--json", action="store_true")

    p_table = sub.add_parser("table", help="CSV over builtin fixtures")
    p_table.add_argument("--type", dest="invariant", required=True,
                         choices=INVARIANT_IDS)
    p_table.add_argument("--m", type=int, default=2)
    p_table.add_argument("--t", default="1")
    p_table.add_argument("--seed", type=int, default=0)
    return parser


def _effective_seed(args) -> int:
    env = os.environ.get("BRAIDFORGE_SEED")
    if not env:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise ParseError(f"BRAIDFORGE_SEED must be an integer, got {env!r}") from None


def cmd_verify(args) -> int:
    seed = _effective_seed(args)
    if args.mode == "relations":
        # The requested catalog is the only check: the blocks are taken
        # without a BlockRep, which would check BRAID_ALGEBRA and invert.
        if args.degenerate:
            blocks = (RingMatrix.identity(RATIONAL, 1),) * 4
        elif args.series == "VI":
            blocks = series_blocks("VI", (1, 2))
        elif args.series == "II" and args.m == 1:
            blocks = series_blocks("II", RingMatrix(LAURENT, [[LaurentPoly.var()]]))
        else:
            blocks = series_blocks(args.series, seeded_matrix(args.m, seed))
        violated = check_relation_set(dict(zip("ABCD", blocks)), args.relation_set)
        for label in violated:
            print(f"FAIL {label}")
        if not violated:
            print(f"PASS {args.relation_set}")
        return 0 if not violated else 1
    if args.mode == "braid-equation":
        if args.tensor == "identity":
            tensor = identity_tensor(args.m, RATIONAL)
        elif args.tensor == "swap":
            tensor = swap_tensor(args.m, RATIONAL)
        else:
            tensor = standard_tensor(args.m, seed)
        violations = check_braid_equation(tensor)
        for name, idx in violations[:20]:
            print(f"FAIL {name} at {idx}")
        if not violations:
            print("PASS braid-equation")
        return 0 if not violations else 1
    # Markov mode.
    word = parse_braid_word(args.word, args.strands)
    fn = invariant_function(args.invariant, args.m, args.t, seed)
    report = markov_invariance_suite(fn, word, args.trials, seed)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} markov {args.invariant} trials={report.trials}")
    base = value_to_jsonable(report.base_value)
    for mismatch in report.mismatches:
        record = {
            "trial": mismatch.trial,
            "trial_seed": mismatch.trial_seed,
            "word": mismatch.word.to_jsonable(),
            "value": value_to_jsonable(mismatch.value),
            "base_value": base,
        }
        print(f"mismatch {json.dumps(record, sort_keys=True)}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_invariant(args) -> int:
    seed = _effective_seed(args)
    word = parse_braid_word(args.word, args.strands)
    fn = invariant_function(args.invariant, args.m, args.t, seed)
    value = value_to_jsonable(fn(word))
    report = InvariantReport(
        invariant=args.invariant,
        value=value,
        braid=word.to_jsonable(),
        parameters={"m": args.m, "t": str(args.t), "seed": seed},
    )
    if args.json:
        print(report.to_json())
    else:
        print(value)
    return 0


def _fixture_rows(invariant: str, m: int, t, seed: int):
    fn = invariant_function(invariant, m, t, seed)
    rows = []
    all_match = True
    for name, strands, text in FIXTURES:
        base = parse_braid_word(text, strands)
        base_value = fn(base)
        rows.append((name, strands, text, base_value, ""))
        variants = [
            ("conjugate", markov_move(base, Conjugate(BraidWord(strands, (1,))))
             if strands >= 2 else base),
            ("stabilize", markov_move(base, Stabilize(1))),
        ]
        for vname, vword in variants:
            value = fn(vword)
            match = value == base_value
            all_match = all_match and match
            rows.append(
                (f"{name}+{vname}", vword.strands, vword.text(), value,
                 "yes" if match else "NO")
            )
    return rows, all_match


def cmd_table(args) -> int:
    seed = _effective_seed(args)
    rows, all_match = _fixture_rows(args.invariant, args.m, args.t, seed)
    writer = csv.writer(sys.stdout)
    writer.writerow(["fixture", "strands", "word", "value", "matches_base"])
    for name, strands, text, value, match in rows:
        writer.writerow([name, strands, text, _csv_value(value), match])
    return 0 if all_match else 1


def _csv_value(value) -> str:
    rendered = value_to_jsonable(value)
    if isinstance(rendered, str):
        return rendered
    return json.dumps(rendered)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call and kept; callers of
    build_parser get a new parser each, so changing one cannot reach main."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code: 0 pass, 1 a failed check,
    2 a configuration error.  One parser serves every call in a process
    (parsing does not change it); BRAIDFORGE_SEED is read on every call."""
    args = _parser().parse_args(argv)
    try:
        if args.m < 1:
            raise InvalidSpec(f"--m must be at least 1, got {args.m}")
        if args.command == "verify" and args.trials < 1:
            raise InvalidSpec(f"--trials must be at least 1, got {args.trials}")
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "invariant":
            return cmd_invariant(args)
        return cmd_table(args)
    except BraidforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
