"""Light per-layer tracing of braidforge from outside the library.

The tracer replaces public functions and methods of each braidforge module
with thin wrappers that count calls and record CPU spans.  A wrapped call's
self time is its span minus the spans of wrapped calls made inside it, so
every CPU second of a traced pass is charged to exactly one layer (or to the
benchmark itself, when no wrapped call is active).  cProfile is not used: it
charges every Python call, including the many unwrapped helpers, and inflated
G-braid work about 3.5x in probes, which distorts the layer shares.

Wrappers are installed on every binding of a target: a function imported by
name into several modules (``mat_inverse`` lives in matrix, tensors,
invariants, blockreps, presets and the package namespace) is replaced in all
of them, and a method is replaced on its class together with its aliases
(``LaurentPoly.__rmul__ is __mul__``).  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Wrapped targets: (metric name, module, attribute path, how).
#   "span"  counts calls and records self time,
#   "count" counts calls only (for very hot, cheap calls).
# A name's layer is the text before its first dot.  Targets without a metric
# of their own still count toward their layer's self_s.
TARGETS = (
    ("rings.laurent_mul", "rings", "LaurentPoly.__mul__", "span"),
    ("rings.laurent_add", "rings", "LaurentPoly.__add__", "span"),
    ("rings.laurent_exact_div", "rings", "LaurentPoly.exact_div", "span"),
    ("matrix.init", "matrix", "RingMatrix.__init__", "count"),
    ("matrix.mul", "matrix", "RingMatrix.__mul__", "span"),
    ("matrix.pow", "matrix", "RingMatrix.__pow__", "span"),
    ("matrix.det", "matrix", "mat_det", "span"),
    ("matrix.inverse", "matrix", "mat_inverse", "span"),
    ("matrix.char_poly", "matrix", "char_poly", "span"),
    ("braids.random_markov_perturbation", "braids", "random_markov_perturbation", "span"),
    ("braids.markov_move", "braids", "markov_move", "span"),
    ("braids.parse_braid_word", "braids", "parse_braid_word", "span"),
    ("braids.underlying_permutation", "braids", "underlying_permutation", "span"),
    ("blockreps.rep_from_word", "blockreps", "rep_from_word", "span"),
    ("blockreps.check_relation_set", "blockreps", "check_relation_set", "span"),
    ("blockreps.series_constructor", "blockreps", "series_constructor", "span"),
    ("tensors.partial_trace_scalars", "tensors", "partial_trace_scalars", "span"),
    ("tensors.tensor_inverse", "tensors", "tensor_inverse", "span"),
    ("tensors.check_braid_equation", "tensors", "check_braid_equation", "span"),
    ("tensors.apply_rows", "tensors", "SlotOperator.apply_rows", "span"),
    ("tensors.trace", "tensors", "tensor_rep_trace", "span"),
    ("invariants.gbraid_from_braid", "invariants", "gbraid_from_braid", "span"),
    ("invariants.component_products", "invariants", "component_products", "span"),
    ("invariants.simplicity_check", "invariants", "simplicity_check", "span"),
    ("invariants.label_a", "invariants", "LabelScheme.a", "span"),
    ("invariants.label_b", "invariants", "LabelScheme.b", "span"),
    ("invariants.verify_compatibility", "invariants", "LabelScheme.verify_compatibility", "span"),
    ("invariants.tensor_trace_invariant", "invariants", "tensor_trace_invariant", "span"),
    ("invariants.charpoly_class_invariant", "invariants", "charpoly_class_invariant", "span"),
    ("invariants.charpoly_family_invariant", "invariants", "charpoly_family_invariant", "span"),
    ("invariants.group_trace_invariant", "invariants", "group_trace_invariant", "span"),
    ("invariants.bracket_invariant", "invariants", "bracket_invariant", "span"),
    ("presets.invariant_function", "presets", "invariant_function", "span"),
    ("cli.main", "cli", "main", "span"),
)

# Per-layer metrics reported by a traced run, in output order, with units.
# ".calls" and the ratios are exact counts; ".self_s" are CPU seconds.
PER_LAYER = (
    ("rings.laurent_mul.calls", "count"),
    ("rings.laurent_add.calls", "count"),
    ("rings.laurent_exact_div.calls", "count"),
    ("rings.self_s", "s"),
    ("matrix.mul.calls", "count"),
    ("matrix.mul.self_s", "s"),
    ("matrix.det.calls", "count"),
    ("matrix.det.self_s", "s"),
    ("matrix.inverse.calls", "count"),
    ("matrix.inverse.self_s", "s"),
    ("matrix.char_poly.calls", "count"),
    ("matrix.char_poly.self_s", "s"),
    ("matrix.pow.calls", "count"),
    ("matrix.pow.self_s", "s"),
    ("matrix.init.calls", "count"),
    ("matrix.det_per_inverse", "ratio"),
    ("matrix.inverse.distinct_ratio", "ratio"),
    ("matrix.self_s", "s"),
    ("tensors.partial_trace_scalars.calls", "count"),
    ("tensors.partial_trace_scalars.self_s", "s"),
    ("tensors.partial_trace_scalars.distinct_ratio", "ratio"),
    ("tensors.tensor_inverse.calls", "count"),
    ("tensors.tensor_inverse.self_s", "s"),
    ("tensors.check_braid_equation.calls", "count"),
    ("tensors.check_braid_equation.self_s", "s"),
    ("tensors.apply_rows.calls", "count"),
    ("tensors.apply_rows.self_s", "s"),
    ("tensors.trace_slots.calls", "count"),
    ("tensors.trace_slots.self_s", "s"),
    ("tensors.trace_contract.calls", "count"),
    ("tensors.trace_contract.self_s", "s"),
    ("tensors.trace_dense.calls", "count"),
    ("tensors.trace_dense.self_s", "s"),
    ("tensors.self_s", "s"),
    ("invariants.gbraid_from_braid.calls", "count"),
    ("invariants.gbraid_from_braid.self_s", "s"),
    ("invariants.component_products.calls", "count"),
    ("invariants.component_products.self_s", "s"),
    ("invariants.simplicity_check.calls", "count"),
    ("invariants.simplicity_check.self_s", "s"),
    ("invariants.label_a.calls", "count"),
    ("invariants.label_a.distinct_ratio", "ratio"),
    ("invariants.label_b.calls", "count"),
    ("invariants.verify_compatibility.calls", "count"),
    ("invariants.self_s", "s"),
    ("braids.random_markov_perturbation.calls", "count"),
    ("braids.random_markov_perturbation.self_s", "s"),
    ("braids.self_s", "s"),
    ("blockreps.rep_from_word.calls", "count"),
    ("blockreps.rep_from_word.self_s", "s"),
    ("blockreps.check_relation_set.calls", "count"),
    ("blockreps.check_relation_set.self_s", "s"),
    ("blockreps.series_constructor.calls", "count"),
    ("blockreps.series_constructor.self_s", "s"),
    ("blockreps.self_s", "s"),
    ("presets.invariant_function.calls", "count"),
    ("presets.invariant_function.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)

LAYERS = ("rings", "matrix", "tensors", "invariants", "braids", "blockreps")
PACKAGE = "braidforge"

# Metrics that must repeat exactly when the same pass is traced twice.
EXACT = tuple(
    name
    for name, _ in PER_LAYER
    if name.endswith((".calls", "det_per_inverse", "distinct_ratio"))
)


# The value-identity of the input whose repeats each distinct_ratio counts.
DISTINCT_KEYS = {
    "matrix.inverse": lambda a: (a.ring.name, a.entries),
    "tensors.partial_trace_scalars": lambda t: (t.m, t.ring.name, t.entries),
    "invariants.label_a": lambda scheme, s: (scheme, s),
}


def _trace_method(args, kwargs):
    """The route tensor_rep_trace takes, resolving "auto" as it documents."""
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    if method == "auto":
        method = "slots" if args[0].pair is not None else "contract"
    return f"tensors.trace_{method}"


class Tracer:
    """Call counts, self CPU time and distinct inputs per wrapped target."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.distinct = defaultdict(set)
        self.det_in_inverse = 0
        self._inverse_depth = 0
        self._stack = []  # one [child seconds] cell per active span
        self._saved = []  # (owner, attribute, original) for uninstall

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        calls, self_s, distinct, stack = self.calls, self.self_s, self.distinct, self._stack
        clock = time.process_time
        key_of = DISTINCT_KEYS.get(name)
        is_inverse = name == "matrix.inverse"
        is_det = name == "matrix.det"
        is_trace = name == "tensors.trace"
        tracer = self

        def wrapper(*args, **kwargs):
            key = _trace_method(args, kwargs) if is_trace else name
            calls[key] += 1
            if key_of:
                distinct[key].add(key_of(*args))
            if is_det and tracer._inverse_depth:
                tracer.det_in_inverse += 1
            if is_inverse:
                tracer._inverse_depth += 1
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                self_s[key] += spent - cell[0]
                if stack:
                    stack[-1][0] += spent
                if is_inverse:
                    tracer._inverse_depth -= 1

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target in the loaded package; return targets not found."""
        modules = [
            mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None
            and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
        ]
        missing = []
        for name, mod_name, path, how in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                missing.append(name)
                continue
            wrapped = (self._span if how == "span" else self._count)(name, original)
            # Every binding of the same object: aliases on the class, or the
            # function imported by name into other modules.
            owners = [owner] if owner_name else modules
            for target in owners:
                for binding, value in list(vars(target).items()):
                    if value is original:
                        self._saved.append((target, binding, original))
                        setattr(target, binding, wrapped)
        return missing

    def uninstall(self):
        for owner, binding, original in reversed(self._saved):
            setattr(owner, binding, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except the trace overhead pair."""
        out: dict[str, float] = {}
        for name, _ in PER_LAYER:
            if name.startswith("trace."):
                continue
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[base]
            elif kind == "distinct_ratio":
                calls = self.calls[base]
                out[name] = len(self.distinct[base]) / calls if calls else 0.0
            elif name == "matrix.det_per_inverse":
                calls = self.calls["matrix.inverse"]
                out[name] = self.det_in_inverse / calls if calls else 0.0
            elif kind == "self_s" and base in LAYERS:
                out[name] = sum(
                    s for key, s in self.self_s.items() if key.split(".")[0] == base
                )
            else:
                out[name] = self.self_s[base]
        return out
