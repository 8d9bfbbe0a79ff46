"""Span recording around the public functions of each maxclass layer.

The package's source is not edited: `install` rebinds each layer
function, in every loaded module that holds it, to a wrapper that
appends one span (name, start, end, parent) to an in-memory list.
Nothing is written until `write_spans`; a round that does not trace
never imports this module.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute, span name); rank is split by field in _rank_name
LAYERS = [
    ("maxclass.cochain", "basis", "cochain.basis"),
    ("maxclass.cochain", "differential_matrix", "cochain.differential_matrix"),
    ("maxclass.cochain", "differential", "cochain.differential"),
    ("maxclass.linalg", "rank", None),
    ("maxclass.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("maxclass.linalg", "solve_in_image", "linalg.solve_in_image"),
    ("maxclass.cohomology", "betti", "cohomology.betti"),
    ("maxclass.cohomology", "representatives", "cohomology.representatives"),
    ("maxclass.cohomology", "class_coordinates", "cohomology.class_coordinates"),
    ("maxclass.cohomology", "is_exact", "cohomology.is_exact"),
    ("maxclass.explicit", "omega", "explicit.omega"),
    ("maxclass.explicit", "w_cocycle", "explicit.w_cocycle"),
    ("maxclass.explicit", "cup_formula", "explicit.cup_formula"),
    ("maxclass.dixmier", "verify_exactness", "dixmier.verify_exactness"),
    ("maxclass.laplacian", "harmonic_basis", "laplacian.harmonic_basis"),
    ("maxclass.sl2", "primitive_basis", "sl2.primitive_basis"),
]

CALLS = ["cochain.basis", "cochain.differential_matrix", "cochain.differential",
         "linalg.rank.qq", "linalg.rank.fp", "linalg.kernel_basis",
         "linalg.solve_in_image", "cohomology.betti", "cohomology.representatives",
         "cohomology.class_coordinates", "cohomology.is_exact"]
SELF_ONLY = ["explicit.omega", "explicit.w_cocycle", "explicit.cup_formula",
             "dixmier.verify_exactness", "laplacian.harmonic_basis",
             "sl2.primitive_basis"]


def _rank_name(M) -> str:
    return "linalg.rank.qq" if M.field.characteristic == 0 else "linalg.rank.fp"


class Tracer:
    """In-memory span list plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; name is a string or a
        function of the call's first argument; after(args, result)
        updates counters."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name if isinstance(name, str) else name(args[0]),
                    0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self):
        """Rebind every layer function in every loaded maxclass module
        that holds it."""
        import maxclass.algebra as algebra

        modules = [m for n, m in sys.modules.items()
                   if n.startswith("maxclass") and m is not None]
        counts = self.counts

        def after_rank(args, _result):
            M = args[0]
            counts["linalg.rank.dense_entries"] += M.rows * M.cols

        def after_matrix(_args, M):
            counts["cochain.differential_matrix.nnz"] += len(M.entries)

        after = {"rank": after_rank, "differential_matrix": after_matrix}
        for mod_name, attr, span_name in LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(span_name or _rank_name, original, after.get(attr))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

        bracket = algebra.GradedAlgebra.bracket

        def counted_bracket(self_, i, j):
            counts["algebra.bracket.calls"] += 1
            return bracket(self_, i, j)

        algebra.GradedAlgebra.bracket = counted_bracket

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the counters."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out: dict[str, float] = {}
        for name in CALLS + SELF_ONLY:
            if name in CALLS:
                out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = total[name] - child[name]
        out["algebra.bracket.calls"] = self.counts["algebra.bracket.calls"]
        out["cochain.differential_matrix.nnz"] = self.counts["cochain.differential_matrix.nnz"]
        out["linalg.rank.dense_entries"] = self.counts["linalg.rank.dense_entries"]
        ranks = calls["linalg.rank.qq"] + calls["linalg.rank.fp"]
        out["cohomology.eliminations_per_cell"] = \
            ranks / calls["cohomology.betti"] if calls["cohomology.betti"] else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
