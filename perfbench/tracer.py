"""Per-layer tracing by wrapping the public functions of each eulersym module.

The wrappers live here, not in the program: `Tracer.install()` replaces the
`MultiPoly` operators and the module functions with timing wrappers, in
every module that holds a reference to them (names imported with
`from ... import` are separate bindings and are patched one by one). Spans
are kept in memory and written out by `write_spans`; `metrics()` folds them
into the per-layer metrics. A span's self time is its duration minus the
durations of its direct child spans.

Install only in a process that runs nothing else afterwards: the patches
are not undone.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

NS = 1e-9

# Span names whose call counts, self time or sizes feed the metrics.
MUL, ADD = "mpoly.mul", "mpoly.add"
SUBSTITUTE, EVALUATE, BINOM = "mpoly.substitute", "mpoly.evaluate", "mpoly.binom_poly"
POLYFAM, SEQUENCES = "polyfam", "sequences"
VERIFY, SIDES, MAIN = "identities.verify", "identities.sides", "cli.main"

MPOLY_METHODS = {
    "__add__": ADD, "__radd__": ADD, "__mul__": MUL, "__rmul__": MUL,
    "__sub__": "mpoly.sub", "__rsub__": "mpoly.sub", "__neg__": "mpoly.neg",
    "__truediv__": "mpoly.truediv", "__pow__": "mpoly.pow",
    "substitute": SUBSTITUTE, "evaluate": EVALUATE,
}
POLYFAM_FUNCS = ("bernoulli_poly", "euler_poly", "bernoulli_poly_shifted",
                 "euler_poly_shifted", "appell_poly_at")
SEQUENCE_FUNCS = ("bernoulli_number", "euler_number", "b_tilde", "euler_at_zero")
SIDE_BUILDERS = ("thm12_sides", "cor11_sides", "thm11_part1_sides", "thm11_part2_sides",
                 "remark11_sides", "lemma21_residual", "lemma22_sides",
                 "chu_vandermonde_sides")

# Counters kept outside the spans, by the wrappers' `after` hooks.
COUNTED = ("mpoly.mul.term_pairs", "mpoly.mul.out_terms", "mpoly.add.copied_terms",
           "mpoly.peak_terms", "identities.compositions", "exact.binom_int.calls")


def _size(x) -> int:
    return len(x) if hasattr(x, "terms") else 1


class Tracer:
    """Holds the spans and counters of one traced process."""

    def __init__(self) -> None:
        # (span id, parent id or -1, request, name, start ns, end ns, self ns)
        self.spans: list[tuple[int, int, int, str, int, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.request = -1
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, self.request, name, start, end,
                              end - start - frame[1]))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _compositions(self, fn):
        counts = self.counts

        def compositions(n, m):
            for ks in fn(n, m):
                counts["identities.compositions"] += 1
                yield ks

        return compositions

    def _after_op(self, name: str):
        counts = self.counts

        def after(args, result):
            size = _size(result)
            if size > counts["mpoly.peak_terms"]:
                counts["mpoly.peak_terms"] = size
            if name == MUL:
                counts["mpoly.mul.term_pairs"] += _size(args[0]) * _size(args[1])
                counts["mpoly.mul.out_terms"] += size
            elif name == ADD:
                counts["mpoly.add.copied_terms"] += _size(args[0])

        return after

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        from eulersym import cli, exact, identities, mpoly, polyfam, sequences

        cls = mpoly.MultiPoly
        for attr, name in MPOLY_METHODS.items():
            after = None if name == EVALUATE else self._after_op(name)
            setattr(cls, attr, self._wrap(name, getattr(cls, attr), after))

        def patch(modules, attr, wrapper):
            for module in modules:
                if hasattr(module, attr):
                    setattr(module, attr, wrapper)

        patch((mpoly, identities), "binom_poly",
              self._wrap(BINOM, mpoly.binom_poly, self._after_op(BINOM)))
        patch((identities,), "compositions", self._compositions(mpoly.compositions))
        for attr in POLYFAM_FUNCS:
            patch((polyfam, identities, cli), attr, self._wrap(POLYFAM, getattr(polyfam, attr)))
        for attr in SEQUENCE_FUNCS:
            patch((sequences, polyfam, identities, cli), attr,
                  self._wrap(SEQUENCES, getattr(sequences, attr)))
        patch((exact, polyfam, sequences), "binom_int",
              self._counted("exact.binom_int.calls", exact.binom_int))
        for attr in SIDE_BUILDERS:
            patch((identities,), attr, self._wrap(SIDES, getattr(identities, attr)))
        patch((identities, cli), "verify", self._wrap(VERIFY, identities.verify))
        patch((cli,), "main", self._wrap(MAIN, cli.main))

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); unit "count" marks exact counts."""
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        dur_ns: Counter[str] = Counter()
        names = {}
        for span_id, _parent, _req, name, start, end, own in self.spans:
            calls[name] += 1
            self_ns[name] += own
            dur_ns[name] += end - start
            names[span_id] = name
        # Builders called from verify are top level; remark11 nests two more.
        top_sides_ns = sum(end - start for _id, parent, _r, name, start, end, _o in self.spans
                           if name == SIDES and names.get(parent) == VERIFY)
        out = {name: (self.counts[name], "count") for name in COUNTED}
        for name in (MUL, ADD, SUBSTITUTE, EVALUATE, BINOM, POLYFAM, SEQUENCES):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_ns[name] * NS, "s")
        out[f"{VERIFY}.calls"] = (calls[VERIFY], "count")
        pairs = self.counts["mpoly.mul.term_pairs"]
        merge = self.counts["mpoly.mul.out_terms"] / pairs if pairs else 0.0
        out["mpoly.mul.merge_ratio"] = (merge, "ratio")
        rate = pairs / (self_ns[MUL] * NS) if self_ns[MUL] else 0.0
        out["mpoly.mul.pairs_per_s"] = (rate, "1/s")
        out["identities.sides_s"] = (top_sides_ns * NS, "s")
        out["identities.sides.self_s"] = (self_ns[SIDES] * NS, "s")
        out["identities.cancel_s"] = ((dur_ns[VERIFY] - top_sides_ns) * NS, "s")
        out["cli.self_s"] = ((dur_ns[MAIN] - dur_ns[VERIFY]) * NS, "s")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, req, name, start, end, own in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": req,
                                     "name": name, "start_ns": start, "end_ns": end,
                                     "self_ns": own}) + "\n")
