"""In-memory spans around intval's public functions, for the traced run.

``Tracer.install`` wraps the functions and constructors listed in
``SPANS`` and ``COUNTERS`` from outside the package: each wrapped name is
replaced on its defining module or class and on every intval module that
imported it by name (``intval.cli.lebesgue_n``, ``intval.laws.bind``, ...),
and in the ``laws.FAMILIES`` registry.  Installation is for the life of
the process.

A span records its name, start, end and parent span.  Per name the
tracer keeps the call count, the total time (outermost calls only, so a
recursive call is not counted twice) and the self time (the span's time
minus the time of its direct child spans).  The first SPAN_CAP spans
are also kept whole, with their parent ids, and can be written out.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array
from typing import Callable, Dict, List

perf_counter_ns = time.perf_counter_ns

# (owner module, attribute or Class.method, span name)
SPANS = (
    ("cli", "main", "cli.main"),
    ("lebesgue", "lebesgue_n", "lebesgue.lebesgue_n"),
    ("lebesgue", "PiecewiseMonotoneFn.range_over", "lebesgue.range_over"),
    ("lebesgue", "PiecewiseMonotoneFn.__init__", "lebesgue.fn_construct"),
    ("lebesgue", "IntervalTestFn.__call__", "lebesgue.testfn"),
    ("literals", "parse_piecewise", "literals.parse_piecewise"),
    ("literals", "parse_poset", "literals.parse_poset"),
    ("literals", "parse_valuation", "literals.parse_valuation"),
    ("literals", "parse_fn", "literals.parse_fn"),
    ("literals", "parse_measure", "literals.parse_measure"),
    ("measures", "lower_integral", "measures.lower_integral"),
    ("measures", "choquet_integral", "measures.choquet_integral"),
    ("measures", "interval_integral", "measures.interval_integral"),
    ("spaces", "FinitePoset.__init__", "spaces.poset_build"),
    ("spaces", "product_poset", "spaces.product_poset"),
    ("spaces", "enumerate_posets", "spaces.enumerate_posets"),
    ("spaces", "all_monotone_maps", "spaces.all_monotone_maps"),
    ("monad", "Kernel.__init__", "monad.kernel_validate"),
    ("monad", "bind", "monad.bind"),
    ("monad", "kleisli_compose", "monad.kleisli_compose"),
    ("monad", "product", "monad.product"),
    ("valuations", "evaluate", "valuations.evaluate"),
    ("valuations", "eq_on", "valuations.eq_on"),
)

# (owner module, attribute, counter name): counted, not timed
COUNTERS = (
    ("algebra", "IntervalValue.__mul__", "algebra.ival_mul_calls"),
    ("algebra", "IntervalValue.__add__", "algebra.ival_add_calls"),
    ("valuations", "ElementaryValuation.__init__", "valuations.normalize_calls"),
)

# spans kept whole, with their parent ids, for writing out
SPAN_CAP = 50_000

LAYERS = ("algebra", "spaces", "valuations", "monad", "measures", "lebesgue", "literals", "laws", "cli")


class Tracer:
    def __init__(self, iv):
        self.iv = iv
        self.names: List[str] = []
        self.calls: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        self._active: List[int] = []
        self._stack: List[list] = []
        self._next_id = 0
        self.spans = array("q")  # id, name index, parent id, start ns, end ns
        self.counts: Dict[str, int] = {}
        self.cells_requested = 0
        self.depth_max = 0
        self.piecewise_chars = 0
        self.law_cases: Dict[str, int] = {}

    # ---- wrappers --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        for table in (self.calls, self.total_ns, self.self_ns, self._active):
            table.append(0)
        return len(self.names) - 1

    def span(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        nid = self._name_id(name)
        stack, calls, total, self_ns, active = (
            self._stack, self.calls, self.total_ns, self.self_ns, self._active
        )
        spans, tracer = self.spans, self

        def wrapper(*args, **kwargs):
            if before is not None and not before(args, kwargs):
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][2] if stack else -1
            frame = [0, 0, sid]  # child ns, start ns, span id
            stack.append(frame)
            active[nid] += 1
            t0 = frame[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                active[nid] -= 1
                dur = t1 - t0
                calls[nid] += 1
                self_ns[nid] += dur - frame[0]
                if not active[nid]:
                    total[nid] += dur
                if stack:
                    stack[-1][0] += dur
                if sid < SPAN_CAP:
                    spans.extend((sid, nid, parent, t0, t1))
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- installation ----------------------------------------------------

    def _replace(self, module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
        module = getattr(self.iv, module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            setattr(owner, attr, make(owner.__dict__[attr]))
        else:
            original = getattr(module, path)
            self._patch_everywhere(original, make(original))

    def _patch_everywhere(self, original: Callable, wrapped: Callable) -> None:
        """Replace every intval module attribute bound to ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "intval" or mod_name.startswith("intval."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def install(self) -> None:
        hooks = {
            "lebesgue.lebesgue_n": dict(before=self._on_level),
            "literals.parse_piecewise": dict(before=self._on_piecewise),
            "monad.kernel_validate": dict(before=_validates),
        }
        for module_name, path, name in SPANS:
            self._replace(
                module_name, path, lambda fn, name=name: self.span(name, fn, **hooks.get(name, {}))
            )
        for module_name, path, name in COUNTERS:
            self._replace(module_name, path, lambda fn, name=name: self.counter(name, fn))
        families = self.iv.laws.FAMILIES
        for family, fn in list(families.items()):
            wrapped = self.span(f"laws.{family}", fn, after=self._on_family(family))
            self._patch_everywhere(fn, wrapped)
            families[family] = wrapped

    # ---- hooks -----------------------------------------------------------

    def _on_level(self, args, kwargs) -> bool:
        n = args[0] if args else kwargs["n"]
        self.cells_requested += 2 ** n
        self.depth_max = max(self.depth_max, n)
        return True

    def _on_piecewise(self, args, kwargs) -> bool:
        self.piecewise_chars += len(args[0] if args else kwargs["text"])
        return True

    def _on_family(self, family: str):
        def after(result):
            self.law_cases[family] = self.law_cases.get(family, 0) + result.cases

        return after

    # ---- results ---------------------------------------------------------

    def metrics(self, families) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}_s"] = self.total_ns[nid] / 1e9
            out[f"{name}_self_s"] = self.self_ns[nid] / 1e9
            if not name.startswith("laws."):
                out[f"{name}_calls"] = self.calls[nid]
        for family in families:
            out[f"laws.{family}_cases"] = self.law_cases.get(family, 0)
        out.update(self.counts)
        out["lebesgue.cells_requested"] = self.cells_requested
        out["lebesgue.depth_max"] = self.depth_max
        out["lebesgue.ns_per_cell"] = (
            out["lebesgue.lebesgue_n_s"] * 1e9 / self.cells_requested if self.cells_requested else 0.0
        )
        parse_s = out["literals.parse_piecewise_s"]
        out["literals.input_kb_per_s"] = self.piecewise_chars / 1024 / parse_s if parse_s else 0.0
        return out

    def layer_self_s(self) -> Dict[str, float]:
        """Self time of all spans of each layer, in seconds."""
        out = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            out[name.split(".")[0]] += self.self_ns[nid] / 1e9
        return out

    def dump(self, path) -> None:
        doc = {
            "names": self.names,
            "fields": ["id", "name", "parent", "start_ns", "end_ns"],
            "spans_kept": len(self.spans) // 5,
            "spans_total": self._next_id,
            "spans": [list(self.spans[i : i + 5]) for i in range(0, len(self.spans), 5)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _validates(args, kwargs) -> bool:
    """Kernel.__init__ gets a span only when it runs the exhaustive check."""
    return kwargs.get("validate", True) and not kwargs.get("declared_monotone", False)


def op_costs(iv) -> Dict[str, float]:
    """Median ns per ival_mul / ival_add / mul_left over a fixed operand
    pool that includes the 0 and inf corners."""
    alg = iv.algebra
    scalars = [alg.ext(v) for v in ("0", "1/2", "1", "3", "7/2", "inf")]
    pool = [
        alg.ival(lo, hi)
        for lo, hi in (("0", "0"), ("0", "inf"), ("inf", "inf"), ("1/2", "3"), ("2", "2"), ("1/3", "7/2"))
    ]
    pairs = [(a, b) for a in pool for b in pool]
    scalar_pairs = [(a, b) for a in scalars for b in scalars]
    cases = {
        "algebra.ival_mul_ns": (alg.ival_mul, pairs),
        "algebra.ival_add_ns": (alg.ival_add, pairs),
        "algebra.mul_left_ns": (alg.mul_left, scalar_pairs),
    }
    out = {}
    for name, (op, operands) in cases.items():
        samples = []
        for _ in range(5):
            t0 = perf_counter_ns()
            for _ in range(200):
                for a, b in operands:
                    op(a, b)
            samples.append((perf_counter_ns() - t0) / (200 * len(operands)))
        out[name] = statistics.median(samples)
    return out
