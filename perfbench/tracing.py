"""In-memory span tracing around the public functions of fiberprod's layers.

The benchmark installs wrappers on module attributes (and on the
`MonomialIdeal.contains_monomial` method) for the traced run only, and
removes them before any untraced timing.  Private helpers are never wrapped,
so the oracle's internals can change without touching the benchmark.

Each wrapped call is a frame on a stack.  A frame's self time is its
duration minus the durations of the traced calls it made, so per operation
the self times of all frames sum to the root frame (`cli.run`).  Calls of
`HOT` functions (millions per run) are not kept as spans; they are summed per
operation and per layer.  Every other call is kept as a span: name, start,
end, parent span and operation id.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (module name, attribute path, layer name)
TARGETS = (
    ("cli", "run", "cli.run"),
    ("cli", "load_scenario", "cli.load_scenario"),
    ("cli", "validate_payload", "cli.validate_payload"),
    ("cli", "run_verify", "cli.run_verify"),
    ("oracle", "resolve", "oracle.resolve"),
    ("oracle", "poincare_truncation", "oracle.poincare_truncation"),
    ("oracle", "kbasis", "oracle.kbasis"),
    ("oracle", "monomials_of_degree", "oracle.monomials_of_degree"),
    ("oracle", "MonomialIdeal.contains_monomial", "oracle.contains_monomial"),
    ("series", "mul", "series.mul"),
    ("series", "invert", "series.invert"),
    ("series", "expand", "series.expand"),
    ("fiber", "fiber_series", "fiber.fiber_series"),
    ("fiber", "betti_bound", "fiber.betti_bound"),
    ("structure", "depth_rule", "structure.depth_rule"),
    ("structure", "classify", "structure.classify"),
)

HOT = frozenset({"oracle.kbasis", "oracle.monomials_of_degree", "oracle.contains_monomial"})

# monomials_of_degree recurses through its module attribute; only the
# outermost call of a recursion is a layer call.
OUTERMOST_ONLY = frozenset({"oracle.monomials_of_degree"})

LAYERS = tuple(name for _, _, name in TARGETS)


def _resolve_attr(modules: dict, module: str, path: str) -> Tuple[object, str, Callable]:
    """(owner, attribute name, current callable) for one target.  Methods
    are read from the class __dict__, so a function comes back unbound."""
    owner = modules[module]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, fn


def originals(modules: dict) -> Dict[str, Callable]:
    """The callables currently installed, keyed by layer name."""
    return {name: _resolve_attr(modules, module, path)[2] for module, path, name in TARGETS}


def wrapped_layers(modules: dict, reference: Dict[str, Callable]) -> List[str]:
    """Layers whose current callable is not the reference one."""
    return [name for name, fn in originals(modules).items() if fn is not reference[name]]


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._saved: List[Tuple[object, str, Callable]] = []
        self._stack: List[list] = []  # shared with the wrappers; cleared in place
        self._active: Dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        self.spans: List[dict] = []
        self.op_layers: List[Dict[str, List[float]]] = []  # per op: name -> [calls, s, self_s]
        self.op_roots: List[float] = []
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.monomials_enumerated = 0
        self.enumerated_in_kbasis = 0
        self.kbasis_kept = 0
        self.kbasis_keys: set = set()
        self._stack.clear()
        self._active.clear()
        self._op = -1

    # --- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, path, name in TARGETS:
            owner, attr, fn = _resolve_attr(self.modules, module, path)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- recording ---------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str) -> Callable:
        hot = name in HOT
        outermost_only = name in OUTERMOST_ONLY
        stack, active = self._stack, self._active
        tracer = self

        def traced(*args, **kwargs):
            if outermost_only and active[name]:
                return fn(*args, **kwargs)
            if not stack:
                tracer._begin_op()
            span_id = None if hot else len(tracer.spans)
            if span_id is not None:
                tracer.spans.append(None)  # reserve the id; filled on exit
            frame = [name, 0.0, span_id]
            active[name] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                tracer._end(frame, start, end)
            tracer._count(name, args, result)
            return result

        return traced

    def _begin_op(self) -> None:
        self._op += 1
        self.op_layers.append(defaultdict(lambda: [0, 0.0, 0.0]))
        self.op_roots.append(0.0)

    def _end(self, frame: list, start: float, end: float) -> None:
        name, child, span_id = frame
        dur = end - start
        self_s = dur - child
        stack = self._stack
        if stack:
            stack[-1][1] += dur
        else:
            self.op_roots[self._op] = dur
        for acc in (self.op_layers[self._op][name], self.totals[name]):
            acc[0] += 1
            acc[1] += dur
            acc[2] += self_s
        if span_id is not None:
            parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            self.spans[span_id] = {
                "op": self._op, "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "self": self_s,
            }

    def _count(self, name: str, args: tuple, result) -> None:
        if name == "oracle.monomials_of_degree":
            self.monomials_enumerated += len(result)
            if self._stack and self._stack[-1][0] == "oracle.kbasis":
                self.enumerated_in_kbasis += len(result)
        elif name == "oracle.kbasis":
            self.kbasis_kept += len(result)
            self.kbasis_keys.add((args[0], args[1]))

    # --- results -------------------------------------------------------------------

    def self_time_defects(self, tolerance: float = 1e-6) -> List[int]:
        """Operations whose layer self times do not sum to the root span."""
        return [
            op for op, (layers, root) in enumerate(zip(self.op_layers, self.op_roots))
            if abs(sum(v[2] for v in layers.values()) - root) > tolerance
        ]

    def counts(self) -> Dict[str, int]:
        """Every call count; repeats exactly for identical inputs."""
        out = {f"{name}.calls": int(self.totals[name][0]) for name in LAYERS}
        out["oracle.monomials_of_degree.monomials"] = self.monomials_enumerated
        out["oracle.kbasis.kept"] = self.kbasis_kept
        out["oracle.kbasis.distinct"] = len(self.kbasis_keys)
        return out

    def layer_metrics(self) -> Dict[str, float]:
        t = self.totals
        calls = {name: t[name][0] for name in LAYERS}
        m: Dict[str, float] = {}
        m["oracle.contains_monomial.calls"] = calls["oracle.contains_monomial"]
        m["oracle.contains_monomial.s"] = t["oracle.contains_monomial"][1]
        m["oracle.monomials_of_degree.calls"] = calls["oracle.monomials_of_degree"]
        m["oracle.monomials_of_degree.s"] = t["oracle.monomials_of_degree"][1]
        m["oracle.monomials_of_degree.monomials"] = self.monomials_enumerated
        m["oracle.kbasis.calls"] = calls["oracle.kbasis"]
        m["oracle.kbasis.s"] = t["oracle.kbasis"][1]
        m["oracle.kbasis.distinct_ratio"] = (
            len(self.kbasis_keys) / calls["oracle.kbasis"] if calls["oracle.kbasis"] else 0.0
        )
        m["oracle.kbasis.kept_ratio"] = (
            self.kbasis_kept / self.enumerated_in_kbasis if self.enumerated_in_kbasis else 0.0
        )
        m["oracle.resolve.calls"] = calls["oracle.resolve"]
        m["oracle.resolve.self_s"] = t["oracle.resolve"][2]
        m["oracle.poincare_truncation.calls"] = calls["oracle.poincare_truncation"]
        m["oracle.poincare_truncation.s"] = t["oracle.poincare_truncation"][1]
        m["cli.validate_payload.calls"] = calls["cli.validate_payload"]
        m["cli.validate_payload.s"] = t["cli.validate_payload"][1]
        m["cli.load_scenario.s"] = t["cli.load_scenario"][1]
        m["cli.run.self_s"] = t["cli.run"][2]
        m["cli.run_verify.self_s"] = t["cli.run_verify"][2]
        for name in ("series.mul", "series.invert", "series.expand", "fiber.fiber_series",
                     "fiber.betti_bound", "structure.depth_rule", "structure.classify"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = t[name][1]
        return m

    def write(self, path, meta: dict) -> None:
        """Spans, then one summary line per operation, as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for op, (layers, root) in enumerate(zip(self.op_layers, self.op_roots)):
                fh.write(json.dumps({"op": op, "root_s": root, "layers": {
                    name: {"calls": v[0], "s": v[1], "self_s": v[2]} for name, v in layers.items()
                }}) + "\n")
