"""Span tracing of telecost's layers, installed from outside the package.

Every public function of a layer module, and the few methods listed in
``_METHOD_SPANS``, is replaced by a wrapper that records one span: run id,
span id, parent span id, name, start and end (ns). Spans stay in memory
until the caller writes them out. Builds of ``StateVector`` and
``DensityMatrix`` are counted by wrapping their ``__post_init__``.

A wrapper only sees calls that look the function up where it was patched.
telecost imports functions by name into other modules and keeps them in
class-level tables (``ProtocolMachine._GATES_1Q``), so ``install`` replaces
every reference it finds in module globals and in dicts held by modules and
classes, and refuses to run when a reference sits where it cannot be
replaced (a tuple, a default argument, a closure): counts that silently
drop would be worse than no counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict

# kinds only holds vocabulary, so it is not a measured layer
LAYERS = ("cli", "protocol", "statevector", "noise", "cost", "expansions")

# (module, class, method) wrapped as spans of the module's layer
_METHOD_SPANS = (
    ("protocol", "UnknownQubit", "haar"),
    ("protocol", "UnknownQubit", "to_statevector"),
    ("cost", "CostLedger", "add"),
    ("cost", "CostLedger", "total"),
    ("expansions", "Expansion", "instantiate"),
)
# (module, class) whose __post_init__ calls are counted as builds
_BUILD_COUNTS = (("statevector", "StateVector"), ("noise", "DensityMatrix"))

GATES = ("statevector.apply_cnot", "statevector.apply_h",
         "statevector.apply_x", "statevector.apply_z")
# apply_h/x/z delegate to apply_unitary1, so the gate kernels' self time
# includes it; it is not counted as a gate call of its own
GATE_KERNEL = GATES + ("statevector.apply_unitary1",)


class TracingError(RuntimeError):
    """A layer function is referenced where a wrapper cannot replace it."""


class Tracer:
    """Records spans and counts for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.builds: Counter[str] = Counter()
        self.step_map_f: list[float] = []
        self.distill_runs: list[tuple[int, int]] = []  # (rounds, attempts)
        self.run_id = 0
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, object, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name: str, observe=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((self.run_id, sid, parent, name, t0, t1))
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count(self, fn, name: str):
        builds = self.builds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            builds[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_step_map(self, args, result) -> None:
        self.step_map_f.append(args[0])

    def _observe_distill(self, args, result) -> None:
        self.distill_runs.append((result.rounds, result.attempts))

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every layer; telecost must already be importable. On a
        TracingError nothing stays patched."""
        if self._undo:
            raise TracingError("tracer is already installed")
        try:
            self._install()
        except TracingError:
            self.uninstall()
            raise

    def _install(self) -> None:
        mods = {layer: importlib.import_module(f"telecost.{layer}") for layer in LAYERS}
        observers = {"noise.distill_step_map": self._observe_step_map,
                     "noise.distill_to_threshold": self._observe_distill}
        replace: dict[int, tuple[object, object]] = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    replace[id(fn)] = (fn, self._span(fn, name, observers.get(name)))
        for layer, cls_name, meth in _METHOD_SPANS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(raw.__func__, name))
            else:
                wrapped = self._span(raw, name)
            self._set(cls, meth, wrapped)
        for layer, cls_name in _BUILD_COUNTS:
            cls = getattr(mods[layer], cls_name)
            self._set(cls, "__post_init__",
                      self._count(cls.__dict__["__post_init__"], f"{layer}.{cls_name}"))
        self._rebind(replace)

    def _set(self, obj, key, value) -> None:
        if isinstance(obj, dict):
            self._undo.append((obj, key, obj[key]))
            obj[key] = value
        else:
            self._undo.append((obj, key, getattr(obj, key)))
            setattr(obj, key, value)

    def _rebind(self, replace: dict[int, tuple[object, object]]) -> None:
        """Point every reference to an original function at its wrapper."""

        def wrapper_of(item):
            entry = replace.get(id(item))
            return entry[1] if entry is not None and entry[0] is item else None

        def rebind_inside(val, where: str, mod_name: str) -> None:
            if isinstance(val, dict):
                for key, item in list(val.items()):
                    if wrapper_of(item) is not None:
                        self._set(val, key, wrapper_of(item))
            elif isinstance(val, (tuple, list, set, frozenset)):
                if any(wrapper_of(item) is not None for item in val):
                    raise TracingError(f"{where} holds a layer function in a {type(val).__name__}")
            elif isinstance(val, type) and val.__module__ == mod_name:
                for attr, item in list(vars(val).items()):
                    if not inspect.isfunction(item):
                        rebind_inside(item, f"{where}.{attr}", mod_name)
            elif inspect.isfunction(val) and val.__module__ == mod_name:
                captured = list(val.__defaults__ or ()) + list((val.__kwdefaults__ or {}).values())
                for cell in val.__closure__ or ():
                    try:
                        captured.append(cell.cell_contents)
                    except ValueError:  # an empty cell
                        pass
                if any(wrapper_of(item) is not None for item in captured):
                    raise TracingError(f"{where} captured a layer function in a default or closure")

        for name, mod in sorted(sys.modules.items()):
            if name != "telecost" and not name.startswith("telecost."):
                continue
            for attr, val in list(vars(mod).items()):
                if wrapper_of(val) is not None:
                    self._set(mod, attr, wrapper_of(val))
                else:
                    rebind_inside(val, f"{name}.{attr}", name)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._undo):
            if isinstance(obj, dict):
                obj[key] = value
            else:
                setattr(obj, key, value)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run,id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

    def metrics(self, invocations: int) -> dict[str, float]:
        """Per-layer metrics. Counts are totals over the traced
        invocations; *_s are seconds per invocation; *.mean_us is the mean
        inclusive duration of one call in microseconds. Self time is a
        span's duration minus the time its direct child spans cover."""
        calls: Counter[str] = Counter()
        total_ns: Counter[str] = Counter()
        child_ns: Counter[int] = Counter()
        for _run, _sid, parent, _name, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        self_ns: defaultdict[str, int] = defaultdict(int)
        for _run, sid, _parent, name, t0, t1 in self.spans:
            calls[name] += 1
            total_ns[name] += t1 - t0
            self_ns[name] += t1 - t0 - child_ns[sid]

        def n_calls(*names: str) -> int:
            return sum(calls[n] for n in names)

        def mean_us(*names: str) -> float:
            n = n_calls(*names)
            return sum(total_ns[x] for x in names) / n / 1e3 if n else 0.0

        def per_inv_s(ns: float) -> float:
            return ns / 1e9 / invocations

        def layer_self_s(layer: str) -> float:
            return per_inv_s(sum(v for k, v in self_ns.items() if k.split(".")[0] == layer))

        step_calls = n_calls("noise.distill_step_map")
        rounds = sum(r for r, _ in self.distill_runs)
        attempts = sum(a for _, a in self.distill_runs)
        return {
            "noise.distill_step_map.calls": step_calls,
            "noise.distill_step_map.mean_us": mean_us("noise.distill_step_map"),
            "noise.distill_step_map.distinct_ratio":
                len(set(self.step_map_f)) / step_calls if step_calls else 0.0,
            "noise.apply_gate_density.calls": n_calls("noise.apply_gate_density"),
            "noise.apply_gate_density.mean_us": mean_us("noise.apply_gate_density"),
            "noise.densities_built": self.builds["noise.DensityMatrix"],
            "noise.self_s": layer_self_s("noise"),
            "noise.teleport_fidelity_noisy.calls": n_calls("noise.teleport_fidelity_noisy"),
            "noise.teleport_fidelity_noisy.mean_us": mean_us("noise.teleport_fidelity_noisy"),
            "noise.distill.attempts": attempts,
            "noise.distill.success_ratio": rounds / attempts if attempts else 0.0,
            "statevector.gate.calls": n_calls(*GATES),
            "statevector.gate.self_s": per_inv_s(sum(self_ns[n] for n in GATE_KERNEL)),
            "statevector.measure_sample.calls": n_calls("statevector.measure_sample"),
            "statevector.measure_sample.mean_us": mean_us("statevector.measure_sample"),
            "statevector.states_built": self.builds["statevector.StateVector"],
            "statevector.self_s": layer_self_s("statevector"),
            "protocol.run_protocol.calls": n_calls("protocol.run_protocol"),
            "protocol.run_protocol.mean_us": mean_us("protocol.run_protocol"),
            "protocol.enumerate_protocol.calls": n_calls("protocol.enumerate_protocol"),
            "protocol.enumerate_protocol.mean_us": mean_us("protocol.enumerate_protocol"),
            "protocol.checkpoints.mean_us":
                mean_us("protocol.sqtp_checkpoints", "protocol.kak_checkpoints"),
            "protocol.self_s": layer_self_s("protocol"),
            "cost.ledger_entries": n_calls("cost.CostLedger.add"),
            "cost.self_s": layer_self_s("cost"),
            "expansions.load_s": per_inv_s(total_ns["expansions.load_expansions"]),
            "expansions.instantiate.calls": n_calls("expansions.Expansion.instantiate"),
            "expansions.self_s": layer_self_s("expansions"),
            "cli.main.self_s": layer_self_s("cli"),
        }
