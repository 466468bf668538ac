"""Span recording around ``icofridge``'s public functions, from outside it.

``Tracer.install`` replaces every public function and method of each layer
module with a wrapper that records a span (name, start, end, parent) and,
for a few functions, work counts taken from the call's arguments and return
value. Every name bound to the same function object in any ``icofridge``
namespace is replaced, so ``icofridge.cli.cswap_evolve`` is covered as well
as ``icofridge.cswap.cswap_evolve``. ``uninstall`` puts the originals back.
Spans stay in flat in-memory arrays until ``write`` saves them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

import icofridge
from workloads import read_table

LAYERS = (
    "cli",
    "verify",
    "nswitch",
    "measurement",
    "cswap",
    "trajectories",
    "fridge",
    "demon",
    "channels",
    "thermal",
    "qmat",
)

MARK = "_bench_span"

FRIDGE_CLOSED_FORM = tuple(
    f"fridge.{f}"
    for f in (
        "cop",
        "branch_probabilities",
        "weighted_energy_scheme",
        "cop_normalized",
        "lowest_r",
        "register_entropy",
        "stop_ratio",
    )
)

STOP_REASONS = {"converged": "stop_converged", "cold-exhausted": "stop_cold_exhausted", "budget": "stop_budget"}

# Layer whose own allocation peak a traced run reports (cswap.peak_mb).
MEMORY_LAYER = "cswap"


def _modules():
    return [importlib.import_module(f"icofridge.{name}") for name in LAYERS]


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# Work counts, from the call's arguments and return value only.
def _count_cli(fn, args, kwargs, result, add):
    argv = list(_bound(fn, args, kwargs)["argv"] or [])
    if result != 0 or "--out" not in argv:
        return
    path = argv[argv.index("--out") + 1]
    add("cli.bytes_out", os.path.getsize(path))
    add("cli.rows", len(read_table(Path(path))))


def _count_cycles(fn, args, kwargs, result, add):
    add("fridge.cycles", len(result.cycles))
    add("fridge." + STOP_REASONS[result.stop_reason], 1)


def _count_bruteforce(fn, args, kwargs, result, add):
    a = _bound(fn, args, kwargs)
    orders = a["orderset"]
    add("nswitch.kraus_tuples", orders.n_orders * (a["spec"].dim ** 2) ** orders.n_channels)


def _count_cswap(fn, args, kwargs, result, add):
    add("cswap.joint_bytes", result.joint.nbytes)


def _count_measure(fn, args, kwargs, result, add):
    a = _bound(fn, args, kwargs)
    nonzero = np.count_nonzero(a["basis"].vectors, axis=1)
    d = a["out"].target_dim
    add("measurement.block_terms", int(np.sum(nonzero.astype(np.int64) ** 2)) * d * d)


def _count_demon(fn, args, kwargs, result, add):
    cfg = _bound(fn, args, kwargs)["cfg"]
    add("demon.particle_rounds", cfg.particles * cfg.rounds)


def _count_tree(fn, args, kwargs, result, add):
    rounds = _bound(fn, args, kwargs)["rounds"]
    add("demon.tree_nodes", 2 ** (rounds + 1) - 2)


def _count_dilation(fn, args, kwargs, result, add):
    cfg = _bound(fn, args, kwargs)["cfg"]
    d = cfg.kraus.dim
    add("trajectories.amplitudes", cfg.n * d * d * (len(cfg.kraus.operators) + 1) ** cfg.n)


COUNTERS = {
    "cli.main": _count_cli,
    "fridge.run_cycles": _count_cycles,
    "nswitch.switch_bruteforce": _count_bruteforce,
    "cswap.cswap_evolve": _count_cswap,
    "measurement.measure_control": _count_measure,
    "demon.run_demon": _count_demon,
    "demon.expected_transfer_exact": _count_tree,
    "trajectories.dilation_oracle": _count_dilation,
}


def wrapped_names() -> list[str]:
    """Names in ``icofridge`` namespaces currently bound to a tracing wrapper."""
    found = []
    for mod in [icofridge] + _modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(obj):
                for meth, raw in vars(obj).items():
                    fn = getattr(raw, "__func__", raw)
                    if hasattr(fn, MARK):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


class Tracer:
    """Records spans around every public function of the layer modules."""

    def __init__(self, track_memory: bool = False):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.pass_index = array("i")
        self.counts: list[dict[str, float]] = []
        self.pass_walls: list[float] = []
        # bytes; with track_memory, tracemalloc runs only inside outermost
        # MEMORY_LAYER spans and this keeps the largest peak it saw there
        self.memory_peak = 0
        self._track_memory = track_memory
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._pass = -1
        self._recording = False

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [icofridge] + _modules()
        for mod in _modules():
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(obj, f"{layer}.{attr}", layer)
                    for ns in namespaces:
                        for name, value in list(vars(ns).items()):
                            if value is obj:
                                self._patches.append((ns, name, obj))
                                setattr(ns, name, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, f"{layer}.{attr}", layer)

    def _wrap_methods(self, cls, prefix: str, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, f"{prefix}.{name}", layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, f"{prefix}.{name}", layer)
            else:
                continue  # properties and data
            self._patches.append((cls, name, raw))
            setattr(cls, name, new)

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        span_name, parent, start, end, pass_index = (
            self.span_name, self.parent, self.start, self.end, self.pass_index
        )
        stack = self._stack
        clock = time.perf_counter
        track = self._track_memory and layer == MEMORY_LAYER

        def wrapper(*args, **kwargs):
            if not self._recording:  # e.g. the gate, between passes
                return fn(*args, **kwargs)
            idx = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            pass_index.append(self._pass)
            start.append(0.0)
            end.append(0.0)
            outermost = track and not self._in_memory_layer()
            if outermost:
                tracemalloc.start()
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if outermost:
                    self.memory_peak = max(self.memory_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if counter is not None:
                counter(fn, args, kwargs, result, self._add)
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, name)
        return wrapper

    def _in_memory_layer(self) -> bool:
        return any(self.names[self.span_name[i]].startswith(MEMORY_LAYER + ".") for i in self._stack)

    def _add(self, key: str, value: float) -> None:
        self.counts[self._pass][key] += value

    def begin_pass(self) -> None:
        """Record spans and counts, as pass ``len(self.counts)``, until ``end_pass``."""
        self._pass = len(self.counts)
        self.counts.append(defaultdict(float))
        self._recording = True

    def end_pass(self, wall: float) -> None:
        self._recording = False
        self.pass_walls.append(wall)

    # -- results ------------------------------------------------------------

    def write(self, path) -> None:
        """Save every span to a compressed ``.npz``: per-span ``pass``,
        ``name`` (index into ``names``), ``start``, ``end`` and ``parent``
        (span index, -1 for a root span)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.span_name),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            **{"pass": np.asarray(self.pass_index)},
        )

    def per_pass(self) -> list[dict[str, float]]:
        """Per-layer numbers for each recorded pass, named as the
        ``per_layer`` metrics of BENCHMARK.json."""
        n = len(self.span_name)
        sid = np.asarray(self.span_name)
        par = np.asarray(self.parent)
        pidx = np.asarray(self.pass_index)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        layer_of = np.array([LAYERS.index(s.split(".", 1)[0]) for s in self.names], dtype=np.int64)

        out = []
        for p, wall in enumerate(self.pass_walls):
            sel = pidx == p
            ids = sid[sel]
            k = len(self.names)
            calls = np.bincount(ids, minlength=k)
            self_by_name = np.bincount(ids, weights=self_time[sel], minlength=k)
            total_by_name = np.bincount(ids, weights=dur[sel], minlength=k)
            root = sel & ~has_parent
            m: dict[str, float] = {}
            for li, layer in enumerate(LAYERS):
                in_layer = layer_of == li
                m[f"{layer}.calls"] = float(calls[in_layer].sum())
                m[f"{layer}.self_s"] = float(self_by_name[in_layer].sum())

            def pick(span, arr):
                i = self.name_ids.get(span)
                return float(arr[i]) if i is not None else 0.0

            def group(spans, arr):
                return sum(pick(s, arr) for s in spans)

            c = self.counts[p]
            m["cli.rows"] = c["cli.rows"]
            m["cli.bytes_out"] = c["cli.bytes_out"]
            m["nswitch.branch_stats.calls"] = pick("nswitch.branch_stats", calls)
            m["nswitch.branch_stats.self_s"] = pick("nswitch.branch_stats", self_by_name)
            m["fridge.closed_form.calls"] = group(FRIDGE_CLOSED_FORM, calls)
            m["fridge.closed_form.self_s"] = group(FRIDGE_CLOSED_FORM, self_by_name)
            m["fridge.run_cycles.calls"] = pick("fridge.run_cycles", calls)
            m["fridge.run_cycles.self_s"] = pick("fridge.run_cycles", self_by_name)
            m["fridge.cycles"] = c["fridge.cycles"]
            m["fridge.us_per_cycle"] = _ratio(1e6 * m["fridge.run_cycles.self_s"], m["fridge.cycles"])
            for key in STOP_REASONS.values():
                m[f"fridge.{key}"] = c[f"fridge.{key}"]
            m["fridge.to_csv.self_s"] = pick("fridge.CycleTrace.to_csv", self_by_name)
            m["nswitch.switch_bruteforce.self_s"] = pick("nswitch.switch_bruteforce", self_by_name)
            m["nswitch.kraus_tuples"] = c["nswitch.kraus_tuples"]
            m["nswitch.kraus_tuples_per_s"] = _ratio(
                m["nswitch.kraus_tuples"], pick("nswitch.switch_bruteforce", total_by_name)
            )
            m["cswap.cswap_evolve.self_s"] = pick("cswap.cswap_evolve", self_by_name)
            m["cswap.cswap_branches.self_s"] = pick("cswap.cswap_branches", self_by_name)
            m["cswap.joint_bytes"] = c["cswap.joint_bytes"]
            m["qmat.partial_trace.calls"] = pick("qmat.partial_trace", calls)
            m["qmat.partial_trace.self_s"] = pick("qmat.partial_trace", self_by_name)
            m["measurement.measure_control.self_s"] = pick("measurement.measure_control", self_by_name)
            m["measurement.block_terms"] = c["measurement.block_terms"]
            m["demon.run_demon.self_s"] = pick("demon.run_demon", self_by_name)
            m["demon.particle_rounds"] = c["demon.particle_rounds"]
            m["demon.particle_rounds_per_s"] = _ratio(
                m["demon.particle_rounds"], pick("demon.run_demon", total_by_name)
            )
            m["demon.tree.self_s"] = pick("demon.expected_transfer_exact", self_by_name)
            m["demon.tree_nodes"] = c["demon.tree_nodes"]
            m["trajectories.dilation_oracle.self_s"] = pick("trajectories.dilation_oracle", self_by_name)
            m["trajectories.amplitudes"] = c["trajectories.amplitudes"]
            m["trace.coverage"] = float(dur[root].sum()) / wall
            out.append(m)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
