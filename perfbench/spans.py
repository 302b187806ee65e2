"""Observation from outside the ``gib`` package: patched binding sites and spans.

Modules inside ``gib`` bind each other's functions with ``from``-imports, so a
function can be looked up under several names (``gib.train.inner_maximize``
is the same object as ``gib.mi.inner_maximize``). A wrapper only sees the
calls made through the names it replaces, so :class:`Patcher` replaces the
function at every name in every ``gib`` module that holds it, and puts the
originals back afterwards. The package itself is never edited.

The package re-exports the ``train`` function as ``gib.train``, which hides
the ``gib.train`` submodule from attribute access; modules are therefore
reached through ``sys.modules`` and ``importlib``, never through attributes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import pkgutil
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference

PACKAGE = "gib"


def load_package() -> list[str]:
    """Import ``gib`` and every submodule so that every binding site exists."""
    package = importlib.import_module(PACKAGE)
    names = [PACKAGE]
    for info in pkgutil.iter_modules(package.__path__):
        name = f"{PACKAGE}.{info.name}"
        importlib.import_module(name)
        names.append(name)
    return names


def resolve(target: str):
    """``"gib.nn:GcnEncoder.forward_graph"`` -> (owner, attribute, current object)."""
    module_name, _, qualname = target.partition(":")
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def binding_sites(target: str) -> list[tuple[object, str]]:
    """Every (namespace, name) through which callers can reach ``target``.

    A method is reached through its class alone. A module-level function is
    reached through each ``gib`` module whose globals hold the same object.
    """
    owner, attr, current = resolve(target)
    if not isinstance(owner, type(sys)):
        return [(owner, attr)]
    sites = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is current:
                sites.append((module, key))
    return sites


class Patcher:
    """Replaces targets at all their binding sites; ``restore`` undoes it."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make_wrapper: Callable[[Callable], Callable]) -> Callable:
        _, _, current = resolve(target)
        wrapper = make_wrapper(current)
        for owner, key in binding_sites(target):
            self._saved.append((owner, key, vars(owner)[key]))
            setattr(owner, key, wrapper)
        return wrapper

    def restore(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()


class EpochClock:
    """Timestamps at epoch boundaries, from wrappers at the workload's marks.

    ``marks`` lists ``(target, "enter" | "exit")``; each crossing, and each
    explicit :meth:`mark`, runs the reference kernel and records
    ``(start, end, kernel seconds)``. An interval runs from one mark's end
    to the next mark's start, so the kernel's own time is in no interval.
    """

    def __init__(self, marks: list[tuple[str, str]]):
        self.marks = marks
        self.times: list[tuple[float, float, float]] = []
        self._patcher = Patcher()

    def install(self) -> None:
        for target, when in self.marks:
            self._patcher.wrap(target, self._marker(when))

    def restore(self) -> None:
        self._patcher.restore()

    def mark(self) -> None:
        t0 = time.perf_counter()
        ref = reference.measure()
        self.times.append((t0, time.perf_counter(), ref))

    def intervals(self) -> tuple[list[float], list[float]]:
        """Wall seconds between consecutive marks, and the same at reference
        speed: each scaled by the mean kernel time at its two ends."""
        wall, scaled = [], []
        for (_, end, ref0), (start, _, ref1) in zip(self.times, self.times[1:]):
            wall.append(start - end)
            scaled.append((start - end) * reference.REF_SECONDS / ((ref0 + ref1) / 2))
        return wall, scaled

    def _marker(self, when: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if when == "enter":
                    self.mark()
                    return fn(*args, **kwargs)
                out = fn(*args, **kwargs)
                self.mark()
                return out

            return wrapper

        return make


@dataclass(frozen=True)
class Probe:
    """One traced call site.

    Every call is counted; with ``span`` it is also timed as a span under
    the layer name (off for calls too frequent to time). ``observe`` maps
    (args, result) to extra counter updates.
    """

    target: str
    name: str
    span: bool = True
    observe: Optional[Callable[..., dict]] = None


def _weights_key(encoder) -> bytes:
    return b"".join(layer.weight.data.tobytes() for layer in encoder.layers)


def _gcn_keys(args, result) -> dict:
    encoder, graph = args[0], args[1]
    return {"keys:nn.gcn_forward": (id(graph), hash(_weights_key(encoder)))}


def _adjacency_keys(args, result) -> dict:
    return {"keys:nn.normalized_adjacency": id(args[0])}


def _tape_len(args, result) -> dict:
    return {"tensor.tape_nodes": len(result), "tensor.tapes": 1}


def _inner_steps(args, result) -> dict:
    return {"mi.inner_steps": len(result)}


PROBES = [
    Probe("gib.tensor:Tensor.__init__", "tensor.nodes", span=False),
    Probe("gib.tensor:Tensor.backward", "tensor.backward"),
    Probe("gib.tensor:Tensor.tape", "tensor.tape", span=False, observe=_tape_len),
    Probe("gib.nn:GcnEncoder.forward_graph", "nn.gcn_forward", observe=_gcn_keys),
    Probe("gib.nn:normalized_adjacency", "nn.normalized_adjacency", observe=_adjacency_keys),
    Probe("gib.nn:Mlp.forward", "nn.mlp_forward"),
    Probe("gib.subgraph:connectivity_loss", "subgraph.connectivity_loss"),
    Probe("gib.subgraph:discretize", "subgraph.discretize"),
    Probe("gib.mi:inner_maximize", "mi.inner_maximize", observe=_inner_steps),
    Probe("gib.mi:mi_batch_loss", "mi.batch_loss"),
    Probe("gib.optim:Adam.step", "optim.step"),
    Probe("gib.optim:Sgd.step", "optim.step"),
    Probe("gib.train:train", "train.train"),
    Probe("gib.train:run_inner_phase", "train.inner_phase"),
    Probe("gib.train:_cached_embeddings", "train.cached_embeddings"),
    Probe("gib.train:outer_step", "train.outer_step"),
    Probe("gib.train:evaluate_split", "train.evaluate_split"),
    Probe("gib.experiments:train_baseline", "experiments.train_baseline"),
    Probe("gib.graphs:gen_planted_motif_dataset", "graphs.gen_planted_motif_dataset"),
    Probe("gib.graphs:add_noise_edges", "graphs.add_noise_edges"),
    Probe("gib.graphs:to_line_graph", "graphs.to_line_graph"),
    Probe("gib.case_study:_inner_ascend", "case_study.inner_ascend"),
    Probe("gib.case_study:dv_estimate", "case_study.dv_estimate"),
    Probe("gib.case_study:mi_oracle", "case_study.mi_oracle"),
    Probe("gib.case_study:sample_pairs", "case_study.sample_pairs"),
]


class Tracer:
    """Spans and counters recorded by wrappers at every probe's binding sites.

    Spans are kept in flat arrays (name id, start, end, parent index) for the
    whole run and written out by :meth:`write`; self time is derived from
    them. Calls run on one thread, so a stack gives each span its parent.
    """

    def __init__(self, probes: list[Probe] = PROBES):
        self.probes = probes
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.kind = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self._patcher = Patcher()

    def install(self) -> None:
        for probe in self.probes:
            self._patcher.wrap(probe.target, functools.partial(self._wrapper, probe))

    def restore(self) -> None:
        self._patcher.restore()

    @property
    def installed_sites(self) -> list[tuple[object, str, object]]:
        return list(self._patcher._saved)

    def snapshot(self) -> tuple[int, dict[str, int], dict[str, int]]:
        """Span count and counters so far, and the distinct keys seen since
        the previous snapshot (the key sets start empty again)."""
        distinct = {k: len(v) for k, v in self.keys.items()}
        self.keys.clear()
        return len(self.start), dict(self.counts), distinct

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _wrapper(self, probe: Probe, fn: Callable) -> Callable:
        name = probe.name
        observe = probe.observe
        calls_key = name + ".calls"
        if not probe.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._bump(calls_key)
                out = fn(*args, **kwargs)
                if observe is not None:
                    self._record(observe(args, out))
                return out

            return counted

        kind_id = self._name_id(name)
        kind, start, end, parent, stack = self.kind, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(start)
            kind.append(kind_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            self._bump(calls_key)
            if observe is not None:
                self._record(observe(args, out))
            return out

        return spanned

    def _record(self, updates: dict) -> None:
        for key, value in updates.items():
            if key.startswith("keys:"):
                self.keys.setdefault(key[5:], set()).add(value)
            else:
                self._bump(key, value)

    def totals(self, first: int, last: int) -> dict[str, tuple[float, float]]:
        """(total, self) seconds per span name over spans ``first..last-1``.

        A child's time is subtracted from its parent's self time; spans whose
        parent lies before ``first`` still count as roots of the window.
        """
        kind = np.array(self.kind[first:last], dtype=np.int64)
        start = np.array(self.start[first:last])
        end = np.array(self.end[first:last])
        parent = np.array(self.parent[first:last], dtype=np.int64) - first
        dur = end - start
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
        own = dur - child
        out = {}
        for kid, name in enumerate(self.names):
            sel = kind == kid
            out[name] = (float(dur[sel].sum()), float(own[sel].sum()))
        return out

    def write(self, path: str) -> None:
        """Every span as ``name start end parent`` (tab-separated, gzip)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for k, s, e, p in zip(self.kind, self.start, self.end, self.parent):
                fh.write(f"{self.names[k]}\t{s!r}\t{e!r}\t{p}\n")
