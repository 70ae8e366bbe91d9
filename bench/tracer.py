"""In-memory span tracer that wraps rindler_spin's public functions from outside.

Each wrapped call records one span (id, parent id, operation id, function,
start, end); spans stay in memory until ``dump``.  A function's self time is
its span duration minus the time covered by its child spans.  The wrappers
are installed at every place the function object is bound across the
``rindler_spin.*`` module namespaces, so calls through ``from .x import f``
bindings are traced too; scipy functions are wrapped only where named.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "rindler_spin"

#: (layer, function) pairs; a dotted function is a method of a class in the layer
TARGETS = (
    ("correlator", "rates_closed"), ("correlator", "rates_numeric"), ("correlator", "quad"),
    ("dynamics", "evolve_numeric"), ("dynamics", "evolve_analytic"),
    ("dynamics", "density_from_coefficients"), ("dynamics", "coeffs_from_density"),
    ("dynamics", "DensityMatrix.validate"),
    ("entanglement", "concurrence"), ("entanglement", "concurrence_real"),
    ("entanglement", "concurrence_closed"), ("entanglement", "disentanglement_time"),
    ("entanglement", "relaxation_times"),
    ("linalg4", "jacobi_hermitian"), ("linalg4", "hermitian_eigenvalues"),
    ("linalg4", "characteristic_roots"),
    ("kinematics", "worldline"), ("kinematics", "solve_ivp"),
    ("cli", "main"),
)
#: foreign functions wrapped only in the namespace of their layer
LOCAL_ONLY = {"correlator.quad", "kinematics.solve_ivp"}
FAIL_COUNTED = ("correlator.rates_numeric", "entanglement.concurrence",
                "entanglement.concurrence_real")


def _rk4_steps(args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    tau = args[2] if len(args) > 2 else kwargs["tau"]
    return math.ceil(tau / spec.dt) if tau > 0 else 0


def _quad_neval(args, kwargs, result):
    info = result[2] if isinstance(result, tuple) and len(result) > 2 else None
    return info.get("neval", 0) if isinstance(info, dict) else 0


def _solve_ivp_nfev(args, kwargs, result):
    return result.nfev


#: work counters: function -> (counter name, value from the call's arguments and result)
COUNTERS = {"dynamics.evolve_numeric": ("rk4_steps", _rk4_steps),
            "correlator.quad": ("neval", _quad_neval),
            "kinematics.solve_ivp": ("nfev", _solve_ivp_nfev)}


class Tracer:
    """Collects spans and work counters for the wrapped functions."""

    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fn in TARGETS]
        self.ids, self.parents, self.ops, self.funcs = (array("q") for _ in range(4))
        self.starts, self.ends = array("d"), array("d")
        self.counts = Counter()
        self.op = 0
        self._current = 0
        self._next_id = 1
        self._restore = []

    def _wrap(self, index, fn):
        name = self.names[index]
        key, counter = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current
            span = self._next_id
            self._next_id += 1
            self._current = span
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".fail"] += 1
                raise
            finally:
                end = perf_counter()
                self._current = parent
                self.ids.append(span)
                self.parents.append(parent)
                self.ops.append(self.op)
                self.funcs.append(index)
                self.starts.append(start)
                self.ends.append(end)
            if counter is not None:
                self.counts[f"{name}.{key}"] += counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target in every loaded rindler_spin module namespace."""
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for index, (layer, fn) in enumerate(TARGETS):
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            if "." in fn:
                cls_name, method = fn.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, method, self._wrap(index, owner.__dict__[method]))
                continue
            original = getattr(module, fn)
            wrapped = self._wrap(index, original)
            scope = [module] if self.names[index] in LOCAL_ONLY else modules
            for mod in scope:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def merge(self, path, op):
        """Append the spans and counts a traced subprocess dumped to ``path``."""
        with np.load(path) as data:
            offset = self._next_id - 1
            ids = data["id"] + offset
            parents = np.where(data["parent"] > 0, data["parent"] + offset, 0)
            self.ids.extend(ids.tolist())
            self.parents.extend(parents.tolist())
            self.ops.extend([op] * len(ids))
            self.funcs.extend(data["func"].tolist())
            self.starts.extend(data["start"].tolist())
            self.ends.extend(data["end"].tolist())
            self._next_id += len(ids)
            for key, value in zip(data["count_names"].tolist(), data["count_values"].tolist()):
                self.counts[key] += value

    def dump(self, path):
        keys = sorted(self.counts)
        np.savez_compressed(
            path, id=np.asarray(self.ids), parent=np.asarray(self.parents),
            op=np.asarray(self.ops), func=np.asarray(self.funcs),
            start=np.asarray(self.starts), end=np.asarray(self.ends),
            names=np.array(self.names), count_names=np.array(keys, dtype=str),
            count_values=np.array([self.counts[k] for k in keys], dtype=np.int64))

    def self_times(self):
        """Total self time in seconds, and number of calls, per function name."""
        n = len(self.ids)
        if n == 0:
            return {name: 0.0 for name in self.names}, {name: 0 for name in self.names}
        ids = np.asarray(self.ids)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.bincount(np.asarray(self.parents), weights=dur, minlength=ids.max() + 1)
        own = dur - child[ids]
        funcs = np.asarray(self.funcs)
        total = np.bincount(funcs, weights=own, minlength=len(self.names))
        calls = np.bincount(funcs, minlength=len(self.names))
        return ({name: float(total[i]) for i, name in enumerate(self.names)},
                {name: int(calls[i]) for i, name in enumerate(self.names)})
