"""Span tracing applied from outside the package.

`Tracer.install` replaces package functions with wrappers that record a span
per call: name, start, end, parent span, run id, thread and optional counts
taken from the call's arguments.  Each thread keeps its own span stack, so
work that `verify.exact_battery` hands to its thread pool nests under the
worker thread's own spans (a pool thread's first span has no parent).  Spans
stay in memory until the run ends; `write` then puts them in a sidecar file.

A function imported by name into another module is patched at every module
attribute that holds it, so each call site sees the wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int
    attrs: dict = field(default_factory=dict)


def _site_updates(legs: int, frozen: int):
    def count(a):
        model = a["model"]
        return {"site_updates": legs * a["n_samples"] * a["sweeps"] * (model.n_sites - frozen)}
    return count


def _band_key(tracer, a):
    # A band is identified by the joint's law, the row and the run; content,
    # not object identity, because each battery task builds its own joint.
    probs = a["joint"].probs
    key = tracer.joint_keys.get(id(probs))
    if key is None:
        key = (a["joint"].sites, hash(probs.tobytes()))
        tracer.joint_keys[id(probs)] = (probs, key)  # keeps id(probs) unique
    else:
        key = key[1]
    return {"band": (key, a["i"], tracer.run)}


# (module, attribute) -> counts taken from the bound call arguments.
TARGETS = {
    ("models", "glauber_block_batch"): _site_updates(1, 0),
    ("models", "glauber_batch"): _site_updates(1, 0),
    ("coupling", "coupled_glauber_disagreement"): _site_updates(2, 1),
    ("models", "exact_joint"):
        lambda a: {"states": a["model"].alphabet.size ** a["model"].n_sites},
    ("models", "dobrushin_matrix"): None,
    ("coupling", "coupling_rows_all"): "band",
    ("coupling", "envelope_and_moment_matrices"): None,
    ("bounds", "martingale_decomposition"): None,
    ("bounds", "MartingaleDecomposition.orthogonality_error"): None,
    ("bounds", "operator_norm_l2"): None,
    ("verify", "backbone_check"): None,
    ("verify", "fit_decay_constant"): None,
    ("verify", "ell_statistic"): None,
    ("verify", "write_artifacts"): None,
    ("verify", "exact_battery"): None,
    ("verify", "empirical_tail"): None,
    ("verify", "hightemp_experiment"): None,
    ("verify", "lowtemp_experiment"): None,
    ("cli", "run"): None,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.joint_keys: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []
        self.patched_sites: dict[str, int] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (the run's root span)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        stack = self._stack()
        rec = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.run,
                   threading.get_ident())
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec.start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, counter):
        """`fn` recording a span per call; counts are taken from the bound
        arguments after the call returns, so a call that raises counts no work."""
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx].attrs = (_band_key(self, bound.arguments) if counter == "band"
                                         else counter(bound.arguments))
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every TARGETS entry of `package` (the imported top module)."""
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(prefix)]
        for (mod_name, attr), counter in TARGETS.items():
            module = sys.modules[prefix + mod_name]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, self.wrap(name, getattr(owner, meth), counter))
                self.patched_sites[name] = 1
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counter)
            sites = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                        sites += 1
            self.patched_sites[name] = sites

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        payload = {"patched_sites": self.patched_sites,
                   "spans": [_span_record(s) for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _span_record(s: Span) -> dict:
    rec = asdict(s)
    if "band" in rec["attrs"]:
        (sites, digest), row, _ = rec["attrs"]["band"]
        rec["attrs"] = {"band": [len(sites), digest, row]}
    return rec


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [(s.end - s.start) - c for s, c in zip(spans, child)]
