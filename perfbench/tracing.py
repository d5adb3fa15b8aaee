"""In-memory span tracing of poisolve functions, installed from outside.

A traced function records one span per call: its name, start and end in
nanoseconds, and the index of the enclosing traced span. The wrapper
replaces the function at every poisolve module that binds it (a name
imported with ``from .grid import relative_error`` is a second binding),
and methods are replaced on their class. Spans stay in compact arrays
until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

# (module, attribute path) of every traced function; the span name is
# "<module>.<attribute path>".
TRACED = (
    ("grid", "relative_error"),
    ("grid", "make_problem"),
    ("grid", "laplacian_apply"),
    ("grid", "residual_norms"),
    ("grid", "save_problem"),
    ("grid", "load_problem"),
    ("geometry", "generate"),
    ("iterators", "jacobi_step"),
    ("iterators", "damped_jacobi_step"),
    ("iterators", "MultigridIterator.step"),
    ("iterators", "restrict_full_weighting"),
    ("iterators", "prolong_bilinear"),
    ("iterators", "solve_to_tol"),
    ("iterators", "ground_truth"),
    ("conv", "conv2d"),
    ("conv", "conv2d_input_grad"),
    ("conv", "conv2d_weight_grad"),
    ("conv", "transposed_conv2d"),
    ("conv", "transposed_conv2d_weight_grad"),
    ("model", "load_model"),
    ("model", "PhiIterator.step"),
    ("model", "apply_H"),
    ("model", "forward"),
    ("model", "backward"),
    ("training", "train"),
    ("training", "sample_batch"),
    ("training", "loss_and_grad"),
    ("training", "Adam.update"),
    ("training", "SquareSolutionCache.__init__"),
    ("training", "SquareSolutionCache.solution"),
    ("spectral", "linear_part"),
    ("spectral", "materialize_dense"),
    ("spectral", "spectral_radius"),
    ("spectral", "certify"),
    ("bench", "certify_for_bench"),
)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in TRACED)


class Tracer:
    """Span recorder; ``install`` patches poisolve until ``uninstall``."""

    def __init__(self):
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, sid: int, fn):
        name_id, start, end, parent, open_ = (
            self.name_id, self.start, self.end, self.parent, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(sid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0)
            open_.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                open_.pop()

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "poisolve" or key.startswith("poisolve."))]
        for sid, (mod, path) in enumerate(TRACED):
            owner = sys.modules[f"poisolve.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:  # a method: replace it on its class only
                self._patch(owner, attr, self._wrap(sid, vars(owner)[attr]))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(sid, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, traced)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summarize(self, lo: int, hi: int) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self milliseconds)} over spans lo..hi-1.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so the children never overlap.
        """
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        calls = [0] * len(TRACED)
        self_ns = [0] * len(TRACED)
        for i in range(lo, hi):
            sid = self.name_id[i]
            calls[sid] += 1
            self_ns[sid] += self.end[i] - self.start[i] - child[i - lo]
        return {name: (calls[k], self_ns[k] / 1e6) for k, name in enumerate(SPAN_NAMES)}

    def write_csv(self, path) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{SPAN_NAMES[self.name_id[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]}\n")
