"""Span tracing from outside the program.

The tracer replaces the public names that ``rigdens.cli.run`` calls into
each module with wrappers that record a span (name, start, end, parent)
and read a few counters off the arguments and the returned objects. Spans
stay in memory; the worker writes them out when the run ends. Nothing in
the package itself is modified on disk, so the traced run executes the
same ``cli.run`` code as the untimed one.
"""

from __future__ import annotations

import functools
import resource
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "instrument", "self_times"]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder with patch/restore of module attributes."""

    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def wrap(self, owner: Any, attr: str, span: str,
             on_result: Optional[Callable[["Tracer", tuple, Any], None]] = None,
             on_call: Optional[Callable[["Tracer"], None]] = None):
        """Replace owner.attr by a wrapper that records one span per call.

        on_call runs before the call and on_result after it, both outside
        the span's clock.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = {"name": span, "parent": parent, "start": time.perf_counter(),
                   "end": None}
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._stack.pop()
                rec["end"] = time.perf_counter()
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append(lambda: setattr(owner, attr, orig))

    def count_calls(self, owner: Any, attr: str, counter: str):
        """Count calls of owner.attr without recording spans."""
        orig = getattr(owner, attr)
        self.counters[counter] = 0

        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append(lambda: setattr(owner, attr, orig))

    def restore(self):
        while self._undo:
            self._undo.pop()()


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Per-span self time: duration minus the time its children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


# -- counters read off arguments and results -------------------------------

def _on_build(tr: Tracer, args, m):
    tr.counters["maps.branches"] = len(m.branches)


def _on_ulam(tr: Tracer, args, mat):
    tr.counters["ulam.eps"] = float(mat.eps)
    tr.counters["ulam.nnz"] = int(mat.csr.nnz)
    tr.counters["ulam.nnz_max"] = int(mat.nnz_max)


def _on_hat(tr: Tracer, args, mat):
    tr.counters["hatbasis.eps"] = float(mat.eps)
    tr.counters["hatbasis.nnz"] = int(mat.csr.nnz)
    tr.counters["hatbasis.lin_err"] = float(mat.lin_err)


def _before_sweep(tr: Tracer):
    tr.counters["enclosure.rss_before_mb"] = _maxrss_mb()


def _on_sweep(tr: Tracer, args, result):
    contraction, density = result
    tr.counters["enclosure.k"] = int(args[0].k)
    tr.counters["enclosure.nnz"] = int(args[0].csr.nnz)
    tr.counters["enclosure.n_eps"] = int(contraction.n_eps)
    tr.counters["enclosure.n_true"] = int(contraction.n_true)
    tr.counters["enclosure.l"] = int(density.l)
    tr.counters["enclosure.rss_rise_mb"] = \
        _maxrss_mb() - tr.counters.pop("enclosure.rss_before_mb")


def _on_certify(tr: Tracer, args, cert):
    tr.counters["certify.err_discretization"] = float(cert.err_discretization)
    tr.counters["certify.err_matrix"] = float(cert.err_matrix)
    tr.counters["certify.err_numeric"] = float(cert.err_numeric)


def instrument(tracer: Tracer) -> None:
    """Wrap every call ``rigdens.cli.run`` makes into a module."""
    from rigdens import cli, ulam
    from rigdens.intervals import Interval

    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(cli, "parse_map", "cli.parse")
    tracer.wrap(cli.MapSpec, "build", "maps.build", _on_build)
    tracer.wrap(cli, "ly_coefficients_bv", "maps.ly")
    tracer.wrap(cli, "ly_coefficients_lip", "maps.ly")
    tracer.wrap(cli, "assemble_ulam", "ulam.assemble", _on_ulam)
    tracer.wrap(ulam, "assemble_row", "ulam.row")
    tracer.wrap(cli, "markovize", "ulam.markovize")
    tracer.wrap(cli, "assemble_linearized", "hatbasis.assemble", _on_hat)
    tracer.wrap(cli, "contraction_sweep", "enclosure.sweep", _on_sweep,
                on_call=_before_sweep)
    tracer.wrap(cli, "certify_l1", "certify.certify", _on_certify)
    tracer.wrap(cli, "certify_linf", "certify.certify", _on_certify)
    tracer.wrap(cli, "lyapunov", "certify.lyap")
    tracer.wrap(cli, "report", "certify.report")
    tracer.wrap(cli, "emit_plot_data", "cli.emit_plot")
    tracer.count_calls(Interval, "__post_init__", "intervals.created")
