"""Span tracer that wraps definetti's module-boundary functions from outside.

The package is not edited.  ``install`` rebinds the module attributes that
callers look up at call time (for example ``harness.sample_mean_law`` or
``_kernels.scan_log_ab``) to wrappers that record one span per call, and
``uninstall`` puts the originals back.  Spans are kept in memory as
(name, parent, start, end) and reduced to per-name totals and self times
when the run ends.  Counters recorded at the same boundaries (indices per
kernel call, computed bytes, law-denominator bits, rows) are plain integers,
so they repeat exactly for a given input.

Layer names are the package modules, with ``kernels`` standing for
``_kernels``: cli, io, harness, model, numerics, kernels, recovery.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "io", "harness", "model", "numerics", "kernels", "recovery")
KERNELS = ("scan_log_ab", "log_mean_law", "pair_region_sums", "max_ratio_dev")


def _array_bytes(values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += _array_bytes(v)
    return total


def _kernel_counts(n_idx):
    """Counter hook for a kernel: indices processed and computed bytes moved.

    Computed bytes are the sizes of the array arguments and results at the
    call boundary, leaving out the shared log-factorial table (argument 0 of
    the kernels that take it); they are derived from shapes, not measured.
    """

    def hook(counts, name, args, result, skip_table):
        counts[name + ".idx"] += n_idx(args)
        counts[name + ".bytes_computed"] += _array_bytes(
            args[1:] if skip_table else args
        ) + _array_bytes((result,))

    return hook


def _den_bits(counts, name, args, result, _skip):
    form = result.integer_form()
    bits = form[1].bit_length() if form is not None else 0
    counts[name + ".den_bits_max"] = max(counts[name + ".den_bits_max"], bits)


def _scan_rows(counts, name, args, result, _skip):
    counts[name + ".rows"] += len(result.rows)


def _table_entries(counts, name, args, result, _skip):
    counts[name + ".entries_max"] = max(counts[name + ".entries_max"], result.shape[0])


def targets(pkg):
    """(owner, attribute, span name, counter hook, skips table) for every boundary.

    ``pkg`` maps module names to the imported definetti modules.  The owner is
    the namespace the caller reads the name from, which for names imported
    with ``from .model import ...`` is the importing module.
    """
    k = pkg["_kernels"]
    return [
        (pkg["io"], "load_measure", "io.load", None, False),
        (pkg["io"], "load_moments", "io.load", None, False),
        (pkg["io"], "format_value", "io.format_value", None, False),
        (pkg["harness"], "verify_approximation", "harness.verify_approximation", None, False),
        (pkg["harness"], "ratio_scan", "harness.ratio_scan", _scan_rows, False),
        (pkg["harness"], "sample_mean_law", "model.sample_mean_law", _den_bits, False),
        (pkg["harness"], "_log_mean_law_array", "model._log_mean_law_array", None, False),
        (pkg["model"], "check_complete_monotonicity", "model.check_complete_monotonicity", None, False),
        (pkg["recovery"], "recover_from_moments", "recovery.recover_from_moments", None, False),
        (pkg["recovery"], "mean_law_from_moments", "model.mean_law_from_moments", None, False),
        (pkg["numerics"].LogFactorialTable, "ensure", "numerics.table_ensure", _table_entries, False),
        (k, "scan_log_ab", "kernels.scan_log_ab", _kernel_counts(lambda a: len(a[4])), True),
        (k, "log_mean_law", "kernels.log_mean_law", _kernel_counts(lambda a: a[1] + 1), True),
        (k, "pair_region_sums", "kernels.pair_region_sums", _kernel_counts(lambda a: len(a[3])), False),
        (k, "max_ratio_dev", "kernels.max_ratio_dev", _kernel_counts(lambda a: len(a[2])), False),
        # the numpy log-binomial inner kernel; looked up as a module global by
        # scan_log_ab_np and log_mean_law_np, so the wrapper sees every call
        (k, "log_binomial_array_np", "kernels.log_binomial_array", None, True),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []  # name, parent, t0, t1
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, hook=None, skip_table=False):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            slot = len(self.spans)
            self.spans.append((name, parent, 0.0, 0.0))
            self._open.append(slot)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._open.pop()
                self.spans[slot] = (name, parent, t0, t1)
            if hook is not None:
                hook(self.counts, name, args, result, skip_table)
            return result

        return traced

    def install(self, pkg) -> None:
        for owner, attr, name, hook, skip_table in targets(pkg):
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, hook, skip_table))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count.

        A span's self time is its duration minus the time its child spans
        cover; children never overlap because the run is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for slot, (name, _parent, t0, t1) in enumerate(self.spans):
            row = out[name]
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[slot]
            row["calls"] += 1
        return out
