"""Per-layer numbers for a traced run, taken from outside the program.

The tracer replaces chosen `ruellekit` functions and methods by wrappers,
installed under every name the program looks them up by: a function
imported into another module (`transfer.truncate` is
`potentials.truncate`) is replaced there too, and methods are replaced on
their class.  A wrapper records a span (start, end, parent span, operation
number) or, for very frequent calls, only a count.  Self time is a
span's duration minus the time its direct child spans cover; self times
and counts are summed over every traced operation.  The spans themselves
are kept in memory for the first `keep_ops` operations (one round of the
input pool) and written out when the run ends, which bounds the memory
and the file a long run would otherwise fill.

A target that a later version of the program no longer has is reported as
absent; its metrics then read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "ruellekit"

# (module, attribute or Class.method, what the wrapper records)
TARGETS = [
    ("cli", "run", "span"),
    ("cli", "dump_report", "span"),
    ("transfer", "power_iterate", "span"),
    ("transfer", "transfer_operator", "span"),
    ("transfer", "TransferOperator.apply", "span"),
    ("transfer", "TransferOperator.dual_apply", "span"),
    ("dlr", "tl_sequence", "span"),
    ("dlr", "kernel", "span"),
    ("dlr", "partition", "span"),
    ("dlr", "_log_weights_given_tail", "span"),
    ("dlr", "sandwich_check", "span"),
    ("dlr", "D_estimate", "span"),
    ("dlr", "finite_volume_dlr_check", "span"),
    ("potentials", "truncate", "span"),
    ("potentials", "birkhoff_table", "span"),
    ("potentials", "birkhoff", "span"),
    ("potentials", "Potential.evaluate", "count"),
    ("ising", "coboundary_check", "span"),
    ("ising", "transfer_h", "span"),
    ("ising", "g_one_sided", "count"),
    ("ising", "zeta", "count"),
    ("shift", "shift_n", "span"),
    ("shift", "Point.__post_init__", "count"),
]

# metric: (unit, statistic, targets).  Statistics: "self" = self time,
# "calls" = number of calls, "iterations" = sum of the returned
# RPFData.iterations, "kb" = size of the returned report text.
# dlr.partition_ms covers the Boltzmann weights of the volume words, which
# the enumeration engine computes in _log_weights_given_tail.
LAYER_METRICS = {
    "cli.run_ms": ("ms", "self", ["cli.run"]),
    "cli.dump_report_ms": ("ms", "self", ["cli.dump_report"]),
    "cli.report_kb": ("KiB", "kb", ["cli.dump_report"]),
    "transfer.power_iterate_ms": ("ms", "self", ["transfer.power_iterate"]),
    "transfer.operator_build_ms": ("ms", "self", ["transfer.transfer_operator"]),
    "transfer.apply_ms": ("ms", "self", ["transfer.TransferOperator.apply", "transfer.TransferOperator.dual_apply"]),
    "transfer.apply_calls": ("count", "calls", ["transfer.TransferOperator.apply", "transfer.TransferOperator.dual_apply"]),
    "transfer.iterations": ("count", "iterations", ["transfer.power_iterate"]),
    "dlr.tl_sequence_ms": ("ms", "self", ["dlr.tl_sequence"]),
    "dlr.kernel_ms": ("ms", "self", ["dlr.kernel"]),
    "dlr.kernel_calls": ("count", "calls", ["dlr.kernel"]),
    "dlr.partition_ms": ("ms", "self", ["dlr.partition", "dlr._log_weights_given_tail"]),
    "dlr.sandwich_check_ms": ("ms", "self", ["dlr.sandwich_check"]),
    "dlr.D_estimate_ms": ("ms", "self", ["dlr.D_estimate"]),
    "dlr.finite_volume_dlr_check_ms": ("ms", "self", ["dlr.finite_volume_dlr_check"]),
    "potentials.truncate_ms": ("ms", "self", ["potentials.truncate"]),
    "potentials.evaluate_calls": ("count", "calls", ["potentials.Potential.evaluate"]),
    "potentials.birkhoff_table_ms": ("ms", "self", ["potentials.birkhoff_table"]),
    "potentials.birkhoff_ms": ("ms", "self", ["potentials.birkhoff"]),
    "ising.coboundary_check_ms": ("ms", "self", ["ising.coboundary_check"]),
    "ising.transfer_h_ms": ("ms", "self", ["ising.transfer_h"]),
    "ising.g_one_sided_calls": ("count", "calls", ["ising.g_one_sided"]),
    "ising.zeta_calls": ("count", "calls", ["ising.zeta"]),
    "shift.points_built": ("count", "calls", ["shift.Point.__post_init__"]),
    "shift.shift_n_ms": ("ms", "self", ["shift.shift_n"]),
}


class Tracer:
    def __init__(self, keep_ops: int):
        self.keep_ops = keep_ops
        self.active = False
        self.op = -1
        self.names: list[str] = []
        # kept spans, five entries each: op, name index, parent span, start ns, duration ns
        self.spans = array("q")
        self.kept = 0
        self.stack: list[list] = []    # open spans: [span index or -1, child ns]
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.iterations: dict[str, int] = {}
        self.report_bytes: dict[str, int] = {}
        self.absent: list[str] = []
        self.origin = time.perf_counter_ns()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, attr, kind in TARGETS:
            key = f"{mod_name}.{attr}"
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner, _, name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = getattr(holder, name, None) if holder is not None else None
            if orig is None:
                self.absent.append(key)
                continue
            wrapper = self._count(key, orig) if kind == "count" else self._span(key, orig)
            if owner:
                setattr(holder, name, wrapper)
                continue
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapper)

    def _count(self, key, fn):
        calls = self.calls
        calls[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, key, fn):
        idx = len(self.names)
        self.names.append(key)
        self.calls[key] = 0
        self.self_ns[key] = 0
        self.iterations[key] = 0
        self.report_bytes[key] = 0
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self.stack
            keep = self.op < self.keep_ops
            sid = -1
            if keep:
                sid = self.kept
                self.kept += 1
                self.spans.extend((self.op, idx, stack[-1][0] if stack else -1, 0, 0))
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                if keep:
                    self.spans[5 * sid + 3] = start - self.origin
                    self.spans[5 * sid + 4] = dur
                self.self_ns[key] += dur - frame[1]
                self.calls[key] += 1
            if isinstance(result, str):
                self.report_bytes[key] += len(result.encode())
            elif hasattr(result, "iterations"):
                self.iterations[key] += int(result.iterations)
            return result

        return wrapper

    # -- recording ------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.stack.clear()

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric, per operation over `ops` traced operations."""
        out = {}
        for name, (unit, stat, keys) in LAYER_METRICS.items():
            if stat == "self":
                total = sum(self.self_ns.get(k, 0) for k in keys) / 1e6
            elif stat == "calls":
                total = sum(self.calls.get(k, 0) for k in keys)
            elif stat == "iterations":
                total = sum(self.iterations.get(k, 0) for k in keys)
            else:
                total = sum(self.report_bytes.get(k, 0) for k in keys) / 1024
            out[name] = {"value": total / ops, "unit": unit}
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: op, span, parent span, name, start us, duration us."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent}) + "\n")
            sp = self.spans
            for sid in range(self.kept):
                op, idx, parent, start, dur = sp[5 * sid:5 * sid + 5]
                fh.write(f"[{op},{sid},{parent},{idx},{start / 1e3:.3f},{dur / 1e3:.3f}]\n")
