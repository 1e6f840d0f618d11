"""Per-layer span tracing, installed from outside the program.

A :class:`Tracer` rebinds the public functions listed in :data:`FUNCTIONS`,
:data:`METHODS` and :data:`DICT_ENTRIES` to timing wrappers.  A function is
rebound on *every* ``repro.*`` module attribute that holds the same object,
so aliases such as ``sweep.run_on_engine`` (``engine.run``) and
``ndbatch.approximation_step_block`` are traced too; methods are patched on
each class that defines them.  Nothing under ``src/`` changes.

Each call becomes a span ``{id, parent, name, start, end, pid, workload,
rep, n, seg}``: ``n`` is the work the call did where a measure is defined
(executions, kernel elements, items), ``seg`` numbers the resumptions of a
generator (one span per ``next``).  Span ids are unique per ``pid``.

The three functions in :data:`AGGREGATED` run hundreds of thousands of
times per rep and call no other traced function.  They are not recorded as
spans: their calls and time accumulate per name, and each span remembers
how much of its own time they took (``leaf``), so self time stays exact.

Install the wrappers before a pool forks.  Forked workers inherit them,
notice the new pid on their first span, and append their spans to
``spans-<pid>.jsonl`` in ``spans_dir`` each time their outermost span
closes; :meth:`Tracer.collect` merges those files with the parent's spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter

#: Executions per block at which the sweep stops growing a block
#: (``repro.sim.sweep.DEFAULT_MAX_BLOCK_SIZE``); ``ndbatch.block_fill`` is
#: the mean block size as a share of it.
FULL_BLOCK = 256


def _executions(args, kwargs, result) -> int:
    block = kwargs.get("inputs_block", args[1] if len(args) > 1 else ())
    return len(block)


def _elements(args, kwargs, result) -> int:
    return int(getattr(args[0], "size", 0)) if args else 0


def _returned(args, kwargs, result) -> int:
    return int(result)


def _one(args, kwargs, result) -> int:
    return 1


#: (span name, module, function, measure of the work one call did).
FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("net.seeded_rank_key_block", "repro.net.adversary", "seeded_rank_key_block", None),
    ("net.round_fault_model", "repro.net.adversary", "round_fault_model", None),
    ("net.message_bits", "repro.net.message", "message_bits", None),
    ("ndbatch.run_block", "repro.sim.ndbatch", "run_ndbatch_block", _executions),
    ("ndbatch.run_vector_block", "repro.sim.ndbatch", "run_vector_block", _executions),
    ("rounds.step_block", "repro.core.rounds", "approximation_step_block", _elements),
    ("rounds.step", "repro.core.rounds", "approximation_step", None),
    ("batch.run", "repro.sim.batch", "run_batch_protocol", None),
    ("event.run_protocol", "repro.sim.runner", "run_protocol", None),
    ("engine.select", "repro.sim.engine", "select_engine", None),
    ("engine.run", "repro.sim.engine", "run", None),
    ("engine.min_work", "repro.sim.engine", "ndbatch_min_work", _returned),
    ("planner.plan_block", "repro.sim.planner", "plan_block", None),
    ("planner.pack_dispatch_groups", "repro.sim.planner", "pack_dispatch_groups", None),
    ("sweep.adversary_bundle", "repro.sim.sweep", "build_adversary_bundle", None),
    ("sweep.run_cell", "repro.sim.sweep", "run_cell", None),
    ("sweep.iter_jsonl", "repro.sim.sweep", "iter_sweep_jsonl", None),
    ("job.cell_id", "repro.sim.job", "cell_id", None),
    ("job.scan_store", "repro.sim.job", "scan_sweep_store", None),
)

#: (span name, module, class, method, measure): patched on the class and on
#: every subclass that overrides the method.
METHODS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("net.rank_tensor", "repro.net.adversary", "OmissionPolicy", "rank_tensor", None),
    ("net.value_tensor", "repro.net.adversary", "ByzantineValueStrategy", "value_tensor", None),
    ("sweep.cells", "repro.sim.sweep", "SweepSpec", "cells", None),
    ("job.run", "repro.sim.job", "SweepJob", "run", None),
    ("job.fold", "repro.sim.job", "SweepJob", "fold", None),
    ("job.progress", "repro.sim.job", "SweepJob", "progress", None),
    ("job.compact", "repro.sim.job", "SweepJob", "compact", None),
    ("job.write_manifest", "repro.sim.job", "SweepJob", "write_manifest", None),
    ("pool.spawn", "multiprocessing.pool", "Pool", "__init__", None),
    # Parent side of Pool.imap: time blocked waiting for the next result;
    # n counts the results handed back.
    ("pool.wait", "multiprocessing.pool", "IMapIterator", "next", _one),
)

#: (span name, module, dict): every value of the dict is wrapped.
DICT_ENTRIES: Tuple[Tuple[str, str, str], ...] = (
    ("sweep.workload_inputs", "repro.sim.sweep", "WORKLOAD_SPECS"),
    ("sweep.workload_inputs", "repro.sim.sweep", "VECTOR_WORKLOAD_SPECS"),
)

#: Traced functions recorded as per-name totals instead of spans.
AGGREGATED = frozenset({"net.message_bits", "rounds.step", "job.cell_id"})

#: Every traced name, in table order.
SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(
        [entry[0] for entry in FUNCTIONS]
        + [entry[0] for entry in METHODS]
        + [entry[0] for entry in DICT_ENTRIES]
    )
)

#: Per-layer numbers derived from span measures rather than from a span.
DERIVED_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("ndbatch.executions_per_block", "count", "higher"),
    ("ndbatch.block_fill", "ratio", "higher"),
    ("rounds.step_block.elements", "count", "lower"),
    ("pool.items", "count", "lower"),
    ("engine.min_work.value", "count", "lower"),
)

#: Per-layer numbers the benchmark measures itself around the job layer
#: (see ``rep.py``) and the tracing cost (see ``run.py``).
HARNESS_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("job.store_bytes_per_cell", "B", "lower"),
    ("job.first_outcome_s", "s", "lower"),
    ("job.max_flush_gap_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in table order."""
    metrics: List[Tuple[str, str, str]] = []
    for name in sorted(SPAN_NAMES):
        metrics.append((f"{name}.calls", "count", "lower"))
        metrics.append((f"{name}.s", "s", "lower"))
        metrics.append((f"{name}.self_s", "s", "lower"))
    return metrics + list(DERIVED_METRICS) + list(HARNESS_METRICS)


def _is_wrapper(value) -> bool:
    return getattr(value, "__bench_span__", None) is not None


class Tracer:
    """Span recorder plus the wrappers that feed it (see module docstring)."""

    def __init__(
        self,
        spans_dir: Optional[str] = None,
        workload: str = "",
        rep: int = 0,
    ) -> None:
        self.spans_dir = spans_dir
        self.workload = workload
        self.rep = rep
        self.pid = os.getpid()
        self.is_child = False
        self.spans: List[tuple] = []
        self.totals: Dict[str, List[float]] = {}
        self._stack: List[int] = []
        self._leaf: List[float] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ---- recording ----------------------------------------------------

    def _open(self) -> Tuple[int, Optional[int]]:
        if os.getpid() != self.pid:
            # First span in a forked worker: the inherited stack belongs to
            # the parent, and so do the inherited spans.
            self.pid = os.getpid()
            self.is_child = True
            self.spans = []
            self.totals = {}
            self._stack = []
            self._leaf = []
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        self._leaf.append(0.0)
        return span_id, parent

    def _close(self, span_id, parent, name, start, end, amount, seg) -> None:
        self._stack.pop()
        leaf = self._leaf.pop()
        self.spans.append((span_id, parent, name, start, end, amount, seg, leaf))
        if self.is_child and not self._stack:
            self._flush_child()

    def _add_total(self, name: str, elapsed: float) -> None:
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0]
        total[0] += 1
        total[1] += elapsed
        if self._leaf:
            self._leaf[-1] += elapsed

    def _record(self, span) -> Dict:
        span_id, parent, name, start, end, amount, seg, leaf = span
        return {
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "pid": self.pid,
            "workload": self.workload,
            "rep": self.rep,
            "n": amount,
            "seg": seg,
            "leaf": leaf,
        }

    def _total_records(self) -> List[Dict]:
        return [
            {"total": name, "calls": calls, "s": seconds, "pid": self.pid,
             "workload": self.workload, "rep": self.rep}
            for name, (calls, seconds) in self.totals.items()
        ]

    def _flush_child(self) -> None:
        if self.spans_dir is None:
            return
        path = Path(self.spans_dir) / f"spans-{self.pid}.jsonl"
        lines = [self._record(span) for span in self.spans] + self._total_records()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(line) + "\n" for line in lines))
        self.spans = []
        self.totals = {}

    def collect(self) -> List[Dict]:
        """This process's spans and totals plus every worker's spans file."""
        records = [self._record(span) for span in self.spans] + self._total_records()
        if self.spans_dir is not None:
            for path in sorted(Path(self.spans_dir).glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as handle:
                    records.extend(json.loads(line) for line in handle if line.strip())
        return records

    # ---- wrappers -----------------------------------------------------

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        """A timing wrapper around ``fn`` recording spans called ``name``."""
        tracer = self
        if name in AGGREGATED:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._add_total(name, perf_counter() - start)

        elif inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._segments(name, fn(*args, **kwargs))

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_id, parent = tracer._open()
                amount = 0
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    if measure is not None:
                        amount = measure(args, kwargs, result)
                    return result
                finally:
                    tracer._close(span_id, parent, name, start, perf_counter(), amount, 0)

        wrapper.__bench_span__ = name
        return wrapper

    def _segments(self, name: str, inner):
        """Re-yield ``inner``, one span per resumption of its body."""
        seg = 0
        try:
            while True:
                span_id, parent = self._open()
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span_id, parent, name, start, perf_counter(), 0, seg)
                seg += 1
                yield item
        finally:
            inner.close()

    # ---- install / uninstall ------------------------------------------

    def _patch(self, owner, key: str, value, is_dict: bool = False) -> None:
        original = owner[key] if is_dict else getattr(owner, key)
        self._patches.append((owner, key, original, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> "Tracer":
        """Rebind every traced function; a second call changes nothing."""
        if self._patches:
            return self
        for name, module_name, attribute, measure in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attribute)
            if _is_wrapper(original):
                continue
            wrapper = self.wrap(name, original, measure)
            for module in [m for key, m in list(sys.modules.items())
                           if (key == "repro" or key.startswith("repro.")) and m is not None]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, module_name, class_name, method, measure in METHODS:
            base = getattr(importlib.import_module(module_name), class_name)
            for cls in _with_subclasses(base):
                original = cls.__dict__.get(method)
                if not inspect.isfunction(original) or _is_wrapper(original):
                    continue
                wrapper = self.wrap(name, original, measure)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        self._patch(cls, key, wrapper)
        for name, module_name, attribute in DICT_ENTRIES:
            table = getattr(importlib.import_module(module_name), attribute)
            for key, original in list(table.items()):
                if not _is_wrapper(original):
                    self._patch(table, key, self.wrap(name, original), is_dict=True)
        return self

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, key, original, is_dict = self._patches.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def _with_subclasses(base: type) -> List[type]:
    seen: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


# ---- span arithmetic ---------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(low, start), min(high, end))
        for low, high in intervals
        if min(high, end) > max(low, start)
    )
    total = 0.0
    run_low = run_high = None
    for low, high in clipped:
        if run_high is None or low > run_high:
            if run_high is not None:
                total += run_high - run_low
            run_low, run_high = low, high
        else:
            run_high = max(run_high, high)
    if run_high is not None:
        total += run_high - run_low
    return total


def self_times(spans: Sequence[Dict]) -> Dict[Tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, id)``.

    Self time is the span's duration minus the union of its child spans'
    intervals (children may overlap each other) minus the time spent in
    aggregated calls made directly from it (``leaf``).
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        duration = span["end"] - span["start"]
        inside = covered(children.get(key, ()), span["start"], span["end"])
        result[key] = max(0.0, duration - inside - span.get("leaf", 0.0))
    return result


def layer_table(records: Sequence[Dict]) -> Dict[str, float]:
    """``<name>.calls``/``.s``/``.self_s`` for every traced name, plus the
    derived per-layer numbers, from the records of one traced rep.

    ``.calls`` counts calls (a generator counts once, however often it is
    resumed); ``.s`` sums the spans not nested in a span of the same name,
    so recursion through a traced base method is not counted twice.
    """
    spans = [record for record in records if "total" not in record]
    table: Dict[str, float] = {}
    for name in SPAN_NAMES:
        table[f"{name}.calls"] = 0
        table[f"{name}.s"] = 0.0
        table[f"{name}.self_s"] = 0.0
    own = self_times(spans)
    by_key = {(span["pid"], span["id"]): span for span in spans}
    for span in spans:
        name = span["name"]
        key = (span["pid"], span["id"])
        if span["seg"] == 0:
            table[f"{name}.calls"] += 1
        table[f"{name}.self_s"] += own[key]
        parent = span["parent"]
        nested = False
        while parent is not None:
            outer = by_key.get((span["pid"], parent))
            if outer is None:
                break
            if outer["name"] == name:
                nested = True
                break
            parent = outer["parent"]
        if not nested:
            table[f"{name}.s"] += span["end"] - span["start"]
    for record in records:
        if "total" in record:
            name = record["total"]
            table[f"{name}.calls"] += record["calls"]
            table[f"{name}.s"] += record["s"]
            table[f"{name}.self_s"] += record["s"]

    def amount(name: str) -> int:
        return sum(span["n"] for span in spans if span["name"] == name)

    blocks = table["ndbatch.run_block.calls"] + table["ndbatch.run_vector_block.calls"]
    executions = amount("ndbatch.run_block") + amount("ndbatch.run_vector_block")
    per_block = executions / blocks if blocks else 0.0
    table["ndbatch.executions_per_block"] = per_block
    table["ndbatch.block_fill"] = per_block / FULL_BLOCK
    table["rounds.step_block.elements"] = amount("rounds.step_block")
    table["pool.items"] = amount("pool.wait")
    probed = [span["n"] for span in spans if span["name"] == "engine.min_work"]
    table["engine.min_work.value"] = probed[-1] if probed else 0
    return table
