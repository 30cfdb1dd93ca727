"""Span tracing of infotherm's layers, from outside the package.

Each traced function is replaced, at every module-level name that refers to
it, by a wrapper that records a span: (name, start, end, parent span, op id,
counters). ``mcsim`` imports ``multiplicity_ln`` from ``twolevel`` and
``cli`` imports ``convert_information`` from ``quantities``, so those names
are patched too; a span is named after the function's home module.

Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its direct children.

Peak memory per function comes from a separate pass under ``tracemalloc``,
because tracing allocations slows the allocation-heavy coder.
"""

import importlib
import time
import tracemalloc

#: Public functions that the workloads reach, by home module. ``cli.main``
#: is the root of every op, so its self time is argument parsing plus
#: rendering.
TRACED = {
    "cli": ("main",),
    "fileinfo": ("analyze", "analyze_counts", "max_information", "file_temperature", "shannon_entropy_order0",
                 "block_entropy", "compression_information", "effective_temperature"),
    "lz": ("compress", "compressed_size_bits"),
    "mcsim": ("simulate_transfer", "run_ensemble", "ensemble_summary"),
    "twolevel": ("multiplicity_ln", "entropy_stirling", "gas_temperature", "occupation_at",
                 "transfer_entropy_delta", "gas_state"),
    "broadcast": ("transmitter_temperature", "receiver_temperature", "broadcast_entropy_balance", "max_range",
                  "max_broadcast_information", "equivalent_bit_energy"),
    "bounds": ("clausius_check", "max_computing_rate"),
    "quantities": ("convert_information",),
}
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)

#: Functions whose peak traced memory is measured.
MEMORY_TRACED = ("lz.compress", "fileinfo.block_entropy", "mcsim.simulate_transfer")

_MODULES = ("cli", "fileinfo", "lz", "mcsim", "twolevel", "broadcast", "bounds", "quantities")


def _steps(args, kwargs):
    return args[4] if len(args) > 4 else kwargs["steps"]


#: Work counters recorded with a span, from the call's arguments and result.
COUNTERS = {
    "lz.compress": lambda args, kwargs, result: {"bytes_in": len(args[0]), "bytes_out": len(result)},
    "fileinfo.block_entropy": lambda args, kwargs, result: {"bits_in": 8 * len(args[0])},
    "mcsim.simulate_transfer": lambda args, kwargs, result: {"steps": _steps(args, kwargs)},
}


def _patch(wrap) -> list:
    """Replace every module-level reference to a traced function; return the undo list."""
    modules = [importlib.import_module(f"infotherm.{name}") for name in _MODULES]
    originals = {}
    for module, fns in TRACED.items():
        home = importlib.import_module(f"infotherm.{module}")
        for fn in fns:
            originals[id(getattr(home, fn))] = (f"{module}.{fn}", getattr(home, fn))
    undo, wrappers = [], {}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in originals:
                name, original = originals[id(value)]
                if name not in wrappers:
                    wrappers[name] = wrap(name, original)
                wrapper = wrappers[name]
                if wrapper is not None:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
    return undo


def _unpatch(undo: list) -> None:
    for module, attr, value in undo:
        setattr(module, attr, value)


class Tracer:
    """Records spans for every traced function while installed."""

    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op_id, None]
            if counter is not None:
                spans[index][5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        self._undo = _patch(self._wrap)

    def uninstall(self) -> None:
        _unpatch(self._undo)


class MemoryProbe:
    """Peak traced allocation of each function in MEMORY_TRACED, over all calls."""

    def __init__(self):
        self.peaks = {name: 0 for name in MEMORY_TRACED}
        self._undo: list = []

    def _wrap(self, name, fn):
        if name not in self.peaks:
            return None
        peaks = self.peaks

        def probed(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = max(peaks[name], tracemalloc.get_traced_memory()[1] - base)

        return probed

    def __enter__(self):
        self._undo = _patch(self._wrap)
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        _unpatch(self._undo)


def self_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus that of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list, peaks: dict, overhead_s: float, output_bytes: int) -> dict:
    """Per-layer metrics of one traced run, every name present on every workload."""
    own = self_times(spans)
    calls = {name: 0 for name in SPAN_NAMES}
    self_s = {name: 0.0 for name in SPAN_NAMES}
    counts: dict[str, float] = {}
    for span, seconds in zip(spans, own):
        calls[span[0]] += 1
        self_s[span[0]] += seconds
        for key, value in (span[5] or {}).items():
            counts[f"{span[0]}.{key}"] = counts.get(f"{span[0]}.{key}", 0) + value
    op_wall = sum(end - start for name, start, end, parent, _, _ in spans if parent < 0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.share"] = (rate(self_s[name], op_wall), "fraction")
    lz_in = counts.get("lz.compress.bytes_in", 0)
    bits_in = counts.get("fileinfo.block_entropy.bits_in", 0)
    steps = counts.get("mcsim.simulate_transfer.steps", 0)
    metrics.update({
        "lz.compress.bytes_in": (lz_in, "B"),
        "lz.compress.bytes_out": (counts.get("lz.compress.bytes_out", 0), "B"),
        "lz.compress.mib_per_s": (rate(lz_in / 2**20, self_s["lz.compress"]), "MiB/s"),
        "fileinfo.block_entropy.bits_in": (bits_in, "bit"),
        "fileinfo.block_entropy.mib_per_s": (rate(bits_in / 8 / 2**20, self_s["fileinfo.block_entropy"]), "MiB/s"),
        "mcsim.simulate_transfer.steps": (steps, "count"),
        "mcsim.simulate_transfer.steps_per_s": (rate(steps, self_s["mcsim.simulate_transfer"]), "1/s"),
        "cli.output_bytes": (output_bytes, "B"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    for name in MEMORY_TRACED:
        metrics[f"{name}.peak_mib"] = (peaks.get(name, 0) / 2**20, "MiB")
    return metrics
