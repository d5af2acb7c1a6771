"""Outside-in tracing of dmuss's layer boundaries.

A :class:`Tracer` wraps each public function listed in ``BOUNDARIES`` and
rebinds the wrapper under every name a dmuss module holds for the
original (``from .access import in_capacity_region`` in planner, cli, the
package namespace, ...), so calls between layers are seen as well as the
benchmark's own calls.  ``Field`` is a class that other code tests with
``isinstance``, so its ``__init__`` is wrapped instead of the name.
``cli.main`` gets one span per call, named ``cli.<subcommand>``.

Spans are kept in memory as ``[name, start, end, parent, op]``, with
integer nanosecond clock readings so that self times are exact, and only
aggregated or written out after the run.  Nothing is installed unless a
run asks for tracing, and :meth:`Tracer.uninstall` puts every original
object back.

The per-layer metrics describe the timed loop only (spans with op id >= 0)
and are given per loop operation.  The loops run whole batches, so calls
and work counts per op repeat exactly for a workload, seed and number of
batches (``provision`` cycles through its ladder draws, so its counts
also depend on how many batches fit in the run).
Set-up spans (op id -1) are kept in the span file.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

BOUNDARIES = {
    "gf": ("Field",),
    "linalg": ("rref", "solve", "det", "inverse", "rank", "null_space"),
    "access": ("in_capacity_region", "augment_quotas", "validate_quotas"),
    "sdr": ("find_sdr", "validate_sdr"),
    "planner": (
        "make_plan",
        "choose_zeta",
        "choose_permutation",
        "plan_from_parameters",
        "plan_decomposition",
    ),
    "codec": ("encode_with_pads", "decode", "transfer_map"),
    "verify": ("check_privacy", "check_entropy", "check_correctness"),
    "files": ("load_json", "save_json", "plan_from_dict", "plan_to_dict"),
    "cli": ("main",),
}
CLI_COMMANDS = ("check", "plan", "encode", "decode", "verify")

SPAN_NAMES = tuple(
    f"{module}.{name}"
    for module, names in BOUNDARIES.items()
    for name in (CLI_COMMANDS if module == "cli" else names)
)

# Work counts taken where the work happens, in the timed loop.
COUNTS = (
    "access.in_capacity_region.constraints",
    "access.in_capacity_region.rejected",
    "planner.choose_zeta.det_calls",
    "codec.encode_with_pads.unknowns",
    "linalg.rref.mac_computed",
    "linalg.det.mac_computed",
) + tuple(f"{module}.raised" for module in BOUNDARIES)


def _observe_region(counts, args, report):
    counts["access.in_capacity_region.constraints"] += report.checked
    if not report.ok:
        counts["access.in_capacity_region.rejected"] += 1


def _observe_encode(counts, args, result):
    counts["codec.encode_with_pads.unknowns"] += args[0].unknown_count


def _observe_rref(counts, args, result):
    a = args[1]
    cols = len(a[0]) if a else 0
    counts["linalg.rref.mac_computed"] += len(a) * cols * len(result[1])


def _observe_det(counts, args, result):
    counts["linalg.det.n_cubed"] += len(args[1]) ** 3


OBSERVERS = {
    "access.in_capacity_region": _observe_region,
    "codec.encode_with_pads": _observe_encode,
    "linalg.rref": _observe_rref,
    "linalg.det": _observe_det,
}


def _dmuss_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "dmuss" or name.startswith("dmuss."))
    ]


class Tracer:
    """Span recorder; ``install`` wraps the boundaries, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0  # id shared by the spans of one operation
        self.rebound: list = []  # (holder, attribute, original), in install order
        self._stack: list = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if self.rebound:
            raise RuntimeError("tracer is already installed")
        # import every layer first, so every module's bindings get rebound
        modules = {m: importlib.import_module(f"dmuss.{m}") for m in BOUNDARIES}
        for module_name, names in BOUNDARIES.items():
            module = modules[module_name]
            for name in names:
                original = getattr(module, name)
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    wrapped = self._wrap(f"{module_name}.{name}", init, module_name)
                    setattr(original, "__init__", wrapped)
                    self.rebound.append((original, "__init__", init))
                    continue
                if module_name == "cli":
                    wrapped = self._wrap(None, original, module_name)
                else:
                    wrapped = self._wrap(f"{module_name}.{name}", original, module_name)
                for holder in _dmuss_modules():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapped)
                            self.rebound.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self.rebound):
            setattr(holder, attr, original)
        self.rebound = []

    def _wrap(self, name, fn, module_name):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_name = name
            if span_name is None:  # cli.main(argv): name the span by subcommand
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.{argv[0] if argv else '?'}"
            parent = stack[-1] if stack else -1
            span = [span_name, 0, 0, parent, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                crossed = parent < 0 or not spans[parent][0].startswith(module_name + ".")
                if crossed and span[4] >= 0:
                    counts[f"{module_name}.raised"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None and span[4] >= 0:
                observe(counts, args, result)
            return result

        wrapper.bench_span = name or "cli"
        return wrapper

    # --- after the run ------------------------------------------------------

    def self_times(self) -> list:
        """Per span, in ns: duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (name, start, end, parent, op), c in zip(self.spans, child)]

    def layer_metrics(self, ops: int) -> dict:
        """Calls, total and self time per boundary, and the work counts,
        over the timed loop's spans, each divided by its ``ops`` ops."""
        calls, total, own = Counter(), Counter(), Counter()
        det_calls = 0
        for span, self_ns in zip(self.spans, self.self_times()):
            name, start, end, parent, op = span
            if op < 0:
                continue
            calls[name] += 1
            total[name] += end - start
            own[name] += self_ns
            if name == "linalg.det" and parent >= 0 and self.spans[parent][0] == "planner.choose_zeta":
                det_calls += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / ops, "count/op")
            out[f"{name}.total_s"] = (total[name] / 1e9 / ops, "s/op")
            out[f"{name}.self_s"] = (own[name] / 1e9 / ops, "s/op")
        counts = dict(self.counts)
        counts["planner.choose_zeta.det_calls"] = det_calls
        counts["linalg.det.mac_computed"] = counts.pop("linalg.det.n_cubed", 0) // 3
        for name in COUNTS:
            out[name] = (counts.get(name, 0) / ops, "count/op")
        return out

    def write(self, path) -> None:
        """Write every span as one JSON document: names once, rows by index."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], a, b, parent, op] for n, a, b, parent, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"columns": ["name", "start_ns", "end_ns", "parent", "op"], "names": names, "spans": rows},
                fh,
            )
            fh.write("\n")
