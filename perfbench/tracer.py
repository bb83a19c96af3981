"""Spans around calls into zsindex's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function, in every loaded zsindex
module that refers to it, with a wrapper that opens a span on entry and
closes it on return.  A generator's span is one resumption: a span opens
when the consumer asks for the next item and closes when the item comes
back, so its busy time excludes the consumer's own work.

Spans live in compact in-memory arrays (name, parent, request, start, end)
and are written out once, by `write`, after the run.  Per-layer totals are
kept online at the same boundaries: calls, inclusive time (outermost call
of each name only, so recursion is not counted twice), self time (span
time minus the time of its child spans) and the counts each hook adds.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, function, is_generator): the layer boundaries that get spans.
TRACED = (
    ("enumeration", "iter_min_zero_sum4", True),
    ("enumeration", "iter_orbit_reps", True),
    ("normalform", "classify", False),
    ("certify", "find_certificate", False),
    ("certify", "shape_stats", False),
    ("certify", "small_a_certificate", False),
    ("certify", "search_interval", False),
    ("certify", "search_half_interval", False),
    ("certify", "search_majority_small", False),
    ("certify", "finalize", False),
    ("subgroup", "try_subgroup_reduce", False),
    ("subgroup", "lift_witness", False),
    ("zseq", "index", False),
    ("harness", "verify_modulus", False),
    ("harness", "report_to_json", False),
)

SPAN_FIELDS = (("name", "B"), ("parent", "i"), ("request", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    """Span store plus online per-layer totals.

    `hooks` maps a span name to a callback(tracer, args, result, duration,
    outermost) run after each call; `request_of` maps a span name to a
    function of the call's arguments that starts a new request, such as
    the modulus of verify_modulus.
    """

    def __init__(self, hooks: dict | None = None, request_of: dict | None = None) -> None:
        self.hooks = hooks or {}
        self.request_of = request_of or {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = {field: array(code) for field, code in SPAN_FIELDS}
        self.request = -1
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.durations: defaultdict = defaultdict(list)
        self._stack: list[list] = []  # [span id, name, child time]
        self._depth: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = perf_counter()

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        spans = self.spans
        sid = len(spans["start"])
        spans["name"].append(nid)
        spans["parent"].append(self._stack[-1][0] if self._stack else -1)
        spans["request"].append(self.request)
        spans["end"].append(0.0)
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        spans["start"].append(perf_counter() - self.t0)
        return frame

    def _close(self, frame: list) -> tuple[float, bool]:
        end = perf_counter() - self.t0
        sid, name, child = frame
        spans = self.spans
        spans["end"][sid] = end
        duration = end - spans["start"][sid]
        self._stack.pop()
        self._depth[name] -= 1
        outermost = self._depth[name] == 0
        self.calls[name] += 1
        self.self_time[name] += duration - child
        if outermost:
            self.inclusive[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration, outermost

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name; hooks run on the result."""
        starts_request = self.request_of.get(name)
        if starts_request is not None:
            self.request = starts_request(args)
        frame = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration, outermost = self._close(frame)
        hook = self.hooks.get(name)
        if hook is not None:
            hook(self, args, result, duration, outermost)
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(frame)
                    return
                except BaseException:
                    tracer._close(frame)
                    raise
                duration, outermost = tracer._close(frame)
                if hook is not None:
                    hook(tracer, args, item, duration, outermost)
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- installing the wrappers ------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function wherever a zsindex module binds it."""
        holders = [m for key, m in sys.modules.items() if key == "zsindex" or key.startswith("zsindex.")]
        for module_name, func_name, is_generator in TRACED:
            original = getattr(sys.modules[f"zsindex.{module_name}"], func_name)
            name = f"{module_name}.{func_name}"
            wrap = self._wrap_generator if is_generator else self._wrap
            wrapper = wrap(name, original)
            for holder in holders:
                if getattr(holder, func_name, None) is original:
                    setattr(holder, func_name, wrapper)
                    self._patched.append((holder, func_name, original))

    def uninstall(self) -> None:
        for holder, func_name, original in reversed(self._patched):
            setattr(holder, func_name, original)
        self._patched.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.spans["start"])

    def write(self, path: Path) -> None:
        """Write the spans as `path` (raw arrays, field by field) plus `path`.json (layout)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for field, _ in SPAN_FIELDS:
                self.spans[field].tofile(fh)
        layout = {
            "names": self.names,
            "count": self.span_count,
            "fields": [[field, code] for field, code in SPAN_FIELDS],
            "time_unit": "s since trace start",
            "parent": "index of the enclosing span, -1 at top level",
            "request": "modulus n, query number, or -1 outside any request",
        }
        Path(f"{path}.json").write_text(json.dumps(layout, indent=1) + "\n")


def load_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    """Read back what `Tracer.write` wrote: (name table, field -> array)."""
    layout = json.loads(Path(f"{path}.json").read_text())
    count = layout["count"]
    fields: dict[str, array] = {}
    with open(path, "rb") as fh:
        for field, code in layout["fields"]:
            values = array(code)
            values.fromfile(fh, count)
            fields[field] = values
    return layout["names"], fields
