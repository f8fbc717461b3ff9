"""Span recorder for the traced benchmark run.

`install()` replaces public detcodes names with timing wrappers.  A
function is replaced in every loaded detcodes module that holds it, so the
program's own lookups (``cli.read_shard``, ``leakage.echelon_pivots``, ...)
go through the wrapper; a method is replaced on its class.  No detcodes
source is changed, and nothing is wrapped unless this module is installed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from typing import Any, Callable

_clock = time.perf_counter

# Span record fields.
NAME, START, END, PARENT, CALLS, BUSY = range(6)


class Recorder:
    """Nested timed spans and counters, kept in memory until `report()`.

    A span is [name, start, end, parent index, calls, busy seconds].  A
    childless span that directly follows a childless sibling of the same
    name is folded into it (calls += 1), so a loop of 10^5 small calls
    stays one record while self and total times remain exact.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[list[Any]] = []  # [span index, seconds in children]
        self.self_s: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, 1, 0.0])
        self._stack.append([len(self.spans) - 1, 0.0])

    def exit(self) -> None:
        index, in_children = self._stack.pop()
        end = _clock()
        span = self.spans[index]
        name = span[NAME]
        duration = end - span[START]
        span[END], span[BUSY] = end, duration
        self.total_s[name] += duration
        self.self_s[name] += duration - in_children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if index == len(self.spans) - 1 and index > 0:
            prev = self.spans[index - 1]
            if prev[NAME] == name and prev[PARENT] == span[PARENT]:
                prev[END] = end
                prev[CALLS] += 1
                prev[BUSY] += duration
                self.spans.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def report(self) -> dict[str, Any]:
        origin = self.spans[0][START] if self.spans else 0.0
        spans = [
            [s[NAME], s[START] - origin, s[END] - origin, s[PARENT], s[CALLS], s[BUSY]]
            for s in self.spans
        ]
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": spans,
        }


# -- counters taken at the layer boundaries --------------------------------------


def _bytes_read(c: Counter, args: tuple, result: Any) -> None:
    c["shards.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(c: Counter, args: tuple, result: Any) -> None:
    c["shards.bytes_written"] += os.path.getsize(args[0])


def _stripes_in(position: int) -> Callable[[Counter, tuple, Any], None]:
    def count(c: Counter, args: tuple, result: Any) -> None:
        c["shards.stripes"] += args[position].shape[0]

    return count


def _stripes_repaired(c: Counter, args: tuple, result: Any) -> None:
    codec, shard = args[0], result[0]
    c["shards.stripes"] += shard.symbols.size // codec.params.alpha


def _keys_drawn(c: Counter, args: tuple, result: Any) -> None:
    c["secure.keys_drawn"] += len(result)


def _elimination(c: Counter, args: tuple, result: Any) -> None:
    rows, cols = args[0].shape
    c["gfmatrix.elim_rows"] += rows
    c["gfmatrix.elim_cells"] += rows * cols
    c["gfmatrix.pivots"] += len(result)


def _view(c: Counter, args: tuple, result: Any) -> None:
    c["leakage.views"] += 1
    c["leakage.view_rows"] += args[0].key_map.shape[0]


# (module, name, span, counter): functions, replaced wherever they are held.
FUNCTIONS = [
    ("detcodes.shards", "pack_bytes", "shards.pack_bytes", None),
    ("detcodes.shards", "unpack_bytes", "shards.unpack_bytes", None),
    ("detcodes.shards", "read_shard", "shards.read_shard", _bytes_read),
    ("detcodes.shards", "write_shard", "shards.write_shard", _bytes_written),
    ("detcodes.code", "repair_encoder", "code.repair_encoder", None),
    ("detcodes.gfmatrix", "echelon_pivots", "gfmatrix.echelon_pivots", _elimination),
    ("detcodes.leakage", "audit_sweep", "leakage.audit_sweep", None),
    ("detcodes.leakage", "cell_maps", "leakage.cell_maps", None),
    ("detcodes.leakage", "observe_node_contents", "leakage.observe_node_contents", None),
    ("detcodes.leakage", "observation_ranks", "leakage.observation_ranks", _view),
]

# (module, class, method, span, counter): methods, replaced on the class.
METHODS = [
    ("detcodes.shards", "StripedCodec", "__init__", "shards.codec_init", None),
    ("detcodes.shards", "StripedCodec", "assemble_batch", "shards.assemble_batch", _stripes_in(1)),
    ("detcodes.shards", "StripedCodec", "encode_batch", "shards.encode_batch", None),
    ("detcodes.shards", "StripedCodec", "recover_batch", "shards.recover_batch", _stripes_in(2)),
    ("detcodes.shards", "StripedCodec", "repair_shard", "shards.repair_shard", _stripes_repaired),
    ("detcodes.secure", "KeyStream", "draw", "secure.KeyStream.draw", _keys_drawn),
    ("detcodes.gfmatrix", "GFMatrix", "inv", "gfmatrix.inv", None),
]


def _traced(rec: Recorder, span: str, fn: Callable, counter: Callable | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        rec.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if counter is not None:
            counter(rec.counts, args, result)
        return result

    return traced


def _counted(rec: Recorder, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(*args: Any, **kwargs: Any) -> Any:
        rec.counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    for modname, module in list(sys.modules.items()):
        if modname != "detcodes" and not modname.startswith("detcodes."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Recorder:
    """Wrap every traced layer of the already imported detcodes package."""
    rec = Recorder()
    for modname, name, span, counter in FUNCTIONS:
        original = getattr(sys.modules[modname], name)
        _replace_everywhere(original, _traced(rec, span, original, counter))
    for modname, clsname, name, span, counter in METHODS:
        cls = getattr(sys.modules[modname], clsname)
        setattr(cls, name, _traced(rec, span, getattr(cls, name), counter))
    keystream = sys.modules["detcodes.secure"].KeyStream
    keystream.__init__ = _counted(rec, "secure.keystreams", keystream.__init__)
    return rec
