"""Span tracing for the traced benchmark run, installed from outside the program.

Each target below is a public function or method of a ``fedchain`` module.
``install`` replaces it with a wrapper that records one span per call
(name, start, end, parent) plus counts, and rebinds the wrapper under every
name that refers to the original in any loaded ``fedchain`` module: for
example ``keccak256`` is imported separately into ``ledger``, ``scenario``,
``offchain`` and ``flclients``. Spans stay in memory; ``summary`` derives each
span's self time as its duration minus the duration of its child spans.

Fine-grained helpers (``Fixed`` arithmetic, ``div_toward_zero``) are not
wrapped: they run once per vector component, so a wrapper would cost more
than the work it measures.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# canonical_json calls made directly under these spans also count their
# bytes: the state snapshot hashed into each block (summed, and its size at
# the last block), and the ledger document persisted by write_run.
_JSON_BYTES_UNDER = {
    "ledger.state_root": ("ledger.state_root.bytes", "ledger.state_root.last_bytes"),
    "scenario.write_run": (None, "scenario.ledger_bytes"),
}


def _targets():
    """(span name, owner, attribute, kind, counter) for every wrapped call."""
    from fedchain import coordinator, flclients, incentives, keccak, ledger, numerics
    from fedchain import offchain, scenario

    def components(tracer, name, args, result, parent):
        tracer.counts[name + ".components"] += result.dim

    def message_bytes(tracer, name, args, result, parent):
        tracer.counts[name + ".bytes"] += len(args[0])

    def vector_bytes(tracer, name, args, result, parent):
        tracer.counts[name + ".bytes"] += 4 + 16 * args[0].dim

    def json_bytes(tracer, name, args, result, parent):
        tracer.counts[name + ".bytes"] += len(result)
        sum_key, last_key = _JSON_BYTES_UNDER.get(parent, (None, None))
        if sum_key is not None:
            tracer.counts[sum_key] += len(result)
        if last_key is not None:
            tracer.counts[last_key] = len(result)

    return [
        ("flclients.local_train", flclients, "local_train", "function", None),
        ("flclients.generate", flclients.SyntheticDataset, "generate", "classmethod", None),
        ("numerics.quantize", numerics.GradientVector, "from_floats", "classmethod", components),
        ("numerics.decode", numerics.GradientVector, "from_raw", "classmethod", components),
        ("numerics.fedavg", numerics, "sample_weighted_mean", "function", None),
        ("numerics.dot", numerics, "dot", "function", None),
        ("keccak", keccak, "keccak256", "function", message_bytes),
        ("offchain.vector_commit", offchain, "vector_commit", "function", vector_bytes),
        ("offchain.canonical_json", offchain, "canonical_json_bytes", "function", json_bytes),
        ("offchain.publish_checkpoint", offchain, "publish_checkpoint", "function", None),
        ("ledger.submit_tx", ledger.Ledger, "submit_tx", "method", None),
        ("ledger.tx_hash", ledger.Transaction, "tx_hash", "method", None),
        ("ledger.seal_block", ledger.Ledger, "seal_block", "method", None),
        ("ledger.state_root", ledger.Ledger, "state_root", "method", None),
        ("coordinator.execute", coordinator.Coordinator, "execute", "method", None),
        ("coordinator.state_dict", coordinator.Coordinator, "state_dict", "method", None),
        ("incentives.shapley", incentives, "shapley_exact", "function", None),
        ("incentives.coalition_value", incentives, "coalition_value_alignment", "function", None),
        ("incentives.cumulative_scores", incentives, "cumulative_scores", "function", None),
        ("scenario.scores_from_ledger", scenario, "scores_from_ledger", "function", None),
        ("scenario.ledger_document", scenario, "ledger_document", "function", None),
        ("scenario.build_report", scenario, "build_report", "function", None),
        ("scenario.write_run", scenario, "write_run", "function", None),
        ("scenario.audit_run", scenario, "audit_run", "function", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1, paused seconds]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            spans.append(span)  # before the push: pause() may run between any two lines
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[2] = end
            if counter is not None:
                counter(self, name, args, result, spans[parent][0] if parent >= 0 else None)
            return result

        return traced

    def pause(self, seconds: float) -> None:
        """Take time spent outside the program (a speed probe) out of open spans."""
        for index in self._stack:
            self.spans[index][4] += seconds

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "fedchain" or key.startswith("fedchain."))]
        for name, owner, attr, kind, counter in _targets():
            if kind == "classmethod":
                original = owner.__dict__[attr].__func__
                setattr(owner, attr, classmethod(self.wrap(name, original, counter)))
            elif kind == "method":
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], counter))
            else:
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def summary(self, window_s: float, scale: float) -> dict:
        """Per-span calls and self time, plus the window time in no span.

        ``window_s`` excludes paused time; every time is multiplied by ``scale``.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, paused in self.spans:
            if parent >= 0:
                child_s[parent] += end - start - paused
        out: dict = {}
        root_s = 0.0
        for index, (name, start, end, parent, paused) in enumerate(self.spans):
            duration = end - start - paused
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (duration - child_s[index]) * scale
            if parent < 0:
                root_s += duration
        return {"spans": out, "counts": dict(self.counts),
                "other_s": (window_s - root_s) * scale}
