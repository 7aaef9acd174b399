"""Span recording for the traced benchmark run.

The tracer replaces public functions on the modules that define them with
thin wrappers. The package calls its own functions through module globals,
so calls made inside it (exact_treewidth calling min_fill_order,
is_winning_divisor calling q_reduce) become child spans without any change
to the package. Spans stay in memory as flat arrays and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

# Public functions wrapped per package module. Every call to one of them
# becomes a span named "<module>.<function>".
TRACED = {
    "graphs": ("make_family", "read_gr", "write_gr"),
    "treewidth": (
        "exact_treewidth",
        "min_fill_order",
        "degeneracy",
        "decomposition_from_elimination_order",
        "validate_tree_decomposition",
    ),
    "brambles": (
        "gen_grid_bramble",
        "gen_prism_b1",
        "gen_prism_b2",
        "gen_torus_cde",
        "gen_torus_fg",
        "classify_family",
        "min_hitting_set",
    ),
    "chipfiring": (
        "exact_gonality",
        "gen_winning_divisor",
        "is_winning_divisor",
        "q_reduce",
    ),
}

REDUNDANT_Q_REDUCE = "chipfiring.q_reduce_redundant"


class Tracer:
    """Records one span per call of a wrapped function, plus root spans the
    benchmark opens around each certificate."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.cert = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [-1]
        self._cert = -1
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.cert.append(self._cert)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def open_cert(self, label: str) -> int:
        """Root span of one certificate; its id tags every span below it."""
        idx = self.open(self.name_id("bench.cert/" + label))
        self._cert = idx
        self.cert[idx] = idx
        return idx

    def close_cert(self, idx: int) -> None:
        self.close(idx)
        self._cert = -1

    def install(self, mods) -> None:
        for module_name, functions in TRACED.items():
            module = getattr(mods, module_name)
            for fname in functions:
                self._wrap(module, module_name, fname)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._restore):
            setattr(module, fname, original)
        self._restore.clear()

    def _wrap(self, module, module_name: str, fname: str) -> None:
        original = getattr(module, fname)
        nid = self.name_id(f"{module_name}.{fname}")
        count_redundant = (module_name, fname) == ("chipfiring", "q_reduce")
        winning_id = self.name_id("chipfiring.is_winning_divisor") if count_redundant else -1

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count_redundant and len(args) == 3:
                # is_winning_divisor reduces d - (v) at v; when d(v) >= 1 that
                # divisor is already effective, so the reduction is redundant
                parent = self._stack[-1]
                if parent >= 0 and self.name[parent] == winning_id:
                    d, q = args[1], args[2]
                    if d.chips[q] >= 0:
                        self.counts[REDUNDANT_Q_REDUCE] += 1
            idx = self.open(nid)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(idx)

        setattr(module, fname, wrapper)
        self._restore.append((module, fname, original))

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position to aggregate from: span count and a counts snapshot."""
        return len(self.name), dict(self.counts)

    def profile(self, since: tuple[int, dict[str, int]]) -> "Profile":
        """Self time, inclusive time and calls per span name, for spans
        recorded after the mark. Self time is the span's duration minus
        the durations of its direct children."""
        first, counts_then = since
        last = len(self.name)
        child_ns: dict[int, int] = defaultdict(int)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child_ns[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(first, last):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            self_s[name] += (dur - child_ns.get(i, 0)) / 1e9
            incl_s[name] += dur / 1e9
            calls[name] += 1
        counts = {k: v - counts_then.get(k, 0) for k, v in self.counts.items()}
        return Profile(dict(self_s), dict(incl_s), dict(calls), counts, last - first)

    def write(self, path) -> None:
        """One tab-separated line per span; times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tparent\tcert\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.cert[i]}\t{names[self.name[i]]}"
                    f"\t{self.start[i] - t0}\t{self.end[i] - t0}\n"
                )


class Profile:
    """Aggregated spans of one stretch of a traced run."""

    def __init__(self, self_s, incl_s, calls, counts, spans) -> None:
        self.self_s = self_s
        self.incl_s = incl_s
        self.calls = calls
        self.counts = counts
        self.spans = spans

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            out[layer_of(name)] += s
        return dict(out)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0].split("/", 1)[0]
