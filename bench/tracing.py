"""In-process span tracing of `choicetrust score`, one span per layer call.

Layers are the package's modules. A span wraps a public function under the
name the calling module looks it up by, so `trust_scoring.omega` is the call
from the scoring loop into `pattern_runs`, and `pattern_runs.flatten` is the
nested call from `omega` into `preference_graph`. Calls not listed in
WRAPPED, such as `omega` into its own module's `scan_runs`, count towards the
caller's span. Self time is a span's
duration minus the duration of its direct children; calls never overlap,
because the program is single-threaded.

Spans of the current traced run stay in memory as (run, id, parent, name,
start_ns, end_ns); the caller writes them out when the benchmark ends. Counters are taken at the
same call boundaries from the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


def _parse_counts(tracer, args, result):
    records, problems = result
    tracer.counts["cli_io.parse.records"] += len(records)
    tracer.counts["cli_io.parse.rejected"] += len(problems)


def _render_counts(tracer, args, result):
    tracer.counts["cli_io.render.bytes"] += len(result.encode("utf-8"))


def _derive_counts(tracer, args, result):
    episode = args[0]
    tracer.counts["preference_graph.derive_calls"] += 1
    tracer.derived.add((episode.reviewer_id, episode.period))


def _flatten_counts(tracer, args, result):
    tracer.counts["pattern_runs.scanned_bits"] += len(result.bits)


def _bin_table_counts(tracer, args, result):
    a, b = args[0]
    tracer.counts["rationality_outcomes.enumerated_patterns"] += a * b
    tracer.table_ns.add((a, b))


def _at_most_counts(tracer, args, result):
    distribution, r = args
    if r >= 0:
        tracer.counts["trust_scoring.binomial.cdf_terms"] += min(r, distribution.n) + 1


def _report_counts(tracer, args, result):
    tracer.counts["trust_scoring.assessments"] += sum(len(s.assessments) for s in result.reviewers)


# (owner, attribute, layer, counter): `owner` is a module of the package, or
# a class in one, whose attribute the calling code looks up at call time.
WRAPPED = (
    ("cli_io", "load_episodes", "cli_io.parse", _parse_counts),
    ("cli_io", "load_reviews", "cli_io.parse", _parse_counts),
    ("cli_io", "build_report", "trust_scoring.build_report", _report_counts),
    ("cli_io", "report_to_dict", "cli_io.render", None),
    ("cli_io", "report_to_json", "cli_io.render", _render_counts),
    ("cli_io", "report_to_csv", "cli_io.render", _render_counts),
    ("cli_io", "report_to_text", "cli_io.render", _render_counts),
    ("trust_scoring", "validate_episode", "choice_model.validate", None),
    ("trust_scoring", "derive_matrix", "preference_graph", _derive_counts),
    ("trust_scoring", "flatten", "preference_graph", None),
    ("trust_scoring", "concat_patterns", "preference_graph", None),
    ("trust_scoring", "omega", "pattern_runs.omega", None),
    ("trust_scoring", "bin_table", "rationality_outcomes.bin_table", _bin_table_counts),
    ("trust_scoring", "membership", "rationality_outcomes.membership", None),
    ("pattern_runs", "derive_matrix", "preference_graph", _derive_counts),
    ("pattern_runs", "flatten", "preference_graph", _flatten_counts),
    ("trust_scoring.OverallRationality", "from_parameters", "trust_scoring.binomial", None),
    ("trust_scoring.OverallRationality", "at_most", "trust_scoring.binomial", _at_most_counts),
    ("trust_scoring.OverallRationality", "at_least", "trust_scoring.binomial", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in WRAPPED))
MODULES = tuple(dict.fromkeys(owner.partition(".")[0] for owner, _, _, _ in WRAPPED))
COUNTS = (
    "cli_io.parse.records",
    "cli_io.parse.rejected",
    "cli_io.render.bytes",
    "preference_graph.derive_calls",
    "pattern_runs.scanned_bits",
    "rationality_outcomes.enumerated_patterns",
    "trust_scoring.assessments",
    "trust_scoring.binomial.cdf_terms",
)
_CALL_COUNTS = {
    "choice_model.validate.calls": "choice_model.validate",
    "pattern_runs.omega.calls": "pattern_runs.omega",
    "rationality_outcomes.bin_table.calls": "rationality_outcomes.bin_table",
}


def resolve(modules: dict, owner_path: str):
    """The module, or class in a module, that an entry of WRAPPED patches."""
    module, _, cls = owner_path.partition(".")
    return getattr(modules[module], cls) if cls else modules[module]


class Tracer:
    """Collects spans, per-layer self time and counters for one traced run at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, start ns, child ns] per open span
        self._next_id = 0
        self._run = ""
        self._self_ns: Counter = Counter()
        self._total_ns: Counter = Counter()
        self._calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.derived: set = set()  # (reviewer, period) pairs whose matrix was derived
        self.table_ns: set = set()  # distinct catalog sizes bar tables were built for

    def _wrap(self, name: str, layer: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, time.perf_counter_ns(), 0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                self._self_ns[layer] += duration - frame[2]
                self._total_ns[layer] += duration
                self._calls[layer] += 1
                self.spans.append((self._run, span_id, parent, name, frame[1], end))
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict, run: str):
        """Wrap every entry of WRAPPED for the duration of one traced run.

        `modules` maps each module name used in WRAPPED to the imported module.
        """
        self._run = run
        for tally in (self.spans, self._self_ns, self._total_ns, self._calls, self.counts,
                      self.derived, self.table_ns):
            tally.clear()
        restore = []
        cli_io = modules["cli_io"]
        renderers = dict(cli_io._REPORT_RENDERERS)
        try:
            for owner_path, attr, layer, counter in WRAPPED:
                owner = resolve(modules, owner_path)
                raw = owner.__dict__[attr]
                name = f"{owner_path}.{attr}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, layer, raw.__func__, counter))
                else:
                    wrapped = self._wrap(name, layer, raw, counter)
                restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            # `score` picks its renderer from a table filled at import time.
            cli_io._REPORT_RENDERERS.update(
                {fmt: getattr(cli_io, fn.__name__) for fmt, fn in renderers.items()}
            )
            yield
        finally:
            cli_io._REPORT_RENDERERS.update(renderers)
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    def metrics(self) -> dict[str, float]:
        """Per-layer self seconds and counters of the last traced run."""
        out = {f"{layer}.self_s": self._self_ns[layer] / 1e9 for layer in LAYERS}
        # omega with the matrix derivations and flattenings it makes: the O(n^3) path.
        out["pattern_runs.omega.total_s"] = self._total_ns["pattern_runs.omega"] / 1e9
        for metric, layer in _CALL_COUNTS.items():
            out[metric] = self._calls[layer]
        for metric in COUNTS:
            out[metric] = self.counts[metric]
        derived = len(self.derived)
        out["preference_graph.rederive_ratio"] = (
            self.counts["preference_graph.derive_calls"] / derived if derived else 0.0
        )
        tables = self._calls["rationality_outcomes.bin_table"]
        out["rationality_outcomes.table_reuse"] = len(self.table_ns) / tables if tables else 0.0
        return out

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for run, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps(
                    {"run": run, "id": span_id, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end}
                ) + "\n")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_reuse")):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"
