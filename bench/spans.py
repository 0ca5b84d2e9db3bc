"""In-memory span recorder and the wrappers that feed it.

The wrappers are installed from outside the package, on the module
attributes through which calls resolve at run time (a module that did
`from .oracle import cc_number` looks the name up in its own globals, so
each such module gets its own wrapper).  Nothing in the package changes.

A span is (name, parent, start, end).  The tracer is single-threaded: the
parent of a span is whichever span was open when it started.  Self time is a
span's duration minus the durations of its direct children, so the self
times of all spans under one root add up to the root's duration.
"""

import gzip
import os
import time
from array import array
from collections import defaultdict

ROOT_NAME = "bench"

# (module, attribute, span name).  The span name is the layer that defines
# the function, whichever module the call resolves through.
TARGETS = (
    ("verify", "run_theorem_suite", "verify.run_theorem_suite"),
    ("verify", "cc_number", "oracle.cc_number"),
    ("verify", "cc_partition_search", "oracle.cc_partition_search"),
    ("verify", "connected_domatic_number", "domination.connected_domatic_number"),
    ("verify", "gamma_c", "domination.gamma_c"),
    ("verify", "in_family_f", "family.in_family_f"),
    ("verify", "check_cc_equals_n", "matrices.check_cc_equals_n"),
    ("verify", "check_cc_equals_n_minus_1", "matrices.check_cc_equals_n_minus_1"),
    ("verify", "emit_graph6", "graphs.emit_graph6"),
    ("oracle", "cc_number", "oracle.cc_number"),
    ("oracle", "cc_partition_search", "oracle.cc_partition_search"),
    ("oracle", "cds_table", "domination.cds_table"),
    ("domination", "connected_domatic_number", "domination.connected_domatic_number"),
    ("domination", "cds_table", "domination.cds_table"),
    ("domination", "gamma_c", "domination.gamma_c"),
    ("matrices", "check_cc_equals_n", "matrices.check_cc_equals_n"),
    ("matrices", "check_cc_equals_n_minus_1", "matrices.check_cc_equals_n_minus_1"),
    ("graphs", "parse_graph6", "graphs.parse_graph6"),
    ("graphs", "enumerate_labeled_graphs", "graphs.enumerate_labeled_graphs"),
    ("cli", "main", "cli.main"),
    ("cli", "cc_number", "oracle.cc_number"),
    ("cli", "in_family_f", "family.in_family_f"),
    ("cli", "check_cc_equals_n", "matrices.check_cc_equals_n"),
    ("cli", "check_cc_equals_n_minus_1", "matrices.check_cc_equals_n_minus_1"),
    ("cli", "gamma_c", "domination.gamma_c"),
    ("cli", "connected_domatic_number", "domination.connected_domatic_number"),
    ("cli", "emit_graph6", "graphs.emit_graph6"),
)

# Generator functions: the span covers draining the generator, and the
# caller gets an iterator over the drained items.
DRAINED = {"graphs.enumerate_labeled_graphs"}

DECIDERS = {"matrices.check_cc_equals_n", "matrices.check_cc_equals_n_minus_1"}


class Tracer:
    """Spans in flat arrays, plus decider answers keyed by span index."""

    def __init__(self):
        self.names = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.answers = {}
        self.current = -1
        self._saved = []

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.current)
        self.ends.append(0.0)
        self.current = idx
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self.current = self.parents[idx]

    def _wrap(self, fn, name):
        tracer = self
        drained = name in DRAINED
        decider = name in DECIDERS
        by_variant = name == "matrices.check_cc_equals_n_minus_1"

        def wrapper(*args, **kwargs):
            span = name
            if by_variant:
                span += "." + (args[1] if len(args) > 1 else kwargs.get("variant", "strict"))
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
                if drained:
                    result = iter(list(result))
            finally:
                tracer.close(idx)
            if decider:
                tracer.answers[idx] = result.answer
            return result

        return wrapper

    def install(self, package):
        """Wrap every target the package still has; missing names are skipped."""
        for mod_name, attr, span_name in TARGETS:
            mod = getattr(package, mod_name, None)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span_name))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def self_times(self):
        """Aggregate {name: [calls, self seconds]} over every recorded span."""
        n = len(self.names)
        child = [0.0] * n
        parents, starts, ends = self.parents, self.starts, self.ends
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        agg = defaultdict(lambda: [0, 0.0])
        for i, name in enumerate(self.names):
            entry = agg[name]
            entry[0] += 1
            entry[1] += ends[i] - starts[i] - child[i]
        return agg

    def top_level_answers(self, name):
        """Answers of calls to `name` that were not made from inside another decider."""
        out = []
        for idx, answer in self.answers.items():
            if self.names[idx] != name:
                continue
            p = self.parents[idx]
            if p < 0 or not self.names[p].startswith("matrices."):
                out.append(answer)
        return out

    def write(self, path):
        """Dump every span as tab-separated id, parent, name, start, end (gzip)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")
