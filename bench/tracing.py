"""Per-layer spans recorded from outside the package.

``Tracer.install`` rebinds the layers' functions and methods, in every
package module that holds them, to wrappers that time each call with
``perf_counter``.  A span's self time is its duration minus the time of
the spans nested in it.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

from time import perf_counter

# (span name, module, attribute): functions traced wherever they are bound.
FUNCTIONS = (
    ("automaton.load_dfa", "automaton", "load_dfa"),
    ("power.rank", "power", "rank"),
    ("power.shortest_compressing_word", "power", "shortest_compressing_word"),
    ("power.subset_image_tables", "power", "subset_image_tables"),
    ("structure.satisfies_corank2_hypothesis", "structure", "satisfies_corank2_hypothesis"),
    ("structure.extract_certificate", "structure", "extract_certificate"),
    ("structure.validate_certificate", "structure", "validate_certificate"),
    ("structure.classify_pinlem", "structure", "classify_pinlem"),
    ("construct.corank3_word", "construct", "corank3_word"),
    ("construct.sync_pipeline", "construct", "sync_pipeline"),
    ("construct.franklpin_word", "construct", "franklpin_word"),
    ("extremal.assert_equivalence", "extremal", "assert_equivalence"),
    ("extremal.pincor_check", "extremal", "pincor_check"),
    ("checks.subset_images", "checks", "subset_images_for_table"),
    ("harness.merge", "harness", "_fold"),
)

# (span name, Auto method, memo slot or None): memoized methods are timed
# only on the call that computes the value.
METHODS = (
    ("checks.forward", "forward", "_forward"),
    ("checks.backward_within", "backward_within", None),
    ("checks.greedy_flags", "greedy_flags", "_greedy_flags"),
    ("checks.bfs_stage", "bfs_stage", None),
)

MODULES = ("automaton", "power", "structure", "construct", "extremal", "checks", "harness")


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, self seconds]
        self._stack = []  # time of nested spans, one entry per open span
        self._undo = []
        self.rank_in_pipeline = 0
        self._pipeline_depth = 0

    def calls(self, name):
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name):
        return self.stats.get(name, [0, 0.0])[1]

    def _span(self, name, fn):
        record = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                record[0] += 1
                record[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    def _population(self, fn):
        """Span around each item drawn from the block generator."""
        record = self.stats.setdefault("harness.population", [0, 0.0])
        stack = self._stack

        def traced(*args):
            items = fn(*args)
            while True:
                start = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    record[1] += elapsed
                    if stack:
                        stack[-1] += elapsed
                record[0] += 1
                yield item

        return traced

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, key, wrapper)

    def install(self, package):
        modules = [package] + [getattr(package, m) for m in MODULES]
        for name, module, attr in FUNCTIONS:
            original = getattr(getattr(package, module), attr)
            wrapper = self._span(name, original)
            if name == "power.rank":
                wrapper = self._count_under_pipeline(wrapper)
            elif name == "construct.sync_pipeline":
                wrapper = self._mark_pipeline(wrapper)
            self._rebind_everywhere(modules, original, wrapper)
        checks = package.checks
        table = checks.CHECKS
        for tid, original in list(table.items()):
            wrapper = self._span(f"checks.{tid}", original)
            self._undo.append((table, tid, original))
            table[tid] = wrapper
            self._rebind_everywhere(modules, original, wrapper)
        for name, method, slot in METHODS:
            original = getattr(checks.Auto, method)
            traced = self._span(name, original)
            if slot is None:
                self._rebind(checks.Auto, method, traced)
            else:
                self._rebind(checks.Auto, method, _memoized(original, traced, slot))
        self._rebind(package.harness, "_iter_block", self._population(package.harness._iter_block))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _mark_pipeline(self, fn):
        def traced(*args, **kwargs):
            self._pipeline_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._pipeline_depth -= 1

        return traced

    def _count_under_pipeline(self, fn):
        def traced(*args, **kwargs):
            if self._pipeline_depth:
                self.rank_in_pipeline += 1
            return fn(*args, **kwargs)

        return traced


def _memoized(original, traced, slot):
    def method(self, *args):
        if getattr(self, slot) is None:
            return traced(self, *args)
        return original(self, *args)

    return method
