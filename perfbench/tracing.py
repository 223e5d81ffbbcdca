"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``asgdec`` module that holds a reference to it (``align`` imports
``extend`` by name, ``earley`` calls ``evaluate_node`` through its own
globals, ``mcts`` imports ``masked_logprobs``), and ``uninstall`` puts the
originals back.  A span stack gives self time: a span's duration minus the
time its child spans cover.  Bookkeeping done by the tracer itself is
charged to no span.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from asgdec import align, decoding, earley, grammar, logic, mcts, policy, tasks

# (module, attribute, span name); a span name may cover several functions
FUNCTIONS = [
    (grammar, "parse_grammar", "grammar.parse_grammar"),
    (grammar, "strip_annotations", "grammar.projection"),
    (grammar, "csg_projection", "grammar.projection"),
    (logic, "evaluate_node", "logic.evaluate_node"),
    (earley, "init", "earley.init"),
    (earley, "extend", "earley.extend"),
    (earley, "valid_terminals", "earley.valid_terminals"),
    (earley, "accepts", "earley.accepts"),
    (align, "build_map", "align.build_map"),
    (align, "valid_tokens", "align.valid_tokens"),
    (align, "apply_token", "align.apply_token"),
    (decoding, "generate", "decoding.generate"),
    (decoding, "choose_token", "decoding.choose_token"),
    (decoding, "masked_logprobs", "decoding.masked_logprobs"),
    (mcts, "search", "mcts.search"),
    (tasks, "generate_instances", "tasks.generate_instances"),
]
METHODS = [
    (policy.UniformPolicy, "next_distribution", "policy.next_distribution"),
    (policy.NgramPolicy, "next_distribution", "policy.next_distribution"),
]
RHO = "tasks.rho"


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [span name, child seconds, trial extensions]
        self._patched = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.spans = {}  # name -> [calls, self seconds]
        self.trials = 0  # extend calls made directly by valid_terminals
        self.admitted = 0  # terminals those calls admitted
        self.mask_removed = 0.0  # summed 1 - (policy mass on valid tokens)
        self.mask_steps = 0

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Span-recording wrapper; ``after(frame, args, result)`` runs once
        the span is closed and its time is charged to no span."""
        stack = self.stack
        clock = time.perf_counter
        tracer = self
        is_extend = name == "earley.extend"

        def traced(*args, **kwargs):
            if is_extend and stack and stack[-1][0] == "earley.valid_terminals":
                stack[-1][2] += 1
            frame = [name, 0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                entry = tracer.spans.get(name)
                if entry is None:
                    entry = tracer.spans[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                t1 = clock()
                after(frame, args, result)
                if stack:
                    stack[-1][1] += clock() - t1
            return result

        return traced

    def _after_valid_terminals(self, frame, args, result):
        if frame[2]:
            self.trials += frame[2]
            self.admitted += sum(1 for t in result if t is not earley.END_MARKER)

    def _after_masked_logprobs(self, frame, args, result):
        dist, valid_ids = args[0], args[1]
        ids = np.fromiter(valid_ids, dtype=np.int64)
        kept = float(np.exp(dist.logprobs[ids]).sum()) if len(ids) else 0.0
        self.mask_removed += 1.0 - kept
        self.mask_steps += 1

    def wrap_rho(self, rho):
        """The distance callable for ``Reward``: traced while installed."""
        traced = self.wrap(RHO, rho)

        def dispatch(word):
            return traced(word) if self._patched else rho(word)

        return dispatch

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patched:
            return
        after = {
            "earley.valid_terminals": self._after_valid_terminals,
            "decoding.masked_logprobs": self._after_masked_logprobs,
        }
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "asgdec" or n.startswith("asgdec."))
        ]
        for owner, attr, name in FUNCTIONS:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, traced)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- reading -----------------------------------------------------------

    def calls(self, name):
        return self.spans.get(name, (0, 0.0))[0]

    def self_s(self, name):
        return self.spans.get(name, (0, 0.0))[1]
