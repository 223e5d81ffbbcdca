"""Next-token distributions behind a model-agnostic interface.

Three implementations: a uniform baseline, a count-based n-gram model fitted
on prompt exemplars, and a client for a remote full-logit server.  All of
them return full-vocabulary log-probability vectors so the decoder can mask
and renormalize exactly.
"""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from .align import EOS_ID
from .errors import ContextTooLong, RemoteError


@dataclass(frozen=True)
class PolicyContext:
    prompt: tuple  # token ids
    generated: tuple = ()

    @property
    def tokens(self):
        return self.prompt + self.generated

    def append(self, token_id):
        return PolicyContext(self.prompt, self.generated + (token_id,))


@dataclass
class Distribution:
    """Log-probabilities over the full vocabulary, normalized to 1."""

    logprobs: np.ndarray

    def __post_init__(self):
        lp = np.asarray(self.logprobs, dtype=np.float64)
        if not np.all(np.isfinite(lp[lp > -np.inf])):
            raise ValueError("distribution has non-finite entries")
        total = _logsumexp(lp)
        if abs(total) > 1e-6:
            raise ValueError(f"distribution is not normalized (logsumexp={total})")
        self.logprobs = lp

    @property
    def probs(self):
        return np.exp(self.logprobs)


def _logsumexp(lp):
    m = np.max(lp)
    if m == -np.inf:
        return -np.inf
    return m + math.log(np.sum(np.exp(lp - m)))


class UniformPolicy:
    def __init__(self, vocab_size, max_context=4096):
        self.vocab_size = vocab_size
        self.max_context = max_context
        self._dist = Distribution(
            np.full(vocab_size, -math.log(vocab_size), dtype=np.float64)
        )

    def next_distribution(self, ctx):
        if len(ctx.tokens) > self.max_context:
            raise ContextTooLong(f"context of {len(ctx.tokens)} tokens")
        return self._dist


class NgramPolicy:
    """Add-one smoothed n-gram over token ids, fitted on exemplar sequences.

    Exemplars are full token-id sequences (EOS-terminated); the conditioning
    window is the last order-1 generated tokens, so the model is usable with
    any prompt.
    """

    def __init__(self, vocab_size, exemplars, order=3, max_context=4096):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.vocab_size = vocab_size
        self.order = order
        self.max_context = max_context
        self.counts = {}
        for seq in exemplars:
            seq = tuple(seq)
            for i, tok in enumerate(seq):
                hist = seq[max(0, i - order + 1) : i]
                table = self.counts.setdefault(hist, np.zeros(vocab_size))
                table[tok] += 1
        self._memo = {}

    def next_distribution(self, ctx):
        if len(ctx.tokens) > self.max_context:
            raise ContextTooLong(f"context of {len(ctx.tokens)} tokens")
        hist = ctx.generated[-(self.order - 1) :] if self.order > 1 else ()
        # back off to shorter histories that were seen in the exemplars
        while hist and hist not in self.counts:
            hist = hist[1:]
        dist = self._memo.get(hist)
        if dist is None:
            counts = self.counts.get(hist, np.zeros(self.vocab_size)) + 1.0
            dist = Distribution(np.log(counts / counts.sum()))
            self._memo[hist] = dist
        return dist


class RemotePolicy:
    """Client for the full-logit HTTP protocol.

    POST /v1/logits with {"prompt": [...], "generated": [...], "tokens":
    [...], "model": name}, where tokens is prompt + generated for servers
    that read one sequence; the response carries {"logprobs": [...]} of
    length vocab_size.
    """

    def __init__(
        self,
        endpoint,
        model,
        vocab_size,
        timeout=10.0,
        retries=2,
        max_context=4096,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.vocab_size = vocab_size
        self.timeout = timeout
        self.retries = retries
        self.max_context = max_context

    def next_distribution(self, ctx):
        if len(ctx.tokens) > self.max_context:
            raise ContextTooLong(f"context of {len(ctx.tokens)} tokens")
        body = json.dumps({
            "prompt": list(ctx.prompt),
            "generated": list(ctx.generated),
            "tokens": list(ctx.tokens),
            "model": self.model,
        }).encode()
        url = self.endpoint + "/v1/logits"
        last = None
        for attempt in range(self.retries + 1):
            try:
                req = urllib.request.Request(
                    url, data=body, headers={"Content-Type": "application/json"}
                )
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    payload = json.loads(resp.read())
                lp = payload["logprobs"]
                if len(lp) != self.vocab_size:
                    raise RemoteError(
                        f"server returned {len(lp)} logprobs, expected "
                        f"{self.vocab_size}"
                    )
                return Distribution(np.asarray(lp, dtype=np.float64))
            except (urllib.error.URLError, OSError, KeyError, ValueError) as exc:
                last = exc
                if attempt < self.retries:
                    time.sleep(0.1 * (attempt + 1))
        raise RemoteError(f"logit server unreachable at {url}: {last}")


class CountingPolicy:
    """Wrapper that counts next_distribution calls, for the test suite's
    asserts; a search counts its own in ``SearchStats.policy_calls``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.vocab_size = inner.vocab_size

    def next_distribution(self, ctx):
        self.calls += 1
        return self.inner.next_distribution(ctx)
