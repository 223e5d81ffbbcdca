"""Policy interfaces: uniform, n-gram, and the remote logit client."""

import math

import numpy as np
import pytest

from asgdec import (
    CountingPolicy,
    Distribution,
    NgramPolicy,
    PolicyContext,
    RemotePolicy,
    UniformPolicy,
)
from asgdec.errors import ContextTooLong, RemoteError
from asgdec.stubserver import LogitServer


def test_context_append_is_persistent():
    ctx = PolicyContext(prompt=(1, 2))
    ctx2 = ctx.append(3)
    assert ctx.tokens == (1, 2)
    assert ctx2.tokens == (1, 2, 3) and ctx2.generated == (3,)


def test_distribution_requires_normalization():
    with pytest.raises(ValueError):
        Distribution(np.log([0.5, 0.2]))
    d = Distribution(np.log([0.5, 0.5]))
    assert np.allclose(d.probs, [0.5, 0.5])


def test_distribution_allows_hard_zeros():
    d = Distribution(np.array([0.0, -np.inf]))
    assert d.probs[1] == 0.0


def test_uniform_policy():
    p = UniformPolicy(vocab_size=5)
    d = p.next_distribution(PolicyContext(prompt=()))
    assert np.allclose(d.probs, 0.2)


def test_uniform_policy_context_limit():
    p = UniformPolicy(vocab_size=5, max_context=3)
    with pytest.raises(ContextTooLong):
        p.next_distribution(PolicyContext(prompt=(1, 2, 3, 4)))


def test_ngram_counts_match_hand_computation():
    # bigram on the single exemplar 1 2 1 2 0
    p = NgramPolicy(vocab_size=3, exemplars=[(1, 2, 1, 2, 0)], order=2)
    d = p.next_distribution(PolicyContext(prompt=(), generated=(1,)))
    # after token 1: counts [0,0,2] -> add-one [1,1,3] / 5
    assert np.allclose(d.probs, [1 / 5, 1 / 5, 3 / 5])
    d0 = p.next_distribution(PolicyContext(prompt=(), generated=(2,)))
    # after token 2: one continuation each of 1 and 0
    assert np.allclose(d0.probs, [2 / 5, 2 / 5, 1 / 5])


def test_ngram_backoff_on_unseen_history():
    p = NgramPolicy(vocab_size=3, exemplars=[(1, 2, 0)], order=3)
    seen = p.next_distribution(PolicyContext(prompt=(), generated=(1,)))
    unseen = p.next_distribution(PolicyContext(prompt=(), generated=(2, 2)))
    # (2,2) was never observed; backs off rather than returning raw uniform
    assert np.isfinite(seen.logprobs).all()
    assert np.isfinite(unseen.logprobs).all()


def test_ngram_conditions_on_generated_not_prompt():
    p = NgramPolicy(vocab_size=3, exemplars=[(1, 2, 0)], order=2)
    a = p.next_distribution(PolicyContext(prompt=(9,) * 0, generated=(1,)))
    b = p.next_distribution(PolicyContext(prompt=(2, 2, 2), generated=(1,)))
    assert np.allclose(a.logprobs, b.logprobs)


def test_ngram_rejects_bad_order():
    with pytest.raises(ValueError):
        NgramPolicy(vocab_size=3, exemplars=[], order=0)


def test_counting_policy_counts():
    p = CountingPolicy(UniformPolicy(vocab_size=4))
    ctx = PolicyContext(prompt=())
    p.next_distribution(ctx)
    p.next_distribution(ctx)
    assert p.calls == 2 and p.vocab_size == 4


def test_remote_policy_round_trip():
    inner = NgramPolicy(vocab_size=4, exemplars=[(1, 2, 3, 0)], order=2)
    with LogitServer(inner) as srv:
        remote = RemotePolicy(srv.endpoint, model="stub", vocab_size=4)
        ctx = PolicyContext(prompt=(1,))
        got = remote.next_distribution(ctx)
        want = inner.next_distribution(PolicyContext(prompt=(1,)))
        assert np.allclose(got.logprobs, want.logprobs)


def test_remote_policy_vocab_mismatch():
    inner = UniformPolicy(vocab_size=4)
    with LogitServer(inner) as srv:
        remote = RemotePolicy(
            srv.endpoint, model="stub", vocab_size=7, retries=0
        )
        with pytest.raises(RemoteError):
            remote.next_distribution(PolicyContext(prompt=()))


def test_remote_policy_unreachable():
    remote = RemotePolicy(
        "http://127.0.0.1:9", model="stub", vocab_size=4, retries=0, timeout=0.2
    )
    with pytest.raises(RemoteError):
        remote.next_distribution(PolicyContext(prompt=()))


@pytest.mark.parametrize(
    "inner",
    [
        UniformPolicy(vocab_size=4),
        NgramPolicy(vocab_size=4, exemplars=[(1, 2, 3, 0), (2, 2, 1, 0)], order=3),
    ],
    ids=["uniform", "ngram"],
)
def test_served_policy_matches_local(inner):
    # the n-gram history is the generated part only, so a server that
    # loses the prompt/generated split answers with the wrong history
    contexts = [
        PolicyContext(prompt=()),
        PolicyContext(prompt=(1, 2)),
        PolicyContext(prompt=(3,), generated=(1, 2)),
        PolicyContext(prompt=(2, 2), generated=(3,)),
    ]
    with LogitServer(inner) as srv:
        remote = RemotePolicy(srv.endpoint, model="stub", vocab_size=4)
        for ctx in contexts:
            got = remote.next_distribution(ctx).logprobs
            assert np.allclose(got, inner.next_distribution(ctx).logprobs), ctx
