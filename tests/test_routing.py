"""Routing: scalar-loop oracles, coupling invariants, and structural properties.

The oracles below are written directly from the published update rules using
plain Python loops and math, independent of the vectorized library code.
"""

import math
import statistics
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from capsroute.capsules import (
    CapsuleBank,
    Routing,
    RoutingSpec,
    RoutingState,
    attention_routing,
    dynamic_routing,
    squash,
)
from capsroute.errors import ConfigurationError, DimensionError
from capsroute.gradcheck import fd_gradient, relative_error
from capsroute.tensor import Tensor, matmul, softmax

EPS = 1e-12


def leaf(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def squash_vec(s):
    n = math.sqrt(sum(x * x for x in s) + EPS)
    return [x * n / (1.0 + n * n) for x in s]


def dynamic_oracle(votes, r):
    """b=0; r rounds of: c = softmax_j(b); s_j = sum_i c_ij u_ij; v = squash(s);
    b_ij += u_ij . v_j. Returns final v plus per-round c and v."""
    bsz, n_in, n_out, d_out = votes.shape
    final = np.zeros((bsz, n_out, d_out))
    per_round_c = [np.zeros((bsz, n_in, n_out)) for _ in range(r)]
    per_round_v = [np.zeros((bsz, n_out, d_out)) for _ in range(r)]
    for b in range(bsz):
        logit = [[0.0] * n_out for _ in range(n_in)]
        for round_idx in range(r):
            c = [[0.0] * n_out for _ in range(n_in)]
            for i in range(n_in):
                top = max(logit[i])
                exps = [math.exp(x - top) for x in logit[i]]
                total = sum(exps)
                for j in range(n_out):
                    c[i][j] = exps[j] / total
            v = []
            for j in range(n_out):
                s = [0.0] * d_out
                for i in range(n_in):
                    for k in range(d_out):
                        s[k] += c[i][j] * votes[b, i, j, k]
                v.append(squash_vec(s))
            for i in range(n_in):
                for j in range(n_out):
                    logit[i][j] += sum(votes[b, i, j, k] * v[j][k] for k in range(d_out))
            per_round_c[round_idx][b] = np.array(c)
            per_round_v[round_idx][b] = np.array(v)
        final[b] = np.array(v)
    return final, per_round_c, per_round_v


def attention_oracle(votes, weight, bias, softmax_axis="input_caps", scale=False):
    """logit_ij = u_ij . w + bias (optionally / sqrt(D)); a = softmax over the
    chosen axis; v_j = squash(sum_i a_ij u_ij)."""
    bsz, n_in, n_out, d_out = votes.shape
    out = np.zeros((bsz, n_out, d_out))
    attn_all = np.zeros((bsz, n_in, n_out))
    for b in range(bsz):
        logit = np.zeros((n_in, n_out))
        for i in range(n_in):
            for j in range(n_out):
                logit[i, j] = sum(votes[b, i, j, k] * weight[k] for k in range(d_out)) + bias
        if scale:
            logit = logit / math.sqrt(d_out)
        attn = np.zeros((n_in, n_out))
        if softmax_axis == "input_caps":
            for j in range(n_out):
                top = logit[:, j].max()
                exps = np.exp(logit[:, j] - top)
                attn[:, j] = exps / exps.sum()
        else:
            for i in range(n_in):
                top = logit[i].max()
                exps = np.exp(logit[i] - top)
                attn[i] = exps / exps.sum()
        for j in range(n_out):
            s = [0.0] * d_out
            for i in range(n_in):
                for k in range(d_out):
                    s[k] += attn[i, j] * votes[b, i, j, k]
            out[b, j] = squash_vec(s)
        attn_all[b] = attn
    return out, attn_all


# ------------------------------------------------------------------- dynamic


def test_dynamic_one_round_uniform_coupling():
    rng = np.random.default_rng(0)
    votes = rng.normal(size=(2, 5, 3, 4))
    bank, state = dynamic_routing(leaf(votes), iterations=1)
    # c_ij = 1/J over outputs, so s_j = (1/J) * sum_i u_ij:
    s = votes.sum(axis=1) / 3.0
    expected = squash(leaf(s)).data
    assert_allclose(bank.activations.data, expected, atol=1e-12)
    assert_allclose(state.coefficients[0], np.full((2, 5, 3), 1.0 / 3.0), atol=1e-15)


def test_dynamic_single_input_capsule():
    rng = np.random.default_rng(1)
    votes = rng.normal(size=(1, 1, 4, 3))
    bank, _ = dynamic_routing(leaf(votes), iterations=1)
    expected = squash(leaf(votes[:, 0] / 4.0)).data
    assert_allclose(bank.activations.data, expected, atol=1e-12)


def test_dynamic_matches_loop_oracle_on_20_random_cases():
    rng = np.random.default_rng(2)
    for case in range(20):
        n_in = int(rng.integers(1, 17))
        n_out = int(rng.integers(1, 5))
        d_out = int(rng.integers(1, 9))
        r = int(rng.integers(1, 5))
        bsz = int(rng.integers(1, 4))
        votes = rng.normal(size=(bsz, n_in, n_out, d_out))
        bank, state = dynamic_routing(leaf(votes), iterations=r)
        want, want_c, want_v = dynamic_oracle(votes, r)
        err = np.max(np.abs(bank.activations.data - want))
        assert err < 1e-10, f"case {case}: {err}"
        for it in range(r):
            assert np.max(np.abs(state.coefficients[it] - want_c[it])) < 1e-10
            assert np.max(np.abs(state.outputs[it] - want_v[it])) < 1e-10


def _dynamic_from_zero_logits(votes, iterations):
    """``dynamic_routing`` as it read before round 1 became a constant: a zero
    logits tensor, softmaxed every round and added to every agreement."""
    bsz, n_in, n_out, d_out = votes.shape
    u = votes.transpose((0, 2, 1, 3))
    logits = Tensor(np.zeros((bsz, n_out, n_in)))
    state = RoutingState()
    for it in range(iterations):
        coupling = softmax(logits, axis=1)
        v = squash(matmul(coupling.reshape((bsz, n_out, 1, n_in)), u).reshape((bsz, n_out, d_out)))
        state.coefficients.append(coupling.data.transpose((0, 2, 1)))
        state.outputs.append(v.data)
        if it + 1 < iterations:
            logits = logits + matmul(u, v.reshape((bsz, n_out, d_out, 1))).reshape((bsz, n_out, n_in))
    return CapsuleBank(v), state


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(3, 17, 2, 5), (2, 9, 10, 16), (1, 4, 3, 1)])
def test_dynamic_constant_first_round_keeps_the_zero_logit_bits(r, shape):
    rng = np.random.default_rng(6)
    votes, g = rng.normal(size=shape), rng.normal(size=(shape[0], shape[2], shape[3]))
    runs = []
    for route in (dynamic_routing, _dynamic_from_zero_logits):
        leaf_votes = leaf(votes)
        bank, state = route(leaf_votes, r)
        (bank.activations * g).sum().backward()
        arrays = (*state.coefficients, *state.outputs, bank.activations.data, leaf_votes.grad)
        runs.append([a.tobytes() for a in arrays])
    assert runs[0] == runs[1]


def test_dynamic_coupling_rows_sum_to_one_every_iteration():
    rng = np.random.default_rng(3)
    votes = rng.normal(size=(3, 12, 4, 6))
    _, state = dynamic_routing(leaf(votes), iterations=4)
    assert len(state.coefficients) == 4
    for c in state.coefficients:
        assert np.max(np.abs(c.sum(axis=2) - 1.0)) < 1e-9


def test_dynamic_equivariant_to_input_capsule_permutation():
    rng = np.random.default_rng(4)
    votes = rng.normal(size=(2, 7, 3, 5))
    perm = rng.permutation(7)
    bank_a, state_a = dynamic_routing(leaf(votes), iterations=3)
    bank_b, state_b = dynamic_routing(leaf(votes[:, perm]), iterations=3)
    assert_allclose(bank_b.activations.data, bank_a.activations.data, atol=1e-12)
    assert_allclose(state_b.coefficients[-1], state_a.coefficients[-1][:, perm], atol=1e-12)


def test_dynamic_identical_votes_keep_inputs_interchangeable():
    # When every input capsule casts the same votes, the inputs are
    # indistinguishable: every round's coupling row is identical across i
    # (though mass may still shift between output capsules).
    base = np.random.default_rng(5).normal(size=(1, 1, 3, 4))
    votes = np.broadcast_to(base, (1, 9, 3, 4)).copy()
    _, state = dynamic_routing(leaf(votes), iterations=3)
    assert_allclose(state.coefficients[0], np.full((1, 9, 3), 1.0 / 3.0), atol=1e-12)
    for c in state.coefficients:
        assert_allclose(c, np.broadcast_to(c[:, :1], c.shape), atol=1e-12)


def test_dynamic_rejects_zero_iterations():
    with pytest.raises(ConfigurationError):
        dynamic_routing(leaf(np.zeros((1, 2, 2, 2))), iterations=0)


@pytest.mark.parametrize("iterations", [2.0, True, np.float64(3.0)])
def test_dynamic_rejects_iterations_that_are_not_integers(iterations):
    # As RoutingSpec checks routing_iterations: 2.0 would reach range() and True run one round.
    with pytest.raises(ConfigurationError, match="iterations must be an integer"):
        dynamic_routing(leaf(np.zeros((1, 2, 2, 2))), iterations=iterations)


@pytest.mark.parametrize("shape", [(0, 2, 2, 2), (1, 0, 2, 2), (1, 2, 0, 2), (1, 2, 2, 0)])
def test_routing_rejects_empty_votes(shape):
    votes = leaf(np.zeros(shape))
    with pytest.raises(DimensionError, match="votes"):
        dynamic_routing(votes, iterations=2)
    with pytest.raises(DimensionError, match="votes"):
        attention_routing(votes, leaf(np.zeros((shape[3], 1))))


def _graph_arrays(root: Tensor) -> list[np.ndarray]:
    seen, stack, found = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            found.append(node.data)
            stack.extend(node._parents)
    return found


def test_routing_state_holds_the_graph_arrays_not_copies():
    votes = leaf(np.random.default_rng(13).normal(size=(2, 4, 3, 5)))
    for rounds, (bank, state) in (
        (2, dynamic_routing(votes, iterations=2)),
        (1, attention_routing(votes, leaf(np.zeros((5, 1))))),
    ):
        assert state.outputs[-1] is bank.activations.data
        assert len(state.coefficients) == rounds
        arrays = _graph_arrays(bank.activations)
        for c in state.coefficients:
            assert c.shape == (2, 4, 3)
            assert any(np.shares_memory(c, a) for a in arrays)


def test_dynamic_gradients_flow_through_iterations():
    rng = np.random.default_rng(6)
    votes = leaf(rng.normal(size=(1, 6, 2, 4)))
    weights = rng.normal(size=(1, 2, 4))

    def run():
        bank, _ = dynamic_routing(votes, iterations=3)
        return (bank.activations * weights).sum()

    run().backward()
    assert relative_error(votes.grad, fd_gradient(run, votes)) < 1e-5


# ----------------------------------------------------------------- attention


def test_attention_single_input_capsule_is_squashed_vote():
    rng = np.random.default_rng(7)
    votes = rng.normal(size=(2, 1, 3, 4))
    w = leaf(rng.normal(size=(4, 1)))
    bank, state = attention_routing(leaf(votes), w)
    expected = squash(leaf(votes[:, 0])).data
    assert_allclose(bank.activations.data, expected, atol=1e-12)
    assert_allclose(state.coefficients[0], np.ones((2, 1, 3)), atol=1e-15)


def test_attention_zero_projection_averages_votes():
    rng = np.random.default_rng(8)
    votes = rng.normal(size=(2, 6, 3, 4))
    bank, state = attention_routing(leaf(votes), leaf(np.zeros((4, 1))))
    expected = squash(leaf(votes.mean(axis=1))).data
    assert_allclose(bank.activations.data, expected, atol=1e-12)
    assert_allclose(state.coefficients[0], np.full((2, 6, 3), 1.0 / 6.0), atol=1e-15)


def test_attention_matches_loop_oracle_on_20_random_cases():
    rng = np.random.default_rng(9)
    for case in range(20):
        n_in = int(rng.integers(1, 17))
        n_out = int(rng.integers(1, 5))
        d_out = int(rng.integers(1, 9))
        bsz = int(rng.integers(1, 4))
        axis = "input_caps" if case % 2 == 0 else "output_caps"
        scale = case % 3 == 0
        votes = rng.normal(size=(bsz, n_in, n_out, d_out))
        w = rng.normal(size=(d_out, 1))
        # The oracle adds a random bias to every logit; either softmax cancels it.
        b = rng.normal()
        bank, state = attention_routing(leaf(votes), leaf(w), softmax_axis=axis, scale_by_sqrt_d=scale)
        want, want_attn = attention_oracle(votes, w[:, 0], b, axis, scale)
        err = np.max(np.abs(bank.activations.data - want))
        assert err < 1e-12, f"case {case}: {err}"
        assert np.max(np.abs(state.coefficients[0] - want_attn)) < 1e-12


def test_attention_weights_sum_to_one_over_inputs():
    rng = np.random.default_rng(10)
    votes = rng.normal(size=(3, 11, 4, 5))
    w = leaf(rng.normal(size=(5, 1)))
    _, state = attention_routing(leaf(votes), w)
    attn = state.coefficients[0]
    assert np.max(np.abs(attn.sum(axis=1) - 1.0)) < 1e-9


def test_attention_output_axis_sums_to_one_over_outputs():
    rng = np.random.default_rng(11)
    votes = rng.normal(size=(2, 5, 4, 3))
    _, state = attention_routing(leaf(votes), leaf(rng.normal(size=(3, 1))), softmax_axis="output_caps")
    assert np.max(np.abs(state.coefficients[0].sum(axis=2) - 1.0)) < 1e-9


def test_attention_rejects_an_unknown_softmax_axis():
    votes = leaf(np.zeros((1, 3, 2, 4)))
    with pytest.raises(ConfigurationError, match="'bogus'"):
        attention_routing(votes, leaf(np.zeros((4, 1))), softmax_axis="bogus")


def test_attention_options_are_keyword_only():
    # A positional third argument must not bind to softmax_axis and reroute silently.
    votes, w = leaf(np.zeros((1, 3, 2, 4))), leaf(np.zeros((4, 1)))
    with pytest.raises(TypeError):
        attention_routing(votes, w, leaf(np.zeros(())))


def test_attention_gradcheck_including_projection():
    rng = np.random.default_rng(12)
    votes = leaf(rng.normal(size=(1, 5, 2, 4)))
    w = leaf(rng.normal(size=(4, 1)))
    weights = rng.normal(size=(1, 2, 4))

    def run():
        bank, _ = attention_routing(votes, w)
        return (bank.activations * weights).sum()

    run().backward()
    for p in (votes, w):
        assert relative_error(p.grad, fd_gradient(run, p)) < 1e-5


@pytest.mark.parametrize("n_in", [128, 512, 1152])
def test_attention_costs_less_than_three_dynamic_rounds_with_gradients_on(n_in):
    # The paper's case for attention: one pass is cheaper than routing by
    # agreement. Dynamic r=1 is cheaper still, so the claim is against r=3.
    rng = np.random.default_rng(15)
    votes = leaf(rng.normal(0.0, 0.5, size=(8, n_in, 2, 16)))
    upstream = rng.normal(size=(8, 2, 16))
    attention = Routing(RoutingSpec("attention"), 16)
    attention.weight.data[...] = rng.normal(0.0, 0.5, size=(16, 1))
    routers = {"attention": attention, "dynamic_r3": Routing(RoutingSpec("dynamic", 3), 16)}
    cpu = {name: [] for name in routers}
    for round_idx in range(16):
        for name in sorted(routers, reverse=bool(round_idx % 2)):
            t0 = time.process_time()
            (routers[name](votes)[0].activations * upstream).sum().backward()
            if round_idx:  # round 0 warms up
                cpu[name].append(time.process_time() - t0)
    medians = {name: statistics.median(times) for name, times in cpu.items()}
    assert medians["attention"] < medians["dynamic_r3"], medians


def test_bench_routing_rejects_fewer_than_one_repeat():
    from capsroute.bench import bench_routing

    with pytest.raises(ConfigurationError, match="repeats must be >= 1, got 0"):
        bench_routing(shapes=((8, 2, 4),), repeats=0)


def test_bench_routing_times_the_methods_round_robin_in_alternating_order(monkeypatch):
    from capsroute import bench

    calls = []

    class RecordingRouting:
        def __init__(self, spec, d_out):
            self.name = f"{spec.method}{spec.iterations}"

        def __call__(self, votes):
            calls.append(self.name)

    monkeypatch.setattr(bench, "Routing", RecordingRouting)
    rows = bench.bench_routing(shapes=((4, 2, 3), (5, 2, 3)), r_values=(1, 2), repeats=3)
    forward, backward = ["dynamic1", "dynamic2", "attention1"], ["attention1", "dynamic2", "dynamic1"]
    per_shape = 3 * forward + forward + backward + forward  # three warm-up rounds, then timed ones
    assert calls == 2 * per_shape
    assert [(r.method, r.n_in, r.iterations) for r in rows] == [
        (m, n, i) for n in (4, 5) for m, i in (("dynamic", 1), ("dynamic", 2), ("attention", 1))
    ]
