"""How capsule vectors are normalized and how votes turn into outputs.

Shows the squash norm law, then routes one batch of votes through both
routing methods and prints how the coupling coefficients evolve.

    python3 demos/02_squash_and_routing.py
"""

import numpy as np

from capsroute import Tensor, attention_routing, dynamic_routing, squash

rng = np.random.default_rng(7)

# --- 1. squash: direction kept, norm mapped to (0, 1) ---------------------
print("== squash norm law: |v| = n^2 / (1 + n^2) ==")
for scale in (0.1, 1.0, 3.0, 10.0):
    s = np.zeros((1, 1, 4))
    s[0, 0, 0] = scale
    v = squash(Tensor(s)).data
    print(f"input norm {scale:5.1f}  ->  output norm {np.linalg.norm(v):.4f}")
print("short vectors shrink toward 0, long ones saturate toward 1.")

# --- 2. dynamic routing: agreement sharpens the couplings -----------------
print()
print("== dynamic routing (3 iterations) ==")
# 4 input capsules vote for 2 output capsules in 3-d pose space. Three of
# the inputs agree on output 0; the fourth points somewhere else entirely.
votes = np.zeros((1, 4, 2, 3))
agreed = np.array([1.0, 0.5, -0.2])
votes[0, :3, 0] = agreed + rng.normal(0.0, 0.05, size=(3, 3))
votes[0, 3, 0] = -agreed
votes[0, :, 1] = rng.normal(0.0, 0.3, size=(4, 3))

bank, state = dynamic_routing(Tensor(votes), iterations=3)
for i, c in enumerate(state.coefficients, start=1):
    col0 = np.array2string(c[0, :, 0], precision=3)
    print(f"iteration {i}: coupling toward output 0 = {col0}")
print("the dissenting capsule (last entry) is progressively ignored.")
print(f"each input's couplings sum to one: {np.allclose(state.coefficients[-1].sum(axis=2), 1.0)}")
print(f"output capsule norms: {np.array2string(np.linalg.norm(bank.activations.data[0], axis=-1), precision=3)}")

# --- 3. attention routing: one pass, learned scores ------------------------
print()
print("== attention routing (single pass) ==")
weight = Tensor(rng.normal(0.0, 0.3, size=(3, 1)))
bank_a, state_a = attention_routing(Tensor(votes), weight)
c = state_a.coefficients[-1]
print(f"one coefficient tensor, shape {c.shape}; no iteration loop.")
print(f"softmax runs over the input-capsule axis: column sums = "
      f"{np.array2string(c[0].sum(axis=0), precision=3)}")
print(f"output capsule norms: {np.array2string(np.linalg.norm(bank_a.activations.data[0], axis=-1), precision=3)}")
