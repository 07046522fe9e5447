"""Class-weighted loss vs plain margin loss on an imbalanced, noisy set.

Trains the same architecture twice on identical 20%-positive data: once
with uniform loss weights and no auxiliary terms, once with inverse-frequency
class weights plus the regression and reconstruction terms. On a short
training budget the weighted composite pulls the minority class up much
faster. Takes well under a minute on one CPU.

    python3 demos/05_imbalance_loss_comparison.py
"""

from capsroute.config import resolve
from capsroute.experiment import prepare_splits, run_experiment

cfg = resolve()
cfg.update(
    n_samples=1200,
    positive_ratio=0.2,
    hidden_dim=16,
    noise_sigma=0.6,
    width_normal=(6.0, 9.0),
    width_dilated=(9.5, 12.5),  # narrowed gap: the classes nearly overlap
    split_fractions=(0.5, 0.1, 0.4),
    lr=3e-4,
    batch_size=8,
    max_epochs=3,
    patience=3,
    seed=10,
)

splits = prepare_splits(cfg)  # shared data: the loss is the only difference
n_pos = int(splits[2].labels.sum())
print(f"test split: {len(splits[2].labels)} samples, {n_pos} positive "
      f"(a scorer that ranks randomly gets PR AUC ~= {n_pos / len(splits[2].labels):.2f})")
print()

plain_cfg = dict(cfg, weight_mode="uniform", lambda_reg=0.0, lambda_recon=0.0)
print("training with plain margin loss (uniform weights, no auxiliary terms)...")
_, plain = run_experiment(plain_cfg, splits=splits)
print("training with inverse-frequency weights + regression + reconstruction...")
_, weighted = run_experiment(cfg, splits=splits)

print()
print(f"{'':>10s}  {'accuracy':>8s}  {'f1':>6s}  {'roc_auc':>7s}  {'pr_auc':>6s}")
for name, rec in (("plain", plain), ("weighted", weighted)):
    m = rec.metrics["test"]
    print(f"{name:>10s}  {m.accuracy:8.4f}  {m.f1:6.4f}  {m.roc_auc:7.4f}  {m.pr_auc:6.4f}")

gap = weighted.metrics["test"].pr_auc - plain.metrics["test"].pr_auc
print()
print(f"PR AUC gap (weighted - plain): {gap:+.4f}")
print("inverse-frequency weights multiply the minority-class gradient ~4x at this")
print("imbalance, so the weighted model starts separating the classes within the")
print("3-epoch budget while the plain one is still near chance.")
