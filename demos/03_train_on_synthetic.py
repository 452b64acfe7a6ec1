"""End-to-end training on the bundled synthetic generator.

Generates a dataset whose preferences are planted in the graph structure
(users favor one latent cluster; relations mirror clusters), preps it
into balanced 6:2:2 splits, trains the full model, and compares against
the two single-side ablations.
"""

import tempfile

import numpy as np

import ripplerec as rr
from ripplerec.synthetic import SyntheticSpec, generate

workdir = tempfile.mkdtemp(prefix="ripplerec-demo-")
paths = generate(SyntheticSpec(seed=7), workdir)
print("generated:", paths.ratings, paths.kg, paths.item_map, sep="\n  ")

kg = rr.load_kg(paths.kg)
item_map = rr.load_item_map(paths.item_map, kg)
binarized = rr.binarize(paths.ratings, threshold=4.0, item_to_entity=item_map)
dataset = rr.build_dataset(binarized, seed=11)
print(f"\n{dataset.num_users} users, {dataset.num_items} items; "
      f"splits {len(dataset.train)}/{len(dataset.validation)}/{len(dataset.test)} "
      f"(each split is per-user balanced 1:1 positive:negative)")

hp = rr.Hyperparams(
    embed_dim=8, hops=2, ripple_size=16, neighbor_size=8, conv_layers=1,
    l2_weight=1e-6, lr=1e-2, batch_size=256, epochs=25, patience=5, precision="f64",
)
result = rr.fit(dataset, kg, hp, seed=0)

print("\nepoch  train_loss  val_auc  val_acc")
for row in result.history:
    print(f"{row['epoch']:5d}  {row['train_loss']:10.4f}  {row['val_auc']:7.4f}  {row['val_acc']:7.4f}")
print(f"\nbest epoch {result.best_epoch}; held-out test: "
      f"auc={result.test_report.auc:.4f} acc={result.test_report.acc:.4f}")

# Ablations: drop the item-side convolution, or swap the ripple-derived
# user for a plain embedding table. Dual enhancement should not lose.
for tag, kw in [("ripple only (no item conv)", dict(conv_layers=0)),
                ("item conv only (user table)", dict(conv_layers=1, user_table=True))]:
    hp_ab = rr.Hyperparams(embed_dim=8, hops=2, ripple_size=16, neighbor_size=8,
                           l2_weight=1e-6, lr=1e-2, batch_size=256, epochs=25,
                           patience=5, precision="f64", **kw)
    ab = rr.fit(dataset, kg, hp_ab, seed=0)
    print(f"{tag:28s} test auc={ab.test_report.auc:.4f}")

# A label-shuffled control confirms the score carries real signal. Scoring
# reads the two tables the run trained on (ripple bags and neighbor trees)
# and draws no random number, so these scores repeat exactly.
scores = rr.score_batch(result.params, dataset.test, result.neighbor_table, result.ripple_table, hp,
                        dataset.item_entities)
labels = dataset.test[:, 2].copy()
np.random.default_rng(123).shuffle(labels)
print(f"label-shuffled control auc={rr.auc(scores, labels):.4f} (should sit near 0.5)")
