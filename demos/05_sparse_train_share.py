"""Where the knowledge graph helps most: test AUC against train share.

Fits the full model and both single-side ablations on 100%, 50% and 20%
of the train rows of the planted-signal data of the acceptance suite,
with its hyperparameters, and prints a markdown table of test AUC (mean
and sample standard deviation over the seeds) for the README.  Seed s
keeps the same seeded subsample of train rows for every variant, drawn
as in ``test_dual_side_helps_most_when_sparse``.  Every variant trains
and is scored on the rows of users the full model's ripple table knows:
at low share some users have no train positive left, so no ripple set,
and the full and ripple-only fits drop their train rows and skip their
validation and test rows, while the conv-only model (a user table)
would keep them, so it is fit and selects its best epoch on the train
and validation rows the full model kept.  It takes about a
minute on one core, so the demo smoke test does not run it:

    PYTHONPATH=src python demos/05_sparse_train_share.py
"""

import dataclasses
import tempfile

import numpy as np

import ripplerec as rr
from ripplerec.synthetic import SyntheticSpec, generate

SEEDS = range(6)
SHARES = (1.0, 0.5, 0.2)
VARIANTS = {"full": dict(conv_layers=1), "ripple-only": dict(conv_layers=0),
            "conv-only": dict(conv_layers=1, user_table=True)}

paths = generate(SyntheticSpec(seed=7), tempfile.mkdtemp(prefix="ripplerec-demo-"))
kg = rr.load_kg(paths.kg)
item_map = rr.load_item_map(paths.item_map, kg)
dataset = rr.build_dataset(rr.binarize(paths.ratings, threshold=4.0, item_to_entity=item_map), seed=11)

print(f"test AUC, mean ± sd over seeds {list(SEEDS)}\n")
print(f"| train share | rows | test rows of {len(dataset.test)} | " + " | ".join(VARIANTS) + " |")
print("| --- | --- | --- |" + " --- |" * len(VARIANTS))
for share in SHARES:
    aucs = {name: [] for name in VARIANTS}
    scored = []
    rows = int(len(dataset.train) * share)
    for seed in SEEDS:
        keep = np.sort(np.random.default_rng([seed, 20]).permutation(len(dataset.train))[:rows])
        subset = dataclasses.replace(dataset, train=dataset.train[keep])
        known = None  # the users the full model's ripple table knows; "full" fits first
        for name, kw in VARIANTS.items():
            hp = rr.Hyperparams(embed_dim=8, hops=2, ripple_size=16, neighbor_size=8, l2_weight=1e-6, lr=1e-2,
                                batch_size=256, epochs=25, patience=5, precision="f64", **kw)
            data = subset
            if hp.user_table:  # a user table knows every user: keep only the rows the full fit kept
                data = dataclasses.replace(subset, train=subset.train[known(subset.train[:, 0])],
                                           validation=subset.validation[known(subset.validation[:, 0])])
            result = rr.fit(data, kg, hp, seed=seed)
            if known is None:
                known = result.ripple_table.known
                test = subset.test[known(subset.test[:, 0])]
                scored.append(len(test))
            report = rr.evaluate(result.params, test, result.neighbor_table, result.ripple_table, hp,
                                 subset.item_entities)
            aucs[name].append(report.auc)
    cells = [f"{np.mean(a):.4f} ± {np.std(a, ddof=1):.4f}" for a in aucs.values()]
    test_rows = f"{min(scored)}-{max(scored)}" if min(scored) < max(scored) else f"{min(scored)}"
    print(f"| {share:.0%} | {rows} | {test_rows} | " + " | ".join(cells) + " |")
