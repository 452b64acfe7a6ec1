"""Loading a knowledge graph and sampling from it.

Builds a toy movie graph from raw string triples, loads it through the
vocabulary/CSR-edge pipeline, then shows the two kinds of draw the model
is built on: fixed-size neighbor bags and multi-hop ripple bags.
"""

import os
import tempfile

import numpy as np

import ripplerec as rr

TRIPLES = [
    ("Heat", "directed_by", "Michael Mann"),
    ("Heat", "starring", "Al Pacino"),
    ("Heat", "starring", "Robert De Niro"),
    ("Heat", "genre", "Crime"),
    ("The Irishman", "starring", "Robert De Niro"),
    ("The Irishman", "starring", "Al Pacino"),
    ("The Irishman", "genre", "Crime"),
    ("Collateral", "directed_by", "Michael Mann"),
    ("Collateral", "genre", "Crime"),
    ("Scarface", "starring", "Al Pacino"),
    ("Scarface", "genre", "Crime"),
]

workdir = tempfile.mkdtemp(prefix="ripplerec-demo-")
kg_path = os.path.join(workdir, "kg.tsv")
with open(kg_path, "w", encoding="utf-8") as fh:
    for h, r, t in TRIPLES:
        fh.write(f"{h}\t{r}\t{t}\n")

kg = rr.load_kg(kg_path, undirected=True)
print(f"loaded: {kg.num_entities} entities, {kg.num_relations} relations, {kg.num_triples} triples")
print("entity vocabulary (first-appearance order; an index is a position in entity_names):")
for idx, name in enumerate(kg.entity_names[:6]):
    print(f"  {idx:2d}  {name}")

# Edges are undirected by default, so an actor node reaches its movies.
pacino = kg.entity_names.index("Al Pacino")
print("\nneighbors of 'Al Pacino':")
for rel, ent in kg.neighbors(pacino):
    print(f"  --{kg.relation_names[rel]}--> {kg.entity_names[ent]}")

# Fixed-size neighbor bags: always n_e pairs, duplicates allowed.
rng = np.random.default_rng(0)
(rels,), (ents,) = rr.sample_children(kg, [pacino], n_e=5, rng=rng)
print("\none 5-neighbor sample (with replacement):")
for rel, ent in zip(rels, ents):
    print(f"  --{kg.relation_names[rel]}--> {kg.entity_names[ent]}")

# Ripple bags: hop-k heads always come from hop-(k-1) tails.  The builder
# draws every user's bags at once from (user, seed entity) pairs; here one
# user, row 0 of the table, is seeded by "Heat".
heat = kg.entity_names.index("Heat")


def ripple_bags(rng):
    return rr.build_ripple_table(kg, users=[0], seeds=[heat], num_users=1, hops=2, n_p=4, rng=rng).bags[:, 0]


for k, bag in enumerate(ripple_bags(rng), start=1):
    print(f"\nhop {k} bag (exactly {len(bag)} triples):")
    for h, r, t in bag:
        print(f"  {kg.entity_names[h]} --{kg.relation_names[r]}--> {kg.entity_names[t]}")

# Same seed, same bags: the samplers are deterministic given the generator.
assert ripple_bags(np.random.default_rng(1)).tobytes() == ripple_bags(np.random.default_rng(1)).tobytes()
print("\nsame generator seed twice -> byte-identical ripple bags")
