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
print(f"loaded: {kg.num_entities} entities, {kg.num_relations} relations, {len(kg.triples)} triples")
print("entity vocabulary (first-appearance order):")
for name, idx in list(kg.entity_vocab.items())[:6]:
    print(f"  {idx:2d}  {name}")

# Edges are undirected by default, so an actor node reaches its movies.
pacino = kg.entity_vocab["Al Pacino"]
print("\nneighbors of 'Al Pacino':")
for rel, ent in kg.neighbors(pacino):
    print(f"  --{kg.relation_names[rel]}--> {kg.entity_names[ent]}")

# Fixed-size neighbor bags: always n_e pairs, duplicates allowed.
rng = np.random.default_rng(0)
sample = rr.sample_neighbors(kg, pacino, n_e=5, rng=rng)
print("\none 5-neighbor sample (with replacement):")
for rel, ent in zip(sample.relations, sample.entities):
    print(f"  --{kg.relation_names[rel]}--> {kg.entity_names[ent]}")

# Ripple bags: hop-k heads always come from hop-(k-1) tails.
heat = kg.entity_vocab["Heat"]
ripple = rr.build_ripple_set(kg, seeds=[heat], hops=2, n_p=4, rng=rng, user=0)
for k, bag in enumerate(ripple.hops, start=1):
    print(f"\nhop {k} bag (exactly {len(bag)} triples):")
    for h, r, t in bag:
        print(f"  {kg.entity_names[h]} --{kg.relation_names[r]}--> {kg.entity_names[t]}")

# Same seed, same bags: the samplers are deterministic given the generator.
again = rr.build_ripple_set(kg, seeds=[heat], hops=2, n_p=4, rng=np.random.default_rng(1), user=0)
twice = rr.build_ripple_set(kg, seeds=[heat], hops=2, n_p=4, rng=np.random.default_rng(1), user=0)
assert all(a.tobytes() == b.tobytes() for a, b in zip(again.hops, twice.hops))
print("\nsame generator seed twice -> byte-identical ripple bags")
