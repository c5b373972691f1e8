"""
Carleson families, the embedding bound, and full verification runs
==================================================================

Each principal forest induces a family of level sets carrying
coefficients; when those coefficients satisfy a Carleson condition —
their sum over any achievable tail is controlled by the measure of the
tail against the dual weights — an embedding theorem bounds a weighted
sum over the family by plain norms of the input functions.  This demo
certifies the Carleson constant exactly, checks the embedding, and then
runs the whole battery of inequality checks on generated instances.
"""

import numpy as np

from filtermax import (
    Exponents,
    FilteredSpace,
    build_level_sets,
    build_principal_forest,
    certify_carleson_constant,
    check_carleson_condition,
    enumerate_stopping_times,
    gen_instance,
    proof_coefficients,
    rows_to_csv,
    run_ensemble,
    run_instance_suite,
    verify_embedding,
)

space = FilteredSpace(
    masses=[0.25, 0.25, 0.25, 0.25],
    levels=[
        [[0, 1, 2, 3]],
        [[0, 1], [2, 3]],
        [[0], [1], [2], [3]],
    ],
)
exps = Exponents(2.0, 2.0)
h = np.array([1.0, 0.0, 0.0, 0.0])
forest = build_principal_forest(space, 0, -2, np.arange(4), h, h)

# Dual weights for the family; omega1 is chosen so that its dual is the
# tilted sigma1 below.
sigma1 = np.array([3.0, 1.0, 1.0, 1.0])
sigma2 = np.ones(4)
omega1 = 1.0 / sigma1
omega2 = np.ones(4)
v = np.ones(4)

# The "node" variant attaches one set per forest node; the "exit"
# variant uses the exit points instead.
family = build_level_sets(forest, sigma1, sigma2, variant="node")
family = proof_coefficients(space, family, sigma1, sigma2, v, exps)
for e in family.entries:
    print(f"entry: node {e.node_index}, level {e.k1}, shell exponent "
          f"{e.level_exp}, points {e.points.tolist()}, a = {e.coefficient}")

# Certification takes the largest ratio of coefficient mass to dual-weight
# mass over all achievable tails; the largest sits on a union of entries,
# so only those are scored.  Afterwards the family carries an exact
# Carleson constant.
family, worst = certify_carleson_constant(space, family, sigma1, sigma2, exps)
print(f"certified Carleson constant A = {family.carleson_A:.6f} "
      f"(worst tail {worst.tail_set().tolist()})")
assert family.certified

# No stopping time beats the certified constant.
for tau in enumerate_stopping_times(space, family.base_level):
    chk = check_carleson_condition(space, family, sigma1, sigma2, exps, tau)
    assert chk.lhs <= chk.rhs * (1 + 1e-12)
print("Carleson condition verified against every stopping time")

# The embedding: a coefficient-weighted sum of infima of weighted
# averages is bounded by A * (p1' p2')^p times the product of the input
# norms.
report = verify_embedding(forest, family, h, h, omega1, omega2, exps)
print(f"embedding: lhs = {report.lhs:.6f} <= rhs = {report.rhs:.6f} "
      f"(variant {report.variant}, certified {report.certified})")
assert report.lhs <= report.rhs

# Generated instances bundle a space, three weights, exponents, and a
# pair of test functions.  The suite runner checks every inequality —
# the weighted bounds under each hypothesis, sparse domination, the
# embedding, and the kernel identities — and reports one row each.
inst = gen_instance(seed=42, depth=2, branching=2, model="lognormal", p1=2.5, p2=1.7)
rows = run_instance_suite(inst, suite="all")
width = max(len(r.theorem) for r in rows)
for row in rows:
    print(f"{row.theorem:<{width}}  lhs {row.lhs:12.6g}  rhs {row.rhs:12.6g}  {row.status}")
assert all(row.status != "fail" for row in rows)

# Ensembles scale this to many seeds and serialize deterministically:
# the same seed and flags give byte-identical CSV, independent of the
# number of worker processes.
rows = run_ensemble(1234, 4, suite="thm11", depth=2, branching=2)
csv_text = rows_to_csv(rows)
assert csv_text == rows_to_csv(run_ensemble(1234, 4, suite="thm11", depth=2, branching=2, jobs=2))
print()
print(csv_text.rstrip("\n"))
