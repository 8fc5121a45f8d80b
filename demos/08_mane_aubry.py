"""Mane potential, calibrated orbits, and the Aubry/invariant sets.

The Mane potential is a shortest path on the grid's kernel graph (edges
``A^h + a h`` over a few horizons h).  At the critical level the
pendulum's Mane potential from the hilltop is the weak KAM solution;
calibrated orbits ride the separatrix H = 1, the Aubry mask (the critical
graph of the grid operator) is the hyperbolic point alone, and
backward-pruned graph seeds collapse onto it.
"""

import numpy as np
from scipy.integrate import quad

from hjkam import (aubry_set, calibrated_curve, free_model, invariant_set,
                   mane_potential, pendulum_model, weak_kam_solve)

SIGMA = 0.2
model = pendulum_model()

print("== Mane potential ==")
field = mane_potential(free_model(), 0.5, 0.0, grid_n=128, sigma_eff=0.25)
q = field.phi.nodes
print(f"free model at a=0.5: max |phi - sqrt(2a) dist(q, 0)| = "
      f"{np.max(np.abs(field.phi.values - np.minimum(q, 1 - q))):.2e}")
fieldp = mane_potential(model, 1.0, 0.0, grid_n=128, sigma_eff=SIGMA)
print(f"pendulum at a=1: phi(1/2) = {fieldp.phi.values[64]:.6f} "
      f"(2/pi = {2 / np.pi:.6f})")

print("\n== calibrated orbit on the separatrix ==")
traj = calibrated_curve(model, 1.0, 0.15, 0.45, horizon_cap=3.0, sigma_eff=SIGMA)
T_exact = quad(lambda s: 1 / (2 * np.sin(np.pi * s)), 0.15, 0.45)[0]
print(f"transit time {traj.times[-1]:.6f} (separatrix quadrature {T_exact:.6f})")
print(f"max |H - 1| along the orbit: {np.max(np.abs(traj.energy - 1.0)):.2e}")

print("\n== Aubry set and invariant set ==")
res = aubry_set(model, grid_n=128, sigma_eff=SIGMA)
print(f"alpha = {res.alpha:.8f}; marked nodes {list(res.marked_nodes())} "
      f"(the hilltop q = 0: its self-loop is the only critical cycle)")
wk = weak_kam_solve(model, grid_n=128, alpha=res.alpha, t_step=0.1, sigma_eff=SIGMA)
inv = invariant_set(model, wk.u, t_step=0.2, n_steps=40)
print(f"graph seeds surviving backward pruning: {len(inv.points)}; "
      f"positions {np.round(inv.points, 6).tolist()}")
free = free_model()
fres = aubry_set(free, grid_n=64, sigma_eff=0.25)
print(f"free model: {int(fres.mask.sum())}/64 nodes marked "
      "(the whole torus is the Aubry set)")
