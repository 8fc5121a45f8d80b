"""Minimal action over long horizons: broken geodesics vs the Lagrangian oracle.

Chains of short orbit segments extend the generating function past the
twist window.  Over long horizons the pendulum's minimizers park at the
potential maximum, where the running cost is -max V; the independent
Tonelli oracle, Newton on the midpoint-rule action of discrete curves
extrapolated in the segment count, confirms the values.
"""

import numpy as np

from hjkam import (broken_action_value, lagrangian_action, minimal_action,
                   pendulum_model, reconstruct_trajectory, tonelli_oracle)

SIGMA = 0.2
model = pendulum_model()

print("== waiting at the hilltop ==")
for t in (1.0, 2.0, 4.0):
    A, path = minimal_action(model, 0.0, t, [0.5], [0.5], sigma_eff=SIGMA)
    T = tonelli_oracle(model, 0.0, t, [0.5], [0.5],
                       n_segments=max(200, int(100 * t)), restarts=2)
    print(f"t={t}: A = {A:+.6f}   tonelli = {T:+.6f}   "
          f"(-t + 4/pi = {-t + 4 / np.pi:+.6f} as t grows)")

print("\n== chain diagnostics ==")
A, path = minimal_action(model, 0.0, 2.0, [0.3], [0.8], sigma_eff=SIGMA)
print(f"A^2(0.3, 0.8) = {A:.8f} with {path.n} segments, "
      f"max momentum jump {np.max(path.momentum_jumps):.2e}")
traj = reconstruct_trajectory(model, path, step=2e-3)
La = lagrangian_action(model, traj.times, traj.Q[:, 0])
print(f"Lagrangian action of the reconstructed orbit: {La:.8f}")
chain_value = broken_action_value(model, 0.0, 2.0, [0.3], [0.8], path.nodes,
                                  sigma_eff=SIGMA)
print(f"sum of segment generating values: {chain_value:.8f}")

print("\n== refinement independence ==")
A2, _ = minimal_action(model, 0.0, 2.0, [0.3], [0.8], sigma_eff=SIGMA,
                       n=2 * path.n)
print(f"|A(n) - A(2n)| = {abs(A - A2):.2e}")
