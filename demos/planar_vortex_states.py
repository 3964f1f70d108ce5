# Planar excited states R(r) e^{i k phi} with angular index k = 1, 2.
#
# These carry angular momentum and are not spherically symmetric, yet their
# gradient functionals are isotropic (I_1 = I_2 identically in polar
# coordinates), so they obey the same particle-like energy-momentum relation
# as the radial ground states.  The profiles vanish like r^k at the origin.
#
#   python demos/planar_vortex_states.py
# -> writes outputs/vortex_k{1,2}.csv

import os

import numpy as np

from solwave import (PotentialSpec, boost_scan, compute_functionals,
                     find_excited_state, grid_for, save_wave)

CUBIC = PotentialSpec(mass_sq=1.0, terms=((1.0, 4),), amplitude_cap=8.5)
OMEGA = 0.8


def main():
    os.makedirs("outputs", exist_ok=True)
    for k in (1, 2):
        wave = find_excited_state(CUBIC, OMEGA, k)
        rep = compute_functionals(wave)
        p = wave.profile
        peak_r = p.r_grid[np.argmax(np.abs(p.values))]
        print(f"k = {k}:")
        print(f"  slope coefficient s = {p.shoot_param:.8f} (R ~ s r^{k} near 0)")
        print(f"  R(0) = {p.values[0]}, peak R = {np.max(p.values):.6f} at r = {peak_r:.2f}")
        print("  I_1 = I_2 by construction (compute_functionals shares one gradient "
              "integral equally among the axes); a measured split is ROADMAP item 1")
        print(f"  E_0 = {rep.e0:.6f}, pokhozhaev residual = {rep.pokhozhaev_residual:.1e}")
        save_wave(wave, f"outputs/vortex_k{k}.csv", f"outputs/vortex_k{k}.json")

    print("\nboost check for k = 1 (relation must hold despite the angular structure):")
    wave = find_excited_state(CUBIC, OMEGA, 1)
    rep = compute_functionals(wave)
    grid = grid_for(wave, [0.0, 0.0], 0.0, 0.05)
    for row in boost_scan(wave, CUBIC, [[0.3, 0.0], [0.6, 0.0]], grid, report=rep):
        gamma = 1 / np.sqrt(1 - row.v[0] ** 2)
        print(f"  v={row.v[0]:.1f}: E_meas={row.e_measured:.5f} vs "
              f"gamma E_0={gamma * rep.e0:.5f} (relE={row.rel_err_e:.1e}, "
              f"relP={row.rel_err_p:.1e})")


if __name__ == "__main__":
    main()
