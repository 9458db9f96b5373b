"""Solid plate in bending: the two reference critical loads.

A 54 x 13 x 2 mm photopolymer plate is loaded by a transverse point force
at midspan. Two support configurations are compared:

* clamped: the full vertical node lines at x = 12 and 42 mm are fixed;
* supported: only the two bottom nodes at those abscissas are pinned,
  leaving rotation free (three-point bending).

The model is linear, so a single probe solve scales to the critical force
at which the largest von Mises stress reaches the elastic limit of
35 MPa. With two element layers through the thickness the clamped and
supported cases land at about 92 N and 60 N.
"""

import chiralplate as cp

for bc in (cp.BoundaryCondition.CLAMPED, cp.BoundaryCondition.SUPPORTED):
    print(f"--- {bc.value} ---")
    for algorithm in ("conforming", "incompatible"):
        ledger = cp.run_solid_case(bc, algorithm=algorithm, layers=2, F_probe=60.0)
        print(
            f"{algorithm:12s}: sigma_max(60 N) = {60 * 35 / ledger.F_crit:6.2f} MPa"
            f"   F_crit = {ledger.F_crit:6.2f} N"
        )
    print()

# The same pipeline, step by step for the clamped case: build the model,
# then evaluate one 60 N probe, which solves it and scales to F_crit.
# evaluate takes a tuple of boundary conditions, solves them all on one
# assembled stiffness and returns one result per condition; here just one.
spec = cp.PlateSpec().solid()
material = cp.FORMLABS_CLEAR
mesh, layers = cp.solid_model(spec, 2, "conforming", material)
print(f"mesh: {mesh.nx} x {mesh.n_layers} elements, a_fe = {mesh.a_fe} mm")

[(result, sigma_max, f_crit)] = cp.evaluate(
    mesh, layers, spec, (cp.BoundaryCondition.CLAMPED,), 60.0, material
)

print(f"max |u_y| = {abs(result.u[1::2]).max():.4f} mm")
print(f"sigma_max = {sigma_max['plate']:.2f} MPa")
print(f"F_crit    = {f_crit:.2f} N")
