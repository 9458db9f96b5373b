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

# The same pipeline, spelled out step by step for the clamped case:
spec = cp.PlateSpec().solid()
mesh, tags = cp.build_solid_mesh(spec, layers=2)
print(f"mesh: {mesh.nx} x {mesh.n_layers} elements, a_fe = {mesh.a_fe} mm")

material = cp.FORMLABS_CLEAR
result = cp.analyze(
    mesh,
    [cp.Layer(material, "conforming", t) for t in tags],
    cp.apply_boundary(mesh, cp.BoundaryCondition.CLAMPED, spec),
    cp.apply_load(mesh, cp.LoadCase(60.0), spec),
)
field = result.field

print(f"max |u_y| = {abs(result.u[1::2]).max():.4f} mm")
print(f"sigma_max = {field.max_se():.2f} MPa")
print(f"F_crit    = {60.0 * material.sigma_el / field.max_se():.2f} N")
