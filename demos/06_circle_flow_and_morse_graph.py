"""
Boundary flow over the circle and the microlocal Morse graph
============================================================

For V0 = cos(2 theta) at sigma = 2 the shell carries eight radial points:
over each maximum (value 1) at nu = +-1 and over each minimum (value -1)
at nu = +-sqrt(3).  Forward trajectories seeded along saddle unstable
directions witness the heteroclinic order max -> min, and the Morse
sequence lists the outgoing points by descending nu.
"""

import math

from radialscope import (ContactPoint, PotentialModel, field_eval, heteroclinic_dag,
                         integrate_flow, locate_radial_points, morse_sequence)

pm = PotentialModel(n=2, v0_coeffs=[(2, 1.0, 0.0)])
sigma = 2.0

nodes = locate_radial_points(pm, sigma)
for n in nodes:
    kind = "min" if n.is_min else "max"
    print(f"{n.node_id}: theta = {n.theta:.4f}, nu = {n.nu:+.4f} ({kind},"
          f" {'outgoing' if n.outgoing else 'incoming'})")

# nu is nondecreasing along the flow: on-shell the nu-component of W is 2 mu^2
pt = ContactPoint("circle", (math.pi / 4,), 1.0, (1.0,))
print("W at an on-shell point:", field_eval(pm, sigma, pt))

traj = integrate_flow(pm, sigma, pt, (0.0, 10.0))
print(f"conservation: max |p| drift = {traj.p_drift:.1e}, "
      f"min nu increment = {traj.nu_min_increment:.1e}")

dag = heteroclinic_dag(pm, sigma)
print("heteroclinic edges:")
for e in dag.edges:
    print(f"  {e.source} -> {e.target}  (seed {e.seed_offset:+.0e},"
          f" p drift {e.trajectory.p_drift:.1e})")
print("undecided trajectories:", dag.undecided)

ms = morse_sequence(dag)
print("Morse order (descending nu, minima first here):", ms.order)
print("filtration verified:", ms.verified)

# the local gauge rho increases along the flow near every outgoing point,
# certified in closed form on a disk of the validated radius; the DAG's
# traces stop on entry into the ellipses these radii give at the minima
for check in dag.lyapunov:
    print(f"Lyapunov bound {check['nodeId']}: W rho >= c|z|^2/2 with "
          f"c = {check['c']:.2f} inside the certified radius "
          f"{check['validatedRadius']:.4f}")
