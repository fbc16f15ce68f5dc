"""Seeded vascular-tree generator for the benchmark.

Every tree is built with the public schema classes of ``vascrom.network``
and handed to the program only as a JSON-ready dict (``network_to_dict``),
so the timed chain starts from the same place a user's input file does.

Shapes, and why each one is in the benchmark:

* ``sym``   -- full binary tree with Murray-law radii (``generate_symmetric_tree``).
  Equal splits and equal predicted coefficients on both outlets, so the
  steady and transient rri answers are checkable against an independent
  ``Q|Q|`` root-finder.  A share of these trees gets a reversed (negative)
  inflow, which exercises the junction law for backward flow.
* ``bal``   -- full binary tree whose flow split at every junction is drawn
  from U(0.3, 0.7); daughter radii follow Murray's law for that split.
  Unequal splits move split estimation and the predicted coefficients off
  the symmetric point.
* ``unbal`` -- grown by splitting randomly chosen leaves until the vessel
  count is reached.  Depth, radius range and conditioning vary far more than
  in the full trees, and branch angles span the whole allowed [0, pi/2], so
  some fall outside the trained range and predict clamps them.

Size classes: ``v127`` (depth-6 full tree) and ``v511`` (depth-8).  The pair
shows how per-tree cost grows with vessel count.
"""

from __future__ import annotations

import math

import numpy as np

from vascrom.network import (
    BoundaryCondition,
    Fluid,
    Junction,
    JunctionOutlet,
    VascularNetwork,
    Vessel,
    apply_bifurcation_definition,
    generate_symmetric_tree,
    network_to_dict,
)

SIZES = {"v127": 127, "v511": 511}

INLET_RADIUS = 0.5  # cm
LENGTH_OVER_RADIUS = 20.0
LEAF_RESISTANCE = 1e5  # Ba s/cm^3 for a leaf of a symmetric tree at depth 6
SPLIT_RANGE = (0.3, 0.7)


def _depth_of(n_vessels: int) -> int:
    depth = int(round(math.log2(n_vessels + 1))) - 1
    if 2 ** (depth + 1) - 1 != n_vessels:
        raise ValueError(f"{n_vessels} is not the size of a full binary tree")
    return depth


def symmetric_tree(n_vessels: int, inflow: float) -> dict:
    net = generate_symmetric_tree(
        depth=_depth_of(n_vessels), inflow=inflow, leaf_resistance=LEAF_RESISTANCE
    )
    return network_to_dict(net)


class _Builder:
    """Grows a binary tree vessel by vessel; leaves get resistance BCs
    inversely proportional to their design flow fraction, so the designed
    splits are roughly what the circuit produces."""

    def __init__(self, rng: np.random.Generator, angles: tuple[float, float]):
        self.rng = rng
        self.angle_range = angles
        self.vessels: dict[str, Vessel] = {}
        self.fraction: dict[str, float] = {}
        self.children: dict[str, tuple[str, str]] = {}
        self.angles: dict[str, tuple[float, float]] = {}
        self._add("v", INLET_RADIUS, 1.0)

    def _add(self, vid: str, radius: float, fraction: float) -> None:
        self.vessels[vid] = Vessel(
            id=vid,
            length=LENGTH_OVER_RADIUS * radius * self.rng.uniform(0.7, 1.3),
            area=math.pi * radius**2,
        )
        self.fraction[vid] = fraction

    def split(self, vid: str) -> tuple[str, str]:
        phi = self.rng.uniform(*SPLIT_RANGE)
        radius = self.vessels[vid].radius
        left, right = vid + "0", vid + "1"
        # Murray's law: Q ~ r^3, so r_child = r_parent * phi^(1/3)
        self._add(left, radius * phi ** (1 / 3), self.fraction[vid] * phi)
        self._add(right, radius * (1 - phi) ** (1 / 3), self.fraction[vid] * (1 - phi))
        self.children[vid] = (left, right)
        self.angles[vid] = tuple(self.rng.uniform(*self.angle_range, size=2))
        return left, right

    def network(self, inflow: float) -> dict:
        junctions = [
            Junction(
                id="j" + vid,
                inlet_vessel=vid,
                outlets=[
                    JunctionOutlet(vessel_id=c, angle=float(a))
                    for c, a in zip(kids, self.angles[vid])
                ],
            )
            for vid, kids in self.children.items()
        ]
        n_leaves = sum(1 for v in self.vessels if v not in self.children)
        # total leaf conductance matches a symmetric depth-6 tree
        r_scale = LEAF_RESISTANCE / 64 * n_leaves
        bcs = [
            BoundaryCondition(
                vessel_id=vid, kind="RESISTANCE", r=r_scale / (n_leaves * self.fraction[vid])
            )
            for vid in self.vessels
            if vid not in self.children
        ]
        bcs.append(BoundaryCondition(vessel_id="v", kind="FLOW", value=inflow))
        net = VascularNetwork(
            fluid=Fluid(), vessels=self.vessels, junctions=junctions, boundary_conditions=bcs
        )
        return network_to_dict(apply_bifurcation_definition(net))


def balanced_tree(n_vessels: int, inflow: float, rng: np.random.Generator) -> dict:
    b = _Builder(rng, (0.3, 1.2))
    level = ["v"]
    for _ in range(_depth_of(n_vessels)):
        level = [c for vid in level for c in b.split(vid)]
    return b.network(inflow)


def unbalanced_tree(n_vessels: int, inflow: float, rng: np.random.Generator) -> dict:
    b = _Builder(rng, (0.0, math.pi / 2))
    leaves = ["v"]
    while len(b.vessels) < n_vessels:
        vid = leaves.pop(int(rng.integers(len(leaves))))
        leaves.extend(b.split(vid))
    return b.network(inflow)


def make_tree(shape: str, size: str, inflow: float, rng: np.random.Generator) -> dict:
    n = SIZES[size]
    if shape == "sym":
        return symmetric_tree(n, inflow)
    if shape == "bal":
        return balanced_tree(n, inflow, rng)
    if shape == "unbal":
        return unbalanced_tree(n, inflow, rng)
    raise ValueError(f"unknown shape {shape!r}")

