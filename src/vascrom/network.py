"""Directed-tree vascular circuit model.

All quantities are CGS: lengths in cm, areas in cm^2, flow in cm^3/s,
pressure in Ba (1 mmHg = 1333.22 Ba), resistance in Ba*s/cm^3.

The tree structure (which vessels exist and how junctions connect them) is
fixed once ``VascularNetwork.validate()`` has run: validation builds one
``Topology`` that every consumer reads.  Junction attributes (flow splits,
coefficients) may still be written, and boundary conditions are read live
from ``boundary_conditions``, so they may be swapped after construction.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

DEFAULT_MU = 0.04  # g/(cm s), standard blood viscosity
DEFAULT_RHO = 1.06  # g/cm^3
DEFAULT_KT = 1.52  # stenosis loss coefficient when none is given
DEFAULT_CAPACITANCE = 1e-8  # cm^3/Ba, numerical-stability value
NO_BRANCH_FRACTION = 0.1  # attributed fraction of branch length for "no_branch"

BIFURCATION_DEFINITIONS = ("no_branch", "partial_branch", "full_branch")

MMHG_TO_BA = 1333.22


class NetworkError(Exception):
    """Base class for network construction/validation errors."""


class InvalidGeometryError(NetworkError):
    pass


class SchemaError(NetworkError):
    pass


class ConnectivityError(NetworkError):
    pass


@dataclass(frozen=True)
class Fluid:
    mu: float = DEFAULT_MU
    rho: float = DEFAULT_RHO

    def __post_init__(self):
        if not (0 < self.mu < math.inf and 0 < self.rho < math.inf):
            raise InvalidGeometryError(
                f"fluid properties must be positive and finite, "
                f"got mu={self.mu}, rho={self.rho}"
            )


def poiseuille_elements(length: float, area: float, fluid: Fluid) -> tuple[float, float]:
    """Poiseuille resistance and inductance for a straight segment.

    R = 8*pi*mu*l/A^2, L = rho*l/A.
    """
    if length <= 0 or area <= 0:
        raise InvalidGeometryError(
            f"length and area must be positive, got l={length}, A={area}"
        )
    R = 8.0 * math.pi * fluid.mu * length / area**2
    L = fluid.rho * length / area
    return R, L


def stenosis_resistance(area: float, stenosis_area: float, kt: float, rho: float) -> float:
    """Empirical expansion-loss resistance, proportional to Q|Q|."""
    if not (0 < stenosis_area <= area):
        raise InvalidGeometryError(
            f"need 0 < A_stenosis <= A, got A={area}, A_stenosis={stenosis_area}"
        )
    return (kt * rho / (2.0 * area**2)) * (area / stenosis_area - 1.0) ** 2


def length_correction(
    lam: float,
    lam_min: float,
    lam_max: float,
    l_c: float,
    outlet_area: float,
    fluid: Fluid,
) -> tuple[float, float]:
    """Poiseuille correction for outlet lengths outside the trained range.

    Returns (delta_R, delta_L); both are negative when lam < lam_min.
    """
    if l_c <= 0 or outlet_area <= 0:
        raise InvalidGeometryError("l_c and outlet area must be positive")
    l_add = min(0.0, lam - lam_min) * l_c + max(0.0, lam - lam_max) * l_c
    delta_r = l_add * 8.0 * math.pi * fluid.mu / outlet_area**2
    delta_l = l_add * fluid.rho / outlet_area
    return delta_r, delta_l


@dataclass(frozen=True)
class Vessel:
    id: str
    length: float
    area: float
    stenosis_area: Optional[float] = None
    kt: Optional[float] = None
    tangent: tuple[float, float, float] = (1.0, 0.0, 0.0)
    capacitance: float = DEFAULT_CAPACITANCE

    def __post_init__(self):
        optional = [v for v in (self.stenosis_area, self.kt) if v is not None]
        if not all(map(math.isfinite, [self.capacitance, *self.tangent, *optional])):
            raise InvalidGeometryError(f"vessel {self.id}: values must be finite")
        if not (0 < self.length < math.inf and 0 < self.area < math.inf):
            raise InvalidGeometryError(
                f"vessel {self.id}: length and area must be positive and finite"
            )
        if self.stenosis_area is not None and not (0 < self.stenosis_area <= self.area):
            raise InvalidGeometryError(
                f"vessel {self.id}: need 0 < A_stenosis <= A"
            )
        if self.capacitance < 0:
            raise InvalidGeometryError(f"vessel {self.id}: capacitance must be >= 0")
        norm = math.sqrt(sum(c * c for c in self.tangent))
        if not math.isclose(norm, 1.0, rel_tol=1e-6):
            object.__setattr__(
                self, "tangent", tuple(c / norm for c in self.tangent)
            )

    @property
    def radius(self) -> float:
        return math.sqrt(self.area / math.pi)

    def elements(self, fluid: Fluid) -> tuple[float, float]:
        return poiseuille_elements(self.length, self.area, fluid)

    def stenosis_r(self, fluid: Fluid) -> float:
        if self.stenosis_area is None:
            return 0.0
        kt = self.kt if self.kt is not None else DEFAULT_KT
        return stenosis_resistance(self.area, self.stenosis_area, kt, fluid.rho)


@dataclass(frozen=True)
class BoundaryCondition:
    """Inflow (FLOW) or resistance (RESISTANCE) boundary condition.

    FLOW: value is a steady flow in cm^3/s, or (t, q) arrays for transient.
    RESISTANCE: r is R_dist in Ba*s/cm^3, pd the distal pressure in Ba.
    """

    vessel_id: str
    kind: str
    value: Any = None
    r: float = 0.0
    pd: float = 0.0

    def __post_init__(self):
        if self.kind not in ("FLOW", "RESISTANCE"):
            raise SchemaError(f"unknown boundary condition kind {self.kind!r}")
        if self.kind == "RESISTANCE" and not (
            0 <= self.r < math.inf and math.isfinite(self.pd)
        ):
            raise SchemaError(
                f"BC on {self.vessel_id}: resistance must be >= 0 and finite, "
                f"distal pressure finite"
            )
        if self.kind == "FLOW" and isinstance(self.value, (tuple, list)):
            t, q = np.asarray(self.value[0], float), np.asarray(self.value[1], float)
            if t.size != q.size or t.size < 2 or np.any(np.diff(t) <= 0):
                raise SchemaError(
                    f"BC on {self.vessel_id}: inflow series must be strictly increasing in t"
                )
            object.__setattr__(self, "value", (t, q))
        if self.kind == "FLOW" and not np.all(np.isfinite(np.asarray(self.value, float))):
            raise SchemaError(f"BC on {self.vessel_id}: inflow must be finite")

    def steady_flow(self) -> float:
        if isinstance(self.value, tuple):
            return float(self.value[1][0])
        return float(self.value)


@dataclass
class JunctionOutlet:
    vessel_id: str
    angle: float
    attributed_length: Optional[float] = None
    residual_length: Optional[float] = None
    coefficients: Any = None  # CoefficientSet, populated by prediction or fitting
    flow_split: Optional[float] = None

    def __post_init__(self):
        if not (0.0 <= self.angle <= math.pi / 2):
            raise InvalidGeometryError(
                f"outlet {self.vessel_id}: angle must be in [0, pi/2], got {self.angle}"
            )


@dataclass
class Junction:
    id: str
    inlet_vessel: str
    outlets: list[JunctionOutlet]

    def __post_init__(self):
        if len(self.outlets) != 2:
            raise ConnectivityError(
                f"junction {self.id}: exactly two outlets required "
                f"(got {len(self.outlets)}); many-outlet junctions are unsupported"
            )
        phis = [o.flow_split for o in self.outlets]
        if all(p is not None for p in phis) and not abs(phis[0] + phis[1] - 1.0) <= 1e-12:
            raise InvalidGeometryError(
                f"junction {self.id}: flow splits must sum to 1"
            )


@dataclass(frozen=True)
class Topology:
    """Structure of a validated tree, built once by ``validate()``."""

    vessel_ids: tuple[str, ...]  # sorted: the order of vessels in a state
    position: dict[str, int]  # vessel id -> index in vessel_ids
    feeds: dict[str, Junction]  # vessel id -> junction at its downstream end
    parent: dict[str, Junction]  # vessel id -> junction it leaves
    preorder: tuple[str, ...]  # root first, every vessel before its subtree
    depth: dict[str, int]  # junction id -> number of junctions upstream

    def subtree(self, vessel_id: str) -> list[str]:
        """Vessels of the subtree rooted at vessel_id, in pre-order."""
        return _preorder(self.feeds, vessel_id)


def _preorder(feeds: dict[str, Junction], vessel_id: str) -> list[str]:
    """Walk down from vessel_id: each vessel, then its first outlet's subtree,
    then its second's."""
    order, stack = [], [vessel_id]
    while stack:
        vid = stack.pop()
        order.append(vid)
        j = feeds.get(vid)
        if j is not None:
            stack.extend(o.vessel_id for o in reversed(j.outlets))
    return order


@dataclass
class VascularNetwork:
    fluid: Fluid
    vessels: dict[str, Vessel]
    junctions: list[Junction]
    boundary_conditions: list[BoundaryCondition]
    bifurcation_definition: str = "partial_branch"
    topology: Topology = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    # -- topology helpers -------------------------------------------------

    def bc_of(self, vessel_id: str, kind: str) -> Optional[BoundaryCondition]:
        for bc in self.boundary_conditions:
            if bc.vessel_id == vessel_id and bc.kind == kind:
                return bc
        return None

    @property
    def inlet_vessel(self) -> Vessel:
        return self.vessels[self.inflow_bc.vessel_id]

    @property
    def inflow_bc(self) -> BoundaryCondition:
        return next(b for b in self.boundary_conditions if b.kind == "FLOW")

    @contextmanager
    def steady_inflow(self, q: float):
        """Swap the inflow BC for a steady flow q; the original boundary
        conditions come back on exit, also on error."""
        original = self.boundary_conditions
        self.boundary_conditions = [
            replace(b, value=q) if b.kind == "FLOW" else b for b in original
        ]
        try:
            yield self
        finally:
            self.boundary_conditions = original

    def leaf_vessels(self) -> list[str]:
        return [v for v in self.vessels if v not in self.topology.feeds]

    def junction_depth(self, junction: Junction) -> int:
        """Number of junctions upstream of this one."""
        return self.topology.depth[junction.id]

    # -- validation -------------------------------------------------------

    def validate(self):
        if self.bifurcation_definition not in BIFURCATION_DEFINITIONS:
            raise SchemaError(
                f"unknown bifurcation definition {self.bifurcation_definition!r}"
            )
        ids = list(self.vessels)
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate vessel ids")
        jids = [j.id for j in self.junctions]
        if len(set(jids)) != len(jids):
            raise SchemaError("duplicate junction ids")

        for j in self.junctions:
            for vid in [j.inlet_vessel] + [o.vessel_id for o in j.outlets]:
                if vid not in self.vessels:
                    raise ConnectivityError(
                        f"junction {j.id} references unknown vessel {vid!r}"
                    )
        for bc in self.boundary_conditions:
            if bc.vessel_id not in self.vessels:
                raise ConnectivityError(
                    f"boundary condition references unknown vessel {bc.vessel_id!r}"
                )

        flow_bcs = [b for b in self.boundary_conditions if b.kind == "FLOW"]
        if len(flow_bcs) != 1:
            raise ConnectivityError(
                f"exactly one inflow BC required, found {len(flow_bcs)}"
            )

        # Each vessel feeds at most one junction and leaves at most one; the
        # walk from the inflow vessel must reach every vessel.  With one parent
        # per vessel and none for the root, the walk cannot meet a cycle.
        feeds: dict[str, Junction] = {}
        parent: dict[str, Junction] = {}
        for j in self.junctions:
            if j.inlet_vessel in feeds:
                raise ConnectivityError(
                    f"vessel {j.inlet_vessel} feeds two junctions: "
                    f"{feeds[j.inlet_vessel].id} and {j.id}"
                )
            feeds[j.inlet_vessel] = j
            for o in j.outlets:
                if o.vessel_id in parent:
                    raise ConnectivityError(f"vessel {o.vessel_id} has multiple parents")
                parent[o.vessel_id] = j
        root = flow_bcs[0].vessel_id
        if root in parent:
            raise ConnectivityError("inflow vessel must be the tree root")
        preorder = _preorder(feeds, root)
        if len(preorder) != len(self.vessels):
            missing = sorted(set(self.vessels) - set(preorder))
            raise ConnectivityError(f"disconnected vessels: {missing}")

        # Downstream end of every vessel is a junction inlet or a resistance BC.
        resistance = {b.vessel_id for b in self.boundary_conditions if b.kind == "RESISTANCE"}
        for vid in self.vessels:
            if vid not in feeds and vid not in resistance:
                raise ConnectivityError(
                    f"vessel {vid} ends in neither a junction nor a resistance BC"
                )
            if vid in feeds and vid in resistance:
                raise ConnectivityError(
                    f"vessel {vid} has both a downstream junction and a resistance BC"
                )

        depth: dict[str, int] = {}
        for vid in preorder:
            if vid in feeds:
                depth[feeds[vid].id] = depth[parent[vid].id] + 1 if vid in parent else 0
        order = tuple(sorted(self.vessels))
        position = {vid: i for i, vid in enumerate(order)}
        self.topology = Topology(order, position, feeds, parent, tuple(preorder), depth)


def apply_bifurcation_definition(
    network: VascularNetwork, no_branch_fraction: float = NO_BRANCH_FRACTION
) -> VascularNetwork:
    """Partition each junction outlet branch into attributed + residual length.

    no_branch attributes a small configurable fraction (the mesh-based
    intersection rule is unavailable here), partial_branch attributes 90%,
    full_branch the entire branch.
    """
    frac = {
        "no_branch": no_branch_fraction,
        "partial_branch": 0.9,
        "full_branch": 1.0,
    }[network.bifurcation_definition]
    for j in network.junctions:
        for o in j.outlets:
            total = network.vessels[o.vessel_id].length
            o.attributed_length = frac * total
            o.residual_length = total - o.attributed_length
    return network


def generate_symmetric_tree(
    depth: int,
    inlet_radius: float = 0.5,
    length_over_radius: float = 20.0,
    murray_exponent: float = 3.0,
    fluid: Fluid = Fluid(),
    inflow: float = 100.0,
    leaf_resistance: float = 1e5,
    distal_pressure: float = 0.0,
    outlet_angle: float = 0.6,
    bifurcation_definition: str = "partial_branch",
    capacitance: float = DEFAULT_CAPACITANCE,
) -> VascularNetwork:
    """Full binary tree with Murray-law daughter radii and resistance BC leaves."""
    if depth < 0 or inlet_radius <= 0:
        raise InvalidGeometryError("depth must be >= 0 and inlet_radius > 0")
    vessels: dict[str, Vessel] = {}
    junctions: list[Junction] = []
    bcs: list[BoundaryCondition] = []

    ratio = 2.0 ** (-1.0 / murray_exponent)

    def build(vid: str, radius: float, level: int):
        vessels[vid] = Vessel(
            id=vid,
            length=length_over_radius * radius,
            area=math.pi * radius**2,
            capacitance=capacitance,
        )
        if level == depth:
            bcs.append(
                BoundaryCondition(
                    vessel_id=vid, kind="RESISTANCE", r=leaf_resistance, pd=distal_pressure
                )
            )
            return
        child_r = radius * ratio
        left, right = vid + "0", vid + "1"
        junctions.append(
            Junction(
                id="j" + vid,
                inlet_vessel=vid,
                outlets=[
                    JunctionOutlet(vessel_id=left, angle=outlet_angle),
                    JunctionOutlet(vessel_id=right, angle=outlet_angle),
                ],
            )
        )
        build(left, child_r, level + 1)
        build(right, child_r, level + 1)

    build("v", inlet_radius, 0)
    bcs.append(BoundaryCondition(vessel_id="v", kind="FLOW", value=inflow))
    net = VascularNetwork(
        fluid=fluid,
        vessels=vessels,
        junctions=junctions,
        boundary_conditions=bcs,
        bifurcation_definition=bifurcation_definition,
    )
    return apply_bifurcation_definition(net)


# -- JSON schema ----------------------------------------------------------


def _coeffs_to_json(c) -> dict:
    return {"kind": c.kind, "r_lin": c.r_lin, "r_quad": c.r_quad, "l": c.l}


def network_to_dict(network: VascularNetwork) -> dict:
    out: dict[str, Any] = {
        "fluid": {"mu": network.fluid.mu, "rho": network.fluid.rho},
        "bifurcation_definition": network.bifurcation_definition,
        "vessels": [],
        "junctions": [],
        "boundary_conditions": [],
    }
    for v in network.vessels.values():
        entry: dict[str, Any] = {"id": v.id, "length": v.length, "area": v.area}
        if v.stenosis_area is not None:
            entry["stenosis_area"] = v.stenosis_area
        if v.kt is not None:
            entry["kt"] = v.kt
        if v.capacitance != DEFAULT_CAPACITANCE:
            entry["capacitance"] = v.capacitance
        out["vessels"].append(entry)
    for j in network.junctions:
        entry = {
            "id": j.id,
            "inlet_vessel": j.inlet_vessel,
            "outlet_vessels": [o.vessel_id for o in j.outlets],
            "angles": [o.angle for o in j.outlets],
        }
        if all(o.flow_split is not None for o in j.outlets):
            entry["flow_splits"] = [o.flow_split for o in j.outlets]
        if all(o.coefficients is not None for o in j.outlets):
            entry["coefficients"] = [_coeffs_to_json(o.coefficients) for o in j.outlets]
        out["junctions"].append(entry)
    for bc in network.boundary_conditions:
        if bc.kind == "FLOW":
            if isinstance(bc.value, tuple):
                val: Any = {"t": list(bc.value[0]), "q": list(bc.value[1])}
            else:
                val = bc.value
            out["boundary_conditions"].append(
                {"vessel_id": bc.vessel_id, "kind": "FLOW", "value": val}
            )
        else:
            out["boundary_conditions"].append(
                {
                    "vessel_id": bc.vessel_id,
                    "kind": "RESISTANCE",
                    "value": {"R": bc.r, "Pd": bc.pd},
                }
            )
    return out


def save_network(network: VascularNetwork, path) -> None:
    with open(path, "w") as f:
        json.dump(network_to_dict(network), f, indent=1)


def network_from_dict(data: dict) -> VascularNetwork:
    from .nondim import CoefficientSet  # deferred, avoids import cycle

    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object")
    for key in ("vessels", "boundary_conditions"):
        if key not in data:
            raise SchemaError(f"missing top-level key {key!r}")

    fluid_spec = data.get("fluid", {})
    fluid = Fluid(
        mu=float(fluid_spec.get("mu", DEFAULT_MU)),
        rho=float(fluid_spec.get("rho", DEFAULT_RHO)),
    )

    vessels: dict[str, Vessel] = {}
    for v in data["vessels"]:
        try:
            vessel = Vessel(
                id=str(v["id"]),
                length=float(v["length"]),
                area=float(v["area"]),
                stenosis_area=(
                    float(v["stenosis_area"]) if "stenosis_area" in v else None
                ),
                kt=float(v["kt"]) if "kt" in v else None,
                capacitance=float(v.get("capacitance", DEFAULT_CAPACITANCE)),
            )
        except KeyError as e:
            raise SchemaError(f"vessel entry missing key {e}") from e
        if vessel.id in vessels:
            raise SchemaError(f"duplicate vessel id {vessel.id!r}")
        vessels[vessel.id] = vessel

    junctions: list[Junction] = []
    for j in data.get("junctions", []):
        try:
            outlet_ids = j["outlet_vessels"]
            angles = j["angles"]
        except KeyError as e:
            raise SchemaError(f"junction entry missing key {e}") from e
        if len(outlet_ids) != 2 or len(angles) != 2:
            raise SchemaError(
                f"junction {j.get('id')!r}: need exactly two outlet vessels and angles"
            )
        outlets = [
            JunctionOutlet(vessel_id=str(vid), angle=float(a))
            for vid, a in zip(outlet_ids, angles)
        ]
        if "flow_splits" in j:
            for o, phi in zip(outlets, j["flow_splits"]):
                o.flow_split = float(phi)
        if "coefficients" in j:
            for o, c in zip(outlets, j["coefficients"]):
                o.coefficients = CoefficientSet(
                    kind=c["kind"],
                    r_lin=float(c["r_lin"]),
                    r_quad=None if c.get("r_quad") is None else float(c["r_quad"]),
                    l=float(c["l"]),
                    dimensionless=False,
                )
        junctions.append(
            Junction(id=str(j["id"]), inlet_vessel=str(j["inlet_vessel"]), outlets=outlets)
        )

    bcs: list[BoundaryCondition] = []
    for b in data["boundary_conditions"]:
        try:
            kind = b["kind"]
            vid = str(b["vessel_id"])
        except KeyError as e:
            raise SchemaError(f"boundary condition missing key {e}") from e
        if kind == "FLOW":
            val = b.get("value")
            if isinstance(val, dict):
                bcs.append(
                    BoundaryCondition(
                        vessel_id=vid, kind="FLOW", value=(val["t"], val["q"])
                    )
                )
            else:
                bcs.append(BoundaryCondition(vessel_id=vid, kind="FLOW", value=float(val)))
        elif kind == "RESISTANCE":
            val = b.get("value", {})
            bcs.append(
                BoundaryCondition(
                    vessel_id=vid,
                    kind="RESISTANCE",
                    r=float(val["R"]),
                    pd=float(val.get("Pd", 0.0)),
                )
            )
        else:
            raise SchemaError(f"unknown boundary condition kind {kind!r}")

    net = VascularNetwork(
        fluid=fluid,
        vessels=vessels,
        junctions=junctions,
        boundary_conditions=bcs,
        bifurcation_definition=data.get("bifurcation_definition", "partial_branch"),
    )
    return apply_bifurcation_definition(net)


def load_network(path) -> VascularNetwork:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}: invalid JSON at byte {e.pos}: {e.msg}") from e
    return network_from_dict(data)
