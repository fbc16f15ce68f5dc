"""Directed-tree vascular circuit model.

All quantities are CGS: lengths in cm, areas in cm^2, flow in cm^3/s,
pressure in Ba (1 mmHg = 1333.22 Ba), resistance in Ba*s/cm^3.

The tree structure (which vessels exist and how junctions connect them) is
fixed once ``VascularNetwork.validate()`` has run: validation builds one
``Topology`` of read-only index and element arrays that every consumer
reads.  Junction attributes (flow splits, coefficients) may still be
written, and boundary conditions are read live from
``boundary_conditions``, so they may be swapped after construction.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

from .formats import (_FieldError, _get, _number, _numbers, _strings, _typed, read_json,
                      write_json)

DEFAULT_MU = 0.04  # g/(cm s), standard blood viscosity
DEFAULT_RHO = 1.06  # g/cm^3
DEFAULT_KT = 1.52  # stenosis loss coefficient when none is given
DEFAULT_CAPACITANCE = 1e-8  # cm^3/Ba, numerical-stability value
NO_BRANCH_FRACTION = 0.1  # attributed fraction of branch length for "no_branch"
TREE_OUTLET_ANGLE = 0.6  # rad, every outlet of generate_symmetric_tree

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


def circle_radius(area: float) -> float:
    """Radius of a circular section of the given area, sqrt(A/pi).  A
    junction's characteristic length l_c is the radius of its inlet."""
    return math.sqrt(area / math.pi)


def stenosis_resistance(area: float, stenosis_area: float, kt: float, rho: float) -> float:
    """Empirical expansion-loss resistance, proportional to Q|Q|."""
    if not (0 < stenosis_area <= area):
        raise InvalidGeometryError(
            f"need 0 < A_stenosis <= A, got A={area}, A_stenosis={stenosis_area}"
        )
    return (kt * rho / (2.0 * area**2)) * (area / stenosis_area - 1.0) ** 2


@dataclass(frozen=True)
class Vessel:
    id: str
    length: float
    area: float
    stenosis_area: Optional[float] = None
    kt: Optional[float] = None
    capacitance: float = DEFAULT_CAPACITANCE

    def __post_init__(self):
        if not (math.isfinite(self.capacitance)
                and (self.stenosis_area is None or math.isfinite(self.stenosis_area))
                and (self.kt is None or math.isfinite(self.kt))):
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

    @property
    def radius(self) -> float:
        return circle_radius(self.area)

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


@dataclass(frozen=True, eq=False)
class Topology:
    """Structure of a validated tree, built once by ``validate()``.  Junction
    arrays follow ``network.junctions``; vessel arrays follow ``vessel_ids``,
    the order of vessels in a state.  The arrays are read-only."""

    vessel_ids: tuple[str, ...]  # sorted
    position: dict[str, int]  # vessel id -> index in vessel_ids
    inlet: np.ndarray  # per junction: the position of its inlet vessel
    outlets: np.ndarray  # per junction: the positions of its two outlets, (junctions, 2)
    depth: np.ndarray  # per junction: the number of junctions upstream
    # per vessel: Poiseuille R and L, stenosis R (0 without one), capacitance
    elements: np.ndarray  # (vessels, 4)

    def levels(self) -> list[np.ndarray]:
        """The junctions at each depth, as indices into ``inlet``, root first."""
        return [np.flatnonzero(self.depth == d) for d in range(self.depth.max(initial=-1) + 1)]


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

    # -- validation -------------------------------------------------------

    def validate(self):
        if self.bifurcation_definition not in BIFURCATION_DEFINITIONS:
            raise SchemaError(
                f"unknown bifurcation definition {self.bifurcation_definition!r}"
            )
        for key, v in self.vessels.items():
            if key != v.id:
                raise SchemaError(f"vessel {v.id!r} is stored under the key {key!r}")
        jids = [j.id for j in self.junctions]
        if len(set(jids)) != len(jids):
            raise SchemaError("duplicate junction ids")
        rows = {}  # vessel id -> its row of Topology.elements
        for v in self.vessels.values():
            try:
                r_l = v.elements(self.fluid)
            except (ZeroDivisionError, OverflowError):  # A**2 under- or overflows
                r_l = (math.nan,)
            if not all(map(math.isfinite, r_l)):
                raise InvalidGeometryError(
                    f"vessel {v.id}: Poiseuille resistance and inductance must be "
                    f"finite, got l={v.length}, A={v.area}"
                )
            try:
                rs = v.stenosis_r(self.fluid)
            except OverflowError:  # (A/A_s - 1)**2 overflows
                rs = math.nan
            if not math.isfinite(rs):
                raise InvalidGeometryError(f"vessel {v.id}: stenosis resistance must be finite, "
                                           f"got A={v.area}, A_stenosis={v.stenosis_area}")
            rows[v.id] = (*r_l, rs, v.capacitance)

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
        order = tuple(sorted(self.vessels))
        position = {vid: i for i, vid in enumerate(order)}
        inlet = np.array([position[j.inlet_vessel] for j in self.junctions], dtype=int)
        outlets = np.array([position[o.vessel_id] for j in self.junctions for o in j.outlets],
                           dtype=int).reshape(-1, 2)
        fed = np.full(len(order), -1)  # the junction each vessel feeds, -1 at a leaf
        fed[inlet] = np.arange(inlet.size)
        depth = np.full(inlet.size, -1)
        level, d = fed[[position[root]]], 0
        while level.size:  # one depth level at a time, from the root down
            level = level[level >= 0]
            depth[level] = d
            level, d = fed[outlets[level].ravel()], d + 1
        missing = sorted(set(order) - {root} - {order[v] for v in outlets[depth >= 0].flat})
        if missing:
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

        elements = np.array([rows[vid] for vid in order], dtype=float)
        # every pressure drop at the peak inflow is at most q*r + q^2*r_quad:
        # where that overflows, or q^2 underflows, no engine solves in floats
        inflow = flow_bcs[0].value
        q = float(np.max(np.abs(inflow[1] if isinstance(inflow, tuple) else inflow)))
        coeffs = [o.coefficients for j in self.junctions for o in j.outlets
                  if o.coefficients is not None]
        r = max([float(elements[:, 0].max()), *(abs(c.r_lin) for c in coeffs),
                 *(b.r for b in self.boundary_conditions if b.kind == "RESISTANCE")])
        r_quad = max([float(elements[:, 2].max()), *(abs(c.quad()) for c in coeffs)])
        if not math.isfinite(q * r + q * q * r_quad):
            raise InvalidGeometryError(
                f"pressures overflow: peak inflow {q:.6g}, largest resistance {r:.6g} and "
                f"quadratic resistance {r_quad:.6g} (of a vessel, leaf or junction outlet)")
        if 0 < q and q * q < np.finfo(float).tiny:
            raise InvalidGeometryError(f"peak inflow {q:.6g}: its square underflows")
        for a in (inlet, outlets, depth, elements):
            a.setflags(write=False)
        self.topology = Topology(order, position, inlet, outlets, depth, elements)


def apply_bifurcation_definition(network: VascularNetwork) -> VascularNetwork:
    """Partition each junction outlet branch into attributed + residual length.

    no_branch attributes the small fraction NO_BRANCH_FRACTION (the mesh-based
    intersection rule is unavailable here), partial_branch attributes 90%,
    full_branch the entire branch.
    """
    frac = {
        "no_branch": NO_BRANCH_FRACTION,
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
    inflow: float = 100.0,
    leaf_resistance: float = 1e5,
    bifurcation_definition: str = "partial_branch",
    capacitance: float = DEFAULT_CAPACITANCE,
) -> VascularNetwork:
    """Full binary tree of blood vessels with Murray-law daughter radii, every
    outlet at the angle TREE_OUTLET_ANGLE, and resistance BC leaves at zero
    distal pressure."""
    if depth < 0:
        raise InvalidGeometryError(f"depth must be >= 0, got {depth}")
    for name, value in (("inlet_radius", inlet_radius), ("length_over_radius", length_over_radius),
                        ("murray_exponent", murray_exponent)):
        if not 0 < value < math.inf:
            raise InvalidGeometryError(f"{name} must be finite and > 0, got {value}")
    vessels: dict[str, Vessel] = {}
    junctions: list[Junction] = []
    bcs: list[BoundaryCondition] = []

    ratio = 2.0 ** (-1.0 / murray_exponent)

    def build(vid: str, radius: float, level: int):
        area = math.pi * radius**2
        if area**2 == 0:  # so the Poiseuille resistance 8*pi*mu*l/A^2 overflows
            raise InvalidGeometryError(
                f"the depth-{level} vessels are too narrow: inlet_radius {inlet_radius} and "
                f"murray_exponent {murray_exponent} give radius {radius}, area {area}")
        vessels[vid] = Vessel(
            id=vid,
            length=length_over_radius * radius,
            area=area,
            capacitance=capacitance,
        )
        if level == depth:
            bcs.append(
                BoundaryCondition(vessel_id=vid, kind="RESISTANCE", r=leaf_resistance)
            )
            return
        child_r = radius * ratio
        left, right = vid + "0", vid + "1"
        junctions.append(
            Junction(
                id="j" + vid,
                inlet_vessel=vid,
                outlets=[
                    JunctionOutlet(vessel_id=left, angle=TREE_OUTLET_ANGLE),
                    JunctionOutlet(vessel_id=right, angle=TREE_OUTLET_ANGLE),
                ],
            )
        )
        build(left, child_r, level + 1)
        build(right, child_r, level + 1)

    build("v", inlet_radius, 0)
    bcs.append(BoundaryCondition(vessel_id="v", kind="FLOW", value=inflow))
    net = VascularNetwork(
        fluid=Fluid(),
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
    write_json(network_to_dict(network), path)


_ENTRY_NAMES = {  # list key: how a message names an entry, and its id field
    "vessels": ("vessel", "id"),
    "junctions": ("junction", "id"),
    "boundary_conditions": ("boundary condition on", "vessel_id"),
}


def _entries(data: dict, key: str) -> list:
    """The list data[key] (empty when a junctions list is absent), each of
    whose entries must be an object."""
    try:
        entries = _typed(data.get(key, []) if key == "junctions" else _get(data, key), key, list)
    except _FieldError as e:
        raise SchemaError(str(e)) from None
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"{key}[{i}] must be an object, got {entry!r}")
    return entries


def _entry_error(key: str, i: int, entry: dict, error: _FieldError) -> SchemaError:
    """A SchemaError for entry i of the list data[key], named by its id where
    it has one, else by its place in the list."""
    noun, id_key = _ENTRY_NAMES[key]
    ident = entry.get(id_key)
    name = f"{noun} {ident}" if isinstance(ident, str) else f"{key}[{i}]"
    return SchemaError(f"{name}: {error}")


def network_from_dict(data: dict) -> VascularNetwork:
    """A network from its JSON form.  The JSON type of every field is checked
    before anything is built: a SchemaError names the entry and the field."""
    from .nondim import CoefficientSet, NondimError  # deferred, avoids import cycle

    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object")
    try:
        fluid_spec = _typed(data.get("fluid", {}), "fluid", dict)
        mu = _number(fluid_spec.get("mu", DEFAULT_MU), "fluid.mu")
        rho = _number(fluid_spec.get("rho", DEFAULT_RHO), "fluid.rho")
    except _FieldError as e:
        raise SchemaError(str(e)) from None
    fluid = Fluid(mu=mu, rho=rho)

    vessels: dict[str, Vessel] = {}
    for i, v in enumerate(_entries(data, "vessels")):
        # an optional field given as null is not given
        stenosis_area, kt, c = v.get("stenosis_area"), v.get("kt"), v.get("capacitance")
        try:
            vessel = Vessel(
                id=_typed(v.get("id"), "id", str),
                length=_number(v.get("length"), "length"),
                area=_number(v.get("area"), "area"),
                stenosis_area=(None if stenosis_area is None
                               else _number(stenosis_area, "stenosis_area")),
                kt=None if kt is None else _number(kt, "kt"),
                capacitance=DEFAULT_CAPACITANCE if c is None else _number(c, "capacitance"),
            )
        except _FieldError as e:
            raise _entry_error("vessels", i, v, e) from None
        if vessel.id in vessels:
            raise SchemaError(f"duplicate vessel id {vessel.id!r}")
        vessels[vessel.id] = vessel

    junctions: list[Junction] = []
    for i, j in enumerate(_entries(data, "junctions")):
        try:
            outlets = [
                JunctionOutlet(vessel_id=vid, angle=float(a)) for vid, a in zip(
                    _strings(j.get("outlet_vessels"), "outlet_vessels", 2),
                    _numbers(j.get("angles"), "angles", 2),
                )
            ]
            if "flow_splits" in j:
                for o, phi in zip(outlets, _numbers(j["flow_splits"], "flow_splits", 2)):
                    o.flow_split = float(phi)
            if "coefficients" in j:
                coeffs = _typed(j["coefficients"], "coefficients", list)
                if len(coeffs) != 2:
                    raise _FieldError(f"coefficients must be a list of 2 objects, got {coeffs!r}")
                for k, (o, c) in enumerate(zip(outlets, coeffs)):
                    try:
                        r_quad = _typed(c, "the entry", dict).get("r_quad")
                        o.coefficients = CoefficientSet(
                            kind=_typed(c.get("kind"), "kind", str),
                            r_lin=_number(c.get("r_lin"), "r_lin"),
                            r_quad=None if r_quad is None else _number(r_quad, "r_quad"),
                            l=_number(c.get("l"), "l"),
                            dimensionless=False,
                        )
                    except (_FieldError, NondimError) as e:
                        raise _FieldError(f"coefficients[{k}]: {e}") from None
            junction = Junction(id=_typed(j.get("id"), "id", str),
                                inlet_vessel=_typed(j.get("inlet_vessel"), "inlet_vessel", str),
                                outlets=outlets)
        except _FieldError as e:
            raise _entry_error("junctions", i, j, e) from None
        junctions.append(junction)

    bcs: list[BoundaryCondition] = []
    for i, b in enumerate(_entries(data, "boundary_conditions")):
        try:
            vid = _typed(b.get("vessel_id"), "vessel_id", str)
            kind, val = b.get("kind"), b.get("value")
            if kind == "FLOW" and isinstance(val, dict):
                series = _numbers(val.get("t"), "value.t"), _numbers(val.get("q"), "value.q")
                bc = BoundaryCondition(vessel_id=vid, kind=kind, value=series)
            elif kind == "FLOW":
                bc = BoundaryCondition(vessel_id=vid, kind=kind, value=_number(val, "value"))
            elif kind == "RESISTANCE":
                val = _typed(val, "value", dict)
                pd = val.get("Pd")
                bc = BoundaryCondition(vessel_id=vid, kind=kind, r=_number(val.get("R"), "value.R"),
                                       pd=0.0 if pd is None else _number(pd, "value.Pd"))
            else:
                raise _FieldError(f"kind must be FLOW or RESISTANCE, got {kind!r}")
        except _FieldError as e:
            raise _entry_error("boundary_conditions", i, b, e) from None
        bcs.append(bc)

    net = VascularNetwork(
        fluid=fluid,
        vessels=vessels,
        junctions=junctions,
        boundary_conditions=bcs,
        bifurcation_definition=data.get("bifurcation_definition", "partial_branch"),
    )
    return apply_bifurcation_definition(net)


def load_network(path) -> VascularNetwork:
    """The network in a JSON file; every error names the file."""
    data = read_json(path, SchemaError)
    try:
        return network_from_dict(data)
    except NetworkError as e:
        raise type(e)(f"{path}: {e}") from e
