"""Circuit description: nodes and elements.

A :class:`Circuit` is a flat netlist.  Node names are strings; the ground
node is :data:`GROUND` (``"gnd"``) and is excluded from the unknown vector.
Convenience ``add_*`` methods construct and register elements in one call
and return them, so netlist-builder code reads like a SPICE deck:

    ckt = Circuit()
    ckt.add_vsource("vdd", GROUND, DC(0.9), name="VDD")
    ckt.add_mosfet(model, d="out", g="in", s=GROUND, name="MN1")
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.circuit import elements as _el
from repro.circuit.plans import process_plan_cache
from repro.circuit.waveforms import Waveform, DC

#: Name of the ground (reference) node.
GROUND = "gnd"


class Circuit:
    """A netlist: named nodes plus a list of elements."""

    def __init__(self, title: str = ""):
        self.title = title
        self._node_index: Dict[str, int] = {}
        self.elements: List[_el.Element] = []
        self._names: Dict[str, _el.Element] = {}

    # ------------------------------------------------------------------
    # Node management.
    # ------------------------------------------------------------------
    def node(self, name: str) -> int:
        """Index of node *name*, creating it on first use (-1 for ground)."""
        if name == GROUND:
            return -1
        if name not in self._node_index:
            self._node_index[name] = len(self._node_index)
        return self._node_index[name]

    @property
    def node_names(self) -> List[str]:
        """Non-ground node names in index order."""
        return sorted(self._node_index, key=self._node_index.get)

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._node_index)

    def index_of(self, name: str) -> int:
        """Index of an *existing* node (raises ``KeyError`` if unknown)."""
        if name == GROUND:
            return -1
        return self._node_index[name]

    # ------------------------------------------------------------------
    # Element registration.
    # ------------------------------------------------------------------
    def add(self, element: "_el.Element") -> "_el.Element":
        """Register an already-constructed element."""
        if element.name:
            if element.name in self._names:
                raise ValueError(f"duplicate element name {element.name!r}")
            self._names[element.name] = element
        self.elements.append(element)
        return element

    def __getitem__(self, name: str) -> "_el.Element":
        return self._names[name]

    def add_resistor(self, n1: str, n2: str, resistance, name: str = "") -> "_el.Resistor":
        """Add a resistor between *n1* and *n2* [ohm]."""
        return self.add(_el.Resistor(self.node(n1), self.node(n2), resistance, name))

    def add_capacitor(self, n1: str, n2: str, capacitance, name: str = "") -> "_el.Capacitor":
        """Add a capacitor between *n1* and *n2* [F]."""
        return self.add(_el.Capacitor(self.node(n1), self.node(n2), capacitance, name))

    def add_vsource(
        self, pos: str, neg: str, waveform, name: str = ""
    ) -> "_el.VoltageSource":
        """Add a voltage source; *waveform* may be a Waveform or a number."""
        if not isinstance(waveform, Waveform):
            waveform = DC(waveform)
        return self.add(
            _el.VoltageSource(self.node(pos), self.node(neg), waveform, name)
        )

    def add_isource(
        self, pos: str, neg: str, waveform, name: str = ""
    ) -> "_el.CurrentSource":
        """Add a current source flowing from *pos* through to *neg*."""
        if not isinstance(waveform, Waveform):
            waveform = DC(waveform)
        return self.add(
            _el.CurrentSource(self.node(pos), self.node(neg), waveform, name)
        )

    def add_mosfet(self, model, d: str, g: str, s: str, name: str = "") -> "_el.MOSFET":
        """Add a MOSFET evaluated by *model* (a :class:`DeviceModel`)."""
        return self.add(_el.MOSFET(self.node(d), self.node(g), self.node(s), model, name))

    # ------------------------------------------------------------------
    # System size helpers.
    # ------------------------------------------------------------------
    def assign_branches(self) -> int:
        """Assign branch-current indices to voltage sources.

        Returns the total unknown count ``n_nodes + n_branches``.  Called
        by the solvers before assembly; idempotent.
        """
        nb = self.n_nodes
        for element in self.elements:
            if isinstance(element, _el.VoltageSource):
                element.branch_index = nb
                nb += 1
        return nb

    @property
    def batch_shape(self) -> tuple:
        """Broadcast batch shape across all element parameters."""
        shape = ()
        for element in self.elements:
            shape = np.broadcast_shapes(shape, element.batch_shape())
        return shape

    def _param_fingerprint(self) -> list:
        """Snapshot of the parameter objects a compile bakes in.

        The object list holds the parameter objects themselves (keeping
        them alive, so identity comparison is reliable); rebinding a
        parameter attribute (``ckt['R1'].resistance = 2e3``, replacing a
        MOSFET's model or its frozen card) changes an identity and
        forces a recompile.  Waveform *values* are exempt — they are
        re-read every time point — but the per-element batch shapes are
        snapshotted alongside, so a waveform (or any parameter) whose
        batch shape changes between solves also recompiles.  In-place
        mutation of a parameter array's contents at unchanged shape is
        not detected — device cards are frozen dataclasses, so that only
        concerns raw ndarray values.
        """
        parts = []
        for e in self.elements:
            parts.append(e)
            for attr in ("resistance", "capacitance", "model"):
                value = getattr(e, attr, None)
                if value is not None:
                    parts.append(value)
                    params = getattr(value, "params", None)
                    if params is not None:
                        parts.append(params)
        shapes = tuple(e.batch_shape() for e in self.elements)
        return parts, shapes

    def compiled(self):
        """Vectorized assembly plan (None for unsupported netlists, which
        the solvers then assemble per element).

        Plans live in the process-wide
        :class:`~repro.circuit.plans.PlanCache`.  Compilation snapshots
        element parameters; registering a new element or rebinding an
        element's parameters recompiles.  Waveform levels/delays may
        change freely between solves — they are re-read at every time
        point.
        """
        return process_plan_cache().plan_for(self)

    def vsources(self) -> List["_el.VoltageSource"]:
        """All voltage sources in netlist order."""
        return [e for e in self.elements if isinstance(e, _el.VoltageSource)]

    def mosfets(self) -> List["_el.MOSFET"]:
        """All MOSFETs in netlist order."""
        return [e for e in self.elements if isinstance(e, _el.MOSFET)]
