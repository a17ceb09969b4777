"""Greedy placement for the simple configurable logic fabric.

The on-chip placement algorithm of the warp processor has to run in very
little memory and time, so it is a constructive placer rather than an
annealer: components are placed one after another in decreasing
connectivity order, each at the free location that minimises the
half-perimeter wirelength (HPWL) of its already-placed neighbours, followed
by a bounded pass of improving pairwise swaps.

Both passes are incremental.  A site's cost, the sum of its Manhattan
distances to the placed neighbours, separates into a row term plus a column
term, so each component computes one cost per row and one per column and
scans the free sites (kept in row-major order, claimed sites removed as
they go) for the first cheapest one, skipping rows that cannot beat the
best so far.  A trial swap only changes the nets from the swapped pair to
other components, so the swap pass compares the lengths of those nets
alone.  Both give exactly the decisions of a placer that re-evaluates every
site and the total wirelength from scratch; ``tests/test_place_reference.py``
keeps that placer as the reference.

The placement operates on a *component netlist* derived from the synthesis
result: each datapath component occupies a contiguous group of CLBs sized
by its LUT count, the control unit is one more component, and the fixed
WCLA resources (the three registers, the MAC and the DADG) occupy dedicated
sites on the fabric's edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..decompile.expr import BinExpr, Condition, Mux, Node, UnExpr, walk
from ..synthesis.datapath import SynthesisResult
from .architecture import AreaReport, FabricParameters, WclaParameters


@dataclass
class PlacedComponent:
    """One placeable component and, after placement, its CLB location."""

    name: str
    luts: int
    clbs: int
    fixed: bool = False
    location: Optional[Tuple[int, int]] = None  # (row, column) of its anchor


@dataclass
class Net:
    """A two-point connection between components."""

    driver: str
    sink: str

    def endpoints(self) -> Tuple[str, str]:
        return self.driver, self.sink


@dataclass
class PlacementResult:
    """Outcome of placing one kernel's netlist."""

    components: Dict[str, PlacedComponent]
    nets: List[Net]
    total_wirelength: int
    area: AreaReport

    def component_location(self, name: str) -> Tuple[int, int]:
        location = self.components[name].location
        if location is None:
            raise ValueError(f"component {name!r} was not placed")
        return location


def build_component_netlist(synthesis: SynthesisResult,
                            fabric: FabricParameters) -> Tuple[List[PlacedComponent], List[Net]]:
    """Derive placeable components and connecting nets from a synthesis result."""
    components: List[PlacedComponent] = []
    nets: List[Net] = []
    by_node: Dict[int, str] = {}

    # Fixed WCLA resources sit on the fabric edge (row -1 conceptually, but we
    # model them as zero-area anchors at fixed columns of row 0).
    for index, name in enumerate(("reg0", "reg1", "reg2", "dadg", "mac")):
        components.append(PlacedComponent(name=name, luts=0, clbs=0, fixed=True,
                                          location=(0, index)))

    for component in synthesis.components:
        if component.luts <= 0 and not component.uses_mac:
            continue
        name = f"n{component.node_id}_{component.kind}"
        clbs = max(1, math.ceil(component.luts / fabric.luts_per_clb))
        if component.uses_mac:
            # MAC-bound operations use the dedicated MAC, not fabric CLBs.
            by_node[component.node_id] = "mac"
            continue
        components.append(PlacedComponent(name=name, luts=component.luts, clbs=clbs))
        by_node[component.node_id] = name

    if synthesis.control is not None and synthesis.control.luts > 0:
        clbs = max(1, math.ceil(synthesis.control.luts / fabric.luts_per_clb))
        components.append(PlacedComponent(name="control", luts=synthesis.control.luts,
                                          clbs=clbs))

    # Nets follow the dataflow edges between bound components; operands that
    # are live-in registers come from reg0-2, loads come from the DADG.
    def component_of(node: Node) -> Optional[str]:
        kind = node.__class__.__name__
        if kind == "LiveIn":
            return "reg0"
        if kind == "Load":
            return "dadg"
        return by_node.get(node.node_id)

    seen_nodes: Set[int] = set()
    for root in synthesis.kernel.body.roots():
        for node in walk(root):
            if node.node_id in seen_nodes:
                continue
            seen_nodes.add(node.node_id)
            sink = by_node.get(node.node_id)
            if sink is None:
                continue
            children: Sequence[Node] = ()
            if isinstance(node, BinExpr):
                children = (node.left, node.right)
            elif isinstance(node, UnExpr):
                children = (node.operand,)
            elif isinstance(node, Mux):
                children = (node.condition, node.if_true, node.if_false)
            elif isinstance(node, Condition):
                children = (node.value,)
            for child in children:
                driver = component_of(child)
                if driver is not None and driver != sink:
                    nets.append(Net(driver=driver, sink=sink))
    # Results leave through the output registers.
    for component in components:
        if not component.fixed and component.name != "control":
            nets.append(Net(driver=component.name, sink="reg1"))
    if any(c.name == "control" for c in components):
        nets.append(Net(driver="control", sink="dadg"))
    return components, nets


def _axis_costs(size: int, positions: List[int]) -> List[int]:
    """``sum(abs(x - p) for p in positions)`` for every ``x`` in
    ``range(size)``: from ``x`` to ``x + 1`` the sum grows by one per
    position at or below ``x`` and shrinks by one per position above."""
    positions = sorted(positions)
    count = len(positions)
    cost = sum(abs(position) for position in positions)
    costs = []
    below = 0
    for x in range(size):
        costs.append(cost)
        while below < count and positions[below] <= x:
            below += 1
        cost += 2 * below - count
    return costs


class GreedyPlacer:
    """Constructive placer with a bounded improvement pass."""

    def __init__(self, fabric: FabricParameters):
        self.fabric = fabric

    # ------------------------------------------------------------------ place
    def place(self, components: Sequence[PlacedComponent],
              nets: Sequence[Net]) -> PlacementResult:
        rows, columns = self.fabric.rows, self.fabric.columns
        by_name = {component.name: component for component in components}
        # Free CLB sites, one ascending column list per row: read row by
        # row they are the row-major order in which sites are scanned and
        # claimed.  Claimed sites are removed, never rebuilt.
        free: List[List[int]] = [[] if row == 0 else list(range(columns))
                                 for row in range(rows)]
        for component in components:
            if component.fixed and component.location is not None:
                row, column = component.location
                if 0 < row < rows and column in free[row]:
                    free[row].remove(column)
        num_free = sum(map(len, free))

        # Per component, the other endpoint of every net touching it (a
        # net from a component to itself has no length).
        linked: Dict[str, List[PlacedComponent]] = {name: [] for name in by_name}
        connectivity: Dict[str, int] = {name: 0 for name in by_name}
        for net in nets:
            driver, sink = net.driver, net.sink
            connectivity[driver] += 1
            connectivity[sink] += 1
            if sink != driver:
                linked[driver].append(by_name[sink])
                linked[sink].append(by_name[driver])

        # Connectivity-ordered constructive placement.
        movable = [c for c in components if not c.fixed]
        movable.sort(key=lambda c: connectivity[c.name], reverse=True)

        for component in movable:
            if not num_free:
                raise FabricCapacityError(
                    f"fabric out of CLB sites while placing {component.name!r}"
                )
            neighbours = [other.location for other in linked[component.name]
                          if other.location is not None]
            # A site's cost, the sum of its distances to the placed
            # neighbours, is a row term plus a column term.
            if neighbours:
                row_cost = _axis_costs(rows, [n[0] for n in neighbours])
                column_cost = _axis_costs(columns, [n[1] for n in neighbours])
            else:
                row_cost = list(range(rows))
                column_cost = list(range(columns))
            # The first cheapest site in row-major order: per row its
            # first cheapest free column, kept only if strictly cheaper
            # than every earlier row's.
            least_column_cost = min(column_cost)
            best_site, best_cost = None, None
            for row in range(1, rows):
                row_term = row_cost[row]
                if not free[row] or best_cost is not None \
                        and row_term + least_column_cost >= best_cost:
                    continue
                column = min(free[row], key=column_cost.__getitem__)
                cost = row_term + column_cost[column]
                if best_cost is None or cost < best_cost:
                    best_site, best_cost = (row, column), cost
            component.location = best_site
            best_row, best_column = best_site
            free[best_row].remove(best_column)
            num_free -= 1
            # Large components occupy additional sites, the first free
            # ones within distance 2 of the anchor in row-major order.
            extra_needed = component.clbs - 1
            for row in range(max(1, best_row - 2), min(rows, best_row + 3)):
                if extra_needed <= 0:
                    break
                reach = 2 - abs(row - best_row)
                claimed = [column for column in free[row]
                           if abs(column - best_column) <= reach][:extra_needed]
                for column in claimed:
                    free[row].remove(column)
                extra_needed -= len(claimed)
                num_free -= len(claimed)

        # Improvement pass: pairwise swaps that reduce total wirelength.
        # Swapping a and b changes only the nets from either to a third
        # component (a net between them keeps its length), so the swap is
        # kept exactly when those nets get shorter in total.
        improved = True
        passes = 0
        while improved and passes < 3:
            improved = False
            passes += 1
            for i, a in enumerate(movable):
                for b in movable[i + 1:]:
                    (a_row, a_column), (b_row, b_column) = a.location, b.location
                    gain = 0
                    for other in linked[a.name]:
                        if other is not b and other.location is not None:
                            row, column = other.location
                            gain += abs(a_row - row) + abs(a_column - column) \
                                - abs(b_row - row) - abs(b_column - column)
                    for other in linked[b.name]:
                        if other is not a and other.location is not None:
                            row, column = other.location
                            gain += abs(b_row - row) + abs(b_column - column) \
                                - abs(a_row - row) - abs(a_column - column)
                    if gain > 0:
                        a.location, b.location = b.location, a.location
                        improved = True

        wirelength = 0
        for net in nets:
            driver = by_name[net.driver].location
            sink = by_name[net.sink].location
            if driver is not None and sink is not None:
                wirelength += abs(driver[0] - sink[0]) + abs(driver[1] - sink[1])
        clbs_used = sum(c.clbs for c in movable)
        area = AreaReport(
            luts_used=sum(c.luts for c in movable),
            clbs_used=clbs_used,
            clbs_available=(rows - 1) * columns,
            mac_used=any(n.driver == "mac" or n.sink == "mac" for n in nets),
            registers_used=3,
        )
        return PlacementResult(
            components=by_name,
            nets=list(nets),
            total_wirelength=wirelength,
            area=area,
        )


class FabricCapacityError(Exception):
    """Raised when a kernel does not fit the configurable logic fabric."""


def place_kernel(synthesis: SynthesisResult,
                 wcla: WclaParameters) -> PlacementResult:
    """Build the component netlist for ``synthesis`` and place it."""
    components, nets = build_component_netlist(synthesis, wcla.fabric)
    return GreedyPlacer(wcla.fabric).place(components, nets)
