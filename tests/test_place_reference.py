"""Placement equivalence: the incremental placer against the original.

:class:`ReferencePlacer` is the original greedy placer, kept verbatim: it
rebuilds the free-site list for every component, sums the distances to
every placed neighbour at every free site, and recomputes the total
wirelength for every trial swap.  The production placer
(:class:`repro.fabric.GreedyPlacer`) must make exactly the same decisions
for less work, so every test here asserts identical component locations,
total wirelength and area report, or the same
:class:`~repro.fabric.FabricCapacityError` message.

Inputs: the kernels the CAD flow places for the paper's six benchmarks
(under the paper and the minimal configuration), for one fresh-program
epoch, and seeded random component netlists (multi-CLB components,
components with no placed neighbour, fixed sites inside the grid,
duplicate nets, small fabrics that run out of sites).
"""

from __future__ import annotations

import copy
import dataclasses
import random
from typing import Dict, List, Sequence, Set, Tuple

import pytest

import repro.cad.stages as cad_stages
from repro.cad import CadArtifactCache
from repro.fabric import (
    DEFAULT_WCLA,
    FabricCapacityError,
    FabricParameters,
    GreedyPlacer,
    Net,
    PlacedComponent,
    PlacementResult,
    build_component_netlist,
)
from repro.fabric.architecture import AreaReport
from repro.microblaze import MINIMAL_CONFIG, PAPER_CONFIG
from repro.service import WarpJob, execute_job


class ReferencePlacer:
    """The original constructive placer with a bounded improvement pass."""

    def __init__(self, fabric: FabricParameters):
        self.fabric = fabric

    # ---------------------------------------------------------------- helpers
    def _free_sites(self, occupied: Set[Tuple[int, int]]) -> List[Tuple[int, int]]:
        sites = []
        for row in range(1, self.fabric.rows):
            for column in range(self.fabric.columns):
                if (row, column) not in occupied:
                    sites.append((row, column))
        return sites

    @staticmethod
    def _distance(a: Tuple[int, int], b: Tuple[int, int]) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def _wirelength(self, components: Dict[str, PlacedComponent],
                    nets: Sequence[Net]) -> int:
        total = 0
        for net in nets:
            driver = components[net.driver].location
            sink = components[net.sink].location
            if driver is not None and sink is not None:
                total += self._distance(driver, sink)
        return total

    # ------------------------------------------------------------------ place
    def place(self, components: Sequence[PlacedComponent],
              nets: Sequence[Net]) -> PlacementResult:
        by_name = {component.name: component for component in components}
        occupied: Set[Tuple[int, int]] = set()
        for component in components:
            if component.fixed and component.location is not None:
                occupied.add(component.location)

        # Connectivity-ordered constructive placement.
        connectivity: Dict[str, int] = {name: 0 for name in by_name}
        for net in nets:
            connectivity[net.driver] = connectivity.get(net.driver, 0) + 1
            connectivity[net.sink] = connectivity.get(net.sink, 0) + 1
        movable = [c for c in components if not c.fixed]
        movable.sort(key=lambda c: connectivity.get(c.name, 0), reverse=True)

        for component in movable:
            best_site, best_cost = None, None
            free = self._free_sites(occupied)
            if not free:
                raise FabricCapacityError(
                    f"fabric out of CLB sites while placing {component.name!r}"
                )
            neighbours = [
                by_name[other].location
                for net in nets
                for other in net.endpoints()
                if other != component.name
                and component.name in net.endpoints()
                and by_name[other].location is not None
            ]
            for site in free:
                if neighbours:
                    cost = sum(self._distance(site, n) for n in neighbours)
                else:
                    cost = site[0] + site[1]
                if best_cost is None or cost < best_cost:
                    best_site, best_cost = site, cost
            component.location = best_site
            occupied.add(best_site)
            # Large components occupy additional adjacent sites.
            extra_needed = component.clbs - 1
            for site in self._free_sites(occupied):
                if extra_needed <= 0:
                    break
                if self._distance(site, best_site) <= 2:
                    occupied.add(site)
                    extra_needed -= 1

        # Improvement pass: pairwise swaps that reduce total wirelength.
        improved = True
        passes = 0
        while improved and passes < 3:
            improved = False
            passes += 1
            for i in range(len(movable)):
                for j in range(i + 1, len(movable)):
                    a, b = movable[i], movable[j]
                    before = self._wirelength(by_name, nets)
                    a.location, b.location = b.location, a.location
                    after = self._wirelength(by_name, nets)
                    if after >= before:
                        a.location, b.location = b.location, a.location
                    else:
                        improved = True

        clbs_used = sum(c.clbs for c in movable)
        area = AreaReport(
            luts_used=sum(c.luts for c in movable),
            clbs_used=clbs_used,
            clbs_available=(self.fabric.rows - 1) * self.fabric.columns,
            mac_used=any(n.driver == "mac" or n.sink == "mac" for n in nets),
            registers_used=3,
        )
        return PlacementResult(
            components=by_name,
            nets=list(nets),
            total_wirelength=self._wirelength(by_name, nets),
            area=area,
        )


# --------------------------------------------------------------------------- helpers
def _outcome(placer_class, fabric: FabricParameters,
             components: Sequence[PlacedComponent], nets: Sequence[Net]):
    """What a placer decides on private copies of the netlist: the
    locations, wirelength and area, or the capacity error's message."""
    components = copy.deepcopy(list(components))
    nets = copy.deepcopy(list(nets))
    try:
        result = placer_class(fabric).place(components, nets)
    except FabricCapacityError as error:
        return "capacity", str(error)
    locations = {name: component.location
                 for name, component in result.components.items()}
    return locations, result.total_wirelength, result.area


def _assert_same_decisions(fabric, components, nets):
    expected = _outcome(ReferencePlacer, fabric, components, nets)
    assert _outcome(GreedyPlacer, fabric, components, nets) == expected
    return expected


def _placed_kernels(jobs) -> List[tuple]:
    """``(synthesis, wcla)`` of every placement the CAD flow runs for
    ``jobs``, captured at the flow's placement stage."""
    captured = []
    original = cad_stages.place_kernel

    def spy(synthesis, wcla):
        captured.append((synthesis, wcla))
        return original(synthesis, wcla)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cad_stages, "place_kernel", spy)
        for job in jobs:
            # A private cache: every kernel reaches the placer.
            assert execute_job(job, CadArtifactCache()).ok, job.name
    return captured


# --------------------------------------------------------------------------- kernels
@pytest.fixture(scope="module")
def fresh_placements(fresh_epochs):
    """The placements of one fresh-program epoch."""
    jobs = [WarpJob(name=f"fresh{index}.{bench.name}", source=bench.source)
            for index, bench in enumerate(fresh_epochs[0])]
    placed = _placed_kernels(jobs)
    assert len(placed) >= len(jobs) // 2
    return placed


class TestFlowKernels:
    @pytest.mark.parametrize("label,config", [("paper", PAPER_CONFIG),
                                              ("minimal", MINIMAL_CONFIG)])
    def test_paper_kernels(self, label, config):
        from repro.apps import benchmark_names

        jobs = [WarpJob(name=f"{name}/{label}", benchmark=name,
                        config=config, config_label=label)
                for name in benchmark_names()]
        placed = _placed_kernels(jobs)
        assert placed, "no paper kernel reached placement"
        for synthesis, wcla in placed:
            components, nets = build_component_netlist(synthesis, wcla.fabric)
            locations, _, _ = _assert_same_decisions(wcla.fabric, components,
                                                     nets)
            assert all(location is not None
                       for location in locations.values())

    def test_fresh_program_epoch(self, fresh_placements):
        for synthesis, wcla in fresh_placements:
            components, nets = build_component_netlist(synthesis, wcla.fabric)
            _assert_same_decisions(wcla.fabric, components, nets)

    def test_small_fabric_runs_out_of_sites(self, fresh_placements):
        synthesis, wcla = max(fresh_placements,
                              key=lambda placed: placed[0].total_luts)
        fabric = dataclasses.replace(wcla.fabric, rows=3, columns=3)
        components, nets = build_component_netlist(synthesis, fabric)
        outcome = _assert_same_decisions(fabric, components, nets)
        assert outcome[0] == "capacity"


# --------------------------------------------------------------------------- random
def _random_netlist(rng: random.Random, fabric: FabricParameters,
                    movable: int) -> Tuple[List[PlacedComponent], List[Net]]:
    components = [PlacedComponent(name=f"fixed{index}", luts=0, clbs=0,
                                  fixed=True, location=(0, index))
                  for index in range(min(5, fabric.columns))]
    # A fixed site inside the grid is not free for movable components.
    if rng.random() < 0.5:
        components.append(PlacedComponent(
            name="pinned", luts=0, clbs=0, fixed=True,
            location=(rng.randrange(1, fabric.rows),
                      rng.randrange(fabric.columns))))
    for index in range(movable):
        clbs = rng.choice((1, 1, 1, 2, 3, 5, 8))
        components.append(PlacedComponent(name=f"c{index}",
                                          luts=rng.randint(1, 2 * clbs),
                                          clbs=clbs))
    names = [component.name for component in components]
    # Some movable components have no nets at all, so no placed neighbour.
    connected = [name for name in names if rng.random() < 0.85]
    nets = []
    for _ in range(rng.randint(0, 3 * movable)):
        if len(connected) < 2:
            break
        driver, sink = rng.sample(connected, 2)
        nets.append(Net(driver=driver, sink=sink))
        if rng.random() < 0.1:  # duplicate net
            nets.append(Net(driver=driver, sink=sink))
    if connected and rng.random() < 0.3:  # a net from a component to itself
        name = rng.choice(connected)
        nets.append(Net(driver=name, sink=name))
    rng.shuffle(nets)
    return components, nets


class TestRandomNetlists:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_netlists(self, seed):
        rng = random.Random(seed)
        fabric = FabricParameters(rows=rng.randint(3, 12),
                                  columns=rng.randint(5, 12))
        sites = (fabric.rows - 1) * fabric.columns
        movable = rng.randint(1, max(1, sites // 2))
        components, nets = _random_netlist(rng, fabric, movable)
        _assert_same_decisions(fabric, components, nets)

    def test_default_fabric_large_netlist(self):
        rng = random.Random(1234)
        components, nets = _random_netlist(rng, DEFAULT_WCLA.fabric, 60)
        outcome = _assert_same_decisions(DEFAULT_WCLA.fabric, components,
                                         nets)
        assert outcome[0] != "capacity"

    def test_components_without_placed_neighbours(self):
        # c0 and c1 only connect to each other: the first of them has no
        # placed neighbour and goes to the cheapest site by row + column.
        fabric = FabricParameters(rows=6, columns=6)
        components = [PlacedComponent(name="reg0", luts=0, clbs=0, fixed=True,
                                      location=(0, 0)),
                      PlacedComponent(name="c0", luts=3, clbs=2),
                      PlacedComponent(name="c1", luts=1, clbs=1),
                      PlacedComponent(name="c2", luts=6, clbs=3)]
        nets = [Net("c0", "c1"), Net("c1", "c0"), Net("c2", "reg0")]
        _assert_same_decisions(fabric, components, nets)

    def test_over_capacity_netlist(self):
        fabric = FabricParameters(rows=4, columns=4)
        components = [PlacedComponent(name=f"c{index}", luts=4, clbs=2)
                      for index in range(9)]
        nets = [Net(f"c{index}", f"c{index + 1}") for index in range(8)]
        outcome = _assert_same_decisions(fabric, components, nets)
        assert outcome[0] == "capacity"
        assert "fabric out of CLB sites while placing" in outcome[1]
