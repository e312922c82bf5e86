"""The span tracer in perfbench/spans.py wraps program functions by name,
and the traced runs read some state of a built fabric and clearing
house. Every name it lists and every table it reads must still resolve,
so that a rename fails here and not in a benchmark run. The tracer
module is read as text, not imported."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from bandx.market import ClearingHouse
from bandx.money import Money
from bandx.offers import make_offer_credential

from helpers import spot_request, two_isp_world

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _constants() -> dict:
    tree = ast.parse(SPANS.read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("LAYERS", "TRANSPORT_SENDS", "HANDLE")
    }


def _targets() -> list[tuple[str, str]]:
    found = _constants()
    targets = [(module, qual) for module, funcs in found["LAYERS"].items() for qual in funcs]
    targets += [("services", qual) for qual in found["TRANSPORT_SENDS"]]
    module, _, qual = found["HANDLE"].partition(".")
    return targets + [(module, qual)]


def test_every_traced_target_resolves():
    targets = _targets()
    assert ("fabric", "NetworkElement.handle_spot_request") in targets
    missing = []
    for module_name, qual in targets:
        module = importlib.import_module(f"bandx.{module_name}")
        if "." in qual:
            # The tracer patches a method on the class that defines it.
            cls_name, attr = qual.split(".")
            cls = vars(module).get(cls_name)
            if cls is None or attr not in cls.__dict__:
                missing.append(f"{module_name}.{qual}")
        elif not callable(vars(module).get(qual)):
            missing.append(f"{module_name}.{qual}")
    assert missing == []


def test_state_the_traced_runs_read_resolves():
    # spans.py: the deepest calendar of the booking NE, as
    # max(len(c) for c in ne.calendar.values()); the workloads: the
    # challenge tables of every NE in Fabric.nes; len() of the house.
    world = two_isp_world()
    ne = world.fabric.ne("A-Rome")
    offer = make_offer_credential(world.isp_a, "Rome-Paris", 50, Money(300), "20031125")
    start = world.now + 86400
    for i in range(3):
        req = spot_request(world, ne, [offer], 10, world.now)
        ne.book_future(req, (start + i, start + 3600), world.now)
    ne.issue_challenge(world.now)
    assert sorted(world.fabric.nes) == ["A-Milan", "A-Paris", "A-Rome", "B-Dublin", "B-Paris"]
    for each in world.fabric.nes.values():
        assert set(each.calendar) == set(each.links)
    assert {n: len(c) for n, c in ne.calendar.items()} == {"A-Milan": 0, "A-Paris": 3}
    assert max((len(c) for c in ne.calendar.values()), default=0) == 3
    assert len(ne.challenges) == 1 and len(ne.used_challenges) == 3
    house = ClearingHouse()
    house.post_offer(offer, "20031119")
    assert len(house) == 1
