"""The span tracer in perfbench/spans.py wraps program functions by name.
Every name it lists must still resolve, so that renaming a traced entry
point fails here and not in a benchmark run. The tracer module is read
as text, not imported."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

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
