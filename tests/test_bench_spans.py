"""The frame-budget benchmark's traced pass finds what it patches.

``benchmarks/e2e/spans.py`` times the serving code from outside: it swaps
a wrapper onto each of its :data:`PATCHES` targets, read from the owner's
``__dict__`` (a method inherited but not bound on the class, or a name a
module no longer imports, is a ``KeyError`` there).  A renamed target
would otherwise first show in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"


def _patches():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_every_patch_target_is_in_its_owners_dict():
    patches = _patches()
    assert patches
    missing = []
    for module_name, owner_name, attr, *_ in patches:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = vars(owner).get(owner_name)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}:{owner_name or ''}.{attr}")
    assert not missing, missing
