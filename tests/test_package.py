"""Package layout: submodules stay reachable by name, and the segment-return
arithmetic over the prefix sums has one home."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import gas

SOURCES = sorted(Path(gas.__file__).parent.glob("*.py"))


def test_import_gas_evaluate_gives_the_module():
    import gas.evaluate as m

    assert isinstance(m, types.ModuleType)
    assert m.EvalConfig is gas.EvalConfig


def test_no_package_attribute_shadows_a_submodule():
    for info in pkgutil.iter_modules(gas.__path__):
        module = importlib.import_module(f"gas.{info.name}")
        assert getattr(gas, info.name) is module, info.name


def test_prefix_sums_are_indexed_in_dataset_only():
    """Only ``gas.dataset`` turns prefix sums into segment returns
    (``OfflineDataset.segment_returns``), so the [t, gamma] convention
    lives in one module."""
    pattern = re.compile(r"(reward|cost)_prefix\[")
    users = {path.name for path in SOURCES if pattern.search(path.read_text())}
    assert users == {"dataset.py"}
