"""The exact cross-product suites again, on the sorted-run path.

Every key space the suites in ``test_cross.py`` and
``test_cross_properties.py`` build fits the dense arrays, so at the
default cap they test the dense count and id table.  Here the
``sorted_cross_keys`` fixture caps the dense key space at 0, and the
same classes run on the ``np.unique`` runs and the ``searchsorted``
lookup.

The classes come from a second copy of each module, executed here, so
their hypothesis tests are wrapped anew: hypothesis refuses to run one
wrapped test method from two class instances.
"""

import importlib.util
from pathlib import Path

import pytest

pytestmark = pytest.mark.usefixtures("sorted_cross_keys")


def _copy(name: str):
    path = Path(__file__).with_name(f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"{__name__}.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_cross, _properties = _copy("test_cross"), _copy("test_cross_properties")

TestCrossProductTransform = _cross.TestCrossProductTransform
TestAssumeValidFastPath = _cross.TestAssumeValidFastPath
TestCrossSketchRange = _cross.TestCrossSketchRange
TestCrossProductProperties = _properties.TestCrossProductProperties
TestCrossIdsAgainstFormula = _properties.TestCrossIdsAgainstFormula
TestValidationRegressions = _properties.TestValidationRegressions
