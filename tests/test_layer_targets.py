"""Every function the benchmark's per-layer tracer wraps still exists.

``perfbench/layers.py`` names its targets as (module, qualname) strings;
a rename in the package would otherwise only show up as a failing
``perfbench/run.py --trace 1``.  The file is parsed, not imported, so the
test needs nothing from the benchmark's own modules.
"""

import ast
import functools
import importlib
from pathlib import Path

from liouvdyn import models

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets():
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TARGETS" for t in node.targets
        ):
            return [
                (entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts
            ]
    raise AssertionError(f"no TARGETS list in {LAYERS}")


def test_every_traced_target_resolves():
    targets = _targets()
    assert len(targets) > 10
    for module, qualname in targets:
        mod = importlib.import_module(f"liouvdyn.{module}")
        assert callable(functools.reduce(getattr, qualname.split("."), mod)), (
            f"{module}.{qualname}"
        )


def test_factorizations_call_the_traced_generators():
    # the tracer counts generator calls by rebinding these module names; a
    # factorization holding a family's bound method instead would count 0
    ho = models.HOModel(models.HOProtocol(omega0=2.0, chi0=0.1))
    tls = models.TLSModel(models.TLSProtocol(epsilon=1.0, omega0=2.0, chi0=0.1))
    assert ho.factorization().B_of_chi is models.ho_generator
    assert tls.factorization().B_of_chi is models.tls_generator_embedded
