"""The names perfbench imports or wraps exist: the backend constant its
report reads, and every (module, attribute) in ``TARGETS`` of
``perfbench/tracing.py``, read from that file."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_backend_constant():
    from dessinjulia import _backend
    assert _backend.USE_NUMBA is False


def test_traced_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    for name, (module, attr) in tracing.TARGETS.items():
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
