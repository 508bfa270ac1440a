"""A solve reaches every layer the benchmark's tracer times.

``perfbench/tracing.py`` rebinds package functions by name and reports
each one's calls and self time, so each name must resolve to a
callable.  A layer that no solve reaches reads 0, so a change that
routes a solve around one would zero its metric without a failure.
One arbitrary and two limited-liability solves of example 3 must
between them call every traced layer except ``check_assumption1`` and
``build_grid``, which no solve calls.  At the default epsilon the
utility optimum covers both outside options, so the limited-liability
solve closes at round 0 with no master LP; at ``--epsilon 0.01`` it
runs the feasibility phase and the master.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import bidcoord.cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
EXAMPLE3 = str(ROOT / "instances" / "example3.json")
NOT_ON_A_SOLVE = {"check_assumption1", "build_grid"}


def _traced_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, function) for module, function, *_ in tracing.LAYERS]


def test_solves_reach_every_traced_layer(monkeypatch, capsys):
    layers = _traced_layers(monkeypatch)
    modules = [m for n, m in list(sys.modules.items()) if n.partition(".")[0] == "bidcoord"]
    calls = Counter()
    for module_name, function in layers:
        original = getattr(sys.modules[module_name], function)
        assert callable(original), (module_name, function)

        def counting(*args, _layer=(module_name, function), _original=original, **kwargs):
            calls[_layer] += 1
            return _original(*args, **kwargs)

        # rebound under every module's name for it, as the tracer does
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counting)

    reached = {}
    for probe in (
        ["--mode", "arbitrary"],
        ["--mode", "limited-liability"],
        ["--mode", "limited-liability", "--epsilon", "0.01"],
    ):
        calls.clear()
        assert bidcoord.cli.main(["solve", EXAMPLE3, *probe]) == 0
        reached[" ".join(probe)] = set(calls)
    capsys.readouterr()
    assert set().union(*reached.values()) == {
        layer for layer in layers if layer[1] not in NOT_ON_A_SOLVE
    }, reached
