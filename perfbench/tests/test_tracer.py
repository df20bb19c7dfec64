import types

import pytest

import tracer as tracing


def span(sid, parent, layer, start, end, error=False):
    return (sid, parent, layer, f"{layer}.f", start, end, "c0", error)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(2, 1, "hermite", 2.0, 3.0, error=True),    # nested in its own layer
        span(1, 0, "hermite", 1.0, 4.0, error=True),
        span(4, 3, "hermite", 6.0, 8.0, error=True),
        span(3, 0, "quadrature", 5.0, 9.0),
        span(0, None, "cli", 0.0, 10.0),
    ]
    calls, self_s, errors = tracing.layer_times(spans)
    assert self_s["cli"] == pytest.approx(3.0)
    assert self_s["hermite"] == pytest.approx(2.0 + 1.0 + 2.0)
    assert self_s["quadrature"] == pytest.approx(2.0)
    assert sum(self_s.values()) == pytest.approx(10.0)
    assert calls == {"cli": 1, "hermite": 3, "quadrature": 1}
    # span 2's error is still inside hermite; 1 and 4 leave the layer.
    assert errors["hermite"] == 2 and errors["quadrature"] == 0


def fake_modules():
    tri = types.ModuleType("fake.tridiagonal")
    exec("def tridiagonal_eigenvalues(diag, sub):\n    return sorted(diag)\n", tri.__dict__)
    mc = types.ModuleType("fake.montecarlo")
    mc.tridiagonal_eigenvalues = tri.tridiagonal_eigenvalues
    exec("def draw(n):\n    if n < 0:\n        raise ValueError(n)\n"
         "    return tridiagonal_eigenvalues([3.0] * n, [0.0] * (n - 1))\n"
         "def _private(n):\n    return n\n", mc.__dict__)
    return {"tridiagonal": tri, "montecarlo": mc}


def test_install_wraps_rebound_names_and_reports_absent_ones():
    modules = fake_modules()
    original = modules["montecarlo"].draw
    t = tracing.Tracer(modules)
    t.install()
    try:
        assert modules["montecarlo"].tridiagonal_eigenvalues is modules["tridiagonal"].tridiagonal_eigenvalues
        assert modules["montecarlo"]._private.__name__ == "_private"
        modules["montecarlo"].draw(4)
        with pytest.raises(ValueError):
            modules["montecarlo"].draw(-1)
    finally:
        t.uninstall()
    assert modules["montecarlo"].draw is original
    spans, counters, _ = t.take()
    layers = {s[3]: s[2] for s in spans}
    assert layers == {"tridiagonal.tridiagonal_eigenvalues": "tridiagonal",
                      "montecarlo.draw": "montecarlo"}
    assert counters["tridiagonal.order_sum"] == 4
    calls, _, errors = tracing.layer_times(spans)
    assert calls["montecarlo"] == 2 and errors["montecarlo"] == 1
    assert "montecarlo.sample_spectra" in t.absent
    metrics = tracing.layer_metrics(spans, counters, 0, 0)
    assert metrics["montecarlo.spectra"] == 0 and metrics["hermite.calls"] == 0


def test_rollback_drops_one_command():
    modules = fake_modules()
    t = tracing.Tracer(modules)
    t.install()
    try:
        modules["montecarlo"].draw(2)
        mark = t.mark()
        modules["montecarlo"].draw(5)
        t.rollback(mark)
    finally:
        t.uninstall()
    spans, counters, _ = t.take()
    assert len(spans) == 2 and counters["tridiagonal.order_sum"] == 2


def test_real_package_layers():
    from guespec import cli, hermite
    t = tracing.Tracer()
    t.install()
    try:
        assert cli.main(["moments", "--n", "4", "--max", "2"]) == 0
    finally:
        t.uninstall()
    assert hermite.density.__module__ == "guespec.hermite"
    assert not hasattr(hermite.density, "__wrapped__")
    spans, counters, _ = t.take()
    calls, _, _ = tracing.layer_times(spans)
    for layer in ("cli", "gegenbauer", "operators", "quadrature", "tridiagonal", "hermite"):
        assert calls[layer] > 0, layer
    assert counters["quadrature.rule_nodes"] > 0
    assert t.absent == []
