"""The benchmark's tracer (perfbench/tracing.py) reaches ddlab only through
module attributes, and tells the chi integrand from the phase integrand by
its __qualname__.  These checks keep both in place without importing the
benchmark as a package."""

import importlib
import importlib.util
import pathlib
import sys
import threading

import pytest

import ddlab.filters
import ddlab.montecarlo
from ddlab import ClassicalBath, OhmicBath, chi, mc_signal, phase, signal, udd
from ddlab.quadrature import integrate_adaptive

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # load by path, writing no bytecode cache next to the benchmark's files
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_seam_resolves_to_a_callable(tracing):
    assert tracing.SEAMS
    for module_name, attr, _, _ in tracing.SEAMS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("evaluate,is_chi", [(chi, True), (phase, False)], ids=["chi", "phase"])
def test_integrand_qualname_tells_chi_from_phase(monkeypatch, evaluate, is_chi):
    qualnames = []

    def spy(f, *args, **kwargs):
        qualnames.append(f.__qualname__)
        return integrate_adaptive(f, *args, **kwargs)

    monkeypatch.setattr("ddlab.decoherence.integrate_adaptive", spy)
    evaluate(udd(2), OhmicBath(alpha=0.25), 1.0)
    assert len(qualnames) == 1
    assert ("_chi_raw" in qualnames[0]) == is_chi


@pytest.mark.parametrize("evaluate", [chi, signal, phase], ids=["chi", "signal", "phase"])
def test_filter_seam_sees_every_round_in_full(monkeypatch, evaluate):
    # the tracer counts filters.y.nodes at ddlab.filters.y_factor_array; the
    # panel kernel must be reached through it, with the round's whole node
    # array, and a round large enough for it must take the panel kernel;
    # the phase filter reads y, so its rounds pass the same seam
    rounds, seen, panel_calls = [], [], []

    def spy_integrate(f, *args, **kwargs):
        def counted(w):
            rounds.append(w.size)
            return f(w)
        return integrate_adaptive(counted, *args, **kwargs)

    y_factor_array = ddlab.filters.y_factor_array
    panel_sums = ddlab.filters._panel_sums

    def spy_y(seq, z, grid=None):
        before = len(panel_calls)
        out = y_factor_array(seq, z, grid)
        seen.append((z.size, len(panel_calls) > before))
        return out

    def spy_panel(centres, *args):
        panel_calls.append(centres.size)
        return panel_sums(centres, *args)

    monkeypatch.setattr("ddlab.decoherence.integrate_adaptive", spy_integrate)
    monkeypatch.setattr("ddlab.filters.y_factor_array", spy_y)
    monkeypatch.setattr("ddlab.filters._panel_sums", spy_panel)
    evaluate(udd(100), OhmicBath(alpha=0.25), 100.0)
    assert rounds and [size for size, _ in seen] == rounds
    assert seen[0][1]


def test_draw_seam_sees_every_trajectory(monkeypatch):
    # the tracer's montecarlo.draw spans sit at
    # ddlab.montecarlo._draw_amplitudes: every block of trajectories must
    # reach it through the module attribute, once, with all of its rows,
    # from whichever of the three drawing threads runs it
    monkeypatch.setattr("ddlab.montecarlo._workers", lambda: 3)
    bath = ClassicalBath(power_spectrum=lambda w: 0.2 + 0.0 * w, omega_max=4.0)
    calls = []
    draw = ddlab.montecarlo._draw_amplitudes

    def spy(gen, out):
        # the Thread object, not its ident: CPython may hand a finished
        # thread's ident to the next one, and calls keeps each object alive
        calls.append((threading.current_thread(), len(out)))
        return draw(gen, out)

    monkeypatch.setattr("ddlab.montecarlo._draw_amplitudes", spy)
    mc_signal(bath, udd(2), 1.0, 137, 5, 0.05, 32)
    assert len({thread for thread, _ in calls}) == 3
    assert sorted(rows for _, rows in calls) == [9, 64, 64]
