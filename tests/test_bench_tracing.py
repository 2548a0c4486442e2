"""The benchmark's tracer still finds every function it wraps by name.

`bench/tracing.py` replaces boxproj functions and methods under the names
callers look them up by; a library name it wraps that moves or is renamed
makes `Tracer.install` fail.  This runs the install and the uninstall on
the package imported from `src/`, without running a workload.
"""

from pathlib import Path

from boxproj.projection import SplineSpaceModel

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_install_wraps_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads  # noqa: F401  (install wraps a method of its Polynomial)

    matrix = SplineSpaceModel.__dict__["matrix"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        originals = {}
        for owner, attr, old in tracer._undo:
            originals.setdefault((owner, attr), old)
        assert originals
        for (owner, attr), old in originals.items():
            assert owner.__dict__[attr] is not old, (owner, attr)
    finally:
        tracer.uninstall()
    for (owner, attr), old in originals.items():
        assert owner.__dict__[attr] is old, (owner, attr)
    assert SplineSpaceModel.__dict__["matrix"] is matrix
