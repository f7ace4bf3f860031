"""The benchmark's trace harness still finds every name it wraps.

``perfbench/tracer.py`` patches module attributes that ``cli.run`` calls
(and ``ulam.assemble_row``); a rename in the package would break traced
benchmark runs, so this test fails first.
"""

import importlib.util
from pathlib import Path

from rigdens import cli, ulam

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_mod)


def test_tracer_instruments_and_restores(tmp_path):
    originals = (cli.run, cli.assemble_ulam, ulam.assemble_row)
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.instrument(tracer)
        assert cli.run is not originals[0]
        config = cli.RunConfig(map_text="linear 3 mod 1", k=9,
                               out_dir=str(tmp_path / "out"))
        assert cli.run(config) == 0
    finally:
        tracer.restore()
    assert (cli.run, cli.assemble_ulam, ulam.assemble_row) == originals
    names = {s["name"] for s in tracer.spans}
    assert {"cli.run", "ulam.assemble", "enclosure.sweep"} <= names
    assert tracer.counters["ulam.nnz_max"] == 3
