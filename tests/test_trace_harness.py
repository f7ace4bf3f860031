"""The benchmark's trace harness still finds every name it wraps.

``perfbench/tracer.py`` patches module attributes that ``cli.run`` calls
(and ``ulam.assemble_row``); a rename in the package, or a ``cli.run``
that stops calling one of them, would break traced benchmark runs, so
this test fails first: on one L1 and one sup-norm run it requires the
stage spans and the three ``certify.err_*`` counters.
"""

import importlib.util
import json
from pathlib import Path

from rigdens import cli, ulam
from tests.conftest import SINMAP

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_mod)


def _traced_run(config):
    """Run config under the tracer; the tracer and the certificate."""
    originals = (cli.run, cli.assemble_ulam, ulam.assemble_row,
                 cli.certify_l1, cli.certify_linf)
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.instrument(tracer)
        assert cli.run is not originals[0]
        assert cli.run(config) == 0
    finally:
        tracer.restore()
    assert (cli.run, cli.assemble_ulam, ulam.assemble_row,
            cli.certify_l1, cli.certify_linf) == originals
    cert = json.loads((Path(config.out_dir) / "certificate.json").read_text())
    # certify.certify_s of a traced benchmark run is this span's self time,
    # and the err_* counters are read off the certificate it returns
    for part in ("discretization", "matrix", "numeric"):
        assert tracer.counters[f"certify.err_{part}"] == \
            cert["err_components"][part]
    return tracer, {s["name"] for s in tracer.spans}


def test_tracer_instruments_and_restores(tmp_path):
    tracer, names = _traced_run(cli.RunConfig(
        map_text="linear 3 mod 1", k=9, out_dir=str(tmp_path / "out")))
    assert {"cli.run", "ulam.assemble", "enclosure.sweep",
            "certify.certify"} <= names
    assert tracer.counters["ulam.nnz_max"] == 3


def test_tracer_sup_norm_run(tmp_path):
    _, names = _traced_run(cli.RunConfig(
        map_text=SINMAP, mode="Linf", k=32, out_dir=str(tmp_path / "out")))
    assert {"cli.run", "hatbasis.assemble", "enclosure.sweep",
            "certify.certify"} <= names
