"""Output checks on the artifacts of one certification run.

Each check returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import List, Optional

__all__ = ["CERT_KEYS", "DENSITY_SLACK", "check_artifacts"]

# the keys README.md documents for certificate.json
CERT_KEYS = {"mode", "map_id", "k", "nu", "eps", "eps_num", "nnz_max", "l",
             "n_eps", "n_true", "lambda", "b_prime", "b", "err_components",
             "eps_rig", "lyap"}
ERR_KEYS = {"discretization", "matrix", "numeric"}
ARTIFACTS = ("density.csv", "certificate.json", "report.txt",
             "density_plot.dat", "map_graph.dat")

# |mass - 1| (L1) or |mean - 1| (Linf) allowed for the written density:
# the values are rounded once to binary64 and summed with fsum, so the
# float error is about k ulps, far below this.
DENSITY_SLACK = 1e-9


def check_artifacts(out_dir: Path, mode: str, k: int,
                    exact_lyapunov: Optional[float] = None) -> List[str]:
    """Problems found in the artifacts of a run that exited with 0."""
    problems = [f"missing {name}" for name in ARTIFACTS
                if not (out_dir / name).is_file()]
    if problems:
        return problems
    try:
        cert = json.loads((out_dir / "certificate.json").read_text())
    except json.JSONDecodeError as exc:
        return [f"certificate.json is not JSON: {exc}"]
    missing = CERT_KEYS - set(cert)
    if missing:
        return [f"certificate.json lacks {sorted(missing)}"]
    if not isinstance(cert["err_components"], dict) or \
            set(cert["err_components"]) != ERR_KEYS:
        return ["certificate.json err_components malformed"]
    if not isinstance(cert["lyap"], dict) or set(cert["lyap"]) != {"lo", "hi"}:
        return ["certificate.json lyap malformed"]
    if cert["mode"] != mode or cert["k"] != k:
        problems.append(f"certificate is for {cert['mode']}/k={cert['k']}")

    comps = cert["err_components"]
    eps_rig = cert["eps_rig"]
    if not all(isinstance(v, (int, float)) for v in (eps_rig, *comps.values())):
        return problems + ["non-numeric eps_rig or error component"]
    float_sum = comps["discretization"] + comps["matrix"] + comps["numeric"]
    if not (math.isfinite(eps_rig) and eps_rig > 0 and eps_rig >= float_sum):
        problems.append(f"eps_rig {eps_rig!r} below its components' sum "
                        f"{float_sum!r}")
    lo, hi = cert["lyap"]["lo"], cert["lyap"]["hi"]
    if not lo <= hi:
        problems.append(f"empty Lyapunov interval [{lo}, {hi}]")
    if exact_lyapunov is not None and not lo <= exact_lyapunov <= hi:
        problems.append(f"Lyapunov interval [{lo}, {hi}] misses the exact "
                        f"value {exact_lyapunov!r}")

    problems += _check_density(out_dir / "density.csv", k)
    return problems


def _check_density(path: Path, k: int) -> List[str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["i", "left", "right", "value"]:
        return ["density.csv header malformed"]
    if len(rows) != k + 1:
        return [f"density.csv has {len(rows) - 1} rows, expected {k}"]
    try:
        values = [float(r[3]) for r in rows[1:]]
    except (IndexError, ValueError):
        return ["density.csv has a malformed value"]
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        return ["density.csv has a negative or non-finite value"]
    # values are at density scale in both modes: cell value k*mass (L1) or
    # the nodal value (Linf), so the mass (L1) and the mean (Linf) are both
    # sum / k
    mean = math.fsum(values) / k
    if abs(mean - 1.0) > DENSITY_SLACK:
        return [f"density mass/mean {mean!r} differs from 1 by more than "
                f"{DENSITY_SLACK}"]
    return []
