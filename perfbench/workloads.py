"""Benchmark workloads: one paper map per pipeline path, varied by a seed.

Seed 0 gives exactly the paper map. Any other seed draws a member of the
same family from a short list of nearby parameters. The lists are narrow on
purpose: eps_rig, lyap_width and the run time depend on the parameter, and
the benchmark compares medians over seeds, so the family must not spread
those figures more than the bounds in BENCHMARK.json allow. Every listed
member keeps the pipeline on the same path as seed 0 (same branch count,
same sweep step budget of 16), which was checked at the workload's k.

BENCHMARK.json lists eq6-k8192 and sinmap-linf-k1024, which between them
run every layer. lanford2-k128, on which recursive ulam subdivision
dominates, runs by name only: a shared host needs 60-second runs to steady
certify_s, and the benchmark's time budget holds two such workloads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

__all__ = ["Workload", "WORKLOADS", "draw_map"]


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    k: int
    paper: Fraction                      # parameter of the seed-0 map
    family: Tuple[Fraction, ...]         # parameters other seeds draw from
    text: Callable[[Fraction], str]      # parameter -> map description
    # exact Lyapunov exponent, known in closed form for linear maps only
    exact_lyapunov: Optional[Callable[[Fraction], float]] = None


def _linear(slope: Fraction) -> str:
    return f"linear {slope} mod 1"


def _lanford(c: Fraction) -> str:
    return f"poly [0,1] : 2x + ({c})x(1-x) mod 1; iterate 2"


def _sinmap(amp: Fraction) -> str:
    # the grammar reads decimal literals exactly; amplitudes are n / 10^5
    n = amp * 10 ** 5
    if n.denominator != 1 or not 0 < n < 10 ** 5:
        raise ValueError(f"amplitude {amp} is not a five-digit decimal")
    digits = f"{int(n):05d}".rstrip("0")
    return f"circle\npoly [0,1] : 4x + 0.{digits} sin(8 pi x) mod 1"


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="eq6-k8192",
            mode="L1",
            k=8192,
            paper=Fraction(17, 5),
            # 17/5 and its nearest neighbours with denominator below 70;
            # B, and with it eps_rig, moves by about 2.6 % per 0.01 of slope
            family=(Fraction(231, 68), Fraction(17, 5), Fraction(228, 67)),
            text=_linear,
            exact_lyapunov=lambda slope: math.log(slope),
        ),
        Workload(
            name="lanford2-k128",
            mode="L1",
            k=128,
            paper=Fraction(1, 2),
            # eps_rig moves by about 1.2 % per 0.001 of the coefficient;
            # members share a denominator size, so their Fraction work is alike
            family=(Fraction(1999, 4000), Fraction(999, 2000),
                    Fraction(1001, 2000), Fraction(2001, 4000)),
            text=_lanford,
        ),
        Workload(
            name="sinmap-linf-k1024",
            mode="Linf",
            k=1024,
            paper=Fraction(1, 100),
            # eps_rig moves by about 2.3 % per 0.0001 of the amplitude
            family=(Fraction(995, 10 ** 5), Fraction(1, 100),
                    Fraction(1005, 10 ** 5)),
            text=_sinmap,
        ),
    )
}


def draw_map(workload: Workload, seed: int) -> Tuple[Fraction, str]:
    """(parameter, map text) for a seed; seed 0 is the paper map."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    param = workload.paper if seed == 0 else \
        random.Random(seed).choice(workload.family)
    return param, workload.text(param)
