"""Batch driver: declarative map description in, certified artifacts out.

Map grammar (line oriented; ';' separates statements on one line, '#'
starts a comment):

    poly [a,b] : <expr> [mod 1]     one monotone branch; rational literals
    linear R [mod 1]                sugar for poly [0,1] : R x mod 1
    iterate N                       study the N-th iterate (polynomial maps)
    circle                          treat [0,1] as the circle S^1

<expr> is a polynomial in x with rational coefficients (decimals are exact),
supporting + - * / ^ and juxtaposition ("2x", "(1/2)x(1-x)"), plus at most one
sinusoidal term "A sin(B pi x)" with rational A, B.  Binding tightest first:
^, a unary sign, * / and juxtaposition, binary + -; so -x^2 is -(x^2)
wherever it stands ("3x + -x^2", "2*-x^2"), and "2 -x" is a subtraction.
Keywords are whole words ("iterates" is unknown); iterate takes one
positive integer.

Config files are INI style: a [run] section with the keys mirrored by the
command line flags (mode, k, eps_num, iterate, out_dir, dump_matrix,
verbose, no_lyap; any other key is rejected) and a [map] section with
either text= or file=.  Flags override config values.

Exit codes: 0 success; 1 bad configuration or input: a command line usage
error, any stage's ValueError or OverflowError (a map the parser, the
assembly or the Lyapunov stage rejects, an expression nested deeper than
the parser's recursion can follow, a branch whose length enclosure
reaches 0, a number beyond the double range, a nonpositive or non-finite
eps_num, a sup-norm k above 2^24, which RunConfig rejects before any
work), a MemoryError (a k whose arrays do not fit in memory; the
message names k) and any path that cannot be read or written; 2 failed
expansion check; 3 no observed contraction (or a fixed-vector enclosure
still wider than eps_num after the step budget).  ``run`` maps the
exceptions to these codes in one place and prints one "error:" line.
The output directory and the --dump-matrix file's directory are created
once the map is built, before any certification work, so an unwritable
path fails at once.  --verbose sends the package's INFO log records (one
per contraction step, then one for the power steps of the fixed vector)
to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import logging
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .certify import certify_l1, certify_linf, lyapunov, report
from .enclosure import (_SUP_NORM_K_ERROR, _SUP_NORM_K_MAX, NotContractingError,
                        contraction_sweep)
from .hatbasis import assemble_linearized
from .intervals import IntervalArray
from .maps import (
    Branch,
    Endpoint,
    ExpansionError,
    PiecewiseMap,
    iterate_map,
    ly_coefficients_bv,
    ly_coefficients_lip,
    split_mod_branches,
)
from .polys import Poly, poly_add, poly_degree, poly_mul, poly_scale
from .ulam import assemble_ulam, dump_matrix, markovize

__all__ = ["RunConfig", "MapSpec", "parse_map", "run", "emit_plot_data", "main"]


class MapParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_]+)|(?P<sym>[()+\-*/^]))"
)


def _tokenize(s: str) -> List[Tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m or m.end() == pos:
            if s[pos:].strip() == "":
                break
            raise MapParseError(f"bad token at ...{s[pos:pos + 12]!r}")
        pos = m.end()
        out.append((m.lastgroup, m[m.lastgroup]))
    return out


class _PolyTrig:
    """Polynomial plus an optional A sin(B pi x) term, closed under the
    operations the grammar allows."""

    def __init__(self, poly: Poly, amp: Fraction = Fraction(0),
                 freq: Fraction = Fraction(0)):
        self.poly = poly
        self.amp = amp
        self.freq = freq

    @property
    def has_trig(self) -> bool:
        return self.amp != 0

    def _const(self) -> Optional[Fraction]:
        if self.has_trig or any(c != 0 for c in self.poly[1:]):
            return None
        return self.poly[0]

    def __add__(self, other: "_PolyTrig") -> "_PolyTrig":
        if self.has_trig and other.has_trig:
            raise MapParseError("at most one sinusoidal term per branch")
        amp, freq = (self.amp, self.freq) if self.has_trig else (other.amp, other.freq)
        return _PolyTrig(poly_add(self.poly, other.poly), amp, freq)

    def __neg__(self) -> "_PolyTrig":
        return _PolyTrig([-c for c in self.poly], -self.amp, self.freq)

    def __mul__(self, other: "_PolyTrig") -> "_PolyTrig":
        if self.has_trig or other.has_trig:
            trig, factor = (self, other) if self.has_trig else (other, self)
            c = factor._const()
            if c is None:
                raise MapParseError("sinusoidal terms admit constant factors only")
            return _PolyTrig(poly_scale(trig.poly, c), trig.amp * c, trig.freq)
        return _PolyTrig(poly_mul(self.poly, other.poly))

    def divide(self, other: "_PolyTrig") -> "_PolyTrig":
        c = other._const()
        if c is None or c == 0:
            raise MapParseError("division only by nonzero constants")
        return _PolyTrig(poly_scale(self.poly, 1 / c), self.amp / c, self.freq)

    def power(self, n: int) -> "_PolyTrig":
        if self.has_trig:
            raise MapParseError("cannot raise sinusoidal terms to powers")
        out = _PolyTrig([Fraction(1)])
        for _ in range(n):
            out = out * self
        return out


_SIGNS = (("sym", "+"), ("sym", "-"))


class _ExprParser:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def parse(self) -> _PolyTrig:
        v = self.expr()
        if self.i != len(self.toks):
            raise MapParseError(f"trailing tokens near {self.peek()[1]!r}")
        return v

    def expr(self) -> _PolyTrig:
        v = self.term()
        while self.peek() in _SIGNS:
            _, op = self.take()
            rhs = self.term()
            v = v + (-rhs if op == "-" else rhs)
        return v

    def term(self) -> _PolyTrig:
        v = self.signed()
        while True:
            kind, val = self.peek()
            if (kind, val) == ("sym", "*"):
                self.take()
                v = v * self.signed()
            elif (kind, val) == ("sym", "/"):
                self.take()
                v = v.divide(self.signed())
            elif kind == "num" or (kind == "name" and val in ("x", "sin")) or \
                    (kind, val) == ("sym", "("):
                v = v * self.factor()  # juxtaposition
            else:
                return v

    def signed(self) -> _PolyTrig:
        """The one sign rule: it binds looser than ^, so -x^2 is -(x^2)."""
        if self.peek() in _SIGNS:
            _, op = self.take()
            v = self.signed()
            return -v if op == "-" else v
        return self.factor()

    def factor(self) -> _PolyTrig:
        base = self.atom()
        while self.peek() == ("sym", "^"):
            self.take()
            kind, val = self.take()
            if kind != "num" or "." in val:
                raise MapParseError("exponent must be a plain integer")
            base = base.power(int(val))
        return base

    def atom(self) -> _PolyTrig:
        kind, val = self.take()
        if kind == "num":
            return _PolyTrig([Fraction(val)])
        if kind == "name" and val == "x":
            return _PolyTrig([Fraction(0), Fraction(1)])
        if kind == "name" and val == "sin":
            return self.sin_term()
        if (kind, val) == ("sym", "("):
            v = self.expr()
            if self.take() != ("sym", ")"):
                raise MapParseError("unbalanced parentheses")
            return v
        raise MapParseError(f"unexpected token {val!r}")

    def sin_term(self) -> _PolyTrig:
        if self.take() != ("sym", "("):
            raise MapParseError("sin needs parenthesized argument")
        freq = Fraction(1)
        kind, val = self.peek()
        if kind == "num":
            self.take()
            freq = Fraction(val)
            if self.peek() == ("sym", "/"):
                self.take()
                k2, v2 = self.take()
                if k2 != "num":
                    raise MapParseError("bad rational in sin argument")
                freq /= Fraction(v2)
            if self.peek() == ("sym", "*"):
                self.take()
        if self.take() != ("name", "pi"):
            raise MapParseError("sin argument must be 'R pi x'")
        if self.peek() == ("sym", "*"):
            self.take()
        if self.take() != ("name", "x"):
            raise MapParseError("sin argument must be 'R pi x'")
        if self.take() != ("sym", ")"):
            raise MapParseError("unbalanced sin parentheses")
        return _PolyTrig([Fraction(0)], Fraction(1), freq)


def _parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise MapParseError(f"bad rational literal {s!r}") from exc


# ---------------------------------------------------------------------------
# map specification
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _BranchStmt:
    lo: Fraction
    hi: Fraction
    poly: Tuple[Fraction, ...]
    amp: Fraction
    freq: Fraction
    mod_one: bool

    def __post_init__(self):
        # one form per expression, so canonical() round-trips: no trailing
        # zero coefficients, and no frequency without a sine term
        object.__setattr__(self, "poly", self.poly[:poly_degree(self.poly) + 1])
        if self.amp == 0:
            object.__setattr__(self, "freq", Fraction(0))


@dataclasses.dataclass(frozen=True)
class MapSpec:
    """Parsed declarative map description, before branch splitting."""

    stmts: Tuple[_BranchStmt, ...]
    iterate: int = 1
    circle: bool = False

    def canonical(self) -> str:
        lines = []
        if self.circle:
            lines.append("circle")
        for s in self.stmts:
            terms = []
            for n, c in enumerate(s.poly):
                if c == 0:
                    continue
                mag = abs(c)
                body = str(mag) if n == 0 else (
                    f"{mag} x" if n == 1 else f"{mag} x^{n}")
                terms.append((c < 0, body))
            if s.amp != 0:
                terms.append((s.amp < 0, f"{abs(s.amp)} sin({s.freq} pi x)"))
            if not terms:
                expr = "0"
            else:
                parts = [("- " if terms[0][0] else "") + terms[0][1]]
                parts += [("- " if neg else "+ ") + body for neg, body in terms[1:]]
                expr = " ".join(parts)
            tail = " mod 1" if s.mod_one else ""
            lines.append(f"poly [{s.lo},{s.hi}] : {expr}{tail}")
        if self.iterate != 1:
            lines.append(f"iterate {self.iterate}")
        return "\n".join(lines) + "\n"

    def build(self) -> PiecewiseMap:
        branches: List[Branch] = []
        for s in self.stmts:
            br = Branch(Endpoint.from_rational(s.lo), Endpoint.from_rational(s.hi),
                        s.poly, s.amp, s.freq)
            if s.mod_one:
                branches.extend(split_mod_branches(br))
            else:
                branches.append(br)
        branches.sort(key=lambda b: b.lo.lo)
        m = PiecewiseMap(tuple(branches), circle=self.circle)
        if self.iterate > 1:
            m = iterate_map(m, self.iterate)
        m.validate_monotone()
        return m


def parse_map(text: str) -> MapSpec:
    """Parse the declarative grammar into a MapSpec.

    Raises MapParseError on syntax errors and on overlapping or gapped
    branch domains (with the offending location in the message).
    """
    stmts: List[_BranchStmt] = []
    iterate = 1
    circle = False
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0]
        for stmt in filter(None, (p.strip() for p in line.split(";"))):
            word, rest = _KEYWORD_RE.match(stmt).groups()
            try:
                if word == "iterate":
                    if not re.fullmatch(r"[0-9]+", rest) or int(rest) < 1:
                        raise MapParseError("iterate needs a positive integer")
                    iterate = int(rest)
                elif word == "circle":
                    if rest:
                        raise MapParseError("circle takes no arguments")
                    circle = True
                elif word in ("linear", "poly"):
                    stmts.append(_parse_branch(word, rest))
                else:
                    raise MapParseError(f"unknown statement {stmt.split()[0]!r}")
            except MapParseError as exc:
                raise MapParseError(f"line {lineno}: {exc}") from exc
    if not stmts:
        raise MapParseError("no branches defined")
    stmts.sort(key=lambda s: s.lo)
    if stmts[0].lo != 0 or stmts[-1].hi != 1:
        raise MapParseError("branch domains must cover [0,1]")
    for a, b in zip(stmts, stmts[1:]):
        if a.hi != b.lo:
            raise MapParseError(
                f"gap or overlap between branch ending at {a.hi} "
                f"and branch starting at {b.lo}"
            )
    return MapSpec(tuple(stmts), iterate=iterate, circle=circle)


_KEYWORD_RE = re.compile(r"(\w*)\s*(.*)")
_DOMAIN_RE = re.compile(r"\[([^,\]]+),([^,\]]+)\]\s*:\s*(.+)$")
_MOD_ONE_RE = re.compile(r"\bmod\s*1\s*$")


def _parse_branch(keyword: str, rest: str) -> _BranchStmt:
    """``linear R`` (the branch R x on [0,1]) or ``poly [a,b] : <expr>``,
    either with an optional trailing ``mod 1``."""
    lo, hi, body = Fraction(0), Fraction(1), rest
    if keyword == "poly":
        m = _DOMAIN_RE.match(rest)
        if not m:
            raise MapParseError(
                f"cannot parse branch statement {f'poly {rest}'.rstrip()!r}")
        lo, hi, body = _parse_rational(m[1]), _parse_rational(m[2]), m[3]
        if not lo < hi:
            raise MapParseError(f"empty branch domain [{lo},{hi}]")
    body, mod = _MOD_ONE_RE.subn("", body)
    if keyword == "linear":
        pt = _PolyTrig([Fraction(0), _parse_rational(body)])
    else:
        try:
            pt = _ExprParser(_tokenize(body)).parse()
        except RecursionError:  # deeper than the recursive descent can follow
            raise MapParseError("expression nested too deeply") from None
    return _BranchStmt(lo, hi, tuple(pt.poly), pt.amp, pt.freq, bool(mod))


# ---------------------------------------------------------------------------
# run configuration and pipeline
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class RunConfig:
    map_text: str
    mode: str = "L1"
    k: int = 1024
    eps_num: Optional[float] = None
    iterate: Optional[int] = None
    out_dir: str = "out"
    dump_matrix: Optional[str] = None
    verbose: bool = False
    no_lyap: bool = False
    map_id: str = "map"

    def __post_init__(self):
        if self.mode not in ("L1", "Linf"):
            raise ValueError(f"mode must be L1 or Linf, got {self.mode!r}")
        if self.k < 8:
            raise ValueError("k must be at least 8")
        # the sweep checks it too, but only after assembly
        if self.mode == "Linf" and self.k > _SUP_NORM_K_MAX:
            raise ValueError(_SUP_NORM_K_ERROR)
        if self.iterate is not None and self.iterate < 1:
            raise ValueError("iterate needs a positive integer")
        # contraction_sweep checks it too, but only after assembly
        if self.eps_num is not None and not 0 < self.eps_num < math.inf:
            raise ValueError("eps_num must be positive and finite")


def emit_plot_data(density, m: PiecewiseMap, k: int, out_dir: Path) -> None:
    """Write the density files and the map graph.

    density.csv holds each cell's index, edges i/k and (i+1)/k and density
    value; density_plot.dat each value where it lives, at the cell midpoint
    in L1 and the node i/k in the sup norm; map_graph.dat samples x = i/n
    for n = max(k, 512) and writes one line per branch whose outer domain
    holds x, each branch evaluating all its sample points in one
    interval-array call.  Floats are written by repr, each distinct column
    once: the cell edges serve as left, right, the nodes and, at n = k,
    the graph's x column, and the values serve both density files.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    edges = _reprs(np.arange(k + 1) / k)
    values = _reprs(density.density_values)
    _write_lines(out_dir / "density.csv", ",", map(str, range(k)),
                 edges[:-1], edges[1:], values, header="i,left,right,value\n")
    points = (_reprs((np.arange(k) + 0.5) / k) if density.norm_kind == "L1"
              else edges[:-1])
    _write_lines(out_dir / "density_plot.dat", " ", points, values)
    n = max(k, 512)
    xs = np.arange(n + 1) / n
    at, ys = [], []
    for br in m.branches:
        dom = br.domain_outer()
        on = np.flatnonzero((dom.lo <= xs) & (xs <= dom.hi))
        at.append(on)
        ys.append(np.broadcast_to(br.value_iv(IntervalArray(xs[on])).mid, on.shape))
    at = np.concatenate(at)
    order = np.argsort(at, kind="stable")  # by x, then in branch order
    x_text = edges if n == k else _reprs(xs)
    _write_lines(out_dir / "map_graph.dat", " ",
                 [x_text[i] for i in at[order].tolist()],
                 _reprs(np.concatenate(ys)[order]))


def _reprs(column: np.ndarray) -> List[str]:
    return list(map(repr, column.tolist()))


def _write_lines(path: Path, sep: str, *columns, header: str = "") -> None:
    """The header, then one line per row of the text columns."""
    with open(path, "w") as fh:
        fh.write(header + "\n".join(map(sep.join, zip(*columns))) + "\n")


@contextlib.contextmanager
def _log_to_stderr(enabled: bool):
    """While enabled, send the package's INFO records to stderr."""
    if not enabled:
        yield
        return
    logger = logging.getLogger("rigdens")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def run(config: RunConfig) -> int:
    """Execute the full pipeline; returns the process exit code (module
    docstring), printing one error line for a failure."""
    try:
        with _log_to_stderr(config.verbose):
            return _run(config)
    except ExpansionError as exc:
        print(f"error: {exc} (try --iterate)", file=sys.stderr)
        return 2
    except NotContractingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        # OverflowError: a coefficient beyond the double range; OSError: an
        # output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory at k = {config.k}: {exc}", file=sys.stderr)
        return 1


def _run(config: RunConfig) -> int:
    spec = parse_map(config.map_text)
    if config.iterate is not None:
        spec = dataclasses.replace(spec, iterate=config.iterate)
    if config.mode == "Linf":
        spec = dataclasses.replace(spec, circle=True)
    mapped = spec.build()
    # fail on an unwritable output path before any certification work
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.dump_matrix:
        Path(config.dump_matrix).parent.mkdir(parents=True, exist_ok=True)

    eps_num = config.eps_num if config.eps_num is not None else (
        1e-4 if config.mode == "L1" else 1e-5
    )
    if config.mode == "L1":
        ly = ly_coefficients_bv(mapped)
        matrix = markovize(assemble_ulam(mapped, config.k))
        certify = certify_l1
    else:
        ly = ly_coefficients_lip(mapped)
        if ly.k_iter != 1:
            raise ExpansionError(
                f"Lipschitz contraction needs iterate {ly.k_iter}; "
                "rerun with --iterate on a polynomial map"
            )
        matrix = markovize(assemble_linearized(mapped, config.k))
        certify = certify_linf
    if config.dump_matrix:
        dump_matrix(matrix, config.dump_matrix)

    contraction, density = contraction_sweep(matrix, eps_num)
    cert = certify(ly, matrix, contraction, density,
                   eps_num=eps_num, map_id=config.map_id)
    lyap = None if config.no_lyap else lyapunov(mapped, density, cert)

    rep = report(cert, lyap)
    (out_dir / "certificate.json").write_text(rep.to_json(indent=2) + "\n")
    (out_dir / "report.txt").write_text(rep.text + "\n")
    emit_plot_data(density, mapped, config.k, out_dir)
    print(rep.text)
    return 0


# [run] keys (the same names as the run flags) and the getter for each
_RUN_KEYS = {
    "mode": "get", "out_dir": "get", "dump_matrix": "get",
    "k": "getint", "iterate": "getint",
    "eps_num": "getfloat",
    "verbose": "getboolean", "no_lyap": "getboolean",
}


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
    out: dict = {}
    if cp.has_section("run"):
        for key in cp.options("run"):
            if key not in _RUN_KEYS:
                raise ValueError(f"unknown [run] key {key!r} in {path}")
            out[key] = getattr(cp, _RUN_KEYS[key])("run", key)
    if cp.has_section("map"):
        if cp.has_option("map", "text"):
            out["map_text"] = cp.get("map", "text")
        elif cp.has_option("map", "file"):
            out["map_text"] = Path(cp.get("map", "file")).read_text()
        if cp.has_option("map", "id"):
            out["map_id"] = cp.get("map", "id")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="rigdens",
        description="certified invariant densities of expanding interval maps",
    )
    ap.add_argument("--config", help="INI config file ([run] and [map] sections)")
    ap.add_argument("--map", help="map description file (grammar in module docs)")
    ap.add_argument("--mode", choices=["L1", "Linf"])
    ap.add_argument("--k", type=int)
    ap.add_argument("--eps-num", dest="eps_num", type=float,
                    help="largest fixed-vector enclosure radius accepted "
                         "(default 1e-4 in L1, 1e-5 in Linf); eps_rig charges "
                         "the certified radius, usually far smaller")
    ap.add_argument("--iterate", type=int)
    ap.add_argument("--out-dir", dest="out_dir")
    ap.add_argument("--dump-matrix", dest="dump_matrix")
    ap.add_argument("--verbose", action="store_true", default=None)
    ap.add_argument("--no-lyap", dest="no_lyap", action="store_true", default=None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; here 2 is the expansion check
        if exc.code:
            return 1
        raise

    try:
        settings = _load_config(args.config)
        if args.map:
            settings["map_text"] = Path(args.map).read_text()
            settings.setdefault("map_id", Path(args.map).stem)
        for key in _RUN_KEYS:
            v = getattr(args, key)
            if v is not None:
                settings[key] = v
        if "map_text" not in settings:
            print("error: no map given (use --map or a [map] config section)",
                  file=sys.stderr)
            return 1
        config = RunConfig(**settings)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
