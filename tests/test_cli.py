"""Map grammar, config handling, exit codes, and artifact formats."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigdens.cli import (MapParseError, MapSpec, RunConfig, _BranchStmt, main,
                         parse_map, run)
from tests.conftest import EQ4, LANFORD2, SINMAP


def test_parse_round_trip_canonical():
    for text in (EQ4, LANFORD2, SINMAP, "linear 17/5 mod 1"):
        spec = parse_map(text)
        again = parse_map(spec.canonical())
        assert again == spec


_rationals = st.fractions(max_denominator=1000).filter(lambda q: abs(q) < 10 ** 6)


@st.composite
def _map_specs(draw):
    """MapSpecs of the grammar: a partition of [0, 1] at rational cuts, each
    branch a rational polynomial with an optional A sin(B pi x) term (B a
    nonnegative literal, as the grammar writes it) and an optional mod 1,
    plus iterate and circle."""
    cuts = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=100),
                         max_size=4, unique=True))
    ends = [F(0), *sorted(set(cuts) - {F(0), F(1)}), F(1)]
    stmts = []
    for lo, hi in zip(ends, ends[1:]):
        poly = draw(st.lists(_rationals, min_size=1, max_size=5))
        amp = draw(st.one_of(st.just(F(0)), _rationals))
        freq = draw(st.fractions(min_value=0, max_value=64, max_denominator=100))
        stmts.append(_BranchStmt(lo, hi, tuple(poly), amp, freq, draw(st.booleans())))
    return MapSpec(tuple(stmts), iterate=draw(st.integers(1, 5)),
                   circle=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(_map_specs())
def test_parse_round_trip_generated(spec):
    assert parse_map(spec.canonical()) == spec


def test_parse_keeps_one_form_per_expression():
    # "+ x^2 - x^2" and a zero sine term leave no trace in the spec
    s = parse_map("poly [0,1] : 3x + x^2 - x^2 + 0 sin(2 pi x)").stmts[0]
    assert (s.poly, s.amp, s.freq) == ((F(0), F(3)), F(0), F(0))


def test_parse_factored_polynomial():
    spec = parse_map("poly [0,1] : 2x + (1/2)x(1-x) mod 1; iterate 2")
    assert spec.iterate == 2
    assert spec.stmts[0].poly == (F(0), F(5, 2), F(-1, 2))


def test_parse_decimal_coefficients():
    spec = parse_map("circle\npoly [0,1] : 4x + 0.01 sin(8 pi x) mod 1")
    s = spec.stmts[0]
    assert s.amp == F(1, 100)
    assert s.freq == 8
    assert spec.circle


def test_parse_linear_shorthand():
    m = parse_map("linear 17/5 mod 1").build()
    assert [b.lo.exact for b in m.branches] == [F(0), F(5, 17), F(10, 17), F(15, 17)]


def test_parse_rejects_gaps():
    with pytest.raises(MapParseError, match="gap or overlap"):
        parse_map("poly [0, 1/3] : 3x\npoly [1/2, 1] : 2x - 1")


def test_parse_rejects_overlap():
    with pytest.raises(MapParseError, match="gap or overlap"):
        parse_map("poly [0, 2/3] : 3x mod 1\npoly [1/2, 1] : 2x - 1")


def test_parse_rejects_garbage():
    with pytest.raises(MapParseError, match="line 1"):
        parse_map("poly [0,1] : 3y mod 1")


def test_parse_rejects_empty():
    with pytest.raises(MapParseError):
        parse_map("# nothing here\n")


@pytest.mark.parametrize("text,message", [
    ("poly [0,1] : 3x + 0.1 sin(2 pi x) + 0.1 sin(4 pi x)",
     "line 1: at most one sinusoidal term per branch"),
    ("poly [0,1] : 3x + x sin(2 pi x)",
     "line 1: sinusoidal terms admit constant factors only"),
    ("poly [0,1] : 3x / x", "line 1: division only by nonzero constants"),
    ("poly [0,1] : 3x / 0", "line 1: division only by nonzero constants"),
    ("poly [0,1] : 3x + sin(2 pi x)^2",
     "line 1: cannot raise sinusoidal terms to powers"),
    ("poly [0,1] : x^1.5", "line 1: exponent must be a plain integer"),
    ("poly [0,1] : (3x", "line 1: unbalanced parentheses"),
    ("poly [0,1] : sin(2 pi x", "line 1: unbalanced sin parentheses"),
    ("poly [0,1] : 3x + sin 2 pi x", "line 1: sin needs parenthesized argument"),
    ("poly [0,1] : sin(2/pi x)", "line 1: bad rational in sin argument"),
    ("poly [0,1] : sin(2 x)", "line 1: sin argument must be 'R pi x'"),
    ("poly [0,1] : sin(2 pi y)", "line 1: sin argument must be 'R pi x'"),
    ("poly [0,1] : 3x )", "line 1: trailing tokens near ')'"),
    ("poly [0,1] : 3x + *", "line 1: unexpected token '*'"),
    ("poly [0,1] : 3x $ 1", "line 1: bad token at ...' $ 1'"),
    ("linear 3\npoly [1/2,1/2] : x", "line 2: empty branch domain [1/2,1/2]"),
    ("poly 0,1 : x", "line 1: cannot parse branch statement 'poly 0,1 : x'"),
    ("lineal 3", "line 1: unknown statement 'lineal'"),
    ("linear 3/0", "line 1: bad rational literal '3/0'"),
    ("poly [a,1] : x", "line 1: bad rational literal 'a'"),
    ("linear 3; iterate 0", "line 1: iterate needs a positive integer"),
    ("poly [0,1/2] : 2x", "branch domains must cover [0,1]"),
])
def test_parse_rejection_messages(text, message):
    with pytest.raises(MapParseError) as exc:
        parse_map(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,poly", [
    # a sign binds looser than ^ wherever it stands
    ("poly [0,1] : 3x + -x^2 mod 1", (0, 3, -1)),
    ("poly [0,1] : 3x + 2*-x^2 mod 1", (0, 3, -2)),
    ("poly [0,1] : 3x - -x^2 mod 1", (0, 3, 1)),
    ("poly [0,1] : -x^2 + 4x mod 1", (0, 4, -1)),
    ("poly [0,1] : 3x + (-x)^2 mod 1", (0, 3, 1)),
    ("poly [0,1] : 3x + 2*+x mod 1", (0, 5)),
    ("poly [0,1] : 2 -x + 3x", (2, 2)),  # juxtaposition takes no sign
    ("linear 3 mod  1", (0, 3)),
])
def test_parse_sign_and_mod_forms(text, poly):
    s = parse_map(text).stmts[0]
    assert s.poly == tuple(F(c) for c in poly)
    assert s.mod_one == text.endswith("1")


@pytest.mark.parametrize("stmt,message", [
    ("iterates 2", "unknown statement 'iterates'"),
    ("iteratefoo 3", "unknown statement 'iteratefoo'"),
    ("iterate 2 3", "iterate needs a positive integer"),
    ("iterate +2", "iterate needs a positive integer"),
    ("circle 2", "circle takes no arguments"),
])
def test_statement_keyword_is_whole_word(stmt, message, tmp_path, capsys):
    mp = tmp_path / "m.map"
    mp.write_text(f"linear 3 mod 1\n{stmt}\n")
    assert main(["--map", str(mp), "--k", "27",
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: line 2: {message}\n"


def test_runconfig_rejects_bad_k():
    with pytest.raises(ValueError):
        RunConfig(map_text="linear 3 mod 1", k=0)


def test_main_bad_k_exits_1(tmp_path, capsys):
    mp = tmp_path / "m.map"
    mp.write_text("linear 3 mod 1\n")
    assert main(["--map", str(mp), "--k", "0"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("n", [0, -2])
def test_nonpositive_iterate_exits_1(source, n, tmp_path, capsys):
    # as the grammar's "iterate 0" does, rather than certifying the map itself
    mp = tmp_path / "m.map"
    mp.write_text("linear 3 mod 1\n")
    if source == "flag":
        argv = ["--map", str(mp), "--iterate", str(n)]
    else:
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(f"[run]\niterate = {n}\n")
        argv = ["--config", str(cfgfile), "--map", str(mp)]
    assert main(argv + ["--k", "27", "--out-dir", str(tmp_path / "o")]) == 1
    assert "iterate needs a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_missing_map_exits_1(capsys):
    assert main([]) == 1


@pytest.mark.parametrize("argv", [["--k", "abc"], ["--bogus", "1"],
                                  ["--workers", "2"], ["--nu", "1e-6"]])
def test_main_usage_error_exits_1(argv, capsys):
    assert main(argv) == 1
    assert "usage" in capsys.readouterr().err


def test_main_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


_HUGE = "1" + "0" * 320


@pytest.mark.parametrize("settings,message", [
    # the two branch ends do not meet on the circle: sup-norm assembly refuses
    (dict(map_text="poly [0,1/2] : 3x; poly [1/2,1] : 3x - 1/2 mod 1",
          mode="Linf"), "map endpoints do not match on the circle"),
    # slopes 4 +- 1e-10 on the two halves: T' jumps at 1/2 and across 0 ~ 1
    (dict(map_text="circle; poly [0,1/2] : 4.0000000001x mod 1; "
                   "poly [1/2,1] : 3.9999999999x + 0.0000000001 mod 1",
          mode="Linf"), "derivative jumps across 0 ~ 1: not C^1 on the circle"),
    # T(1) - T(0) = 4 + 5e-11 is not an integer
    (dict(map_text="circle; poly [0,1/2] : 4.0000000001x mod 1; "
                   "poly [1/2,1] : 4x + 0.00000000005 mod 1",
          mode="Linf"), "map endpoints do not match on the circle"),
    # T' changes sign inside the branch, with and without mod-1 splitting
    (dict(map_text="poly [0,1] : 4x(1-x)"),
     "branch on [0, 1] is not certifiably monotone"),
    (dict(map_text="poly [0,1] : 8x(1-x) mod 1"),
     "branch on [0, 1] is not certifiably monotone"),
    # T(1/3) = 2 + 8.7e-18: the end value's enclosure holds the level 2
    (dict(map_text="poly [0,1/3] : 6x + 0.00000000000000001 sin(pi x) mod 1; "
                   "poly [1/3,1] : 3x mod 1"),
     "an end value of the branch on [0, 1/3] is within rounding of the "
     "integer 2: cannot certify its mod-1 cut"),
    # T(1) = 3 + 3e-16: the level-3 cut lies about 1e-16 below 1, with no
    # double between it and 1, so its bracket reaches the domain end and
    # the last branch's length enclosure is [0, 3.33e-16]
    (dict(map_text="poly [0,1] : 3x + 0.0000000000000003 x^2 mod 1"),
     "a branch's length enclosure reaches 0: the shortest lies in [0, 3.33e-16]"),
    # a coefficient, a slope or a sine frequency of 10^320, beyond the
    # largest double
    (dict(map_text=f"poly [0,1] : 3x + {_HUGE} mod 1"),
     "rational out of double range"),
    (dict(map_text=f"poly [0,1] : {_HUGE} x mod 1"),
     "rational out of double range"),
    (dict(map_text=f"poly [0,1] : 3x + 0.1 sin({_HUGE} pi x) mod 1"),
     "rational out of double range"),
])
def test_assembly_error_exits_1(settings, message, tmp_path, capsys):
    cfg = RunConfig(k=16, out_dir=str(tmp_path / "out"), **settings)
    assert run(cfg) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key", ["workers = 2", "eps-num = 1e-6", "nu = 1e-6"])
def test_config_unknown_run_key_exits_1(key, tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"[run]\nk = 27\n{key}\n\n[map]\ntext = linear 3 mod 1\n")
    assert main(["--config", str(cfgfile), "--out-dir", str(tmp_path / "o")]) == 1
    assert "unknown [run] key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_expansion_failure_exits_2(tmp_path, capsys):
    mp = tmp_path / "lanford.map"
    mp.write_text("poly [0,1] : 2x + (1/2)x(1-x) mod 1\n")
    code = main(["--map", str(mp), "--k", "16",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "iterate" in capsys.readouterr().err


def test_non_mixing_exits_3(tmp_path, capsys):
    # two invariant halves, each carrying a scaled tripling
    mp = tmp_path / "split.map"
    mp.write_text(
        "poly [0, 1/6]   : 3x\n"
        "poly [1/6, 1/3] : 3x - 1/2\n"
        "poly [1/3, 1/2] : 3x - 1\n"
        "poly [1/2, 2/3] : 3x - 1\n"
        "poly [2/3, 5/6] : 3x - 3/2\n"
        "poly [5/6, 1]   : 3x - 2\n"
    )
    code = main(["--map", str(mp), "--k", "12",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "contract" in capsys.readouterr().err


def test_wide_fixed_vector_enclosure_exits_3(tmp_path, capsys):
    # tripling contracts, but no enclosure radius reaches eps_num = 1e-300
    mp = tmp_path / "t.map"
    mp.write_text("linear 3 mod 1\n")
    code = main(["--map", str(mp), "--k", "27", "--eps-num", "1e-300",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "above eps_num" in capsys.readouterr().err


def test_full_run_artifacts(tmp_path, capsys):
    mp = tmp_path / "t.map"
    mp.write_text("linear 3 mod 1\n")
    out = tmp_path / "out"
    code = main(["--map", str(mp), "--k", "243", "--out-dir", str(out)])
    assert code == 0
    csv = (out / "density.csv").read_text().splitlines()
    assert csv[0] == "i,left,right,value"
    assert len(csv) == 244
    for line in csv[1:]:
        val = float(line.split(",")[3])
        assert abs(val - 1.0) < 1e-3  # tripling has the uniform density
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["mode"] == "L1"
    assert cert["eps_rig"] > 0 and cert["eps_rig"] < float("inf")
    import math
    assert cert["lyap"]["lo"] < math.log(3) < cert["lyap"]["hi"]
    plot = (out / "density_plot.dat").read_text().splitlines()
    assert len(plot) == 243
    assert (out / "map_graph.dat").exists()
    assert (out / "report.txt").exists()


def test_run_deterministic_across_repeats(tmp_path):
    mp = tmp_path / "q.map"
    mp.write_text(EQ4)
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        cfg = RunConfig(map_text=mp.read_text(), k=32, out_dir=str(out),
                        no_lyap=True)
        assert run(cfg) == 0
        outs.append((out / "density.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_config_file_with_flag_override(tmp_path, capsys):
    mp = tmp_path / "m.map"
    mp.write_text("linear 3 mod 1\n")
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(
        f"[run]\nk = 27\nmode = L1\nout_dir = {tmp_path/'o1'}\n"
        f"no_lyap = true\n\n[map]\nfile = {mp}\nid = tripling\n"
    )
    assert main(["--config", str(cfgfile)]) == 0
    cert = json.loads((tmp_path / "o1" / "certificate.json").read_text())
    assert cert["k"] == 27 and cert["map_id"] == "tripling"
    assert cert["lyap"] is None
    # flag overrides config
    assert main(["--config", str(cfgfile), "--k", "81",
                 "--out-dir", str(tmp_path / "o2")]) == 0
    cert2 = json.loads((tmp_path / "o2" / "certificate.json").read_text())
    assert cert2["k"] == 81


def test_dump_matrix_flag(tmp_path):
    mp = tmp_path / "m.map"
    mp.write_text("linear 3 mod 1\n")
    dump = tmp_path / "not_yet_created" / "matrix.txt"
    assert main(["--map", str(mp), "--k", "9", "--out-dir",
                 str(tmp_path / "out"), "--dump-matrix", str(dump),
                 "--no-lyap"]) == 0
    lines = dump.read_text().splitlines()
    assert lines[0].split()[0] == "9"
    assert len(lines) == 1 + 27  # 3 nonzeros per row


def test_linf_run(tmp_path):
    mp = tmp_path / "s.map"
    mp.write_text(SINMAP)
    out = tmp_path / "out"
    assert main(["--map", str(mp), "--mode", "Linf", "--k", "128",
                 "--out-dir", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["mode"] == "Linf"
    assert cert["b_prime"] is None
    assert cert["eps_rig"] < float("inf")


@pytest.mark.parametrize("mode", ["L1", "Linf"])
def test_incomplete_contraction_exits_1(mode, tmp_path, capsys, monkeypatch):
    # a certificate without n_true reaches the one exit-code map from
    # either certify function (certify_linf raised a TypeError before)
    import dataclasses

    import rigdens.cli as cli
    sweep = cli.contraction_sweep

    def no_n_true(matrix, eps_num):
        contraction, density = sweep(matrix, eps_num)
        return dataclasses.replace(contraction, n_true=None), density

    monkeypatch.setattr(cli, "contraction_sweep", no_n_true)
    cfg = RunConfig(map_text=SINMAP if mode == "Linf" else "linear 3 mod 1",
                    mode=mode, k=32, out_dir=str(tmp_path / "out"))
    assert run(cfg) == 1
    assert capsys.readouterr().err == "error: contraction certificate incomplete\n"


def test_lyapunov_error_exits_1(tmp_path, capsys, monkeypatch):
    import rigdens.cli as cli

    def touches_zero(*args):
        raise ValueError("|T'| enclosure touches 0 over cell 3")

    monkeypatch.setattr(cli, "lyapunov", touches_zero)
    cfg = RunConfig(map_text="linear 3 mod 1", k=27,
                    out_dir=str(tmp_path / "out"))
    assert run(cfg) == 1
    assert "error: |T'| enclosure touches 0 over cell 3" in capsys.readouterr().err
    assert not (tmp_path / "out" / "certificate.json").exists()


@pytest.mark.parametrize("exc_type", [ValueError, OverflowError])
def test_late_stage_error_exits_1(exc_type, tmp_path, capsys, monkeypatch):
    # a failure after certification reaches the one exit-code map
    import rigdens.cli as cli

    def boom(*args):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "report", boom)
    cfg = RunConfig(map_text="linear 3 mod 1", k=27,
                    out_dir=str(tmp_path / "out"))
    assert run(cfg) == 1
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize("flag,path", [("--out-dir", "/dev/null/x"),
                                       ("--dump-matrix", "/dev/null/m.txt")])
def test_unwritable_output_path_exits_1(flag, path, tmp_path, capsys, monkeypatch):
    import rigdens.cli as cli

    def must_not_run(*args):
        raise AssertionError("certification ran before the path was checked")

    monkeypatch.setattr(cli, "ly_coefficients_bv", must_not_run)
    mp = tmp_path / "m.map"
    mp.write_text("linear 3 mod 1\n")
    argv = ["--map", str(mp), "--k", "27", "--out-dir", str(tmp_path / "out")]
    assert main(argv + [flag, path]) == 1
    assert "error: " in capsys.readouterr().err


def test_nonpositive_eps_num_exits_1(tmp_path, capsys, monkeypatch):
    import rigdens.cli as cli

    def must_not_run(*args):
        raise AssertionError("the map was parsed before eps_num was checked")

    with pytest.raises(ValueError, match="eps_num must be positive"):
        RunConfig(map_text="linear 3 mod 1", k=27, eps_num=0.0)
    # non-finite values too: inf would write "eps_num": Infinity, which is
    # not JSON, and nan would fail only after the whole power-step budget.
    # The check comes before any work: no map build, no output directory
    monkeypatch.setattr(cli, "parse_map", must_not_run)
    mp = tmp_path / "m.map"
    mp.write_text("linear 3 mod 1\n")
    for value in ("nan", "inf", "1e400", "0", "-1"):
        out = tmp_path / value
        assert main(["--map", str(mp), "--k", "27", "--eps-num", value,
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: eps_num must be positive and finite\n"
        assert not out.exists()


@pytest.mark.parametrize("verbose", [True, False])
def test_verbose_logs_one_record_per_step(verbose, tmp_path, capsys, caplog):
    cfg = RunConfig(map_text="linear 3 mod 1", k=27, verbose=verbose,
                    no_lyap=True, out_dir=str(tmp_path / "out"))
    assert run(cfg) == 0
    records = [r for r in caplog.records if r.name == "rigdens.enclosure"]
    captured = capsys.readouterr()
    assert "step 1:" not in captured.out
    if verbose:
        # the sweep stops at N = 3 for the tripling map at k = 27; one more
        # record gives the power steps of the fixed vector (one: the
        # uniform start is exactly fixed)
        steps, fixed = records[:-1], records[-1]
        assert [r.step for r in steps] == [1, 2, 3]
        assert all(r.levelname == "INFO" and r.bound >= r.max_norm for r in steps)
        assert (fixed.power_steps, fixed.levelname) == (1, "INFO")
        assert fixed.radius < 1e-13
        assert "rigdens.enclosure: step 1: max_norm=" in captured.err
        assert "rigdens.enclosure: fixed vector: 1 power steps" in captured.err
    else:
        assert records == []
        assert captured.err == ""


def _plot_files_point_loop(density, m, k, out_dir):
    """The point-by-point reference form of the plot and density files."""
    from rigdens.intervals import Interval

    out_dir.mkdir(parents=True, exist_ok=True)
    vals = density.values
    scale = k if density.norm_kind == "L1" else 1.0
    with open(out_dir / "density_plot.dat", "w") as fh:
        for i in range(k):
            x = (i + 0.5) / k if density.norm_kind == "L1" else i / k
            fh.write(f"{x!r} {float(scale * vals[i])!r}\n")
    with open(out_dir / "map_graph.dat", "w") as fh:
        n = max(k, 512)
        for i in range(n + 1):
            x = i / n
            for br in m.branches:
                dom = br.domain_outer()
                if dom.lo <= x <= dom.hi:
                    fh.write(f"{x!r} {br.value_iv(Interval(x, x)).mid!r}\n")
    with open(out_dir / "density.csv", "w") as fh:
        fh.write("i,left,right,value\n")
        for i in range(k):
            v = float(k * vals[i] if density.norm_kind == "L1" else vals[i])
            fh.write(f"{i},{i / k!r},{(i + 1) / k!r},{v!r}\n")


def _density(text, mode, k):
    from rigdens.enclosure import contraction_sweep
    from rigdens.hatbasis import assemble_linearized
    from rigdens.ulam import assemble_ulam, markovize

    m = parse_map(text).build()
    raw = assemble_ulam(m, k) if mode == "L1" else assemble_linearized(m, k)
    return m, contraction_sweep(markovize(raw), 1e-5)[1]


@pytest.mark.parametrize("text,mode,k", [
    (SINMAP, "Linf", 64),
    ("poly [0,1] : 3 - 3x mod 1", "L1", 27),
    (LANFORD2, "L1", 32),
])
def test_plot_files_match_point_loop(text, mode, k, tmp_path):
    from rigdens.cli import emit_plot_data

    m, density = _density(text, mode, k)
    emit_plot_data(density, m, k, tmp_path / "fast")
    _plot_files_point_loop(density, m, k, tmp_path / "ref")
    for name in ("density_plot.dat", "map_graph.dat", "density.csv"):
        assert (tmp_path / "fast" / name).read_bytes() == \
            (tmp_path / "ref" / name).read_bytes()


@pytest.mark.parametrize("text,mode", [(SINMAP, "Linf"), (EQ4, "L1")])
def test_plot_points_are_where_the_values_live(text, mode, tmp_path):
    # a sup-norm value is the density at its node i/k (SINMAP's first is
    # the density at x = 0), an L1 value the average over cell i, drawn at
    # its midpoint
    from rigdens.cli import emit_plot_data

    k = 16
    m, density = _density(text, mode, k)
    emit_plot_data(density, m, k, tmp_path)
    rows = [line.split() for line in
            (tmp_path / "density_plot.dat").read_text().splitlines()]
    shift = 0.5 if mode == "L1" else 0.0
    assert [float(x) for x, _ in rows] == [(i + shift) / k for i in range(k)]
    assert [float(y) for _, y in rows] == density.density_values.tolist()


def _plot_files_formatter(density, m, k, out_dir):
    """The artifact files as a str.format per row writes them."""
    import numpy as np

    from rigdens.intervals import IntervalArray

    def write_lines(path, fmt, *columns, header=""):
        with open(path, "w") as fh:
            fh.write(header + "".join(fmt.format(*row) for row in
                                      zip(*(c.tolist() for c in columns))))

    out_dir.mkdir(parents=True, exist_ok=True)
    scale = k if density.norm_kind == "L1" else 1.0
    write_lines(out_dir / "density_plot.dat", "{!r} {!r}\n",
                (np.arange(k) + (0.5 if density.norm_kind == "L1" else 0)) / k,
                scale * density.values)
    n = max(k, 512)
    xs = np.arange(n + 1) / n
    at, ys = [], []
    for br in m.branches:
        dom = br.domain_outer()
        on = np.flatnonzero((dom.lo <= xs) & (xs <= dom.hi))
        at.append(on)
        ys.append(np.broadcast_to(br.value_iv(IntervalArray(xs[on])).mid, on.shape))
    at = np.concatenate(at)
    order = np.argsort(at, kind="stable")
    write_lines(out_dir / "map_graph.dat", "{!r} {!r}\n",
                xs[at[order]], np.concatenate(ys)[order])
    i = np.arange(k)
    write_lines(out_dir / "density.csv", "{},{!r},{!r},{!r}\n", i, i / k,
                (i + 1) / k, scale * density.values, header="i,left,right,value\n")


@pytest.mark.parametrize("k", [17, 64, 1024])
@pytest.mark.parametrize("text,mode", [(SINMAP, "Linf"), (EQ4, "L1")],
                         ids=["sinmap-Linf", "eq4-L1"])
def test_artifact_text_matches_row_formatter(text, mode, k, tmp_path):
    # below k = 512 the graph samples n = 512 points, not the cell edges
    from rigdens.cli import emit_plot_data

    m, density = _density(text, mode, k)
    emit_plot_data(density, m, k, tmp_path / "fast")
    _plot_files_formatter(density, m, k, tmp_path / "ref")
    for name in ("density_plot.dat", "map_graph.dat", "density.csv"):
        assert (tmp_path / "fast" / name).read_bytes() == \
            (tmp_path / "ref" / name).read_bytes()


def test_module_entry_point_runs_clean(tmp_path):
    # `python -m rigdens.cli` with RuntimeWarnings as errors: importing the
    # package must not import rigdens.cli before runpy executes it
    mp = tmp_path / "m.map"
    mp.write_text("linear 3 mod 1\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rigdens.cli",
         "--map", str(mp), "--k", "9", "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "out" / "certificate.json").is_file()
