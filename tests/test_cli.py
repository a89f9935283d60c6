import json
import os
import subprocess
import sys

import pytest

import koenigslab
import koenigslab.cli
from koenigslab.battery import battery_entry
from koenigslab.specio import save_psi

# the directory holding the package these tests import, so the command
# runs the same code without an install
SRC = os.path.dirname(os.path.dirname(koenigslab.__file__))


def run_cli(*args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "koenigslab.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    paths = {}
    for name in ("strip", "comb", "gap"):
        p = d / f"{name}.json"
        save_psi(battery_entry(name).psi, p)
        paths[name] = str(p)
    return paths


def test_classify_json(specs):
    r = run_cli("classify", specs["strip"])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["schema"] == "koenigs-lab/v1"
    assert out["class"] == "hyperbolic"


def test_decide_strip_yes(specs):
    r = run_cli("decide", specs["strip"])
    out = json.loads(r.stdout)
    assert out["weak_star_complete"] == "yes"
    assert "route" in out and out["route"]


def test_decide_comb_cross_check(specs):
    r = run_cli(
        "decide", specs["comb"], "--cross-check", "--window=-2,3,-1,2",
        "--resolution", "512",
    )
    out = json.loads(r.stdout)
    assert out["weak_star_complete"] == "no"
    assert out["topological"]["verdict"] == "no"
    assert out["routes_agree"] == "yes"


def test_oracle_outputs_pgm_and_counts(specs, tmp_path):
    pgm = tmp_path / "gap.pgm"
    r = run_cli(
        "oracle", specs["gap"], "--window=-4,4,-1.5,2.5", "--resolution", "256",
        "--pgm", str(pgm),
    )
    out = json.loads(r.stdout)
    assert out["components"] == 2
    assert out["int_closure_ok"] == "yes"
    assert pgm.read_bytes().startswith(b"P5")


def test_oracle_window_too_small(specs):
    r = run_cli("oracle", specs["gap"], "--window=-4,4,-0.2,1.2", "--resolution", "128")
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert out["error"] == "window_too_small"
    assert "y-range" in out["guidance"]


def test_freq_csv(tmp_path):
    csvp = tmp_path / "f.csv"
    r = run_cli(
        "freq", "--domain", "halfplane", "--p", "2", "--grid=-1,0,0,0",
        "--grid-n", "3", "--csv", str(csvp),
    )
    out = json.loads(r.stdout)
    assert out["counts"]["member"] >= 2
    lines = csvp.read_text().strip().splitlines()
    assert lines[0] == "re_lambda,im_lambda,status"
    assert len(lines) == 4  # the zero-width imaginary axis is one point


def test_freq_region_for_spec(specs):
    r = run_cli("freq", "--domain", specs["strip"])
    out = json.loads(r.stdout)
    assert out["exact_infty"]["exact"] is True


def test_approx_strip_csv_and_svg(tmp_path):
    csvp, svgp = tmp_path / "c.csv", tmp_path / "c.svg"
    r = run_cli(
        "approx", "--demo", "strip", "--n", "32", "--csv", str(csvp),
        "--svg", str(svgp),
    )
    out = json.loads(r.stdout)
    assert out["final_error"] < 0.15
    assert svgp.read_text().startswith("<svg")
    rows = csvp.read_text().strip().splitlines()[1:]
    errs = [float(line.split(",")[1]) for line in rows]
    assert errs == sorted(errs, reverse=True)


def test_approx_budget_beyond_physical_memory_exits_2(monkeypatch, capsys):
    # 2^14 nodes by 4 * 100000 frequencies of 16 bytes against 8 GiB
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert koenigslab.cli.main(["approx", "--demo", "halfplane", "--budget", "100000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --budget 100000 needs 97.7 GiB")
    assert "8.0 GiB of physical memory" in err


def test_approx_budget_is_sized_before_its_lists_are_built():
    # 2 * 10^8 frequencies: the lists alone would take minutes to build
    r = run_cli("approx", "--demo", "eta", "--budget", "100000000")
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.startswith("error: --budget 100000000 needs 48828.1 GiB")


def test_approx_logdomain_univalence(tmp_path):
    csvp = tmp_path / "pipeline.csv"
    r = run_cli("approx", "--demo", "logdomain", "--n", "4096", "--csv", str(csvp))
    out = json.loads(r.stdout)
    assert out["univalent"] is True
    assert out["final_error"] < 5e-3
    rows = csvp.read_text().strip().splitlines()[1:]
    assert len(rows) == 3  # one line per polynomial degree


def test_byte_identical_reruns(specs):
    a = run_cli("decide", specs["comb"], "--p", "1.0").stdout
    b = run_cli("decide", specs["comb"], "--p", "1.0").stdout
    assert a == b


def test_strict_flag_on_unknown(tmp_path):
    # a domain with an undeclared oscillatory-looking piece stays unknown;
    # simplest trigger: comb p-completeness is unknown by design
    p = tmp_path / "comb.json"
    save_psi(battery_entry("comb").psi, p)
    r = run_cli("decide", str(p), "--p", "1.0", "--strict")
    assert r.returncode == 3
    r2 = run_cli("decide", str(p), "--p", "1.0")
    assert r2.returncode == 0


def test_schema_violation_pointer(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"interval": [0, 1], "pieces": [{"kind": "nope"}]}))
    r = run_cli("decide", str(bad))
    assert r.returncode == 2
    assert "/pieces/0" in r.stderr


def test_malformed_spec_exits_without_traceback(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"interval": [0, 1], "pieces": 3}))
    r = run_cli("decide", str(bad))
    assert r.returncode == 2
    assert "/pieces" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("drop, pointer", [
    (("carrier",), "/pieces/0/carrier"), (("carrier", "base"), "/pieces/0/carrier/base"),
])
def test_missing_required_key_exits_2(tmp_path, drop, pointer):
    spec = {"interval": [-0.5, 1.5], "pieces": [
        {"kind": "cantor_comb", "span": [-0.5, 1.5], "carrier": {"base": [0.0, 1.0]},
         "on_value": 1.0}]}
    obj = spec["pieces"][0]
    for key in drop[:-1]:
        obj = obj[key]
    del obj[drop[-1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    r = run_cli("decide", str(bad))
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
    assert f"{pointer}: missing required key" in r.stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_decide_rejects_non_finite_p(value):
    r = run_cli("decide", "battery:strip", "--p", value)
    assert r.returncode == 2
    assert "--p" in r.stderr and "finite" in r.stderr and r.stdout == ""


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_freq_rejects_non_finite_p(value):
    r = run_cli("freq", "--domain", "strip", f"--p={value}")
    assert r.returncode == 2
    assert "--p" in r.stderr and "finite" in r.stderr and r.stdout == ""


@pytest.mark.parametrize("spec, value", [
    ("battery:strip", "-1"), ("battery:strip", "0"), ("battery:eta1", "0.5"),
])
def test_decide_rejects_p_below_one_on_every_domain(spec, value):
    r = run_cli("decide", spec, f"--p={value}")
    assert r.returncode == 2
    assert "p must be at least 1" in r.stderr and r.stdout == ""


@pytest.mark.parametrize("value", ["0", "-3"])
def test_freq_rejects_a_grid_n_below_one(value):
    # 0 once printed an empty grid and exited 0, -3 numpy's linspace error
    r = run_cli("freq", "--domain", "halfplane", f"--grid-n={value}")
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
    assert "--grid-n" in r.stderr and "positive integer" in r.stderr


def test_freq_answers_an_overflowing_p_lam_without_a_warning():
    r = run_cli("freq", "--domain", "halfplane", "--p", "2", "--grid=-1e308,-1e308,0,0", "--grid-n", "2")
    assert r.returncode == 0 and r.stderr == ""
    # the one grid row as CSV, then the JSON summary
    assert "-1e+308,0.0,inconclusive" in r.stdout
    summary = json.loads(r.stdout[r.stdout.index("{"):])
    assert summary["counts"] == {"member": 0, "non_member": 0, "inconclusive": 1}


def test_freq_answers_overflowing_node_products_without_a_warning():
    # p * lam = -1e308 is finite, but its products with Re T overflow
    r = run_cli("freq", "--domain", "halfplane", "--p", "1", "--grid=-1e308,-1e308,0,0", "--grid-n", "2")
    assert r.returncode == 0 and r.stderr == ""
    assert "-1e+308,0.0,member" in r.stdout


def test_freq_writes_its_csv_beside_an_output_in_a_dotted_directory(tmp_path, monkeypatch):
    out_dir = tmp_path / "run.d"
    out_dir.mkdir()
    monkeypatch.chdir(tmp_path)
    r = run_cli("freq", "--domain", "halfplane", "--grid=-1,0,0,0", "--grid-n", "2", "--out", "run.d/result")
    assert r.returncode == 0
    assert json.loads((out_dir / "result").read_text())["csv"] == "run.d/result.csv"
    assert (out_dir / "result.csv").read_text().startswith("re_lambda,im_lambda,status")
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize(
    "args", [("decide", "battery:nosuch"), ("classify", "battery:nosuch"), ("freq", "--domain", "battery:nosuch")]
)
def test_an_unknown_battery_entry_exits_2_naming_the_known_ones(args):
    r = run_cli(*args)
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.startswith("error:") and "'nosuch'" in r.stderr and "vee" in r.stderr


def test_freq_unknown_domain_exits_without_traceback():
    r = run_cli("freq", "--domain", "foo")
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "'foo'" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("field, value", [("value", "nan"), ("value", "inf")])
def test_spike_value_outside_the_extended_line_exits_2(tmp_path, field, value):
    # a NaN or +inf value of psi has no verdict: it is rejected at load
    spec = {"interval": [-1.0, 1.0], "pieces": [
        {"kind": "point_spike", "span": [-1.0, 1.0], "c0": 0.0,
         "value": 1.0, "background": 0.0, field: value}]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    r = run_cli("decide", str(bad), "--p", "1")
    assert r.returncode == 2 and r.stdout == ""
    assert "/pieces/0" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("value, code", [("nan", 2), (0.0, 0)])
def test_nan_comb_declaration_exits_2(tmp_path, value, code):
    # a NaN off_limsup_at_carrier once read as weak-star "yes" on the comb
    spec = {"interval": [-0.5, 1.5], "pieces": [
        {"kind": "cantor_comb", "span": [-0.5, 1.5], "carrier": {"base": [0.0, 1.0]},
         "on_value": 1.0, "off_expr": "0",
         "off_limsup_at_carrier": value, "off_liminf_at_carrier": 0.0}]}
    path = tmp_path / "comb.json"
    path.write_text(json.dumps(spec))
    r = run_cli("decide", str(path), "--p", "1")
    assert r.returncode == code and "Traceback" not in r.stderr
    if code == 2:
        assert r.stdout == "" and "/pieces/0: off_limsup_at_carrier" in r.stderr
    else:
        assert json.loads(r.stdout)["weak_star_complete"] == "no"


@pytest.mark.parametrize("kind, field, value", [
    ("finite_analytic", "expr", "log("), ("finite_analytic", "expr", 5),
    ("finite_analytic", "span", ["a", 1.0]), ("cantor_comb", "off_expr", "2 +"),
    ("cantor_comb", "on_value", "one"), ("point_spike", "c0", "zero"),
])
def test_a_bad_field_inside_a_piece_exits_2_at_its_path(tmp_path, kind, field, value):
    piece = {
        "finite_analytic": {"span": [-1.0, 1.0], "expr": "0"},
        "cantor_comb": {"span": [-1.0, 1.0], "carrier": {"base": [0.0, 1.0]},
                        "on_value": 1.0, "off_expr": "0"},
        "point_spike": {"span": [-1.0, 1.0], "c0": 0.0, "value": 1.0, "background": 0.0},
    }[kind]
    spec = {"interval": [-1.0, 1.0], "pieces": [{"kind": kind, **piece, field: value}]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    r = run_cli("decide", str(bad))
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
    assert f"/pieces/0/{field}: " in r.stderr



@pytest.mark.parametrize("carrier, message", [
    ({"base": [0, "inf"]}, "base interval must be finite"),
    ({"base": [0, 1], "depth": -3}, "depth must be an integer >= 1, got -3"),
    ({"base": [0, 1], "depth": 2.7}, "depth must be an integer >= 1, got 2.7"),
])
def test_a_bad_cantor_carrier_exits_2_at_its_path(tmp_path, carrier, message):
    # the infinite base printed an OverflowError traceback; depth -3 loaded
    # silently and depth 2.7 was truncated to 2
    spec = {"interval": [0, "inf"], "pieces": [{
        "kind": "cantor_comb", "span": [0, "inf"], "carrier": carrier,
        "on_value": 1.0, "off_expr": "0",
    }]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    r = run_cli("analyze", str(bad))
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
    assert f"/pieces/0/carrier: {message}" in r.stderr


@pytest.mark.parametrize("window", ["-inf,4,-2.4,2.4", "-4,4,-2.4,nan"])
def test_oracle_rejects_a_non_finite_window(window):
    # an infinite end once asked to "extend the window", a NaN one read as empty
    r = run_cli("oracle", "battery:strip", f"--window={window}", "--resolution", "256")
    assert r.returncode == 2 and r.stdout == ""
    assert "--window" in r.stderr and "non-finite window" in r.stderr


def test_rows_where_every_sample_fails_leave_the_raster_unknown(tmp_path):
    # sqrt(-1 - y^2) has no value on I, so every raster row inside I fails;
    # the raster once read those rows as inside the domain and answered yes
    zero = {"liminf": 0, "limsup": 0}
    spec = tmp_path / "undefined.json"
    spec.write_text(json.dumps({"interval": [-1, 1], "pieces": [{
        "kind": "finite_analytic", "span": [-1, 1], "expr": "sqrt(-1-y*y)",
        "limits": {"left": zero, "right": zero},
    }]}))
    r = run_cli(
        "decide", str(spec), "--p", "1", "--cross-check", "--window=-3,3,-1.5,1.5",
        "--resolution", "256",
    )
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["topological"] == {
        "verdict": "unknown", "route": "raster inconclusive",
        "int_closure_ok": "unknown", "complement_components": None,
    }
    assert out["routes_agree"] == "indeterminate"
